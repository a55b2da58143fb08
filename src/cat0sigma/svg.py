"""Deterministic SVG pictures of character-sphere subsets, k <= 3.

S^0 is two marked points, S^1 a circle with member arcs drawn thick, S^2
an orthographic projection with the boundary great circle of each
hemisphere and, drawn thick on it, the arcs that bound a member region.
On S^2 what lies behind the sphere (z < 0) is drawn in a back style:
dashed great circles, faint member arcs and hollow points.
Output is byte-identical across runs for identical input: no timestamps,
fixed float formatting, sorted iteration everywhere.
"""

from __future__ import annotations

import math

from .errors import UnsupportedDimension
from .sphere import PolyhedralSet, SpherePoint

SIZE = 400
CENTER = SIZE / 2
RADIUS = 160.0

STYLE = (
    "circle.outline{fill:none;stroke:#444;stroke-width:1.5}"
    "path.member,line.member{stroke:#0a7d33;stroke-width:7;fill:none;stroke-linecap:round}"
    "circle.pt{fill:#b3122e}circle.pt-back{fill:none;stroke:#b3122e;stroke-width:1.5}"
    "circle.in{fill:#0a7d33}circle.out{fill:#bbb}"
    "path.gc{fill:none;stroke:#b3122e;stroke-width:1}"
    "line.axis{stroke:#ccc;stroke-width:1}"
)
# Added to the style of an S^2 picture of a set, whose great circles and
# member arcs can pass behind the sphere.
BACK_STYLE = (
    "path.member-back{stroke:#0a7d33;stroke-width:7;fill:none;stroke-linecap:round;stroke-opacity:0.35}"
    "path.gc-back{fill:none;stroke:#b3122e;stroke-width:1;stroke-dasharray:4 4}"
)


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _header(lines: list[str], style: str = STYLE) -> None:
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">'
    )
    lines.append(f"<style>{style}</style>")


def _xy(x: float, y: float) -> tuple[float, float]:
    return CENTER + RADIUS * x, CENTER - RADIUS * y


def _unit(vec) -> list[float]:
    n = math.sqrt(sum(float(c) * float(c) for c in vec))
    return [float(c) / n for c in vec]


def _clause_member(clauses, direction) -> bool:
    # Drawing-only membership on float directions.
    for clause in clauses:
        if all(sum(float(n) * d for n, d in zip(h.normal.primitive, direction)) > 1e-12 for h in clause):
            return True
    return False


def render_sphere_svg(obj) -> str:
    """Render a PolyhedralSet or a list of sphere points to SVG text."""
    if isinstance(obj, PolyhedralSet):
        k, pset, pts = obj.k, obj, []
    else:
        pts = sorted(obj, key=lambda p: p.primitive)
        if not pts:
            raise UnsupportedDimension("empty point list has no dimension")
        k, pset = pts[0].k, None
    if k == 1:
        return _render_s0(pset, pts)
    if k == 2:
        return _render_s1(pset, pts)
    if k == 3:
        return _render_s2(pset, pts)
    raise UnsupportedDimension(f"can draw S^0, S^1, S^2 only, not k = {k}")


def _render_s0(pset, pts) -> str:
    lines: list[str] = []
    _header(lines)
    y = CENTER
    lines.append(
        f'<line class="axis" x1="{_fmt(CENTER - RADIUS)}" y1="{_fmt(y)}" '
        f'x2="{_fmt(CENTER + RADIUS)}" y2="{_fmt(y)}"/>'
    )
    marked = {p.primitive[0] > 0 for p in pts}
    for sign in (-1, +1):
        cx = CENTER + sign * RADIUS
        if pset is not None:
            cls = "in" if pset.contains(SpherePoint((sign,))) else "out"
        else:
            cls = "pt" if (sign > 0) in marked else "out"
        lines.append(f'<circle class="{cls}" cx="{_fmt(cx)}" cy="{_fmt(y)}" r="9"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _render_s1(pset, pts) -> str:
    lines: list[str] = []
    _header(lines)
    lines.append(f'<circle class="outline" cx="{_fmt(CENTER)}" cy="{_fmt(CENTER)}" r="{_fmt(RADIUS)}"/>')
    if pset is not None:
        segments = 720
        thetas = (2.0 * math.pi * i / segments for i in range(segments + 1))
        circle = [(math.cos(theta), math.sin(theta)) for theta in thetas]
        _paths(lines, "member", circle, lambda d: _clause_member(pset.clauses, d))
    for p in pts:
        x, y = _xy(*_unit(p.primitive))
        lines.append(f'<circle class="pt" cx="{_fmt(x)}" cy="{_fmt(y)}" r="6"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _paths(lines: list[str], cls: str, directions, keep=lambda d: True) -> None:
    """Draw each run of consecutive directions that keep holds as a path of
    the class.  On S^2 a run is split where it passes behind the sphere
    (z < 0), and its back part, of the class cls-back, starts at the last
    point of the part before it, so the two meet."""
    run: list[tuple[float, float]] = []
    back = False
    for d in directions:
        if not keep(d):
            _flush_run(lines, cls, back, run)
            run = []
            continue
        behind = len(d) == 3 and d[2] < 0
        if behind != back:
            _flush_run(lines, cls, back, run)
            run, back = run[-1:], behind
        run.append(_xy(d[0], d[1]))
    _flush_run(lines, cls, back, run)


def _flush_run(lines: list[str], cls: str, back: bool, run: list) -> None:
    if len(run) < 2:
        return
    d = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in run)
    suffix = "-back" if back else ""
    lines.append(f'<path class="{cls}{suffix}" d="{d}"/>')


def _render_s2(pset, pts) -> str:
    lines: list[str] = []
    _header(lines, STYLE if pset is None else STYLE + BACK_STYLE)
    lines.append(f'<circle class="outline" cx="{_fmt(CENTER)}" cy="{_fmt(CENTER)}" r="{_fmt(RADIUS)}"/>')
    if pset is not None:
        normals = sorted(
            {h.normal.primitive for clause in pset.clauses for h in clause}
        )
        for normal in normals:
            _paths(lines, "gc", _great_circle(normal))
        # The boundary of a member region on the great circle of a normal:
        # where every other hemisphere of a clause that holds it is positive.
        for normal in normals:
            others = [
                [h for h in clause if h.normal.primitive != normal]
                for clause in pset.clauses
                if any(h.normal.primitive == normal for h in clause)
            ]
            _paths(lines, "member", _great_circle(normal), lambda d: _clause_member(others, d))
    for p in pts:
        x, y, z = _unit(p.primitive)
        px, py = _xy(x, y)
        cls = "pt" if z >= 0 else "pt-back"
        lines.append(f'<circle class="{cls}" cx="{_fmt(px)}" cy="{_fmt(py)}" r="6"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _great_circle(normal) -> list[list[float]]:
    """Unit vectors at 181 equal steps once around the great circle normal
    to the given vector."""
    n = _unit(normal)
    # Orthonormal pair spanning the plane orthogonal to n.
    pick = (1.0, 0.0, 0.0) if abs(n[0]) < 0.9 else (0.0, 1.0, 0.0)
    u = [pick[i] - n[i] * sum(p * q for p, q in zip(pick, n)) for i in range(3)]
    u = _unit(u)
    v = [
        n[1] * u[2] - n[2] * u[1],
        n[2] * u[0] - n[0] * u[2],
        n[0] * u[1] - n[1] * u[0],
    ]
    segments = 180
    thetas = (2.0 * math.pi * i / segments for i in range(segments + 1))
    return [[math.cos(theta) * u[i] + math.sin(theta) * v[i] for i in range(3)] for theta in thetas]
