"""Deterministic SVG pictures of character-sphere points, k <= 3.

S^0 is its two points, red where a point is given and grey where not, S^1
a circle with the points on it, and S^2 an orthographic projection along z, with
the points behind the sphere (z < 0) drawn hollow.
Output is byte-identical across runs for identical input: no timestamps,
fixed float formatting, sorted iteration everywhere.
"""

from __future__ import annotations

import math

from .errors import UnsupportedDimension

SIZE = 400
CENTER = SIZE / 2
RADIUS = 160.0

# The unused classes member, in and gc stay: the style is bytes of the mfpr snapshots.
STYLE = (
    "circle.outline{fill:none;stroke:#444;stroke-width:1.5}"
    "path.member,line.member{stroke:#0a7d33;stroke-width:7;fill:none;stroke-linecap:round}"
    "circle.pt{fill:#b3122e}circle.pt-back{fill:none;stroke:#b3122e;stroke-width:1.5}"
    "circle.in{fill:#0a7d33}circle.out{fill:#bbb}"
    "path.gc{fill:none;stroke:#b3122e;stroke-width:1}"
    "line.axis{stroke:#ccc;stroke-width:1}"
)


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _header(lines: list[str]) -> None:
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">'
    )
    lines.append(f"<style>{STYLE}</style>")


def _xy(x: float, y: float) -> tuple[float, float]:
    return CENTER + RADIUS * x, CENTER - RADIUS * y


def _unit(vec) -> list[float]:
    n = math.sqrt(sum(float(c) * float(c) for c in vec))
    return [float(c) / n for c in vec]


def render_sphere_svg(k: int, points) -> str:
    """Render a list of points of the sphere of rank k to SVG text; with no
    points, the empty sphere."""
    pts = sorted(points, key=lambda p: p.primitive)
    if k == 1:
        return _render_s0(pts)
    if k in (2, 3):
        return _render_disc(pts)
    raise UnsupportedDimension(f"can draw S^0, S^1, S^2 only, not k = {k}")


def _render_s0(pts) -> str:
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
        cls = "pt" if (sign > 0) in marked else "out"
        lines.append(f'<circle class="{cls}" cx="{_fmt(cx)}" cy="{_fmt(y)}" r="9"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _render_disc(pts) -> str:
    """S^1, or S^2 seen along z: each point at its unit vector's (x, y)."""
    lines: list[str] = []
    _header(lines)
    lines.append(f'<circle class="outline" cx="{_fmt(CENTER)}" cy="{_fmt(CENTER)}" r="{_fmt(RADIUS)}"/>')
    for p in pts:
        u = _unit(p.primitive)
        x, y = _xy(u[0], u[1])
        cls = "pt-back" if len(u) == 3 and u[2] < 0 else "pt"
        lines.append(f'<circle class="{cls}" cx="{_fmt(x)}" cy="{_fmt(y)}" r="6"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
