"""Isometric group actions on the model spaces and their boundary calculus.

Covers: evaluation of generator words on points and boundary points,
endpoint characters of actions fixing a boundary point, the shift calculus
for finite control configurations (shift, guaranteed shift, norms,
contraction flag), a desk-scale cocompactness decision, and two numeric
audits (the local Busemann comparison bound and the chord-versus-angle
estimate).

Isometries are exact wherever the underlying space is exact: tree
isometries are deck transformations computed over ints and Fractions, and
Moebius maps with rational entries act exactly on rational boundary
points.

Each public function checks each point and end from its caller once, then
computes with the space methods, the rays' ``busemann`` and the
isometries' ``apply`` and ``boundary``, which check nothing: the images,
orbit points, samples, rays and probe ends the library builds are valid.
An isometry is checked once too: its constructor checks its values and
``GroupAction`` its fit with the space; nothing checks the inverses the
library computes from checked isometries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from . import spaces
from .errors import (
    Cat0SigmaError,
    EmptyConfiguration,
    EndNotFixed,
    NotClosed,
    UnknownGenerator,
    WrongSpace,
)
from .jsonio import parse_fraction, parse_int, parse_real, read_field
from .spaces import (
    EDirection,
    EuclideanSpace,
    GeneralizedRay,
    H2_INFINITY,
    HyperbolicPlane,
    ModelSpace,
)
from .trees import (
    CayleyTree,
    HnnDown,
    HnnTree,
    HnnUp,
    TreePoint,
    check_depth,
)
from .words import invert_word, reduce_word

GLOBAL_TOL = spaces.GLOBAL_TOL


# ---------------------------------------------------------------------------
# Isometries: each class has apply(space, p), boundary(space, e), inverse,
# check(space) (the fit with the space) and from_json(space, data).


def _built(cls, **fields):
    """The inverse of a checked isometry, set up without running the checks
    of the class constructor again."""
    iso = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(iso, name, value)
    return iso


def _square_matrix(data, n: int) -> list:
    """An n x n JSON matrix, checked for shape only."""
    if not (isinstance(data, list) and len(data) == n and all(isinstance(r, list) and len(r) == n for r in data)):
        raise ValueError(f"expected a {n} x {n} matrix, got {data!r}")
    return data


@dataclass(frozen=True)
class EuclideanIsometry:
    """p -> Q p + v with Q orthogonal (within 1e-9)."""

    matrix: tuple
    translation: tuple

    def __init__(self, matrix, translation):
        m = tuple(tuple(float(x) for x in row) for row in matrix)
        v = tuple(float(x) for x in translation)
        k = len(v)
        if len(m) != k or any(len(row) != k for row in m):
            raise ValueError("matrix and translation dimensions disagree")
        for i in range(k):
            for j in range(k):
                gram = sum(m[r][i] * m[r][j] for r in range(k))
                if abs(gram - (1.0 if i == j else 0.0)) > 1e-9:
                    raise ValueError("matrix is not orthogonal within 1e-9")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "translation", v)

    @staticmethod
    def pure_translation(vector) -> "EuclideanIsometry":
        v = tuple(float(x) for x in vector)
        k = len(v)
        eye = tuple(tuple(1.0 if i == j else 0.0 for j in range(k)) for i in range(k))
        return EuclideanIsometry(eye, v)

    @staticmethod
    def from_json(space: EuclideanSpace, data) -> "EuclideanIsometry":
        translation = read_field(data, "translation", list)
        matrix = _square_matrix(read_field(data, "matrix", list), len(translation))
        return EuclideanIsometry(
            [[parse_real(x) for x in row] for row in matrix], [parse_real(x) for x in translation]
        )

    def check(self, space: EuclideanSpace) -> None:
        if len(self.translation) != space.k:
            raise WrongSpace(f"translation of dimension {len(self.translation)} in {space.name}")

    def _affine(self, p):
        return tuple(
            sum(self.matrix[i][j] * p[j] for j in range(len(p))) + self.translation[i]
            for i in range(len(p))
        )

    def apply(self, space, p):
        return self._affine(p)

    def boundary(self, space, e: EDirection) -> EDirection:
        u = e.vector
        w = tuple(sum(self.matrix[i][j] * u[j] for j in range(len(u))) for i in range(len(u)))
        return EDirection(spaces.direction(w))

    def inverse(self) -> "EuclideanIsometry":
        k = len(self.translation)
        mt = tuple(tuple(self.matrix[j][i] for j in range(k)) for i in range(k))
        v = tuple(-sum(mt[i][j] * self.translation[j] for j in range(k)) for i in range(k))
        return _built(EuclideanIsometry, matrix=mt, translation=v)


def _num(x):
    """Normalize a matrix entry: floats stay floats, everything else (ints,
    Fractions, strings like "1/2") becomes an exact Fraction."""
    if isinstance(x, (float, Fraction)):
        return x
    return parse_fraction(x)


@dataclass(frozen=True)
class MoebiusIsometry:
    """Real 2x2 matrix of determinant one acting on the upper half-plane by
    fractional linear maps.  Rational entries act exactly on rational
    boundary points."""

    a: object
    b: object
    c: object
    d: object

    def __init__(self, a, b, c, d):
        a, b, c, d = _num(a), _num(b), _num(c), _num(d)
        det = a * d - b * c
        exact = all(isinstance(x, Fraction) for x in (a, b, c, d))
        if exact:
            if det != 1:
                raise ValueError(f"determinant {det} != 1")
        elif abs(float(det) - 1.0) > 1e-12:
            raise ValueError(f"determinant {det} != 1 within 1e-12")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @staticmethod
    def from_json(space: HyperbolicPlane, data) -> "MoebiusIsometry":
        m = _square_matrix(read_field(data, "matrix", list), 2)
        return MoebiusIsometry(m[0][0], m[0][1], m[1][0], m[1][1])

    def check(self, space: HyperbolicPlane) -> None:
        """Every matrix of determinant one acts on H2."""

    def apply(self, space, z: complex) -> complex:
        a, b, c, d = (float(x) for x in (self.a, self.b, self.c, self.d))
        return (a * z + b) / (c * z + d)

    def boundary(self, space, xi):
        a, b, c, d = self.a, self.b, self.c, self.d
        if xi == H2_INFINITY:
            if c == 0:
                return H2_INFINITY
            return a / c
        num = a * xi + b
        den = c * xi + d
        if den == 0:
            return H2_INFINITY
        return num / den

    def inverse(self) -> "MoebiusIsometry":
        return _built(MoebiusIsometry, a=self.d, b=-self.b, c=-self.c, d=self.a)


@dataclass(frozen=True)
class CayleyIsometry:
    """Left multiplication by a reduced word on the Cayley tree of a free
    group."""

    word: tuple

    def __init__(self, word):
        object.__setattr__(self, "word", reduce_word(tuple(word)))

    @staticmethod
    def from_json(space: CayleyTree, data) -> "CayleyIsometry":
        return CayleyIsometry(space.parse_vertex(read_field(data, "word", list)))

    def check(self, space: CayleyTree) -> None:
        space.check_vertex(self.word)

    def apply(self, space: CayleyTree, p: TreePoint) -> TreePoint:
        gv = space.left_multiply_vertex(self.word, p.vertex)
        if p.up == 0:
            return TreePoint(gv)
        gparent = space.left_multiply_vertex(self.word, space.parent(p.vertex))
        # Left multiplication can flip which endpoint of the edge is deeper.
        if space.parent(gv) == gparent:
            return TreePoint(gv, p.up)
        return TreePoint(gparent, 1 - p.up)

    def boundary(self, space: CayleyTree, end):
        return space.left_multiply_end(self.word, end)

    def inverse(self) -> "CayleyIsometry":
        return CayleyIsometry(invert_word(self.word))

@dataclass(frozen=True)
class HnnIsometry:
    """Affine deck transformation x -> n^shift x + add of the Bass-Serre
    tree of an ascending HNN extension of index n."""

    index: int
    shift: int
    add: Fraction

    def __init__(self, index: int, shift: int, add):
        object.__setattr__(self, "index", int(index))
        object.__setattr__(self, "shift", int(shift))
        object.__setattr__(self, "add", Fraction(add))

    @staticmethod
    def from_json(space: HnnTree, data) -> "HnnIsometry":
        shift, add = parse_int(read_field(data, "shift")), parse_fraction(read_field(data, "add"))
        return HnnIsometry(space.index, shift, add)

    def check(self, space: HnnTree) -> None:
        if self.index != space.index:
            raise WrongSpace(f"HNN isometry of index {self.index} on {space.name}")
        check_depth("shift", self.shift)
        space.affine_vertex(0, self.add, space.base_vertex())  # rejects an add that is not n-adic

    def apply(self, space: HnnTree, p: TreePoint) -> TreePoint:
        # Affine maps preserve the parent direction, so offsets carry over.
        return TreePoint(space.affine_vertex(self.shift, self.add, p.vertex), p.up)

    def boundary(self, space, end):
        if isinstance(end, HnnUp):
            return HnnUp()
        n = Fraction(self.index)
        return HnnDown(n ** self.shift * end.value + self.add)

    def inverse(self) -> "HnnIsometry":
        n = Fraction(self.index)
        return HnnIsometry(self.index, -self.shift, -(n ** (-self.shift)) * self.add)

Isometry = Union[EuclideanIsometry, MoebiusIsometry, CayleyIsometry, HnnIsometry]

ISOMETRY_TYPES = {
    EuclideanSpace: EuclideanIsometry,
    HyperbolicPlane: MoebiusIsometry,
    CayleyTree: CayleyIsometry,
    HnnTree: HnnIsometry,
}


def isometry_type(space: ModelSpace) -> type:
    """The isometry class that acts on the space."""
    cls = ISOMETRY_TYPES.get(type(space))
    if cls is None:
        raise WrongSpace(f"no isometries implemented on {space.name}")
    return cls


# ---------------------------------------------------------------------------
# Group actions


class GroupAction:
    """Named generators mapped to isometries of one model space.

    Words are strings over single-character generator names; an uppercase
    letter is the inverse of the corresponding lowercase generator.  The
    action checks each generator's fit with the space once, with its
    ``check``; it applies no generator to test it.
    """

    def __init__(self, space: ModelSpace, generators: Mapping[str, Isometry]):
        self.space = space
        self.generators = dict(generators)
        for name, iso in self.generators.items():
            if len(name) != 1 or not name.islower():
                raise ValueError(f"generator names are single lowercase characters, got {name!r}")
            if not isinstance(iso, isometry_type(space)):
                raise WrongSpace(f"{type(iso).__name__} does not act on {space.name}")
            try:
                iso.check(space)
            except (ValueError, Cat0SigmaError) as exc:
                raise type(exc)(f"generator {name!r}: {exc}") from exc
        self._inverses = {name: iso.inverse() for name, iso in self.generators.items()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def euclidean_translations(k: int, vectors: Mapping[str, Sequence]) -> "GroupAction":
        space = EuclideanSpace(k)
        gens = {name: EuclideanIsometry.pure_translation(v) for name, v in vectors.items()}
        return GroupAction(space, gens)

    @staticmethod
    def free_group(rank: int) -> "GroupAction":
        """The free group acting on its own Cayley tree by left translation."""
        space = CayleyTree(rank)
        names = "abcdefghijklmnopqrstuvwxyz"[:rank]
        gens = {names[i]: CayleyIsometry((i + 1,)) for i in range(rank)}
        return GroupAction(space, gens)

    @staticmethod
    def cyclic_on_cayley_tree(rank: int, word) -> "GroupAction":
        """The cyclic group generated by one word of the free group."""
        space = CayleyTree(rank)
        return GroupAction(space, {"h": CayleyIsometry(word)})

    @staticmethod
    def ascending_hnn(index: int) -> "GroupAction":
        """The ascending HNN extension of index n on its Bass-Serre tree:
        the base generator fixes the origin ball, the stable letter moves
        one level away from the fixed upward end."""
        space = HnnTree(index)
        gens = {
            "a": HnnIsometry(index, 0, 1),
            "t": HnnIsometry(index, 1, 0),
        }
        return GroupAction(space, gens)

    @staticmethod
    def moebius(generators: Mapping[str, Sequence[Sequence]]) -> "GroupAction":
        space = HyperbolicPlane()
        gens = {
            name: MoebiusIsometry(m[0][0], m[0][1], m[1][0], m[1][1])
            for name, m in generators.items()
        }
        return GroupAction(space, gens)

    # -- words ---------------------------------------------------------------

    def letters(self, word: str) -> list[Isometry]:
        out = []
        for ch in word:
            lower = ch.lower()
            if lower not in self.generators:
                raise UnknownGenerator(f"letter {ch!r} is not a generator")
            out.append(self._inverses[lower] if ch.isupper() else self.generators[lower])
        return out

    def apply(self, word: str, p):
        """Evaluate the word (leftmost letter acts last) on a point."""
        return self._evaluate(self.letters(word), self.space.check_point(p))

    def _evaluate(self, isos: list[Isometry], p):
        """The image of a checked point under the letters, the last first."""
        for iso in reversed(isos):
            p = iso.apply(self.space, p)
        return p

    def boundary_apply(self, word: str, e):
        return self._move_end(self.letters(word), self.space.check_boundary(e))

    def _move_end(self, isos: list[Isometry], e):
        """The image of a checked end under the letters, the last first."""
        for iso in reversed(isos):
            e = iso.boundary(self.space, e)
        return e


def action_from_json(data: Mapping) -> GroupAction:
    space = spaces.space_from_json(read_field(data, "space"))
    gens = {}
    for name, iso in read_field(data, "generators", dict).items():
        try:
            gens[name] = isometry_type(space).from_json(space, iso)
        except (ValueError, Cat0SigmaError) as exc:
            raise type(exc)(f"generator {name!r}: {exc}") from exc
    return GroupAction(space, gens)


# ---------------------------------------------------------------------------
# Endpoint characters


def character_at_end(action: GroupAction, e, a, words: Sequence[str]) -> dict:
    """{g: chi_e(g)} for the words g, where chi_e(g) = beta(ga) - beta(a)
    along the ray from a to e; requires every generator to fix e (raises
    EndNotFixed otherwise)."""
    space = action.space
    e, a = space.check_boundary(e), space.check_point(a)
    if not words:  # an empty word list asks nothing of the end
        return {}
    _check_fixed(action, e)
    ray = space.ray_from(a, e)
    return {word: _psi(action, word, ray) for word in words}


def _check_fixed(action: GroupAction, e) -> None:
    space = action.space
    for name, iso in sorted(action.generators.items()):
        if not space.boundary_equal(iso.boundary(space, e), e):
            raise EndNotFixed(f"generator {name!r} moves the boundary point {e!r}")


def _psi(action: GroupAction, word: str, ray: GeneralizedRay):
    """beta(ga) - beta(a) along the ray from a."""
    a = ray.base
    return ray.busemann(action._evaluate(action.letters(word), a)) - ray.busemann(a)


# ---------------------------------------------------------------------------
# Shift calculus on finite control configurations


@dataclass(frozen=True)
class ControlConfiguration:
    """A finite labeled set of control points in one model space."""

    space: ModelSpace
    points: dict

    def __init__(self, space: ModelSpace, points: Mapping):
        if not points:
            raise EmptyConfiguration("control configurations are nonempty")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "points", {label: space.check_point(p) for label, p in points.items()})

    def labels(self):
        return sorted(self.points, key=str)


@dataclass(frozen=True)
class ShiftReport:
    """Per-point shifts toward an end, displacements, guaranteed shift and
    norm of a map on a control configuration.

    The shift bound |sh(x)| <= alpha(x) holds by construction: it is
    asserted when the report is built (exactly on trees, within 1e-9
    elsewhere), not merely offered to tests.
    """

    end: object
    shifts: dict
    displacements: dict
    gsh: object
    norm: object
    is_contraction: bool

    def __init__(self, end, shifts: dict, displacements: dict, tol):
        for label, sh in shifts.items():
            alpha = displacements[label]
            if abs(sh) > alpha + tol:
                raise AssertionError(
                    f"shift bound violated at {label!r}: |{sh}| > {alpha}"
                )
        gsh = min(shifts.values())
        norm = max(displacements.values())
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "shifts", dict(shifts))
        object.__setattr__(self, "displacements", dict(displacements))
        object.__setattr__(self, "gsh", gsh)
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "is_contraction", gsh > 0)


def _image_pairs(cfg: ControlConfiguration, f: Mapping) -> dict:
    """(point, image) by label for the map f on the configuration; an image
    is a label of the configuration or a point, which is checked here."""
    if not f:
        raise EmptyConfiguration("the map has empty domain")
    for label in f:
        if label not in cfg.points:
            raise NotClosed(f"domain label {label!r} is not in the configuration")
    check = cfg.space.check_point
    return {label: (cfg.points[label], cfg.points[x] if x in cfg.points else check(x)) for label, x in f.items()}


def shift_report(cfg: ControlConfiguration, f: Mapping, e) -> ShiftReport:
    """Shift of the map f toward the end e on the configuration.

    f maps labels to explicit image points (or to labels of the
    configuration).  The shift at x is the Busemann gain beta(f(x)) -
    beta(x); the guaranteed shift is its minimum over the configuration,
    and the map is a contraction toward e when that minimum is positive.
    """
    space = cfg.space
    pairs = _image_pairs(cfg, f)
    e = space.check_target(e)
    ray = space.ray_from(space.origin(), e)
    shifts, alphas = {}, {}
    for label, (src, dst) in sorted(pairs.items(), key=lambda kv: str(kv[0])):
        shifts[label] = ray.busemann(dst) - ray.busemann(src)
        alphas[label] = space.distance(src, dst)
    return ShiftReport(e, shifts, alphas, space.slack(GLOBAL_TOL))


# ---------------------------------------------------------------------------
# Cocompactness at desk scale


@dataclass(frozen=True)
class NetCertificate:
    radius: float
    region_radius: float
    sample_count: int
    orbit_size: int
    max_min_distance: object


@dataclass(frozen=True)
class EmptyHoroballWitness:
    end: object
    level: object
    max_orbit_busemann: object
    max_region_busemann: object
    orbit_size: int


@dataclass(frozen=True)
class UnknownVerdict:
    reason: str


# Largest orbit the cocompactness test enumerates.  Above every orbit the
# tests, verify and the benchmark reach (F2 at depth 7 has 4373 points);
# the orbit of a free group grows exponentially in the depth.
ORBIT_BUDGET = 5000


def _orbit(action: GroupAction, a, depth: int):
    """Orbit points of a (a checked point) up to generator-word length
    depth, deduplicated, and the word length reached.  The points are None
    when the orbit outgrows ORBIT_BUDGET at that length."""
    space = action.space
    gens = [g for name in sorted(action.generators) for g in (action.generators[name], action._inverses[name])]

    frontier = [a]
    seen = {space.orbit_key(a): a}
    for length in range(1, depth + 1):
        new = []
        for p in frontier:
            for iso in gens:
                q = iso.apply(space, p)
                k = space.orbit_key(q)
                if k not in seen:
                    if len(seen) == ORBIT_BUDGET:
                        return None, length
                    seen[k] = q
                    new.append(q)
        frontier = new
        if not frontier:
            break
    return list(seen.values()), depth


def _directed_hausdorff(space: ModelSpace, samples, orbit):
    """The largest distance from a sample to its nearest orbit point, and
    the first sample at that distance (-inf and None without samples).

    Exact, with Taha and Hanbury's early break: a sample's scan of the orbit
    stops once the sample lies within the largest distance found so far,
    and only a strictly larger distance replaces the sample, as max() would.
    """
    worst, worst_point = -math.inf, None
    for p in samples:
        nearest = math.inf
        for q in orbit:
            d = space.distance(p, q)
            if d < nearest:
                nearest = d
                if nearest <= worst:
                    break
        if nearest > worst:
            worst, worst_point = nearest, p
    return worst, worst_point


def cocompactness_witness(action: GroupAction, a, radius: float, depth: int, seed: int):
    """Desk-scale test of the dichotomy "every direction reaches into the
    orbit iff the action is cocompact".

    Returns a NetCertificate when every sampled point of a bounded region
    lies within ``radius`` of the enumerated orbit of a; its
    ``max_min_distance`` is the exact directed Hausdorff distance from the
    samples to the orbit.  Otherwise searches for an EmptyHoroballWitness:
    a direction e and level s whose horoball is met by the sampled region
    but by no enumerated orbit point (level margin 1, following the
    construction that tracks points at growing distance from the orbit).
    Returns Unknown when the depth is exhausted without either certificate,
    when the orbit outgrows ORBIT_BUDGET points before the depth is reached,
    or when the region outgrows ``spaces.REGION_BUDGET`` points.  The cost
    is the orbit enumeration plus one early-exit scan of the orbit per
    sample.
    """
    if depth < 0 or not radius >= 0:  # NaN fails every comparison
        raise ValueError(f"depth {depth} and radius {radius} must be nonnegative numbers")
    space = action.space
    a = space.check_point(a)
    orbit, reached = _orbit(action, a, depth)
    if orbit is None:
        return UnknownVerdict(
            f"orbit budget of {ORBIT_BUDGET} points exceeded at word length {reached} of depth {depth}"
        )
    region_radius, samples = space.region(a, depth, seed)
    if samples is None:
        return UnknownVerdict(f"region budget of {spaces.REGION_BUDGET} {space.region_unit} exceeded in {space.name}")

    worst, worst_point = _directed_hausdorff(space, samples, orbit)
    if worst_point is not None and worst <= radius:
        return NetCertificate(radius, float(region_radius), len(samples), len(orbit), worst)

    for e in space.probe_ends(a, worst_point):
        ray = space.ray_from(a, e)
        orbit_max = max(ray.busemann(q) for q in orbit)
        region_max = max(ray.busemann(p) for p in samples)
        level = orbit_max + 1
        if region_max >= level:
            return EmptyHoroballWitness(e, level, orbit_max, region_max, len(orbit))
    return UnknownVerdict(f"no certificate within depth {depth}")


# ---------------------------------------------------------------------------
# Numeric audits


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    samples: int
    worst_slack: object
    details: dict


def local_busemann_audit(M: ModelSpace, c, r, eps, e, e2, samples: int, seed: int) -> AuditReport:
    """Check |beta_1(p) - beta_2(p)| < 2 eps + d(ray1(R), ray2(R)) on random
    points p of the r-ball around the common base, with the radius
    R = r (1 + 2 r / eps) + eps (any value strictly above r (1 + 2 r / eps)
    works; this one is used throughout).

    The points are the first ``samples`` within r of the seeded stream of
    :func:`spaces.unchecked_point_stream` around c, among its first 2
    ``samples``; the audit stops drawing and measuring once it has them.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    c = M.check_point(c)
    if M.exact:
        r, eps = Fraction(r), Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    R = r * (1 + 2 * r / eps) + eps
    ray1 = M.ray_from(c, M.check_target(e))
    ray2 = M.ray_from(c, M.check_target(e2))
    rhs = 2 * eps + M.distance(ray1.point_at(R), ray2.point_at(R))
    drawn = itertools.islice(spaces.unchecked_point_stream(M, c, float(r), seed), 2 * samples)
    pts = list(itertools.islice((p for p in drawn if M.distance(c, p) <= r), samples))
    worst = min((rhs - abs(ray1.busemann(p) - ray2.busemann(p)) for p in pts), default=None)
    passed = worst is not None and worst > 0
    return AuditReport(passed, len(pts), worst, {"R": R, "rhs": rhs})


def angle_estimate_audit(M: ModelSpace, base, e, e2, schedule) -> AuditReport:
    """Check the chord bound d(ray1(t), ray2(t)) <= 2 t sin(angle/2) for the
    rays from the base to the ends e and e2, where the angle is the angular
    distance of the two ends; equality on E^k, inequality elsewhere."""
    base, e, e2 = M.check_point(base), M.check_boundary(e), M.check_boundary(e2)
    ray1, ray2 = M.ray_from(base, e), M.ray_from(base, e2)
    ang = M.angular_distance(e, e2)
    worst = None
    for t in schedule:
        lhs = M.distance(ray1.point_at(t), ray2.point_at(t))
        slack = 2 * float(t) * math.sin(ang / 2) - float(lhs)
        if worst is None or slack < worst:
            worst = slack
    return AuditReport(worst is not None and worst >= -GLOBAL_TOL, len(schedule), worst, {"angle": ang})
