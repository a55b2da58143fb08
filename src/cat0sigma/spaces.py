"""The model CAT(0) spaces and their boundary geometry.

Every model space is a :class:`ModelSpace`: Euclidean k-space and the
hyperbolic plane (upper half-plane model), defined here and computed in
binary64 with a global tolerance of 1e-9 for assertions, and the locally
finite simplicial trees of :mod:`trees`, exact over ints and Fractions.
Each space class owns its operations: distance, generalized rays, the
closed forms of Busemann functions, boundary equality, the angular and
Tits metrics, the seeded samplers, parsing of its points and ends, and the
helpers of the cocompactness test.  The module-level functions
(:func:`ray_from` and the seeded samplers) hold only the logic that all
spaces share; a ray computes its own Busemann values and limit audits.
The tree module imports this one, so this one loads it only in
:func:`space_from_json`, for a tree descriptor.

Readers only parse: ``parse_point`` and ``parse_boundary`` check the JSON
structure and the numbers.  The function that receives a value checks it,
once (``check_point``, ``check_boundary``, ``check_target``), and hands it
to the space methods and the rays, which compute and check nothing.  Values
the library builds itself (ray points, samples, images under an isometry,
probe ends, rays) are valid by construction.  :func:`ray_from` is the one
entry point here that checks what it is given.

A generalized ray is a unit-speed geodesic ray, or a geodesic segment held
constant after its endpoint (the degenerate case, with the stopping
parameter stored as ``mu``).  The Busemann function of a ray is
``beta(b) = lim_t (d(ray(0), ray(t)) - d(b, ray(t)))``; each space has a
closed form, and :meth:`GeneralizedRay.limit_audit` evaluates the defining
limit directly so the two can be checked against each other.

Values are immutable and the functions pure; tree expansion is lazy but
deterministic and replayable, with no caller-visible state.  The samplers
take explicit seeds.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import ParameterOutOfRange, WrongSpace
from .jsonio import parse_fraction, parse_real, read_field

GLOBAL_TOL = 1e-9

H2_INFINITY = math.inf

# Points of one cocompactness region (region gives None above it): the 8^k
# grid of E^6 (1.1 s at depth 1) fits, E^7's (5.4 s) not; so does the tree
# ball of HNN(6) at radius 6 (65318 vertices, 1.9 s for the cocompact run),
# and at radius 7 (391915, 9.5 s) not.
REGION_BUDGET = 8**6

# The H2 closed forms square coordinates in binary64: |Re z|, Im z, 1 / Im z
# and |xi| at most H2_LIMIT keep the squares finite and nonzero (1e154 not).
H2_LIMIT = 1e153

Real = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# Spaces


class ModelSpace:
    """A model CAT(0) space: :class:`EuclideanSpace`,
    :class:`HyperbolicPlane`, or a tree model of :mod:`trees`
    (``RegularTree``, ``CayleyTree``, ``HnnTree``, whose base
    ``TreeModel`` computes these operations from each model's local
    structure).  Each subclass implements the per-space operations:
    ``check_point`` and ``check_boundary`` (each returns the value it
    checked), ``check_target`` (a ray's target, an end or a point),
    ``origin``, ``to_json`` (the form that :func:`space_from_json` reads
    back), the JSON readers (``parse_point``, ``parse_boundary``,
    ``parse_scalar``), ``distance``, ``ray_from``, ``ray_point``,
    ``busemann_to_end`` (the closed form toward a boundary point), one
    seeded draw of a point (``sample_point``) or an end (``sample_end``),
    and the cocompactness helpers ``orbit_key``, ``region`` (with
    ``region_unit``, what it counts against ``REGION_BUDGET``) and
    ``probe_ends(center, far_point)``.

    The readers only parse, and the function that receives a value checks
    it.  The methods take points and ends already returned by
    ``check_point``, ``check_boundary`` or ``check_target`` (or built by the
    space itself) and do not check them again.

    ``exact`` spaces (the trees) compute over ints and Fractions with zero
    slack.
    The angular distance of two ends is the supremum over base points of
    the angle between their rays, and the Tits distance is its length
    metric (infinity when no rectifiable path joins them).  ``flat`` marks
    Euclidean space, whose boundary is a round sphere in the Tits metric,
    where the two agree; on the others distinct boundary points span a
    geodesic line, so the angular metric is 0 or pi and the Tits metric 0
    or infinity, as the defaults below compute.
    """

    name = "abstract"
    exact = False
    flat = False

    def slack(self, tol):
        """Allowed error of a comparison: 0 on exact spaces, tol otherwise."""
        return 0 if self.exact else tol

    def parse_scalar(self, data):
        return parse_real(data)

    def boundary_equal(self, e, e2) -> bool:
        return e == e2

    def angular_distance(self, e, e2) -> float:
        return 0.0 if self.boundary_equal(e, e2) else math.pi

    def tits_distance(self, e, e2) -> float:
        return 0.0 if self.boundary_equal(e, e2) else math.inf

    def orbit_key(self, p):
        return p


@dataclass(frozen=True)
class EDirection:
    """Boundary point of E^k: a unit direction vector (within 1e-12), with
    finite coordinates."""

    vector: tuple

    def __init__(self, vector):
        v = tuple(float(c) for c in vector)
        n = _norm(v)
        if not abs(n - 1.0) <= 1e-12:  # also for a NaN coordinate
            raise WrongSpace(f"boundary direction {v} is not a unit vector")
        object.__setattr__(self, "vector", v)

    def to_json(self) -> dict:
        return {"direction": list(self.vector)}


class EuclideanSpace(ModelSpace):
    """E^k with the standard metric; points are float tuples, boundary
    points are :class:`EDirection` unit vectors."""

    flat = True
    region_unit = "grid points"

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("Euclidean dimension must be >= 1")
        self.k = k
        self.name = f"E{k}"

    def check_point(self, p):
        if isinstance(p, EDirection):
            raise WrongSpace("boundary direction used where an interior point is required")
        if len(p) != self.k:
            raise WrongSpace(f"point of dimension {len(p)} in {self.name}")
        p = tuple(float(c) for c in p)
        if not all(math.isfinite(c) for c in p):
            raise WrongSpace(f"point {p} of {self.name} has a non-finite coordinate")
        return p

    def check_boundary(self, e):
        if len(e.vector) != self.k:
            raise WrongSpace(f"direction of dimension {len(e.vector)} in {self.name}")
        return e

    def origin(self):
        return (0.0,) * self.k

    def to_json(self):
        return {"space": self.name}

    def parse_point(self, data):
        if not isinstance(data, list):
            raise ValueError(f"a point of {self.name} is a list of {self.k} numbers, got {data!r}")
        return tuple(parse_real(c) for c in data)

    def parse_boundary(self, data):
        return EDirection(tuple(parse_real(c) for c in read_field(data, "direction", list)))

    def distance(self, a, b):
        return _norm(_sub(a, b))

    def check_target(self, e):
        return self.check_boundary(e) if isinstance(e, EDirection) else self.check_point(e)

    def ray_from(self, a, e):
        if isinstance(e, EDirection):
            return GeneralizedRay(self, a, e, None, e.vector)
        mu = _norm(_sub(e, a))
        u = direction(_sub(e, a)) if mu > 0 else (0.0,) * self.k
        return GeneralizedRay(self, a, e, mu, u)

    def ray_point(self, ray, t):
        return _add(ray.base, _scale(ray._param, t))

    def busemann_to_end(self, ray, b):
        return _dot(_sub(b, ray.base), ray._param)

    def boundary_equal(self, e, e2) -> bool:
        return _norm(_sub(e.vector, e2.vector)) <= 1e-12

    def angular_distance(self, e, e2) -> float:
        if e.vector == e2.vector:
            return 0.0
        return math.acos(max(-1.0, min(1.0, _dot(e.vector, e2.vector))))

    def tits_distance(self, e, e2) -> float:
        return self.angular_distance(e, e2)

    def sample_point(self, center, radius, rng):
        offset = [rng.uniform(-1.0, 1.0) for _ in range(self.k)]
        n = _norm(offset)
        r = radius * rng.random() ** (1.0 / self.k)
        return _add(center, _scale(offset, r / n if n else 0.0))

    def sample_end(self, rng):
        while True:
            v = [rng.gauss(0.0, 1.0) for _ in range(self.k)]
            if _norm(v) >= 1e-6:
                return EDirection(direction(v))

    def orbit_key(self, p):
        return tuple(round(c, 9) for c in p)

    def region(self, center, depth: int, seed: int):
        radius = max(2.0, depth / 2.0)
        # Even tick count keeps grid points off any integer lattice through
        # the center, so lattice orbits are probed at their worst spots.
        ticks = 8
        if ticks**self.k > REGION_BUDGET:
            return radius, None
        axes = [
            [center[i] + radius * (2.0 * t / (ticks - 1) - 1.0) for t in range(ticks)]
            for i in range(self.k)
        ]
        out = [p for p in itertools.product(*axes) if _norm(_sub(p, center)) <= radius + 1e-9]
        out.extend(itertools.islice(unchecked_point_stream(self, center, radius, seed), 64))
        return radius, out

    def probe_ends(self, center, far_point):
        """The coordinate directions, and the direction of far_point."""
        out = []
        for i in range(self.k):
            for sign in (+1.0, -1.0):
                v = [0.0] * self.k
                v[i] = sign
                out.append(EDirection(tuple(v)))
        if far_point is not None and _norm(_sub(far_point, center)) > 1e-9:
            out.append(EDirection(direction(_sub(far_point, center))))
        return out


class HyperbolicPlane(ModelSpace):
    """Upper half-plane model; points are complex numbers with Im > 0,
    boundary points are extended reals (math.inf for the point at infinity).
    Exact rationals are accepted as boundary values and preserved."""

    name = "H2"

    def check_point(self, p):
        z = complex(p) if not isinstance(p, complex) else p
        if not (z.imag > 0 and math.isfinite(z.real) and math.isfinite(z.imag)):
            raise WrongSpace(f"point {z} is not in the upper half-plane")
        if not (abs(z.real) <= H2_LIMIT and 1 / H2_LIMIT <= z.imag <= H2_LIMIT):
            raise WrongSpace(f"point {z} of H2 is out of range: |Re z|, Im z and 1 / Im z must be at most {H2_LIMIT:g}")
        return z

    def check_boundary(self, e):
        if e == H2_INFINITY:
            return H2_INFINITY
        # Also rejects NaN and -inf.
        if not isinstance(e, (int, float, Fraction)) or not abs(e) < math.inf:
            raise WrongSpace(f"boundary of H2 is R plus infinity, got {e!r}")
        if abs(e) > H2_LIMIT:
            raise WrongSpace(f"boundary of H2 is R plus infinity, with |xi| <= {H2_LIMIT:g} here, got {e!r}")
        return e

    def origin(self):
        return complex(0.0, 1.0)

    def to_json(self):
        return {"space": "H2"}

    def parse_point(self, data):
        if isinstance(data, dict):
            x, y = read_field(data, "x"), read_field(data, "y")
        elif isinstance(data, list) and len(data) == 2:
            x, y = data
        else:
            raise ValueError(f'an H2 point is {{"x": X, "y": Y}} or [X, Y], got {data!r}')
        return complex(parse_real(x), parse_real(y))

    def parse_boundary(self, data):
        xi = read_field(data, "xi") if isinstance(data, dict) else data
        return H2_INFINITY if xi in ("inf", "oo", "infinity") else parse_fraction(xi)

    def distance(self, a, b):
        return _h2_distance(a, b)

    def check_target(self, e):
        # An end is real or infinity: every complex number is a point.
        return self.check_point(e) if isinstance(e, complex) else self.check_boundary(e)

    def ray_from(self, a, e):
        if isinstance(e, complex):
            mu = _h2_distance(a, e)
            geo = _h2_geodesic_through(a, e.real, abs(e) ** 2)
            sign = +1 if geo.param(e) >= geo.param(a) else -1
            return GeneralizedRay(self, a, e, mu, (geo, sign))
        x = None if e == H2_INFINITY else float(e)
        geo, sign = _h2_geodesic_to_boundary(a, x)
        return GeneralizedRay(self, a, e, None, (geo, sign, x, _h2_poisson_log(a, x)))

    def ray_point(self, ray, t):
        geo, sign = ray._param[:2]
        return geo.point(geo.param(ray.base) + sign * float(t))

    def busemann_to_end(self, ray, b):
        _, _, x, base_term = ray._param
        return _h2_busemann(x, base_term, ray.base, b)

    def sample_point(self, center, radius, rng):
        xi = math.tan(rng.uniform(-1.5, 1.5))
        return self.ray_from(center, xi).point_at(rng.uniform(0.0, radius))

    def sample_end(self, rng):
        if rng.random() < 0.15:
            return H2_INFINITY
        return Fraction(rng.randrange(-50, 51), rng.randrange(1, 8))

    def orbit_key(self, p):
        return (round(p.real, 9), round(p.imag, 9))

    def region(self, center, depth: int, seed: int):
        radius = max(2.0, depth / 2.0)
        return radius, list(itertools.islice(unchecked_point_stream(self, center, radius, seed), 200))

    def probe_ends(self, center, far_point):
        return [H2_INFINITY, Fraction(0), Fraction(1), Fraction(-1)]


def space_from_json(data) -> ModelSpace:
    name = read_field(data, "space", str)
    if name == "H2":
        return HyperbolicPlane()
    if name == "tree":
        from .trees import tree_from_descriptor  # trees imports this module

        return tree_from_descriptor(read_field(data, "descriptor"))
    if name.startswith("E"):
        return EuclideanSpace(int(name[1:]))
    raise ValueError(f"unknown space {name!r}")


# ---------------------------------------------------------------------------
# Vector helpers (Euclidean).  Each does its float operations in the order
# of a loop over the coordinates; math.dist, hypot and fsum round differently.


def _norm(v) -> float:
    return math.sqrt(sum(map(operator.mul, v, v)))


def _sub(a, b):
    return tuple(map(operator.sub, a, b))


def _add(a, b):
    return tuple(map(operator.add, a, b))


def _scale(v, s):
    return tuple(map(operator.mul, itertools.repeat(s), v))


def _dot(a, b) -> float:
    return sum(map(operator.mul, a, b))


def direction(v) -> tuple:
    """Normalize a nonzero vector to a boundary direction."""
    n = _norm(v)
    if n == 0:
        raise ValueError("zero vector has no direction")
    return tuple(c / n for c in v)


# ---------------------------------------------------------------------------
# Hyperbolic geometry


def _h2_distance(z: complex, w: complex) -> float:
    # arccosh(1 + |z-w|^2 / (2 Im z Im w)), in the numerically stable form
    # log1p(u + sqrt(u (u + 2))) for u >= 0.  Where u or its square
    # overflows, or Im z Im w underflows to 0, the half-distance form
    # 2 asinh(|z-w| / (2 sqrt(Im z) sqrt(Im w))).
    try:
        u = abs(z - w) ** 2 / (2.0 * z.imag * w.imag)
        d = math.log1p(u + math.sqrt(u * (u + 2.0)))
    except (OverflowError, ZeroDivisionError):
        d = math.inf
    if d == math.inf:
        return 2.0 * math.asinh(abs(z - w) / (2.0 * math.sqrt(z.imag) * math.sqrt(w.imag)))
    return d


def _h2_poisson_log(z: complex, x: Optional[float]) -> Optional[float]:
    """log of the Poisson kernel Im z / |z - x|^2 toward the end x (log Im z
    toward infinity, x = None); None when the square passes binary64 or the
    quotient underflows to 0 (whose log raises ValueError)."""
    if x is None:
        return math.log(z.imag)
    try:
        return math.log(z.imag / abs(z - x) ** 2)
    except (OverflowError, ValueError):
        return None


def _h2_busemann(x: Optional[float], base_term: Optional[float], base: complex, z: complex) -> float:
    """log of the Poisson-kernel quotient: the Busemann function toward the
    end x (None for infinity) vanishing at the base point, whose term
    :func:`_h2_poisson_log` the ray holds."""
    term = _h2_poisson_log(z, x)
    if term is not None and base_term is not None:
        return term - base_term
    # Either term left binary64: the same value from logs, with no square.
    return (math.log(z.imag) - 2.0 * math.log(abs(z - x))) - (math.log(base.imag) - 2.0 * math.log(abs(base - x)))


# A complete hyperbolic geodesic: a vertical line or a semicircle centered
# on the real axis.  Parametrized by a unit-speed coordinate s.


@dataclass(frozen=True)
class _H2Vertical:
    x: float

    def param(self, z: complex) -> float:
        return math.log(z.imag)

    def point(self, s: float) -> complex:
        try:
            return complex(self.x, math.exp(s))
        except OverflowError:
            raise ParameterOutOfRange(f"the point at height exp({s}) is beyond binary64") from None


@dataclass(frozen=True)
class _H2Circle:
    center: float
    radius: float

    def param(self, z: complex) -> float:
        # Seen from a point high above it, a foot close to Re z puts the
        # center past binary64.  The closed-form Busemann value does not use
        # the circle; a ray point does, and is out of range.
        if math.isinf(self.center):
            raise ParameterOutOfRange(f"the geodesic through {z} has its center beyond binary64")
        # tan(theta/2) via half-angle identities, choosing the form that
        # avoids cancellation near either foot of the semicircle.
        x = z.real - self.center
        if x >= 0:
            half_tan = z.imag / (self.radius + x)
        else:
            half_tan = (self.radius - x) / z.imag
        return math.log(half_tan)

    def point(self, s: float) -> complex:
        # theta = 2 atan(e^s); sin and cos from the half-angle algebra stay
        # accurate when the point is exponentially close to a foot.
        u = math.exp(min(max(s, -350.0), 350.0))
        denom = u + 1.0 / u
        sin_t = 2.0 / denom
        cos_t = (1.0 / u - u) / denom
        return complex(self.center + self.radius * cos_t, self.radius * sin_t)


def _h2_geodesic_through(z: complex, x: float, square: float):
    """The geodesic through z and w in H2 or on R, given as x = Re w and square = |w|^2."""
    if abs(z.real - x) < 1e-14:
        return _H2Vertical(z.real)
    c = (abs(z) ** 2 - square) / (2.0 * (z.real - x))
    return _H2Circle(c, abs(z - complex(c, 0.0)))


def _h2_geodesic_to_boundary(z: complex, x: Optional[float]):
    """The complete geodesic through z with one endpoint x (None for
    infinity), plus the sign (+1/-1) of the unit-speed coordinate moving
    toward x."""
    if x is None:
        return _H2Vertical(z.real), +1
    geo = _h2_geodesic_through(z, x, x * x)
    return geo, (+1 if isinstance(geo, _H2Circle) and x < geo.center else -1)


# ---------------------------------------------------------------------------
# Generalized rays


@dataclass(frozen=True)
class GeneralizedRay:
    """Unit-speed generalized geodesic ray.

    ``end`` is a point of the space or a boundary point; ``mu`` is the
    stopping parameter for the degenerate case (the ray is constant from mu
    on) and None for a genuine ray.  ``_param`` is the space's closed-form
    data, computed once with the ray: the unit direction on E^k; the
    geodesic and its sign on H2, and toward a boundary point also the end as
    a float (None for infinity) and the base's Poisson term
    (:func:`_h2_poisson_log`, None where it leaves binary64, so that a ray
    equals itself); and the base's horofunction height toward the end on a
    tree.
    """

    space: ModelSpace
    base: object
    end: object
    mu: Optional[Real]
    _param: object = None

    @property
    def is_degenerate(self) -> bool:
        return self.mu is not None

    def point_at(self, t):
        if t < 0:
            raise ParameterOutOfRange("ray parameter must be nonnegative")
        if self.is_degenerate:
            t = min(t, self.mu)
        return self.space.ray_point(self, t)

    def arc_from_base(self, t) -> Real:
        """d(ray(0), ray(t)): equals t, capped at mu for degenerate rays."""
        return min(t, self.mu) if self.is_degenerate else t

    def busemann(self, b):
        """Closed-form Busemann value at b, a point already checked.

        Degenerate rays use mu - d(b, ray(mu)).  Otherwise: the inner
        product with the direction on E^k; a logarithmic density quotient on
        H2; and on trees h(ray(0)) - h(b) for the horofunction height h
        toward the end (:meth:`trees.TreeModel.point_height`).  The closed
        horoball at level s is the set where this is >= s; for a degenerate
        ray, the closed ball of radius mu - s around the tip.  A tree value
        is an int exactly when it is an integer, and a Fraction otherwise.
        """
        if self.is_degenerate:
            return _int_if_integral(self.mu - self.space.distance(b, self.point_at(self.mu)))
        return self.space.busemann_to_end(self, b)

    def limit_audit(self, b, schedule: Sequence[Real]):
        """The defining limit d(ray(0), ray(t)) - d(b, ray(t)) at b, a point
        already checked, along a schedule of parameters, as (t, value) pairs.

        The sequence is nondecreasing and bounded above by d(ray(0), b); for
        degenerate rays it is constant from mu on.  Deliberately uses only
        the metric, no closed forms, so it can audit :meth:`busemann`.  A
        tree value is an int exactly when it is an integer, as in
        :meth:`busemann`.
        """
        return [(t, _int_if_integral(self.arc_from_base(t) - self.space.distance(b, self.point_at(t)))) for t in schedule]


def _int_if_integral(value):
    """A difference of two exact tree values, an int when it is an integer:
    two Fractions with offsets can differ by an integer.  Floats pass."""
    return value.numerator if type(value) is Fraction and value.denominator == 1 else value


# ---------------------------------------------------------------------------
# Entry point: rays


def ray_from(M: ModelSpace, a, e) -> GeneralizedRay:
    """The unique generalized ray from a to e (a point of M or of its
    boundary); both are checked here."""
    return M.ray_from(M.check_point(a), M.check_target(e))


# ---------------------------------------------------------------------------
# The seeded point stream (for audits, cocompactness regions and verify)


def unchecked_point_stream(M: ModelSpace, center, radius: float, seed: int):
    """The endless seeded stream of points within the given radius of a
    center already checked where it entered, or built by the library."""
    rng = random.Random(str((seed, M.name, "points")))
    return (M.sample_point(center, radius, rng) for _ in itertools.count())

