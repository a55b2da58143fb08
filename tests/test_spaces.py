"""Model spaces: distances, geodesics, rays, Busemann functions, horoballs,
boundary metrics.  Derived expected values are frozen from independent oracles named
in the comments."""

import math
import re
from fractions import Fraction as F

import pytest

from cat0sigma import spaces as sp
from cat0sigma.errors import ParameterOutOfRange, WrongSpace
from cat0sigma.spaces import EDirection, EuclideanSpace, H2_INFINITY, HyperbolicPlane, ray_from
from cat0sigma.trees import CayleyTree, HnnDown, HnnTree, HnnUp, RegularTree, TreePoint, make_word_end
from cat0sigma.verify import _random_ends, _rays_differ_by_a_constant
from conftest import stream_points

E2 = EuclideanSpace(2)
E3 = EuclideanSpace(3)
H2 = HyperbolicPlane()
TC = CayleyTree(2)
TR = RegularTree(3)
TH = HnnTree(2)


def h2_vertical_length(y1: float, y2: float, steps: int = 200_000) -> float:
    """Quadrature oracle: arc length of the vertical segment, ds = dy / y."""
    total = 0.0
    for i in range(steps):
        y = y1 + (y2 - y1) * (i + 0.5) / steps
        total += abs(y2 - y1) / steps / y
    return total


# ---------------------------------------------------------------------------
# Distances and geodesics


def test_distance_examples():
    assert E2.distance((0, 0), (3, 4)) == 5.0
    # Oracle: quadrature of the hyperbolic line element along the vertical.
    assert abs(H2.distance(1j, 2j) - h2_vertical_length(1.0, 2.0)) < 1e-9
    assert abs(H2.distance(1j, 2j) - math.log(2)) < 1e-12
    assert TR.distance(TreePoint((0, 0)), TreePoint((0, 1))) == 2


def test_distance_errors():
    with pytest.raises(WrongSpace):
        E2.check_point((0, 0, 0))
    with pytest.raises(WrongSpace):
        H2.check_point(complex(0, -1))


def test_euclidean_kernels_match_the_coordinate_loops(rng):
    # The map kernels do the float operations of the loops they replace, in
    # the same order, so the values are the same floats.
    for k in (1, 2, 3, 7):
        for _ in range(200):
            a = tuple(rng.uniform(-1e3, 1e3) * 10.0 ** rng.randrange(-8, 9) for _ in range(k))
            b = tuple(rng.uniform(-1e3, 1e3) for _ in range(k))
            assert sp._norm(a).hex() == math.sqrt(sum(c * c for c in a)).hex()
            assert sp._sub(a, b) == tuple(x - y for x, y in zip(a, b))
            assert sp._add(a, b) == tuple(x + y for x, y in zip(a, b))
            assert sp._dot(a, b).hex() == sum(x * y for x, y in zip(a, b)).hex()
            for s in (rng.uniform(-5, 5), 3, F(1, 3)):
                assert sp._scale(a, s) == tuple(s * c for c in a)


def test_geodesic_point_examples():
    # The point at t on the geodesic from a to b is the point at t of the
    # ray from a to b.
    assert ray_from(E2, (0, 0), (2, 0)).point_at(1) == (1.0, 0.0)
    # Oracle: d(i, yi) = log y, so the log 2 point from i toward 4i is 2i.
    z = ray_from(H2, 1j, 4j).point_at(math.log(2))
    assert abs(z - 2j) < 1e-12
    mid = ray_from(TC, TreePoint((1,)), TreePoint((2,))).point_at(F(1))
    assert mid == TreePoint(())


def test_geodesic_point_is_unit_speed_on_h2_circle():
    a, b = complex(-1, 1), complex(2, 0.5)
    total = H2.distance(a, b)
    for frac in [0.25, 0.5, 0.9]:
        z = ray_from(H2, a, b).point_at(frac * total)
        assert abs(H2.distance(a, z) - frac * total) < 1e-9
        assert abs(H2.distance(z, b) - (1 - frac) * total) < 1e-9


def test_distance_triangle_inequality_seeded(space, rng):
    exact = space.exact
    pts = stream_points(space, space.origin(), 12, radius=3.0, seed=9)
    for _ in range(40):
        a, b, c = rng.sample(pts, 3)
        dab = space.distance(a, b)
        dba = space.distance(b, a)
        assert dab == dba if exact else abs(dab - dba) <= 1e-9
        slack = 0 if exact else 1e-9
        assert dab <= space.distance(a, c) + space.distance(c, b) + slack


def test_cat0_midpoint_comparison(space, rng):
    # Midpoints of two sides are at most half the third side apart;
    # equality in the flat case.
    exact = space.exact
    pts = stream_points(space, space.origin(), 9, radius=2.5, seed=17)
    for _ in range(20):
        a, b, c = rng.sample(pts, 3)
        dab, dac = space.distance(a, b), space.distance(a, c)
        if dab == 0 or dac == 0:
            continue
        m1 = ray_from(space, a, b).point_at(dab / 2 if not exact else F(dab, 2))
        m2 = ray_from(space, a, c).point_at(dac / 2 if not exact else F(dac, 2))
        lhs = space.distance(m1, m2)
        rhs = space.distance(b, c) / 2 if not exact else F(space.distance(b, c), 2)
        if isinstance(space, EuclideanSpace):
            assert abs(lhs - rhs) <= 1e-9
        else:
            assert lhs <= rhs + (0 if exact else 1e-9)


# ---------------------------------------------------------------------------
# Rays


def test_ray_examples():
    ray = ray_from(E2, (0, 0), EDirection((1, 0)))
    assert ray.point_at(3.5) == (3.5, 0.0)
    assert not ray.is_degenerate

    # Vertical ray toward infinity: unit speed checked by the distance oracle.
    up = ray_from(H2, 2j, H2_INFINITY)
    for t in [0.5, 1.0, 2.0]:
        assert abs(up.point_at(t) - 2j * math.exp(t)) < 1e-9
        assert abs(H2.distance(2j, up.point_at(t)) - t) < 1e-12

    tray = ray_from(TC, TreePoint(()), make_word_end((), (1,)))
    assert tray.point_at(F(3)) == TreePoint((1, 1, 1))


def test_degenerate_ray_clamps():
    ray = ray_from(E2, (0, 0), (2, 0))
    assert ray.is_degenerate and ray.mu == 2.0
    assert ray.point_at(5.0) == (2.0, 0.0)
    assert ray.arc_from_base(5.0) == 2.0


def test_h2_ray_toward_finite_point_lands_there():
    ray = ray_from(H2, complex(0.3, 1.7), F(2))
    z = ray.point_at(30.0)
    assert abs(z.real - 2.0) < 1e-6 and z.imag < 1e-6


# ---------------------------------------------------------------------------
# Busemann functions


def test_busemann_frozen_examples():
    # E2, ray (t, 0), b = (3, 4): the limit t - d stabilizes at 3.
    ray = ray_from(E2, (0, 0), EDirection((1, 0)))
    assert abs(ray.busemann((3, 4)) - 3.0) < 1e-12
    # H2 vertical: oracle = finite-t limit, frozen value log 2.
    up = ray_from(H2, 1j, H2_INFINITY)
    assert abs(up.busemann(2j) - math.log(2)) < 1e-12
    # Tree: b hanging at distance 2 off gamma(3) gives 3 - 2 = 1.
    tray = ray_from(TC, TreePoint(()), make_word_end((), (1,)))
    hang = TreePoint((1, 1, 1, 2, 2))
    assert tray.busemann(hang) == 1


def test_h2_busemann_where_the_square_leaves_binary64():
    # |z - xi| = 2e153 squares to 4e306, and Im z = 1e-153 over that
    # underflows to 0, whose log raised ValueError.  |i - xi| is 1e153, so
    # the value is log(1e-153) - 2 log 2.
    ray = ray_from(H2, 1j, -1e153)
    assert ray.busemann(complex(1e153, 1e-153)) == pytest.approx(math.log(1e-153) - 2 * math.log(2))


def test_h2_ray_whose_circle_center_leaves_binary64():
    # The geodesic from 1e152 i toward 1e-6 is a circle centered near
    # -5e309: the closed form answers, and a ray point is out of range.
    ray = ray_from(H2, 1e152j, F(1, 10**6))
    assert ray.busemann(1j) == pytest.approx(152 * math.log(10))
    with pytest.raises(ParameterOutOfRange, match="center beyond binary64"):
        ray.point_at(1)


def _two_point_h2_busemann(xi, base, z):
    """The Busemann value toward xi vanishing at base, with both Poisson
    terms computed for each value, and logs alone where a term leaves
    binary64."""
    if xi == H2_INFINITY:
        return math.log(z.imag) - math.log(base.imag)
    x = float(xi)
    try:
        return math.log(z.imag / abs(z - x) ** 2) - math.log(base.imag / abs(base - x) ** 2)
    except (OverflowError, ValueError):
        return (math.log(z.imag) - 2.0 * math.log(abs(z - x))) - (math.log(base.imag) - 2.0 * math.log(abs(base - x)))


def test_h2_busemann_from_the_rays_terms_matches_the_two_point_formula():
    # A ray to an end holds the end as a float and its base's Poisson term;
    # each value is the same float as the two-point formula, also where a
    # term underflows and the logs take over.  Bases and points reach
    # H2_LIMIT in every direction.
    L = sp.H2_LIMIT
    reals, heights = (-L, -1e150, -1.0, 0.0, 0.5, 1e150, L), (1 / L, 1e-150, 1.0, 3.0, 1e150, L)
    points = [complex(x, y) for x in reals for y in heights]
    ends = [H2_INFINITY, 0, F(0), 0.0, 1, F(-1, 3), 0.75, 10**150, -(10**150), F(10**150), F(-(10**150)), 1e150, -1e150]
    ends += [F(L), -L]
    fallbacks = 0
    for xi in ends:
        for base in points:
            ray = ray_from(H2, base, xi)
            for z in points:
                assert ray.busemann(z).hex() == _two_point_h2_busemann(xi, base, z).hex(), (xi, base, z)
                x = None if xi == H2_INFINITY else float(xi)
                fallbacks += sp._h2_poisson_log(base, x) is None or sp._h2_poisson_log(z, x) is None
    assert fallbacks > 100


def test_h2_end_limit_is_exact_for_ints_and_fractions():
    limit = F(sp.H2_LIMIT)
    for good in (limit, -limit, int(limit), sp.H2_LIMIT, -sp.H2_LIMIT):
        assert H2.check_boundary(good) == good
    for bad in (limit + 1, -(limit + 1), int(limit) + 1, math.nextafter(sp.H2_LIMIT, math.inf)):
        message = f"boundary of H2 is R plus infinity, with |xi| <= 1e+153 here, got {bad!r}"
        with pytest.raises(WrongSpace, match=f"^{re.escape(message)}$"):
            H2.check_boundary(bad)


def test_h2_ray_whose_base_term_underflows_equals_itself():
    # Im a / |a - xi|^2 = 1e-153 / 1e306 underflows: the ray holds None
    # there, not a NaN, so two rays built alike are equal.
    base = complex(0.0, 1 / sp.H2_LIMIT)
    ray = ray_from(H2, base, sp.H2_LIMIT)
    assert ray._param[2:] == (sp.H2_LIMIT, None)
    assert ray == ray_from(H2, base, sp.H2_LIMIT)


def test_tree_busemann_agrees_with_far_point_formula(rng):
    # Independent oracle: past the merge parameter the value of the
    # defining limit is already exact, so a single far ray point y gives
    # beta = d(base, y) - d(b, y) with plain distances.
    for T in [TC, TR, TH]:
        for i in range(30):
            base = next(sp.unchecked_point_stream(T, T.origin(), 2.0, 500 + i))
            b = next(sp.unchecked_point_stream(T, T.origin(), 3.0, 600 + i))
            end = _random_ends(T, 1, 700 + i)[0]
            ray = ray_from(T, base, end)
            far = int(T.distance(base, b)) + 5
            y = ray.point_at(F(far))
            expected = T.distance(base, y) - T.distance(b, y)
            assert ray.busemann(b) == expected


def test_busemann_limit_audit_monotone_bounded(space):
    exact = space.exact
    base = space.origin()
    end = _random_ends(space, 1, 3)[0]
    ray = ray_from(space, base, end)
    b = next(sp.unchecked_point_stream(space, base, 3.0, 4))
    schedule = list(range(0, 12)) if exact else [0.5, 1, 2, 4, 8, 16, 32]
    seq = ray.limit_audit(b, schedule)
    values = [v for _, v in seq]
    top = space.distance(base, b)
    for i in range(len(values) - 1):
        assert values[i] <= values[i + 1] + (0 if exact else 1e-12)
    assert all(v <= top + (0 if exact else 1e-12) for v in values)
    if exact:
        assert values[-1] == ray.busemann(b)


def test_busemann_degenerate_formula(space):
    base = space.origin()
    pts = stream_points(space, base, 2, radius=2.0, seed=11)
    ray = ray_from(space, base, pts[0])
    mu = ray.mu
    tip = ray.point_at(mu)
    b = pts[1]
    expected = mu - space.distance(b, tip)
    got = ray.busemann(b)
    if space.exact:
        assert got == expected
    else:
        assert abs(got - expected) < 1e-9
    # Constant after mu.
    seq = ray.limit_audit(b, [mu, mu + 1, mu + 2])
    vals = [v for _, v in seq]
    assert max(vals) - min(vals) <= (0 if space.exact else 1e-12)


def test_horoball_examples():
    # The closed horoball at level s is where the Busemann value is >= s.
    ray = ray_from(E2, (0, 0), EDirection((1, 0)))
    assert ray.busemann((3.0, 0.0)) >= 2.0
    assert not ray.busemann((1.0, 5.0)) >= 2.0
    # Degenerate horoball is the ball of radius mu - s around the tip.
    dray = ray_from(E2, (0, 0), (3, 0))
    assert dray.busemann((4.9, 0.0)) >= 1.0
    assert not dray.busemann((5.1, 0.0)) >= 1.0
    assert dray.busemann((3.0, 1.9)) >= 1.0


def test_horoball_contains_balls_along_ray(space, rng):
    end = _random_ends(space, 1, 21)[0]
    ray = ray_from(space, space.origin(), end)
    exact = space.exact
    s = F(1) if exact else 1.0
    for t in ([F(3), F(5)] if exact else [3.0, 5.0]):
        center = ray.point_at(t)
        for p in stream_points(space, center, 4, radius=float(t - s) * 0.85, seed=5):
            if space.distance(center, p) <= (t - s) - (0 if exact else 1e-9):
                assert ray.busemann(p) >= s


# ---------------------------------------------------------------------------
# Boundary metrics


def angular(M, e, e2):
    """The angular distance of two ends, each checked first."""
    return M.angular_distance(M.check_boundary(e), M.check_boundary(e2))


def tits(M, e, e2):
    """The Tits distance of two ends, each checked first."""
    return M.tits_distance(M.check_boundary(e), M.check_boundary(e2))


def test_non_finite_values_are_not_points_or_ends():
    nan, inf = math.nan, math.inf
    for bad in ((nan, 0.0), (0.0, inf), (-inf, 1.0)):
        with pytest.raises(WrongSpace, match="non-finite coordinate"):
            E2.check_point(bad)
    for bad in ((nan, 0.0), (inf, 0.0), (nan, nan)):
        with pytest.raises(WrongSpace, match="is not a unit vector"):
            EDirection(bad)
    for bad in (complex(nan, 1), complex(0, nan), complex(inf, 1), complex(0, inf)):
        with pytest.raises(WrongSpace, match="is not in the upper half-plane"):
            H2.check_point(bad)
    for bad in (nan, -inf, F(10**400)):
        with pytest.raises(WrongSpace, match="boundary of H2 is R plus infinity"):
            ray_from(H2, 1j, bad)
        with pytest.raises(WrongSpace, match="boundary of H2 is R plus infinity"):
            H2.check_boundary(bad)
    assert tits(H2, H2_INFINITY, H2_INFINITY) == 0.0


def test_angular_and_tits_examples():
    assert abs(angular(E3, EDirection((1, 0, 0)), EDirection((0, 1, 0))) - math.pi / 2) < 1e-12
    assert angular(TC, make_word_end((), (1,)), make_word_end((), (2,))) == math.pi
    assert angular(H2, 0, H2_INFINITY) == math.pi
    assert tits(E2, EDirection((1, 0)), EDirection((0, 1))) == pytest.approx(math.pi / 2)
    assert tits(H2, 0, H2_INFINITY) == math.inf
    assert tits(H2, F(1, 2), F(1, 2)) == 0.0
    assert tits(TH, HnnUp(), HnnDown(F(0))) == math.inf
    assert tits(TH, HnnDown(F(1, 3)), HnnDown(F(1, 3))) == 0.0


def test_tits_dominates_angular(space):
    ends = _random_ends(space, 8, 33)
    for e1 in ends:
        for e2 in ends:
            assert space.tits_distance(e1, e2) >= space.angular_distance(e1, e2) - 1e-9


# ---------------------------------------------------------------------------
# Asymptotic rays


def test_asymptotic_offset_examples():
    # Rays to one end have Busemann functions that differ by a constant.
    r1 = ray_from(E2, (0, 1), EDirection((1, 0)))
    r2 = ray_from(E2, (0, 0), EDirection((1, 0)))
    r3 = ray_from(E2, (-2, 0), EDirection((1, 0)))
    for p in ((0.0, 0.0), (3.0, -1.0), (-5.0, 7.5)):
        assert abs(r1.busemann(p) - r2.busemann(p)) < 1e-12
        # The shifted base sits 2 behind: its Busemann values run 2 ahead.
        assert abs((r2.busemann(p) - r3.busemann(p)) - (-2.0)) < 1e-12


def test_asymptotic_offset_all_spaces(space):
    base1 = space.origin()
    base2 = next(sp.unchecked_point_stream(space, base1, 2.0, 8))
    end = _random_ends(space, 1, 12)[0]
    r1 = ray_from(space, base1, end)
    r2 = ray_from(space, base2, end)
    c = r1.busemann(base2) - r2.busemann(base2)
    for probe in stream_points(space, base1, 10, radius=3.0, seed=2) + stream_points(space, base1, 1, seed=44):
        dev = (r1.busemann(probe) - r2.busemann(probe)) - c
        assert abs(dev) <= (0 if space.exact else 1e-9)


@pytest.mark.parametrize("M, end, other", [
    (E2, EDirection((1, 0)), EDirection((0, 1))),
    (H2, H2_INFINITY, F(0)),
    (TC, make_word_end((), (1,)), make_word_end((), (2,))),
], ids=["E2", "H2", "cayley2"])
def test_verify_offset_check_tells_one_end_from_two(M, end, other):
    # verify's asymptotic-ray check passes for two rays to one end and fails
    # for rays to different ends, whose Busemann difference is not constant.
    base2 = next(sp.unchecked_point_stream(M, M.origin(), 2.0, 8))
    ray = ray_from(M, M.origin(), end)
    assert _rays_differ_by_a_constant(M, ray, ray_from(M, base2, end), seed=0)
    assert not _rays_differ_by_a_constant(M, ray, ray_from(M, base2, other), seed=0)
