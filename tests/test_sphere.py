"""Character sphere: rays and m-values."""

import ast
import collections
import inspect
import math
import pathlib
import random
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cat0sigma import sphere
from cat0sigma.exactlp import strictly_representable_fm
from cat0sigma.errors import DimensionMismatch, ZeroCharacter
from cat0sigma.sphere import (
    Character,
    SpherePoint,
    _conic_lp,
    m_value,
    minimal_ray_count,
    normalize_ray,
)
from cat0sigma.verify import _random_sphere_points, enumeration_m_value, enumeration_ray_count

INF = float("inf")

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=40)


def test_normalize_ray_examples():
    assert normalize_ray(Character([F(2, 3), F(-4, 3)])).primitive == (1, -2)
    assert normalize_ray(Character([5, 0, 0])).primitive == (1, 0, 0)
    with pytest.raises(ZeroCharacter):
        normalize_ray(Character([0, 0]))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    coords=st.lists(rationals, min_size=1, max_size=4),
    scale=st.fractions(min_value=F(1, 32), max_value=50, max_denominator=32),
)
def test_normalize_ray_is_scale_invariant_and_odd(coords, scale):
    chi = Character(coords)
    if chi.is_zero:
        return
    base = normalize_ray(chi)
    assert normalize_ray(chi.scaled(scale)) == base
    assert normalize_ray(-chi) == SpherePoint(tuple(-c for c in base.primitive))


def test_sphere_point_validation():
    with pytest.raises(ValueError):
        SpherePoint((2, 4))
    for entries in [(1.0, 0), (True, 0), ("1", 0)]:
        with pytest.raises(ValueError, match="integer vectors"):
            SpherePoint(entries)
    with pytest.raises(ZeroCharacter):
        SpherePoint((0, 0))


# ---------------------------------------------------------------------------
# Minimal ray counts and m-values.  Frozen values computed with the
# Fourier-Motzkin enumeration oracle.


def test_minimal_ray_count_frozen_examples():
    assert minimal_ray_count([], Character([1])) == INF
    pair = [SpherePoint((1,)), SpherePoint((-1,))]
    assert minimal_ray_count(pair, Character.zero(1)) == 2
    # Three rays at mutual angle 120 degrees (integer model), summing to 0.
    trio = [SpherePoint((1, 0)), SpherePoint((0, 1)), SpherePoint((-1, -1))]
    assert minimal_ray_count(trio, Character([-1, 0])) == 2
    assert minimal_ray_count(trio, Character.zero(2)) == 3


def test_minimal_ray_count_reaches_the_caratheodory_bounds():
    basis = [SpherePoint((1, 0, 0)), SpherePoint((0, 1, 0)), SpherePoint((0, 0, 1))]
    # chi != 0 needs k = 3 independent rays.
    assert minimal_ray_count(basis, Character([1, 1, 1])) == 3
    # chi = 0 needs a circuit of k + 1 = 4 rays.
    assert minimal_ray_count(basis + [SpherePoint((-1, -1, -1))], Character.zero(3)) == 4
    # A pointed cone of 12 rays (first coordinate positive) has no positive
    # dependence at all.
    cone = [SpherePoint((1, a, b)) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    cone += [SpherePoint(v) for v in [(2, 1, 0), (2, 0, 1), (2, -1, 1)]]
    assert len(cone) == 12
    assert minimal_ray_count(cone, Character.zero(3)) == INF


def test_m_value_frozen_examples():
    assert m_value([], Character.zero(3)) == INF
    pair = [SpherePoint((1,)), SpherePoint((-1,))]
    assert m_value(pair, Character.zero(1)) == 1
    assert m_value(pair, Character([1])) == INF
    trio = [SpherePoint((1, 0)), SpherePoint((0, 1)), SpherePoint((-1, -1))]
    assert m_value(trio, Character.zero(2)) == 2
    assert m_value(trio, Character([-1, 0])) == 1
    assert m_value(trio, Character([1, 0])) == INF


def test_m_value_removes_the_ray_of_chi_itself():
    pts = [SpherePoint((1,)), SpherePoint((-1,))]
    # [chi] = (1) is removed from the candidate rays, leaving only (-1).
    assert minimal_ray_count(pts, Character([F(1, 2)])) == INF


def test_m_value_validation():
    # Finite m-values are integers >= 1: a representation needs two rays.
    rng = random.Random(5)
    for _ in range(60):
        k = rng.randrange(1, 4)
        pts = _random_sphere_points(rng, k, rng.randrange(0, 7), forbid_antipodal=False)
        chi = Character(tuple(rng.randrange(-2, 3) for _ in range(k)))
        value = m_value(pts, chi)
        assert value == INF or (type(value) is int and value >= 1), (pts, chi, value)


def test_m_value_equals_enumeration_oracle_on_seeded_instances():
    # The oracle tries every subset with Fourier-Motzkin, so agreement also
    # checks the Caratheodory bound of the production search.
    rng = random.Random(99)
    for i in range(240):
        k = rng.randrange(1, 4)
        pts = _random_sphere_points(rng, k, rng.randrange(0, 7), forbid_antipodal=i % 2 == 0)
        anti = pts and SpherePoint(tuple(-c for c in pts[0].primitive))
        if i % 2 == 1 and pts and anti not in pts:
            pts.append(anti)
        if i % 4 == 0:
            chi = Character.zero(k)
        elif i % 4 == 1:
            chi = Character(tuple(F(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(k)))
        elif i % 4 == 2 and pts:
            chi = rng.choice(pts).character().scaled(rng.choice([2, F(1, 2), F(-3, 2)]))
        else:
            chi = Character(tuple(rng.randrange(-3, 4) for _ in range(k)))
        assert m_value(pts, chi) == enumeration_m_value(pts, chi), (pts, chi)
    for i in range(60):
        pts = _random_sphere_points(rng, 4, rng.randrange(0, 5), forbid_antipodal=False)
        if i % 3 == 0:
            chi = Character.zero(4)
        elif i % 3 == 1 and pts:
            chi = -rng.choice(pts).character()
        else:
            chi = Character(tuple(rng.randrange(-2, 3) for _ in range(4)))
        assert m_value(pts, chi) == enumeration_m_value(pts, chi), (pts, chi)


def test_m_value_equals_enumeration_oracle_on_rank_four_five_rays():
    # Rank 4 with five rays: the oracle's largest subset is a five-variable
    # system with four equalities, once out of reach of the elimination.
    # Half the instances put the fifth ray opposite a positive combination
    # of the other four, or chi inside the cone of some rays, so that finite
    # m-values occur next to infinite ones.
    rng = random.Random(404)
    values = []
    for i in range(40):
        pts = _random_sphere_points(rng, 4, 4 if i % 4 == 1 else 5, forbid_antipodal=False)
        if i % 4 == 1:
            combination = [-sum(rng.randrange(1, 3) * p.primitive[c] for p in pts) for c in range(4)]
            pts = list(dict.fromkeys(pts + [normalize_ray(Character(combination))]))
        assert len(pts) == 5
        if i % 4 in (0, 1):
            chi = Character.zero(4)
        elif i % 4 == 2:
            subset = rng.sample(pts, rng.randrange(2, 5))
            chi = Character([sum(rng.choice([1, 2, F(1, 2)]) * p.primitive[c] for p in subset) for c in range(4)])
        else:
            chi = Character(tuple(F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(4)))
        value = m_value(pts, chi)
        assert value == enumeration_m_value(pts, chi), (pts, chi)
        values.append(value)
    assert INF in values and len(set(values)) >= 3, values


def test_minimal_ray_count_equals_enumeration_oracle_at_ranks_five_and_six():
    # Ranks 5 and 6 with eight or nine rays, where the circuit search
    # grows sets of up to k members.  For chi = 0 the last ray is opposite
    # a positive combination of four or five others, so that finite counts
    # up to k + 1 occur; otherwise chi is a sum of two or three of the rays
    # or random.
    rng = random.Random(56)
    counts = []
    for i in range(24):
        k, size = 5 + i % 2, 8 + i % 4 // 2
        rays = set()
        while len(rays) < size - (i % 3 == 0):
            v = [rng.randrange(-2, 3) for _ in range(k)]
            if any(v):
                rays.add(_primitive(v))
        rays = sorted(rays)
        if i % 3 == 0:
            chi = (0,) * k
            combination = [-sum(rng.randrange(1, 3) * c for c in row) for row in zip(*rng.sample(rays, 4 + i % 2))]
            if any(combination) and _primitive(combination) not in rays:
                rays.append(_primitive(combination))
        elif i % 3 == 1:
            chi = tuple(map(sum, zip(*rng.sample(rays, rng.randrange(2, 4)))))
        else:
            chi = tuple(rng.randrange(-2, 3) for _ in range(k))
        points = [SpherePoint(a) for a in rays]
        count = minimal_ray_count(points, Character(chi))
        assert count == enumeration_ray_count(points, Character(chi)), (rays, chi)
        counts.append(count)
    assert INF in counts and len(set(counts)) >= 4, counts


def test_m_value_monotone_under_enlarging_the_set():
    rng = random.Random(7)
    for _ in range(60):
        k = rng.randrange(1, 4)
        pts = _random_sphere_points(rng, k, rng.randrange(1, 6), forbid_antipodal=False)
        extra = _random_sphere_points(rng, k, 2, forbid_antipodal=False)
        chi = Character(tuple(rng.randrange(-2, 3) for _ in range(k)))
        small = m_value(pts, chi)
        large = m_value(list(dict.fromkeys(pts + extra)), chi)
        assert large <= small


def test_m_chi_near_m_zero_holds_often_but_not_always():
    # Empirical study of the relation between m(chi) and m(0) for rays
    # [chi] inside the complement set.  Both m(0) and m(0) - 1 occur, but
    # the relation is NOT universal over antipodal-free rational sets:
    # nothing in this package assumes it.
    rng = random.Random(31337)
    hits = {"equal": 0, "one_less": 0, "other": 0}
    for _ in range(120):
        k = rng.randrange(1, 4)
        pts = _random_sphere_points(rng, k, rng.randrange(2, 7))
        if not pts:
            continue
        chi = rng.choice(pts).character()
        m_zero = m_value(pts, Character.zero(k))
        m_chi = m_value(pts, chi)
        if m_zero == INF:
            continue
        if m_chi == m_zero:
            hits["equal"] += 1
        elif m_chi == m_zero - 1:
            hits["one_less"] += 1
        else:
            hits["other"] += 1
    assert hits["one_less"] > 0
    # Frozen instance where the values coincide: m(chi) = m(0) = 2.
    pts = [
        SpherePoint(v)
        for v in [(-3, -1, 0), (2, 0, -3), (0, 2, -3), (-2, -1, 3), (2, 2, -3)]
    ]
    assert m_value(pts, Character([-3, -1, 0])) == 2
    assert m_value(pts, Character.zero(3)) == 2
    # Frozen counterexample to the universal form (verified by hand):
    # chi = (1,0,-1) = 2/3 (1,-1,0) + 1/3 (1,2,-3), so m(chi) = 1, while
    # the zero character needs four rays, so m(0) = 3.
    pts = [
        SpherePoint(v)
        for v in [(2, -3, -3), (1, 0, -1), (1, -1, 0), (1, 2, -3), (-3, -1, -1), (2, 1, 3)]
    ]
    chi = Character([1, 0, -1])
    assert m_value(pts, chi) == 1
    assert m_value(pts, Character.zero(3)) == 3


# ---------------------------------------------------------------------------
# The LP finiteness test.  Its certificates are checked here with integer
# dot products alone, and its values against the Fourier-Motzkin oracle.


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _primitive(v):
    g = math.gcd(*v)
    return tuple(c // g for c in v)


@st.composite
def lp_instances(draw):
    """(rays, chi): distinct primitive integer rays of rank 1-5 and an
    integer character that is zero, random, or on the ray of a given ray or
    of its antipode."""
    k = draw(st.integers(1, 5))
    vector = st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(any).map(tuple)
    rays = draw(st.lists(vector.map(_primitive), max_size=7 if k < 4 else 6, unique=True))
    kind = draw(st.sampled_from(["zero", "random", "on-ray"]))
    if kind == "random":
        chi = draw(vector)
    elif kind == "on-ray" and rays:
        scale = draw(st.sampled_from([1, 2, -1]))
        chi = tuple(scale * c for c in draw(st.sampled_from(rays)))
    else:
        chi = (0,) * k
    return rays, chi


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lp_instances())
def test_lp_certificates_hold_in_integer_arithmetic(instance):
    rays, chi = instance
    k = len(chi)
    # The LP that minimal_ray_count solves: each ray a goes to its image in
    # the quotient by chi with the weight w_a, and the right-hand side is the
    # last unit vector.  For chi = 0 the image is a and the weight 1.
    if any(chi):
        p = _primitive(chi)
        i = next(j for j, c in enumerate(p) if c)
        sign = 1 if p[i] > 0 else -1
        vectors = [a for a in rays if a != p]
        columns = [tuple(p[i] * a[j] - a[i] * p[j] for j in range(k) if j != i) + (sign * a[i],) for a in vectors]
    else:
        vectors = rays
        columns = [a + (1,) for a in rays]
    points = [SpherePoint(a) for a in rays]
    if not columns:
        # No ray in the quotient: infinite, and no LP is solved.
        with mock.patch.object(sphere, "_conic_lp", side_effect=AssertionError("an LP without columns")):
            assert minimal_ray_count(points, Character(chi)) == INF
        assert enumeration_ray_count(points, Character(chi)) == INF
        return
    support, y = _conic_lp(columns)
    count = minimal_ray_count(points, Character(chi))
    assert count == enumeration_ray_count(points, Character(chi))
    if support is None:
        assert count == INF and y[-1] < 0
        if any(chi):
            # The Farkas vector lifted to the character's coordinates: the
            # rays lie in a closed half-space that misses chi.
            z = [0] * k
            for j, yj in zip([j for j in range(k) if j != i], y):
                z[j] += yj * p[i]
                z[i] -= yj * p[j]
            z[i] += y[-1] * sign
            assert all(_dot(z, a) >= 0 for a in vectors) and _dot(z, p) < 0
        else:
            # Gordan: every ray lies in one open half-space.
            assert all(_dot(y[:k], a) > 0 for a in vectors)
    else:
        assert 0 < len(support) <= k + (not any(chi)) and count <= len(support)
        assert strictly_representable_fm([vectors[s] for s in support], chi)


def _pointed_cone(k, size, seed):
    """size distinct primitive rays with positive first coordinate."""
    rng = random.Random(seed)
    rays = set()
    while len(rays) < size:
        rays.add(_primitive([rng.randint(1, 4)] + [rng.randint(-4, 4) for _ in range(k - 1)]))
    return [SpherePoint(a) for a in sorted(rays)]


def _counting_search(monkeypatch):
    """The (best, result) pairs of the _circuit_search calls made from here on."""
    calls = []
    search = sphere._circuit_search

    def counted(vectors, weights, best):
        calls.append((best, search(vectors, weights, best)))
        return calls[-1][1]

    monkeypatch.setattr(sphere, "_circuit_search", counted)
    return calls


@pytest.mark.parametrize("k, size", [(3, 24), (4, 20), (5, 20), (6, 20)])
def test_m_zero_on_pointed_cones_tries_no_subset(monkeypatch, k, size):
    # The bounded subset search tried every subset of up to k + 1 rays
    # here: 1.1 s at rank 5 and 3.8 s at rank 6 on a 2-CPU machine.  One
    # LP with a Gordan certificate now decides it, and no circuit is sought.
    calls = _counting_search(monkeypatch)
    cone = _pointed_cone(k, size, seed=100 * k + size)
    start = time.perf_counter()
    assert minimal_ray_count(cone, Character.zero(k)) == INF
    assert time.perf_counter() - start < 0.05
    assert calls == []


def test_signs_decide_without_an_lp_and_the_lp_decides_the_rest(monkeypatch):
    # A coordinate of one sign on every live vector forces lam = 0 on the
    # vectors where it is nonzero; with no live vector of positive weight
    # left the value is infinite, and no LP runs.
    lps = []
    lp = sphere._conic_lp
    monkeypatch.setattr(sphere, "_conic_lp", lambda columns: lps.append(columns) or lp(columns))
    decided = [
        (_pointed_cone(4, 12, seed=1), Character.zero(4)),
        # No coordinate has one strict sign.  Three rounds: the first
        # coordinate (>= 0) removes (1, 0, 1), then the third (<= 0 on what
        # is left) removes (0, 1, -1), then the second removes (0, -1, 0).
        ([SpherePoint((1, 0, 1)), SpherePoint((0, 1, -1)), SpherePoint((0, -1, 0))], Character.zero(3)),
        # chi = (1, 0): the images 1 and -1 take both signs, but the weights
        # are -1 and 0.
        ([SpherePoint((-1, 1)), SpherePoint((0, -1))], Character([1, 0])),
    ]
    for points, chi in decided:
        assert minimal_ray_count(points, chi) == INF == enumeration_ray_count(points, chi)
    assert lps == []
    # Every coordinate takes both signs, yet (1, 1) pairs positively with
    # every ray: the LP finds that Gordan certificate.
    points = [SpherePoint((1, 2)), SpherePoint((2, -1)), SpherePoint((-1, 3))]
    assert minimal_ray_count(points, Character.zero(2)) == INF == enumeration_ray_count(points, Character.zero(2))
    assert len(lps) == 1


def test_subset_search_stops_below_the_basis_size(monkeypatch):
    # Nine rays in rank 6 whose LP basis uses six of them, while five
    # rays already form a positive circuit; one search below six finds it.
    rays = [
        (-1, -2, -2, -1, 1, -1), (-1, -1, 2, 0, 1, 0), (-1, 1, -2, 2, -2, 2),
        (0, -2, 2, 0, 0, -1), (0, 1, 1, 0, 0, -1), (0, 2, 0, -1, 1, 2),
        (1, -1, 0, -2, -1, -2), (1, 1, 0, 1, -1, 2), (2, 0, -1, 2, 0, -1),
    ]
    support, _ = _conic_lp([a + (1,) for a in rays])
    assert len(support) == 6
    calls = _counting_search(monkeypatch)
    points = [SpherePoint(a) for a in rays]
    assert minimal_ray_count(points, Character.zero(6)) == 5
    assert calls == [(6, 5)]
    assert enumeration_ray_count(points, Character.zero(6)) == 5


def test_a_circuit_of_weight_sum_one_closes_below_the_basis_size(monkeypatch):
    # chi = (0, -1, 0) is (-1, -1, 0) + (1, 0, 0), but the LP basis uses three
    # rays.  In the quotient by chi the two-ray circuit closes with one
    # coefficient 1 and weight sum exactly 1, the least a positive sum can be.
    rays = [(-1, -1, 0), (0, -1, 1), (1, 0, -1), (1, 0, 0)]
    calls = _counting_search(monkeypatch)
    points = [SpherePoint(a) for a in rays]
    assert minimal_ray_count(points, Character([0, -1, 0])) == 2
    assert calls == [(3, 2)]
    assert enumeration_ray_count(points, Character([0, -1, 0])) == 2


# ---------------------------------------------------------------------------
# Tooling guard: one check, one LP and one search for every chi


SPHERE_SOURCE = pathlib.Path(sphere.__file__).read_text(encoding="utf-8")


def called_names(source: str, function: str) -> collections.Counter:
    """How often the body of the module-level function calls each plain name."""
    top = next(node for node in ast.parse(source).body if getattr(node, "name", None) == function)
    return collections.Counter(
        node.func.id for node in ast.walk(top) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    )


def test_guard_counts_the_calls_of_a_function():
    sample = "def f(x):\n    if x:\n        return g(x)\n    return g(h(x)) + x.g()\n"
    assert called_names(sample, "f") == collections.Counter({"g": 2, "h": 1})


def test_minimal_ray_count_has_one_lp_and_one_search_for_every_chi():
    # The checking entry hands every chi to the integer core once, and the
    # core asks one LP and one search.
    entry = called_names(SPHERE_SOURCE, "minimal_ray_count")
    assert entry["_ray_count"] == 1 and entry["_conic_lp"] == 0 and entry["_circuit_search"] == 0
    calls = called_names(SPHERE_SOURCE, "_ray_count")
    assert calls["_conic_lp"] == 1 and calls["_circuit_search"] == 1
    # The LP answers one question, so it takes the columns and no target.
    assert list(inspect.signature(sphere._conic_lp).parameters) == ["columns"]
    tree = ast.parse(SPHERE_SOURCE)
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "itertools" not in imported
    assert "_positive_kernel" not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
