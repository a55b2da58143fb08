"""Group actions: word evaluation, boundary actions, the axis ends of a
Cayley word, endpoint characters, the cocycle, cocompactness witnesses and
the modular-group boundary classification of ``verify``."""

import math
import random
import re
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cat0sigma import actions, spaces as sp
from cat0sigma.actions import (
    CayleyIsometry,
    EuclideanIsometry,
    GroupAction,
    HnnIsometry,
    MoebiusIsometry,
    character_at_end,
    cocompactness_witness,
    EmptyHoroballWitness,
    NetCertificate,
    ORBIT_BUDGET,
    UnknownVerdict,
)
from cat0sigma.errors import EndNotFixed, ParameterOutOfRange, UnknownGenerator, WrongSpace
from cat0sigma.spaces import EDirection, EuclideanSpace, H2_INFINITY, REGION_BUDGET
from cat0sigma.trees import CayleyTree, HnnTree, HnnUp, RegularTree, TreeModel, TreePoint, make_word_end
from cat0sigma.verify import _fixed_axis_ends, _psi, _random_ends, _sl2z_cusp
from cat0sigma.words import cyclic_reduce, invert_word, reduce_word


def test_apply_examples():
    act = GroupAction.euclidean_translations(2, {"t": (1, 2)})
    assert act.apply("", (0.0, 0.0)) == (0.0, 0.0)
    assert act.apply("tt", (0.0, 0.0)) == (2.0, 4.0)
    hyp = GroupAction.moebius({"h": [[2, 0], [0, F(1, 2)]]})
    assert abs(hyp.apply("h", 1j) - 4j) < 1e-12
    with pytest.raises(UnknownGenerator):
        act.apply("x", (0.0, 0.0))


def test_word_letters_respect_case():
    act = GroupAction.euclidean_translations(1, {"a": (1,)})
    assert act.apply("aaA", (0.0,)) == (1.0,)
    assert act.apply("A", (0.0,)) == (-1.0,)


def test_word_evaluation_inverts_no_generator(monkeypatch):
    # Each generator's inverse is built once with the action; evaluating
    # a word with uppercase letters only looks it up (six inverse() calls
    # per evaluation of "TTTAAA" before).
    hnn = GroupAction.ascending_hnn(2)
    t, a = hnn.generators["t"].inverse(), hnn.generators["a"].inverse()
    expected = hnn.space.origin()
    for iso in (a, a, a, t, t, t):
        expected = iso.apply(hnn.space, expected)
    calls = []
    inverse = HnnIsometry.inverse
    monkeypatch.setattr(HnnIsometry, "inverse", lambda iso: calls.append(iso) or inverse(iso))
    assert hnn.apply("TTTAAA", hnn.space.origin()) == expected
    assert hnn.boundary_apply("TA", HnnUp()) == HnnUp()
    assert calls == []


def test_boundary_apply_examples():
    # Translations fix every boundary direction.
    act = GroupAction.euclidean_translations(2, {"t": (3, 1)})
    e = EDirection((0.6, 0.8))
    assert act.boundary_apply("t", e) == e
    # The parabolic z + 1 sends 0 to 1 and fixes infinity.
    hyp = GroupAction.moebius({"p": [[1, 1], [0, 1]]})
    assert hyp.boundary_apply("p", F(0)) == 1
    assert hyp.boundary_apply("p", H2_INFINITY) == H2_INFINITY
    # Left multiplication on the tree prepends the letter.
    free = GroupAction.free_group(2)
    assert free.boundary_apply("a", make_word_end((), (2,))) == make_word_end((1,), (2,))


def test_boundary_action_composes(rng):
    act = GroupAction.moebius({"s": [[0, -1], [1, 0]], "p": [[1, 1], [0, 1]]})
    for _ in range(50):
        word1 = "".join(rng.choice("spSP") for _ in range(rng.randrange(1, 4)))
        word2 = "".join(rng.choice("spSP") for _ in range(rng.randrange(1, 4)))
        xi = F(rng.randrange(-9, 10), rng.randrange(1, 5))
        assert act.boundary_apply(word1 + word2, xi) == act.boundary_apply(
            word1, act.boundary_apply(word2, xi)
        )


def test_group_action_rejects_distance_distortion():
    stretch = [[2.0, 0.0], [0.0, 2.0]]
    with pytest.raises(ValueError):
        EuclideanIsometry(stretch, (0.0, 0.0))
    with pytest.raises(ValueError):
        MoebiusIsometry(2, 0, 0, 2)
    with pytest.raises(WrongSpace):
        GroupAction(EuclideanSpace(2), {"a": MoebiusIsometry(1, 0, 0, 1)})


def test_group_action_checks_that_generators_fit_its_space():
    # Each constructor checks the values it sees; the fit with the space is
    # checked once, by the action, and named by the generator.
    rot = EuclideanIsometry([[0, 0, 1], [0, 1, 0], [-1, 0, 0]], (0, 0, 0))
    hnn2 = HnnTree(2)
    cases = [
        (EuclideanSpace(2), rot, WrongSpace, "generator 'a': translation of dimension 3 in E2"),
        (hnn2, HnnIsometry(2, 1, F(1, 3)), ValueError, "generator 'a': add 1/3 is not an 2-adic rational"),
        (hnn2, HnnIsometry(3, 1, 0), WrongSpace, "generator 'a': HNN isometry of index 3 on "),
        (hnn2, HnnIsometry(2, 10**7, 0), ParameterOutOfRange, "generator 'a': shift 10000000 exceeds"),
        (CayleyTree(2), CayleyIsometry((1, 3)), ValueError, "generator 'a': letter 3 outside rank 2"),
    ]
    for space, iso, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            GroupAction(space, {"a": iso})
    assert GroupAction(EuclideanSpace(3), {"a": rot}).generators == {"a": rot}


def test_group_action_accepts_what_the_gram_rule_accepts():
    # The Gram rule is the whole acceptance test on E^k: diag(1 + 4.9e-10)
    # has Gram error 9.8e-10, diag(1 + 6e-10) has 1.2e-9.
    near = EuclideanIsometry([[1 + 4.9e-10, 0.0], [0.0, 1 + 4.9e-10]], (0.0, 0.0))
    assert GroupAction(EuclideanSpace(2), {"a": near}).generators == {"a": near}
    with pytest.raises(ValueError, match="not orthogonal within 1e-9"):
        EuclideanIsometry([[1 + 6e-10, 0.0], [0.0, 1 + 6e-10]], (0.0, 0.0))


def test_classification_examples():
    # The axis of a word of F2, which verify's cocompact suite reads: a
    # fixes the two ends of its axis.
    a = GroupAction.cyclic_on_cayley_tree(2, (1,))
    assert set(_fixed_axis_ends(a, (1,))) == {make_word_end((), (1,)), make_word_end((), (-1,))}
    # A conjugate has the conjugated axis: b a b^-1.
    conjugate = GroupAction.cyclic_on_cayley_tree(2, (2, 1, -2))
    assert _fixed_axis_ends(conjugate, (2, 1, -2)) == [make_word_end((2,), (1,)), make_word_end((2,), (-1,))]
    hnn6 = GroupAction.ascending_hnn(6)
    assert character_at_end(hnn6, HnnUp(), hnn6.space.origin(), ["t"]) == {"t": -1}


def test_classifying_a_long_conjugate_takes_one_pass():
    # c a c^-1 with |c| = 10^5: the core a and the prefix c are found in one
    # pass over the word (peeling one cancelling pair per turn was quadratic).
    c = (1, 2) * 50_000
    start = time.perf_counter()
    prefix, core = cyclic_reduce(c + (1,) + invert_word(c))
    assert time.perf_counter() - start < 1.0
    assert (prefix, core) == (c, (1,))


def test_tree_translation_length_is_homogeneous(rng):
    # The translation length of a word is the length of its cyclically
    # reduced core.
    for _ in range(20):
        word = reduce_word(tuple(rng.choice((1, 2, -1, -2)) for _ in range(rng.randrange(1, 4))))
        if not word:
            continue
        length = len(cyclic_reduce(word)[1])
        for n in range(1, 6):
            assert len(cyclic_reduce(reduce_word(word * n))[1]) == n * length


def test_fixed_ends_examples():
    sub = GroupAction.cyclic_on_cayley_tree(2, (1,))
    assert set(_fixed_axis_ends(sub, (1,))) == {make_word_end((), (1,)), make_word_end((), (-1,))}
    # b moves both ends of the axis of a.
    assert _fixed_axis_ends(GroupAction.free_group(2), (1,)) == []


# ---------------------------------------------------------------------------
# Endpoint characters


def test_character_examples():
    hyp = GroupAction.moebius({"p": [[1, 1], [0, 1]], "h": [[2, 0], [0, F(1, 2)]]})
    base = 1j
    chi = character_at_end(hyp, H2_INFINITY, base, ["p", "h", "hp"])
    assert list(chi) == ["p", "h", "hp"]
    assert abs(chi["p"]) < 1e-12
    assert abs(chi["h"] - math.log(4)) < 1e-12
    assert abs(chi["hp"] - math.log(4)) < 1e-9

    hnn = GroupAction.ascending_hnn(2)
    origin = hnn.space.origin()
    assert character_at_end(hnn, HnnUp(), origin, ["a", "t", "taT", "t"]) == {"a": 0, "t": -1, "taT": -1 + 0 + 1}

    moved = GroupAction.moebius({"m": [[1, 3], [0, 1]], "h": [[3, 0], [0, F(1, 3)]]})
    with pytest.raises(EndNotFixed):
        character_at_end(moved, F(0), 1j, ["m"])
    # No word asks nothing of the end, but the end and the base are checked.
    assert character_at_end(moved, F(0), 1j, []) == {}
    with pytest.raises(WrongSpace):
        character_at_end(moved, F(0), complex(0, -1), [])


def test_character_additivity_and_base_independence(rng):
    hnn = GroupAction.ascending_hnn(3)
    origin = hnn.space.origin()
    other = TreePoint(hnn.space.vertex_containing(F(5), 2))
    for _ in range(40):
        g = "".join(rng.choice("atAT") for _ in range(rng.randrange(1, 4)))
        h = "".join(rng.choice("atAT") for _ in range(rng.randrange(1, 4)))
        chi = character_at_end(hnn, HnnUp(), origin, [g, h, g + h])
        assert chi[g + h] == chi[g] + chi[h]
        assert character_at_end(hnn, HnnUp(), other, [g]) == {g: chi[g]}


def test_psi_cocycle_identity(rng):
    act = GroupAction.moebius({"s": [[0, -1], [1, 0]], "p": [[1, 1], [0, 1]]})
    for i in range(40):
        e = _random_ends(act.space, 1, 100 + i)[0]
        a = next(sp.unchecked_point_stream(act.space, 1j, 2.0, 200 + i))
        g = "".join(rng.choice("spSP") for _ in range(rng.randrange(1, 3)))
        h = "".join(rng.choice("spSP") for _ in range(rng.randrange(1, 3)))
        lhs = _psi(act, e, g + h, a)
        rhs = _psi(act, e, g, act.apply(h, a)) + _psi(act, e, h, a)
        assert abs(lhs - rhs) < 1e-9
    assert _psi(act, F(0), "", 1j) == 0.0


def test_psi_matches_character_when_the_end_is_fixed():
    hyp = GroupAction.moebius({"p": [[1, 1], [0, 1]], "h": [[2, 0], [0, F(1, 2)]]})
    for a in [1j, complex(0.5, 2.0)]:
        for word in ["p", "h", "hp"]:
            psi = _psi(hyp, H2_INFINITY, word, a)
            chi = character_at_end(hyp, H2_INFINITY, a, [word])[word]
            assert abs(psi - chi) < 1e-9
    hnn = GroupAction.ascending_hnn(2)
    base = hnn.space.origin()
    for word in ["t", "a", "taT"]:
        assert {word: _psi(hnn, HnnUp(), word, base)} == character_at_end(hnn, HnnUp(), base, [word])


def test_psi_for_translations_is_inner_product():
    act = GroupAction.euclidean_translations(2, {"v": (0.3, 0.4)})
    e = EDirection((0.6, 0.8))
    for a in [(0.0, 0.0), (5.0, -2.0)]:
        got = _psi(act, e, "v", a)
        assert abs(got - (0.3 * 0.6 + 0.4 * 0.8)) < 1e-12


# ---------------------------------------------------------------------------
# Cocompactness witnesses


def test_lattice_is_a_net():
    act = GroupAction.euclidean_translations(2, {"a": (1, 0), "b": (0, 1)})
    verdict = cocompactness_witness(act, (0.0, 0.0), 0.75, depth=6, seed=0)
    assert isinstance(verdict, NetCertificate)
    assert verdict.max_min_distance <= 0.75


def test_thin_subgroup_leaves_an_empty_horoball():
    sub = GroupAction.cyclic_on_cayley_tree(2, (1,))
    verdict = cocompactness_witness(sub, TreePoint(()), 1, depth=6, seed=0)
    assert isinstance(verdict, EmptyHoroballWitness)
    assert verdict.end == make_word_end((), (2,))
    assert verdict.max_orbit_busemann < verdict.level <= verdict.max_region_busemann


def test_trivial_group_on_the_line():
    act = GroupAction.euclidean_translations(1, {"a": (0,)})
    verdict = cocompactness_witness(act, (0.0,), 0.75, depth=4, seed=0)
    assert isinstance(verdict, EmptyHoroballWitness)
    assert verdict.end == EDirection((1.0,))


def test_orbit_budget_stops_deep_free_group_orbits():
    # F2 has 1 + 4 (3^d - 1) / 2 orbit points within word length d: 4373
    # at depth 7, 13121 at depth 8; depth 12 would need 1062881.
    start = time.perf_counter()
    verdict = cocompactness_witness(GroupAction.free_group(2), TreePoint(()), 1, depth=12, seed=0)
    assert time.perf_counter() - start < 5
    assert isinstance(verdict, UnknownVerdict)
    assert str(ORBIT_BUDGET) in verdict.reason and "word length 8" in verdict.reason


def test_region_budget_stops_high_dimensional_grids():
    # The region's grid has 8^k points: 8^9 = 134217728 on E^9, which took
    # minutes to build.
    act = GroupAction.euclidean_translations(9, {"a": (1,) + (0,) * 8})
    start = time.perf_counter()
    verdict = cocompactness_witness(act, (0.0,) * 9, 0.75, depth=1, seed=0)
    assert time.perf_counter() - start < 1
    assert verdict == UnknownVerdict(f"region budget of {REGION_BUDGET} grid points exceeded in E9")


def test_region_budget_stops_large_tree_balls():
    # The ball of radius depth // 2 in HNN(6) holds 1 + 7 (6^r - 1) / 5
    # vertices: 65318 at depth 12, 391915 at depth 14, whose listing took
    # about 9 s; the orbit of t stays small, so no orbit budget stops it.
    act = GroupAction(HnnTree(6), {"t": HnnIsometry(6, 1, 0)})
    start = time.perf_counter()
    verdict = cocompactness_witness(act, TreePoint(HnnTree(6).base_vertex()), 1, depth=14, seed=0)
    assert time.perf_counter() - start < 0.5
    assert verdict == UnknownVerdict(f"region budget of {REGION_BUDGET} vertices exceeded in tree")


@pytest.mark.parametrize(
    "model",
    [CayleyTree(1), CayleyTree(2), RegularTree(3), HnnTree(2)],
    ids=lambda model: "-".join(map(str, model.descriptor().values())),
)
def test_tree_region_budget_counts_the_ball_it_lists(model, monkeypatch):
    # The ball's size is computed before listing it; a budget one short of
    # the listed ball refuses it, at the root and below it.
    for center in (model.base_vertex(), model.children(model.base_vertex())[0]):
        for depth in (4, 7):
            _, ball = model.region(TreePoint(center), depth, 0)
            assert len(set(ball)) == len(ball)
            monkeypatch.setattr(sp, "REGION_BUDGET", len(ball) - 1)
            assert model.region(TreePoint(center), depth, 0)[1] is None
            monkeypatch.undo()


def _all_pairs_max_min(space, samples, orbit):
    """Reference for the early-exit scan: every sample against every orbit
    point, and the first sample of largest nearest distance."""
    nearest = [(min(space.distance(p, q) for q in orbit), p) for p in samples]
    return max(nearest, key=lambda pair: pair[0], default=(-math.inf, None))


# Seeded actions for the scan oracle: lattices of E1 and E2, free and
# cyclic groups on the Cayley tree, ascending HNN extensions, Moebius maps.
def _moebius(rng):
    pool = {"s": [[0, -1], [1, 0]], "p": [[1, 1], [0, 1]], "q": [[1, 0], [2, 1]], "h": [[2, 1], [1, 1]]}
    return GroupAction.moebius({name: pool[name] for name in rng.sample(sorted(pool), rng.randint(1, 2))})


def _reduced_word(rng, rank, length):
    word = []
    while len(word) < length:
        letter = rng.choice([1, -1]) * rng.randint(1, rank)
        if not word or word[-1] != -letter:
            word.append(letter)
    return tuple(word)


SCAN_ACTIONS = {
    "E1": lambda rng: GroupAction.euclidean_translations(1, {"a": (rng.randint(0, 2),)}),
    "E2": lambda rng: GroupAction.euclidean_translations(
        2, rng.choice([{"a": (1, 0), "b": (rng.randint(-1, 1), 1)}, {"a": (1, rng.choice([-1, 1]))}])
    ),
    "F2": lambda rng: GroupAction.free_group(2),
    "cyclic-cayley": lambda rng: GroupAction.cyclic_on_cayley_tree(2, _reduced_word(rng, 2, rng.randint(1, 3))),
    "hnn2": lambda rng: GroupAction.ascending_hnn(2),
    "hnn3": lambda rng: GroupAction.ascending_hnn(3),
    "H2": _moebius,
}


@settings(max_examples=200, deadline=None, derandomize=True)
@example(kind="E2", draw=0, depth=5, radius=1, seed=0)  # Z^2: a net
# The line of (1, -1): its horoball end is the direction of the witness point.
@example(kind="E2", draw=6, depth=5, radius=0.5, seed=0)
@given(
    kind=st.sampled_from(sorted(SCAN_ACTIONS)),
    draw=st.integers(0, 10**6),
    depth=st.integers(0, 5),
    radius=st.sampled_from([0, 0.25, 0.75, 1, 2]),
    seed=st.integers(0, 20),
)
def test_cocompactness_scan_matches_all_pairs(kind, draw, depth, radius, seed):
    # The early-exit scan gives the verdict of the all-pairs max-min,
    # type and fields, the witness point that probe_ends reads among them.
    # Even draws start at the origin, odd draws at a seeded point near it.
    rng = random.Random(draw)
    action = SCAN_ACTIONS[kind](rng)
    base = action.space.origin()
    if draw % 2:
        base = next(sp.unchecked_point_stream(action.space, base, 2.0, draw))
    verdict = cocompactness_witness(action, base, radius, depth=depth, seed=seed)
    with mock.patch.object(actions, "_directed_hausdorff", _all_pairs_max_min):
        reference = cocompactness_witness(action, base, radius, depth=depth, seed=seed)
    assert verdict == reference and repr(verdict) == repr(reference)


def test_cocompactness_scan_keeps_the_first_farthest_sample():
    # Euclidean probe_ends reads the witness point, so ties go as in max().
    E1 = EuclideanSpace(1)
    samples, orbit = [(-1.0,), (0.5,), (1.0,)], [(0.0,), (3.0,)]
    assert actions._directed_hausdorff(E1, samples, orbit) == _all_pairs_max_min(E1, samples, orbit) == (1.0, (-1.0,))
    assert actions._directed_hausdorff(E1, [], orbit) == _all_pairs_max_min(E1, [], orbit) == (-math.inf, None)


def test_cocompactness_scan_stops_early(monkeypatch):
    # All pairs: 77,221 distances for F2 at depth 6, and 264 heights for the
    # cyclic group's horoball probe (two per Busemann value).
    calls = {"distance": 0, "point_height": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(TreeModel, "distance")
    counted(TreeModel, "point_height")
    verdict = cocompactness_witness(GroupAction.free_group(2), TreePoint(()), 1, depth=6, seed=0)
    assert isinstance(verdict, NetCertificate) and calls["distance"] <= 3000
    calls.update(distance=0, point_height=0)
    verdict = cocompactness_witness(GroupAction.cyclic_on_cayley_tree(2, (1,)), TreePoint(()), 1, depth=6, seed=0)
    assert isinstance(verdict, EmptyHoroballWitness) and calls["point_height"] <= 140


def test_modular_group_is_not_cocompact():
    # Integer Moebius maps never push i above height 1, so horoballs at
    # the parabolic fixed point at infinity are left empty.
    act = GroupAction.moebius({"s": [[0, -1], [1, 0]], "p": [[1, 1], [0, 1]]})
    verdict = cocompactness_witness(act, 1j, 0.5, depth=5, seed=0)
    assert isinstance(verdict, EmptyHoroballWitness)
    assert verdict.end == H2_INFINITY
    assert verdict.max_orbit_busemann <= 1e-9


# ---------------------------------------------------------------------------
# Boundary classification for the modular group


def test_sl2z_complement_examples():
    assert _sl2z_cusp(F(3, 7)) is True
    assert _sl2z_cusp(H2_INFINITY) is True
    assert _sl2z_cusp((1, 1, 2)) is False
    # A square radicand is secretly rational.
    assert _sl2z_cusp((1, 1, 4)) is True
    assert _sl2z_cusp((F(1, 2), 0, 7)) is True
