"""Piecewise invariant formulas for tree actions and MFPR groups."""

import collections
import math
import random
from fractions import Fraction as F

import pytest

from cat0sigma import sphere, treesigma
from cat0sigma.errors import DegreeOutOfRange, InvalidChain
from cat0sigma.sphere import Character, SpherePoint
from cat0sigma.treesigma import (
    EMPTY,
    SINGLETON,
    WHOLE_BOUNDARY,
    GraphOfGroupsSummary,
    MFPRData,
    dynamical_sigma,
    mfpr_lengths,
    sigma_table,
    TABLE_BUDGET,
)
from cat0sigma.verify import (
    _random_mfpr_data,
    _random_sphere_points,
    _random_summary,
    enumeration_m_value,
    mfpr_sigma_oracle,
)

INF = math.inf


def test_no_fixed_end_formula():
    s = GraphOfGroupsSummary(4, 2, False)
    assert dynamical_sigma(s, 1) == WHOLE_BOUNDARY
    assert dynamical_sigma(s, 2) == WHOLE_BOUNDARY
    assert dynamical_sigma(s, 3) == EMPTY
    with pytest.raises(DegreeOutOfRange):
        dynamical_sigma(s, 5)
    with pytest.raises(DegreeOutOfRange):
        dynamical_sigma(s, -1)
    # Without a fixed end a connectivity length is ignored: no singleton.
    s2 = GraphOfGroupsSummary(4, 1, False, 3)
    assert [dynamical_sigma(s2, n) for n in range(5)] == [WHOLE_BOUNDARY] * 2 + [EMPTY] * 3


def test_fixed_end_formula():
    s = GraphOfGroupsSummary(3, 1, True, 2)
    values = [dynamical_sigma(s, n) for n in range(4)]
    assert values == [WHOLE_BOUNDARY, WHOLE_BOUNDARY, SINGLETON, EMPTY]
    with pytest.raises(DegreeOutOfRange):
        dynamical_sigma(s, 4)
    # cl equal to the stabilizer length collapses the singleton range.
    s2 = GraphOfGroupsSummary(3, 1, True, 1)
    assert [dynamical_sigma(s2, n) for n in range(4)] == [
        WHOLE_BOUNDARY,
        WHOLE_BOUNDARY,
        EMPTY,
        EMPTY,
    ]


def test_chain_validation():
    with pytest.raises(InvalidChain):
        GraphOfGroupsSummary(2, 3, False)
    with pytest.raises(InvalidChain):
        GraphOfGroupsSummary(3, 1, True, 5)
    with pytest.raises(InvalidChain):
        GraphOfGroupsSummary(3, 1, True, None)
    GraphOfGroupsSummary(INF, 2, True, INF)  # infinite lengths are values


def test_sigma_table_default_and_budget():
    infinite = GraphOfGroupsSummary(INF, 1, True, INF)
    assert [n for n, _ in sigma_table(infinite)] == list(range(9))
    assert len(sigma_table(infinite, TABLE_BUDGET - 1)) == TABLE_BUDGET
    for summary, n_max in ((infinite, TABLE_BUDGET), (infinite, 10**9), (GraphOfGroupsSummary(10**9, 1, False), None)):
        with pytest.raises(DegreeOutOfRange, match=f"exceeds the table budget of {TABLE_BUDGET} rows"):
            sigma_table(summary, n_max)


def test_sigma_table_partitions_the_range(rng):
    for _ in range(60):
        s = _random_summary(rng)
        table = sigma_table(s)
        assert [n for n, _ in table] == list(range(int(s.fl_group) + 1))
        whole = [n for n, v in table if v == WHOLE_BOUNDARY]
        single = [n for n, v in table if v == SINGLETON]
        empty = [n for n, v in table if v == EMPTY]
        assert whole == list(range(int(s.fl_stabilizers) + 1))
        if s.has_fixed_end:
            assert single == list(range(int(s.fl_stabilizers) + 1, int(s.cl_character) + 1))
        else:
            assert single == []
        assert len(whole) + len(single) + len(empty) == len(table)


def test_mfpr_lengths_frozen_examples():
    # Empty complement: every length is infinite.
    empty = MFPRData(2, [], Character([1, 0]))
    lengths = mfpr_lengths(empty)
    assert lengths == GraphOfGroupsSummary(INF, INF, True, INF)

    # One dimensional pair with chi = (-1).
    pair = MFPRData(1, [SpherePoint((1,)), SpherePoint((-1,))], Character([-1]))
    lengths = mfpr_lengths(pair)
    assert lengths == GraphOfGroupsSummary(1, 1, True, 1)

    # Three rays at mutual 120 degrees, chi = -v1.
    trio = MFPRData(
        2,
        [SpherePoint((1, 0)), SpherePoint((0, 1)), SpherePoint((-1, -1))],
        Character([-1, 0]),
    )
    lengths = mfpr_lengths(trio)
    assert lengths == GraphOfGroupsSummary(fl_group=2, fl_stabilizers=1, has_fixed_end=True, cl_character=1)


KINDS = ("zero", "integer", "fractional", "own ray", "antipode")


def _shared_sign_instance(rng, i):
    """Rank 1-4, up to six distinct primitive rays (four in rank 4), and a
    chi of one of KINDS: zero, random integer, random fractional, a positive
    multiple of a complement ray, or a negative one, so that chi's own ray
    or its antipode lies in the complement."""
    k = 1 + i % 4
    pts = _random_sphere_points(rng, k, rng.randrange(1, 5 if k == 4 else 7), forbid_antipodal=False)
    kind = KINDS[i // 4 % len(KINDS)]
    if kind == "zero":
        chi = Character.zero(k)
    elif kind == "integer":
        chi = Character([rng.randrange(-3, 4) for _ in range(k)])
    elif kind == "fractional":
        chi = Character([F(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(k)])
    else:
        scale = rng.choice([1, 2, F(1, 3), F(3, 2)]) * (1 if kind == "own ray" else -1)
        chi = rng.choice(pts).character().scaled(scale)
    return MFPRData(k, pts, chi), kind


def test_mfpr_lengths_equal_the_elimination_oracle_for_0_chi_and_minus_chi():
    # mfpr_lengths checks the complement once and runs the integer core on
    # the primitive vectors of 0, chi and -chi; mfpr_sigma_oracle shares that
    # core, so the lengths are built here from Fourier-Motzkin m-values.
    rng = random.Random(4242)
    kinds = collections.Counter()
    for i in range(240):
        data, kind = _shared_sign_instance(rng, i)
        chi = data.splitting_character
        m_zero = enumeration_m_value(data.complement, Character.zero(data.k))
        m_chi = enumeration_m_value(data.complement, chi)
        m_neg = enumeration_m_value(data.complement, -chi)
        expected = GraphOfGroupsSummary(m_zero, min(m_chi, m_neg, m_zero), True, min(m_chi, m_zero))
        assert mfpr_lengths(data) == expected, (data, kind)
        kinds[kind, data.k, m_chi == INF, m_neg == INF] += 1
    # Every kind in every rank, and finite m(chi) and m(-chi) next to infinite ones.
    assert {(kind, k) for kind, k, _, _ in kinds} == {(kind, k) for kind in KINDS for k in range(1, 5)}
    assert {(a, b) for _, _, a, b in kinds} == {(False, False), (False, True), (True, False), (True, True)}


def test_a_zero_splitting_character_runs_one_ray_search(monkeypatch):
    # chi = -chi = 0 when the splitting character is zero, so m(chi) and
    # m(-chi) are m(0); a nonzero chi needs all three runs of the integer
    # core, on the primitive vectors of 0, chi and -chi.
    calls = []
    core = sphere._ray_count

    def counted(rays, p):
        calls.append(p)
        return core(rays, p)

    monkeypatch.setattr(sphere, "_ray_count", counted)
    monkeypatch.setattr(treesigma, "_ray_count", counted)
    trio = [SpherePoint((1, 0)), SpherePoint((0, 1)), SpherePoint((-1, -1))]
    for chi, searches, lengths in (
        (Character([0, 0]), [None], GraphOfGroupsSummary(2, 2, True, 2)),
        (Character([-2, 0]), [None, (-1, 0), (1, 0)], GraphOfGroupsSummary(2, 1, True, 1)),
    ):
        calls.clear()
        assert mfpr_lengths(MFPRData(2, trio, chi)) == lengths
        assert calls == searches


def test_mfpr_piecewise_values():
    trio = MFPRData(
        2,
        [SpherePoint((1, 0)), SpherePoint((0, 1)), SpherePoint((-1, -1))],
        Character([-1, 0]),
    )
    lengths = mfpr_lengths(trio)
    assert dynamical_sigma(lengths, 0) == WHOLE_BOUNDARY
    assert dynamical_sigma(lengths, 1) == WHOLE_BOUNDARY
    assert dynamical_sigma(lengths, 2) == EMPTY
    with pytest.raises(DegreeOutOfRange):
        dynamical_sigma(lengths, 3)

    empty = mfpr_lengths(MFPRData(2, [], Character([1, 0])))
    for n in range(6):
        assert dynamical_sigma(empty, n) == WHOLE_BOUNDARY


def test_mfpr_matches_fixed_end_formula(rng):
    # The fixed-end formula on the MFPR lengths agrees with the paper's rule
    # evaluated straight from m(0), m(chi) and m(-chi); the singleton range
    # is met on some of the instances.
    singletons = 0
    for _ in range(40):
        data = _random_mfpr_data(rng)
        summary = mfpr_lengths(data)
        assert summary.has_fixed_end
        expected = mfpr_sigma_oracle(data)
        assert [dynamical_sigma(summary, n) for n in range(len(expected))] == expected
        singletons += SINGLETON in expected
    assert singletons > 0


def test_antipodal_pair_detection_and_convention(rng):
    data = MFPRData(1, [SpherePoint((1,)), SpherePoint((-1,))], Character([-1]))
    assert data.has_antipodal_pair()
    for _ in range(30):
        gen = _random_mfpr_data(rng)
        assert not gen.has_antipodal_pair()
        from cat0sigma.sphere import m_value

        assert m_value(gen.complement, Character.zero(gen.k)) >= 2


class CountingRandom(random.Random):
    """A seeded Random that keeps every value randrange returns."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def randrange(self, *args):
        self.draws.append(super().randrange(*args))
        return self.draws[-1]


@pytest.mark.parametrize("forbid_antipodal", [False, True], ids=["antipodes", "no-antipodes"])
def test_sphere_points_stop_drawing_when_the_pool_is_used_up(forbid_antipodal):
    # Rank 1 has two primitive vectors, +1 and -1, one class when antipodes
    # are forbidden.  Asking for six returns the pool, and no draw follows
    # the one that completes it.
    for seed in range(10):
        rng = CountingRandom(seed)
        points = _random_sphere_points(rng, 1, 6, forbid_antipodal=forbid_antipodal)
        if forbid_antipodal:
            assert len(points) == 1 and points[0].primitive in ((1,), (-1,))
        else:
            assert sorted(p.primitive for p in points) == [(-1,), (1,)]
        # Every draw before the last is 0 or repeats a sign; the last one
        # brings the sign that fills the pool.
        *before, last = rng.draws
        signs = {d > 0 for d in before if d}
        assert last and (last > 0) not in signs
        assert len(signs) == (0 if forbid_antipodal else 1)


def test_mfpr_json_round_trip():
    trio = MFPRData(
        2,
        [SpherePoint((1, 0)), SpherePoint((0, 1)), SpherePoint((-1, -1))],
        Character([F(-1), F(0)]),
    )
    data = {"k": 2, "complement": [[1, 0], [0, 1], [-1, -1]], "splitting_character": ["-1", "0"]}
    assert MFPRData.from_json(data) == trio
