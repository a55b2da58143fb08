"""The three tree models: structure, geodesics, ends, exact arithmetic."""

import math
import random
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cat0sigma import spaces as sp
from cat0sigma import trees
from cat0sigma.errors import ParameterOutOfRange
from cat0sigma.trees import (
    DEPTH_BUDGET,
    CayleyTree,
    HnnDown,
    HnnTree,
    HnnUp,
    HnnVertex,
    RegularTree,
    TreePoint,
    WordEnd,
    _shared_part,
    _n_adic,
    _valuation,
    make_word_end,
    tree_from_descriptor,
)
from conftest import stream_points
from cat0sigma.words import cyclic_reduce, invert_word, multiply, reduce_word


def test_descriptor_round_trip():
    for model in [RegularTree(3), CayleyTree(2), HnnTree(4)]:
        again = tree_from_descriptor(model.descriptor())
        assert type(again) is type(model)
        assert again.descriptor() == model.descriptor()


def test_word_reduction():
    assert reduce_word((1, -1)) == ()
    assert reduce_word((1, 2, -2, -1, 1)) == (1,)
    assert invert_word((1, 2)) == (-2, -1)


def test_word_end_canonicalization():
    # a . (ba)^inf == (ab)^inf as infinite words.
    e1 = make_word_end((1,), (2, 1))
    e2 = make_word_end((), (1, 2))
    assert e1 == e2
    # Periods reduce to their primitive root.
    assert make_word_end((), (1, 2, 1, 2)) == make_word_end((), (1, 2))
    assert e1.head(5) == (1, 2, 1, 2, 1)
    with pytest.raises(ValueError):
        make_word_end((1,), ())


def rolled_back_end(prefix, period) -> WordEnd:
    """The reference canonical form: roll the period back one letter per
    turn, copying the prefix each time (quadratic in the rolled length)."""
    period = trees._primitive_period(tuple(period))
    prefix = tuple(prefix)
    while prefix and prefix[-1] == period[-1]:
        prefix = prefix[:-1]
        period = (period[-1],) + period[:-1]
    return WordEnd(prefix, period)


def test_word_end_canonical_form_matches_the_roll_back_loop(rng):
    # Prefixes end in a piece of the period's powers, so the roll-back runs
    # over several periods and stops at a letter that breaks the match.
    for _ in range(3000):
        period = tuple(rng.choice((1, 2, -1)) for _ in range(rng.randrange(1, 5)))
        powers = period * 4
        tail = powers[len(powers) - rng.randrange(0, len(powers) + 1):]
        prefix = tuple(rng.choice((1, 2, -2)) for _ in range(rng.randrange(0, 4))) + tail
        assert make_word_end(prefix, period) == rolled_back_end(prefix, period), (prefix, period)


def peeled(word):
    """The reference cyclic reduction: peel one cancelling end pair per turn."""
    conj, core = [], list(word)
    while len(core) >= 2 and core[0] == -core[-1]:
        conj.append(core[0])
        core = core[1:-1]
    return tuple(conj), tuple(core)


def test_cyclic_reduction_matches_the_peel_loop(rng):
    letters = (1, 2, -1, -2)
    for _ in range(3000):
        c = reduce_word(rng.choice(letters) for _ in range(rng.randrange(0, 6)))
        core = reduce_word(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
        word = reduce_word(c + core + invert_word(c))
        assert cyclic_reduce(word) == peeled(word), word
    # A conjugate of 2 * 10^5 + 1 letters: one pass, not one slice per pair.
    c = (1, 2) * 50_000
    start = time.perf_counter()
    assert cyclic_reduce(c + (1,) + invert_word(c)) == (c, (1,))
    assert time.perf_counter() - start < 1.0


def test_regular_tree_degrees():
    model = RegularTree(3)
    assert len(model.children(())) == 3
    assert len(model.children((0,))) == 2
    assert model.parent(()) is None
    model.check_vertex((2, 1, 0))
    with pytest.raises(ValueError):
        model.check_vertex((0, 2))  # non-root digit out of range


def _word_fault(word, letter_ok, follows_ok):
    """The kind of the first fault of a word ("letter" or "pair"), read
    letter by letter; None for a valid word."""
    for i, letter in enumerate(word):
        if not letter_ok(i, letter):
            return "letter"
        if i and not follows_ok(word[i - 1], letter):
            return "pair"
    return None


@pytest.mark.parametrize("rank", [1, 2, 127, 128, 10**6])
def test_cayley_word_check_matches_the_letter_loop(rank):
    # The letters near the rank, and near a signed byte's edges, are drawn
    # most.
    model = CayleyTree(rank)
    rng = random.Random(rank)
    pool = [0, 1, -1, 2, -2, rank, -rank, rank + 1, -rank - 1, 127, -127, 128, -128, 129, -129]
    for _ in range(600):
        word = tuple(rng.choice(pool) for _ in range(rng.randrange(0, 6)))
        fault = _word_fault(word, lambda i, x: x != 0 and abs(x) <= rank, lambda x, y: x != -y)
        if fault is None:
            model.check_vertex(word)
            continue
        message = "outside rank" if fault == "letter" else "is not reduced"
        with pytest.raises(ValueError, match=message):
            model.check_vertex(word)


@pytest.mark.parametrize("degree", [3, 5, 255, 256, 10**6])
def test_regular_word_check_matches_the_digit_loop(degree):
    model = RegularTree(degree)
    rng = random.Random(degree)
    pool = [0, 1, -1, degree - 2, degree - 1, degree, 255, 256]
    for _ in range(600):
        word = tuple(rng.choice(pool) for _ in range(rng.randrange(0, 6)))
        fault = _word_fault(word, lambda i, x: 0 <= x < (degree if i == 0 else degree - 1), lambda x, y: True)
        if fault is None:
            model.check_vertex(word)
            continue
        with pytest.raises(ValueError, match="out of range"):
            model.check_vertex(word)


def test_vertex_checks_reject_with_their_messages():
    cayley = CayleyTree(2)
    for word, message in [
        ((1, -1), "word (1, -1) is not reduced at position 1"),
        ((2, 1, -1), "word (2, 1, -1) is not reduced at position 2"),
        ((3,), "letter 3 outside rank 2"),
        ((0,), "letter 0 outside rank 2"),
        ((1, 300), "letter 300 outside rank 2"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            cayley.check_vertex(word)
    regular = RegularTree(3)
    for word, message in [
        ((3,), "address digit 3 out of range at position 0"),
        ((2, 2), "address digit 2 out of range at position 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            regular.check_vertex(word)
    # Large ranks and degrees allocate nothing per letter.
    big = CayleyTree(10**9)
    big.check_vertex((10**9, -5, 10**9))
    with pytest.raises(ValueError, match="not reduced"):
        big.check_vertex((7, 10**9, -(10**9)))
    with pytest.raises(ValueError, match="outside rank"):
        big.check_vertex((10**9 + 1,))
    RegularTree(10**9).check_vertex((10**9 - 1, 10**9 - 2))
    # Hand-built HNN vertices: a center outside [0, n^level), a level below
    # float range, a negative exponent, a center not in lowest terms (the
    # ball of (1, 1, 0, 2)) and another index.
    hnn = HnnTree(2)
    hnn.check_vertex(HnnVertex(1, 1, 0, 2))
    # A level above float range: the bit lengths settle the range, which
    # used to end in OverflowError.
    hnn.check_vertex(HnnVertex(10**400, 1, 0, 2))
    for v, message in [
        (HnnVertex(1, 2, 0, 2), "center 2/2^0 outside [0, 2^1)"),
        (HnnVertex(-1, 1, 0, 2), "center 1/2^0 outside [0, 2^-1)"),
        (HnnVertex(-(10**400), 1, 0, 2), f"center 1/2^0 outside [0, 2^-{10**400})"),
        (HnnVertex(3, 1, -1, 2), "center 1/2^-1 outside [0, 2^3)"),
        (HnnVertex(1, 2, 1, 2), "center 2/2^1 is not in lowest terms"),
        (HnnVertex(10**400, 2, 1, 2), "center 2/2^1 is not in lowest terms"),
        (HnnVertex(0, 0, 0, 3), "balls of index 2"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            hnn.check_vertex(v)


def test_hnn_check_vertex_range_agrees_with_the_exact_power():
    # The range check 0 < num < n^k decides by logarithms outside a 1e-6
    # margin; at n^k +- 1, at relative offsets 2^-20 (just outside the
    # margin) and 2^-21 (inside it) and at random values it must agree with
    # the exact comparison.
    rng = random.Random(7)
    for _ in range(3000):
        n = rng.choice([2, 3, 5, 6, 7, 10, rng.randrange(2, 1000)])
        k = rng.choice([rng.randrange(1, 64), rng.randrange(1, 3000)])
        model, power = HnnTree(n), n**k
        for num in (power - 1, power, power + 1, power + (power >> 20), power - (power >> 20),
                    power + (power >> 21), power - (power >> 21), rng.randrange(1, 2 * power)):
            inside = 0 < num < power
            try:
                model.check_vertex(HnnVertex(k, num, 0, n))
                assert inside, (n, k, num)
            except ValueError:
                assert not inside, (n, k, num)


def test_hnn_check_vertex_needs_no_power_at_the_depth_budget():
    # The level-10^6 ball of HNN(3) around 1/2: its center has 1584962 bits
    # against 10^6 log2 3 = 1584962.5, which the bit count cannot settle.
    model = HnnTree(3)
    v = model.vertex_containing(F(1, 2), DEPTH_BUDGET)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        model.check_vertex(v)
        best = min(best, time.perf_counter() - start)
    assert best < 0.01


def test_regular_tree_distance_example():
    # Nodes at addresses "ab" and "ac" are two apart, through "a".
    model = RegularTree(3)
    assert model.distance(TreePoint((0, 0)), TreePoint((0, 1))) == 2
    path = [model.walk_to_point(TreePoint((0, 0)), TreePoint((0, 1)), t) for t in range(3)]
    assert path == [TreePoint((0, 0)), TreePoint((0,)), TreePoint((0, 1))]


def test_cayley_tree_distance_is_word_metric():
    model = CayleyTree(2)
    rng = random.Random(5)
    for _ in range(80):
        u = ()
        for _ in range(rng.randrange(0, 6)):
            u = rng.choice(model.children(u))
        v = ()
        for _ in range(rng.randrange(0, 6)):
            v = rng.choice(model.children(v))
        expected = len(reduce_word(invert_word(u) + v))
        assert model.distance(TreePoint(u), TreePoint(v)) == expected


def test_cayley_left_multiplication_end():
    model = CayleyTree(2)
    end = make_word_end((), (2,))  # (b)^inf
    moved = model.left_multiply_end((1,), end)
    assert moved == make_word_end((1,), (2,))
    # a^-1 . (a)^inf is (a)^inf again.
    same = model.left_multiply_end((-1,), make_word_end((), (1,)))
    assert same == make_word_end((), (1,))


def test_left_multiplication_cancels_at_the_junction_as_reduce_word_does():
    # Both factors are reduced, so only the letters where they meet cancel:
    # none, some, all of v (g longer than v) or all of both (v = g^-1).
    model = CayleyTree(3)
    rng = random.Random(11)

    def word(length):
        w = ()
        for _ in range(length):
            w = rng.choice(model.children(w))
        return w

    cases = [((), ()), ((1, 2), ()), ((), (3, -1)), ((1, 2, 3), (-3, -2, -1)), ((1, 2, 3), (-3, -2)), ((1, -2), (2, -1, 3))]
    for _ in range(400):
        g, v = word(rng.randrange(0, 8)), word(rng.randrange(0, 8))
        cases += [(g, v), (g, invert_word(g)), (g + v, invert_word(v)), (g, invert_word(g[rng.randrange(len(g) + 1) :]) + v)]
    for g, v in cases:
        v = reduce_word(v)
        assert multiply(g, v) == reduce_word(g + v), (g, v)
        end = make_word_end(v, word(rng.randrange(1, 4)))
        head = end.prefix + end.period * (len(g) // len(end.period) + 2)
        if reduce_word(head) == head:  # a reduced infinite word, as check_boundary passes
            assert model.left_multiply_end(g, end) == make_word_end(reduce_word(g + head), end.period), (g, end)


def n_valuation(x, n):
    """Largest h such that x / n^h is n-adically integral, +inf for x = 0,
    from the library's helpers: the valuation of the numerator that _n_adic
    leaves, less its exponent."""
    if x == 0:
        return math.inf
    num, _, exp = _n_adic(x, n)
    return _valuation(num, n) - exp


def test_n_valuation():
    assert n_valuation(F(12), 2) == 2
    assert n_valuation(F(3, 4), 2) == -2
    assert n_valuation(F(0), 5) == float("inf")
    assert n_valuation(F(1, 5), 2) == 0  # denominator coprime to 2 is a unit
    assert n_valuation(F(18), 6) == 1
    assert n_valuation(F(1, 2), 6) == -1


def test_hnn_vertex_structure():
    model = HnnTree(2)
    base = model.base_vertex()
    kids = model.children(base)
    assert kids == [model.vertex(1, F(0)), model.vertex(1, F(1))]
    assert model.parent(kids[1]) == base
    assert model.parent(base) == model.vertex(-1, F(0))
    # Distance between the two grandchildren below different children.
    a = model.vertex(2, F(1))   # digits 1,0 below base
    b = model.vertex(2, F(2))   # digits 0,1
    assert model.distance(TreePoint(a), TreePoint(b)) == 4


def test_hnn_ray_vertices_and_containment():
    model = HnnTree(2)
    base = model.base_vertex()
    assert model.ray_vertex(base, HnnUp(), 1) == model.vertex(-1, F(0))
    down = HnnDown(F(5))
    # 5 = 101 in binary: digits 1, 0, 1 descending from the base ball.
    steps = [model.ray_vertex(base, down, k) for k in range(4)]
    assert steps == [base, model.vertex(1, F(1)), model.vertex(2, F(1)), model.vertex(3, F(5))]
    # From a ball that misses 5, the ray climbs to the base, then descends.
    off = model.vertex(2, F(2))
    assert [model.ray_vertex(off, down, k) for k in range(5)] == [off, model.vertex(1, F(0)), base] + steps[1:3]
    assert model.vertex_containing(F(5), 3) == model.vertex(3, F(5))
    assert model.vertex_containing(F(1, 3), 0) == model.vertex(0, F(0))
    # The ball containing 1/3 at level 2 has the 2-adic expansion of 1/3.
    v = model.vertex_containing(F(1, 3), 2)
    assert model._valuation_from(v, F(1, 3)) >= 2


def test_hnn_affine_action_is_isometric():
    model = HnnTree(3)
    rng = random.Random(11)
    verts = [model.vertex_containing(F(rng.randrange(-20, 20), rng.choice([1, 3, 9])), rng.randrange(-2, 4)) for _ in range(12)]
    shift, add = 2, F(5, 3)
    for u in verts:
        for v in verts:
            gu = model.affine_vertex(shift, add, u)
            gv = model.affine_vertex(shift, add, v)
            assert model.distance(TreePoint(gu), TreePoint(gv)) == model.distance(TreePoint(u), TreePoint(v))


def test_point_distance_same_edge_and_across():
    model = CayleyTree(2)
    p = TreePoint((1,), F(1, 4))
    q = TreePoint((1,), F(3, 4))
    assert model.distance(p, q) == F(1, 2)
    r = TreePoint((2,), F(1, 2))
    # p is 3/4 deep on the a-edge; r is 1/2 deep on the b-edge.
    assert model.distance(p, r) == F(3, 4) + F(1, 2)


def test_point_distance_axioms_seeded(rng):
    model = RegularTree(3)

    def random_point():
        v = ()
        for _ in range(rng.randrange(0, 5)):
            v = rng.choice(model.children(v))
        up = rng.choice([F(0), F(1, 2), F(1, 3)])
        if v == ():
            up = F(0)
        return TreePoint(v, up)

    for _ in range(120):
        p, q, r = random_point(), random_point(), random_point()
        dpq = model.distance(p, q)
        assert dpq == model.distance(q, p)
        assert dpq >= 0
        assert (dpq == 0) == (p == q)
        assert dpq <= model.distance(p, r) + model.distance(r, q)


def test_walk_to_point_recovers_distances(rng):
    model = CayleyTree(2)

    def random_point():
        v = ()
        for _ in range(rng.randrange(0, 5)):
            v = rng.choice(model.children(v))
        up = rng.choice([F(0), F(1, 2), F(2, 3)])
        if v == ():
            up = F(0)
        return TreePoint(v, up)

    for _ in range(60):
        p, q = random_point(), random_point()
        total = model.distance(p, q)
        if total == 0:
            continue
        for frac in [F(0), F(1, 3), F(1, 2), F(7, 8), F(1)]:
            t = frac * total
            mid = model.walk_to_point(p, q, t)
            assert model.distance(p, mid) == t
            assert model.distance(mid, q) == total - t


def test_ray_point_at_is_unit_speed(rng):
    for model in [CayleyTree(2), RegularTree(3), HnnTree(2)]:
        base = TreePoint(model.base_vertex())
        if isinstance(model, HnnTree):
            ends = [HnnUp(), HnnDown(F(1, 3)), HnnDown(F(7))]
        else:
            ends = [make_word_end((), (1,)) if isinstance(model, CayleyTree) else make_word_end((), (0,))]
        for end in ends:
            prev = base
            for t in [F(1, 2), F(1), F(5, 2), F(4)]:
                pos = model.ray_point_at(base, end, t)
                assert model.distance(base, pos) == t
            # From an offset base as well.
            off = model.ray_point_at(base, end, F(1, 2))
            pos = model.ray_point_at(off, end, F(2))
            assert model.distance(off, pos) == F(2)


def _bfs_distances(model, u, radius):
    dist, frontier = {u: 0}, [u]
    for d in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for w in model.neighbors(x):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def _reference_distance(model, p, q, bfs):
    """The least distance over the (at most) four ways out of the two edges
    that hold p and q, with vertex distances from a breadth-first search."""
    if p.vertex == q.vertex:
        return abs(p.up - q.up)

    def exits(x):
        out = [(x.vertex, x.up)]
        if x.up:
            out.append((model.parent(x.vertex), 1 - x.up))
        return out

    def vertex_distance(u, v):
        if u not in bfs:
            bfs[u] = _bfs_distances(model, u, 6)
        return bfs[u][v]

    return min(pc + vertex_distance(pv, qv) + qc for pv, pc in exits(p) for qv, qc in exits(q))


def _reference_points(model, rng):
    """Points within three edges of the base: a shared edge, ancestor and
    descendant pairs with offsets on both ends, the root (or, on an HNN
    tree, the base with an offset), and a seeded sample."""
    base = model.base_vertex()
    c, c2 = model.children(base)[:2]
    g = model.children(c)[-1]
    gg = model.children(g)[0]
    pts = [
        TreePoint(c, F(1, 4)),
        TreePoint(c, F(3, 4)),
        TreePoint(c),
        TreePoint(c2, F(1, 2)),
        TreePoint(g, F(1, 3)),
        TreePoint(gg, F(2, 3)),
        TreePoint(gg),
        TreePoint(base),
    ]
    if model.parent(base) is not None:
        pts.append(TreePoint(base, F(1, 2)))
    for _ in range(12):
        v = base
        for _ in range(rng.randrange(0, 3)):
            v = rng.choice(model.neighbors(v))
        up = rng.choice([F(0), F(1, 2), F(1, 3), F(2, 3)])
        pts.append(TreePoint(v, up if model.parent(v) is not None else F(0)))
    return pts


@pytest.mark.parametrize(
    "model", [CayleyTree(2), RegularTree(3), HnnTree(2), HnnTree(3)], ids=["cayley2", "regular3", "hnn2", "hnn3"]
)
def test_point_distance_and_walk_match_breadth_first_reference(model, rng):
    pts = _reference_points(model, rng)
    bfs = {}
    for p in pts:
        for q in pts:
            total = _reference_distance(model, p, q, bfs)
            assert model.distance(p, q) == total, (p, q)
            for frac in [F(0), F(1, 3), F(1, 2), F(1)]:
                mid = model.walk_to_point(p, q, frac * total)
                model.check_vertex(mid.vertex)
                assert mid.up == 0 or model.parent(mid.vertex) is not None
                assert _reference_distance(model, p, mid, bfs) == frac * total, (p, q, frac)
                assert _reference_distance(model, mid, q, bfs) == total - frac * total, (p, q, frac)


def _count_calls(monkeypatch, *targets):
    """Replace each (owner, name) function by a wrapper that counts its
    calls; returns the counts by name."""
    calls = {name: 0 for _, name in targets}
    for owner, name in targets:
        orig = getattr(owner, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _deep_point(model, end, L):
    """A point whose geodesic joins the ray from the base L edges out, and
    five edges off it (on the HNN tree toward the up end, five levels below
    the level -L ancestor of the base; toward a down end x, five levels
    below the level-L ball around x, in a child ball that misses x)."""
    if isinstance(model, CayleyTree):
        return TreePoint((1,) * L + (2,) * 5)
    if isinstance(end, HnnUp):
        return TreePoint(model.vertex(5 - L, F(1, 2**L)))
    ball = model.vertex_containing(end.value, L)
    off = next(c for c in model.children(ball) if model._valuation_from(c, end.value) < c.level)
    return TreePoint(model.canonical(L + 5, off.num, off.exp))


@pytest.mark.parametrize(
    "model, end",
    [
        (CayleyTree(2), make_word_end((), (1,))),
        (HnnTree(2), HnnUp()),
        (HnnTree(2), HnnDown(F(1, 3))),
        (HnnTree(3), HnnDown(F(1, 5))),
    ],
    ids=["cayley", "hnn", "hnn2-down", "hnn3-down"],
)
def test_busemann_value_reads_two_heights_and_no_ray_vertex(model, end, monkeypatch):
    # One value is the difference of two horofunction heights, at any merge
    # distance up to the depth budget (the Cayley word has length L + 5, the
    # down-end points lie at level L + 5).  The ray reads its base's height
    # once, when it is built, and each value reads its point's.  The timed
    # value includes the check of its point, as on the command line.
    calls = _count_calls(monkeypatch, (model, "ray_vertex"), (model, "height"))
    for L in (200, 10**5, DEPTH_BUDGET - 5):
        b = _deep_point(model, end, L)
        calls.update(ray_vertex=0, height=0)
        start = time.perf_counter()
        ray = sp.ray_from(model, model.origin(), end)
        assert calls == {"ray_vertex": 0, "height": 1}
        assert ray.busemann(model.check_point(b)) == L - 5
        assert time.perf_counter() - start < 2.0
        assert calls == {"ray_vertex": 0, "height": 2}
        assert ray.busemann(b) == L - 5
        assert calls == {"ray_vertex": 0, "height": 3}


@pytest.mark.parametrize(
    "model", [CayleyTree(2), RegularTree(3), HnnTree(2), HnnTree(3)], ids=["cayley2", "regular3", "hnn2", "hnn3"]
)
def test_busemann_and_its_limit_audit_share_no_model_method(model, monkeypatch, rng):
    # The closed form reads heights only, one per ray built and one per
    # value; the audit reads ray points and distances only, so each checks
    # the other.
    base = TreePoint(model.children(model.base_vertex())[1], F(1, 3))
    points = stream_points(model, base, 12, seed=4)
    ends = model.probe_ends(model.origin(), None) + [model.sample_end(rng) for _ in range(3)]
    geodesic = _count_calls(
        monkeypatch, (model, "meet"), (model, "ray_vertex"), (model, "ray_point_at"), (model, "distance")
    )
    heights = _count_calls(monkeypatch, (model, "height"), (model, "point_height"))
    rays = [sp.ray_from(model, base, end) for end in ends]
    values = [ray.busemann(b) for ray in rays for b in points]
    assert geodesic == {"meet": 0, "ray_vertex": 0, "ray_point_at": 0, "distance": 0}
    assert heights == {"height": len(rays) + len(values), "point_height": len(rays) + len(values)}
    heights.update(height=0, point_height=0)
    limits = [ray.limit_audit(b, [0, 1, 5, 12])[-1][1] for ray in rays for b in points]
    assert heights == {"height": 0, "point_height": 0}
    assert geodesic["ray_point_at"] > 0 and geodesic["distance"] > 0
    assert limits == values


def test_depth_budget_bounds_parsed_depths_and_ray_parameters():
    cayley, hnn = CayleyTree(2), HnnTree(3)
    # test_cli.py's malformed inputs cover a letter string and a negative level.
    for space, data in [
        (cayley, {"vertex": [1] * (DEPTH_BUDGET + 1)}),
        (hnn, {"vertex": {"level": DEPTH_BUDGET + 1, "center": 0}}),
    ]:
        with pytest.raises(ParameterOutOfRange, match="depth budget"):
            space.parse_point(data)
    with pytest.raises(ParameterOutOfRange, match="depth budget"):
        cayley.parse_boundary({"prefix": [2] * (DEPTH_BUDGET + 1), "period": [1]})
    for space, end in [(cayley, make_word_end((), (1,))), (hnn, HnnDown(F(1, 2)))]:
        ray = sp.ray_from(space, space.origin(), end)
        assert space.distance(space.origin(), ray.point_at(DEPTH_BUDGET)) == DEPTH_BUDGET
        with pytest.raises(ParameterOutOfRange, match="depth budget"):
            ray.point_at(DEPTH_BUDGET + F(1, 2))
    # Levels at the budget parse, and lie twice the budget apart.
    low, high = (hnn.parse_point({"vertex": {"level": s * DEPTH_BUDGET, "center": 0}}) for s in (-1, 1))
    segment = sp.ray_from(hnn, low, high)
    assert segment.point_at(7) == TreePoint(hnn.vertex(7 - DEPTH_BUDGET, F(0)))
    with pytest.raises(ParameterOutOfRange, match="depth budget"):
        segment.point_at(DEPTH_BUDGET + 1)


def test_tree_point_validation():
    with pytest.raises(ValueError):
        TreePoint((), F(3, 2))
    model = HnnTree(2)
    with pytest.raises(ValueError):
        model.vertex(0, F(1, 3))  # center not 2-adic


def test_hnn_composite_index():
    # Index 6: the coefficient ring Z_6 = Z_2 x Z_3, so denominators can
    # share only part of the index.
    model = HnnTree(6)
    assert n_valuation(F(18), 6) == 1
    assert n_valuation(F(1, 2), 6) == -1
    assert n_valuation(F(1, 5), 6) == 0  # unit denominator
    # 1/5 inverts mod every power of 6: 5 * 1037 = 4 * 1296 + 1.
    v = model.vertex_containing(F(1, 5), 4)
    assert v == model.vertex(4, F(1037))
    for level in [-2, 0, 1, 3, 4]:
        w = model.vertex_containing(F(1, 5), level)
        model.check_vertex(w)
        assert model._valuation_from(w, F(1, 5)) >= level
    # Mixed denominator 1/10 = (1/2) * (1/5): one step below level -1.
    assert n_valuation(F(1, 10), 6) == -1


# ---------------------------------------------------------------------------
# Oracles: the parent-by-parent climb, the one-step ray rule, the
# one-factor-per-pass n-adic loops and the ray-point Busemann evaluation
# that the closed forms replaced.


def _prime_factors(n):
    out, d, m = [], 2, n
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _reference_shared_part(den, n):
    g = 1
    for p in _prime_factors(n):
        while den % p == 0:
            den //= p
            g *= p
    return g


def _reference_n_valuation(x, n):
    if x == 0:
        return float("inf")
    w = F(x.numerator, _reference_shared_part(x.denominator, n))
    h = 0
    if w.denominator == 1:
        v = abs(w.numerator)
        while v % n == 0:
            v //= n
            h += 1
        return h
    while w.denominator != 1:
        w *= n
        h -= 1
    return h


def _climb_meet(model, u, v):
    """Climb from u and v toward the parent until the climbs join."""
    du, dv = model.level(u), model.level(v)
    i = j = 0
    while du - i > dv:
        u = model.parent(u)
        i += 1
    while dv - j > du:
        v = model.parent(v)
        j += 1
    while u != v:
        u, v = model.parent(u), model.parent(v)
        i += 1
        j += 1
    return u, i, j


def _end_step(model, v, end):
    """The neighbor of v on the ray to the end: down when v's ball holds the
    end's value (its word is a prefix of the end), up otherwise."""
    if isinstance(model, HnnTree):
        n = model.index
        center = F(v.num, n**v.exp)
        if isinstance(end, HnnUp) or _reference_n_valuation(end.value - center, n) < v.level:
            return model.parent(v)
        t = (end.value - center) / F(n) ** v.level
        digit = (t.numerator * pow(t.denominator, -1, n)) % n
        return model.vertex(v.level + 1, center + digit * F(n) ** v.level)
    if end.head(len(v)) == v:
        return end.head(len(v) + 1)
    return v[:-1]


def test_n_adic_helpers_match_the_one_factor_loops():
    rng = random.Random(23)
    for _ in range(10**4):
        n = rng.randrange(2, 13)
        den = rng.choice([1, 2, 3, 5, 6, 7, 10, 12, n]) ** rng.randrange(0, 7) * rng.randrange(1, 60)
        num = rng.choice([1, n, n**3, rng.randrange(1, 50)]) ** rng.randrange(0, 5) * rng.randrange(-999, 1000)
        assert _shared_part(den, n) == _reference_shared_part(den, n), (den, n)
        x = F(num, den)
        assert n_valuation(x, n) == _reference_n_valuation(x, n), (x, n)


class _FractionHnn:
    """The HNN ball formulas on (level, Fraction center) pairs, with the
    one-factor valuation loop: the reference for the integer model."""

    def __init__(self, n):
        self.n = n

    def canonical(self, level, center):
        return level, center % F(self.n) ** level

    def ancestor(self, v, k):
        return self.canonical(v[0] - k, v[1])

    def children(self, v):
        step = F(self.n) ** v[0]
        return [(v[0] + 1, v[1] + d * step) for d in range(self.n)]

    def meet(self, u, v):
        top = min(u[0], v[0], _reference_n_valuation(u[1] - v[1], self.n))
        return self.canonical(top, u[1]), u[0] - top, v[0] - top

    def _top(self, v, end):
        return min(v[0], _reference_n_valuation(end.value - v[1], self.n))

    def height(self, v, end):
        if isinstance(end, HnnUp):
            return v[0], True
        top = self._top(v, end)
        return v[0] - 2 * top, top < v[0]

    def ray_vertex(self, v, end, k):
        climb = k if isinstance(end, HnnUp) else max(0, v[0] - self._top(v, end))
        if k <= climb:
            return self.ancestor(v, k)
        return self.vertex_containing(end.value, v[0] - climb + (k - climb))

    def vertex_containing(self, x, level):
        n = self.n
        j = max(0, -_reference_n_valuation(x, n))
        if level + j <= 0:
            return self.canonical(level, F(0))
        y, modulus = x * n**j, n ** (level + j)
        return self.canonical(level, F(y.numerator * pow(y.denominator, -1, modulus) % modulus, n**j))

    def affine_vertex(self, shift, add, v):
        return self.canonical(v[0] + shift, F(self.n) ** shift * v[1] + add)


@st.composite
def _hnn_cases(draw):
    n = draw(st.sampled_from([2, 3, 6]))
    levels = st.integers(-8, 8)

    def ball():
        # A center in [0, n^level) over a power of n.
        level, exp = draw(levels), draw(st.integers(0, 4))
        top = n ** (level + exp) - 1 if level + exp > 0 else 0
        return level, F(draw(st.integers(0, top)), n**exp)

    fixed = [F(1, 3), F(1, 2), F(1, 4), F(-7, 5)]
    drawn = F(draw(st.integers(-40, 40)), draw(st.sampled_from([1, 2, 3, 4, 5, 9, 12, 36])))
    ends = [HnnUp()] + [HnnDown(x) for x in fixed + [drawn]]
    add = F(draw(st.integers(-40, 40)), n ** draw(st.integers(0, 3)))
    return n, ball(), ball(), ends, draw(levels), draw(st.integers(-3, 3)), add


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_hnn_cases())
def test_integer_hnn_model_matches_the_fraction_formulas(case):
    n, (lu, cu), (lv, cv), ends, level, shift, add = case
    model, ref = HnnTree(n), _FractionHnn(n)

    def pair(w):
        # Each vertex is canonical and in lowest terms.
        model.check_vertex(w)
        assert w.exp == 0 or w.num % n, w
        return w.level, F(w.num, n**w.exp)

    u, v = model.vertex(lu, cu), model.vertex(lv, cv)
    assert pair(u) == (lu, cu) and pair(v) == (lv, cv)
    assert pair(model.canonical(level, u.num, u.exp)) == ref.canonical(level, cu)
    assert [pair(w) for w in model.children(u)] == ref.children((lu, cu))
    for k in range(4):
        assert pair(model.ancestor(u, k)) == ref.ancestor((lu, cu), k)
    w, i, j = model.meet(u, v)
    assert (pair(w), i, j) == ref.meet((lu, cu), (lv, cv))
    assert pair(model.affine_vertex(shift, add, u)) == ref.affine_vertex(shift, add, (lu, cu))
    for end in ends:
        assert model.height(u, end) == ref.height((lu, cu), end), end
        for k in (0, 1, 3, 9):
            assert pair(model.ray_vertex(u, end, k)) == ref.ray_vertex((lu, cu), end, k), (end, k)
        if isinstance(end, HnnDown):
            assert pair(model.vertex_containing(end.value, level)) == ref.vertex_containing(end.value, level)


def _listed_neighbors(model, v):
    """The neighbours of v written out as a list, the children in order and
    then the parent, from the definitions: reduced words one letter longer
    or shorter, digit words, and the HNN balls of the fraction reference."""
    if isinstance(model, HnnTree):
        ref = _FractionHnn(model.index)
        ball = (v.level, F(v.num, model.index**v.exp))
        return [model.vertex(*w) for w in ref.children(ball) + [ref.ancestor(ball, 1)]]
    if isinstance(model, CayleyTree):
        letters = [*range(1, model.rank + 1), *range(-1, -model.rank - 1, -1)]
        kids = [v + (x,) for x in letters if not v or x != -v[-1]]
    else:
        kids = [v + (i,) for i in range(model.degree if not v else model.degree - 1)]
    return kids + [v[:-1]] if v else kids


@pytest.mark.parametrize(
    "model", [CayleyTree(2), RegularTree(3), HnnTree(2), HnnTree(3)], ids=["cayley2", "regular3", "hnn2", "hnn3"]
)
def test_one_neighbour_draw_matches_the_draw_from_the_list(model):
    # A walk step draws the index of one neighbour and builds that one
    # alone: the same vertices as rng.choice over the listed neighbours, and
    # the generator left in the same state.  The HNN walks start below, at
    # and above level 0, so they cross negative levels.
    starts = [model.base_vertex()]
    if isinstance(model, HnnTree):
        starts += [model.vertex(-4, F(0)), model.vertex(3, F(5, model.index))]
    for seed in range(12):
        for start in starts:
            by_list, by_index = random.Random(seed), random.Random(seed)
            v = w = start
            for _ in range(80):
                v = by_list.choice(_listed_neighbors(model, v))
                w = model.neighbor(w, by_index.choice(range(model.degree)))
                assert v == w
            assert by_list.getstate() == by_index.getstate()
            assert model.neighbors(v) == _listed_neighbors(model, v)
            # sample_point walks the same way, then draws an edge offset.
            by_list, by_index = random.Random(seed), random.Random(seed)
            v = start
            for _ in range(by_list.randrange(0, 3)):
                v = by_list.choice(_listed_neighbors(model, v))
            up = by_list.choice(trees._SAMPLE_OFFSETS)
            expected = TreePoint(v, up if model.parent(v) is not None else 0)
            assert model.sample_point(TreePoint(start), 3.0, by_index) == expected
            assert by_list.getstate() == by_index.getstate()


def test_valuation_of_large_powers_from_the_bottom_and_the_top():
    # Long climbs are also tried from the top; the cofactor decides whether
    # that probe lands (small) or the climb finishes (large).
    rng = random.Random(31)
    top = 2**trees._PROBE_AFTER - 1
    for n in (3, 5, 6, 10, 2, 8):
        for v in (0, 1, 254, top - 1, top, top + 1, top + 30):
            for cofactor in (1, n - 1, n + 1, rng.randrange(1, n**3), n ** 70 + 1, rng.randrange(n**200, n**201)):
                if cofactor % n == 0:
                    cofactor += 1
                x = F(cofactor * n**v * rng.choice([1, -1]), rng.choice([1, 7, 11]))
                assert n_valuation(x, n) == _reference_n_valuation(x, n) == v, (n, v, cofactor)


@pytest.mark.parametrize(
    "model",
    [CayleyTree(2), RegularTree(3), HnnTree(2), HnnTree(3), HnnTree(6)],
    ids=["cayley2", "regular3", "hnn2", "hnn3", "hnn6"],
)
def test_meet_and_ray_vertex_match_the_climb_and_the_step_rule(model):
    rng = random.Random(str(model.descriptor()))
    base = model.base_vertex()
    ends = model.probe_ends(model.origin(), None) + [model.sample_end(rng) for _ in range(4)]
    if isinstance(model, HnnTree):
        ends += [HnnDown(F(1, 3)), HnnDown(F(-7, 5)), HnnDown(F(5, 4))]
    for end in ends:
        ray = [base]
        for _ in range(6):
            ray.append(_end_step(model, ray[-1], end))
        # Vertices on the ray, one step off it, and seeded walks from the base.
        verts = ray + [c for w in ray for c in model.children(w)[:2] if c not in ray]
        for _ in range(8):
            v = base
            for _ in range(rng.randrange(0, 6)):
                v = rng.choice(model.neighbors(v))
            verts.append(v)
        for v in verts:
            _, i, j = _climb_meet(model, base, v)
            step = v
            for k in range(2 * (i + j) + 4):
                assert model.ray_vertex(v, end, k) == step, (v, end, k)
                step = _end_step(model, step, end)
            for u in verts:
                assert model.meet(u, v) == _climb_meet(model, u, v), (u, v)


def _ray_point_busemann(model, base, end, b):
    """T - d(b, ray(T)) at T = d(base, b): the geodesic from b has joined
    the ray by then, and t - d(b, ray(t)) is constant from there on."""
    T = model.distance(base, b)
    return T - model.distance(b, model.ray_point_at(base, end, T))


@pytest.mark.parametrize(
    "model",
    [CayleyTree(2), RegularTree(3), HnnTree(2), HnnTree(3), HnnTree(6)],
    ids=["cayley2", "regular3", "hnn2", "hnn3", "hnn6"],
)
def test_busemann_heights_match_the_ray_point_evaluation(model):
    rng = random.Random(str(("heights", model.descriptor())))
    root = model.base_vertex()
    ends = model.probe_ends(model.origin(), None) + [model.sample_end(rng) for _ in range(6)]
    if isinstance(model, HnnTree):
        ends += [HnnDown(F(1, 3)), HnnDown(F(-7, 5)), HnnDown(F(5, 4)), HnnDown(F(1, model.index**3))]

    def point(end):
        # A vertex on the ray from the root, or a seeded walk, with an offset.
        if rng.random() < 0.4:
            v = model.ray_vertex(root, end, rng.randrange(1, 5))
        else:
            v = root
            for _ in range(rng.randrange(0, 7)):
                v = rng.choice(model.neighbors(v))
        up = rng.choice([F(0), F(0), F(1, 2), F(1, 3), F(3, 4)])
        return TreePoint(v, up if model.parent(v) is not None else F(0))

    kinds = {"up": 0, "other": 0, "offset": 0, "crossing": 0}
    for _ in range(2100):
        end = rng.choice(ends)
        base, b = point(end), point(end)
        ray = sp.ray_from(model, base, end)
        assert ray.busemann(b) == _ray_point_busemann(model, base, end, b), (base, end, b)
        kinds["up" if isinstance(end, HnnUp) else "other"] += 1
        kinds["offset"] += bool(base.up and b.up)
        # The ray leaves the base downward, across the base's own edge.
        first = model.ray_vertex(base.vertex, end, 1)
        kinds["crossing"] += bool(base.up) and model.level(first) > model.level(base.vertex)
    assert min(kinds["other"], kinds["offset"], kinds["crossing"]) >= 100, kinds
    assert kinds["up"] >= 100 or not isinstance(model, HnnTree), kinds


def _fraction_distance(model, p, q):
    """d(p, q) over Fractions: the vertices' distance through their meet,
    less each offset whose edge climbs toward the meet and plus the others."""
    pu, qu = F(p.up), F(q.up)
    if p.vertex == q.vertex:
        return abs(pu - qu)
    _, i, j = model.meet(p.vertex, q.vertex)
    return i + j + (-pu if i else pu) + (-qu if j else qu)


def _fraction_height(model, p, end):
    """The horofunction height of a point over Fractions."""
    h, toward = model.height(p.vertex, end)
    return h - F(p.up) if toward else h + F(p.up)


@pytest.mark.parametrize(
    "model", [CayleyTree(2), RegularTree(3), HnnTree(2), HnnTree(3)], ids=["cayley2", "regular3", "hnn2", "hnn3"]
)
def test_tree_values_are_ints_exactly_when_integral(model):
    # Offsets, distances, Busemann values toward ends and points, the
    # defining limit at integral and fractional parameters and parsed
    # scalars each equal their Fraction formula, and each is an int exactly
    # when that formula gives an integer.
    seen = set()
    schedule = [0, 1, F(1, 2), F(3, 2), 4, F(9, 2)]

    def check_limit(ray, b):
        for t, value in ray.limit_audit(b, schedule):
            kind = "limit at an integral t" if F(t).denominator == 1 else "limit at a fractional t"
            check(kind, value, min(F(t), ray.mu if ray.is_degenerate else F(t)) - _fraction_distance(model, b, ray.point_at(t)))

    def check(kind, value, reference):
        assert value == reference, (kind, value, reference)
        assert type(value) is (int if reference.denominator == 1 else F), (kind, value)
        seen.add((kind, type(value)))

    rng = random.Random(str(("exact", model.descriptor())))
    points = stream_points(model, model.origin(), 30, radius=4.0, seed=8)
    for p in points:
        check("offset", p.up, F(p.up))
    ends = model.probe_ends(model.origin(), None) + [model.sample_end(rng) for _ in range(3)]
    for a in points[:8]:
        for b in points:
            check("distance", model.distance(a, b), _fraction_distance(model, a, b))
        for end in ends:
            ray, height = sp.ray_from(model, a, end), _fraction_height(model, a, end)
            for b in points:
                check("busemann to an end", ray.busemann(b), height - _fraction_height(model, b, end))
            for b in points[:6]:
                check_limit(ray, b)
        for e in points[8:16]:
            segment = sp.ray_from(model, a, e)
            check("distance", segment.mu, _fraction_distance(model, a, e))
            for b in points:
                check("busemann to a point", segment.busemann(b), segment.mu - _fraction_distance(model, b, e))
            check_limit(segment, points[0])
    for data in (3, -5, 4.0, "3", "6/2", "-0", "0/7", "1/2", "-4/6", "7/3"):
        check("scalar", model.parse_scalar(data), F(data))
    assert {kind for kind, _ in seen} == {
        "offset", "distance", "busemann to an end", "busemann to a point", "limit at an integral t",
        "limit at a fractional t", "scalar",
    }
    assert all((kind, t) in seen for kind, _ in seen for t in (int, F)), seen
