"""Graphs, dominated-vertex cores, join factors, flag complexes,
connectivity verdicts and the diagonal-character membership test."""

import itertools
import json
import pathlib
import random
import time

import pytest

from cat0sigma import raag
from cat0sigma.errors import UnknownVertex
from cat0sigma.homology import HomologyProfile, SimplicialComplex, homology, join_homology
from cat0sigma.raag import (
    IN,
    OUT,
    SimpleGraph,
    connectivity_verdict,
    dominated_core,
    edge_path_presentation,
    flag_complex,
    flag_verdict,
    join_factors,
    strong_collapses,
    tietze_trivialize,
)
from test_homology import RP2_TRIANGLES

GOLDEN = pathlib.Path(__file__).parent / "golden"

# A pseudo-projective plane of order 3 (H1 = Z/3): a disk on a 9-cycle
# r1..r9 around the apex 0, whose boundary wraps three times around the
# triangle 10, 11, 12.
MOORE3_TRIANGLES = [
    t
    for i in range(9)
    for t in ((0, 1 + i, 1 + (i + 1) % 9), (1 + i, 10 + i % 3, 10 + (i + 1) % 3), (1 + i, 1 + (i + 1) % 9, 10 + (i + 1) % 3))
]


def brute_force_cliques(graph: SimpleGraph) -> set:
    index = {v: i for i, v in enumerate(graph.vertices)}
    out = set()
    verts = list(graph.vertices)
    for r in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            if all(frozenset(e) in graph.edges for e in itertools.combinations(combo, 2)):
                out.add(tuple(sorted(index[v] for v in combo)))
    return out


def test_graph_validation():
    with pytest.raises(ValueError):
        SimpleGraph([0, 1], [(0, 0)])
    with pytest.raises(UnknownVertex):
        SimpleGraph([0, 1], [(0, 2)])
    with pytest.raises(ValueError):
        SimpleGraph([0, 0], [])
    g = SimpleGraph([0, 1, 2], [(0, 1), (1, 0)])
    assert len(g.edges) == 1


def test_graph_parsers():
    g = SimpleGraph.from_json({"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]})
    assert frozenset((0, 1)) in g.edges and frozenset((0, 2)) not in g.edges
    text = """
    # a path with an isolated vertex
    a b
    b c
    d
    """
    h = SimpleGraph.from_edge_list(text)
    assert set(h.vertices) == {"a", "b", "c", "d"}
    assert h.edges == {frozenset("ab"), frozenset("bc")}


def test_flag_complex_examples():
    full = flag_complex(SimpleGraph.complete(4))
    assert len(full.simplices) == 15  # the full 3-simplex
    square = flag_complex(SimpleGraph.cycle(4))
    assert square.dimension == 1  # no triangles in the 4-cycle
    assert len(square.faces(1)) == 4
    octa = flag_complex(SimpleGraph.octahedron())
    assert len(octa.faces(2)) == 8  # the eight faces of the 2-sphere
    assert octa.dimension == 2


def test_flag_complex_matches_brute_force(rng):
    # Random graphs up to the contract bound of 12 vertices.
    for trial in range(15):
        n = rng.randrange(1, 13)
        p = 0.5 if n <= 8 else 0.3
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        graph = SimpleGraph(range(n), edges)
        K = flag_complex(graph)
        assert set(K.simplices) == brute_force_cliques(graph)
        for e in graph.edges:
            assert tuple(sorted(e)) in K.simplices


def test_verdict_lists_only_the_skeleton_its_degree_reads(monkeypatch):
    # Homology through degree max(n-1, 1) and the edge-path group read no
    # simplex above dimension max(n, 2).  Listing all 2^20 cliques of K20
    # took about 1.9 s per verdict.
    asked = []
    faces = SimplicialComplex.faces
    monkeypatch.setattr(SimplicialComplex, "faces", lambda K, dim: asked.append(dim) or faces(K, dim))
    for n in (1, 2, 3):
        asked.clear()
        start = time.perf_counter()
        assert connectivity_verdict(flag_complex(SimpleGraph.complete(20)), n).membership == IN
        elapsed = time.perf_counter() - start
        assert max(asked) <= max(n, 2), n
        if n < 3:
            assert elapsed < 0.5, n


def verdict_fields(verdict) -> tuple:
    return (verdict.nonempty, verdict.connected, verdict.simply_connected, verdict.homology_vanishing, verdict.membership)


def closed_neighbourhoods(graph: SimpleGraph) -> dict:
    return {v: {v} | {w for w in graph.vertices if frozenset((v, w)) in graph.edges} for v in graph.vertices}


def test_core_verdicts_equal_full_complex_verdicts_on_small_graphs():
    # Every labelled graph on 1-5 vertices, degrees 0-4: deleting dominated
    # vertices keeps the homotopy type, so every verdict field agrees.
    count = 0
    for k in range(1, 6):
        pairs = list(itertools.combinations(range(k), 2))
        for mask in range(1 << len(pairs)):
            graph = SimpleGraph(range(k), [e for i, e in enumerate(pairs) if mask >> i & 1])
            full, core = flag_complex(graph), flag_complex(dominated_core(graph))
            for n in range(5):
                assert verdict_fields(connectivity_verdict(core, n)) == verdict_fields(connectivity_verdict(full, n))
                count += 1
    assert count == 5495


def test_each_deletion_is_a_domination_at_its_step(rng):
    graphs = [SimpleGraph.complete(6), SimpleGraph([0, 1, 2, 3], [(3, 2), (2, 1), (1, 0)])]
    for _ in range(40):
        k = rng.randrange(1, 12)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        graphs.append(SimpleGraph(range(k), [e for e in itertools.combinations(range(k), 2) if rng.random() < p]))
    graphs.append(SimpleGraph.from_edge_list("a b\nb c\nc a\nc d\nd e\nf\n"))
    for graph in graphs:
        left = set(graph.vertices)
        for v, w in strong_collapses(graph):
            assert v != w and {v, w} <= left
            closed = closed_neighbourhoods(SimpleGraph(left, [e for e in graph.edges if e <= left]))
            assert closed[v] <= closed[w]
            left.remove(v)
        core = dominated_core(graph)
        assert core.vertices == tuple(u for u in graph.vertices if u in left)
        assert core.edges == frozenset(e for e in graph.edges if e <= left)
        closed = closed_neighbourhoods(core)
        assert not any(closed[v] <= closed[w] for v in core.vertices for w in core.vertices if v != w)
        assert dominated_core(core) is core


def test_complete_graph_collapses_to_one_vertex():
    for m in range(1, 41):
        core = dominated_core(SimpleGraph.complete(m))
        assert (core.vertices, core.edges) == ((m - 1,), frozenset())


def test_cross_polytopes_and_cycles_are_their_own_cores():
    # No closed neighbourhood contains another: the verdict runs on the
    # whole complex, and finding that out deletes nothing.
    crosses = [
        SimpleGraph(range(2 * m), [(i, j) for i, j in itertools.combinations(range(2 * m), 2) if j != i + m])
        for m in range(1, 7)
    ]
    for graph in crosses + [SimpleGraph.cycle(m) for m in range(4, 11)]:
        assert dominated_core(graph) is graph
        assert list(strong_collapses(graph)) == []


def subdivision_graph(triangles) -> SimpleGraph:
    """The comparability graph of the nonempty faces: its flag complex is the
    barycentric subdivision."""
    cells = sorted({f for t in triangles for k in (1, 2, 3) for f in itertools.combinations(sorted(t), k)})
    return SimpleGraph(cells, [(a, b) for a, b in itertools.combinations(cells, 2) if set(a) < set(b) or set(b) < set(a)])


def graph_join(*graphs) -> SimpleGraph:
    """The join of graphs, the vertex v of the i-th relabelled (i, v)."""
    vertices = [(i, v) for i, g in enumerate(graphs) for v in g.vertices]
    edges = [((i, u), (i, v)) for i, g in enumerate(graphs) for u, v in g.edges]
    edges += [(a, b) for a, b in itertools.combinations(vertices, 2) if a[0] != b[0]]
    return SimpleGraph(vertices, edges)


def test_join_factors_are_the_complement_components():
    octa = join_factors(SimpleGraph.octahedron())
    assert [(f.vertices, f.edges) for f in octa] == [((0, 1), frozenset()), ((2, 3), frozenset()), ((4, 5), frozenset())]
    assert [f.vertices for f in join_factors(SimpleGraph.cycle(4))] == [(0, 2), (1, 3)]
    assert [f.vertices for f in join_factors(SimpleGraph.complete(3))] == [(0,), (1,), (2,)]
    c5 = SimpleGraph.cycle(5)
    assert join_factors(c5) == [c5] and join_factors(c5)[0] is c5
    assert join_factors(SimpleGraph([], [])) == []


def test_join_factors_split_seeded_graphs(rng):
    for _ in range(60):
        k = rng.randrange(1, 12)
        p = rng.choice((0.5, 0.7, 0.85))
        graph = SimpleGraph(range(k), [e for e in itertools.combinations(range(k), 2) if rng.random() < p])
        factors = join_factors(graph)
        # A partition into induced subgraphs, in graph order, each with a
        # connected complement, every pair across two factors adjacent.
        assert sorted(v for f in factors for v in f.vertices) == list(graph.vertices)
        assert [f.vertices[0] for f in factors] == sorted(f.vertices[0] for f in factors)
        for f in factors:
            assert list(f.vertices) == sorted(f.vertices)
            assert f.edges == frozenset(e for e in graph.edges if e <= set(f.vertices))
            assert join_factors(f) == [f]
        for f, g in itertools.combinations(factors, 2):
            assert all(frozenset((u, v)) in graph.edges for u in f.vertices for v in g.vertices)


def test_join_verdicts_equal_whole_complex_verdicts_on_dense_graphs():
    # Dense graphs, half of them G(k, p) and half joins of sparse random
    # graphs, have cores that are joins.  On each such core the verdict from
    # the factors has the fields, the membership and the homology profile of
    # the verdict on the whole flag complex, and simple connectivity is
    # decided without a search.
    rng = random.Random(20261018)

    def random_graph(k, p):
        return SimpleGraph(range(k), [e for e in itertools.combinations(range(k), 2) if rng.random() < p])

    joins, factor_counts = 0, set()
    while joins < 120:
        if joins % 2:
            graph = random_graph(rng.randrange(4, 12), rng.choice((0.6, 0.7, 0.8, 0.9)))
        else:
            graph = graph_join(*(random_graph(rng.randrange(2, 7), rng.choice((0.3, 0.45, 0.6))) for _ in range(rng.choice((2, 3)))))
        core = dominated_core(graph)
        factors = join_factors(core)
        if len(factors) < 2:
            continue
        joins += 1
        factor_counts.add(len(factors))
        K = flag_complex(core)
        for n in range(6):
            whole, joined = connectivity_verdict(K, n), flag_verdict(core, n)
            assert verdict_fields(joined) == verdict_fields(whole), (core, n)
            assert joined.profile == whole.profile, (core, n)
            assert joined.simply_connected != "unknown" and joined.certificate is None
    assert {2, 3, 4} <= factor_counts


def test_join_factors_are_read_through_their_share_of_the_top_degree(monkeypatch):
    # For r factors and top degree t, each factor's profile is computed
    # through degree max(t - r + 1, 0), no further: the octahedron at n = 2
    # (three pairs of points, t = 1) reads degree 0 of each pair, and
    # C5 * C5 at n = 3 (t = 2) degree 1 of each cycle.
    asked = []
    monkeypatch.setattr(raag, "homology", lambda K, max_degree: asked.append(max_degree) or homology(K, max_degree))
    flag_verdict(SimpleGraph.octahedron(), 2)
    assert asked == [0, 0, 0]
    asked.clear()
    flag_verdict(graph_join(SimpleGraph.cycle(5), SimpleGraph.cycle(5)), 3)
    assert asked == [1, 1]


RP2_PROFILE = HomologyProfile((1, 0, 0), ((), (2,), ()))


def test_kunneth_suspension_moves_torsion_up_a_degree():
    rp2 = subdivision_graph(RP2_TRIANGLES)
    suspension = graph_join(rp2, SimpleGraph(["n", "s"], []))
    assert [len(f.vertices) for f in join_factors(dominated_core(suspension))] == [31, 2]
    for n in range(6):
        joined = flag_verdict(suspension, n)
        whole = connectivity_verdict(flag_complex(suspension), n)
        assert verdict_fields(joined) == verdict_fields(whole)
        assert joined.profile == whole.profile
    profile = join_homology([homology(flag_complex(rp2), 2), HomologyProfile((2,), ((),))], 4)
    assert profile == HomologyProfile((1, 0, 0, 0, 0), ((), (), (2,), (), ()))
    assert [flag_verdict(suspension, n).membership for n in range(5)] == [IN, IN, IN, OUT, OUT]


def test_kunneth_join_of_projective_planes_has_a_tor_term():
    # Z/2 (x) Z/2 in degree 1 + 1 + 1 = 3, and Tor(Z/2, Z/2) one degree up.
    assert join_homology([RP2_PROFILE, RP2_PROFILE], 6) == HomologyProfile((1,) + (0,) * 6, ((), (), (), (2,), (2,), (), ()))
    rp2 = subdivision_graph(RP2_TRIANGLES)
    graph = graph_join(rp2, rp2)
    assert (len(graph.vertices), len(graph.edges)) == (62, 1141)
    start = time.perf_counter()
    verdict = flag_verdict(graph, 5)
    assert time.perf_counter() - start < 0.5  # about 3.5 s on the whole flag complex
    assert verdict.profile.torsion[3:] == ((2,), (2,))
    assert (verdict.membership, verdict.simply_connected, verdict.homology_vanishing) == (OUT, "yes", "no")


def test_kunneth_coprime_torsion_vanishes_in_the_join():
    # Z/2 (x) Z/3 = Tor(Z/2, Z/3) = 0: the join of a projective plane with a
    # pseudo-projective plane of order 3 is acyclic, hence contractible.
    moore3 = subdivision_graph(MOORE3_TRIANGLES)
    profile = homology(flag_complex(moore3), 2)
    assert profile == HomologyProfile((1, 0, 0), ((), (3,), ()))
    assert join_homology([RP2_PROFILE, profile], 6).reduced_trivial_through(6)
    graph = graph_join(subdivision_graph(RP2_TRIANGLES), moore3)
    assert [len(f.vertices) for f in join_factors(dominated_core(graph))] == [31, 79]
    assert [flag_verdict(graph, n).membership for n in (2, 4, 6, 10)] == [IN] * 4
    # Orders that share a factor keep it, as invariant factors: Z/4 (x) Z/6
    # and Tor(Z/4, Z/6) are Z/2; Z/6 (x) (Z + Z/10 + Z/15) is Z/6 + Z/2 + Z/3
    # = (Z/6)^2, and Tor(Z/6, Z/10 + Z/15) = Z/2 + Z/3 = Z/6.
    z4, z6 = HomologyProfile((1, 0), ((), (4,))), HomologyProfile((1, 0), ((), (6,)))
    assert join_homology([z4, z6], 5).torsion == ((), (), (), (2,), (2,), ())
    mixed = join_homology([z6, HomologyProfile((1, 1), ((), (10, 15)))], 4)
    assert (mixed.betti, mixed.torsion) == ((1, 0, 0, 0, 0), ((), (), (), (6, 6), (6,)))


def test_bestvina_brady_decides_k40_on_its_core():
    graph = SimpleGraph.complete(40)
    start = time.perf_counter()
    assert flag_verdict(graph, 2).membership == IN
    assert time.perf_counter() - start < 0.05


def test_octahedron_flag_complex_is_a_two_sphere():
    octa = flag_complex(SimpleGraph.octahedron())
    profile = homology(octa, octa.dimension)
    assert profile.betti == (1, 0, 1)
    assert not profile.torsion_at(1)


def test_tietze_trivializes_simple_presentations():
    # <g | g> collapses.
    cert = tietze_trivialize(1, [(1,)])
    assert cert.trivialized
    # <g, h | g h, h> collapses by substitution.
    cert = tietze_trivialize(2, [(1, 2), (2,)])
    assert cert.trivialized
    # <g | > is free of rank one: no move applies.
    cert = tietze_trivialize(1, [])
    assert not cert.trivialized


def test_tietze_passes_a_relator_with_no_lone_generator():
    # <a, b | a^2, ab> = Z/2: a^2, visited first, has no generator that
    # occurs once; ab eliminates a, which leaves <b | b^2>, visited once more.
    cert = tietze_trivialize(2, [(1, 1), (1, 2)])
    assert (cert.trivialized, cert.generators, cert.relators, cert.steps) == (False, 1, 1, 3)


def test_cyclic_reduction_of_a_long_relator_takes_one_pass():
    # A relator c a c^-1 with |c| = 10^5 reduces to a in one pass.
    c = tuple(range(1, 6)) * 20_000
    start = time.perf_counter()
    assert raag._cyclic_reduce(c + (1,) + tuple(-x for x in reversed(c))) == (1,)
    assert time.perf_counter() - start < 1.0


def test_tietze_reduces_only_rewritten_relators(monkeypatch):
    # Each input relator is cyclically reduced once, and after that only a
    # relator rewritten by a substitution is reduced again.
    calls = []
    reduce = raag._cyclic_reduce
    monkeypatch.setattr(raag, "_cyclic_reduce", lambda word: calls.append(word) or reduce(word))
    for graph, relators, expected in ((SimpleGraph.octahedron(), 8, 15), (SimpleGraph.complete(8), 56, 161)):
        calls.clear()
        gens, rels = edge_path_presentation(flag_complex(graph))
        assert len(rels) == relators
        cert = tietze_trivialize(gens, rels)
        assert cert.trivialized and cert.steps > 0
        assert len(calls) == expected


def test_edge_path_group_of_sphere_is_trivial():
    octa = flag_complex(SimpleGraph.octahedron())
    gens, rels = edge_path_presentation(octa)
    assert gens == 12 - 5  # edges minus spanning tree
    cert = tietze_trivialize(gens, rels)
    assert cert.trivialized


def test_connectivity_verdicts():
    full = flag_complex(SimpleGraph.complete(5))
    v = connectivity_verdict(full, 4)
    assert v.all_requirements() == "yes"

    square = flag_complex(SimpleGraph.cycle(4))
    v = connectivity_verdict(square, 2)
    assert v.connected == "yes"
    assert v.simply_connected == "no"
    assert v.all_requirements() == "no"

    octa = flag_complex(SimpleGraph.octahedron())
    assert connectivity_verdict(octa, 2).all_requirements() == "yes"
    assert connectivity_verdict(octa, 3).all_requirements() == "no"

    two_points = flag_complex(SimpleGraph([0, 1], []))
    v = connectivity_verdict(two_points, 1)
    assert v.connected == "no"
    assert connectivity_verdict(two_points, 0).all_requirements() == "yes"


def test_exhausted_tietze_budget_is_an_honest_unknown(monkeypatch):
    # The octahedron is a 2-sphere, so homology vanishes and only the Tietze
    # search can prove simple connectivity; with no budget it cannot.
    monkeypatch.setattr(raag, "TIETZE_BUDGET", 0)
    v = connectivity_verdict(flag_complex(SimpleGraph.octahedron()), 2)
    assert (v.connected, v.simply_connected, v.homology_vanishing) == ("yes", "unknown", "yes")
    assert not v.certificate.trivialized and v.certificate.steps == 0
    assert v.membership == "Unknown"
    # The icosahedron is not a join, so it is decided on its whole complex
    # and the verdict is Unknown too.  The octahedron is a join of three
    # pairs of points, whose fundamental group is free; it needs no search.
    icosahedron = SimpleGraph.from_json(json.loads((GOLDEN / "raag_icosahedron.json").read_text(encoding="utf-8")))
    assert flag_verdict(icosahedron, 2).membership == "Unknown"
    octa = flag_verdict(SimpleGraph.octahedron(), 2)
    assert (octa.simply_connected, octa.membership, octa.certificate) == ("yes", "In", None)


def test_bestvina_brady_fixed_points():
    for m in range(1, 7):
        graph = SimpleGraph.complete(m)
        for n in range(0, 6):
            assert flag_verdict(graph, n).membership == IN
    c4 = SimpleGraph.cycle(4)
    assert flag_verdict(c4, 1).membership == IN
    assert flag_verdict(c4, 2).membership == OUT
    octa = SimpleGraph.octahedron()
    assert flag_verdict(octa, 2).membership == IN
    assert flag_verdict(octa, 3).membership == OUT


def test_bestvina_brady_level_one_is_connectivity(rng):
    for _ in range(20):
        n = rng.randrange(1, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35]
        graph = SimpleGraph(range(n), edges)
        K = flag_complex(graph)
        connected = homology(K, 0).betti_reduced(0) == 0 if K.simplices else False
        assert (flag_verdict(graph, 1).membership == IN) == connected


def test_membership_is_monotone_in_the_degree():
    graphs = [
        SimpleGraph.complete(4),
        SimpleGraph.cycle(4),
        SimpleGraph.cycle(5),
        SimpleGraph.octahedron(),
        SimpleGraph([0, 1, 2], [(0, 1)]),
    ]
    for graph in graphs:
        values = [flag_verdict(graph, n).membership for n in range(0, 5)]
        for low, high in zip(values, values[1:]):
            if high == IN:
                assert low == IN

