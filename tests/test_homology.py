"""Integer homology through Smith normal form, cross-checked against a
rational rank oracle and hand-checked complexes."""

import itertools
import math
import random
import time

import pytest

from cat0sigma.homology import (
    HomologyProfile,
    SimplicialComplex,
    homology,
    smith_normal_form,
)
from cat0sigma.raag import SimpleGraph, connectivity_verdict, flag_complex
from oracles import graph_edges, rational_rank

# The six-vertex triangulation of the projective plane (antipodal quotient
# of the icosahedron); its first homology is Z/2.
RP2_TRIANGLES = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def closure(generators) -> set:
    """Every nonempty subset of every generator, as a sorted tuple."""
    return {
        face
        for s in generators
        for r in range(1, len(set(s)) + 1)
        for face in itertools.combinations(sorted(set(s)), r)
    }


def sparse_rows(matrix) -> list[dict]:
    """A dense integer matrix as the sparse {column: entry} rows that the
    Smith form takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def test_smith_normal_form_known_matrices():
    assert smith_normal_form(sparse_rows([[2, 4], [6, 8]])) == [2, 4]
    assert smith_normal_form(sparse_rows([[1, 0], [0, 1]])) == [1, 1]
    assert smith_normal_form(sparse_rows([[0, 0], [0, 0]])) == []
    assert smith_normal_form(sparse_rows([[2, 0], [0, 3]])) == [1, 6]
    assert smith_normal_form(sparse_rows([[6]])) == [6]
    # Divisibility chain on a bigger example.
    factors = smith_normal_form(sparse_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    assert factors == [2, 2, 156]
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


def test_snf_rank_matches_rational_rank_seeded():
    rng = random.Random(13)
    for _ in range(60):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
        assert len(smith_normal_form(sparse_rows(m))) == rational_rank(m)


def test_snf_regression_coefficient_blowup():
    # This 7x7 matrix livelocked an earlier clearing strategy through
    # integer blowup; determinant cross-check: |det| = 1482797.
    m = [
        [3, -3, -4, -2, -2, -5, -7],
        [-1, 3, 7, 8, -7, 6, -3],
        [4, 9, -3, 2, 3, -3, -5],
        [5, -4, 9, 1, -7, 7, -7],
        [6, 1, 3, -8, -1, 8, -9],
        [4, -3, 2, 8, -7, 5, 7],
        [-3, 5, -8, 2, -5, -3, -4],
    ]
    factors = smith_normal_form(sparse_rows(m))
    assert factors == [1, 1, 1, 1, 1, 1, 1482797]
    assert abs(_exact_det(m)) == 1482797


def test_snf_stress_divisibility_and_determinant():
    # Larger matrices with wilder entries: the invariant factors stay
    # divisibility-ordered, match the rational rank, and their product
    # divides into the determinant (equal up to sign for full rank).
    import math as _math

    rng = random.Random(99)
    for _ in range(12):
        n = rng.randrange(4, 8)
        m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        factors = smith_normal_form(sparse_rows(m))
        assert len(factors) == rational_rank(m)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        if len(factors) == n:
            det = _exact_det(m)
            prod = _math.prod(factors)
            assert abs(det) == prod


def _exact_det(m):
    from fractions import Fraction

    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return int(det)


def _determinant(m):
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * x * _determinant([row[:j] + row[j + 1:] for row in m[1:]]) for j, x in enumerate(m[0]) if x)


def _determinantal_factors(m):
    """Invariant factors d_k = D_k / D_(k-1), where D_k is the gcd of the
    k x k minors; they stop at the first k with D_k = 0 (the rank)."""
    rows, cols = len(m), len(m[0])
    factors, previous = [], 1
    for k in range(1, min(rows, cols) + 1):
        divisor = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                divisor = math.gcd(divisor, _determinant([[m[r][c] for c in cs] for r in rs]))
        if divisor == 0:
            break
        factors.append(divisor // previous)
        previous = divisor
    return factors


def test_invariant_factors_match_determinantal_divisors():
    # Seeded integer matrices up to 4 x 4 with entries in [-6, 6], in three
    # families: unrestricted; entries of absolute value 2 to 6, so the first
    # pivot is a non-unit cleared by Euclidean steps, and a remainder must
    # replace it whenever the entries' gcd is below their smallest absolute
    # value; and diagonal, where the gcd/lcm pass has work whenever the
    # sorted entries do not divide one another.
    rng = random.Random(2001)
    no_unit = [x for x in range(-6, 7) if abs(x) > 1]
    shapes = [(rng.randrange(1, 5), rng.randrange(1, 5)) for _ in range(300)]
    general, unit_free, diagonal = [], [], []
    for rows, cols in shapes:
        zero_share = rng.random()
        general.append([[0 if rng.random() < zero_share else rng.randrange(-6, 7) for _ in range(cols)]
                        for _ in range(rows)])
        unit_free.append([[rng.choice(no_unit) for _ in range(cols)] for _ in range(rows)])
        entries = [rng.randrange(-6, 7) for _ in range(min(rows, cols))]
        diagonal.append([[entries[i] if i == j else 0 for j in range(cols)] for i in range(rows)])
    for m in general + unit_free + diagonal:
        assert smith_normal_form(sparse_rows(m)) == _determinantal_factors(m), m

    def nonzero(m):
        return sorted(abs(x) for row in m for x in row if x)

    assert sum(math.gcd(*nonzero(m)) < nonzero(m)[0] for m in unit_free) >= 100
    assert sum(any(b % a for a, b in zip(nonzero(m), nonzero(m)[1:])) for m in diagonal) >= 50


def euler_characteristic(K: SimplicialComplex) -> int:
    """The alternating count of faces."""
    return sum((-1) ** d * len(K.faces(d)) for d in range(K.dimension + 1))


def test_complex_face_closure_and_euler():
    K = SimplicialComplex([(0, 1, 2)])
    assert len(K.simplices) == 7
    assert euler_characteristic(K) == 1
    assert K.dimension == 2
    boundary = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    assert euler_characteristic(boundary) == 0


def test_boundary_of_triangle_has_circle_homology():
    K = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    profile = homology(K, K.dimension)
    assert profile.betti_reduced(0) == 0
    assert profile.betti_reduced(1) == 1
    assert profile.torsion_at(1) == ()


def test_two_spheres_and_wedges():
    # Boundary of the tetrahedron: a 2-sphere.
    K = SimplicialComplex([s for s in itertools.combinations(range(4), 3)])
    profile = homology(K, K.dimension)
    assert profile.betti == (1, 0, 1)
    # Disjoint union of two circles: b0 = 2, b1 = 2.
    K2 = SimplicialComplex([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    profile2 = homology(K2, K2.dimension)
    assert profile2.betti[0] == 2 and profile2.betti[1] == 2


def test_projective_plane_torsion():
    K = SimplicialComplex(RP2_TRIANGLES)
    profile = homology(K, K.dimension)
    assert profile.betti_reduced(0) == 0
    assert profile.betti_reduced(1) == 0
    assert profile.torsion_at(1) == (2,)
    assert profile.betti_reduced(2) == 0


def test_flag_triangulation_of_the_projective_plane_has_torsion():
    # The comparability graph of the nonempty faces of the six-vertex RP^2
    # (31 vertices, 90 edges): its flag complex is the barycentric
    # subdivision, so H1 = Z/2 and the rational Betti numbers vanish.
    cells = sorted(closure(RP2_TRIANGLES))
    graph = SimpleGraph(cells, [(a, b) for a, b in itertools.combinations(cells, 2) if set(a) < set(b) or set(b) < set(a)])
    assert (len(graph.vertices), len(graph_edges(graph))) == (31, 90)
    K = flag_complex(graph)
    profile = homology(K, K.dimension)
    assert profile.torsion_at(1) == (2,)
    assert [profile.betti_reduced(d) for d in range(3)] == [0, 0, 0]
    for d in range(K.dimension + 2):
        dense = [[row.get(j, 0) for j in range(len(K.faces(d)))] for row in K.boundary_matrix(d)]
        assert len(smith_normal_form(K.boundary_matrix(d))) == rational_rank(dense)
    verdicts = [connectivity_verdict([K], n) for n in range(4)]
    assert [v.membership for v in verdicts] == ["In", "In", "Out", "Out"]
    assert (verdicts[2].simply_connected, verdicts[2].homology_vanishing) == ("no", "no")


def test_full_simplex_is_acyclic():
    K = SimplicialComplex([tuple(range(6))])
    profile = homology(K, max_degree=5)
    assert profile.reduced_trivial_through(5)


def cross_polytope_complex(m: int) -> SimplicialComplex:
    """Flag complex of the graph on 0..2m-1 missing only the pairs (i, i+m):
    the boundary of the m-dimensional cross-polytope, S^(m-1)."""
    vertices = range(2 * m)
    return flag_complex(SimpleGraph(vertices, [(i, j) for i, j in itertools.combinations(vertices, 2) if j != i + m]))


def test_betti_numbers_match_rational_oracle():
    # Every boundary map's Smith rank (its number of invariant factors)
    # equals its rank over the rationals, and the Betti numbers follow.
    complexes = [
        SimplicialComplex(RP2_TRIANGLES),
        SimplicialComplex([(0, 1), (1, 2), (0, 2), (2, 3)]),
        SimplicialComplex([s for s in itertools.combinations(range(5), 3)]),
    ] + [cross_polytope_complex(m) for m in range(1, 5)]
    for K in complexes:
        degrees = range(K.dimension + 2)
        counts = [len(K.faces(d)) for d in degrees]
        dense = [[[row.get(j, 0) for j in range(counts[d])] for row in K.boundary_matrix(d)] for d in degrees]
        ranks = [rational_rank(m) for m in dense]
        assert [len(smith_normal_form(K.boundary_matrix(d))) for d in degrees] == ranks
        betti = tuple(counts[d] - ranks[d] - ranks[d + 1] + (d == 0) for d in degrees[:-1])
        assert homology(K, K.dimension).betti == betti
    assert [homology(cross_polytope_complex(m), m - 1).betti for m in (1, 4)] == [(2,), (1, 0, 0, 1)]


def test_sparse_smith_form_reaches_large_flag_complexes():
    # The flag complex of the 7-cross-polytope (S^6, 2186 simplices) is
    # 5-connected and that of K12 (4095 simplices) is contractible; with
    # the dense Smith form the verdicts took 9.0 s and 5.6 s.
    for build, n in ((lambda: cross_polytope_complex(7), 6), (lambda: flag_complex(SimpleGraph.complete(12)), 4)):
        start = time.perf_counter()
        assert connectivity_verdict([build()], n).membership == "In"
        assert time.perf_counter() - start < 2.0


def test_euler_characteristic_equals_alternating_betti_sum():
    # Generator lists that repeat a simplex, nest one in another, overlap,
    # list vertices out of order or twice, or hold an empty simplex: the
    # faces of each dimension, the dimension and the simplex set are those
    # of the closure under faces.
    rng = random.Random(8)
    for trial in range(25):
        verts = rng.randrange(3, 7)
        generators = []
        for _ in range(rng.randrange(2, 7)):
            size = rng.randrange(1, 4)
            generators.append(tuple(rng.sample(range(verts), size)))
        generators += [generators[0], generators[-1][:1], generators[1] + generators[1][:1], ()]
        rng.shuffle(generators)
        K = SimplicialComplex(generators)
        faces = closure(generators)
        assert K.dimension == max(map(len, faces)) - 1
        for d in range(-1, K.dimension + 3):
            assert K.faces(d) == sorted(f for f in faces if len(f) == d + 1), (trial, d)
        assert K.simplices == faces
        profile = homology(K, K.dimension)
        chi_from_homology = sum(
            (-1) ** d * profile.betti[d] for d in range(len(profile.betti))
        )
        assert chi_from_homology == euler_characteristic(K)
    empty = SimplicialComplex([(), ()])
    assert (empty.dimension, empty.faces(0), empty.simplices) == (-1, [], frozenset())


def test_faces_are_listed_per_dimension_on_first_use(monkeypatch):
    # A complex lists no face until one is read, lists each dimension once,
    # and answers a dimension outside 0..dim K without storing anything.
    combinations = itertools.combinations
    sizes = []
    monkeypatch.setattr(itertools, "combinations", lambda s, r: sizes.append(r) or combinations(s, r))
    K = SimplicialComplex([tuple(range(8)), (7, 8)])
    assert (K.dimension, sizes) == (7, [])
    assert K.faces(2) == list(combinations(range(8), 3))
    assert K.faces(2) == K.faces(2) and sizes == [3, 3]
    for d in (-1, 8, 10**9):
        assert K.faces(d) == []
    assert sizes == [3, 3]


def test_degrees_above_the_dimension_build_no_boundary_map(monkeypatch):
    # Homology vanishes above dim K: asking for degree N > dim K reads faces
    # only through dim K + 1 and pads the profile with zeros.  One triangle
    # at N = 10^6 took about 1 s when every degree up to N + 1 was built.
    asked = []
    faces = SimplicialComplex.faces
    monkeypatch.setattr(SimplicialComplex, "faces", lambda K, dim: asked.append(dim) or faces(K, dim))
    circle = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    for K, low in ((SimplicialComplex([(0, 1, 2)]), (1, 0, 0)), (circle, (1, 1))):
        for N in range(K.dimension, K.dimension + 4):
            asked.clear()
            profile = homology(K, max_degree=N)
            assert max(asked) <= K.dimension + 1
            assert profile == HomologyProfile(low + (0,) * (N - K.dimension), ((),) * (N + 1))
    empty = homology(SimplicialComplex([]), max_degree=2)
    assert empty == HomologyProfile((0, 0, 0), ((), (), ()))
    start = time.perf_counter()
    profile = homology(SimplicialComplex([(0, 1, 2)]), max_degree=10**6)
    assert time.perf_counter() - start < 0.25
    assert len(profile.betti) == len(profile.torsion) == 10**6 + 1
    assert profile.reduced_trivial_through(10**6)
