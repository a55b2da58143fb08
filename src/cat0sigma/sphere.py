"""The character sphere: rays of additive characters and m-values.

A character of a group G with fixed free-abelianized rank k is stored as an
exact rational vector of length k (coordinates with respect to a chosen
basis of Hom(G, R)).  The character sphere S(G) is the set of nonzero
characters modulo positive scaling; a point of it is stored as the unique
primitive integer vector on the ray, and a finite subset of S(G) as a
tuple of sphere points.  Everything in this module is exact: whether a
positive combination of rays equals chi is an equality, which floating
point cannot decide.

All values are immutable and all operations are pure functions without
hidden state, safe to evaluate concurrently.  The m-function has a checking
entry, ``minimal_ray_count`` (and ``m_value``), which sorts and rank-checks
the rays and normalises chi to its primitive vector, and an integer core
on those vectors, which a caller that holds checked rays, as
``treesigma.mfpr_lengths`` does, runs directly.  The core takes the same
steps for every character chi, in the quotient by chi: a sign test settles
many infinite values without a pivot; otherwise one fraction-free phase-1
simplex either returns a Farkas (or, for the zero character, Gordan)
vector that proves the value infinite, or a basic solution whose support
size bounds the count, and a depth-first search for positive circuits, one
fraction-free reduction per node, then finds the fewest rays below that
bound.  The Fourier-Motzkin decider of ``exactlp`` serves only as an oracle
in ``verify`` and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import DimensionMismatch, ZeroCharacter

RationalLike = Union[int, Fraction, float, str]


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Character:
    """An additive character G -> R in coordinates, as exact rationals."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Iterable[RationalLike]):
        object.__setattr__(self, "coords", tuple(_frac(c) for c in coords))

    @property
    def k(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __neg__(self) -> "Character":
        return Character(-c for c in self.coords)

    def scaled(self, factor: RationalLike) -> "Character":
        return Character(_frac(factor) * c for c in self.coords)

    @staticmethod
    def zero(k: int) -> "Character":
        return Character([Fraction(0)] * k)


@dataclass(frozen=True)
class SpherePoint:
    """A point of S(G): the primitive integer vector on a ray of characters.

    Two sphere points are equal iff their vectors are identical; the sign of
    the vector is the orientation of the ray (antipodes are distinct).
    """

    primitive: tuple[int, ...]

    def __post_init__(self):
        vec = tuple(self.primitive)
        if any(not isinstance(c, int) or isinstance(c, bool) for c in vec):
            raise ValueError(f"sphere points carry integer vectors, got {vec!r}")
        object.__setattr__(self, "primitive", vec)
        g = gcd(*vec)
        if g == 0:
            raise ZeroCharacter("sphere points come from nonzero characters")
        if g != 1:
            raise ValueError(f"vector {vec} is not primitive (gcd {g})")

    @property
    def k(self) -> int:
        return len(self.primitive)

    def character(self) -> Character:
        return Character(self.primitive)


def normalize_ray(chi: Character) -> SpherePoint:
    """The primitive integer vector on the ray of positive multiples of chi.

    Raises ZeroCharacter for chi = 0.
    """
    if chi.is_zero:
        raise ZeroCharacter("the zero character has no ray")
    ints = _integer_row(chi.coords)
    g = gcd(*ints)
    return SpherePoint(tuple(v // g for v in ints))


INF = math.inf


def _pivot(rows: list[list[int]], r: int, c: int, prev: int) -> int:
    """One fraction-free pivot on rows[r][c], in the style of Bareiss:
    every other row becomes (p * row - f * top) // prev, with p the pivot,
    f the row's entry in column c and prev the previous pivot (1 at the
    start); the pivot row stays.  Each division is exact, since every
    entry stays a minor of the input.  Returns p, the next divisor."""
    top = rows[r]
    p = top[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
    return p


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The rational row times the lcm of its denominators."""
    m = lcm(*(c.denominator for c in row))
    return [c.numerator * (m // c.denominator) for c in row]


def _conic_lp(columns: Sequence[Sequence[int]]) -> tuple[Optional[tuple[int, ...]], Optional[tuple[int, ...]]]:
    """Phase 1 of the simplex method with Bland's rule (Bland 1977): is there
    lam >= 0 with sum lam_a a = 0 and sum lam_a w_a = 1 over the integer
    columns (a, w), all of length k?  Returns (support, None), the sorted
    indices of the columns that a basic feasible solution uses with a
    positive coefficient, or (None, y), a primitive integer Farkas vector:
    y . c >= 0 for every column c and y_last < 0.

    Each row gets an artificial column, and the phase-1 objective (their sum)
    one more row.  Every pivot is the fraction-free step of :func:`_pivot`, so
    the tableau holds d times the true one, d > 0 the last pivot; only
    original columns enter the basis.  The last artificial column stands in
    for the right-hand side e_k: they are equal in the constraint rows, and
    pivots keep them so, while in the objective row e_k starts 1 below and
    each pivot scales the gap by p / prev, to d.  The objective row ends as
    d (1 - pi) on the artificial columns, pi . c <= 0 on every column, and
    the optimum pi_last is 0 when the last artificial column reads d.  Then
    every artificial variable is 0, and the rows with a positive right-hand
    side give the support; above 0, -d pi is a Farkas vector.
    """
    k, n = len(columns[0]), len(columns)
    rows = [[a[i] for a in columns] + [int(j == i) for j in range(k)] for i in range(k)]
    obj = [-sum(a) for a in columns] + [0] * k
    rows.append(obj)
    basis = list(range(n, n + k))
    prev = 1
    while True:
        c = next((j for j in range(n) if obj[j] < 0), None)
        if c is None:
            break
        r = None
        for i in range(k):
            a = rows[i][c]
            if a > 0 and (r is None or (rows[i][-1] * rows[r][c], basis[i]) < (rows[r][-1] * a, basis[r])):
                r = i
        prev = _pivot(rows, r, c, prev)
        obj = rows[k]
        basis[r] = c
    if obj[-1] == prev:
        return tuple(sorted(b for b, row in zip(basis, rows) if row[-1] > 0)), None
    y = [obj[n + i] - prev for i in range(k)]
    g = gcd(*y)
    return None, tuple(v // g for v in y)


def _signs_rule_out(vectors: Sequence[tuple[int, ...]], weights: Sequence[int]) -> bool:
    """Whether the signs of the entries alone show that no lam >= 0 has
    sum lam_a a = 0 over the vectors and sum lam_a w_a > 0.  A coordinate
    that is >= 0 on every live vector (or <= 0 on every one) forces lam_a = 0
    on each vector where it is nonzero, and those vectors leave; the answer
    is yes when no live vector is left with a positive weight, as with no
    vectors at all.  It costs no pivot."""
    live = list(zip(vectors, weights))
    pruned = True
    while pruned:
        pruned = False
        for i, coord in enumerate(zip(*[v for v, _ in live])):
            if any(coord) and (min(coord) >= 0 or max(coord) <= 0):
                live, pruned = [(v, w) for v, w in live if not v[i]], True
                break
    return all(w <= 0 for _, w in live)


def _circuit_search(vectors: Sequence[tuple[int, ...]], weights: Sequence[int], best: int) -> int:
    """The size of the smallest positive circuit below best, else best: a
    minimal dependent set of the vectors whose dependency lam, up to sign,
    is >= 0 with sum lam_a w_a > 0.  Independent sets grow depth-first, in
    index order; when a vector joins, the later ones take one fraction-free
    step of :func:`_pivot` on it.  Each row is tagged with the combination
    of the set it stands for, and its own coefficient is the last pivot, so
    a row that reaches zero closes a circuit and its tags are the
    dependency.  Every circuit is met as the dependency of its last vector
    on the others, so no set grows to best - 1 members.
    """
    d = len(vectors[0])

    def grow(rows: list[tuple[int, list[int]]], ws: list[int], prev: int) -> None:
        nonlocal best
        for j, row in rows:
            if not any(row[:d]):
                lam = [prev * t for t in row[d : d + len(ws)]]
                if min(lam, default=0) >= 0 and sum(t * w for t, w in zip(lam, ws)) + prev * prev * weights[j] > 0:
                    best = min(best, 1 + len(lam) - lam.count(0))
        live = [(j, row) for j, row in rows if any(row[:d])]
        for at, (j, top) in enumerate(live):
            if len(ws) >= best - 2:
                return
            top[d + len(ws)] = prev
            later = [top] + [row for _, row in live[at + 1 :]]
            p = _pivot(later, 0, next(c for c, x in enumerate(top) if x), prev)
            grow([(i, row) for (i, _), row in zip(live[at + 1 :], later[1:])], ws + [weights[j]], p)

    grow([(j, list(v) + [0] * (best - 2)) for j, v in enumerate(vectors)], [], 1)
    return best


def _ray_count(rays: Sequence[tuple[int, ...]], p: Optional[tuple[int, ...]]) -> int | float:
    """The minimal ray count on checked input, all in integers: the least
    number of the rays other than p whose strictly positive conic
    combination is a positive multiple of p (for p = None, the zero
    character: is zero), or infinity if there is none.  The rays are
    sorted, distinct and primitive, p is primitive, and all have rank k.

    Every chi takes the same steps, in the quotient by chi.  With p_i the
    first nonzero entry of p, a ray a maps to (p_i a_j - a_i p_j)_{j != i}
    (the kernel is the line of p) with the weight w_a = sign(p_i) a_i; for
    chi = 0 the map is the identity and every weight 1.  Rays with
    sum lam_a a = t p, lam > 0, represent chi exactly when t > 0, that is
    when sum lam_a w_a > 0.

    - :func:`_signs_rule_out` first drops the rays that the signs of the
      image coordinates force to lam_a = 0; when none of positive weight
      is left, the value is infinite and no LP runs.
    - The LP (:func:`_conic_lp`) asks for lam >= 0 with image sum 0 and
      sum lam_a w_a = 1; the support of any feasible lam represents chi.
      No ray, or an infeasible LP, means infinity; a Farkas vector y lifts to
      z = sum_{j != i} y_j (p_i e_j - p_j e_i) + y_last sign(p_i) e_i with
      z . a >= 0 on the rays and z . p < 0 (for chi = 0, y_last < 0 makes
      the first k entries of y pair positively with every ray: Gordan).
    - A basic feasible solution uses s rays, at most k (k + 1 for chi = 0),
      so s bounds the count.  A minimal representation is independent
      (Caratheodory's theorem for cones; a circuit for chi = 0), so its
      image is a positive circuit, and every positive circuit represents
      chi.  :func:`_circuit_search` finds the smallest one below s.
    """
    if p is None:
        vectors, weights = rays, [1] * len(rays)
    else:
        i = next(j for j, c in enumerate(p) if c)
        others = [j for j in range(len(p)) if j != i]
        rays = [a for a in rays if a != p]
        vectors = [tuple([p[i] * a[j] - a[i] * p[j] for j in others]) for a in rays]
        weights = [a[i] if p[i] > 0 else -a[i] for a in rays]
    if _signs_rule_out(vectors, weights):
        return INF
    support = _conic_lp([v + (w,) for v, w in zip(vectors, weights)])[0]
    if support is None:
        return INF
    return _circuit_search(vectors, weights, len(support))


def minimal_ray_count(A: Iterable[SpherePoint], chi: Character) -> int | float:
    """Least number of distinct rays of A - {[chi]} whose strictly positive
    conic combination equals chi, or infinity if there is none.

    The zero character is allowed; its representation must be nontrivial
    (at least one ray, all coefficients > 0).  This is the checking entry:
    it sorts the distinct rays of A, checks their rank against chi's and
    normalises chi to its primitive vector, then hands the integer vectors
    to the core :func:`_ray_count`, which describes the method.
    """
    rays, k = sorted({a.primitive for a in A}), chi.k
    for a in rays:
        if len(a) != k:
            raise DimensionMismatch(f"point rank {len(a)}, character rank {k}")
    return _ray_count(rays, None if chi.is_zero else normalize_ray(chi).primitive)


def m_value(A: Iterable[SpherePoint], chi: Character) -> int | float:
    """sup of the k for which chi is *not* a sum of k characters with rays in
    A - {[chi]}; infinite when no representation exists at all.

    Equals minimal_ray_count - 1 (infinity minus 1 is infinity): a
    representation by r distinct rays gives one with any number >= r of
    summands (split a summand into positive multiples of itself), and none
    with fewer, so exactly the k < r fail.
    """
    return minimal_ray_count(A, chi) - 1
