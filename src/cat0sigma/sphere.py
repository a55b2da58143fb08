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
hidden state, safe to evaluate concurrently.  The m-function takes the same
two steps for every character chi, in the quotient by chi: one
fraction-free phase-1 simplex either returns a Farkas (or, for the zero
character, Gordan) vector that proves the value infinite, or a basic
solution whose support size bounds the count, and a depth-first search
for positive circuits, one fraction-free reduction per node, then finds
the fewest rays below that bound.  The Fourier-Motzkin decider of
``exactlp`` serves only as an oracle in ``verify`` and the tests.
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
        return all(c == 0 for c in self.coords)

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
        if not vec or all(c == 0 for c in vec):
            raise ZeroCharacter("sphere points come from nonzero characters")
        g = 0
        for c in vec:
            g = gcd(g, abs(c))
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
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
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
    return [int(c * m) for c in row]


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
    obj = [-sum(col) for col in zip(*rows)]
    obj[n:] = [0] * k
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


def minimal_ray_count(A: Iterable[SpherePoint], chi: Character) -> int | float:
    """Least number of distinct rays of A - {[chi]} whose strictly positive
    conic combination equals chi, or infinity if there is none.

    The zero character is allowed; its representation must be nontrivial
    (at least one ray, all coefficients > 0).  Every chi takes the same
    steps, in the quotient by chi.  With p the primitive vector of chi and
    p_i its first nonzero entry, a ray a maps to (p_i a_j - a_i p_j)_{j != i}
    (the kernel is the line of p) with the weight w_a = sign(p_i) a_i; for
    chi = 0 the map is the identity and every weight 1.  Rays with
    sum lam_a a = t p, lam > 0, represent chi exactly when t > 0, that is
    when sum lam_a w_a > 0.

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
    pts = sorted(set(A), key=lambda s: s.primitive)
    for a in pts:
        if a.k != chi.k:
            raise DimensionMismatch(f"point rank {a.k}, character rank {chi.k}")
    if chi.is_zero:
        vectors, weights = [a.primitive for a in pts], [1] * len(pts)
    else:
        p = normalize_ray(chi).primitive
        i = next(j for j, c in enumerate(p) if c)
        rays = [a.primitive for a in pts if a.primitive != p]
        vectors = [tuple(p[i] * a[j] - a[i] * p[j] for j in range(chi.k) if j != i) for a in rays]
        weights = [a[i] if p[i] > 0 else -a[i] for a in rays]
    support = _conic_lp([v + (w,) for v, w in zip(vectors, weights)])[0] if vectors else None
    if support is None:
        return INF
    return _circuit_search(vectors, weights, len(support))


def m_value(A: Iterable[SpherePoint], chi: Character) -> int | float:
    """sup of the k for which chi is *not* a sum of k characters with rays in
    A - {[chi]}; infinite when no representation exists at all.

    Equals minimal_ray_count - 1: a representation by r distinct rays gives
    one with any number >= r of summands (split a summand into positive
    multiples of itself), and none with fewer, so exactly the k < r fail.
    """
    r = minimal_ray_count(A, chi)
    return INF if r == INF else r - 1
