"""Finite simplicial complexes and integer simplicial homology.

Boundary matrices are reduced by Smith normal form over arbitrary-precision
integers.  Pivots are chosen as the smallest nonzero entry in the remaining
block (partial pivoting) to limit coefficient growth.  ``rational_rank``,
a rank over the rationals that shares no code with the integer reduction,
is the oracle the tests check the Smith ranks against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Simplex = tuple[int, ...]


@dataclass(frozen=True)
class SimplicialComplex:
    """Finite abstract simplicial complex, closed under taking faces.

    Simplices are sorted tuples of vertex indices.  The constructor takes
    any generating simplices (the maximal ones suffice) and closes them
    under faces, so the invariant holds by construction.
    """

    simplices: frozenset

    def __init__(self, simplices: Iterable[Sequence[int]]):
        closed = set()
        for s in simplices:
            s = tuple(sorted(set(s)))
            if not s:
                continue
            for r in range(1, len(s) + 1):
                closed.update(itertools.combinations(s, r))
        object.__setattr__(self, "simplices", frozenset(closed))

    @property
    def dimension(self) -> int:
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    def faces(self, dim: int) -> list[Simplex]:
        return sorted(s for s in self.simplices if len(s) == dim + 1)

    @property
    def vertices(self) -> list[int]:
        return [s[0] for s in self.faces(0)]

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices)

    def boundary_matrix(self, dim: int) -> list[list[int]]:
        """Matrix of the boundary map from dim-chains to (dim-1)-chains.

        Rows are indexed by (dim-1)-faces, columns by dim-faces; dim = 0
        gives the augmentation to the integers (reduced homology).
        """
        cols = self.faces(dim)
        if dim == 0:
            return [[1 for _ in cols]]
        rows = self.faces(dim - 1)
        index = {s: i for i, s in enumerate(rows)}
        matrix = [[0] * len(cols) for _ in rows]
        for j, s in enumerate(cols):
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1:]
                matrix[index[face]][j] = (-1) ** drop
        return matrix


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Invariant factors of an integer matrix, positive and ordered by
    divisibility.  Only the diagonal is returned.

    Pivots start at the smallest nonzero entry of the working block, and
    each clearing step is a single Euclidean reduction: subtract the
    nearest multiple and, if a remainder survives, swap it into the pivot
    (the pivot's absolute value strictly drops, so the loop terminates and
    coefficients stay tame).
    """
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag: list[int] = []
    top = 0
    while top < min(rows, cols):
        pivot = _smallest_nonzero(a, top)
        if pivot is None:
            break
        _move_pivot(a, top, pivot)
        while True:
            i = next((r for r in range(top + 1, rows) if a[r][top] != 0), None)
            if i is not None:
                q = a[i][top] // a[top][top]
                _row_sub(a, i, top, q)
                if a[i][top] != 0:
                    a[top], a[i] = a[i], a[top]
                continue
            j = next((c for c in range(top + 1, cols) if a[top][c] != 0), None)
            if j is not None:
                q = a[top][j] // a[top][top]
                _col_sub(a, j, top, q)
                if a[top][j] != 0:
                    _col_swap(a, top, j)
                # A column swap can repopulate the cleared column below the
                # pivot; the loop restarts with a strictly smaller pivot.
                continue
            break
        diag.append(abs(a[top][top]))
        top += 1
    # Enforce the divisibility chain d1 | d2 | ... with the standard
    # gcd/lcm exchange on adjacent entries.
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if y % x != 0:
                g = math.gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
    return diag


def _smallest_nonzero(a, top):
    best = None
    for i in range(top, len(a)):
        for j in range(top, len(a[0])):
            v = abs(a[i][j])
            if v and (best is None or v < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def _move_pivot(a, top, pivot):
    i, j = pivot
    a[top], a[i] = a[i], a[top]
    if j != top:
        _col_swap(a, top, j)


def _col_swap(a, j1, j2):
    for row in a:
        row[j1], row[j2] = row[j2], row[j1]


def _row_sub(a, i, src, q):
    if q:
        a[i] = [x - q * y for x, y in zip(a[i], a[src])]


def _col_sub(a, j, src, q):
    if q:
        for row in a:
            row[j] -= q * row[src]


def rational_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by Gaussian elimination with Fractions.

    Independent of the Smith reduction; used as the Betti-number oracle.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    rows = len(a)
    cols = len(a[0]) if rows else 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, rows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        scale = a[row][col]
        a[row] = [x / scale for x in a[row]]
        for r in range(rows):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


# ---------------------------------------------------------------------------
# Homology profiles


@dataclass(frozen=True)
class HomologyProfile:
    """Betti numbers and torsion coefficients per degree.

    ``betti[i]`` is the unreduced Betti number (so betti[0] counts
    components and is at least 1 for a nonempty complex); torsion
    coefficients are the invariant factors > 1 of the next boundary map,
    ordered by divisibility.  Reduced numbers differ only in degree 0.
    """

    betti: tuple
    torsion: tuple

    def betti_reduced(self, degree: int) -> int:
        if degree == 0:
            return max(self.betti[0] - 1, 0) if self.betti else 0
        return self.betti[degree] if degree < len(self.betti) else 0

    def torsion_at(self, degree: int) -> tuple:
        return self.torsion[degree] if degree < len(self.torsion) else ()

    def reduced_trivial_through(self, degree: int) -> bool:
        """True when reduced homology vanishes in all degrees <= degree."""
        return all(
            self.betti_reduced(i) == 0 and not self.torsion_at(i) for i in range(degree + 1)
        )


def homology(K: SimplicialComplex, max_degree: int | None = None) -> HomologyProfile:
    """Integer simplicial homology of a finite complex via Smith reduction.

    Computes degrees 0..max_degree (default: the dimension of K).  The rank
    of each boundary map is the number of its invariant factors, all
    nonzero; the factors above 1 are the torsion.
    """
    if max_degree is None:
        max_degree = max(K.dimension, 0)
    counts = [len(K.faces(d)) for d in range(max_degree + 2)]
    ranks = []
    torsions = []
    for d in range(max_degree + 2):
        factors = smith_normal_form(K.boundary_matrix(d)) if counts[d] else []
        ranks.append(len(factors))
        torsions.append(tuple(x for x in factors if x > 1))
    betti = []
    torsion_by_degree = []
    for d in range(max_degree + 1):
        kernel = counts[d] - ranks[d]
        image_next = ranks[d + 1]
        reduced = kernel - image_next
        betti.append(reduced + (1 if d == 0 and counts[0] > 0 else 0))
        torsion_by_degree.append(torsions[d + 1])
    return HomologyProfile(tuple(betti), tuple(torsion_by_degree))
