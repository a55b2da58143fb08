"""Finite simplicial complexes and integer simplicial homology.

Boundary matrices are built as sparse rows and reduced by a sparse Smith
normal form over arbitrary-precision integers that takes unit pivots first;
only when no +-1 entry is left does it pivot on a smallest entry and take
Euclidean steps.  The homology of a join is folded from its factors'
homology by the Kunneth formula for joins.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

Simplex = tuple[int, ...]


@dataclass(frozen=True)
class SimplicialComplex:
    """Finite abstract simplicial complex, given by generating simplices.

    Simplices are sorted tuples of vertex indices.  The constructor takes
    any generating simplices (the maximal ones suffice); the faces of one
    dimension are listed from the generators the first time they are
    asked for, so a caller that reads a skeleton never builds the rest.
    """

    generators: frozenset
    _faces: dict = field(repr=False, compare=False)  # dimension -> its faces, sorted

    def __init__(self, simplices: Iterable[Sequence[int]]):
        normalized = (tuple(sorted(set(s))) for s in simplices)
        object.__setattr__(self, "generators", frozenset(s for s in normalized if s))
        object.__setattr__(self, "_faces", {})

    @property
    def dimension(self) -> int:
        return max(map(len, self.generators), default=0) - 1

    def faces(self, dim: int) -> list[Simplex]:
        """The dim-simplices in sorted order, listed on the first call."""
        if not 0 <= dim <= self.dimension:
            return []
        if dim not in self._faces:
            self._faces[dim] = sorted({f for s in self.generators for f in itertools.combinations(s, dim + 1)})
        return list(self._faces[dim])

    @property
    def simplices(self) -> frozenset:
        return frozenset(s for d in range(self.dimension + 1) for s in self.faces(d))

    @property
    def vertices(self) -> list[int]:
        return [s[0] for s in self.faces(0)]

    def boundary_matrix(self, dim: int) -> list[dict[int, int]]:
        """Matrix of the boundary map from dim-chains to (dim-1)-chains, as
        sparse rows {column: entry}.

        Rows are indexed by (dim-1)-faces, columns by dim-faces; dim = 0
        gives the augmentation to the integers (reduced homology).
        """
        cols = self.faces(dim)
        if dim == 0:
            return [dict.fromkeys(range(len(cols)), 1)]
        index = {s: i for i, s in enumerate(self.faces(dim - 1))}
        rows: list[dict[int, int]] = [{} for _ in index]
        for j, s in enumerate(cols):
            for drop in range(len(s)):
                rows[index[s[:drop] + s[drop + 1:]]][j] = -1 if drop % 2 else 1
        return rows


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(matrix: Sequence) -> list[int]:
    """Invariant factors of an integer matrix, positive and ordered by
    divisibility.  Only the diagonal is returned.

    Rows are dense sequences or sparse {column: entry} dicts.  Elimination
    is sparse and takes unit pivots first (Dumas-Saunders-Villard): the
    pivot is the first +-1 entry found, or an entry of smallest absolute
    value when no unit is left.  Row operations clear the pivot column; the
    pivot row is then reduced modulo the pivot by column operations, which
    change no other row, so a unit pivot's row is simply dropped.  A
    remainder that survives either step is strictly smaller than the pivot
    and replaces it, so the loop terminates.
    """
    rows = {}
    holders: dict = {}  # column -> indices of the rows with an entry in it
    for i, row in enumerate(matrix):
        row = dict(row) if isinstance(row, dict) else {j: int(x) for j, x in enumerate(row) if x}
        if row:
            rows[i] = row
            for j in row:
                holders.setdefault(j, set()).add(i)

    def subtract(i, r, q):
        """Row i -= q * row r."""
        if not q:
            return
        target = rows[i]
        for j, x in rows[r].items():
            y = target.get(j, 0) - q * x
            if y:
                if j not in target:
                    holders[j].add(i)
                target[j] = y
            else:
                del target[j]
                holders[j].discard(i)
        if not target:
            del rows[i]

    diag: list[int] = []
    while rows:
        pivot = next(((r, j) for r, row in rows.items() for j, x in row.items() if x in (1, -1)), None)
        r, j = pivot or min(((r, j) for r, row in rows.items() for j in row), key=lambda rj: abs(rows[rj[0]][rj[1]]))
        while True:
            p = rows[r][j]
            i = next((i for i in holders[j] if i != r), None)
            if i is not None:
                subtract(i, r, rows[i][j] // p)
                if j in rows.get(i, ()):
                    r = i
                continue
            if p in (1, -1):
                break
            row = rows[r]
            for k in [k for k in row if k != j]:
                row[k] %= p
                if not row[k]:
                    del row[k]
                    holders[k].discard(r)
            if len(row) == 1:
                break
            j = next(k for k in row if k != j)
        diag.append(abs(p))
        for k in rows.pop(r):
            holders[k].discard(r)
    return _invariant_factors(diag)


def _invariant_factors(orders: Iterable[int]) -> list[int]:
    """The invariant factors d1 | d2 | ... of the direct sum of cyclic groups
    of the given positive orders, by the standard gcd/lcm exchange on
    adjacent entries; units are kept."""
    diag = sorted(orders)
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


def homology(K: SimplicialComplex, max_degree: int) -> HomologyProfile:
    """Integer simplicial homology of a finite complex via Smith reduction.

    Computes degrees 0..max_degree.  The rank of each boundary map is the
    number of its invariant factors, all nonzero; the factors above 1 are
    the torsion.  Homology vanishes above the dimension, so boundary maps
    are built only through degree min(max_degree, dim K) + 1 and the
    higher degrees are zero.
    """
    top = min(max_degree, K.dimension)
    counts = [len(K.faces(d)) for d in range(top + 2)]
    factors = [smith_normal_form(K.boundary_matrix(d)) if counts[d] else [] for d in range(top + 2)]
    ranks = [len(f) for f in factors]
    # Degree 0 reduces against the augmentation: add the component it hides.
    betti = tuple(counts[d] - ranks[d] - ranks[d + 1] + (d == 0 and counts[0] > 0) for d in range(top + 1))
    torsion = tuple(tuple(x for x in f if x > 1) for f in factors[1:])
    pad = max_degree - top
    return HomologyProfile(betti + (0,) * pad, torsion + ((),) * pad)


# ---------------------------------------------------------------------------
# Joins


def _tensor_and_tor(a: tuple, b: tuple) -> tuple:
    """A (x) B and Tor(A, B) as (rank, cyclic orders), for A = Z^r + sum Z/s
    and B = Z^t + sum Z/u.  Tor is Z/gcd(s, u) over the torsion pairs; the
    tensor product is Z^(rt), each Z/s t times, each Z/u r times, and Tor."""
    (r, s), (t, u) = a, b
    tor = tuple(g for x in s for y in u if (g := math.gcd(x, y)) > 1)
    return (r * t, s * t + u * r + tor), (0, tor)


def join_homology(profiles: Sequence[HomologyProfile], max_degree: int) -> HomologyProfile:
    """Homology through max_degree of the join of nonempty complexes with the
    given profiles, folded one factor at a time by the Kunneth formula for
    joins over the integers (Milnor):

        H~_(q+1)(K * L) = sum_(i+j=q) H~_i(K) (x) H~_j(L)
                          + sum_(i+j=q-1) Tor(H~_i(K), H~_j(L)).

    A profile counts as zero above the degrees it holds.  Reduced homology
    of a join of r factors in degree d reads factor degrees <= d - r + 1
    only, so profiles through max(max_degree - r + 1, 0) give the exact
    answer.  Betti numbers and torsion coefficients are both kept: the
    torsion comes back as invariant factors, as :func:`homology` gives it.
    """

    def nonzero(p: HomologyProfile) -> list:
        """The nonzero reduced groups, as (degree, (rank, cyclic orders))."""
        groups = ((d, (p.betti_reduced(d), p.torsion_at(d))) for d in range(len(p.betti)))
        return [(d, g) for d, g in groups if g != (0, ())]

    groups = nonzero(profiles[0])
    for p in profiles[1:]:
        joined: dict = {}
        other = nonzero(p)
        for i, a in groups:
            for j, b in other:
                tensor, tor = _tensor_and_tor(a, b)
                for d, (r, s) in ((i + j + 1, tensor), (i + j + 2, tor)):
                    if d <= max_degree and (r or s):
                        rank, orders = joined.get(d, (0, ()))
                        joined[d] = (rank + r, orders + s)
        groups = list(joined.items())
    found = dict(groups)
    degrees = [found.get(d, (0, ())) for d in range(max_degree + 1)]
    betti = tuple(rank + (d == 0) for d, (rank, _) in enumerate(degrees))
    torsion = tuple(tuple(x for x in _invariant_factors(orders) if x > 1) for _, orders in degrees)
    return HomologyProfile(betti, torsion)
