"""Exact strict conic feasibility by fraction-free Fourier-Motzkin elimination.

:func:`strictly_representable_fm` decides whether a rational vector lies in
the *strictly* positive cone of a finite set of rational vectors by
eliminating variables one at a time, keeping track of strictness.  It is a
transparent enumeration oracle: ``verify`` and the tests check the simplex
and the positive-circuit search of :mod:`cat0sigma.sphere` against it, so it
shares no code with them and imports nothing but the standard library.

Every row is a primitive integer row: each input row is scaled once (by the
lcm of its denominators, then divided by the gcd of its entries), and every
combination is made primitive again.  A primitive row is the unique
representative of its positive multiples, so removing duplicate primitive
rows removes exactly the duplicates of the rational rows.

The equalities ``sum lam_i v_i = target`` stay equalities.  A variable that
still has a nonzero coefficient in an equality is substituted through it:
with that equality as the pivot and ``a = pivot[var] > 0``, every other row
r becomes ``a * r - r[var] * pivot`` and the pivot is dropped.  Multiplying
by ``a > 0`` keeps each inequality's direction and strictness, so this is
exact Gaussian elimination and the projection of the feasible set is
unchanged.  Positive rows are paired with negative rows (Fourier-Motzkin
proper, Dantzig-Eaves 1973) only for a variable that no equality involves.
Both steps are exact projections, so the decision is the same as that of
splitting each equality into two inequalities; only the number of rows
differs.  Substitution never adds a row, so the pairing works on the j sign
rows ``-lam_i < 0`` over the j - rank variables that no equality fixes,
instead of on 2k + j rows over all j variables.

All arithmetic is exact; no tolerances appear anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

Vector = Sequence[Union[int, Fraction]]

# A row is a tuple of ints: the coefficients of the variables, then the
# right-hand side.  An equality row r means r[:-1] . x = r[-1]; an
# inequality (r, strict) means r[:-1] . x < r[-1] when strict, else <=.


def _primitive(values: tuple[int, ...]) -> tuple[int, ...]:
    """The row divided by the gcd of its entries (the zero row unchanged)."""
    g = math.gcd(*values)
    return values if g <= 1 else tuple(v // g for v in values)


def _integer_row(values: Sequence[Union[int, Fraction]]) -> tuple[int, ...]:
    """The primitive integer row on the ray of a rational row."""
    if not all(isinstance(v, int) for v in values):
        values = [Fraction(v) for v in values]
        den = math.lcm(*(v.denominator for v in values))
        values = [v.numerator * (den // v.denominator) for v in values]
    return _primitive(tuple(values))


def _combine(a: int, row: tuple[int, ...], b: int, pivot: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive row ``a * row - b * pivot``."""
    return _primitive(tuple(a * x - b * y for x, y in zip(row, pivot)))


def _fm_feasible(equalities: list[tuple[int, ...]], inequalities: set[tuple[tuple[int, ...], bool]], nvars: int) -> bool:
    """Feasibility of integer rows over nvars variables; each row carries its
    right-hand side as its last entry."""
    for var in range(nvars):
        at = next((i for i, e in enumerate(equalities) if e[var]), None)
        if at is not None:
            pivot = equalities.pop(at)
            if pivot[var] < 0:
                pivot = tuple(-x for x in pivot)
            a = pivot[var]
            equalities = [_combine(a, e, e[var], pivot) if e[var] else e for e in equalities]
            inequalities = {
                (_combine(a, row, row[var], pivot) if row[var] else row, strict) for row, strict in inequalities
            }
        else:
            pos = [(row, strict) for row, strict in inequalities if row[var] > 0]
            neg = [(row, strict) for row, strict in inequalities if row[var] < 0]
            inequalities = {(row, strict) for row, strict in inequalities if row[var] == 0}
            for prow, pstrict in pos:
                for nrow, nstrict in neg:
                    inequalities.add((_combine(-nrow[var], prow, -prow[var], nrow), pstrict or nstrict))
    # Every variable is gone, so each row reads 0 = rhs, 0 < rhs or 0 <= rhs.
    return all(e[-1] == 0 for e in equalities) and all(
        row[-1] > 0 if strict else row[-1] >= 0 for row, strict in inequalities
    )


def strictly_representable_fm(vectors: Sequence[Vector], target: Vector) -> bool:
    """Fourier-Motzkin oracle for strict representability.

    Decides ``exists lam, all lam_i > 0, sum lam_i v_i = target`` by
    eliminating the lam_i one by one: through an equality while one
    involves lam_i, by pairing inequalities otherwise.  Entries may be
    ints or Fractions.  Raises ValueError when a vector's length differs
    from the target's.
    """
    k = len(target)
    for v in vectors:
        if len(v) != k:
            raise ValueError(f"vector {tuple(v)!r} has length {len(v)}, the target {tuple(target)!r} has {k}")
    j = len(vectors)
    if j == 0:
        return False
    equalities = [_integer_row([v[row] for v in vectors] + [target[row]]) for row in range(k)]
    inequalities = {(tuple(-int(i == t) for t in range(j)) + (0,), True) for i in range(j)}  # -lam_i < 0
    return _fm_feasible(equalities, inequalities, j)
