"""Exact strict conic feasibility by Fourier-Motzkin elimination.

:func:`strictly_representable_fm` decides whether a rational vector lies in
the *strictly* positive cone of a finite set of rational vectors by
eliminating variables one at a time, keeping track of strictness.  It is a
slow but transparent enumeration oracle: ``verify`` and the tests check the
integer kernel search of :mod:`cat0sigma.sphere` against it.

All arithmetic is exact; no tolerances appear anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vector = Sequence[Fraction]

# Constraints are (coeffs, rhs, strict) meaning
# coeffs . x < rhs when strict else coeffs . x <= rhs.


def _normalize(con: tuple[tuple[Fraction, ...], Fraction, bool]):
    coeffs, rhs, strict = con
    scale: Fraction | None = None
    for c in coeffs:
        if c != 0:
            scale = abs(c)
            break
    if scale is None:
        scale = abs(rhs) if rhs != 0 else Fraction(1)
    return tuple(c / scale for c in coeffs), rhs / scale, strict


def _fm_feasible(constraints: list[tuple[tuple[Fraction, ...], Fraction, bool]], nvars: int) -> bool:
    for var in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, rhs, strict in constraints:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, rhs, strict))
            elif c < 0:
                neg.append((coeffs, rhs, strict))
            else:
                rest.append((coeffs, rhs, strict))
        new = {_normalize(r) for r in rest}
        for pc, pr, ps in pos:
            for nc, nr, ns in neg:
                # Eliminate var: pc/pc[var] + nc/(-nc[var]) has zero coefficient.
                a = pc[var]
                b = -nc[var]
                coeffs = tuple(x / a + y / b for x, y in zip(pc, nc))
                rhs = pr / a + nr / b
                new.add(_normalize((coeffs, rhs, ps or ns)))
        constraints = list(new)
    for coeffs, rhs, strict in constraints:
        if strict and not rhs > 0:
            return False
        if not strict and not rhs >= 0:
            return False
    return True


def strictly_representable_fm(vectors: Sequence[Vector], target: Vector) -> bool:
    """Fourier-Motzkin oracle for strict representability.

    Decides ``exists lam, all lam_i > 0, sum lam_i v_i = target`` by turning
    each equality into a pair of inequalities and eliminating the lam_i one
    by one.
    """
    j = len(vectors)
    if j == 0:
        return False
    k = len(target)
    cons: list[tuple[tuple[Fraction, ...], Fraction, bool]] = []
    for row in range(k):
        coeffs = tuple(Fraction(vectors[i][row]) for i in range(j))
        rhs = Fraction(target[row])
        cons.append((coeffs, rhs, False))
        cons.append((tuple(-c for c in coeffs), -rhs, False))
    for i in range(j):
        coeffs = tuple(Fraction(-int(i == t)) for t in range(j))
        cons.append((coeffs, Fraction(0), True))  # -lam_i < 0
    return _fm_feasible(cons, j)
