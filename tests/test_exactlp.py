"""The Fourier-Motzkin eliminator against hand-checked systems, against the
Fraction eliminator it replaced, and against the positive-circuit search of
the m-function."""

import random
import time
from fractions import Fraction as F

import pytest

from cat0sigma.exactlp import strictly_representable_fm
from cat0sigma.sphere import _circuit_search
from oracles import rational_rank


def test_max_min_coefficient_signs():
    # The sign of the largest achievable minimum coefficient decides strict
    # representability; these are its one-dimensional cases.
    # (1) and (-1) strictly represent 0 with lam = (t, t).
    assert strictly_representable_fm([(F(1),), (F(-1),)], (F(0),)) is True
    # A single ray cannot strictly represent the opposite ray.
    assert strictly_representable_fm([(F(-1),)], (F(1),)) is False
    # Positive multiples on one ray are fine.
    assert strictly_representable_fm([(F(2),)], (F(3),)) is True


def test_representable_needs_all_coefficients_positive():
    # (1,0) alone spans the target only with lam2 = 0 for the second ray.
    vectors = [(F(1), F(0)), (F(0), F(1))]
    assert strictly_representable_fm(vectors, (F(1), F(0))) is False
    assert strictly_representable_fm(vectors, (F(1), F(2))) is True


def test_fm_matches_circuit_search_on_seeded_systems():
    # target = sum lam_i v_i with every lam_i > 0 iff the columns
    # v_1..v_j, -target have a strictly positive kernel vector.  When that
    # kernel is a line, its support is the only circuit, so the search
    # finds a positive circuit of all j + 1 columns exactly then.
    rng = random.Random(20240)
    compared = 0
    for _ in range(400):
        k = rng.randrange(1, 4)
        j = rng.randrange(1, k + 1)
        vectors = [tuple(rng.randrange(-3, 4) for _ in range(k)) for _ in range(j)]
        target = tuple(rng.randrange(-4, 5) for _ in range(k))
        columns = vectors + [tuple(-c for c in target)]
        if rational_rank([list(r) for r in zip(*columns)]) != j:
            continue
        compared += 1
        found = _circuit_search(columns, [1] * (j + 1), j + 2)
        assert strictly_representable_fm(vectors, target) == (found == j + 1), (vectors, target)
    assert compared > 200



def test_vectors_must_have_the_target_length():
    # An extra coordinate used to be dropped silently and a missing one
    # raised IndexError; both are a ValueError now.
    with pytest.raises(ValueError, match="length"):
        strictly_representable_fm([(1, 0), (0, 1, 5)], (1, 1))
    with pytest.raises(ValueError, match="length"):
        strictly_representable_fm([(1, 0), (0,)], (1, 1))
    assert strictly_representable_fm([], (1, 1)) is False


# ---------------------------------------------------------------------------
# Oracle: the Fraction eliminator that the integer one replaced.  It splits
# each equality into two inequalities and pairs rows at every variable.


def _reference_normalize(con):
    coeffs, rhs, strict = con
    scale = None
    for c in coeffs:
        if c != 0:
            scale = abs(c)
            break
    if scale is None:
        scale = abs(rhs) if rhs != 0 else F(1)
    return tuple(c / scale for c in coeffs), rhs / scale, strict


def _reference_fm_feasible(constraints, nvars):
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
        new = {_reference_normalize(r) for r in rest}
        for pc, pr, ps in pos:
            for nc, nr, ns in neg:
                a = pc[var]
                b = -nc[var]
                coeffs = tuple(x / a + y / b for x, y in zip(pc, nc))
                new.add(_reference_normalize((coeffs, pr / a + nr / b, ps or ns)))
        constraints = list(new)
    return all(rhs > 0 if strict else rhs >= 0 for _, rhs, strict in constraints)


def _reference_representable(vectors, target):
    j = len(vectors)
    if j == 0:
        return False
    cons = []
    for row in range(len(target)):
        coeffs = tuple(F(vectors[i][row]) for i in range(j))
        rhs = F(target[row])
        cons.append((coeffs, rhs, False))
        cons.append((tuple(-c for c in coeffs), -rhs, False))
    for i in range(j):
        cons.append((tuple(F(-int(i == t)) for t in range(j)), F(0), True))
    return _reference_fm_feasible(cons, j)


def _seeded_system(rng):
    """Rank 1-3, 1-5 vectors: fractional entries, zero vectors, duplicate and
    antipodal vectors, zero targets and targets inside the closed cone."""

    def entry():
        return F(rng.randrange(-6, 7), rng.randrange(1, 5)) if rng.random() < 0.2 else rng.randrange(-3, 4)

    k = rng.randrange(1, 4)
    vectors = []
    for _ in range(rng.randrange(1, 6)):
        r = rng.random()
        if vectors and r < 0.15:
            vectors.append(rng.choice(vectors))
        elif vectors and r < 0.3:
            vectors.append(tuple(-c for c in rng.choice(vectors)))
        elif r < 0.35:
            vectors.append((0,) * k)
        else:
            vectors.append(tuple(entry() for _ in range(k)))
    r = rng.random()
    if r < 0.3:
        target = (0,) * k
    elif r < 0.5:
        target = tuple(sum(rng.randrange(0, 3) * v[row] for v in vectors) for row in range(k))
    else:
        target = tuple(entry() for _ in range(k))
    return vectors, target


def test_integer_eliminator_matches_the_fraction_eliminator():
    rng = random.Random(20261018)
    answers = {True: 0, False: 0}
    for _ in range(1200):
        vectors, target = _seeded_system(rng)
        expected = _reference_representable(vectors, target)
        assert strictly_representable_fm(vectors, target) is expected, (vectors, target)
        answers[expected] += 1
    assert min(answers.values()) >= 200, answers


def test_rank_four_system_is_decided_quickly():
    # The Fraction eliminator, with each equality split into two
    # inequalities, ran for more than 15 minutes on this system.
    vectors = [(-2, -1, -3, 3), (-3, 2, -2, -1), (3, 1, 1, 3), (-2, -3, -1, -2), (-1, 0, -3, -3)]
    start = time.perf_counter()
    assert strictly_representable_fm(vectors, (0, -2, 0, 0)) is False
    assert time.perf_counter() - start < 2.0
