"""The Fourier-Motzkin eliminator against hand-checked systems and against
the integer kernel test of the m-function search."""

import random
from fractions import Fraction as F

from cat0sigma.exactlp import strictly_representable_fm
from cat0sigma.homology import rational_rank
from cat0sigma.sphere import _positive_kernel


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


def test_fm_matches_positive_kernel_on_seeded_systems():
    # target = sum lam_i v_i with every lam_i > 0 iff the columns
    # v_1..v_j, -target have a strictly positive kernel vector.  When that
    # kernel is a line, the integer kernel test decides it on its own.
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
        assert strictly_representable_fm(vectors, target) == _positive_kernel(columns), (vectors, target)
    assert compared > 200

