"""Independent oracles for the tests.  They share no code with the
production paths they check."""

from fractions import Fraction


def rational_rank(matrix) -> int:
    """Rank over the rationals by Gaussian elimination with Fractions.

    Independent of the Smith reduction in ``cat0sigma.homology``, whose ranks
    it checks.
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
