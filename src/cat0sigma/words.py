"""Free-group words: tuples of nonzero ints, letter i the i-th generator
and -i its inverse.  The Cayley tree, its isometries and the Tietze
rewriting of ``raag`` share these helpers; the module imports nothing
else from the package, so ``raag`` loads no tree code."""

from __future__ import annotations

Word = tuple[int, ...]


def reduce_word(word) -> Word:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(word: Word) -> tuple[Word, Word]:
    """(c, core) for a reduced word w = c . core . c^-1 with core cyclically
    reduced: count the end pairs that cancel, then slice once."""
    n, k = len(word), 0
    while 2 * k + 1 < n and word[k] == -word[n - 1 - k]:
        k += 1
    return word[:k], word[k : n - k]


def invert_word(word) -> Word:
    return tuple(-x for x in reversed(word))
