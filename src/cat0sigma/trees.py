"""Lazy locally finite simplicial trees with exact arithmetic.

Three families cover everything the rest of the package needs:

* ``RegularTree(degree)`` -- the degree-regular tree, vertices addressed by
  digit words from a root.
* ``CayleyTree(rank)`` -- the Cayley tree of a free group, vertices are
  reduced words (positive letters 1..rank, negative letters are inverses).
* ``HnnTree(index)`` -- the Bass-Serre tree of an ascending HNN extension
  of index n, modeled on nested n-adic balls: a vertex is a pair
  ``(level k, center c)`` with c a rational taken in [0, n^k) whose
  denominator divides a power of n.  Each vertex has one parent (toward
  the distinguished fixed end) and n children.

Edges all have length one.  Every non-root vertex has a parent, so
geodesics resolve by climbing to the common ancestor; all quantities are
exact over ints and Fractions.

Ends are restricted to the eventually periodic ones -- the computable
dense subset of the boundary.  For the word trees an end is a canonical
(prefix, period) pair; for the HNN tree it is the distinguished upward end
or a downward end labeled by the rational it converges to n-adically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .jsonio import parse_fraction, parse_int, read_field

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# Ends


@dataclass(frozen=True)
class WordEnd:
    """Eventually periodic end prefix . period^infinity of a rooted word tree.

    Stored in canonical form: the period is primitive (not a proper power)
    and the prefix is shortest (no trailing letter equal to the period's
    last letter, which would allow rolling the period back).  Build through
    :func:`make_word_end` so equal infinite words compare equal.
    """

    prefix: Word
    period: Word

    def letter(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def head(self, n: int) -> Word:
        return (self.prefix + self.period * (n // len(self.period) + 1))[:n]


def _primitive_period(period: Word) -> Word:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


def make_word_end(prefix, period) -> WordEnd:
    if not period:
        raise ValueError("end period must be nonempty")
    period = _primitive_period(tuple(period))
    prefix = tuple(prefix)
    while prefix and prefix[-1] == period[-1]:
        prefix = prefix[:-1]
        period = (period[-1],) + period[:-1]
    return WordEnd(prefix, period)


class HnnUp:
    """The distinguished fixed end of an HNN tree (levels decreasing)."""

    _instance: Optional["HnnUp"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "HnnUp()"

    def __eq__(self, other):
        return isinstance(other, HnnUp)

    def __hash__(self):
        return hash("HnnUp")

    def to_json(self) -> dict:
        return {"up": True}


@dataclass(frozen=True)
class HnnDown:
    """A downward end of an HNN tree: the nested-ball limit of a rational."""

    value: Fraction

    def __init__(self, value):
        object.__setattr__(self, "value", Fraction(value))

    def to_json(self) -> dict:
        return {"down": self.value}


TreeEnd = Union[WordEnd, HnnUp, HnnDown]


# ---------------------------------------------------------------------------
# n-adic helpers


def _prime_factors(n: int) -> list[int]:
    out, d, m = [], 2, n
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _shared_part(den: int, n: int) -> int:
    """Largest divisor of den built from primes of n."""
    g = 1
    for p in _prime_factors(n):
        while den % p == 0:
            den //= p
            g *= p
    return g


def n_valuation(x: Fraction, n: int) -> int | float:
    """Largest h such that x / n^h is n-adically integral; +inf for x = 0.

    Denominator factors coprime to n are units and are ignored.
    """
    if x == 0:
        return math.inf
    shared = _shared_part(x.denominator, n)
    w = Fraction(x.numerator, shared)
    h = 0
    if w.denominator == 1:
        v = abs(w.numerator)
        while v % n == 0:
            v //= n
            h += 1
        return h
    while w.denominator != 1:
        w *= n
        h -= 1
    return h


@dataclass(frozen=True)
class HnnVertex:
    """Ball of n-adic radius n^-level with rational center in [0, n^level)."""

    level: int
    center: Fraction


# ---------------------------------------------------------------------------
# Models


class TreeModel:
    """Shared geodesic machinery.  Subclasses supply the local structure,
    the JSON readers ``parse_vertex`` and ``parse_end`` (docs/formats.md),
    ``sample_end(rng)`` for the seeded samplers, and ``basic_ends()``: a
    few ends of rays from the base vertex, probed by the cocompactness
    test."""

    def base_vertex(self):
        raise NotImplementedError

    def parent(self, v):
        raise NotImplementedError

    def level(self, v) -> int:
        raise NotImplementedError

    def children(self, v) -> list:
        raise NotImplementedError

    def end_step(self, v, end):
        """The neighbor of v on the geodesic ray from v to the end."""
        raise NotImplementedError

    def check_vertex(self, v) -> None:
        raise NotImplementedError

    def check_end(self, end) -> None:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def neighbors(self, v) -> list:
        """The children of v, then its parent (when it has one)."""
        nbrs = self.children(v)
        parent = self.parent(v)
        if parent is not None:
            nbrs = nbrs + [parent]
        return nbrs

    # -- generic geodesics -------------------------------------------------

    def meet(self, u, v) -> tuple[object, int, int]:
        """The highest vertex of the geodesic from u to v, where the climbs
        from u and v toward the parent join, with the number of steps each
        climb takes to reach it."""
        du, dv = self.level(u), self.level(v)
        i = j = 0
        while du - i > dv:
            u = self.parent(u)
            i += 1
        while dv - j > du:
            v = self.parent(v)
            j += 1
        while u != v:
            u, v = self.parent(u), self.parent(v)
            i += 1
            j += 1
        return u, i, j

    def vertex_distance(self, u, v) -> int:
        _, i, j = self.meet(u, v)
        return i + j

    def vertex_path(self, u, v) -> list:
        """Vertices of the geodesic from u to v, inclusive."""
        _, i, j = self.meet(u, v)
        return self._climb(u, i) + self._climb(v, j)[-2::-1]

    def _climb(self, v, steps: int) -> list:
        out = [v]
        for _ in range(steps):
            out.append(self.parent(out[-1]))
        return out


class WordTree(TreeModel):
    """Rooted tree whose vertices are words from the root (parent = drop the
    last letter) and whose ends are eventually periodic words."""

    def base_vertex(self) -> Word:
        return ()

    def parent(self, v: Word) -> Optional[Word]:
        return v[:-1] if v else None

    def level(self, v: Word) -> int:
        return len(v)

    def end_step(self, v: Word, end: WordEnd) -> Word:
        if end.head(len(v)) == v:
            return v + (end.letter(len(v)),)
        return v[:-1]

    def check_end(self, end: TreeEnd) -> None:
        # Two periods and one more letter cover every letter of the end and
        # every seam between periods.
        if not isinstance(end, WordEnd):
            raise ValueError(f"ends of a {self.descriptor()['type']} tree are word ends")
        self.check_vertex(end.head(len(end.prefix) + 2 * len(end.period) + 1))

    def parse_vertex(self, data) -> Word:
        if not isinstance(data, (list, tuple)):
            raise ValueError(f"a word is a list of letters, got {data!r}")
        return tuple(parse_int(x) for x in data)

    def parse_end(self, data) -> WordEnd:
        prefix = self.parse_vertex(read_field(data, "prefix", default=()))
        return make_word_end(prefix, self.parse_vertex(read_field(data, "period")))

    def sample_end(self, rng) -> WordEnd:
        # Extend a random prefix by a cyclically valid period.  A period made
        # of non-root letters repeats validly; for the Cayley tree we also
        # need the seams not to cancel, so retry a few times and fall back
        # to the first-generator axis end.
        for _ in range(40):
            v = self.base_vertex()
            for _ in range(rng.randrange(0, 3)):
                v = rng.choice(self.children(v))
            w = v
            for _ in range(rng.randrange(1, 4)):
                w = rng.choice(self.children(w))
            period = w[len(v):]
            try:
                end = make_word_end(v, period)
                self.check_end(end)
                return end
            except ValueError:
                continue
        return make_word_end((), (self.children(self.base_vertex())[0][-1],))

    def basic_ends(self) -> list[WordEnd]:
        """The ends letter^infinity for each letter that repeats validly."""
        out = []
        for child in self.children(self.base_vertex()):
            try:
                end = make_word_end((), (child[-1],))
                self.check_end(end)
                out.append(end)
            except ValueError:
                continue
        return out


class RegularTree(WordTree):
    """Degree-regular rooted word tree: the root has ``degree`` children,
    every other vertex one parent and ``degree - 1`` children."""

    def __init__(self, degree: int):
        if degree < 3:
            raise ValueError("regular tree needs degree >= 3 to have more than two ends")
        self.degree = degree

    def children(self, v: Word) -> list[Word]:
        width = self.degree if not v else self.degree - 1
        return [v + (i,) for i in range(width)]

    def check_vertex(self, v: Word) -> None:
        for i, letter in enumerate(v):
            width = self.degree if i == 0 else self.degree - 1
            if not 0 <= letter < width:
                raise ValueError(f"address digit {letter} out of range at position {i}")

    def descriptor(self) -> dict:
        return {"type": "regular", "degree": self.degree}


def reduce_word(word) -> Word:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(word) -> Word:
    return tuple(-x for x in reversed(word))


class CayleyTree(WordTree):
    """Cayley tree of the free group of the given rank.

    Vertices are reduced words over letters +-1..+-rank, rooted at the
    identity; the rooted structure (parent = drop the last letter) realizes
    the word metric d(u, v) = |reduce(u^-1 v)|.
    """

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("free group rank must be >= 1")
        self.rank = rank

    def letters(self) -> list[int]:
        return list(range(1, self.rank + 1)) + [-i for i in range(1, self.rank + 1)]

    def children(self, v: Word) -> list[Word]:
        last = v[-1] if v else None
        return [v + (x,) for x in self.letters() if last is None or x != -last]

    def check_vertex(self, v: Word) -> None:
        for i, letter in enumerate(v):
            if letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"letter {letter} outside rank {self.rank}")
            if i and v[i - 1] == -letter:
                raise ValueError(f"word {v} is not reduced at position {i}")

    def parse_vertex(self, data) -> Word:
        """Words as int lists (1 = first generator, negative = inverse) or as
        strings with uppercase letters for inverses ("abA")."""
        if not isinstance(data, str):
            return super().parse_vertex(data)
        letters = []
        for ch in data:
            idx = ord(ch.lower()) - ord("a") + 1
            if not 1 <= idx <= self.rank:
                raise ValueError(f"letter {ch!r} outside rank {self.rank}")
            letters.append(-idx if ch.isupper() else idx)
        return tuple(letters)

    def left_multiply_vertex(self, g, v: Word) -> Word:
        return reduce_word(tuple(g) + tuple(v))

    def left_multiply_end(self, g, end: WordEnd) -> WordEnd:
        # Cancellation of g against the infinite word stops after at most
        # |g| letters, so acting on a long enough finite head is exact.
        copies = (len(g) + len(end.period)) // len(end.period) + 1
        head = tuple(end.prefix) + tuple(end.period) * copies
        return make_word_end(reduce_word(tuple(g) + head), end.period)

    def descriptor(self) -> dict:
        return {"type": "cayley", "rank": self.rank}


class HnnTree(TreeModel):
    """Oriented (n+1)-regular Bass-Serre tree of an ascending HNN extension
    of index n, realized on nested n-adic balls.

    The vertex (k, c) stands for the ball c + n^k Z_n; its parent is the
    ball one level up and its children partition it into n balls.  Levels
    are unbounded in both directions and the upward direction is the unique
    end fixed by every affine map x -> n^m x + b.
    """

    def __init__(self, index: int):
        if index < 2:
            raise ValueError("ascending HNN extensions here have index >= 2")
        self.index = index

    def base_vertex(self) -> HnnVertex:
        return HnnVertex(0, Fraction(0))

    def canonical(self, level: int, center: Fraction) -> HnnVertex:
        modulus = Fraction(self.index) ** level
        c = center - math.floor(center / modulus) * modulus
        return HnnVertex(level, c)

    def parent(self, v: HnnVertex) -> HnnVertex:
        return self.canonical(v.level - 1, v.center)

    def level(self, v: HnnVertex) -> int:
        return v.level

    def children(self, v: HnnVertex) -> list[HnnVertex]:
        step = Fraction(self.index) ** v.level
        return [HnnVertex(v.level + 1, v.center + d * step) for d in range(self.index)]

    def check_vertex(self, v: HnnVertex) -> None:
        if not isinstance(v, HnnVertex):
            raise ValueError("HNN tree vertices are (level, center) balls")
        if not 0 <= v.center < Fraction(self.index) ** v.level:
            raise ValueError(f"center {v.center} outside [0, {self.index}^{v.level})")
        if _shared_part(v.center.denominator, self.index) != v.center.denominator:
            raise ValueError(f"center {v.center} is not an {self.index}-adic rational")

    def check_end(self, end: TreeEnd) -> None:
        if not isinstance(end, (HnnUp, HnnDown)):
            raise ValueError("HNN tree ends are HnnUp or HnnDown")

    def parse_vertex(self, data) -> HnnVertex:
        return HnnVertex(parse_int(read_field(data, "level")), parse_fraction(read_field(data, "center")))

    def parse_end(self, data) -> TreeEnd:
        if read_field(data, "up", default=False) is True:
            return HnnUp()
        return HnnDown(parse_fraction(read_field(data, "down")))

    def sample_end(self, rng) -> TreeEnd:
        if rng.random() < 0.3:
            return HnnUp()
        return HnnDown(Fraction(rng.randrange(-30, 31), rng.choice([1, 1, 2, 3, 5])))

    def basic_ends(self) -> list[TreeEnd]:
        """The upward end and the downward ends toward 0, 1, ..., n - 1."""
        return [HnnUp()] + [HnnDown(Fraction(d)) for d in range(self.index)]

    def contains_value(self, v: HnnVertex, x: Fraction) -> bool:
        return n_valuation(x - v.center, self.index) >= v.level

    def end_step(self, v: HnnVertex, end: TreeEnd) -> HnnVertex:
        if isinstance(end, HnnUp):
            return self.parent(v)
        x = end.value
        if not self.contains_value(v, x):
            return self.parent(v)
        n = self.index
        t = (x - v.center) / Fraction(n) ** v.level
        # t is n-adically integral; its residue mod n picks the child.
        digit = (t.numerator * pow(t.denominator, -1, n)) % n
        return HnnVertex(v.level + 1, v.center + digit * Fraction(n) ** v.level)

    def vertex_containing(self, x: Fraction, level: int) -> HnnVertex:
        """The ball of the given level containing the rational x."""
        n = self.index
        j = 0
        y = Fraction(x)
        while _shared_part(y.denominator, n) != 1:
            y *= n
            j += 1
        exp = level + j
        if exp <= 0:
            return self.canonical(level, Fraction(0))
        modulus = n ** exp
        m = (y.numerator * pow(y.denominator, -1, modulus)) % modulus
        return self.canonical(level, Fraction(m, n ** j))

    def affine_vertex(self, shift: int, add: Fraction, v: HnnVertex) -> HnnVertex:
        """Image of the ball under x -> n^shift x + add."""
        n = Fraction(self.index)
        return self.canonical(v.level + shift, n ** shift * v.center + add)

    def descriptor(self) -> dict:
        return {"type": "hnn", "index": self.index}


def tree_from_descriptor(desc: dict) -> TreeModel:
    kind = read_field(desc, "type", default=None)
    if kind == "regular":
        return RegularTree(parse_int(read_field(desc, "degree")))
    if kind == "cayley":
        return CayleyTree(parse_int(read_field(desc, "rank")))
    if kind == "hnn":
        return HnnTree(parse_int(read_field(desc, "index")))
    raise ValueError(f"unknown tree descriptor {desc!r}")


# ---------------------------------------------------------------------------
# Metric points: a vertex plus an offset toward its parent


@dataclass(frozen=True)
class TreePoint:
    """Point of the metric tree: ``up`` of the way from ``vertex`` toward
    its parent, with up in [0, 1).  up = 0 is the vertex itself."""

    vertex: object
    up: Fraction = Fraction(0)

    def __init__(self, vertex, up=Fraction(0)):
        up = Fraction(up)
        if not 0 <= up < 1:
            raise ValueError("edge offset must lie in [0, 1)")
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "up", up)


def point_distance(model: TreeModel, p: TreePoint, q: TreePoint) -> Fraction:
    """Exact distance between two metric points.

    From d(p.vertex, q.vertex), each offset is subtracted when its edge
    climbs toward the meet and added when its vertex is the meet.
    """
    if p.vertex == q.vertex:
        return abs(p.up - q.up)
    _, i, j = model.meet(p.vertex, q.vertex)
    return i + j + (p.up if i == 0 else -p.up) + (q.up if j == 0 else -q.up)


def _point_along(model: TreeModel, vertices, s: Fraction) -> TreePoint:
    """Point at arc coordinate s >= 0 along a sequence of adjacent vertices,
    taking only as many of them as it needs."""
    whole = math.floor(s)
    frac = s - whole
    it = iter(vertices)
    a = next(itertools.islice(it, whole, None))
    if frac == 0:
        return TreePoint(a)
    b = next(it)
    if model.level(b) < model.level(a):
        return TreePoint(a, frac)
    return TreePoint(b, 1 - frac)


def walk_to_point(model: TreeModel, start: TreePoint, target: TreePoint, t: Fraction) -> TreePoint:
    """Point at arc length t along the geodesic from start to target."""
    t = Fraction(t)
    total = point_distance(model, start, target)
    if t < 0 or t > total:
        raise ValueError(f"parameter {t} outside [0, {total}]")
    if start.vertex == target.vertex:
        sign = 1 if target.up > start.up else -1
        return TreePoint(start.vertex, start.up + sign * t)
    # An offset whose vertex is the meet (the path leaves it downward) lies
    # on the parent edge above the path.
    path = model.vertex_path(start.vertex, target.vertex)
    s = start.up
    if start.up and model.level(path[1]) > model.level(path[0]):
        path.insert(0, model.parent(start.vertex))
        s = 1 - start.up
    if target.up and model.level(path[-2]) > model.level(path[-1]):
        path.append(model.parent(target.vertex))
    return _point_along(model, path, s + t)


def _ray_vertices(model: TreeModel, v, end: TreeEnd):
    while True:
        yield v
        v = model.end_step(v, end)


def ray_point_at(model: TreeModel, base: TreePoint, end: TreeEnd, t: Fraction) -> TreePoint:
    """Point at arc length t >= 0 along the geodesic ray from base to an end."""
    t = Fraction(t)
    if t < 0:
        raise ValueError("ray parameter must be nonnegative")
    if not base.up:
        return _point_along(model, _ray_vertices(model, base.vertex, end), t)
    first = model.end_step(base.vertex, end)
    vertices = itertools.chain([base.vertex], _ray_vertices(model, first, end))
    if model.level(first) < model.level(base.vertex):
        # The ray climbs the edge that holds the base.
        return _point_along(model, vertices, base.up + t)
    return _point_along(model, itertools.chain([model.parent(base.vertex)], vertices), 1 - base.up + t)
