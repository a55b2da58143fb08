"""Lazy locally finite simplicial trees with exact arithmetic, the third
kind of model space beside E^k and H2.

Each tree model is a :class:`spaces.ModelSpace` named "tree": points are
metric points (:class:`TreePoint`, a vertex and an offset toward its
parent), boundary points are ends, and the model owns the per-space
operations that the entry points of :mod:`spaces` dispatch to.  This
module imports :mod:`spaces`; that module loads this one only to read a
tree descriptor.  Three families cover everything the rest of the
package needs:

* ``RegularTree(degree)`` -- the degree-regular tree, vertices addressed by
  digit words from a root.
* ``CayleyTree(rank)`` -- the Cayley tree of a free group, vertices are
  reduced words (positive letters 1..rank, negative letters are inverses).
* ``HnnTree(index)`` -- the Bass-Serre tree of an ascending HNN extension
  of index n, modeled on nested n-adic balls: a vertex is a pair
  ``(level k, center c)`` with c a rational taken in [0, n^k) whose
  denominator divides a power of n, stored as the integers (k, a, e) with
  c = a / n^e in lowest terms.  Each vertex has one parent (toward the
  distinguished fixed end) and n children.

Edges all have length one.  Geodesics come from closed forms, not from
walks: the meet of two vertices is their longest common prefix (word
trees) or the smallest ball holding both centers (HNN tree), and the k-th
vertex of a ray is an ancestor or lies on the end past the branch point.
Busemann values come from a third closed form, the horofunction height of
a vertex toward an end: |v| - 2 |lcp(v, end)| on word trees, the level
toward the upward HNN end, and level - 2 min(level, v_n(x - c)) toward the
downward end x.  The height reads no meet and no ray vertex, so the
defining limit, evaluated through those, stays an independent check of it.
All quantities are exact: HNN vertices hold their centers as integers over
a power of n, and every tree value (an edge offset, a parsed scalar, a
height, a distance, a Busemann value) is an int exactly when it is an
integer and a Fraction otherwise, so values at vertices compute at machine
int speed.  The command line prints such a value as a string either way
(docs/formats.md).

Depths read from the input (word lengths, HNN levels and shifts) and ray
or geodesic parameters are bounded by DEPTH_BUDGET; beyond it ParameterOutOfRange is
raised, an input error on the command line.

Ends are restricted to the eventually periodic ones -- the computable
dense subset of the boundary.  For the word trees an end is a canonical
(prefix, period) pair; for the HNN tree it is the distinguished upward end
or a downward end labeled by the rational it converges to n-adically.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Union

from . import spaces
from .errors import ParameterOutOfRange, WrongSpace
from .jsonio import parse_fraction, parse_int, read_field
from .spaces import GeneralizedRay, ModelSpace
from .value import Value
from .words import Word, reduce_word

# At the budget one Busemann value or ray point takes at most about 0.35 s
# on a 2-vCPU machine when the point lies near the ray or far from it (on a
# word tree 0.12-0.18 s, most of it the one check of the point's letters);
# the slowest case found, an HNN(6) value toward a down end whose point's
# center agrees with the end to half the budget's digits, takes about 6.4 s
# (the n-adic valuation divides by powers half the operand's size).
DEPTH_BUDGET = 10**6


def check_depth(what: str, size) -> None:
    if abs(size) > DEPTH_BUDGET:
        raise ParameterOutOfRange(f"{what} {size} exceeds the tree depth budget of {DEPTH_BUDGET}")


def _exact(num: int, den: int) -> int | Fraction:
    """num / den for den > 0: an int when den divides num, else a Fraction."""
    return Fraction(num, den) if num % den else num // den


def _common_prefix(a: Word, b: Word) -> int:
    """Length of the longest common prefix of two words, by bisection on
    slice equality (a C-level compare) with a[:lo] == b[:lo] != ... a[:hi]."""
    lo, hi = 0, min(len(a), len(b))
    if a[:hi] == b[:hi]:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Ends


class WordEnd(Value):
    """Eventually periodic end prefix . period^infinity of a rooted word tree.

    Stored in canonical form: the period is primitive (not a proper power)
    and the prefix is shortest (no trailing letter equal to the period's
    last letter, which would allow rolling the period back).  Build through
    :func:`make_word_end` so equal infinite words compare equal.
    """

    __slots__ = ("prefix", "period")

    def head(self, n: int) -> Word:
        return (self.prefix + self.period * (n // len(self.period) + 1))[:n]

    def to_json(self) -> dict:
        return {"prefix": list(self.prefix), "period": list(self.period)}


def _primitive_period(period: Word) -> Word:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]


def make_word_end(prefix, period) -> WordEnd:
    if not period:
        raise ValueError("end period must be nonempty")
    period = _primitive_period(tuple(period))
    prefix = tuple(prefix)
    # Roll the period back over the trailing letters of the prefix that
    # match it read backwards: drop them at once, then rotate the period
    # right by their number.
    p, k = len(period), 0
    while k < len(prefix) and prefix[-1 - k] == period[-1 - k % p]:
        k += 1
    r = k % p
    return WordEnd(prefix[: len(prefix) - k], period[p - r :] + period[: p - r])


class HnnUp(Value):
    """The distinguished fixed end of an HNN tree (levels decreasing)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"up": True}


class HnnDown(Value):
    """A downward end of an HNN tree: the nested-ball limit of a rational."""

    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__(Fraction(value))

    def to_json(self) -> dict:
        return {"down": self.value}


TreeEnd = Union[WordEnd, HnnUp, HnnDown]


# ---------------------------------------------------------------------------
# n-adic helpers


def _power(n: int, k: int) -> int:
    """n^k for k >= 0, by a shift when n is a power of two."""
    return 1 << k * (n.bit_length() - 1) if n & (n - 1) == 0 else n**k


# _valuation's probe from the top: it is tried once the climb has divided
# out n^(2^_PROBE_AFTER - 1), and it lands when what is left has at most
# about _PROBE_MARGIN base-n digits above its valuation.  On a million-digit
# operand (n = 3, 2-vCPU machine) a probe that misses costs about 0.1 s,
# as much as the climb to 2^12 - 1 factors; one that lands turns the 2.2 s
# climb of an HNN(3) Busemann value at the depth budget into 0.24 s.  No
# benchmark workload reaches it.
_PROBE_AFTER = 12
_PROBE_MARGIN = 64


def _valuation(m: int, n: int) -> int:
    """Largest h such that n^h divides the nonzero integer m.

    For n = 2^a this is the trailing zero bits over a.  Otherwise n, n^2,
    n^4, ... are divided out while they divide, so the operand shrinks as
    the powers grow; what is left has valuation below the last power
    tried, and the same powers in reverse order read it off bit by bit.
    A long climb also probes from the top: with |m| < n^(t+1), the test
    m mod n^(t - _PROBE_MARGIN) costs a few passes over m, where the climb
    toward t would divide by powers half its size.
    """
    if n & (n - 1) == 0:
        return ((m & -m).bit_length() - 1) // (n.bit_length() - 1)
    if m % n:
        return 0
    h, powers = 0, [n]
    while True:
        q, r = divmod(m, powers[-1])
        if r:
            break
        m, h = q, h + (1 << len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
        if len(powers) == _PROBE_AFTER + 1:
            k = int(m.bit_length() / math.log2(n)) - _PROBE_MARGIN
            if k > 0 and m % n**k == 0:
                return h + k + _valuation(m // n**k, n)
    for i in range(len(powers) - 2, -1, -1):
        q, r = divmod(m, powers[i])
        if not r:
            m, h = q, h + (1 << i)
    return h


def _shared_part(den: int, n: int) -> int:
    """Largest divisor of den built from primes of n: every prime power
    dividing den has exponent below den.bit_length()."""
    return math.gcd(den, _power(n, den.bit_length()))


def _n_adic(x: Fraction, n: int) -> tuple[int, int, int]:
    """(num, unit, exp) with x = num / (unit n^exp), unit prime to n and exp
    least; then n does not divide num when exp > 0."""
    num, den = x.numerator, x.denominator
    shared = _shared_part(den, n)
    if shared == 1:
        return num, den, 0
    # A doubling search finds a power n^top that the shared part divides;
    # the least exponent is top less the valuation of the cofactor.
    top, power = 1, n
    while power % shared:
        top, power = 2 * top, power * power
    cofactor = power // shared
    exp = top - _valuation(cofactor, n)
    return num * (cofactor // _power(n, top - exp)), den // shared, exp


class HnnVertex(Value):
    """Ball c + n^level Z_n of the HNN tree of index n, with its center c =
    num / n^exp in [0, n^level) held in lowest terms (exp = 0 or n does not
    divide num).  Build vertices through an :class:`HnnTree`, which keeps
    them canonical, so equal balls are equal tuples of ints."""

    __slots__ = ("level", "num", "exp", "index")

    def __init__(self, level: int, num: int, exp: int, index: int):
        # Each field set here, not by the base: the tree walks build many.
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "index", index)


# ---------------------------------------------------------------------------
# Metric points: a vertex plus an offset toward its parent


class TreePoint(Value):
    """Point of the metric tree: ``up`` of the way from ``vertex`` toward
    its parent, with up in [0, 1).  up = 0, the int, is the vertex itself;
    any other offset is a Fraction."""

    __slots__ = ("vertex", "up")

    def __init__(self, vertex, up: int | Fraction = 0):
        num, den = up.as_integer_ratio()
        if not 0 <= num < den:
            raise ValueError("edge offset must lie in [0, 1)")
        # Each field set here, not by the base: the tree walks build many.
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "up", up if num else 0)


# ---------------------------------------------------------------------------
# Models

# Edge offsets of sampled tree points, 0 twice as often as each other value.
_SAMPLE_OFFSETS = (0, 0, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))


class TreeModel(ModelSpace):
    """A locally finite simplicial tree, the model space "tree": the
    space operations of :class:`spaces.ModelSpace` on metric points and
    ends, computed exactly from the local structure.  Every vertex of a
    model has the same number ``degree`` of neighbours, its children and
    then its parent (a root has none).  Each subclass supplies ``degree``,
    ``base_vertex()``, ``level(v)``, ``neighbor(v, i)`` (the i-th
    neighbour of v, built alone), ``check_vertex(v)``,
    ``check_boundary(end)`` and ``descriptor()`` (its JSON form); the
    closed forms ``ancestor(v, k)`` (the vertex k levels
    above v), ``meet(u, v)`` (the highest vertex of the geodesic from u to
    v, with the number of steps from u and from v up to it),
    ``ray_vertex(v, end, k)`` (the k-th vertex of the geodesic ray from v
    to the end) and ``height(v, end)`` (the horofunction height of v toward
    the end, which falls by one per step along a ray to the end, and
    whether v's parent edge points toward the end); the JSON readers
    ``parse_vertex`` and ``parse_boundary`` (docs/formats.md);
    ``sample_end(rng)`` for the seeded samplers; and ``probe_ends``: a few
    ends of rays from the base vertex, probed by the cocompactness test."""

    name = "tree"
    exact = True
    region_unit = "vertices"

    def parent(self, v):
        return self.ancestor(v, 1)

    def neighbors(self, v) -> list:
        """The children of v, then its parent (when it has one)."""
        return [self.neighbor(v, i) for i in range(self.degree)]

    def children(self, v) -> list:
        """The neighbours of v but its parent: all of them at a root."""
        return [self.neighbor(v, i) for i in range(self.degree - (self.parent(v) is not None))]

    def check_point(self, p):
        self.check_vertex(p.vertex)
        if p.up and self.parent(p.vertex) is None:
            raise WrongSpace(f"the root {p.vertex!r} has no parent edge to hold the offset {p.up}")
        return p

    def origin(self):
        return TreePoint(self.base_vertex())

    def to_json(self):
        return {"space": "tree", "descriptor": self.descriptor()}

    def parse_point(self, data):
        vertex = self.parse_vertex(read_field(data, "vertex"))
        return TreePoint(vertex, parse_fraction(read_field(data, "up", default=0)))

    def parse_scalar(self, data) -> int | Fraction:
        x = parse_fraction(data)
        return x.numerator if x.denominator == 1 else x

    def distance(self, p: TreePoint, q: TreePoint) -> int | Fraction:
        """Exact distance between two metric points.

        From d(p.vertex, q.vertex), each offset is subtracted when its edge
        climbs toward the meet and added when its vertex is the meet; the
        sum is taken over the common denominator of the offsets (1 between
        vertices).
        """
        pn, pd = p.up.as_integer_ratio()
        qn, qd = q.up.as_integer_ratio()
        if p.vertex == q.vertex:
            return _exact(abs(pn * qd - qn * pd), pd * qd)
        _, i, j = self.meet(p.vertex, q.vertex)
        if i:
            pn = -pn
        if j:
            qn = -qn
        return _exact((i + j) * pd * qd + pn * qd + qn * pd, pd * qd)

    def point_height(self, p: TreePoint, end: TreeEnd) -> int | Fraction:
        """Horofunction height of a metric point toward an end: its vertex's
        height (an int), less the offset when the parent edge points toward
        the end and plus it otherwise."""
        h, toward = self.height(p.vertex, end)
        num, den = p.up.as_integer_ratio()
        if not num:
            return h
        return Fraction(h * den - num if toward else h * den + num, den)

    def check_target(self, e):
        return self.check_boundary(e) if isinstance(e, (WordEnd, HnnUp, HnnDown)) else self.check_point(e)

    def ray_from(self, a, e):
        if isinstance(e, (WordEnd, HnnUp, HnnDown)):
            return GeneralizedRay(self, a, e, None, self.point_height(a, e))
        return GeneralizedRay(self, a, e, self.distance(a, e), None)

    def ray_point(self, ray, t):
        check_depth("ray parameter", t)
        if ray.is_degenerate:
            return self.walk_to_point(ray.base, ray.end, t)
        return self.ray_point_at(ray.base, ray.end, t)

    def busemann_to_end(self, ray, b) -> int | Fraction:
        # The difference of the end's horofunction heights; the ray carries
        # its base's.
        an, ad = ray._param.as_integer_ratio()
        bn, bd = self.point_height(b, ray.end).as_integer_ratio()
        return _exact(an * bd - bn * ad, ad * bd)

    def sample_point(self, center, radius, rng):
        # The draw of rng.choice(self.neighbors(v)), which has degree items.
        v, indices = center.vertex, range(self.degree)
        for _ in range(rng.randrange(0, max(1, int(radius)))):
            v = self.neighbor(v, rng.choice(indices))
        up = rng.choice(_SAMPLE_OFFSETS)
        if up and self.parent(v) is None:
            up = _SAMPLE_OFFSETS[0]
        return TreePoint(v, up)

    def region(self, center, depth: int, seed: int):
        """All vertices within the radius, or None when there are more than
        ``spaces.REGION_BUDGET``.  The ball holds 1 + d((d - 1)^r - 1)/(d - 2)
        vertices for the degree d (1 + 2r when d = 2); for d > 2 that passes
        the budget by r = 19, so no larger power is taken."""
        radius, d = max(2, depth // 2), self.degree
        size = 1 + 2 * radius if d == 2 else 1 + d * ((d - 1) ** min(radius, 19) - 1) // (d - 2)
        if size > spaces.REGION_BUDGET:
            return radius, None
        out, frontier, seen = [TreePoint(center.vertex)], [center.vertex], {center.vertex}
        for _ in range(radius):
            new = []
            for v in frontier:
                for w in self.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        new.append(w)
                        out.append(TreePoint(w))
            frontier = new
        return radius, out

    def _point_along(self, vertex_at, num: int, den: int) -> TreePoint:
        """Point at arc coordinate num / den >= 0 along a path of adjacent
        vertices, where vertex_at(k) is its k-th vertex."""
        whole, rem = divmod(num, den)
        a = vertex_at(whole)
        if not rem:
            return TreePoint(a)
        b = vertex_at(whole + 1)
        if self.level(b) < self.level(a):
            return TreePoint(a, Fraction(rem, den))
        return TreePoint(b, Fraction(den - rem, den))

    def walk_to_point(self, start: TreePoint, target: TreePoint, t: int | Fraction) -> TreePoint:
        """Point at arc length t along the geodesic from start to target, for
        0 <= t <= d(start, target), as ``GeneralizedRay.point_at`` checks
        and caps it."""
        if start.vertex == target.vertex:
            sign = 1 if target.up > start.up else -1
            return TreePoint(start.vertex, start.up + sign * t)
        u, v = start.vertex, target.vertex
        sn, sd = start.up.as_integer_ratio()
        _, i, j = self.meet(u, v)
        # An offset whose vertex is the meet (the path leaves it downward)
        # lies on the parent edge above the path, so the path runs through
        # the parent.
        if sn and i == 0:
            u, j, sn = self.parent(u), j + 1, sd - sn
        if target.up and j == 0:
            v, i = self.parent(v), i + 1
        tn, td = t.as_integer_ratio()
        return self._point_along(
            lambda k: self.ancestor(u, k) if k <= i else self.ancestor(v, i + j - k), sn * td + tn * sd, sd * td
        )

    def ray_point_at(self, base: TreePoint, end: TreeEnd, t: int | Fraction) -> TreePoint:
        """Point at arc length t >= 0 along the geodesic ray from base to an
        end; ``GeneralizedRay.point_at`` checks the sign."""
        tn, td = t.as_integer_ratio()
        v = base.vertex
        un, ud = base.up.as_integer_ratio()
        if un and self.level(self.ray_vertex(v, end, 1)) > self.level(v):
            # The ray crosses the base's edge downward, so it runs on the
            # ray from the parent.
            v, un = self.parent(v), ud - un
        return self._point_along(functools.partial(self.ray_vertex, v, end), un * td + tn * ud, ud * td)


def _head_with_seams(end: WordEnd) -> Word:
    """The head of a word end that holds each of its letters and each seam
    between periods: two periods and one more letter."""
    return end.head(len(end.prefix) + 2 * len(end.period) + 1)


class WordTree(TreeModel):
    """Rooted tree whose vertices are words from the root (parent = drop the
    last letter) and whose ends are eventually periodic words."""

    def base_vertex(self) -> Word:
        return ()

    def parent(self, v: Word) -> Optional[Word]:
        return v[:-1] if v else None

    def level(self, v: Word) -> int:
        return len(v)

    def ancestor(self, v: Word, k: int) -> Word:
        return v[: len(v) - k]

    def meet(self, u: Word, v: Word) -> tuple[Word, int, int]:
        p = _common_prefix(u, v)
        return u[:p], len(u) - p, len(v) - p

    def ray_vertex(self, v: Word, end: WordEnd, k: int) -> Word:
        # Climb to the longest prefix of v on the end, then follow the end.
        p = _common_prefix(v, end.head(len(v)))
        climb = len(v) - p
        return self.ancestor(v, k) if k <= climb else end.head(p + k - climb)

    def height(self, v: Word, end: WordEnd) -> tuple[int, bool]:
        p = _common_prefix(v, end.head(len(v)))
        return len(v) - 2 * p, p < len(v)

    def check_boundary(self, end: TreeEnd) -> WordEnd:
        if not isinstance(end, WordEnd):
            raise ValueError(f"ends of a {self.descriptor()['type']} tree are word ends")
        self.check_vertex(_head_with_seams(end))
        return end

    def parse_vertex(self, data) -> Word:
        if not isinstance(data, (list, tuple)):
            raise ValueError(f"a word is a list of letters, got {data!r}")
        check_depth("word length", len(data))
        return tuple(parse_int(x) for x in data)

    def parse_boundary(self, data) -> WordEnd:
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
                self.check_vertex(_head_with_seams(end))
                return end
            except ValueError:
                continue
        return make_word_end((), (self.children(self.base_vertex())[0][-1],))

    def probe_ends(self, center, far_point) -> list[WordEnd]:
        """The ends letter^infinity for each letter that repeats validly."""
        out = []
        for child in self.children(self.base_vertex()):
            try:
                end = make_word_end((), (child[-1],))
                self.check_vertex(_head_with_seams(end))
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

    def neighbor(self, v: Word, i: int) -> Word:
        return v[:-1] if v and i == self.degree - 1 else v + (i,)

    def check_vertex(self, v: Word) -> None:
        for i, letter in enumerate(v):
            width = self.degree if i == 0 else self.degree - 1
            if not 0 <= letter < width:
                raise ValueError(f"address digit {letter} out of range at position {i}")

    def descriptor(self) -> dict:
        return {"type": "regular", "degree": self.degree}


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
        self.degree = 2 * rank

    def neighbor(self, v: Word, i: int) -> Word:
        # The letters in order are 1, ..., rank, -1, ..., -rank: position j
        # holds j + 1 for j < rank, else rank - j - 1.  Below the root the
        # inverse of the last letter is left out.
        rank = self.rank
        if v:
            if i == self.degree - 1:
                return v[:-1]
            last = v[-1]
            i += i >= (rank + last - 1 if last > 0 else -last - 1)
        return v + (i + 1 if i < rank else rank - i - 1,)

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
        check_depth("word length", len(data))
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
        self.degree = index + 1
        self._log2 = math.log2(index)

    def base_vertex(self) -> HnnVertex:
        return HnnVertex(0, 0, 0, self.index)

    def vertex(self, level: int, center: Fraction) -> HnnVertex:
        """The ball of the given level around a center in [0, n^level)
        whose denominator divides a power of n."""
        n, num, den = self.index, center.numerator, center.denominator
        if num < 0 or num and (num * _power(n, -level) >= den if level < 0 else num >= den * _power(n, level)):
            raise ValueError(f"center {center} outside [0, {n}^{level})")
        num, unit, exp = _n_adic(center, n)
        if unit != 1:
            raise ValueError(f"center {center} is not an {n}-adic rational")
        return HnnVertex(level, num, exp, n)

    def canonical(self, level: int, num: int, exp: int) -> HnnVertex:
        """The ball of the given level around num / n^exp, in lowest terms."""
        if level + exp <= 0:
            return HnnVertex(level, 0, 0, self.index)
        # num / n^exp mod n^level.  The modulus n^(level + exp) is a multiple
        # of n, so num keeps its residue mod n and the center its lowest terms.
        return HnnVertex(level, num % _power(self.index, level + exp), exp, self.index)

    def ancestor(self, v: HnnVertex, k: int) -> HnnVertex:
        return self.canonical(v.level - k, v.num, v.exp)

    def level(self, v: HnnVertex) -> int:
        return v.level

    def neighbor(self, v: HnnVertex, d: int) -> HnnVertex:
        # The children d = 0, ..., n - 1 of v, then its parent.
        n = self.index
        if d == n:
            return self.ancestor(v, 1)
        if v.level + v.exp < 0:
            # Above level 0 the center is 0 and the children's are d / n^-level.
            return HnnVertex(v.level + 1, d, -v.level if d else 0, n)
        return HnnVertex(v.level + 1, v.num + d * _power(n, v.level + v.exp), v.exp, n)

    def check_vertex(self, v: HnnVertex) -> None:
        if not isinstance(v, HnnVertex) or v.index != self.index:
            raise ValueError(f"HNN tree vertices are (level, center) balls of index {self.index}")
        if v.num == v.exp == 0:
            return
        # 0 < num < n^(level + exp) with exp >= 0.  The bit lengths b of num
        # and nb of n settle it unless k (nb - 1) < b <= k nb, and there
        # k < b, so k log2 n is a float.  The logarithms err by about 1e-9
        # there, so outside a 1e-6 margin they settle it without the power.
        n, k, b = self.index, v.level + v.exp, v.num.bit_length()
        outside = v.exp < 0 or k <= 0 or v.num <= 0 or b > k * n.bit_length()
        if not outside and b > k * (n.bit_length() - 1):
            gap = math.log2(v.num) - k * self._log2
            outside = gap > 1e-6 or (gap > -1e-6 and v.num >= _power(n, k))
        if outside:
            raise ValueError(f"center {v.num}/{n}^{v.exp} outside [0, {n}^{v.level})")
        # Lowest terms, so that equal balls are equal tuples.
        if v.exp and v.num % n == 0:
            raise ValueError(f"center {v.num}/{n}^{v.exp} is not in lowest terms")

    def check_boundary(self, end: TreeEnd) -> TreeEnd:
        if not isinstance(end, (HnnUp, HnnDown)):
            raise ValueError("HNN tree ends are HnnUp or HnnDown")
        return end

    def parse_vertex(self, data) -> HnnVertex:
        level = parse_int(read_field(data, "level"))
        check_depth("level", level)
        return self.vertex(level, parse_fraction(read_field(data, "center")))

    def parse_boundary(self, data) -> TreeEnd:
        if read_field(data, "up", default=False) is True:
            return HnnUp()
        return HnnDown(parse_fraction(read_field(data, "down")))

    def sample_end(self, rng) -> TreeEnd:
        if rng.random() < 0.3:
            return HnnUp()
        return HnnDown(Fraction(rng.randrange(-30, 31), rng.choice([1, 1, 2, 3, 5])))

    def probe_ends(self, center, far_point) -> list[TreeEnd]:
        """The upward end and the downward ends toward 0, 1, ..., n - 1."""
        return [HnnUp()] + [HnnDown(Fraction(d)) for d in range(self.index)]

    def _valuation_from(self, v: HnnVertex, x: Fraction) -> int | float:
        """v_n(x - c) for the center c of v; +inf when x = c."""
        n = self.index
        num, unit, exp = _n_adic(x, n)
        # x - c = (num n^e - c_num unit n^exp) / (unit n^(exp + e)).
        diff = num * _power(n, v.exp) - v.num * unit * _power(n, exp)
        return _valuation(diff, n) - exp - v.exp if diff else math.inf

    def meet(self, u: HnnVertex, v: HnnVertex) -> tuple[HnnVertex, int, int]:
        # The balls of u and v first coincide where n^level divides c_u - c_v.
        n, exp = self.index, max(u.exp, v.exp)
        diff = u.num * _power(n, exp - u.exp) - v.num * _power(n, exp - v.exp)
        top = min(u.level, v.level)
        if diff:
            top = min(top, _valuation(diff, n) - exp)
        return self.canonical(top, u.num, u.exp), u.level - top, v.level - top

    def ray_vertex(self, v: HnnVertex, end: TreeEnd, k: int) -> HnnVertex:
        # Climb to the largest ball around v that holds the end's value (the
        # up end has none), then descend through the balls that hold it.
        climb = k if isinstance(end, HnnUp) else max(0, v.level - self._valuation_from(v, end.value))
        if k <= climb:
            return self.ancestor(v, k)
        return self.vertex_containing(end.value, v.level - climb + (k - climb))

    def height(self, v: HnnVertex, end: TreeEnd) -> tuple[int, bool]:
        # Toward a down end x the ray climbs to the largest ball holding v
        # and x, at level min(level, v_n(x - c)), then descends.
        if isinstance(end, HnnUp):
            return v.level, True
        top = min(v.level, self._valuation_from(v, end.value))
        return v.level - 2 * top, top < v.level

    def vertex_containing(self, x: Fraction, level: int) -> HnnVertex:
        """The ball of the given level containing the rational x."""
        n = self.index
        num, unit, exp = _n_adic(x, n)
        if level + exp <= 0:
            return HnnVertex(level, 0, 0, n)
        # The center is x mod n^level: num / unit read mod n^(level + exp).
        modulus = _power(n, level + exp)
        return HnnVertex(level, num * pow(unit, -1, modulus) % modulus, exp, n)

    def affine_vertex(self, shift: int, add: Fraction, v: HnnVertex) -> HnnVertex:
        """Image of the ball under x -> n^shift x + add."""
        n = self.index
        add_num, unit, add_exp = _n_adic(add, n)
        if unit != 1:
            raise ValueError(f"add {add} is not an {n}-adic rational")
        # n^shift c = v.num / n^(v.exp - shift); add both over n^exp.
        num, exp = (v.num, v.exp - shift) if v.exp >= shift else (v.num * _power(n, shift - v.exp), 0)
        top = max(exp, add_exp)
        num = num * _power(n, top - exp) + add_num * _power(n, top - add_exp)
        k = min(top, _valuation(num, n)) if num else top  # to lowest terms
        return self.canonical(v.level + shift, num // _power(n, k), top - k)

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
