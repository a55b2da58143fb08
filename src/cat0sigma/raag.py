"""Right-angled Artin groups from graphs: flag complexes, connectivity
certification, and the diagonal-character membership test.

The group of a graph has one generator per vertex, with adjacent
generators commuting (the right-angled Artin convention; right-angled
Coxeter groups would add involution relations and are not modeled here).
The diagonal character sends every generator to 1; by the Bestvina-Brady
criterion it lies in the degree-n invariant of the group exactly when the
flag complex of the graph is (n-1)-connected.  That depends only on the
homotopy type, which deleting a dominated vertex keeps, so the verdict is
decided on the graph's dominated-vertex core.  The core is the join of the
subgraphs that the components of its complement induce, and its flag
complex the join of theirs, so :func:`connectivity_verdict` takes the flag
complexes of these join factors, one when the complement is connected,
and decides a join of two or more from the factors' homology alone.

A graph is held as its vertices in input order and one adjacency bitmask
per vertex, and the core, the join split and the clique search work on
those ints.  A core or a factor is the induced subgraph renumbered by the
order-preserving map of its vertices, so its faces, its spanning tree and
its Tietze relators are the ones its vertex order gives; and the complex
keeps its maximal cliques as a set, so the order in which they are found
changes nothing either.

Connectedness and homology vanishing are decided exactly; simple
connectivity is undecidable in general, so the verdict is three-valued:
Yes comes with a Tietze trivialization certificate of the edge-path group,
No with a nonvanishing first homology group, and Unknown is an honest
answer when the rewriting budget runs out.  On a join it is exact: the
fundamental group of a join is free, so it is trivial exactly when the
first homology vanishes, and the answer is never Unknown.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DegreeOutOfRange, UnknownVertex
from .homology import HomologyProfile, SimplicialComplex, homology, join_homology
from .jsonio import parse_int, read_field
from .value import Value
from .words import cyclic_reduce, reduce_word

# Relator visits one Tietze trivialization may spend before it answers
# Unknown.
TIETZE_BUDGET = 10_000


class SimpleGraph(Value):
    """A finite simple graph: no loops, no multi-edges.

    It is held as its vertices in input order and one int per vertex, its
    adjacency mask: bit j of ``masks[i]`` is set when the i-th and the j-th
    vertex are adjacent.  A neighbourhood test is then an operation on two
    ints, however many vertices the graph has.  Bit j always stands for the
    j-th vertex: an induced subgraph renumbers its vertices by the
    order-preserving map, so the vertex indices of its flag complex, and
    with them the verdict, follow the input order alone.
    """

    __slots__ = ("vertices", "masks")

    def __init__(self, vertices: Iterable, edges: Iterable[Sequence]):
        verts = tuple(vertices)
        index: dict = {}
        for i, v in enumerate(verts):
            if v in index:
                raise ValueError(f"duplicate vertex {v!r}")
            index[v] = i
        masks = [0] * len(verts)
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at {u!r}")
            i, j = index.get(u), index.get(v)
            if i is None or j is None:
                raise UnknownVertex(f"edge {e!r} uses an undeclared vertex")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        super().__init__(verts, tuple(masks))

    @staticmethod
    def complete(m: int) -> "SimpleGraph":
        return SimpleGraph(range(m), itertools.combinations(range(m), 2))

    @staticmethod
    def cycle(m: int) -> "SimpleGraph":
        return SimpleGraph(range(m), [(i, (i + 1) % m) for i in range(m)])

    @staticmethod
    def octahedron() -> "SimpleGraph":
        """The 1-skeleton of the octahedron: six vertices, all edges except
        the three antipodal pairs (0,1), (2,3), (4,5)."""
        anti = {frozenset((0, 1)), frozenset((2, 3)), frozenset((4, 5))}
        edges = [e for e in itertools.combinations(range(6), 2) if frozenset(e) not in anti]
        return SimpleGraph(range(6), edges)

    @staticmethod
    def from_json(data: Mapping) -> "SimpleGraph":
        """{"vertices": [...], "edges": [[u, v], ...]}; vertices are integers
        or strings."""

        def vertex(v):
            return v if type(v) is int or isinstance(v, str) else parse_int(v)

        edges = read_field(data, "edges", list)
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2):
                raise ValueError(f"an edge is a pair [u, v], got {e!r}")
        return SimpleGraph(map(vertex, read_field(data, "vertices", list)), [(vertex(u), vertex(v)) for u, v in edges])

    @staticmethod
    def from_edge_list(text: str) -> "SimpleGraph":
        """Plain text format: one edge "u v" per line; lines with a single
        token declare isolated vertices; '#' starts a comment."""
        vertices: list = []
        seen = set()
        edges = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            for p in parts:
                if p not in seen:
                    seen.add(p)
                    vertices.append(p)
            if len(parts) == 2:
                edges.append((parts[0], parts[1]))
            elif len(parts) > 2:
                raise ValueError(f"cannot parse edge line {line!r}")
        return SimpleGraph(vertices, edges)


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _induced(graph: SimpleGraph, keep: int) -> SimpleGraph:
    """The subgraph that the vertices in the mask keep induce, renumbered
    in graph order: the k-th kept vertex takes bit k."""
    old = _bits(keep)
    place = {1 << i: 1 << k for k, i in enumerate(old)}
    masks = []
    for i in old:
        mask, renumbered = graph.masks[i] & keep, 0
        while mask:
            low = mask & -mask
            renumbered |= place[low]
            mask ^= low
        masks.append(renumbered)
    induced = object.__new__(SimpleGraph)  # checked already: no second pass over edges
    Value.__init__(induced, tuple(graph.vertices[i] for i in old), tuple(masks))
    return induced


def flag_complex(graph: SimpleGraph) -> SimplicialComplex:
    """The complex whose simplices are the cliques of the graph.

    Maximal cliques are enumerated by Bron-Kerbosch with pivoting on the
    adjacency masks, the candidate and excluded sets held as masks too
    (bit-parallel, after San Segundo et al.); the pivot leaves the most
    candidates, ``(masks[u] & P).bit_count()``.  The cliques generate the
    complex, which lists the cliques of one size only when they are read.
    Which pivot wins a tie and the order in which cliques are found do not
    matter: a graph has one set of maximal cliques, and the complex keeps
    its generators as a set.
    """
    masks = graph.masks
    maximal: list[tuple[int, ...]] = []

    def bron_kerbosch(clique: tuple, p: int, x: int):
        if not p:
            if not x:
                maximal.append(clique)
            return
        pivot, most = 0, -1
        for u in _bits(p | x):
            count = (masks[u] & p).bit_count()
            if count > most:
                pivot, most = u, count
        for v in _bits(p & ~masks[pivot]):
            bron_kerbosch(clique + (v,), p & masks[v], x & masks[v])
            p ^= 1 << v
            x |= 1 << v

    if masks:
        bron_kerbosch((), (1 << len(masks)) - 1, 0)
    return SimplicialComplex(maximal)


def strong_collapses(graph: SimpleGraph) -> Iterator[tuple]:
    """Delete dominated vertices until none is left, yielding each deletion
    as a pair (v, w) with N[v] contained in N[w] (closed neighbourhoods) in
    the graph that the earlier deletions left.

    The link of such a v in the flag complex is a cone with apex w, so
    deleting v is a strong collapse and keeps the homotopy type
    (Barmak-Minian).  Passes scan the vertices in the graph's order until
    one deletes nothing.  The vertices left are held as a mask alive, and
    N[v] is contained in N[w] when ``closed[v] & alive & ~closed[w]`` is 0.
    Which dominating w is found first does not matter: the vertices deleted,
    and so the core, depend on the scan order alone.
    """
    closed = [mask | 1 << v for v, mask in enumerate(graph.masks)]
    alive = (1 << len(closed)) - 1
    deleted = True
    while deleted:
        deleted = False
        for v in _bits(alive):
            nv = closed[v] & alive
            others = nv ^ 1 << v
            while others:
                low = others & -others
                w = low.bit_length() - 1
                if not nv & ~closed[w]:
                    yield graph.vertices[v], graph.vertices[w]
                    alive ^= 1 << v
                    deleted = True
                    break
                others ^= low


def dominated_core(graph: SimpleGraph) -> SimpleGraph:
    """The graph left when :func:`strong_collapses` has run out: its flag
    complex has the homotopy type of the graph's.  A graph with no dominated
    vertex is returned as it is."""
    gone = {v for v, _ in strong_collapses(graph)}
    if not gone:
        return graph
    return _induced(graph, sum(1 << i for i, v in enumerate(graph.vertices) if v not in gone))


def join_factors(graph: SimpleGraph) -> list[SimpleGraph]:
    """The components of the complement graph, in graph order, each as the
    subgraph of the graph that it induces.

    Every vertex of one factor is adjacent to every vertex of another, so
    with two or more factors the graph is their join, and its flag complex
    is the join of theirs.  A graph whose complement is connected is its
    one factor, returned as it is; the empty graph has none.  A component
    grows from its first vertex by the unplaced vertices that are not
    neighbours, ``unplaced & ~masks[u]``.
    """
    unplaced = (1 << len(graph.masks)) - 1
    parts = []
    while unplaced:
        frontier = part = unplaced & -unplaced
        unplaced ^= part
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            far = unplaced & ~graph.masks[low.bit_length() - 1]
            unplaced ^= far
            frontier |= far
            part |= far
        parts.append(part)
    if len(parts) < 2:
        return [graph] if parts else []
    return [_induced(graph, part) for part in parts]


# ---------------------------------------------------------------------------
# Simple connectivity by bounded Tietze trivialization


class TietzeCertificate(Value):
    __slots__ = ("trivialized", "generators", "relators", "steps")


def _cyclic_reduce(word: tuple) -> tuple:
    return cyclic_reduce(reduce_word(word))[1]


def tietze_trivialize(generator_count: int, relators: list) -> TietzeCertificate:
    """Try to reduce a finite presentation to the trivial one.

    Moves: free/cyclic reduction, deletion of trivial relators, and
    substitution along a relator containing some generator exactly once.
    Each visit to a relator, in search of a generator to eliminate, costs
    one step of TIETZE_BUDGET; returns trivialized=True only when no
    generators remain.
    """
    gens = set(range(1, generator_count + 1))
    rels = [r for r in (_cyclic_reduce(tuple(r)) for r in relators) if r]
    steps = 0
    changed = True
    while changed and steps < TIETZE_BUDGET:
        changed = False
        rels.sort(key=len)
        for r in rels:
            steps += 1
            counts = {}
            for letter in r:
                counts[abs(letter)] = counts.get(abs(letter), 0) + 1
            lone = next((g for g, c in counts.items() if c == 1 and g in gens), None)
            if lone is None:
                continue
            # Solve r = 1 for the lone generator and substitute everywhere.
            i = next(idx for idx, letter in enumerate(r) if abs(letter) == lone)
            rotated = r[i + 1:] + r[:i]
            replacement = tuple(-x for x in reversed(rotated)) if r[i] > 0 else rotated
            new_rels = []
            for other in rels:
                if other is r:
                    continue
                if lone not in other and -lone not in other:
                    new_rels.append(other)
                    continue
                word = []
                for letter in other:
                    if letter == lone:
                        word.extend(replacement)
                    elif letter == -lone:
                        word.extend(-x for x in reversed(replacement))
                    else:
                        word.append(letter)
                new_rels.append(_cyclic_reduce(tuple(word)))
            gens.discard(lone)
            rels = [w for w in new_rels if w]
            changed = True
            break
    trivial = not gens and not rels
    return TietzeCertificate(trivial, len(gens), len(rels), steps)


def edge_path_presentation(K: SimplicialComplex) -> tuple[int, list]:
    """Presentation of the edge-path group of a connected complex: one
    generator per non-tree edge, one relator per triangle.

    The spanning tree grows in one union-find pass over the edges in sorted
    order: an edge whose endpoints are joined already is the next
    generator, read from its first vertex to its second.
    """
    parent: dict = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    letters: dict = {}
    for u, v in K.faces(1):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
        else:
            g = len(letters) // 2 + 1
            letters[u, v], letters[v, u] = g, -g
    return len(letters) // 2, [
        tuple(x for x in (letters.get((a, b)), letters.get((b, c)), letters.get((c, a))) if x) for a, b, c in K.faces(2)
    ]


# ---------------------------------------------------------------------------
# Verdicts


YES = "yes"
NO = "no"
UNKNOWN = "unknown"

IN = "In"
OUT = "Out"
MEMBERSHIP_UNKNOWN = "Unknown"


class ConnectivityVerdict(Value):
    """Status of the requirements for (n-1)-connectedness of a join of
    complexes, one complex being the join of one factor.

    connected and homology vanishing are decided; simple connectivity may
    be Unknown.  Yes for simple connectivity carries a Tietze
    trivialization certificate, except on a join of two or more factors,
    whose fundamental group is free; No carries nonvanishing first
    homology.
    """

    __slots__ = ("level", "nonempty", "connected", "simply_connected", "homology_vanishing", "profile", "certificate")

    def all_requirements(self) -> str:
        """Combined verdict for (level-1)-connectedness."""
        if self.level <= 0:
            return YES if self.nonempty else NO
        needed = [self.connected]
        if self.level >= 2:
            needed.append(self.simply_connected)
            needed.append(self.homology_vanishing)
        if any(v == NO for v in needed):
            return NO
        if any(v == UNKNOWN for v in needed):
            return UNKNOWN
        return YES

    @property
    def membership(self) -> str:
        """In / Out / Unknown for the diagonal character of the right-angled
        Artin group whose flag complex this is, by the Bestvina-Brady
        criterion."""
        return {YES: IN, NO: OUT, UNKNOWN: MEMBERSHIP_UNKNOWN}[self.all_requirements()]


def connectivity_verdict(complexes: Iterable[SimplicialComplex], n: int) -> ConnectivityVerdict:
    """Decide (n-1)-connectedness of the join of finite complexes as far as
    possible; one complex is the join of one factor.

    n = 0 asks the join to be nonempty, n = 1 connected, and n >= 2
    additionally simply connected with reduced homology vanishing up to
    degree n-1.  An empty complex is the identity of the join and is
    dropped.  The join of r factors has dimension sum(dim) + r - 1, and
    reduced homology vanishes above it, so the profile stops at degree
    top = max(min(n-1, dimension), 1); the homology vanishing field reports
    degrees 0..min(max(n-1, 0), top).  Each factor's homology is computed
    through degree max(top - r + 1, 0), and for two or more factors folded
    by :func:`homology.join_homology`; no simplex above dimension
    max(n, 2) is listed.

    A join of two or more factors is homotopy equivalent to a suspension,
    so its fundamental group is free and it is simply connected exactly
    when its first homology vanishes.  One complex is simply connected
    when a Tietze search trivializes its edge-path group, which runs only
    when its reduced homology vanishes through degree 1.
    """
    if n < 0:
        raise DegreeOutOfRange(f"degree {n} is negative")
    complexes = [K for K in complexes if K.generators]
    if not complexes:
        return ConnectivityVerdict(n, False, NO, NO, NO, None, None)
    r = len(complexes)
    top = max(min(n - 1, sum(K.dimension for K in complexes) + r - 1), 1)
    profiles = [homology(K, max_degree=max(top - r + 1, 0)) for K in complexes]
    profile = profiles[0] if r == 1 else join_homology(profiles, top)
    certificate, simply = None, (YES if profile.reduced_trivial_through(1) else NO)
    if r == 1 and simply == YES:
        certificate = tietze_trivialize(*edge_path_presentation(complexes[0]))
        simply = YES if certificate.trivialized else UNKNOWN
    connected = YES if profile.betti_reduced(0) == 0 else NO
    vanishing = YES if profile.reduced_trivial_through(min(max(n - 1, 0), top)) else NO
    return ConnectivityVerdict(n, True, connected, simply, vanishing, profile, certificate)


def flag_verdict(graph: SimpleGraph, n: int) -> ConnectivityVerdict:
    """The connectivity verdict for the flag complex of a graph, decided on
    the join factors of its dominated-vertex core (a factor of a core is
    itself a core): one flag complex per factor, and one for a core whose
    complement is connected.  They are built only once the degree is
    accepted."""
    return connectivity_verdict((flag_complex(factor) for factor in join_factors(dominated_core(graph))), n)
