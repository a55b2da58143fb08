"""Right-angled Artin groups from graphs: flag complexes, connectivity
certification, and the diagonal-character membership test.

The group of a graph has one generator per vertex, with adjacent
generators commuting (the right-angled Artin convention; right-angled
Coxeter groups would add involution relations and are not modeled here).
The diagonal character sends every generator to 1; by the Bestvina-Brady
criterion it lies in the degree-n invariant of the group exactly when the
flag complex of the graph is (n-1)-connected.  That depends only on the
homotopy type, which deleting a dominated vertex keeps, so the verdict is
decided on the graph's dominated-vertex core.  When the complement of the
core is disconnected, the core is the join of the subgraphs its complement
components induce, its flag complex is the join of theirs, and the verdict
is decided from the factors' homology alone.

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
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import DegreeOutOfRange, UnknownVertex
from .homology import HomologyProfile, SimplicialComplex, homology, join_homology
from .jsonio import parse_int, read_field
from .words import cyclic_reduce, reduce_word

# Relator visits one Tietze trivialization may spend before it answers
# Unknown.
TIETZE_BUDGET = 10_000


@dataclass(frozen=True)
class SimpleGraph:
    """A finite simple graph: no loops, no multi-edges."""

    vertices: tuple
    edges: frozenset

    def __init__(self, vertices: Iterable, edges: Iterable[Sequence]):
        verts = tuple(vertices)
        seen = set()
        for v in verts:
            if v in seen:
                raise ValueError(f"duplicate vertex {v!r}")
            seen.add(v)
        es = set()
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at {u!r}")
            if u not in seen or v not in seen:
                raise UnknownVertex(f"edge {e!r} uses an undeclared vertex")
            es.add(frozenset((u, v)))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", frozenset(es))

    def adjacency(self) -> dict:
        """Each vertex's set of neighbours, built in one pass over the edges."""
        adj: dict = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = e
            adj[u].add(v)
            adj[v].add(u)
        return adj

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
            return v if isinstance(v, str) else parse_int(v)

        edges = read_field(data, "edges", list)
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2):
                raise ValueError(f"an edge is a pair [u, v], got {e!r}")
        return SimpleGraph(map(vertex, read_field(data, "vertices", list)), [tuple(map(vertex, e)) for e in edges])

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


def flag_complex(graph: SimpleGraph) -> SimplicialComplex:
    """The complex whose simplices are the cliques of the graph.

    Maximal cliques are enumerated by Bron-Kerbosch with pivoting and
    generate the complex, which lists the cliques of one size only when
    they are read.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    adj = {index[v]: {index[w] for w in ws} for v, ws in graph.adjacency().items()}
    maximal: list[tuple[int, ...]] = []

    def bron_kerbosch(r: set, p: set, x: set):
        if not p and not x:
            if r:
                maximal.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            bron_kerbosch(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    if graph.vertices:
        bron_kerbosch(set(), set(adj), set())
    return SimplicialComplex(maximal)


def strong_collapses(graph: SimpleGraph) -> Iterator[tuple]:
    """Delete dominated vertices until none is left, yielding each deletion
    as a pair (v, w) with N[v] contained in N[w] (closed neighbourhoods) in
    the graph that the earlier deletions left.

    The link of such a v in the flag complex is a cone with apex w, so
    deleting v is a strong collapse and keeps the homotopy type
    (Barmak-Minian).  Passes scan the vertices in the graph's order until
    one deletes nothing.
    """
    closed = graph.adjacency()
    for v, ws in closed.items():
        ws.add(v)
    deleted = True
    while deleted:
        deleted = False
        for v in graph.vertices:
            nv = closed.get(v, ())
            for w in nv:
                if w != v and nv <= closed[w]:
                    yield v, w
                    del closed[v]
                    for u in nv - {v}:
                        closed[u].discard(v)
                    deleted = True
                    break


def dominated_core(graph: SimpleGraph) -> SimpleGraph:
    """The graph left when :func:`strong_collapses` has run out: its flag
    complex has the homotopy type of the graph's.  A graph with no dominated
    vertex is returned as it is."""
    gone = {v for v, _ in strong_collapses(graph)}
    if not gone:
        return graph
    return SimpleGraph([v for v in graph.vertices if v not in gone], [e for e in graph.edges if gone.isdisjoint(e)])


def join_factors(graph: SimpleGraph) -> list[SimpleGraph]:
    """The components of the complement graph, in graph order, each as the
    subgraph of the graph that it induces.

    Every vertex of one factor is adjacent to every vertex of another, so
    with two or more factors the graph is their join, and its flag complex
    is the join of theirs.  A graph whose complement is connected is its
    one factor, returned as it is; the empty graph has none.
    """
    adj = graph.adjacency()
    unplaced = set(graph.vertices)
    part_of: dict = {}
    count = 0
    for v in graph.vertices:
        if v not in unplaced:
            continue
        unplaced.remove(v)
        stack = [v]
        while stack:
            u = stack.pop()
            part_of[u] = count
            far = unplaced - adj[u]  # complement neighbours not yet placed
            unplaced -= far
            stack.extend(far)
        count += 1
    if count < 2:
        return [graph] if count else []
    parts = [([], []) for _ in range(count)]
    for v in graph.vertices:
        parts[part_of[v]][0].append(v)
    for e in graph.edges:
        u, v = e
        if part_of[u] == part_of[v]:
            parts[part_of[u]][1].append(e)
    return [SimpleGraph(vertices, edges) for vertices, edges in parts]


# ---------------------------------------------------------------------------
# Simple connectivity by bounded Tietze trivialization


@dataclass(frozen=True)
class TietzeCertificate:
    trivialized: bool
    generators: int
    relators: int
    steps: int
    log: tuple


def _spanning_tree(vertices: list, edges: list) -> set:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = set()
    for e in edges:
        u, v = tuple(e)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.add(e)
    return tree


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
    log = []
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
            log.append(f"eliminate g{lone} via relator of length {len(r)}")
            rels = [w for w in new_rels if w]
            changed = True
            break
    trivial = not gens and not rels
    return TietzeCertificate(trivial, len(gens), len(rels), steps, tuple(log[:50]))


def edge_path_presentation(K: SimplicialComplex) -> tuple[int, list]:
    """Presentation of the edge-path group of a connected complex: one
    generator per non-tree edge, one relator per triangle."""
    vertices = K.vertices
    edges = [frozenset(s) for s in K.faces(1)]
    tree = _spanning_tree(vertices, edges)
    non_tree = [e for e in edges if e not in tree]
    gen_of = {}
    for i, e in enumerate(non_tree):
        u, v = sorted(e)
        gen_of[(u, v)] = i + 1
        gen_of[(v, u)] = -(i + 1)

    def letter(u, v):
        return gen_of.get((u, v), 0)

    relators = []
    for tri in K.faces(2):
        a, b, c = tri
        word = tuple(x for x in (letter(a, b), letter(b, c), letter(c, a)) if x != 0)
        relators.append(word)
    return len(non_tree), relators


# ---------------------------------------------------------------------------
# Verdicts


YES = "yes"
NO = "no"
UNKNOWN = "unknown"

IN = "In"
OUT = "Out"
MEMBERSHIP_UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ConnectivityVerdict:
    """Status of the requirements for (n-1)-connectedness of a complex.

    connected and homology vanishing are decided; simple connectivity may
    be Unknown.  Yes for simple connectivity carries a Tietze
    trivialization certificate, except on a join, whose fundamental group
    is free; No carries nonvanishing first homology.
    """

    level: int
    nonempty: bool
    connected: str
    simply_connected: str
    homology_vanishing: str
    profile: Optional[HomologyProfile] = None
    certificate: Optional[TietzeCertificate] = None

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


def connectivity_verdict(K: SimplicialComplex, n: int) -> ConnectivityVerdict:
    """Decide (n-1)-connectedness of a finite complex as far as possible.

    n = 0 asks the complex to be nonempty, n = 1 connected, and n >= 2
    additionally simply connected with reduced homology vanishing up to
    degree n-1.  A Tietze search for simple connectivity runs only when
    reduced homology vanishes through degree 1 (connected, H1 = 0); the
    homology vanishing field reports degrees 0..max(n-1, 0).  Reduced
    homology vanishes above the dimension, so the profile stops at degree
    max(min(n-1, dim K), 1), and no simplex above dimension max(n, 2) is
    listed.
    """
    if n < 0:
        raise DegreeOutOfRange(f"degree {n} is negative")
    if not K.generators:
        return ConnectivityVerdict(n, False, NO, NO, NO)
    top = max(min(n - 1, K.dimension), 1)
    profile = homology(K, max_degree=top)
    if profile.reduced_trivial_through(1):
        certificate = tietze_trivialize(*edge_path_presentation(K))
        simply = YES if certificate.trivialized else UNKNOWN
    else:
        certificate, simply = None, NO
    return _verdict(n, top, profile, simply, certificate)


def _join_verdict(factors: Sequence[SimpleGraph], n: int) -> ConnectivityVerdict:
    """The verdict of :func:`connectivity_verdict` for the flag complex of
    the join of two or more nonempty graphs, from one flag complex and one
    homology profile per factor.

    The join has dimension sum(dim) + r - 1 for r factors and is connected.
    Its profile is folded by :func:`homology.join_homology` from factor
    profiles through degree max(top - r + 1, 0), for the same top degree
    as on a complex.  A join is homotopy equivalent to a suspension, so its
    fundamental group is free and it is simply connected exactly when its
    first homology vanishes: no Tietze search runs.
    """
    if n < 0:
        raise DegreeOutOfRange(f"degree {n} is negative")
    complexes = [flag_complex(factor) for factor in factors]
    r = len(complexes)
    top = max(min(n - 1, sum(K.dimension for K in complexes) + r - 1), 1)
    profile = join_homology([homology(K, max_degree=max(top - r + 1, 0)) for K in complexes], top)
    return _verdict(n, top, profile, YES if profile.reduced_trivial_through(1) else NO)


def _verdict(n, top, profile, simply, certificate=None) -> ConnectivityVerdict:
    """The verdict on a nonempty complex whose profile holds degrees
    0..top, given its simple-connectivity status."""
    connected = YES if profile.betti_reduced(0) == 0 else NO
    vanishing = YES if profile.reduced_trivial_through(min(max(n - 1, 0), top)) else NO
    return ConnectivityVerdict(n, True, connected, simply, vanishing, profile, certificate)


def flag_verdict(graph: SimpleGraph, n: int) -> ConnectivityVerdict:
    """The connectivity verdict for the flag complex of a graph, decided on
    its dominated-vertex core: from the factors when the core is a join
    (a factor of a core is itself a core), and from the core's whole flag
    complex otherwise."""
    core = dominated_core(graph)
    factors = join_factors(core)
    if len(factors) >= 2:
        return _join_verdict(factors, n)
    return connectivity_verdict(flag_complex(core), n)
