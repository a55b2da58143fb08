"""Independent oracles for the tests.  They share no code with the
production paths they check, except the reference connectivity verdicts,
which take the ``cat0sigma.raag`` module as an argument and check the
spanning tree and the verdict wiring, not the homology or the Tietze
search they call there."""

import argparse
import contextlib
import io
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


def graph_edges(graph) -> frozenset:
    """The edges of a ``cat0sigma.raag.SimpleGraph`` as a set of vertex
    pairs, read off its adjacency masks."""
    vs = graph.vertices
    return frozenset(frozenset((vs[i], vs[j])) for i, mask in enumerate(graph.masks) for j in range(i) if mask >> j & 1)


def closed_neighbourhoods(vertices, edges) -> dict:
    """Each vertex's closed neighbourhood N[v], as a set."""
    closed = {v: {v} for v in vertices}
    for e in edges:
        u, v = e
        closed[u].add(v)
        closed[v].add(u)
    return closed


def set_strong_collapses(vertices, edges):
    """Delete dominated vertices of a graph given by its vertices and its
    edge pairs, on closed-neighbourhood sets: passes scan the vertices in
    order until one deletes nothing, and each deletion is yielded as (v, w)
    with N[v] contained in N[w].

    Independent of the adjacency masks of ``cat0sigma.raag``, whose core it
    checks.
    """
    closed = closed_neighbourhoods(vertices, edges)
    deleted = True
    while deleted:
        deleted = False
        for v in vertices:
            nv = closed.get(v, ())
            for w in nv:
                if w != v and nv <= closed[w]:
                    yield v, w
                    del closed[v]
                    for u in nv - {v}:
                        closed[u].discard(v)
                    deleted = True
                    break


def set_complement_components(vertices, edges) -> list:
    """The components of the complement graph as vertex lists, in vertex
    order, each grown from its first vertex on neighbourhood sets."""
    adj = {v: c - {v} for v, c in closed_neighbourhoods(vertices, edges).items()}
    unplaced = set(vertices)
    parts = []
    for v in vertices:
        if v not in unplaced:
            continue
        unplaced.remove(v)
        part, stack = {v}, [v]
        while stack:
            far = unplaced - adj[stack.pop()]
            unplaced -= far
            part |= far
            stack.extend(far)
        parts.append([u for u in vertices if u in part])
    return parts


def set_maximal_cliques(vertices, edges) -> set:
    """The maximal cliques, as frozensets of vertices, by Bron-Kerbosch
    with pivoting on neighbourhood sets."""
    adj = {v: c - {v} for v, c in closed_neighbourhoods(vertices, edges).items()}
    found = set()

    def expand(r, p, x):
        if not p and not x:
            found.add(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    if vertices:
        expand(set(), set(vertices), set())
    return found


def spanning_tree(vertices: list, edges: list) -> set:
    """The edges, as frozensets, that a union-find pass in edge order
    keeps: each joins two components."""
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


def set_edge_path_presentation(K) -> tuple[int, list]:
    """The edge-path presentation of a connected complex, on edge
    frozensets and a spanning tree set: one generator per non-tree edge in
    sorted order, read from its smaller vertex, one relator per triangle.

    Independent of the union-find pass of ``cat0sigma.raag``, whose
    presentation it checks.
    """
    vertices = [s[0] for s in K.faces(0)]
    edges = [frozenset(s) for s in K.faces(1)]
    tree = spanning_tree(vertices, edges)
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


def _verdict(raag, n, top, profile, simply, certificate=None):
    """The verdict on a nonempty complex whose profile holds degrees
    0..top, given its simple-connectivity status."""
    connected = raag.YES if profile.betti_reduced(0) == 0 else raag.NO
    vanishing = raag.YES if profile.reduced_trivial_through(min(max(n - 1, 0), top)) else raag.NO
    return raag.ConnectivityVerdict(n, True, connected, simply, vanishing, profile, certificate)


def complex_verdict(raag, K, n):
    """The connectivity verdict on one complex, with its profile from
    ``raag.homology`` and, when reduced homology vanishes through degree 1,
    a Tietze search on :func:`set_edge_path_presentation`.  The module
    ``raag`` is passed in, so this file imports only the standard library.
    """
    if n < 0:
        raise raag.DegreeOutOfRange(f"degree {n} is negative")
    if not K.generators:
        return raag.ConnectivityVerdict(n, False, raag.NO, raag.NO, raag.NO, None, None)
    top = max(min(n - 1, K.dimension), 1)
    profile = raag.homology(K, max_degree=top)
    if profile.reduced_trivial_through(1):
        certificate = raag.tietze_trivialize(*set_edge_path_presentation(K))
        simply = raag.YES if certificate.trivialized else raag.UNKNOWN
    else:
        certificate, simply = None, raag.NO
    return _verdict(raag, n, top, profile, simply, certificate)


def join_verdict(raag, factors, n):
    """The connectivity verdict on the flag complex of the join of two or
    more nonempty graphs, from one flag complex and one homology profile
    per factor: the join is simply connected exactly when its first
    homology vanishes."""
    if n < 0:
        raise raag.DegreeOutOfRange(f"degree {n} is negative")
    complexes = [raag.flag_complex(factor) for factor in factors]
    r = len(complexes)
    top = max(min(n - 1, sum(K.dimension for K in complexes) + r - 1), 1)
    profile = raag.join_homology([raag.homology(K, max_degree=max(top - r + 1, 0)) for K in complexes], top)
    return _verdict(raag, n, top, profile, raag.YES if profile.reduced_trivial_through(1) else raag.NO)


class ReferenceRefusal(Exception):
    """A command line that the reference parser refuses; the message is
    the one argparse gives."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ReferenceRefusal(f"{self.prog}: {message}")

    def _get_values(self, action, arg_strings):
        # argparse drops a "--" attached to an option with "=" (--data=--)
        # and stores [], which the handlers fail on or misread (--which=--
        # ran the angle audit); read it as the value "--".
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def reference_parser(suite_names):
    """The argparse parser that the command line had before its option
    table, with each command's parser under ``.commands``."""
    parser = _Parser(prog="cat0sigma")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add(name, data=True, draws=False):
        p = sub.add_parser(name)
        p.set_defaults(seed=0)
        if data:
            p.add_argument("--data", required=True)
        if draws:
            p.add_argument("--seed", type=int)
        return p

    add("busemann")
    add("tits")
    add("character")
    add("shift")
    p = add("cocompact", draws=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--depth", type=int, default=6)
    p = add("raag", data=False)
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, default=1)
    p = add("tree-sigma")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--table", action="store_true")
    p = add("mfpr")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--table", action="store_true")
    p.add_argument("--svg")
    p = add("audit", draws=True)
    p.add_argument("--which", required=True, choices=["local-busemann", "angle-estimate"])
    p = add("verify", data=False, draws=True)
    p.add_argument("--suite", default="all", choices=[*suite_names, "all"])
    return parser


def reference_parse(parser, argv):
    """The command line read as the CLI read it with argparse: a line that
    starts with a command by that command's parser alone, any other by the
    program's parser.  The values as a dict; for -h or --help, the name of
    the command whose usage is printed (None for the program's own)."""
    command = parser.commands.get(argv[0]) if argv else None
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            if command is None:
                return vars(parser.parse_args(argv))
            return vars(command.parse_args(argv[1:], argparse.Namespace(command=argv[0])))
    except SystemExit:
        prog = out.getvalue().split()[2]
        return ("help", prog if prog in parser.commands else None)
