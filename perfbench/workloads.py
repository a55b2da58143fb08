"""Seeded input generators for the four benchmark workloads.

Nothing here imports cat0sigma: the inputs are plain JSON built from the
documented file formats (docs/formats.md), so a change to the program can
never change the workload.

Every workload draws its jobs from a fixed pool.  ``pool(name)`` lists every
job that any seed can select, each under a stable id; ``select(name, seed)``
returns the jobs of one run.  The reference outputs in ``refs/`` are
recorded for the whole pool, so every seed is checked.

A job is a dict:

* ``id``: stable name, the key of its reference output;
* ``argv``: CLI arguments; ``{dir}`` stands for the input directory;
* ``files``: input file name -> JSON value (or text for edge lists);
* ``expect`` (optional): a membership known from topology, re-checked on
  every run (flag-homology only).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("mfpr-sweep", "tree-geometry", "flag-homology", "verify-suites")

# Suites of cat0sigma.verify.SUITES; record.py fails if the program's list
# differs, so a new suite cannot silently go unmeasured.
VERIFY_SUITES = (
    "audits", "busemann", "character", "cocompact", "horoball", "raag",
    "shift", "sl2z", "sphere", "tits", "treesigma",
)
VERIFY_SEEDS = tuple(range(10))
# Per suite, its seeds 0-9 split into the five that ran fastest and the five
# that ran slowest at the baseline commit (one cold run each).  A run takes
# one seed from each half: a suite's cost depends on its seed (the sphere
# suite takes 4.3 s to 8.6 s), and stratifying by it keeps the work of a pass
# nearly the same for every benchmark seed.
VERIFY_HALVES = {
    "audits": ((3, 4, 5, 7, 8), (0, 1, 2, 6, 9)),
    "busemann": ((0, 1, 3, 4, 7), (2, 5, 6, 8, 9)),
    "character": ((1, 2, 5, 6, 7), (0, 3, 4, 8, 9)),
    "cocompact": ((0, 3, 4, 7, 8), (1, 2, 5, 6, 9)),
    "horoball": ((0, 2, 3, 4, 6), (1, 5, 7, 8, 9)),
    "raag": ((2, 3, 4, 6, 9), (0, 1, 5, 7, 8)),
    "shift": ((0, 1, 2, 8, 9), (3, 4, 5, 6, 7)),
    "sl2z": ((2, 6, 7, 8, 9), (0, 1, 3, 4, 5)),
    "sphere": ((0, 5, 6, 7, 8), (1, 2, 3, 4, 9)),
    "tits": ((2, 6, 7, 8, 9), (0, 1, 3, 4, 5)),
    "treesigma": ((1, 2, 4, 7, 8), (0, 3, 5, 6, 9)),
}


def _rng(*parts) -> random.Random:
    return random.Random("|".join(str(p) for p in parts))


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def job_digest(job: dict) -> str:
    """Hash of a job's arguments and inputs, stored beside its reference so
    a drifted generator is caught instead of compared against stale data."""
    text = json.dumps([job["argv"], job["files"]], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _job(jid: str, argv: list, files: dict, **extra) -> dict:
    return {"id": jid, "argv": argv, "files": files, **extra}


# ---------------------------------------------------------------------------
# mfpr-sweep: MFPR instances, tree-sigma summaries, pointed rank-3 cones


def _primitive(vec):
    g = 0
    for c in vec:
        g = gcd(g, abs(c))
    return tuple(c // g for c in vec)


def _sphere_points(rng, k, count, entry=3, first_positive=False):
    points = []
    for _ in range(400):
        if len(points) == count:
            break
        vec = [rng.randint(-entry, entry) for _ in range(k)]
        if first_positive:
            vec[0] = rng.randint(1, entry)
        if not any(vec):
            continue
        p = _primitive(vec)
        q = tuple(-c for c in p)
        if p in points or q in points:
            continue
        points.append(p)
    return points


# Cells (rank k, complement size): rank 1 admits one ray (no antipodes).
# Seven rays in rank 3 come from the cones below; random complements stop
# at six rays (five in rank 4), where one unlucky draw costs more than the
# rest of its cell and the run-to-run spread would hide real changes.
MFPR_CELLS = [(1, 1)] + [(2, s) for s in range(1, 7)] + [(3, s) for s in range(1, 7)] + [(4, s) for s in range(1, 6)]
MFPR_CELL_POOL = 3  # instances per cell; the first has splitting character 0
CONE_SIZES = (3, 4, 5, 6, 7)
SUMMARY_POOL = 60
SUMMARY_PICK = 30


def mfpr_instance(cell: int, i: int) -> dict:
    """Rank k, complement of up to `size` rays without antipodal pairs,
    splitting character zero (i = 0) or a negative multiple of a complement
    ray (Brown's theorem)."""
    k, size = MFPR_CELLS[cell]
    rng = _rng("mfpr", cell, i)
    points = _sphere_points(rng, k, size) or [(1,) + (0,) * (k - 1)]
    if i == 0:
        chi = [Fraction(0)] * k
    else:
        scale = rng.choice([Fraction(1), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)])
        chi = [-scale * c for c in rng.choice(points)]
    return {"k": k, "complement": [list(p) for p in points], "splitting_character": [_frac(c) for c in chi]}


def cone_instance(size: int) -> dict:
    """Pointed rank-3 cone (every ray has positive first coordinate), so
    m(0) is infinite and the subset search tries every subset.  The
    splitting character is zero: the job's cost is m(0)."""
    rng = _rng("cone", size, 0)
    points = _sphere_points(rng, 3, size, first_positive=True)
    assert len(points) == size
    return {"k": 3, "complement": [list(p) for p in points], "splitting_character": ["0", "0", "0"]}


def summary_instance(i: int) -> dict:
    rng = _rng("summary", i)
    fl = rng.choice(list(range(0, 7)) + ["inf"])
    cap = 6 if fl == "inf" else fl
    stab = rng.randint(0, cap)
    if rng.random() < 0.5:
        return {"fl_group": fl, "fl_stabilizers": stab, "has_fixed_end": False}
    cl = rng.choice(list(range(stab, 7)) + ["inf"]) if fl == "inf" else rng.randint(stab, fl)
    return {"fl_group": fl, "fl_stabilizers": stab, "has_fixed_end": True, "cl_character": cl}


def _mfpr_jobs(cell: int, i: int) -> list:
    name = f"mfpr-{cell}-{i}.json"
    files = {name: mfpr_instance(cell, i)}
    n = i % 2  # every m-value is >= 1 or infinite, so degrees 0 and 1 are in range
    return [
        _job(f"mfpr/{cell}/{i}/table", ["mfpr", "--data", "{dir}/" + name, "--table"], files),
        _job(f"mfpr/{cell}/{i}/n{n}", ["mfpr", "--data", "{dir}/" + name, "--n", str(n)], files),
    ]


def cone_job(size: int) -> dict:
    name = f"cone-{size}-0.json"
    return _job(f"cone/{size}/0", ["mfpr", "--data", "{dir}/" + name, "--n", "0"], {name: cone_instance(size)})


def _summary_job(i: int) -> dict:
    name = f"summary-{i}.json"
    return _job(f"tree-sigma/{i}", ["tree-sigma", "--data", "{dir}/" + name, "--table"], {name: summary_instance(i)})


def _mfpr_pool() -> list:
    jobs = [j for c in range(len(MFPR_CELLS)) for i in range(MFPR_CELL_POOL) for j in _mfpr_jobs(c, i)]
    jobs += [cone_job(s) for s in CONE_SIZES]
    jobs += [_summary_job(i) for i in range(SUMMARY_POOL)]
    return jobs


def _mfpr_select(rng) -> list:
    # Per cell the instance with splitting character 0 and one of the two
    # others, so every seed has the same cells and the same share of zero
    # characters, which set most of a job's cost.  Cells of five or more rays
    # and the cones are taken whole: they make the tail, and one draw there
    # would move it more than the bounds allow.
    jobs = []
    for c, (_, size) in enumerate(MFPR_CELLS):
        picks = range(MFPR_CELL_POOL) if size >= 5 else (0, rng.randrange(1, MFPR_CELL_POOL))
        jobs += [j for i in picks for j in _mfpr_jobs(c, i)]
    jobs += [cone_job(s) for s in CONE_SIZES]
    jobs += [_summary_job(i) for i in rng.sample(range(SUMMARY_POOL), SUMMARY_PICK)]
    return jobs


# ---------------------------------------------------------------------------
# tree-geometry: Busemann values on four trees, tree actions, float spaces

TREES = {
    "cayley2": {"type": "cayley", "rank": 2},
    "regular3": {"type": "regular", "degree": 3},
    "hnn2": {"type": "hnn", "index": 2},
    "hnn3": {"type": "hnn", "index": 3},
}
# Merge-distance buckets: the ray's arc length to the branch point.  The
# deepest bucket is narrow and holds the most jobs, so the tail of every seed
# sits inside it instead of at whichever deep merge the seed happened to draw.
MERGE_BUCKETS = ((1, 10), (10, 40), (40, 80), (125, 135))
BUSEMANN_POOL = 24  # per (tree, bucket)
BUSEMANN_PICKS = (3, 3, 3, 4)  # per (tree, bucket)
ACTION_POOL = 40  # per action command
ACTION_PICK = 20
FLOAT_POOL = 30  # per float-space command
FLOAT_PICK = 10
# Growth series of single tree Busemann values, one point at merge L.
TREE_GROWTH_L = (25, 50, 100, 200, 300)


CAYLEY_LETTERS = (1, -1, 2, -2)


def _reduced_word(rng, length):
    word = []
    for _ in range(length):
        word.append(rng.choice([x for x in CAYLEY_LETTERS if not (word and x == -word[-1])]))
    return word


def _cayley_end(rng):
    while True:
        period = _reduced_word(rng, rng.randint(1, 3))
        if len(period) == 1 or period[-1] != -period[0]:
            break
    prefix = _reduced_word(rng, rng.randint(0, 2))
    while prefix and prefix[-1] == -period[0]:
        prefix = prefix[:-1]
    return prefix, period


def _letter(prefix, period, i):
    return prefix[i] if i < len(prefix) else period[(i - len(prefix)) % len(period)]


def _word_end(tree, rng):
    if tree == "cayley2":
        prefix, period = _cayley_end(rng)
    else:  # regular3: first digit 0..2, later digits 0..1
        period = [rng.randint(0, 1) for _ in range(rng.randint(1, 3))]
        prefix = [rng.randint(0, 2)] + [rng.randint(0, 1) for _ in range(rng.randint(0, 1))]
    return {"prefix": prefix, "period": period}


def _word_vertex(tree, end, rng, L, h):
    """Vertex leaving the ray root -> end after L steps and going h >= 1
    steps down a side branch."""
    prefix, period = end["prefix"], end["period"]
    head = [_letter(prefix, period, i) for i in range(L)]
    nxt = _letter(prefix, period, L)
    if tree == "cayley2":
        branch = []
        for j in range(h):
            last = branch[-1] if branch else (head[-1] if head else 0)
            banned = {-last, nxt} if j == 0 else {-last}
            branch.append(rng.choice([x for x in CAYLEY_LETTERS if x not in banned]))
    else:
        width = 3 if L == 0 else 2
        branch = [rng.choice([d for d in range(width) if d != nxt])]
        branch += [rng.randint(0, 1) for _ in range(h - 1)]
    return head + branch


def _hnn_end(n, rng, up):
    if up:
        return {"up": True}
    q = rng.choice([q for q in (3, 5, 7, 11, 13) if gcd(q, n) == 1])
    return {"down": f"{rng.randint(1, q - 1)}/{q}"}


def _hnn_vertex_off_ray(n, end, rng, L, h):
    """Ball leaving the ray from (0, 0) after L steps and going h >= 1 steps
    down a side branch.  Toward the up end the ray climbs through (-t, 0);
    toward a down end x = p/q (q prime to n) it descends through the balls
    containing x."""
    if end.get("up"):
        level = -L
        unit = Fraction(1, n ** L)
        center = rng.randint(1, n - 1) * unit
    else:
        p, q = (int(s) for s in end["down"].split("/"))
        mod = n ** (L + 1)
        x_digits = p * pow(q, -1, mod) % mod
        digit = x_digits // n ** L
        level = L
        unit = Fraction(n ** L)
        center = x_digits % n ** L + rng.choice([d for d in range(n) if d != digit]) * unit
    for j in range(1, h):
        center += rng.randrange(n) * unit * n ** j
    return {"level": level + h, "center": _frac(Fraction(center))}


def _busemann_points(tree, rng, Ls, up=True):
    """One ray from the base vertex and one point per merge distance in Ls;
    the Busemann value of a point at merge L and branch depth h is L - h."""
    points, values = [], []
    if tree.startswith("hnn"):
        n = int(tree[3:])
        end = _hnn_end(n, rng, up)
    else:
        end = _word_end(tree, rng)
    for L in Ls:
        h = rng.randint(1, 4)
        if tree.startswith("hnn"):
            points.append({"vertex": _hnn_vertex_off_ray(n, end, rng, L, h)})
        else:
            points.append({"vertex": _word_vertex(tree, end, rng, L, h)})
        values.append(L - h)
    return end, points, values


def busemann_tree_job(tree: str, bucket: int, i: int) -> dict:
    """Pool index i sets the merge distance: L grows with i across the
    bucket, so stratified picks cover the bucket evenly.  On HNN trees even
    i point the ray to the up end, odd i to a down end."""
    rng = _rng("busemann", tree, bucket, i)
    lo, hi = MERGE_BUCKETS[bucket]
    L = lo + int((hi - lo) * (i + rng.random()) / BUSEMANN_POOL)
    Ls = [L] + [rng.randrange(1, 10) for _ in range(rng.randint(0, 1))]
    end, points, values = _busemann_points(tree, rng, Ls, up=i % 2 == 0)
    base = {"vertex": {"level": 0, "center": "0"}} if tree.startswith("hnn") else {"vertex": []}
    data = {
        "space": {"space": "tree", "descriptor": TREES[tree]},
        "ray": {"base": base, "end": {"boundary": end}},
        "points": points,
    }
    name = f"busemann-{tree}-{bucket}-{i}.json"
    return _job(
        f"busemann/{tree}/{bucket}/{i}",
        ["busemann", "--data", "{dir}/" + name],
        {name: data},
        busemann_values=values,
        merge=Ls,
    )


def tree_growth_job(L: int) -> dict:
    """One Cayley-tree Busemann value at merge distance exactly L."""
    rng = _rng("tree-growth", L)
    end, points, values = _busemann_points("cayley2", rng, [L])
    data = {
        "space": {"space": "tree", "descriptor": TREES["cayley2"]},
        "ray": {"base": {"vertex": []}, "end": {"boundary": end}},
        "points": points,
    }
    name = f"tree-growth-{L}.json"
    return _job(f"tree-growth/{L}", ["busemann", "--data", "{dir}/" + name], {name: data}, busemann_values=values, merge=[L])


def _hnn_center(n, level, rng):
    if level >= 0:
        return Fraction(rng.randrange(n ** level))
    extra = rng.randint(0, 2)
    return Fraction(rng.randrange(n ** extra), n ** (-level + extra))


def _hnn_vertex(n, rng, spread=3):
    level = rng.randint(-spread, spread)
    return {"level": level, "center": _frac(_hnn_center(n, level, rng))}


def _tree_action(rng):
    """A Cayley(2) or HNN action whose generators all fix the returned end."""
    if rng.random() < 0.5:
        prefix, period = _cayley_end(rng)
        gens = {}
        for name in "ab"[: rng.randint(1, 2)]:
            power = rng.choice([-2, -1, 1, 2])
            core = period * abs(power) if power > 0 else [-x for x in reversed(period)] * abs(power)
            word = prefix + core + [-x for x in reversed(prefix)]
            gens[name] = {"word": _reduce(word)}
        space = {"space": "tree", "descriptor": TREES["cayley2"]}
        end = {"prefix": prefix, "period": period}
        base = {"vertex": _reduced_word(rng, rng.randint(0, 3))}
        return space, gens, end, base
    n = rng.choice([2, 3])
    space = {"space": "tree", "descriptor": {"type": "hnn", "index": n}}
    shifts = [rng.choice([-1, 1, 2]), rng.choice([0, 1])]
    if rng.random() < 0.5:
        end = {"up": True}
        gens = {"t": {"shift": shifts[0], "add": _frac(Fraction(rng.randint(-3, 3), n ** rng.randint(0, 2)))}}
        gens["a"] = {"shift": shifts[1], "add": _frac(Fraction(rng.randint(1, 3)))}
    else:
        x0 = rng.randint(-3, 3)  # all generators fix the down end x0
        end = {"down": str(x0)}
        gens = {
            name: {"shift": s, "add": _frac(x0 * (1 - Fraction(n) ** s))}
            for name, s in zip("ta", shifts)
        }
    base = {"vertex": _hnn_vertex(n, rng)}
    return space, gens, end, base


def _reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _word(rng, names, lo, hi):
    letters = list(names) + [c.upper() for c in names]
    return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def _tree_points(space, rng, count):
    desc = space["descriptor"]
    if desc["type"] == "hnn":
        return [{"vertex": _hnn_vertex(desc["index"], rng)} for _ in range(count)]
    return [{"vertex": _reduced_word(rng, rng.randint(0, 4))} for _ in range(count)]


def _tree_end(space, rng):
    if space["descriptor"]["type"] == "hnn":
        if rng.random() < 0.5:
            return {"up": True}
        return {"down": _frac(Fraction(rng.randint(-5, 5), rng.choice([1, 3, 5])))}
    prefix, period = _cayley_end(rng)
    return {"prefix": prefix, "period": period}


def action_job(kind: str, i: int) -> dict:
    rng = _rng(kind, i)
    space, gens, end, base = _tree_action(rng)
    name = f"{kind}-{i}.json"
    if kind == "character":
        data = {"action": {"space": space, "generators": gens}, "end": end, "base": base,
                "words": sorted({_word(rng, sorted(gens), 1, 6) for _ in range(4)})}
        argv = ["character", "--data", "{dir}/" + name]
    elif kind == "shift":
        labels = "pqrs"[: rng.randint(2, 4)]
        pts = _tree_points(space, rng, len(labels))
        config = dict(zip(labels, pts))
        fmap = {lab: (rng.choice(labels) if rng.random() < 0.5 else _tree_points(space, rng, 1)[0]) for lab in labels}
        data = {"space": space, "config": config, "map": fmap, "end": _tree_end(space, rng)}
        argv = ["shift", "--data", "{dir}/" + name]
    elif kind == "cocompact":
        data = {"action": {"space": space, "generators": gens}, "base": base}
        argv = ["cocompact", "--data", "{dir}/" + name, "--radius", "0.75", "--depth", "2"]
    else:  # audit on a tree space
        ends = [_tree_end(space, rng), _tree_end(space, rng)]
        if rng.random() < 0.5:
            data = {"space": space, "center": base, "r": rng.randint(1, 3),
                    "eps": _frac(Fraction(rng.randint(1, 4), 4)), "ends": ends, "samples": 20}
            which = "local-busemann"
        else:
            data = {"space": space, "base": base, "ends": ends, "schedule": [1, 2, 5, 10, 20]}
            which = "angle-estimate"
        argv = ["audit", "--data", "{dir}/" + name, "--which", which]
    return _job(f"{kind}/{i}", argv, {name: data})


def _float_space(rng):
    return rng.choice(["E2", "E3", "H2"])


def _float_point(name, rng):
    if name == "H2":
        return {"x": round(rng.uniform(-3, 3), 3), "y": round(rng.uniform(0.2, 4), 3)}
    return [round(rng.uniform(-5, 5), 3) for _ in range(int(name[1]))]


def _float_boundary(name, rng):
    if name == "H2":
        return {"xi": "inf"} if rng.random() < 0.3 else {"xi": _frac(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))}
    k = int(name[1])
    # Axis-aligned and diagonal unit vectors are exact in binary64 after
    # the program normalizes them.
    vec = [0] * k
    vec[rng.randrange(k)] = rng.choice([-1, 1])
    return {"direction": vec}


def float_job(kind: str, i: int) -> dict:
    rng = _rng("float", kind, i)
    name_space = _float_space(rng)
    space = {"space": name_space}
    name = f"float-{kind}-{i}.json"
    if kind == "busemann":
        data = {"space": space,
                "ray": {"base": _float_point(name_space, rng), "end": {"boundary": _float_boundary(name_space, rng)}},
                "points": [_float_point(name_space, rng) for _ in range(rng.randint(1, 4))]}
    elif kind == "tits":
        data = {"space": space, "pairs": [[_float_boundary(name_space, rng), _float_boundary(name_space, rng)]
                                          for _ in range(rng.randint(1, 4))]}
    else:
        labels = "pqr"[: rng.randint(1, 3)]
        data = {"space": space, "config": {lab: _float_point(name_space, rng) for lab in labels},
                "map": {lab: _float_point(name_space, rng) for lab in labels},
                "end": _float_boundary(name_space, rng)}
    return _job(f"float-{kind}/{i}", [kind, "--data", "{dir}/" + name], {name: data})


ACTION_KINDS = ("character", "shift", "cocompact", "audit")
FLOAT_KINDS = ("busemann", "tits", "shift")


def _tree_pool() -> list:
    jobs = [busemann_tree_job(t, b, i) for t in TREES for b in range(len(MERGE_BUCKETS)) for i in range(BUSEMANN_POOL)]
    jobs += [action_job(k, i) for k in ACTION_KINDS for i in range(ACTION_POOL)]
    jobs += [float_job(k, i) for k in FLOAT_KINDS for i in range(FLOAT_POOL)]
    jobs += [tree_growth_job(L) for L in TREE_GROWTH_L]
    return jobs


def _tree_select(rng) -> list:
    jobs = []
    for t in TREES:
        for b in range(len(MERGE_BUCKETS)):
            # One pick per stretch of the bucket; picks alternate between
            # even and odd pool indices, so HNN rays go up and down equally.
            picks = BUSEMANN_PICKS[b]
            span = BUSEMANN_POOL // picks
            jobs += [busemann_tree_job(t, b, s * span + s % 2 + 2 * rng.randrange(span // 2)) for s in range(picks)]
    for k in ACTION_KINDS:
        jobs += [action_job(k, i) for i in rng.sample(range(ACTION_POOL), ACTION_PICK)]
    for k in FLOAT_KINDS:
        jobs += [float_job(k, i) for i in rng.sample(range(FLOAT_POOL), FLOAT_PICK)]
    return jobs


# ---------------------------------------------------------------------------
# flag-homology: raag --graph --n on structured and random graphs


def cross_polytope(m: int) -> dict:
    """Vertices 0..2m-1, every pair adjacent except i and i+m: its flag
    complex is the boundary of the m-dimensional cross-polytope, S^(m-1)."""
    edges = [[i, j] for i in range(2 * m) for j in range(i + 1, 2 * m) if j != i + m]
    return {"vertices": list(range(2 * m)), "edges": edges}


def cycle(m: int) -> dict:
    return {"vertices": list(range(m)), "edges": [[i, (i + 1) % m] for i in range(m)]}


def complete(m: int) -> dict:
    return {"vertices": list(range(m)), "edges": [[i, j] for i in range(m) for j in range(i + 1, m)]}


GRAPH_DENSITIES = (0.25, 0.4, 0.55, 0.7)
GRAPH_CELLS = [(v, d, n) for v in range(6, 12) for d in GRAPH_DENSITIES for n in (1, 2, 3)]
GRAPH_CELL_POOL = 4  # graphs per (vertices, density, degree) cell


def random_graph(i: int) -> str:
    """Seeded random graph, as a plain-text edge list; pool index i sets the
    cell (vertex count 6-11, edge density, degree)."""
    rng = _rng("graph", i)
    v, density, _ = GRAPH_CELLS[i % len(GRAPH_CELLS)]
    lines = [f"# random graph {i}: {v} vertices, density {density}"]
    lines += [f"v{a} v{b}" for a in range(v) for b in range(a + 1, v) if rng.random() < density]
    touched = {tok for line in lines[1:] for tok in line.split()}
    lines += [f"v{a}" for a in range(v) if f"v{a}" not in touched]
    return "\n".join(lines) + "\n"


CROSS_M = (2, 3, 4, 5, 6)
CYCLE_M = (4, 5, 6, 7, 8)
COMPLETE_M = (2, 3, 4, 5, 6, 7, 8, 9)


def _graph_job(family, m, n, graph, expect=None):
    name = f"{family}-{m}.{'txt' if isinstance(graph, str) else 'json'}"
    extra = {"expect": expect} if expect else {}
    return _job(f"raag/{family}/{m}/n{n}", ["raag", "--graph", "{dir}/" + name, "--n", str(n)], {name: graph}, **extra)


def cross_polytope_job(m: int, n: int) -> dict:
    return _graph_job("cross", m, n, cross_polytope(m), "In" if n <= m - 1 else "Out")


def _structured_jobs() -> list:
    jobs = [cross_polytope_job(m, n) for m in CROSS_M for n in range(1, m + 1) if not (m == 6 and n < 5)]
    jobs += [_graph_job("cycle", m, n, cycle(m), "In" if n == 1 else "Out") for m in CYCLE_M for n in (1, 2)]
    jobs += [_graph_job("complete", m, n, complete(m), "In") for m in COMPLETE_M for n in (1, 2, 3)]
    return jobs


def _random_graph_job(i: int) -> dict:
    return _graph_job("random", i, GRAPH_CELLS[i % len(GRAPH_CELLS)][2], random_graph(i))


def _flag_pool() -> list:
    return _structured_jobs() + [_random_graph_job(i) for i in range(len(GRAPH_CELLS) * GRAPH_CELL_POOL)]


def _flag_select(rng) -> list:
    jobs = _structured_jobs()
    cells = len(GRAPH_CELLS)
    jobs += [_random_graph_job(c + cells * rng.randrange(GRAPH_CELL_POOL)) for c in range(cells)]
    return jobs


# ---------------------------------------------------------------------------
# verify-suites: every suite once, at a seed drawn from a fixed pool


def verify_job(suite: str, s: int) -> dict:
    return _job(f"verify/{suite}/{s}", ["verify", "--suite", suite, "--seed", str(s)], {})


def _verify_pool() -> list:
    return [verify_job(suite, s) for suite in VERIFY_SUITES for s in VERIFY_SEEDS]


def _verify_select(rng) -> list:
    return [verify_job(suite, rng.choice(half)) for suite in VERIFY_SUITES for half in VERIFY_HALVES[suite]]


# ---------------------------------------------------------------------------

_POOLS = {
    "mfpr-sweep": _mfpr_pool,
    "tree-geometry": _tree_pool,
    "flag-homology": _flag_pool,
    "verify-suites": _verify_pool,
}
_SELECT = {
    "mfpr-sweep": _mfpr_select,
    "tree-geometry": _tree_select,
    "flag-homology": _flag_select,
    "verify-suites": _verify_select,
}


def pool(workload: str) -> list:
    return _POOLS[workload]()


def select(workload: str, seed: int) -> list:
    """The jobs of one run, in a seeded order."""
    rng = _rng(workload, "select", seed)
    jobs = _SELECT[workload](rng)
    rng.shuffle(jobs)
    return jobs


def growth_jobs() -> list:
    """Growth series, one job per size: (metric name, job).  Sizes stop
    where the program at the baseline commit still finishes within a run."""
    out = [(f"growth.cone_m0_ms.a{s}", cone_job(s)) for s in CONE_SIZES + (8,)]
    out += [(f"growth.tree_busemann_ms.L{L}", tree_growth_job(L)) for L in TREE_GROWTH_L]
    out += [(f"growth.cross_polytope_ms.m{m}", cross_polytope_job(m, m - 1)) for m in CROSS_M]
    return out


def write_inputs(jobs, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    written = set()
    for job in jobs:
        for name, content in job["files"].items():
            if name in written:
                continue
            written.add(name)
            text = content if isinstance(content, str) else json.dumps(content, sort_keys=True)
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                fh.write(text)
