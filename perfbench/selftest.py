"""Self-test of the tracer.

    python3 perfbench/selftest.py

1. ``fixture_check``: a small stand-in package, built in memory, with the
   reference shapes the tracer has to rebind (a ``from``-import, a default
   argument, methods on subclasses, a recursive function, a group of
   functions sharing one span).  Call counts are worked out by hand from
   the fixture's code below, and self times from its sleeps.  Traced
   benchmark runs repeat this check and fail if it does not hold.
2. A tiny CLI job on the real program, traced twice in fresh processes:
   the counts must equal the ones worked out by hand for the baseline
   program (see ``CLI_EXPECTED``) and repeat exactly between the runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402

FIXTURE = "tracerfixture"


def _build_fixture():
    """Modules cli, exactlp, sphere, trees, homology, raag, jsonio of a
    package named FIXTURE, wired like cat0sigma's."""
    pkg = types.ModuleType(FIXTURE)
    pkg.__path__ = []
    mods = {}
    for name in ("cli", "exactlp", "sphere", "trees", "homology", "raag", "jsonio"):
        mod = types.ModuleType(f"{FIXTURE}.{name}")
        mods[name] = mod
        sys.modules[mod.__name__] = mod
    sys.modules[FIXTURE] = pkg

    def define(mod, source):
        exec(compile(source, mod.__name__, "exec"), mod.__dict__)

    define(mods["exactlp"], "def strictly_representable_lp(vectors, target):\n    return vectors == target\n")
    mods["sphere"].strictly_representable_lp = mods["exactlp"].strictly_representable_lp
    define(mods["sphere"], (
        "import time\n"
        "def minimal_ray_count(A, chi, representable=strictly_representable_lp):\n"
        "    time.sleep(0.02)\n"
        "    for i, a in enumerate(A):\n"
        "        if representable(a, chi):\n"
        "            return i + 1\n"
        "    return float('inf')\n"
    ))
    define(mods["trees"], (
        "class TreeModel:\n"
        "    def end_step(self, v, end):\n"
        "        raise NotImplementedError\n"
        "class Line(TreeModel):\n"
        "    def end_step(self, v, end):\n"
        "        return v + 1\n"
        "class HnnTree(TreeModel):\n"
        "    def canonical(self, level, center):\n"
        "        return (level, center)\n"
        "    def end_step(self, v, end):\n"
        "        return self.canonical(v[0] - 1, v[1])\n"
        "def ray_point_at(model, base, end, t):\n"
        "    v = base\n"
        "    for _ in range(t):\n"
        "        v = model.end_step(v, end)\n"
        "    return v\n"
    ))
    define(mods["homology"], (
        "import time\n"
        "def smith_normal_form(matrix):\n"
        "    time.sleep(0.03)\n"
        "    return [1]\n"
        "def homology(K):\n"
        "    time.sleep(0.01)\n"
        "    smith_normal_form([[1, 0, 1], [0, 1, 1]])\n"
        "    smith_normal_form([[1], [1], [0]])\n"
        "    return 0\n"
    ))
    mods["raag"].homology = mods["homology"].homology
    define(mods["raag"], (
        "class K:\n"
        "    simplices = frozenset({(0,), (1,), (2,), (0, 1)})\n"
        "def flag_complex(graph):\n"
        "    return K()\n"
        "def bestvina_brady(graph):\n"
        "    homology(flag_complex(graph))\n"
        "    return homology(flag_complex(graph))\n"
    ))
    define(mods["jsonio"], (
        "def jsonable(value):\n"
        "    if isinstance(value, list):\n"
        "        return [jsonable(v) for v in value]\n"
        "    return value\n"
        "def parse_vertex(space, data):\n"
        "    return tuple(data)\n"
        "def parse_point(space, data):\n"
        "    return parse_vertex(space, data)\n"
    ))
    mods["cli"].HANDLERS = {"mrc": mods["sphere"].minimal_ray_count}
    define(mods["cli"], (
        "def run(argv):\n"
        "    HANDLERS['mrc']([1, 2, 3], 2)\n"
        "    from " + FIXTURE + ".sphere import minimal_ray_count\n"
        "    minimal_ray_count([5], 2)\n"
        "    return 0\n"
    ))
    return mods


def fixture_check() -> tuple[bool, str]:
    """Install the tracer on the fixture, exercise it, compare with the hand
    counts.  Returns (ok, message)."""
    mods = _build_fixture()
    try:
        tr = tracer.Tracer(FIXTURE)
        tr.install()
        problems = list(tr.unbound_references())
        mods["cli"].run([])  # 2 minimal_ray_count calls, 2 + 1 decider calls
        line, hnn = mods["trees"].Line(), mods["trees"].HnnTree()
        mods["trees"].ray_point_at(line, 0, None, 4)  # 4 end steps
        mods["trees"].ray_point_at(hnn, (0, 0), None, 3)  # 3 end steps, 3 canonical
        mods["raag"].bestvina_brady(None)  # 2 flag complexes, 2 homology, 4 SNF
        mods["jsonio"].jsonable([1, [2, [3]]])  # one span for the recursion
        mods["jsonio"].parse_point(None, [1, 2])  # one span for the group
        m = {k: v for k, (v, _unit) in tr.metrics().items()}
        expected = {
            "sphere.minimal_ray_count.calls": 2,
            "exactlp.lp.calls": 3,
            "sphere.subsets_per_count": 1.5,
            "exactlp.lp.feasible_share": 1 / 3,
            "trees.end_step.calls": 7,
            "trees.hnn_canonical.calls": 3,
            "trees.ray_point_at.calls": 2,
            "raag.flag_complex.calls": 2,
            "raag.simplices": 8,
            "homology.homology.calls": 2,
            "homology.snf.calls": 4,
            "homology.snf.entries": 2 * (6 + 3),
            "jsonio.parse.calls": 1,
        }
        for key, want in expected.items():
            if m[key] != want:
                problems.append(f"{key} = {m[key]}, expected {want}")
        if tr.stats["jsonio.jsonable"].calls != 1:
            problems.append("recursive jsonable opened more than one span")
        # Self time: sleeps of 20 ms per minimal_ray_count, 10 ms per
        # homology (its 2 x 30 ms of SNF are child spans), 30 ms per SNF.
        for key, want in (("sphere.minimal_ray_count.self_s", 0.040),
                          ("homology.snf.self_s", 0.120),
                          ("cli.run.self_s", 0.0)):
            if not want - 0.002 <= m[key] <= want + 0.030:
                problems.append(f"{key} = {m[key]:.4f} s, expected about {want:.3f} s")
        homology_self = tr.stats["homology.homology"].self_s
        if not 0.018 <= homology_self <= 0.060:
            problems.append(f"homology self time {homology_self:.4f} s, expected about 0.020 s")
    finally:
        for name in [n for n in sys.modules if n == FIXTURE or n.startswith(FIXTURE + ".")]:
            del sys.modules[name]
    return (not problems), "; ".join(problems) or "ok"


# A tiny mfpr job: k = 1, complement {(1)}, splitting character -1, --n 0.
# mfpr_lengths asks m(0), m(chi), m(-chi): m(0) tries the one subset {(1)}
# (infeasible), m(chi) the same subset (infeasible), m(-chi) has no ray
# left once [-chi] = (1) is removed.  The degree-n formula recomputes the
# lengths, and the m-value memo of the baseline program answers those three
# without a decider call.
CLI_JOB = {"k": 1, "complement": [[1]], "splitting_character": ["-1"]}
CLI_EXPECTED = {
    "treesigma.mfpr_lengths.calls": 2,
    "sphere.minimal_ray_count.calls": 6,
    "exactlp.lp.calls": 2,
    "exactlp.lp.feasible_share": 0.0,
    "exactlp.fm.calls": 0,
    "jsonio.parse.calls": 0,
    "homology.snf.calls": 0,
}


def _traced_cli_counts(path: str) -> dict:
    code = (
        "import io, json, sys\n"
        f"sys.path.insert(0, {os.path.join(os.path.dirname(HERE), 'src')!r})\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "import cat0sigma.cli as cli, tracer\n"
        "tr = tracer.Tracer(); tr.install()\n"
        f"code = cli.run(['mfpr', '--data', {path!r}, '--n', '0'], stdout=io.StringIO())\n"
        "m = {k: v for k, (v, u) in tr.metrics().items() if u != 's'}\n"
        "print(json.dumps({'code': code, 'metrics': m, 'unbound': tr.unbound_references()}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ok, msg = fixture_check()
    print(f"fixture: {'ok' if ok else 'FAILED'} ({msg})")
    workdir = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "tiny.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(CLI_JOB, fh)
    try:
        t0 = time.perf_counter()
        first, second = _traced_cli_counts(path), _traced_cli_counts(path)
        print(f"two traced CLI runs in {time.perf_counter() - t0:.2f} s")
    finally:
        os.remove(path)
        os.rmdir(workdir)
    repeat = first == second
    print(f"counts repeat exactly: {repeat}")
    hand = all(first["metrics"][k] == v for k, v in CLI_EXPECTED.items()) and first["code"] == 0
    for k, v in CLI_EXPECTED.items():
        print(f"  {k}: traced {first['metrics'][k]}, by hand {v}")
    print(f"unbound references: {first['unbound'] or 'none'}")
    good = ok and repeat and hand and not first["unbound"]
    print("selftest", "passed" if good else "FAILED")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
