"""Acceptance gate: one test per criterion, each printing its pass/fail
line.  Tolerances are pinned here: exact where the contract says exact,
1e-9 for the binary64 geometry.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import json
import time

import pytest

from cat0sigma import cli, verify


def report(criterion: str, ok: bool, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}{(' -- ' + extra) if extra else ''}")
    assert ok, criterion


def run_suite_timed(name: str, seed: int, limit: float):
    start = time.monotonic()
    rep = verify.run_suite(name, seed=seed)
    elapsed = time.monotonic() - start
    return rep, elapsed


def summarize(rep) -> str:
    done = sum(c.passed for c in rep.checks)
    failed = sum(c.failed for c in rep.checks)
    return f"{done} checks, {failed} failures"


def test_criterion_01_modular_group_boundary():
    rep, elapsed = run_suite_timed("sl2z", seed=11, limit=1.0)
    ok = rep.ok and elapsed < 1.0
    report(
        "criterion 1: modular-group boundary classification (20 rationals + "
        "infinity in, 20 quadratic irrationals out, exact, < 1s)",
        ok,
        f"{summarize(rep)}, {elapsed:.2f}s",
    )


def test_criterion_02_diagonal_membership_fixed_points():
    rep, elapsed = run_suite_timed("raag", seed=0, limit=10.0)
    ok = rep.ok and elapsed < 10.0
    report(
        "criterion 2: complete graphs In through degree 5, the 4-cycle In at 1 / "
        "Out at 2, the octahedron In at 2 / Out at 3 (exact, < 10s)",
        ok,
        f"{summarize(rep)}, {elapsed:.2f}s",
    )


def test_criterion_03_m_value_oracle_equivalence():
    rep, elapsed = run_suite_timed("sphere", seed=5, limit=60.0)
    ok = rep.ok and elapsed < 60.0
    report(
        "criterion 3: 200 seeded instances (k <= 3, |A| <= 6): production m-value "
        "equals the elimination oracle exactly (< 60s)",
        ok,
        f"{summarize(rep)}, {elapsed:.2f}s",
    )


def test_criterion_04_formula_consistency():
    rep, _ = run_suite_timed("treesigma", seed=3, limit=120.0)
    report(
        "criterion 4: 100 MFPR instances factor through the three lengths, and "
        "100 summaries partition the degree range exactly",
        rep.ok,
        summarize(rep),
    )


def test_criterion_05_busemann_suite():
    rep, _ = run_suite_timed("busemann", seed=1, limit=120.0)
    report(
        "criterion 5: Busemann closed forms agree with the defining limit "
        "(1e-9 on E^k and H2, exact on trees) on 100 seeded cases per space, "
        "with monotone bounded limit sequences and constant asymptotic offsets",
        rep.ok,
        summarize(rep),
    )


def test_criterion_06_character_suite():
    rep, _ = run_suite_timed("character", seed=2, limit=120.0)
    report(
        "criterion 6: endpoint characters additive and base-point free within "
        "1e-9 (exact on trees) on 100 word pairs per action; cocycle identity "
        "on 100 triples; HNN tree gives 0 on base generators and -1 on the "
        "stable letter exactly",
        rep.ok,
        summarize(rep),
    )


def test_criterion_07_shift_calculus():
    rep, _ = run_suite_timed("shift", seed=4, limit=120.0)
    report(
        "criterion 7: the shift bound holds in-type on every report; iterates "
        "clear m times the guaranteed shift for m <= 5 on 50 closed "
        "configurations; translation equivariance exact on trees, 1e-9 elsewhere",
        rep.ok,
        summarize(rep),
    )


def test_criterion_08_audits():
    rep, _ = run_suite_timed("audits", seed=6, limit=120.0)
    report(
        "criterion 8: the local Busemann comparison bound holds strictly on 100 "
        "seeded instances in each of E2, H2 and a tree; the chord-angle "
        "estimate holds along the full schedule",
        rep.ok,
        summarize(rep),
    )


def test_criterion_09_cocompactness_desk_checks():
    rep, _ = run_suite_timed("cocompact", seed=0, limit=60.0)
    report(
        "criterion 9: the integer lattice is certified a net at radius 0.75; "
        "the cyclic subgroup of the free group yields an empty-horoball "
        "witness in the expected direction; its fixed ends are exactly the "
        "two axis ends",
        rep.ok,
        summarize(rep),
    )


def test_criterion_10_tits_distance_facts():
    rep, _ = run_suite_timed("tits", seed=8, limit=60.0)
    report(
        "criterion 10: Tits = angular on Euclidean samples, infinite for "
        "distinct ends on H2 and trees, and dominates the angular metric on "
        "every sampled pair",
        rep.ok,
        summarize(rep),
    )


# ---------------------------------------------------------------------------
# Criterion 11: byte determinism of the command line


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue()


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_criterion_11_cli_byte_determinism(tmp_path):
    buse = _write(
        tmp_path,
        "buse.json",
        {
            "space": {"space": "E2"},
            "ray": {"base": [0, 0], "end": {"boundary": {"direction": [1, 0]}}},
            "points": [[3, 4], [1, 1]],
        },
    )
    tits = _write(
        tmp_path,
        "tits.json",
        {"space": {"space": "H2"}, "pairs": [[{"xi": "0"}, {"xi": "inf"}], [{"xi": "1/2"}, {"xi": "1/2"}]]},
    )
    char = _write(
        tmp_path,
        "char.json",
        {
            "action": {
                "space": {"space": "tree", "descriptor": {"type": "hnn", "index": 3}},
                "generators": {"a": {"shift": 0, "add": "1"}, "t": {"shift": 1, "add": "0"}},
            },
            "end": {"up": True},
            "base": {"vertex": {"level": 0, "center": "0"}},
            "words": ["t", "a", "tat"],
        },
    )
    shift = _write(
        tmp_path,
        "shift.json",
        {
            "space": {"space": "tree", "descriptor": {"type": "cayley", "rank": 2}},
            "config": {"x": {"vertex": "a"}, "y": {"vertex": ""}},
            "map": {"x": {"vertex": "aa"}, "y": "x"},
            "end": {"period": [1]},
        },
    )
    cocompact = _write(
        tmp_path,
        "cocompact.json",
        {
            "action": {
                "space": {"space": "E2"},
                "generators": {
                    "a": {"matrix": [[1, 0], [0, 1]], "translation": [1, 0]},
                    "b": {"matrix": [[1, 0], [0, 1]], "translation": [0, 1]},
                },
            },
            "base": [0, 0],
        },
    )
    graph = _write(tmp_path, "c4.json", {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]})
    summary = _write(
        tmp_path,
        "summary.json",
        {"fl_group": 4, "fl_stabilizers": 2, "has_fixed_end": True, "cl_character": 3},
    )
    mfpr = _write(
        tmp_path,
        "mfpr.json",
        {"k": 2, "complement": [[1, 0], [0, 1], [-1, -1]], "splitting_character": ["-1", "0"]},
    )
    audit = _write(
        tmp_path,
        "audit.json",
        {
            "space": {"space": "H2"},
            "center": {"x": 0, "y": 1},
            "r": 1,
            "eps": "1/10",
            "ends": [{"xi": "inf"}, {"xi": "50"}],
            "samples": 25,
        },
    )
    commands = [
        ["busemann", "--data", buse],
        ["tits", "--data", tits],
        ["character", "--data", char],
        ["shift", "--data", shift],
        ["cocompact", "--data", cocompact, "--radius", "0.75", "--seed", "7"],
        ["raag", "--graph", graph, "--n", "2"],
        ["tree-sigma", "--data", summary, "--table"],
        ["mfpr", "--data", mfpr, "--table"],
        ["audit", "--data", audit, "--which", "local-busemann", "--seed", "7"],
        ["verify", "--suite", "raag", "--seed", "7"],
    ]
    ok = True
    for argv in commands:
        code1, out1 = _cli(argv)
        code2, out2 = _cli(argv)
        same = code1 == code2 and out1 == out2 and out1
        if not same:
            print(f"nondeterministic: {argv}")
        ok = ok and bool(same)
    report(
        "criterion 11: every command byte-identical across two runs with the "
        "same seed",
        ok,
        f"{len(commands)} commands",
    )
