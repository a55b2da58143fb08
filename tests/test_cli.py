"""Command-line interface: every command, exit codes, determinism,
round-tripping of emitted JSON."""

import collections
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from cat0sigma import cli, raag, spaces as sp, verify
from cat0sigma.errors import UsageError
from cat0sigma.trees import CayleyTree, HnnTree, TreeModel
from oracles import ReferenceRefusal, reference_parse, reference_parser


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def busemann_file(tmp_path):
    return write(
        tmp_path,
        "buse.json",
        {
            "space": {"space": "H2"},
            "ray": {"base": {"x": 0, "y": 1}, "end": {"boundary": {"xi": "inf"}}},
            "points": [{"x": 0, "y": 2}, {"x": 3, "y": 1}],
            "schedule": [1, 2, 5, 10, 20, 40],
        },
    )


def test_busemann_command(busemann_file):
    code, out, err = run_cli(["busemann", "--data", busemann_file])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert abs(payload["values"][0] - 0.6931471805599453) < 1e-12
    assert all(a["monotone"] and a["bounded"] for a in payload["limit_audit"])
    assert payload["seed"] == 0


def test_tits_command(tmp_path):
    data = write(
        tmp_path,
        "tits.json",
        {
            "space": {"space": "E2"},
            "pairs": [
                [{"direction": [1, 0]}, {"direction": [0, 1]}],
                [{"direction": [1, 0]}, {"direction": [1, 0]}],
            ],
        },
    )
    code, out, _ = run_cli(["tits", "--data", data])
    assert code == 0
    results = json.loads(out)["results"]
    assert abs(results[0]["tits"] - results[0]["angular"]) < 1e-12
    assert results[1]["tits"] == 0.0


def test_character_command(tmp_path):
    data = write(
        tmp_path,
        "char.json",
        {
            "action": {
                "space": {"space": "tree", "descriptor": {"type": "hnn", "index": 2}},
                "generators": {
                    "a": {"shift": 0, "add": "1"},
                    "t": {"shift": 1, "add": "0"},
                },
            },
            "end": {"up": True},
            "base": {"vertex": {"level": 0, "center": "0"}},
            "words": ["t", "a", "at"],
        },
    )
    code, out, _ = run_cli(["character", "--data", data])
    assert code == 0
    values = json.loads(out)["values"]
    assert values == {"a": "0", "at": "-1", "t": "-1"}


# An end that a generator moves, with the repr of that end in the diagnostic:
# (space, generator, end, base, the generator's name and the end's repr).
MOVED_ENDS = {
    "cayley": ({"space": "tree", "descriptor": {"type": "cayley", "rank": 2}}, {"word": [1]}, {"period": [2]},
               {"vertex": []}, "a", "WordEnd(prefix=(), period=(2,))"),
    "hnn": ({"space": "tree", "descriptor": {"type": "hnn", "index": 2}}, {"shift": 0, "add": "1"}, {"down": "1/2"},
            {"vertex": {"level": 0, "center": "0"}}, "a", "HnnDown(value=Fraction(1, 2))"),
    "e2": ({"space": "E2"}, {"matrix": [[0, -1], [1, 0]], "translation": [0, 0]}, {"direction": [1, 0]}, [0, 0],
           "r", "EDirection(vector=(1.0, 0.0))"),
}


@pytest.mark.parametrize("case", list(MOVED_ENDS.values()), ids=list(MOVED_ENDS))
def test_a_moved_end_is_named_by_its_repr(tmp_path, case):
    space, generator, end, base, name, shown = case
    payload = {"action": {"space": space, "generators": {name: generator}}, "end": end, "base": base, "words": [name]}
    code, out, err = run_cli(["character", "--data", write(tmp_path, "char.json", payload)])
    message = f"generator {name!r} moves the boundary point {shown}"
    assert (code, out, err) == (2, "", json.dumps({"error": "EndNotFixed", "message": message}) + "\n")


def test_shift_command(tmp_path):
    data = write(
        tmp_path,
        "shift.json",
        {
            "space": {"space": "E2"},
            "config": {"x": [0, 0], "y": [1, 2]},
            "map": {"x": [1, 0], "y": [2, 2]},
            "end": {"direction": [1, 0]},
        },
    )
    code, out, _ = run_cli(["shift", "--data", data])
    assert code == 0
    payload = json.loads(out)
    assert payload["gsh"] == 1.0 and payload["is_contraction"] is True


def test_cocompact_command(tmp_path):
    data = write(
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
    code, out, _ = run_cli(["cocompact", "--data", data, "--radius", "0.75"])
    assert code == 0
    assert json.loads(out)["verdict"] == "NetCertificate"


def test_raag_command(tmp_path):
    graph = write(tmp_path, "c4.json", {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]})
    code, out, _ = run_cli(["raag", "--graph", graph, "--n", "2"])
    assert code == 0
    assert json.loads(out)["membership"] == "Out"
    code, out, _ = run_cli(["raag", "--graph", graph, "--n", "1"])
    assert json.loads(out)["membership"] == "In"
    # Edge-list input.
    path = tmp_path / "graph.txt"
    path.write_text("a b\nb c\n", encoding="utf-8")
    code, out, _ = run_cli(["raag", "--graph", str(path), "--n", "1"])
    assert code == 0 and json.loads(out)["membership"] == "In"


def test_tree_sigma_command(tmp_path):
    data = write(
        tmp_path,
        "summary.json",
        {"fl_group": 3, "fl_stabilizers": 1, "has_fixed_end": True, "cl_character": 2},
    )
    code, out, _ = run_cli(["tree-sigma", "--data", data, "--table"])
    assert code == 0
    table = json.loads(out)["table"]
    assert [row["value"] for row in table] == [
        "whole_boundary",
        "whole_boundary",
        "singleton",
        "empty",
    ]
    code, out, _ = run_cli(["tree-sigma", "--data", data, "--n", "2"])
    assert json.loads(out)["value"] == "singleton"


def test_mfpr_command(tmp_path):
    data = write(
        tmp_path,
        "mfpr.json",
        {"k": 1, "complement": [[1], [-1]], "splitting_character": ["-1"]},
    )
    code, out, _ = run_cli(["mfpr", "--data", data, "--table"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lengths"] == {"cl_character": 1, "fl_base": 1, "fl_group": 1}
    assert [row["value"] for row in payload["table"]] == ["whole_boundary", "whole_boundary"]


def test_mfpr_and_tree_sigma_share_the_degree_report(tmp_path):
    # An MFPR splitting with lengths fl(G) = inf, cl(chi) = inf, base 1, and
    # a tree-sigma summary with the same lengths: the same flags give the
    # same table and value.
    mfpr = write(
        tmp_path, "m.json", {"k": 2, "complement": [[-2, -1], [1, 2], [2, 3]], "splitting_character": ["-2", "-4"]}
    )
    summary = write(
        tmp_path, "s.json", {"fl_group": "inf", "fl_stabilizers": 1, "has_fixed_end": True, "cl_character": "inf"}
    )
    for n in ("1", "2"):
        reports = []
        for command, data in (("mfpr", mfpr), ("tree-sigma", summary)):
            payloads = []
            for flags in (["--table"], []):
                code, out, err = run_cli([command, "--data", data, "--n", n, *flags])
                assert (code, err) == (0, ""), command
                payloads.append(json.loads(out))
            reports.append((payloads[0]["table"], payloads[1]["value"]))
        assert reports[0] == reports[1]
    assert reports[0] == (
        [{"n": 0, "value": "whole_boundary"}, {"n": 1, "value": "whole_boundary"}, {"n": 2, "value": "singleton"}],
        "singleton",
    )


@pytest.mark.parametrize("command", ["mfpr", "tree-sigma"])
def test_degree_tables_have_a_row_budget(tmp_path, command):
    # Both inputs have infinite fl(G); --n 3000000 --table once wrote 167 MB.
    data = write(
        tmp_path,
        "d.json",
        {"k": 2, "complement": [[-2, -1], [1, 2], [2, 3]], "splitting_character": ["-2", "-4"]}
        if command == "mfpr"
        else {"fl_group": "inf", "fl_stabilizers": 1, "has_fixed_end": False},
    )
    for n in (10**4, 3 * 10**6, 10**9):
        code, out, err = run_cli([command, "--data", data, "--n", str(n), "--table"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "DegreeOutOfRange",
            "message": f"a table to degree {n} exceeds the table budget of 10000 rows",
        }
    code, out, _ = run_cli([command, "--data", data, "--n", str(10**4 - 1), "--table"])
    assert code == 0 and len(json.loads(out)["table"]) == 10**4


NEGATIVE_DEGREE = {
    f"{command}-{name}": (command, flags)
    for command in ("mfpr", "tree-sigma")
    for name, flags in (("table", ["--table"]), ("value", []))
}
NEGATIVE_DEGREE["raag-value"] = ("raag", [])


@pytest.mark.parametrize("command,flags", list(NEGATIVE_DEGREE.values()), ids=list(NEGATIVE_DEGREE))
def test_negative_degree_is_an_input_error(tmp_path, command, flags):
    data = write(
        tmp_path,
        "d.json",
        {"k": 1, "complement": [[1], [-1]], "splitting_character": ["-1"]}
        if command == "mfpr"
        else {"vertices": [0, 1], "edges": [[0, 1]]}
        if command == "raag"
        else {"fl_group": 3, "fl_stabilizers": 1, "has_fixed_end": True, "cl_character": 2},
    )
    flag = "--graph" if command == "raag" else "--data"
    code, out, err = run_cli([command, flag, data, "--n", "-1", *flags])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "DegreeOutOfRange"


@pytest.mark.parametrize("graph", ["raag_octahedron.json", "raag_icosahedron.json"], ids=["join", "not-a-join"])
def test_raag_negative_degree_diagnostic(monkeypatch, graph):
    # The octahedron's core is a join of three factors; the icosahedron's
    # complement is connected.  Both refuse --n -1 with the same diagnostic,
    # before any flag complex is built.
    calls = count_raag_calls(monkeypatch)
    code, out, err = run_cli(["raag", "--graph", str(GOLDEN / graph), "--n", "-1"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "DegreeOutOfRange", "message": "degree -1 is negative"}
    assert calls == {"flag_complex": 0, "homology": 0}


def test_mfpr_rejects_rank_zero(tmp_path):
    data = write(tmp_path, "m0.json", {"k": 0, "complement": [], "splitting_character": []})
    code, out, err = run_cli(["mfpr", "--data", data, "--table"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ValueError"


GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_mfpr_stdout_matches_golden_files():
    # Byte-exact stdout of mfpr on the inputs in tests/golden/, recorded
    # with the unbounded simplex subset search that preceded the kernel
    # search: ranks 1-4, zero and nonzero splitting characters, a pointed
    # cone with m(0) infinite.
    cases = json.loads((GOLDEN / "mfpr_stdout.json").read_text(encoding="utf-8"))
    assert len(cases) == 18
    for case in cases:
        code, out, _ = run_cli(["mfpr", "--data", str(GOLDEN / case["input"])] + case["args"])
        assert (code, out) == (case["code"], case["stdout"]), case["input"]


@pytest.mark.parametrize("sigma_log", [None, "1"], ids=["quiet", "SIGMA_LOG"])
def test_cli_stdout_matches_golden_files(sigma_log, monkeypatch):
    # Byte-exact stdout of the other nine commands on the inputs in
    # tests/golden/ (E2, E3, H2, Cayley and HNN trees; boundary and point
    # ray ends; custom schedules).  Progress logging goes to stderr only,
    # so turning it on must leave stdout unchanged.
    if sigma_log is None:
        monkeypatch.delenv("SIGMA_LOG", raising=False)
    else:
        monkeypatch.setenv("SIGMA_LOG", sigma_log)
    cases = json.loads((GOLDEN / "cli_stdout.json").read_text(encoding="utf-8"))
    assert sorted({case["argv"][0] for case in cases}) == sorted(set(cli.HANDLERS) - {"mfpr"})
    for case in cases:
        argv = [str(GOLDEN / a) if a.endswith((".json", ".txt")) else a for a in case["argv"]]
        code, out, _ = run_cli(argv)
        assert (code, out) == (case["code"], case["stdout"]), case["argv"]


def _exact_fields(command, report):
    """The exact values of a tree report, as docs/formats.md lists them."""
    if command == "busemann":
        return report["values"] + [a["final"] for a in report["limit_audit"]]
    if command == "character":
        return list(report["values"].values())
    if command == "shift":
        return [*report["shifts"].values(), *report["displacements"].values(), report["gsh"], report["norm"]]
    if command == "cocompact":
        detail = report["detail"]
        names = ("max_min_distance", "level", "max_orbit_busemann", "max_region_busemann")
        return [detail[name] for name in names if name in detail]
    if command == "audit" and report["which"] == "local-busemann":
        return [report["worst_slack"], report["details"]["R"], report["details"]["rhs"]]
    return []


def golden_report(*argv):
    """The report of the golden job with this command line."""
    case = next(c for c in json.loads((GOLDEN / "cli_stdout.json").read_text(encoding="utf-8")) if c["argv"] == list(argv))
    return json.loads(case["stdout"])


def test_goldens_of_budgets_and_edge_forms_match_values_computed_apart(tmp_path):
    # Each golden job that runs a branch no other golden runs, against a
    # value that does not come from the code path it runs.
    def reason(data, radius, depth):
        report = golden_report("cocompact", "--data", data, "--radius", radius, "--depth", depth)
        return report["verdict"], report["detail"]["reason"]

    # Z^2 at radius 0.1 is covered by neither: no net and no empty horoball.
    assert reason("cocompact_e2.json", "0.1", "6") == ("UnknownVerdict", "no certificate within depth 6")
    # E7's grid has 8^7 points, past the budget of 8^6.
    assert reason("cocompact_e7.json", "1", "1") == (
        "UnknownVerdict", f"region budget of {8**6} grid points exceeded in E7"
    )
    # The identity's orbit is the base alone; the HNN(6) ball of radius 7
    # holds 1 + 7 (6^7 - 1) / 5 vertices, past the budget.
    assert 1 + 7 * (6**7 - 1) // 5 > 8**6
    assert reason("cocompact_hnn6_identity.json", "1", "14") == (
        "UnknownVerdict", f"region budget of {8**6} vertices exceeded in tree"
    )
    # Toward 0 from i, the Busemann value is log(Im z / |z|^2), here in logs.
    far = golden_report("busemann", "--data", "busemann_h2_far.json")["values"]
    assert far == pytest.approx([-2 * math.log(1e152), math.log(1e-150) - 2 * math.log(1e153)], rel=1e-15)
    assert far[1] == -1049.9788024052848
    # Toward 5i from i: d(i, 5i) - d(z, 5i), with d(z, w) = arccosh(1 + |z - w|^2 / (2 Im z Im w)).
    vertical = golden_report("busemann", "--data", "busemann_h2_vertical.json")["values"]
    assert vertical == pytest.approx([math.log(2), math.log(5 / 2), math.log(5) - math.acosh(1 + 17 / 10)], rel=1e-14)
    empty = golden_report("raag", "--graph", "raag_empty.json")
    assert (empty["membership"], empty["verdict"]["nonempty"]) == ("Out", False)
    assert golden_report("character", "--data", "character_h2_float.json")["values"] == {}
    # fl(G) infinite tabulates to degree 8, as fl(G) = 8 does.
    finite = dict(json.loads((GOLDEN / "tree_sigma_inf.json").read_text(encoding="utf-8")), fl_group=8)
    _, out, _ = run_cli(["tree-sigma", "--data", write(tmp_path, "finite.json", finite), "--table"])
    assert golden_report("tree-sigma", "--data", "tree_sigma_inf.json", "--table")["table"] == json.loads(out)["table"]
    # An integral float index and a level string read as the ints of busemann_hnn.json.
    assert golden_report("busemann", "--data", "busemann_hnn_number_forms.json") == golden_report(
        "busemann", "--data", "busemann_hnn.json"
    )
    # Toward the end 0 from the root, a level-L ball whose center has 3-adic
    # valuation v has Busemann value v - (L - v); the limit walk agrees.
    probe = golden_report("busemann", "--data", "busemann_hnn3_probe.json")
    document = json.loads((GOLDEN / "busemann_hnn3_probe.json").read_text(encoding="utf-8"))
    expected = []
    for point in document["points"]:
        center, v = int(point["vertex"]["center"]), 0
        while center % 3 == 0:
            center, v = center // 3, v + 1
        expected.append(str(2 * v - point["vertex"]["level"]))
    assert probe["values"] == expected == [a["final"] for a in probe["limit_audit"]]


def test_exact_values_of_tree_goldens_are_strings():
    # The trees hold integral values as ints; a report prints every exact
    # value, integral or not, as a string.
    seen = set()  # the commands whose reports held an integral exact value
    for case in json.loads((GOLDEN / "cli_stdout.json").read_text(encoding="utf-8")):
        if case["argv"][0] in ("raag", "verify", "tree-sigma", "tits"):
            continue
        data = json.loads((GOLDEN / case["argv"][2]).read_text(encoding="utf-8"))
        space = data.get("space") or data["action"]["space"]
        if space["space"] != "tree":
            continue
        code, out, _ = run_cli([str(GOLDEN / a) if a.endswith(".json") else a for a in case["argv"]])
        assert code == case["code"]
        fields = _exact_fields(case["argv"][0], json.loads(out))
        assert all(isinstance(x, str) for x in fields), case["argv"]
        seen.update(case["argv"][0] for x in fields if "/" not in x)
    assert seen == {"busemann", "character", "shift", "cocompact", "audit"}


def test_options_exist_only_where_a_command_reads_them(tmp_path):
    # An option that a command would ignore is a usage error, reported on
    # the given stderr as one line of JSON: --out, --space, --tol and --csv
    # on every command, since the report goes to stdout only, the space
    # comes from the data file only, the tolerance is spaces.GLOBAL_TOL and
    # the degree table is in the report; --svg on raag, which draws no
    # picture; and --seed on the seven commands that draw nothing, whose
    # reports give seed 0.  --out, --csv and --svg write no file.
    report = tmp_path / "report.json"
    first = {}
    for argv in golden_command_lines():
        first.setdefault(argv[0], argv)
    seedless = ("busemann", "tits", "character", "shift", "raag", "tree-sigma", "mfpr")
    lines = [["raag"]]
    for option, value in (("--out", str(report)), ("--space", "E2"), ("--tol", "1e-3"), ("--csv", str(report))):
        lines += [[*argv, option, value] for argv in first.values()]
    lines.append([*first["raag"], "--svg", str(report)])
    lines += [[*first[name], "--seed", "1"] for name in seedless]
    for argv in lines:
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "UsageError"
    assert len(first) == 10 and not report.exists()
    for name in seedless:
        code, out, _ = run_cli(first[name])
        assert code in (0, 1) and json.loads(out)["seed"] == 0


def test_every_option_of_a_command_is_read_by_its_handler(monkeypatch):
    # Over the golden command lines, each command's handler reads every
    # option of its parser, except --data, which run() reads.  An option
    # that no handler reads could only be ignored.
    read = collections.defaultdict(set)

    def recording(name, handler):
        class Recording(types.SimpleNamespace):
            def __getattribute__(self, attr):
                read[name].add(attr)
                return super().__getattribute__(attr)

        return lambda args, data: handler(Recording(**vars(args)), data)

    for name, handler in list(cli.HANDLERS.items()):
        monkeypatch.setitem(cli.HANDLERS, name, recording(name, handler))
    for argv in golden_command_lines():
        code, _, err = run_cli(argv)
        assert code in (0, 1), (argv, err)
    assert sorted(cli.OPTIONS) == sorted(cli.HANDLERS)
    for name, table in cli.OPTIONS.items():
        options = {option[2:] for option in table} - {"data"}
        assert options - read[name] == set(), name


def test_a_picture_is_refused_before_anything_is_computed(monkeypatch, tmp_path):
    # A picture of more than S^2 is refused with exit 2 before the m-function
    # is computed, raag refuses --svg as a usage error before a flag complex
    # is computed, and no file is written.
    from cat0sigma import treesigma

    calls = collections.Counter()
    for module, name in ((treesigma, "mfpr_lengths"), (raag, "flag_complex")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=original, _n=name: calls.update([_n]) or _f(*args))
    svg = tmp_path / "picture.svg"
    code, out, err = run_cli(["mfpr", "--data", str(GOLDEN / "mfpr_rank4_circuit.json"), "--svg", str(svg)])
    assert (code, out) == (2, "")
    message = "can draw S^0, S^1, S^2 only, not k = 4"
    assert err.splitlines() == [json.dumps({"error": "UnsupportedDimension", "message": message}, sort_keys=True)]
    code, out, err = run_cli(["raag", "--graph", str(GOLDEN / "raag_k4.json"), "--svg", str(svg)])
    assert (code, out, len(err.splitlines()), json.loads(err)["error"]) == (2, "", 1, "UsageError")
    assert dict(calls) == {} and not svg.exists()


def test_a_picture_of_an_empty_complement_shows_the_empty_sphere(tmp_path):
    # The rank comes from the data, not from a first point: with no
    # complement the picture is the empty S^0, S^1 or S^2, and the report is
    # the one without --svg plus the file name.
    from cat0sigma.svg import render_sphere_svg

    for k in (1, 2, 3):
        data = write(tmp_path, f"empty{k}.json", {"k": k, "complement": [], "splitting_character": ["1"] + ["0"] * (k - 1)})
        svg = tmp_path / f"empty{k}.svg"
        code, plain, _ = run_cli(["mfpr", "--data", data])
        assert code == 0
        code, out, _ = run_cli(["mfpr", "--data", data, "--svg", str(svg)])
        assert code == 0
        report = json.loads(out)
        assert report.pop("svg") == str(svg) and report == json.loads(plain)
        assert svg.read_text(encoding="utf-8") == render_sphere_svg(k, [])


def count_raag_calls(monkeypatch) -> dict:
    """Counters on raag.flag_complex and the homology function that raag
    calls, wherever raag or the CLI holds them."""
    calls = {"flag_complex": 0, "homology": 0}
    for name in calls:
        original = getattr(raag, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (raag, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_raag_job_builds_one_flag_complex_and_one_homology(monkeypatch):
    # The icosahedron is its own core and not a join, so the verdict runs
    # on its whole flag complex.
    calls = count_raag_calls(monkeypatch)
    code, out, _ = run_cli(["raag", "--graph", str(GOLDEN / "raag_icosahedron.json"), "--n", "2"])
    assert (code, json.loads(out)["membership"]) == (0, "In")
    assert calls == {"flag_complex": 1, "homology": 1}


def test_raag_join_job_builds_one_flag_complex_and_one_homology_per_factor(monkeypatch):
    # The octahedron is the join of three pairs of antipodal points.
    calls = count_raag_calls(monkeypatch)
    code, out, _ = run_cli(["raag", "--graph", str(GOLDEN / "raag_octahedron.json"), "--n", "2"])
    assert (code, json.loads(out)["membership"]) == (0, "In")
    assert calls == {"flag_complex": 3, "homology": 3}


def count_snf_rows(monkeypatch) -> list:
    """The row count of every matrix handed to the Smith form, through the
    module global that homology() calls."""
    from cat0sigma import homology
    shapes = []
    original = homology.smith_normal_form

    def counted(matrix):
        shapes.append(len(matrix))
        return original(matrix)

    monkeypatch.setattr(homology, "smith_normal_form", counted)
    return shapes


def test_raag_job_reduces_each_boundary_map_once(monkeypatch):
    # homology() hands every boundary map to the Smith form exactly once:
    # the icosahedron at n = 2 needs degrees 0-1, so the maps from 0-, 1-
    # and 2-chains, whose rows are the augmentation target, the 12 vertices
    # and the 30 edges.
    shapes = count_snf_rows(monkeypatch)
    code, out, _ = run_cli(["raag", "--graph", str(GOLDEN / "raag_icosahedron.json"), "--n", "2"])
    assert (code, json.loads(out)["membership"]) == (0, "In")
    assert shapes == [1, 12, 30]


def test_raag_join_job_reduces_only_its_factors_boundary_maps(monkeypatch):
    # Degree 1 of a join of three factors reads no factor degree, so each
    # pair of points is profiled through degree 0: its augmentation, and no
    # edges.  Three one-row maps replace the octahedron's 1-, 6- and 12-row
    # maps.
    shapes = count_snf_rows(monkeypatch)
    code, out, _ = run_cli(["raag", "--graph", str(GOLDEN / "raag_octahedron.json"), "--n", "2"])
    assert (code, json.loads(out)["membership"]) == (0, "In")
    assert shapes == [1, 1, 1]


def test_raag_cross_polytope_of_dimension_40_takes_under_a_second(tmp_path):
    # The 40-cross-polytope is the join of 40 pairs of points: 3^40 faces,
    # none of them listed.  Its whole flag complex took 2.5 s at m = 10.
    m = 40
    graph = write(tmp_path, "cross40.json", {
        "vertices": list(range(2 * m)),
        "edges": [[i, j] for i in range(2 * m) for j in range(i + 1, 2 * m) if j != i + m],
    })
    for n, membership in ((m - 1, "In"), (m, "Out")):
        start = time.perf_counter()
        code, out, _ = run_cli(["raag", "--graph", graph, "--n", str(n)])
        assert time.perf_counter() - start < 1.0
        assert (code, json.loads(out)["membership"]) == (0, membership)


def test_raag_degree_above_the_dimension_reads_no_further_degrees():
    # Reduced homology vanishes above dim K, so --n 10^7 on K4 gives the
    # --n 4 verdict without looping over the degrees between (over 10 s
    # when every degree up to n-1 was computed).
    graph = str(GOLDEN / "raag_k4.json")
    start = time.perf_counter()
    code, out, _ = run_cli(["raag", "--graph", graph, "--n", "10000000"])
    assert time.perf_counter() - start < 1.0
    small = json.loads(run_cli(["raag", "--graph", graph, "--n", "4"])[1])
    big = json.loads(out)
    assert code == 0
    assert (big["membership"], big["verdict"]) == (small["membership"], small["verdict"])


def test_one_parser_serves_many_runs():
    # The parser is the option table, which no run changes: interleaving
    # good and malformed command lines in one process changes no result.
    golden = json.loads((GOLDEN / "cli_stdout.json").read_text(encoding="utf-8"))
    picks = [golden[i] for i in (0, 9, 13, 21, 25, len(golden) - 1)]
    before = repr(cli.OPTIONS)
    malformed = [
        [],
        ["nope"],
        ["raag", "--n", "2"],
        ["busemann", "--data"],
        ["cocompact", "--data", str(GOLDEN / "cocompact_e2.json"), "--radius", "wide"],
        ["verify", "--suite", "missing"],
    ]
    for _ in range(2):
        for case, bad in zip(picks, malformed):
            argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in case["argv"]]
            code, out, _ = run_cli(argv)
            assert (code, out) == (case["code"], case["stdout"]), case["argv"]
            code, out, err = run_cli(bad)
            assert (code, out) == (2, ""), bad
            assert json.loads(err)["error"] == "UsageError"
    assert repr(cli.OPTIONS) == before


def golden_command_lines():
    """The command line of every golden job, mfpr's included, with its input
    files resolved."""
    lines = [c["argv"] for c in json.loads((GOLDEN / "cli_stdout.json").read_text(encoding="utf-8"))]
    mfpr = json.loads((GOLDEN / "mfpr_stdout.json").read_text(encoding="utf-8"))
    lines += [["mfpr", "--data", c["input"], *c["args"]] for c in mfpr]
    return [[str(GOLDEN / a) if a.endswith((".json", ".txt")) else a for a in argv] for argv in lines]


# The argparse parser that the option table replaces, as the reference.
REFERENCE = reference_parser(cli.SUITE_NAMES)


def test_each_command_line_is_parsed_once_by_its_command(monkeypatch):
    # A command line is parsed once, by cli.parse, into the values that the
    # reference parser gives, and the handler of its command receives them.
    seen = []
    for name in cli.HANDLERS:
        monkeypatch.setitem(cli.HANDLERS, name, lambda args, data: seen.append(vars(args).copy()) or (0, {}))
    parses = []
    parse = cli.parse
    monkeypatch.setattr(cli, "parse", lambda argv: parses.append(argv[0]) or parse(argv))
    lines = golden_command_lines()
    assert {argv[0] for argv in lines} == set(cli.HANDLERS)
    for argv in lines:
        seen.clear()
        parses.clear()
        code, out, err = run_cli(argv)
        assert (code, err) == (0, ""), argv
        assert parses == [argv[0]], argv
        # run() adds the command and the seed to the handler's payload.
        assert json.loads(out) == {"command": argv[0], "seed": seen[0]["seed"]}, argv
        del seen[0]["stderr"]
        assert seen == [reference_parse(REFERENCE, argv)], argv


def read_by_table(argv) -> dict:
    return vars(cli.parse(argv))


def read_by_reference(argv):
    return reference_parse(REFERENCE, argv)


def outcome(read, argv):
    """("values", dict), ("help", command) or ("refused", message) for argv
    read by read_by_table or read_by_reference; a float value as its repr,
    so that a nan compares."""
    try:
        values = read(argv)
    except (UsageError, ReferenceRefusal) as exc:
        return "refused", str(exc)
    except cli.HelpAsked as exc:
        return "help", exc.args[0]
    if isinstance(values, tuple):  # the reference's help
        return values
    return "values", {k: repr(v) if isinstance(v, float) else v for k, v in values.items()}


# Words of command lines: every command and option name, prefixes that are
# unique or ambiguous (--d on cocompact, --s on verify), numbers, negative
# numbers, "-", "--", "-h" and its runs, and words that name nothing.
OPTION_NAMES = sorted({option for table in cli.OPTIONS.values() for option in table}) + ["-h", "--help"]
PREFIXES = ["--d", "--da", "--de", "--s", "--se", "--su", "--r", "--t", "--w", "--h", "--he", "--g", "--sv", "---", "-hh", "-hx", "-x"]
VALUES = [
    "in.json", "0", "3", "-1", "-.5", "-1e5", "1e3", "2.5", "nan", " 7", "1_0", "-1.", "-", "--", "-h", "", "x",
    "1 2", "all", "sl2z", "local-busemann", "angle-estimate", "hh", "--data x",
]
WORDS = st.one_of(
    st.sampled_from(OPTION_NAMES + PREFIXES + VALUES + ["nope", "mf"] + list(cli.OPTIONS)),
    st.builds("{}={}".format, st.sampled_from(OPTION_NAMES + PREFIXES[:-3] + ["-h", "--"]), st.sampled_from(VALUES)),
)


@st.composite
def command_lines(draw):
    """A command and some of its options with values, in full or by a
    prefix, with words of the vocabulary put in anywhere; one line in ten
    has no command first."""
    command = draw(st.sampled_from(list(cli.OPTIONS)))
    argv = [command] if draw(st.integers(0, 9)) else []
    for option in draw(st.lists(st.sampled_from(list(cli.OPTIONS[command])), max_size=4)):
        name = option[: draw(st.integers(3, len(option)))]
        value = draw(st.sampled_from(VALUES + ["3", "0.5", "in.json"]))
        argv += draw(st.sampled_from([[name, value], [f"{name}={value}"], [name]]))
    for word in draw(st.lists(WORDS, max_size=3)):
        argv.insert(draw(st.integers(0, len(argv))), word)
    return argv


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(command_lines())
def test_the_option_table_parses_as_argparse_did(argv):
    # Every line is accepted with the same values, answered with the same
    # usage, or refused with the same message as by the reference parser.
    assert outcome(read_by_table, argv) == outcome(read_by_reference, argv)


FORMS = {
    "negative-values-prefixes-and-repeats": [
        "cocompact", "--data", "in.json", "--radius=-.5", "--depth", "-1", "--de", "2", "--seed=-3", "--seed", "4"
    ],
    "unique-prefixes": ["verify", "--su", "sl2z", "--se=7"],
    "attached-values-and-dash": ["mfpr", "--da=in.json", "--tab", "--n", "-0", "--svg", "-"],
    "last-wins": ["raag", "--graph", "g.json", "--n", "1", "--n", "2"],
    "padded-int": ["audit", "--data", "in.json", "--which", "angle-estimate", "--seed", " 5"],
    "help-run": ["busemann", "-hh"],
    "help-after-unknown": ["--bogus", "busemann", "--help"],
    "ambiguous-on-cocompact": ["cocompact", "--d", "x"],
    "ambiguous-on-verify": ["verify", "--s", "1"],
    "ambiguous-before-help": ["cocompact", "--help", "--d"],
    "exponent-is-an-option": ["cocompact", "--data", "x", "--radius", "-1e5"],
    "after-double-dash": ["busemann", "--data", "x", "--", "y"],
    "attached-double-dash": ["busemann", "--data=--"],
    "flag-with-value": ["tree-sigma", "--data", "x", "--table=1"],
    "help-with-value": ["-hx"],
    "double-dash-alone": ["--"],
    "double-dash-command": ["--", "busemann"],
    "negative-command": ["-5", "busemann"],
}


@pytest.mark.parametrize("argv", list(FORMS.values()), ids=list(FORMS))
def test_the_forms_of_a_command_line_parse_as_argparse_did(argv):
    result = outcome(read_by_table, argv)
    assert result == outcome(read_by_reference, argv)
    assert result[0] in ("values", "help", "refused")


def test_an_attached_double_dash_and_an_empty_file_name_are_read_as_file_names(tmp_path):
    # argparse stored [] for --data=--, and run() read no file for an empty
    # --data, so that both failed with a traceback; now each names a file
    # that does not exist.
    for argv in (["busemann", "--data=--"], ["busemann", "--data", ""], ["raag", "--graph=--"]):
        code, out, err = run_cli(argv)
        assert (code, out, json.loads(err)["error"]) == (2, "", "FileNotFoundError"), argv
    assert run_cli(["verify", "--suite=--"])[0] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "cat0sigma: the following arguments are required: command"),
        (["nope"], "cat0sigma: argument command: invalid choice: 'nope' (choose from 'busemann', 'tits', "
         "'character', 'shift', 'cocompact', 'raag', 'tree-sigma', 'mfpr', 'audit', 'verify')"),
        (["--bogus"], "cat0sigma: the following arguments are required: command"),
        (["mfpr", "--data", "x.json", "--bogus"], "cat0sigma mfpr: unrecognized arguments: --bogus"),
    ],
    ids=["empty", "unknown-command", "unknown-top-level-option", "unknown-option"],
)
def test_malformed_command_lines_are_one_line_usage_errors(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [json.dumps({"error": "UsageError", "message": message}, sort_keys=True)]


def test_parser_is_not_built_at_import():
    # Importing the CLI loads only the errors and the JSON readers of the
    # package, and none of argparse, gettext, dataclasses and inspect: the
    # parser is the option table.  Each command then loads the modules it
    # uses and no other.  Every probe runs in a fresh interpreter.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'cat0sigma')"
    added = f"sorted(set({sorted(UNLOADED)!r}) & (set(sys.modules) - before))"

    def probe(code):
        script = (
            "import io, json, sys\nbefore = set(sys.modules)\nimport cat0sigma.cli as c\n"
            f"out = [{added}, {code}, {loaded}]\nprint(json.dumps(out))"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        return json.loads(result.stdout)

    assert probe("None") == [[], None, ["cat0sigma", "cat0sigma.cli", "cat0sigma.errors", "cat0sigma.jsonio"]]
    unused = {
        "mfpr --data mfpr_rank4_circuit.json --table": "actions spaces trees raag homology verify exactlp",
        "raag --graph raag_octahedron.json --n 2": "sphere svg actions spaces trees treesigma verify exactlp",
        "busemann --data busemann_cayley.json": "sphere raag homology treesigma verify exactlp",
        "busemann --data busemann_h2.json": "trees words actions sphere raag homology treesigma verify exactlp",
    }
    for job, modules in unused.items():
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in job.split()]
        _, code, names = probe(f"c.run({argv!r}, stdout=io.StringIO())")
        assert code == 0 and {f"cat0sigma.{m}" for m in modules.split()}.isdisjoint(names), (job, names)


# Modules that neither the CLI nor any command loads.
UNLOADED = {"argparse", "gettext", "dataclasses", "inspect"}
# One golden command line of each command.
ONE_LINE_EACH = (
    "busemann --data busemann_cayley.json",
    "tits --data tits_e3.json",
    "character --data character_hnn.json",
    "shift --data shift_e2.json",
    "cocompact --data cocompact_e2.json --radius 0.75 --depth 4",
    "raag --graph raag_c4.json",
    "tree-sigma --data tree_sigma.json --table",
    "mfpr --data mfpr_rank4_circuit.json --table",
    "audit --data audit_local_e2.json --which local-busemann",
    "verify --suite sl2z",
)


def test_no_command_loads_dataclasses_or_inspect():
    # The value classes derive from value.Value, which imports neither, and
    # the command line is read from the option table, without argparse and
    # the gettext it imports.  Every line runs in a fresh interpreter.
    assert sorted(job.split()[0] for job in ONE_LINE_EACH) == sorted(cli.OPTIONS)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    script = (
        "import io, sys\nbefore = set(sys.modules)\nimport cat0sigma.cli as c\n"
        "code = c.run(sys.argv[1:], stdout=io.StringIO())\n"
        f"print(code, sorted(set({sorted(UNLOADED)!r}) & (set(sys.modules) - before)))"
    )
    for job in ONE_LINE_EACH:
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in job.split()]
        result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, check=True)
        assert result.stdout == "0 []\n", job


def test_package_exports_and_suite_names():
    # The package holds no table of names: each is imported from the
    # submodule that defines it.
    with pytest.raises(ImportError):
        from cat0sigma import ray_from  # noqa: F401
    from cat0sigma.spaces import ray_from  # noqa: F401
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))


def test_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = ["verify", "--suite", "tits", "--seed", "3"]
    result = subprocess.run([sys.executable, "-m", "cat0sigma"] + argv, capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout) == run_cli(argv)[:2]


def test_busemann_job_checks_each_parsed_point_once(monkeypatch):
    # The points and the ray base are checked where they are parsed; the
    # Busemann value, the limit audit and the bound compute on them as
    # they are.  A second check would walk each deep word again.
    data = json.loads((GOLDEN / "busemann_cayley_deep.json").read_text(encoding="utf-8"))
    tree = CayleyTree(data["space"]["descriptor"]["rank"])
    parsed = [tree.parse_vertex(p["vertex"]) for p in data["points"] + [data["ray"]["base"]]]
    assert max(map(len, parsed)) > 500
    checked = collections.Counter()
    check_vertex = CayleyTree.check_vertex

    def counted(self, vertex):
        checked[vertex] += 1
        return check_vertex(self, vertex)

    monkeypatch.setattr(CayleyTree, "check_vertex", counted)
    golden = next(c for c in json.loads((GOLDEN / "cli_stdout.json").read_text(encoding="utf-8"))
                  if c["argv"] == ["busemann", "--data", "busemann_cayley_deep.json"])
    code, out, _ = run_cli(["busemann", "--data", str(GOLDEN / "busemann_cayley_deep.json")])
    assert (code, out) == (golden["code"], golden["stdout"])
    assert {v: checked[v] for v in parsed} == {v: 1 for v in parsed}


def test_busemann_job_checks_its_ray_end_once(monkeypatch):
    # parse_boundary checks the end where it is read; the ray built from it
    # takes it as it is.
    ends = []
    check_boundary = CayleyTree.check_boundary
    monkeypatch.setattr(CayleyTree, "check_boundary", lambda self, end: ends.append(end) or check_boundary(self, end))
    code, _, _ = run_cli(["busemann", "--data", str(GOLDEN / "busemann_cayley_deep.json")])
    assert code == 0 and len(ends) == 1


# Point and end checks, and tree rays built, per golden job.  The readers
# only parse, and each value is checked once, by the library function it is
# handed to; a character job checks its end and base once for all its words
# and builds one ray, a local audit checks its center once for all its
# samples, and a shift job checks each point, raw image and its end once.
# Nothing computes a check on an image, a sample, an orbit point, a ray
# point or a probe end.
CHECKS_PER_JOB = {
    "tits_tree.json": {"check_boundary": 6},
    "character_cayley.json": {"check_point": 1, "check_boundary": 1, "ray_from": 1},
    "character_hnn.json": {"check_point": 1, "check_boundary": 1, "ray_from": 1},
    "cocompact_f2.json": {"check_point": 1},
    "audit_local_tree.json": {"check_point": 1, "check_boundary": 2, "ray_from": 2},
    "audit_local_e2.json": {"check_point": 1},
    "audit_angle_tree.json": {"check_point": 1, "check_boundary": 2, "ray_from": 2},
    "shift_tree.json": {"check_point": 4, "check_boundary": 1, "ray_from": 1},
}


def test_golden_jobs_check_each_point_and_end_once(monkeypatch):
    counts = collections.Counter()

    def counted(cls, method):
        original = getattr(cls, method)
        monkeypatch.setattr(cls, method, lambda *args: counts.update([method]) or original(*args))

    for cls in (sp.EuclideanSpace, sp.HyperbolicPlane, TreeModel):
        counted(cls, "check_point")
    for cls in (CayleyTree, HnnTree):
        counted(cls, "check_boundary")
    counted(TreeModel, "ray_from")
    cases = json.loads((GOLDEN / "cli_stdout.json").read_text(encoding="utf-8"))
    for name, expected in CHECKS_PER_JOB.items():
        case = next(c for c in cases if c["argv"][2] == name)
        counts.clear()
        code, out, _ = run_cli([str(GOLDEN / a) if a.endswith(".json") else a for a in case["argv"]])
        assert (code, out) == (case["code"], case["stdout"])
        assert dict(counts) == expected, name


def test_character_job_with_a_long_generator_takes_seconds(tmp_path):
    # h = c a c^-1 with |c| = 10^5 fixes the end c a^inf.  Moving that end
    # by h leaves about 2 |c| letters a after c, all rolled back into the
    # period; one copy of the prefix per letter took minutes.
    c = [1, 2] * 50_000
    word = c + [1] + [-x for x in reversed(c)]
    data = write(
        tmp_path,
        "long.json",
        {
            "action": {
                "space": {"space": "tree", "descriptor": {"type": "cayley", "rank": 2}},
                "generators": {"h": {"word": word}},
            },
            "end": {"prefix": c, "period": [1]},
            "base": {"vertex": []},
            "words": ["h", "H", "hh"],
        },
    )
    start = time.perf_counter()
    code, out, _ = run_cli(["character", "--data", data])
    assert time.perf_counter() - start < 5.0
    assert (code, json.loads(out)["values"]) == (0, {"H": "-1", "h": "1", "hh": "2"})


def test_help_goes_to_the_given_stdout(capsys):
    for argv in (["--help"], ["raag", "--help"]):
        buf = io.StringIO()
        assert cli.run(argv, stdout=buf) == 0
        assert buf.getvalue().startswith("usage: cat0sigma")
        assert capsys.readouterr() == ("", "")
    # Each command's usage is built from its row of the option table.
    for command, table in cli.OPTIONS.items():
        buf = io.StringIO()
        assert cli.run([command, "-h"], stdout=buf) == 0
        assert buf.getvalue() == cli.usage(command)
        assert [w.strip("[]") for w in buf.getvalue().split() if w.lstrip("[").startswith("--")] == list(table)
    assert cli.usage() == "usage: cat0sigma [-h] {" + ",".join(cli.OPTIONS) + "} ...\n"
    # Without a stdout argument the usage goes to sys.stdout, as before.
    assert cli.run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: cat0sigma")


def test_h2_ray_end_below_the_axis_is_reported_as_a_point(tmp_path):
    ray = {"base": {"x": 0, "y": 1}, "end": {"point": [1, -1]}}
    data = write(tmp_path, "h2.json", {"space": {"space": "H2"}, "ray": ray, "points": []})
    code, out, err = run_cli(["busemann", "--data", data])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "WrongSpace", "message": "point (1-1j) is not in the upper half-plane"}


def test_audit_command(tmp_path):
    data = write(
        tmp_path,
        "audit.json",
        {
            "space": {"space": "E2"},
            "center": [0, 0],
            "r": 1,
            "eps": "1/10",
            "ends": [{"direction": [1, 0]}, {"direction": [0, 1]}],
            "samples": 20,
        },
    )
    code, out, _ = run_cli(["audit", "--data", data, "--which", "local-busemann"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_audit_rejects_a_negative_sample_count(tmp_path):
    # An input error naming the field, not a failed audit of no points.
    payload = {
        "space": {"space": "E2"}, "center": [0, 0], "r": 1, "eps": "1/10",
        "ends": [{"direction": [1, 0]}, {"direction": [0, 1]}], "samples": -3,
    }
    code, out, err = run_cli(["audit", "--data", write(tmp_path, "audit.json", payload), "--which", "local-busemann"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": "samples must be nonnegative, got -3"}


def test_verify_command():
    code, out, _ = run_cli(["verify", "--suite", "sl2z", "--seed", "7"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["seed"] == 7
    assert all(c["failed"] == 0 for s in payload["suites"] for c in s["checks"])


def test_outputs_are_byte_deterministic(busemann_file, tmp_path):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(["busemann", "--data", busemann_file])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]

    mfpr = write(tmp_path, "m.json", {"k": 2, "complement": [[1, 0], [0, 1], [-1, -1]], "splitting_character": ["-1", "0"]})
    svg_path = tmp_path / "out.svg"
    snapshots = []
    for _ in range(2):
        code, out, _ = run_cli(["mfpr", "--data", mfpr, "--svg", str(svg_path)])
        assert code == 0
        snapshots.append((svg_path.read_bytes(), out))
    assert snapshots[0] == snapshots[1]


# mfpr --svg snapshots, by the name of the golden picture: the complement
# of a rank-1 instance as points on S^0, of a rank-2 one on S^1, and of a
# rank-3 one on S^2, in front of the picture and behind it.
SVG_SNAPSHOTS = {
    "mfpr_rank1_antipodal": ["mfpr", "--data", "mfpr_rank1_antipodal.json"],
    "mfpr_rank2_trio": ["mfpr", "--data", "mfpr_rank2_trio.json"],
    "mfpr_rank3_fractional": ["mfpr", "--data", "mfpr_rank3_fractional.json"],
}


def snapshot_command_line(name, svg) -> list:
    """The command line of an --svg snapshot, with its input file resolved."""
    return [str(GOLDEN / a) if a.endswith(".json") else a for a in SVG_SNAPSHOTS[name]] + ["--svg", str(svg)]


@pytest.mark.parametrize("name", SVG_SNAPSHOTS)
def test_mfpr_svg_matches_snapshot(tmp_path, name):
    svg = tmp_path / "picture.svg"
    code, out, err = run_cli(snapshot_command_line(name, svg))
    assert (code, err, json.loads(out)["svg"]) == (0, "", str(svg))
    assert svg.read_bytes() == (GOLDEN / f"{name}.svg").read_bytes()


def test_emitted_json_reparses(busemann_file):
    _, out, _ = run_cli(["busemann", "--data", busemann_file])
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


def test_error_paths(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, out, err = run_cli(["busemann", "--data", str(bad)])
    assert code == 2 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "JSONDecodeError"

    code, _, err = run_cli(["busemann", "--data", str(tmp_path / "missing.json")])
    assert code == 2
    assert json.loads(err)["error"] == "FileNotFoundError"

    graph = tmp_path / "k4.json"
    graph.write_text(
        json.dumps({"vertices": [0, 1, 2, 3], "edges": [[i, j] for i in range(4) for j in range(i + 1, 4)]}),
        encoding="utf-8",
    )
    code, _, err = run_cli(["raag", "--graph", str(graph), "--n", "1", "--svg", str(tmp_path / "x.svg")])
    assert code == 2 and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "UsageError" and not (tmp_path / "x.svg").exists()


H2_RAY = {"base": {"x": 0, "y": 1}, "end": {"boundary": {"xi": "inf"}}}
HNN2 = {"space": "tree", "descriptor": {"type": "hnn", "index": 2}}
HNN3 = {"space": "tree", "descriptor": {"type": "hnn", "index": 3}}
HNN_ROOT = {"level": 0, "center": 0}
HNN_DOWN_RAY = {"base": {"vertex": HNN_ROOT}, "end": {"boundary": {"down": "1/2"}}}
CAYLEY2 = {"space": "tree", "descriptor": {"type": "cayley", "rank": 2}}
CAYLEY_RAY = {"base": {"vertex": []}, "end": {"boundary": {"period": [1]}}}
HNN_ACTION = {"space": HNN2, "generators": {"a": {"shift": 0, "add": "1"}, "t": {"shift": 1, "add": "0"}}}
# Each case: the diagnostic's "error", the command, its payload and any
# further command-line arguments.
MALFORMED = {
    "busemann-points-number": ("ValueError", "busemann", {"space": {"space": "H2"}, "ray": H2_RAY, "points": 5}),
    "busemann-schedule-number": (
        "ValueError",
        "busemann",
        {"space": {"space": "H2"}, "ray": H2_RAY, "points": [], "schedule": 3},
    ),
    "h2-point-number": ("ValueError", "busemann", {"space": {"space": "H2"}, "ray": H2_RAY, "points": [5]}),
    "h2-end-beyond-binary64": (
        "WrongSpace",
        "busemann",
        {"space": {"space": "H2"}, "ray": {"base": [0, 1], "end": {"boundary": {"xi": str(10**400)}}}, "points": []},
    ),
    "hnn-vertex-list": (
        "ValueError",
        "character",
        {"action": HNN_ACTION, "end": {"up": True}, "base": {"vertex": [1, 2]}, "words": ["t"]},
    ),
    "top-level-array": ("ValueError", "busemann", [{"space": {"space": "H2"}}]),
    "tits-bare-space-name": ("ValueError", "tits", {"space": "E2", "pairs": []}),
    "tits-tree-boundary-number": ("ValueError", "tits", {"space": HNN2, "pairs": [[7, {"up": True}]]}),
    "shift-config-list": (
        "ValueError",
        "shift",
        {"space": {"space": "E2"}, "config": [1], "map": {}, "end": {"direction": [1, 0]}},
    ),
    "raag-edge-number": ("ValueError", "raag", {"vertices": [0, 1], "edges": [1]}),
    "raag-vertices-number": ("ValueError", "raag", {"vertices": 5, "edges": []}),
    "raag-edge-endpoint-list": ("ValueError", "raag", {"vertices": [0, 1], "edges": [[0, [1]]]}),
    "raag-vertex-list": ("ValueError", "raag", {"vertices": [[0], 1], "edges": []}),
    "mfpr-k-list": ("ValueError", "mfpr", {"k": [2], "complement": [[1, 0]], "splitting_character": ["-1", "0"]}),
    "mfpr-complement-point-number": ("ValueError", "mfpr", {"k": 1, "complement": [1], "splitting_character": ["-1"]}),
    "mfpr-character-coordinate-list": (
        "ValueError",
        "mfpr",
        {"k": 2, "complement": [[1, 0]], "splitting_character": [[1], 0]},
    ),
    "mfpr-character-number": ("ValueError", "mfpr", {"k": 1, "complement": [[1]], "splitting_character": 5}),
    "tree-sigma-fixed-end-string-false": (
        "ValueError",
        "tree-sigma",
        {"fl_group": 3, "fl_stabilizers": 1, "has_fixed_end": "false", "cl_character": 2},
    ),
    "tree-sigma-fixed-end-string": (
        "ValueError",
        "tree-sigma",
        {"fl_group": 3, "fl_stabilizers": 1, "has_fixed_end": "x", "cl_character": 2},
    ),
    "tree-sigma-fixed-end-number": (
        "ValueError",
        "tree-sigma",
        {"fl_group": 3, "fl_stabilizers": 1, "has_fixed_end": -1, "cl_character": 2},
    ),
    "tree-sigma-negative-lengths": (
        "ValueError",
        "tree-sigma",
        {"fl_group": -1, "fl_stabilizers": -1, "has_fixed_end": False},
    ),
    "tree-sigma-length-list": (
        "ValueError",
        "tree-sigma",
        {"fl_group": [3], "fl_stabilizers": 1, "has_fixed_end": False},
    ),
    # Beyond trees.DEPTH_BUDGET = 10**6: a ray time, a word length, an HNN level.
    "busemann-cayley-time-over-depth-budget": (
        "ParameterOutOfRange",
        "busemann",
        {"space": CAYLEY2, "ray": CAYLEY_RAY, "points": [{"vertex": [2]}], "schedule": [1, 3 * 10**6]},
    ),
    "busemann-hnn-down-time-over-depth-budget": (
        "ParameterOutOfRange",
        "busemann",
        {"space": HNN3, "ray": HNN_DOWN_RAY, "points": [{"vertex": HNN_ROOT}], "schedule": [10**6 + 1]},
    ),
    "busemann-cayley-word-over-depth-budget": (
        "ParameterOutOfRange",
        "busemann",
        {"space": CAYLEY2, "ray": CAYLEY_RAY, "points": [{"vertex": "a" * (10**6 + 1)}]},
    ),
    "character-hnn-shift-over-depth-budget": (
        "ParameterOutOfRange",
        "character",
        {
            "action": {"space": HNN2, "generators": {"t": {"shift": 10**6 + 1, "add": "0"}}},
            "end": {"up": True},
            "base": {"vertex": HNN_ROOT},
            "words": ["t"],
        },
    ),
    "busemann-hnn-level-over-depth-budget": (
        "ParameterOutOfRange",
        "busemann",
        {"space": HNN3, "ray": HNN_DOWN_RAY, "points": [{"vertex": {"level": -(10**6) - 1, "center": 0}}]},
    ),
}
# Input errors that no other test raises.
E2_RAY = {"base": [0, 0], "end": {"boundary": {"direction": [1, 0]}}}
E2_CHARACTER = {
    "action": {"space": {"space": "E2"}, "generators": {"a": {"matrix": [[1, 0], [0, 1]], "translation": [1, 0]}}},
    "end": {"direction": [0, 1]},
    "base": [0, 0],
    "words": ["a"],
}
C4_GRAPH = {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
MALFORMED.update(
    {
        "space-e0": ("ValueError", "busemann", {"space": {"space": "E0"}, "ray": E2_RAY, "points": []}),
        "space-regular-degree-2": (
            "ValueError",
            "busemann",
            {"space": {"space": "tree", "descriptor": {"type": "regular", "degree": 2}}, "ray": CAYLEY_RAY, "points": []},
        ),
        "space-cayley-rank-0": (
            "ValueError",
            "busemann",
            {"space": {"space": "tree", "descriptor": {"type": "cayley", "rank": 0}}, "ray": CAYLEY_RAY, "points": []},
        ),
        "space-hnn-index-1": (
            "ValueError",
            "busemann",
            {"space": {"space": "tree", "descriptor": {"type": "hnn", "index": 1}}, "ray": HNN_DOWN_RAY, "points": []},
        ),
        "hnn-center-outside-ball": (
            "ValueError",
            "busemann",
            {"space": HNN2, "ray": HNN_DOWN_RAY, "points": [{"vertex": {"level": 1, "center": "2"}}]},
        ),
        "action-on-regular-tree": (
            "WrongSpace",
            "cocompact",
            {
                "action": {"space": {"space": "tree", "descriptor": {"type": "regular", "degree": 3}},
                           "generators": {"a": {"word": [0]}}},
                "base": {"vertex": []},
            },
            "--radius",
            "1",
        ),
        "generator-name-of-two-letters": (
            "ValueError",
            "character",
            dict(E2_CHARACTER, action=dict(E2_CHARACTER["action"], generators={"ab": {"matrix": [[1, 0], [0, 1]], "translation": [1, 0]}}), words=["ab"]),
        ),
        "local-audit-eps-0": (
            "ValueError",
            "audit",
            {"space": {"space": "E2"}, "center": [0, 0], "r": 1, "eps": 0, "ends": [{"direction": [1, 0]}, {"direction": [0, 1]}]},
            "--which",
            "local-busemann",
        ),
        "number-division-by-zero": ("ValueError", "busemann", {"space": {"space": "E2"}, "ray": E2_RAY, "points": [["1/0", 0]]}),
        "number-beyond-binary64": ("ValueError", "busemann", {"space": {"space": "E2"}, "ray": E2_RAY, "points": [[10**400, 0]]}),
        "number-infinity": ("ValueError", "busemann", {"space": {"space": "E2"}, "ray": E2_RAY, "points": [[math.inf, 0]]}),
        "raag-edge-list-line-of-three": ("ValueError", "raag", "0 1\na b c\n"),
        "raag-negative-degree-on-a-join": ("DegreeOutOfRange", "raag", C4_GRAPH, "--n", "-1"),
        "word-of-a-digit": ("UnknownGenerator", "character", dict(E2_CHARACTER, words=["1"])),
        "mfpr-point-of-wrong-rank": ("ValueError", "mfpr", {"k": 2, "complement": [[1, 0], [1]], "splitting_character": ["-1", "0"]}),
        "mfpr-character-of-wrong-rank": (
            "ValueError",
            "mfpr",
            {"k": 2, "complement": [[1, 0], [0, 1]], "splitting_character": ["-1"]},
        ),
        # Im = 1e150 e^1000 passes binary64.
        "h2-ray-point-beyond-binary64": (
            "ParameterOutOfRange",
            "busemann",
            {"space": {"space": "H2"}, "ray": {"base": [0, 1e150], "end": {"boundary": {"xi": "inf"}}}, "points": [[0, 1]],
             "schedule": [1000]},
        ),
    }
)
# Sizes given on the command line follow the payload.
F2_ACTION = json.loads((GOLDEN / "cocompact_f2.json").read_text(encoding="utf-8"))
MALFORMED.update(
    {
        "cocompact-negative-depth": ("ValueError", "cocompact", F2_ACTION, "--radius", "1", "--depth", "-5"),
        "cocompact-negative-radius": ("ValueError", "cocompact", F2_ACTION, "--radius", "-1"),
        "cocompact-nan-radius": ("ValueError", "cocompact", F2_ACTION, "--radius", "nan"),
    }
)
# H2 values whose squares leave binary64, in the busemann_h2 golden input.
BUSEMANN_H2 = json.loads((GOLDEN / "busemann_h2.json").read_text(encoding="utf-8"))


def busemann_h2_with(error, xi=None, base=None, points=None):
    end = {"boundary": {"xi": xi}} if xi else BUSEMANN_H2["ray"]["end"]
    ray = {"base": base or BUSEMANN_H2["ray"]["base"], "end": end}
    return (error, "busemann", dict(BUSEMANN_H2, ray=ray, points=points or BUSEMANN_H2["points"]))


MALFORMED.update(
    {
        "h2-end-1e160": busemann_h2_with("WrongSpace", xi="1e160"),
        "h2-end-minus-1e200": busemann_h2_with("WrongSpace", xi="-1e200"),
        "h2-end-1e300": busemann_h2_with("WrongSpace", xi="1e300"),
        "h2-base-far": busemann_h2_with("WrongSpace", base=[1e200, 1]),
        "h2-point-far": busemann_h2_with("WrongSpace", points=[[1e200, 1]]),
        "h2-base-near-axis": busemann_h2_with("WrongSpace", base=[0, 1e-200]),
        "h2-base-and-point-near-axis": busemann_h2_with("WrongSpace", base=[0, 1e-170], points=[[1, 1e-170]]),
        # A ray point on the geodesic from 1e152 i toward 1e-6, whose circle
        # center is past binary64: ParameterOutOfRange, not a math domain error.
        "h2-ray-point-center-beyond-binary64": busemann_h2_with("ParameterOutOfRange", xi="1/1000000", base=[0, 1e152]),
        "local-audit-samples-beyond-budget": (
            "ParameterOutOfRange",
            "audit",
            dict(json.loads((GOLDEN / "audit_local_e2.json").read_text(encoding="utf-8")), samples=10**5 + 1),
            "--which",
            "local-busemann",
        ),
        "h2-local-audit-center-beyond-binary64": (
            "ParameterOutOfRange",
            "audit",
            {"space": {"space": "H2"}, "center": [0, 1e152], "r": 2, "eps": "1/2",
             "ends": [{"xi": 0}, {"xi": "1/1000000"}]},
            "--which",
            "local-busemann",
        ),
    }
)


def test_h2_local_audit_passes_across_the_range_of_centers(tmp_path):
    # The audit measures points out to R = 255.2 from the center.  Points
    # drawn within r = 5 of a center with Im c = 1e153 reach Im z of about
    # 1e155, whose square |z - xi|^2 the Busemann quotient took
    # (OverflowError out of run); rays straight down from a center with
    # Im c up to 1e-52 reach points whose imaginary parts multiply to 0
    # in the distance (ZeroDivisionError).
    data = json.loads((GOLDEN / "audit_local_h2.json").read_text(encoding="utf-8"))
    for k in range(-153, 154, 3):
        for x in (0, 1):
            for ends in (data["ends"], [{"xi": x}, {"xi": x}]):
                path = write(tmp_path, "audit.json", dict(data, r="5", center={"x": x, "y": f"1e{k}"}, ends=ends))
                code, out, err = run_cli(["audit", "--data", path, "--which", "local-busemann"])
                assert (code, err, json.loads(out)["passed"]) == (0, "", True), (k, x, ends)


@pytest.mark.parametrize("case", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_shapes_are_input_errors(tmp_path, case):
    error, command, payload, *extra = case
    flag = "--graph" if command == "raag" else "--data"
    path = tmp_path / "bad.json"  # a string payload is an edge list, written as it is
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    code, out, err = run_cli([command, flag, str(path), *extra])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    diagnostic = json.loads(err)
    assert set(diagnostic) == {"error", "message"}
    assert diagnostic["error"] == error, diagnostic


# The whole diagnostic of a malformed graph: the first fault in input order
# wins, a loop is named before an undeclared endpoint, and an edge-list line
# of three tokens before a loop on an earlier line.
MALFORMED_GRAPHS = {
    "loop": ({"vertices": [0, 1], "edges": [[0, 0]]}, "ValueError", "loop at 0"),
    "edge-list-loop": ("a b\nc c\n", "ValueError", "loop at 'c'"),
    "edge-list-loop-then-three-tokens": ("c c\na b c\n", "ValueError", "cannot parse edge line 'a b c'"),
    "duplicate-vertex": ({"vertices": [0, 1, 0], "edges": []}, "ValueError", "duplicate vertex 0"),
    "duplicate-vertex-and-loop": ({"vertices": [0, 0], "edges": [[0, 0]]}, "ValueError", "duplicate vertex 0"),
    "undeclared-vertex": ({"vertices": [0, 1], "edges": [[0, 2]]}, "UnknownVertex", "edge (0, 2) uses an undeclared vertex"),
    "undeclared-loop": ({"vertices": [0], "edges": [[1, 1]]}, "ValueError", "loop at 1"),
    "undeclared-before-loop": (
        {"vertices": ["a", 1], "edges": [["a", 2], [1, 1]]},
        "UnknownVertex",
        "edge ('a', 2) uses an undeclared vertex",
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED_GRAPHS.values()), ids=list(MALFORMED_GRAPHS))
def test_malformed_graphs_give_their_whole_diagnostic(tmp_path, case):
    payload, error, message = case
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    code, out, err = run_cli(["raag", "--graph", str(path)])
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": error, "message": message}) + "\n"


def test_hnn_generator_add_is_checked_where_it_is_read(tmp_path):
    # x -> 2x + 1/3 maps no 2-adic ball to a ball; the diagnostic names the
    # generator and the field.
    action = {"space": HNN2, "generators": {"a": {"shift": 0, "add": "1"}, "t": {"shift": 1, "add": "1/3"}}}
    data = write(tmp_path, "bad-add.json", {"action": action, "base": {"vertex": HNN_ROOT}})
    code, out, err = run_cli(["cocompact", "--data", data, "--radius", "1"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": "generator 't': add 1/3 is not an 2-adic rational"}


def test_sigma_log_prints_progress(busemann_file, monkeypatch):
    monkeypatch.setenv("SIGMA_LOG", "1")
    code, _, err = run_cli(["busemann", "--data", busemann_file])
    assert code == 0
    assert "running busemann" in err


def test_verify_logs_each_suite_time_only_under_sigma_log(monkeypatch):
    monkeypatch.delenv("SIGMA_LOG", raising=False)
    quiet = run_cli(["verify", "--suite", "tits", "--seed", "3"])
    assert quiet[0] == 0 and quiet[2] == ""
    monkeypatch.setenv("SIGMA_LOG", "1")
    for cpus, processes in [(1, "1 process"), (2, "2 processes")]:
        monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
        code, out, err = run_cli(["verify", "--suite", "tits", "--seed", "3"])
        assert (code, out) == quiet[:2]
        timed = [line for line in err.splitlines() if "suite tits" in line]
        assert len(timed) == 1
        assert re.fullmatch(rf"cat0sigma: suite tits \(seed 3\): \d+\.\d ms, {processes}", timed[0])
