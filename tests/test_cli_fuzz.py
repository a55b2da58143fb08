"""Fuzzing the command line with malformed JSON: one subtree of a golden
input is replaced by a small value of another shape.  Whatever the input,
cli.run returns 0, 1 or 2 without raising; exit 2 comes with a one-line
JSON diagnostic on stderr, exit 1 with a JSON report on stdout."""

import io
import json
import pathlib
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cat0sigma import cli
from cat0sigma.jsonio import jsonable, parse_int

GOLDEN = pathlib.Path(__file__).parent / "golden"
FUZZED_COMMANDS = {"busemann", "tits", "character", "shift", "cocompact", "audit", "tree-sigma"}
CASES = [
    case["argv"]
    for case in json.loads((GOLDEN / "cli_stdout.json").read_text(encoding="utf-8"))
    if case["argv"][0] in FUZZED_COMMANDS
]
REPLACEMENTS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.text("0123456789/-.abAtxi", max_size=4),
    st.just([]),
    st.just({}),
)


def subtree_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from subtree_paths(child, path + (key,))


def replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = replaced(node[path[0]], path[1:], value)
    return copy


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_json_never_raises(data, workdir, monkeypatch):
    monkeypatch.delenv("SIGMA_LOG", raising=False)
    argv = data.draw(st.sampled_from(CASES))
    document = json.loads((GOLDEN / argv[2]).read_text(encoding="utf-8"))
    path = data.draw(st.sampled_from(list(subtree_paths(document))))
    mutated = replaced(document, path, data.draw(REPLACEMENTS))
    target = workdir / argv[2]
    target.write_text(json.dumps(mutated), encoding="utf-8")

    out, err = io.StringIO(), io.StringIO()
    code = cli.run([argv[0], "--data", str(target)] + argv[3:], stdout=out, stderr=err)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
    else:
        assert isinstance(json.loads(out.getvalue()), dict)


def test_json_ints_read_exactly_and_other_numbers_as_before():
    for value in (0, -7, 10**100):
        read = parse_int(json.loads(json.dumps(value)))
        assert type(read) is int and jsonable(read) == value
    for value, message in [
        (True, "booleans are not numbers here"),
        (1.5, "1.5 is not exact; pass a string like '1/3'"),
        ("1/2", "'1/2' is not an integer"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_int(value)


# H2 documents with slots for a real part ("X"), an imaginary part ("Y")
# and a finite end ("XI").
H2_SLOTTED = [
    ("busemann", {"ray": {"base": ["X", "Y"], "end": {"boundary": {"xi": "XI"}}}, "points": [["X", "Y"], ["X", "Y"]]}),
    ("busemann", {"ray": {"base": ["X", "Y"], "end": {"point": ["X", "Y"]}}, "points": [["X", "Y"]]}),
    ("busemann", {"ray": {"base": ["X", "Y"], "end": {"boundary": {"xi": "inf"}}}, "points": [["X", "Y"]]}),
    ("tits", {"pairs": [[{"xi": "XI"}, {"xi": "XI"}], [{"xi": "XI"}, "inf"]]}),
    ("shift", {"config": {"x": ["X", "Y"], "y": ["X", "Y"]}, "map": {"x": "y", "y": ["X", "Y"]}, "end": {"xi": "XI"}}),
    ("audit", {"base": ["X", "Y"], "ends": [{"xi": "XI"}, {"xi": "XI"}]}),
    ("audit", {"center": ["X", "Y"], "r": "1/2", "eps": "1/5", "ends": [{"xi": "XI"}, "inf"], "samples": 5}),
]


def filled(node, values):
    """The document with each slot, in order, taking the next of values: a
    magnitude m (|m| for "Y", the string of m for "XI"), or None for a
    default of the slot's own."""
    if isinstance(node, dict):
        return {key: filled(child, values) for key, child in node.items()}
    if isinstance(node, list):
        return [filled(child, values) for child in node]
    if node not in ("X", "Y", "XI"):
        return node
    i, m = len(values), values.pop(0)
    if m is None:
        return {"X": float(i), "Y": 1.0 + i / 4, "XI": str(i + 3)}[node]
    return {"X": m, "Y": abs(m), "XI": repr(m)}[node]


def slot_count(document):
    return sum(json.dumps(document).count(f'"{slot}"') for slot in ("X", "Y", "XI"))


@settings(max_examples=500, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_h2_magnitudes_never_raise(data, workdir, monkeypatch):
    # A magnitude +-10^k, |k| <= 308, in any set of an H2 document's slots:
    # exit 0, 1 or 2, never a traceback.
    monkeypatch.delenv("SIGMA_LOG", raising=False)
    command, document = data.draw(st.sampled_from(H2_SLOTTED))
    m = data.draw(st.sampled_from([1.0, -1.0])) * float(f"1e{data.draw(st.integers(-308, 308))}")
    mask = data.draw(st.lists(st.booleans(), min_size=slot_count(document), max_size=slot_count(document)))
    target = workdir / "h2.json"
    target.write_text(json.dumps(dict(filled(document, [m if on else None for on in mask]), space={"space": "H2"})))
    which = (["--which", "angle-estimate" if "base" in document else "local-busemann"]) if command == "audit" else []

    out, err = io.StringIO(), io.StringIO()
    code = cli.run([command, *which, "--data", str(target)], stdout=out, stderr=err)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
