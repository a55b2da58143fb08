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
