"""The one-pass report writer: jsonio.dumps gives the same text as
json.dumps over jsonable, on every kind of value a report can hold."""

import dataclasses
import enum
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cat0sigma import jsonio, raag
from cat0sigma.trees import HnnTree, TreePoint, make_word_end


def reference(value) -> str:
    return json.dumps(jsonio.jsonable(value), sort_keys=True, indent=2) + "\n"


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.fractions(),
    st.builds(make_word_end, st.lists(st.integers(1, 3), max_size=3), st.lists(st.integers(1, 3), min_size=1, max_size=3)),
)
keys = st.text(max_size=4)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.dictionaries(keys, values, max_size=4))
def test_dumps_matches_json_dumps_of_jsonable(report):
    assert jsonio.dumps(report) == reference(report)


HNN2 = HnnTree(2)
CASES = {
    "fractions": [F(1, 3), F(-7, 2), F(4), F(0)],
    "non-finite-floats": [math.inf, -math.inf, math.nan],
    "signed-zero-and-tiny": [-0.0, 0.0, 1e-300, 1e300, 0.1],
    "non-ascii": {"σ": "Σ¹(G) ⊂ S(G)", "emoji": "\U0001f600"},
    "control-characters": ["tab\there", "nl\nquote\"back\\slash", "\x00\x1f\x7f"],
    "tuple": (1, (2, 3), ()),
    "empty": {"dict": {}, "list": [], "tuple": ()},
    "scalars": [None, True, False, 0, -12, "", "x"],
}


@pytest.mark.parametrize("value", list(CASES.values()), ids=list(CASES))
def test_dumps_matches_json_dumps_on_report_values(value):
    assert jsonio.dumps({"report": value}) == reference({"report": value})


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


# A report's keys are str and its values are of exact types, so the writer
# refuses other keys, and refuses a subclass of str, int or float, which
# jsonable keeps as it is, as a value without a JSON form.
NOT_A_REPORT = {
    "int-keys": ({3: "c", 1: "a", 10: "b"}, None),
    "colliding-keys": ({1: "int", "1": "str"}, None),
    "colliding-keys-reversed": ({"1": "str", 1: "int"}, None),
    "int-subclass": ({"level": Level.HIGH}, "Level"),
    "str-and-float-subclass": ({"s": [type("S", (str,), {})("s"), type("R", (float,), {})(2.5)]}, "S"),
}


@pytest.mark.parametrize(("report", "kind"), list(NOT_A_REPORT.values()), ids=list(NOT_A_REPORT))
def test_a_report_with_other_keys_or_a_scalar_subclass_is_refused(report, kind):
    message = f"^no JSON form for a value of type {kind}$" if kind else None
    with pytest.raises(TypeError, match=message):
        jsonio.dumps(report)


@dataclasses.dataclass
class Point:
    x: int


# No report holds a set, a complex number, a tree point, an HNN vertex or a
# graph, so none has a JSON form.
NO_JSON_FORM = {
    "object": object(),
    "set": {3, 1, 2},
    "frozenset": frozenset({"b", "a"}),
    "complex": complex(1, -1),
    "dataclass": Point(1),
    "tree-point": TreePoint((1, -2), F(1, 2)),
    "hnn-vertex": HNN2.vertex(3, F(5, 4)),
    "simple-graph": raag.SimpleGraph.cycle(4),
}


@pytest.mark.parametrize("value", list(NO_JSON_FORM.values()), ids=list(NO_JSON_FORM))
def test_a_value_without_a_json_form_is_refused(value):
    name = type(value).__name__
    for convert in (jsonio.jsonable, jsonio.dumps):
        with pytest.raises(TypeError, match=f"^no JSON form for a value of type {name}$"):
            convert({"report": [value]})
