"""Tooling guards for the space protocol: only the space and tree modules
may ask which model space or tree model a value is, the JSON readers only
parse, and a point or an end is checked once, by the entry point that
receives it, never again by the space methods that compute with it.  The
space methods live in two modules: ``spaces`` (E^k, H2 and the entry
points) and ``trees`` (the tree models), and the guards read both."""

import ast
import math
import pathlib
import re
from fractions import Fraction

import pytest

from cat0sigma import actions, spaces as sp
from cat0sigma.errors import WrongSpace
from cat0sigma.trees import CayleyTree, HnnTree, HnnVertex, RegularTree, TreePoint, WordEnd
from cat0sigma.verify import _random_ends

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cat0sigma"
OWNERS = {"spaces.py", "trees.py"}
MODEL_CLASSES = {"EuclideanSpace", "HyperbolicPlane", "TreeModel", "WordTree", "CayleyTree", "HnnTree", "RegularTree"}


def _class_names(node):
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            yield from _class_names(elt)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


def model_class_checks(source: str) -> list[tuple[int, str]]:
    """(line, class) for every isinstance call against a model class."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            out.extend((node.lineno, name) for name in _class_names(node.args[1]) if name in MODEL_CLASSES)
    return out


def test_guard_detects_model_class_checks():
    sample = "if isinstance(M, sp.HyperbolicPlane) or isinstance(m, (int, HnnTree)):\n    pass\n"
    assert model_class_checks(sample) == [(1, "HyperbolicPlane"), (1, "HnnTree")]


def test_only_space_modules_check_model_classes():
    offenders = {
        path.name: model_class_checks(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in OWNERS
    }
    assert {name: hits for name, hits in offenders.items() if hits} == {}
    return None


# ---------------------------------------------------------------------------
# Where points are checked


def names_used(source: str) -> dict[str, set[str]]:
    """The names that each module-level function and each "Class.method"
    reads, as an attribute (``M.check_point``) or as a bare name
    (``check_depth``)."""
    out = {}
    for top in ast.parse(source).body:
        defs = [(top.name, top)] if isinstance(top, ast.FunctionDef) else []
        if isinstance(top, ast.ClassDef):
            defs = [(f"{top.name}.{f.name}", f) for f in top.body if isinstance(f, ast.FunctionDef)]
        for name, func in defs:
            names = (getattr(node, "attr", None) or getattr(node, "id", None) for node in ast.walk(func))
            out[name] = {n for n in names if n}
    return out


def checks_used(source: str) -> dict[str, set[str]]:
    """The ``check_*`` names that each module-level function and each
    "Class.method" calls or hands on as a value for a helper to call."""
    return {name: {n for n in used if n.startswith("check_")} for name, used in names_used(source).items()}


def check_point_callers(source: str, method: str = "check_point") -> set[str]:
    """Names of the module-level functions and the "Class.method"s whose
    bodies call ``.check_point`` (or the given method) or hand it on."""
    return {name for name, used in checks_used(source).items() if method in used}


def space_sources() -> list[str]:
    """The sources of the two modules that hold space methods."""
    return [(PACKAGE / module).read_text(encoding="utf-8") for module in SPACE_MODULES]


def space_check_callers(method: str = "check_point") -> set[str]:
    """check_point_callers over both space modules."""
    return set().union(*(check_point_callers(source, method) for source in space_sources()))


SPACE_MODULES = ("spaces.py", "trees.py")
# The space methods that compute with checked points.
COMPUTING_METHODS = {"distance", "ray_point", "busemann_to_end"}
CHECKING_SPACES = {
    # The entry point of rays, for the base from its caller.
    "ray_from",
    # The check of a ray's target, a point or an end, for the entry point
    # ray_from.
    "EuclideanSpace.check_target",
    "HyperbolicPlane.check_target",
    "TreeModel.check_target",
}
CHECKING_ENDS = {
    # The check of a ray's target, for the entry point ray_from.
    "EuclideanSpace.check_target",
    "HyperbolicPlane.check_target",
    "TreeModel.check_target",
}
# The public functions of actions, each for the points from its caller, and
# _image_pairs, which checks the raw images of shift_report's maps.
CHECKING_ACTIONS = {
    "GroupAction.apply",
    "ControlConfiguration.__init__",
    "_image_pairs",
    "character_at_end",
    "cocompactness_witness",
    "local_busemann_audit",
    "angle_estimate_audit",
}
# The public functions of actions, each for the ends from its caller:
# boundary_apply, character_at_end and angle_estimate_audit take an end,
# the others a ray's target, an end or a point.
ACTIONS_CHECKING_ENDS = {"GroupAction.boundary_apply", "character_at_end", "angle_estimate_audit"}
ACTIONS_CHECKING_TARGETS = {"shift_report", "local_busemann_audit"}
# The entry points of spaces that check what they are given; actions and
# verify call the space methods and the rays' busemann instead.
CHECKING_ENTRY_POINTS = {"ray_from"}


def test_guard_finds_check_point_callers():
    sample = (
        "def entry(M, p):\n    return M.distance(M.check_point(p), p)\n"
        "class S:\n    def distance(self, a, b):\n        return [self.check_point(x) for x in (a, b)]\n"
        "    def ray_point(self, ray, t):\n        return ray.base\n"
        "def handing_on(cfg, f):\n    return pairs(cfg, f, cfg.space.check_point)\n"
        "def bare(n):\n    check_depth('n', n)\n"
    )
    assert check_point_callers(sample) == {"entry", "S.distance", "handing_on"}
    assert {name: used for name, used in checks_used(sample).items() if used} == {
        "entry": {"check_point"}, "S.distance": {"check_point"}, "handing_on": {"check_point"}, "bare": {"check_depth"}
    }


def test_readers_only_parse():
    # The JSON readers build values and check only the JSON structure and
    # the numbers; the entry point that receives a value checks it.
    readers = {
        name: used
        for source in space_sources()
        for name, used in checks_used(source).items()
        if name.partition(".")[2] in ("parse_point", "parse_boundary")
    }
    # E^k and H2 two each; the tree models one parse_point and a
    # parse_boundary each for word trees and the HNN tree.
    assert len(readers) == 7 and {name: used for name, used in readers.items() if used} == {}
    in_jsonio = checks_used((PACKAGE / "jsonio.py").read_text(encoding="utf-8"))
    assert "parse_ray" in in_jsonio and {name: used for name, used in in_jsonio.items() if used} == {}
    # The handlers hand each value to one checked library function, except
    # busemann and tits, which compute with space methods and check each
    # parsed point or end once.
    in_cli = checks_used((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert {name: used for name, used in in_cli.items() if used} == {
        "cmd_busemann": {"check_point"}, "cmd_tits": {"check_boundary"}
    }


def test_points_are_checked_only_where_they_enter():
    in_spaces = space_check_callers()
    assert not {name for name in in_spaces if name.partition(".")[2] in COMPUTING_METHODS}
    assert in_spaces == CHECKING_SPACES
    assert check_point_callers((PACKAGE / "actions.py").read_text(encoding="utf-8")) == CHECKING_ACTIONS


def test_ends_are_checked_only_where_they_enter():
    # The library entry points check the ends from their caller (ray_from
    # through check_target), and the space methods that they hand them to,
    # boundary_equal and the boundary metrics among them, compute with them
    # as they are.
    in_spaces = space_check_callers("check_boundary")
    assert not {name for name in in_spaces if name.partition(".")[2] in COMPUTING_METHODS | {"ray_from"}}
    assert in_spaces == CHECKING_ENDS
    assert space_check_callers("check_target") == {"ray_from"}
    actions_source = (PACKAGE / "actions.py").read_text(encoding="utf-8")
    assert check_point_callers(actions_source, "check_boundary") == ACTIONS_CHECKING_ENDS
    assert check_point_callers(actions_source, "check_target") == ACTIONS_CHECKING_TARGETS


def test_centers_are_checked_once():
    # The functions that sample around a center they have checked already,
    # or built, read the unchecked stream, and no checked sampler is left.
    streams = {"unchecked_point_stream"}
    readers = {}
    for module in (*SPACE_MODULES, "actions.py"):
        for name, used in names_used((PACKAGE / module).read_text(encoding="utf-8")).items():
            if used & streams:
                readers[name] = used & streams
    assert readers == {
        "EuclideanSpace.region": {"unchecked_point_stream"},
        "HyperbolicPlane.region": {"unchecked_point_stream"},
        "local_busemann_audit": {"unchecked_point_stream"},
    }


def spaces_names_used(source: str) -> set[str]:
    """The names a module imports from .spaces, and the attributes it reads
    from the module object ``spaces`` or ``sp``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "spaces":
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("spaces", "sp"):
            out.add(node.attr)
    return out


def test_guard_finds_names_used_from_spaces():
    sample = "from .spaces import busemann, EDirection\nfrom . import spaces\nspaces.distance(M, a, b)\n"
    assert spaces_names_used(sample) == {"busemann", "EDirection", "distance"}


def test_actions_calls_no_checking_entry_point():
    # Nor does verify, which computes on the points and ends it draws.
    for module in ("actions.py", "verify.py"):
        used = spaces_names_used((PACKAGE / module).read_text(encoding="utf-8"))
        assert used & CHECKING_ENTRY_POINTS == set(), module


# ---------------------------------------------------------------------------
# Where isometries are checked


def calls_in(cls: ast.ClassDef, method: str) -> set[str]:
    """Names called in a method of the class (``f(...)`` and ``x.f(...)``),
    following its calls of ``self.<method>`` within the class."""
    methods = {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}
    out, todo, seen = set(), [method], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(methods[name]):
            if isinstance(node, ast.Call):
                func = node.func
                out.add(getattr(func, "attr", None) or getattr(func, "id", None))
                if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "self" and func.attr in methods:
                    todo.append(func.attr)
    return out - {None}  # a called expression, such as type(exc)(...), has no name


def validating_classes(tree: ast.Module) -> set[str]:
    """The classes whose constructor raises on a bad value."""
    return {
        top.name
        for top in tree.body
        if isinstance(top, ast.ClassDef)
        for f in top.body
        if isinstance(f, ast.FunctionDef) and f.name == "__init__" and any(isinstance(n, ast.Raise) for n in ast.walk(f))
    }


def test_guard_follows_self_calls():
    sample = (
        "class A:\n    def __init__(self, x):\n        if x:\n            raise ValueError\n        self._check()\n"
        "    def _check(self):\n        sample_point(1)\n"
        "class B:\n    def __init__(self):\n        pass\n"
    )
    tree = ast.parse(sample)
    assert calls_in(tree.body[0], "__init__") == {"_check", "sample_point"}
    assert validating_classes(tree) == {"A"}


def test_isometries_are_checked_only_where_they_are_built():
    # The class constructors check an isometry's values; a group action
    # checks once that each generator fits its space, with the generator's
    # check and without sampling or applying it, and an inverse of a checked
    # isometry is not checked again.
    tree = ast.parse((PACKAGE / "actions.py").read_text(encoding="utf-8"))
    classes = {top.name: top for top in tree.body if isinstance(top, ast.ClassDef)}
    init_calls = calls_in(classes["GroupAction"], "__init__")
    assert "check" in init_calls
    assert {name for name in init_calls if name.startswith("sample") or name == "apply"} == set()
    validating = validating_classes(tree)
    assert {"EuclideanIsometry", "MoebiusIsometry"} <= validating
    for name in ("EuclideanIsometry", "MoebiusIsometry", "CayleyIsometry", "HnnIsometry"):
        assert calls_in(classes[name], "inverse") & validating == set(), name


@pytest.mark.parametrize(
    "M",
    [sp.EuclideanSpace(2), sp.HyperbolicPlane(), RegularTree(3), CayleyTree(2), HnnTree(2)],
    ids=["E2", "H2", "regular3", "cayley2", "hnn2"],
)
def test_each_model_space_reads_back_its_json(M):
    # Every model space, the tree models included, is a ModelSpace that
    # space_from_json rebuilds from its JSON form.
    again = sp.space_from_json(M.to_json())
    assert isinstance(again, sp.ModelSpace)
    assert (type(again), again.name, again.to_json()) == (type(M), M.name, M.to_json())


# Each model with one hand-built bad point and the error it draws today.
CAYLEY2 = CayleyTree(2)
BAD_POINTS = {
    "cayley-unreduced": (CAYLEY2, TreePoint((1, -1)), ValueError, "word (1, -1) is not reduced at position 1"),
    "cayley-letter": (CAYLEY2, TreePoint((3,)), ValueError, "letter 3 outside rank 2"),
    "regular-digit": (
        RegularTree(3), TreePoint((3,)), ValueError, "address digit 3 out of range at position 0"
    ),
    "hnn-lowest-terms": (
        HnnTree(2), TreePoint(HnnVertex(1, 2, 1, 2)), ValueError, "center 2/2^1 is not in lowest terms"
    ),
    "e2-dimension": (sp.EuclideanSpace(2), (1.0, 2.0, 3.0), WrongSpace, "point of dimension 3 in E2"),
    "h2-real-axis": (sp.HyperbolicPlane(), complex(1, 0), WrongSpace, "point (1+0j) is not in the upper half-plane"),
    # A word tree's root has no parent edge, so no point lies on it.
    "cayley-root-offset": (
        CAYLEY2, TreePoint((), Fraction(1, 2)), WrongSpace, "the root () has no parent edge to hold the offset 1/2"
    ),
    "regular-root-offset": (
        RegularTree(3),
        TreePoint((), Fraction(1, 3)),
        WrongSpace,
        "the root () has no parent edge to hold the offset 1/3",
    ),
    # Non-finite parts, which no comparison rejects by itself.
    "e2-nan": (sp.EuclideanSpace(2), (math.nan, 0.0), WrongSpace, "point (nan, 0.0) of E2 has a non-finite coordinate"),
    "e2-inf": (sp.EuclideanSpace(2), (0.0, math.inf), WrongSpace, "point (0.0, inf) of E2 has a non-finite coordinate"),
    "h2-nan": (sp.HyperbolicPlane(), complex(math.nan, 1), WrongSpace, "point (nan+1j) is not in the upper half-plane"),
    "h2-inf": (sp.HyperbolicPlane(), complex(0, math.inf), WrongSpace, "point infj is not in the upper half-plane"),
    # Parts whose squares leave binary64, which the H2 closed forms take.
    "h2-far": (
        sp.HyperbolicPlane(), complex(1e200, 1), WrongSpace,
        "point (1e+200+1j) of H2 is out of range: |Re z|, Im z and 1 / Im z must be at most 1e+153",
    ),
    "h2-near-axis": (
        sp.HyperbolicPlane(), complex(0, 1e-200), WrongSpace,
        "point 1e-200j of H2 is out of range: |Re z|, Im z and 1 / Im z must be at most 1e+153",
    ),
}


def _end(M):
    return _random_ends(M, 1, 0)[0]


ENTRY_POINTS = {
    # The busemann command computes distances, Busemann values and limit
    # audits with the methods, on points it checked once with check_point.
    "distance": lambda M, bad: M.distance(M.origin(), M.check_point(bad)),
    "ray_from": lambda M, bad: sp.ray_from(M, bad, _end(M)),
    # The point at t on the geodesic from a to b is the point at t of the
    # ray from a to b, which checks b as its target.
    "geodesic_point": lambda M, bad: sp.ray_from(M, M.origin(), bad).point_at(0),
    "busemann": lambda M, bad: sp.ray_from(M, M.origin(), _end(M)).busemann(M.check_point(bad)),
    "busemann-degenerate": lambda M, bad: sp.ray_from(M, M.origin(), M.origin()).busemann(M.check_point(bad)),
    "busemann_limit_audit": lambda M, bad: sp.ray_from(M, M.origin(), _end(M)).limit_audit(M.check_point(bad), [0, 1]),
    "GroupAction.apply": lambda M, bad: actions.GroupAction(M, {}).apply("", bad),
    "ControlConfiguration": lambda M, bad: actions.ControlConfiguration(M, {"x": M.origin(), "y": bad}),
    "cocompactness_witness": lambda M, bad: actions.cocompactness_witness(actions.GroupAction(M, {}), bad, 1, depth=1, seed=0),
    "local_busemann_audit": lambda M, bad: actions.local_busemann_audit(M, bad, 1, 1, _end(M), _end(M), samples=50, seed=0),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("case", list(BAD_POINTS))
def test_entry_points_reject_bad_points(case, entry):
    M, bad, error, message = BAD_POINTS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[entry](M, bad)


@pytest.mark.parametrize("M, bad, message", [
    (CAYLEY2, WordEnd((1, -1), (2,)), "word (1, -1, 2, 2, 2) is not reduced at position 1"),
    (CAYLEY2, WordEnd((), (3,)), "letter 3 outside rank 2"),
    (sp.EuclideanSpace(2), sp.EDirection((0.6, 0.0, 0.8)), "direction of dimension 3 in E2"),
    (sp.HyperbolicPlane(), complex(1, -1), "point (1-1j) is not in the upper half-plane"),
    # A direction is checked where it is built.
    (sp.EuclideanSpace(2), lambda: sp.EDirection((math.nan, 0.0)), "boundary direction (nan, 0.0) is not a unit vector"),
    (sp.HyperbolicPlane(), math.nan, "boundary of H2 is R plus infinity, got nan"),
    (sp.HyperbolicPlane(), -math.inf, "boundary of H2 is R plus infinity, got -inf"),
    (
        sp.HyperbolicPlane(),
        Fraction(-10**160),
        f"boundary of H2 is R plus infinity, with |xi| <= 1e+153 here, got {Fraction(-10**160)!r}",
    ),
], ids=[
    "cayley-unreduced", "cayley-letter", "e2-dimension", "h2-lower-half-plane", "e2-nan", "h2-nan", "h2-minus-inf",
    "h2-far-end",
])
def test_ray_from_rejects_bad_ends(M, bad, message):
    with pytest.raises((ValueError, WrongSpace), match=f"^{re.escape(message)}$"):
        sp.ray_from(M, M.origin(), bad() if callable(bad) else bad)
