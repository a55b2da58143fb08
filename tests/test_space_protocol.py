"""Tooling guard: only the space and tree modules may ask which model space
or tree model a value is; everything else goes through the space protocol."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cat0sigma"
OWNERS = {"spaces.py", "trees.py"}
MODEL_CLASSES = {"EuclideanSpace", "HyperbolicPlane", "TreeSpace", "CayleyTree", "HnnTree", "RegularTree"}


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
    sample = "if isinstance(M, sp.TreeSpace) or isinstance(m, (int, HnnTree)):\n    pass\n"
    assert model_class_checks(sample) == [(1, "TreeSpace"), (1, "HnnTree")]


def test_only_space_modules_check_model_classes():
    offenders = {
        path.name: model_class_checks(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in OWNERS
    }
    assert {name: hits for name, hits in offenders.items() if hits} == {}
