"""Tooling guard: the Fourier-Motzkin oracle shares no code with production.
``exactlp`` imports only the standard library, and only ``verify`` (the
oracle side of the package) imports ``exactlp``.  The test oracles in
``tests/oracles.py`` import only the standard library, and the rational
rank oracle and the orthogonal split of the join description live there,
not in the package."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cat0sigma"
ORACLES = pathlib.Path(__file__).resolve().parent / "oracles.py"


def imported_modules(source: str) -> list[tuple[int, str]]:
    """(line, module) for every module an import statement reads; relative
    imports keep their leading dots, and ``from X import y`` also names
    ``X.y``, which may be a submodule."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if node.module:
                out.append((node.lineno, base))
            joiner = "." if node.module else ""
            out.extend((node.lineno, base + joiner + alias.name) for alias in node.names)
    return out


def is_stdlib(module: str) -> bool:
    return not module.startswith(".") and module.split(".")[0] in sys.stdlib_module_names


def imports_exactlp(module: str) -> bool:
    return module.split(".")[-1] == "exactlp"


def test_guard_reads_every_import_form():
    sample = "import math, os.path\nfrom . import exactlp\nfrom .sphere import m_value\nfrom cat0sigma.exactlp import f\n"
    found = imported_modules(sample)
    assert found == [
        (1, "math"),
        (1, "os.path"),
        (2, ".exactlp"),
        (3, ".sphere"),
        (3, ".sphere.m_value"),
        (4, "cat0sigma.exactlp"),
        (4, "cat0sigma.exactlp.f"),
    ]
    assert [m for _, m in found if not is_stdlib(m)] == [m for _, m in found[2:]]
    assert [m for _, m in found if imports_exactlp(m)] == [".exactlp", "cat0sigma.exactlp"]


def test_exactlp_imports_only_the_standard_library():
    source = (PACKAGE / "exactlp.py").read_text(encoding="utf-8")
    assert [(line, m) for line, m in imported_modules(source) if not is_stdlib(m)] == []


def test_test_oracles_import_only_the_standard_library():
    source = ORACLES.read_text(encoding="utf-8")
    assert [(line, m) for line, m in imported_modules(source) if not is_stdlib(m)] == []


def test_only_verify_imports_exactlp():
    importers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(imports_exactlp(m) for _, m in imported_modules(path.read_text(encoding="utf-8")))
    }
    assert importers == {"verify.py"}


def bound_names(source: str) -> set:
    """Every name a module binds: functions, classes, assignment targets
    and imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_no_package_module_defines_the_rank_oracle():
    sample = "def rational_rank(m):\n    pass\nfrom x import y as z\nw = 1\n"
    assert bound_names(sample) == {"rational_rank", "z", "w"}
    definers = [
        path.name for path in sorted(PACKAGE.glob("*.py")) if "rational_rank" in bound_names(path.read_text(encoding="utf-8"))
    ]
    assert definers == []


def test_no_package_module_defines_the_join_twin():
    forks = {"join_components", "contains_by_join"}
    sample = "class D:\n    def contains_by_join(self, e):\n        pass\n"
    assert forks & bound_names(sample) == {"contains_by_join"}
    definers = [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in sorted(forks & bound_names(path.read_text(encoding="utf-8")))
    ]
    assert definers == []


def test_no_package_module_defines_a_second_path():
    # Each of these answered a question that another entry answers: the
    # seeded stream (unchecked_point_stream, twice: the stream and a checked
    # sampler of its first points), meet and point_distance, the valuation,
    # contains(normalize_ray(chi)), the H2 angle's closed form and
    # GroupAction.translation_vectors.
    seconds = {
        "point_stream",
        "sample_points_near",
        "vertex_distance",
        "contains_value",
        "contains_character",
        "_comparison_angle",
        "_extract_translation_vectors",
    }
    definers = [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in sorted(seconds & bound_names(path.read_text(encoding="utf-8")))
    ]
    assert definers == []
