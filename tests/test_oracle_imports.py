"""Tooling guard: the Fourier-Motzkin oracle shares no code with production.
``exactlp`` imports only the standard library, and only ``verify`` (the
oracle side of the package) imports ``exactlp``."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cat0sigma"


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


def test_only_verify_imports_exactlp():
    importers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(imports_exactlp(m) for _, m in imported_modules(path.read_text(encoding="utf-8")))
    }
    assert importers == {"verify.py"}
