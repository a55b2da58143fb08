"""Reachability guard: every public function of the package runs.

The golden command lines, ``verify --suite all --seed 0`` and the
``raag --svg`` snapshots run in-process under a call hook.  Every callable
name in ``cat0sigma.__all__`` and every public module-level function of
``src/cat0sigma/*.py`` must be called by them; a class counts as called
when a function defined in its body runs (a dataclass's generated
``__init__`` among them).  A public function that no command reaches is
deleted, or named in ``UNREACHED`` with the reason it has to stay.
"""

import importlib
import inspect
import io
import json
import pathlib
import sys
import types

import cat0sigma
from cat0sigma import cli
from test_cli import SVG_SNAPSHOTS

GOLDEN = pathlib.Path(__file__).parent / "golden"
PACKAGE = pathlib.Path(cat0sigma.__file__).parent

# Public functions that stay although no in-process command line calls them.
UNREACHED = {
    "cli.main": "the console entry point: it reads sys.argv and exits, and hands both to cli.run, "
    "which the command lines call",
    "trees.n_valuation": "the fixed vertex of an elliptic HNN generator in fixed_ends_tree; "
    "no command builds an HNN action for it and verify classifies Cayley actions only",
}


def command_lines(svg_dir) -> list:
    """Every golden job but the single-suite verify lines, which the run of
    all suites at seed 0 repeats; that run; and the raag --svg snapshots."""
    cases = json.loads((GOLDEN / "cli_stdout.json").read_text(encoding="utf-8"))
    lines = [c["argv"] for c in cases if c["argv"][0] != "verify"]
    mfpr = json.loads((GOLDEN / "mfpr_stdout.json").read_text(encoding="utf-8"))
    lines += [["mfpr", "--data", c["input"], *c["args"]] for c in mfpr]
    lines.append(["verify", "--suite", "all", "--seed", "0"])
    for graph, n in SVG_SNAPSHOTS.items():
        lines.append(["raag", "--graph", f"{graph}.json", "--n", str(n), "--svg", str(svg_dir / f"{graph}.svg")])
    return [[str(GOLDEN / a) if a.endswith((".json", ".txt")) else a for a in argv] for argv in lines]


def functions_of(obj) -> list:
    """The Python functions that run when obj is called: a function itself
    (unwrapped from a cache), or every function defined in a class body."""
    if isinstance(obj, type):
        members = vars(obj).values()
        found = [getattr(m, "__func__", None) or getattr(m, "fget", None) or m for m in members]
        return [f for f in found if isinstance(f, types.FunctionType)]
    return [inspect.unwrap(obj)]


def public_names() -> dict:
    """"module.name" -> the public callable, for the names in __all__ and
    the public functions defined at module level."""
    out = {f"{cat0sigma._HOME[name]}.{name}": getattr(cat0sigma, name) for name in cat0sigma.__all__}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        module = importlib.import_module(f"cat0sigma.{path.stem}")
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(inspect.unwrap(obj)) and obj.__module__ == module.__name__:
                out[f"{path.stem}.{name}"] = obj
    return {name: obj for name, obj in out.items() if callable(obj)}


def test_guard_counts_a_class_by_its_body():
    class Plain:
        def method(self):
            pass

    assert [f.__name__ for f in functions_of(Plain)] == ["method"]
    assert functions_of(cli.build_parser) == [cli.build_parser.__wrapped__]


def test_every_public_function_is_called_by_a_command(tmp_path):
    names = public_names()
    assert set(UNREACHED) <= set(names)
    codes = {f.__code__: name for name, obj in names.items() for f in functions_of(obj)}
    called = set()

    def hook(frame, event, arg):
        called.add(frame.f_code)

    cli.build_parser.cache_clear()  # build the parser under the hook, as a fresh process does
    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        for argv in command_lines(tmp_path):
            assert cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0, argv
    finally:
        sys.settrace(previous)
    reached = {codes[code] for code in called if code in codes}
    assert sorted(set(names) - reached - set(UNREACHED)) == []
    assert sorted(reached & set(UNREACHED)) == []
