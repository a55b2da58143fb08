"""Reachability guard: every public function of the package runs for a
command other than ``verify``.

The golden command lines, ``verify --suite all --seed 0`` and the
``--svg`` snapshots run in-process under a call hook, which records the
functions that the ``verify`` line calls apart from those that the other
lines call.  The public names are every public module-level function of
``src/cat0sigma/*.py`` and every function written in the body of a public
class there (methods, static methods and properties, but not the ones
``dataclass`` generates); a public dataclass counts as called when a
function defined in its body runs (a generated ``__init__`` among them), so
a pure record is guarded too.  A name of ``verify`` must be called by one
of the command lines.  Any other name must be called by a command line
other than ``verify``; or be named in ``UNREACHED`` with the reason it has
to stay although nothing calls it; or be named in ``VERIFY_ONLY`` with one
of the four reasons in ``VERIFY_ONLY_KINDS``, when ``verify`` alone calls
it.  What only ``verify`` asks for otherwise lives in ``verify``.  A name in
either table that the commands it excludes do call fails as stale.

Every option of every command must appear on one of those command lines,
or be named in ``UNUSED_OPTIONS`` with the reason it has no golden line.
"""

import dataclasses
import importlib
import inspect
import io
import json
import pathlib
import sys
import types

import cat0sigma
from cat0sigma import cli
from test_cli import SVG_SNAPSHOTS, snapshot_command_line

GOLDEN = pathlib.Path(__file__).parent / "golden"
PACKAGE = pathlib.Path(cat0sigma.__file__).parent

# Public functions that stay although no in-process command line calls them.
UNREACHED = {
    "cli.main": "the console entry point: it reads sys.argv and exits, and hands both to cli.run, "
    "which the command lines call",
    "homology.SimplicialComplex.simplices": "the benchmark's tracer reads it to count the faces "
    "of each flag complex",
}

# The kinds of public name outside verify that verify alone may call.
PROTOCOL = "a method of the space, isometry or configuration protocol; no other command calls it on this class"
ORACLE = "the Fourier-Motzkin oracle, imported by verify alone (test_oracle_imports)"
HANDLER = "the handler of the verify command"
EXAMPLE = "a constructor of a fixed example that verify and the tests build"
VERIFY_ONLY_KINDS = {PROTOCOL, ORACLE, HANDLER, EXAMPLE}

# Public names outside verify that only the verify command line calls.
VERIFY_ONLY = {
    "actions.ControlConfiguration.labels": PROTOCOL,
    "actions.EuclideanIsometry.boundary": PROTOCOL,
    "actions.GroupAction._move_end": PROTOCOL,
    "actions.GroupAction.apply": PROTOCOL,
    "actions.GroupAction.boundary_apply": PROTOCOL,
    "spaces.EuclideanSpace.boundary_equal": PROTOCOL,
    "spaces.EuclideanSpace.sample_end": PROTOCOL,
    "spaces.HyperbolicPlane.origin": PROTOCOL,
    "spaces.HyperbolicPlane.sample_end": PROTOCOL,
    "trees.HnnTree.sample_end": PROTOCOL,
    "trees.TreeModel.children": PROTOCOL,
    "trees.WordTree.probe_ends": PROTOCOL,
    "trees.WordTree.sample_end": PROTOCOL,
    "exactlp.strictly_representable_fm": ORACLE,
    "cli.cmd_verify": HANDLER,
    "actions.EuclideanIsometry.pure_translation": EXAMPLE,
    "actions.GroupAction.ascending_hnn": EXAMPLE,
    "actions.GroupAction.cyclic_on_cayley_tree": EXAMPLE,
    "actions.GroupAction.euclidean_translations": EXAMPLE,
    "actions.GroupAction.free_group": EXAMPLE,
    "actions.GroupAction.moebius": EXAMPLE,
    "raag.SimpleGraph.complete": EXAMPLE,
    "raag.SimpleGraph.cycle": EXAMPLE,
    "raag.SimpleGraph.octahedron": EXAMPLE,
    "sphere.Character.__neg__": EXAMPLE,
    "sphere.Character.scaled": EXAMPLE,
    "sphere.Character.zero": EXAMPLE,
    "sphere.SpherePoint.character": EXAMPLE,
}

# Options that stay although no golden or snapshot command line passes them.
UNUSED_OPTIONS: dict[str, str] = {}


def command_lines(svg_dir) -> list:
    """Every golden job but the single-suite verify lines, which the run of
    all suites at seed 0 repeats; that run; and the --svg snapshots."""
    cases = json.loads((GOLDEN / "cli_stdout.json").read_text(encoding="utf-8"))
    lines = [c["argv"] for c in cases if c["argv"][0] != "verify"]
    mfpr = json.loads((GOLDEN / "mfpr_stdout.json").read_text(encoding="utf-8"))
    lines += [["mfpr", "--data", c["input"], *c["args"]] for c in mfpr]
    lines.append(["verify", "--suite", "all", "--seed", "0"])
    lines = [[str(GOLDEN / a) if a.endswith((".json", ".txt")) else a for a in argv] for argv in lines]
    return lines + [snapshot_command_line(name, svg_dir / f"{name}.svg") for name in SVG_SNAPSHOTS]


def functions_of(obj) -> list:
    """The Python functions that run when obj is called: a function itself
    (unwrapped from a cache), or every function defined in a class body."""
    if isinstance(obj, type):
        members = vars(obj).values()
        found = [getattr(m, "__func__", None) or getattr(m, "fget", None) or m for m in members]
        return [f for f in found if isinstance(f, types.FunctionType)]
    return [inspect.unwrap(obj)]


def written_functions(cls) -> list:
    """The functions written in the body of cls: methods, static methods
    and properties, without the ones dataclass generates."""
    return [f for f in functions_of(cls) if f.__code__.co_filename == inspect.getfile(cls)]


def public_names() -> dict:
    """"module.name" -> each public function defined at module level and
    each public dataclass; "module.Class.name" -> each function written in
    the body of a public class."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        module = importlib.import_module(f"cat0sigma.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    out[f"{path.stem}.{name}"] = obj
                out.update({f"{path.stem}.{name}.{f.__name__}": f for f in written_functions(obj)})
            elif inspect.isfunction(inspect.unwrap(obj)):
                out[f"{path.stem}.{name}"] = obj
    return out


def test_guard_counts_a_class_by_its_body():
    class Plain:
        def method(self):
            pass

    @dataclasses.dataclass(frozen=True)
    class Record:
        x: int

        @property
        def double(self):
            return 2 * self.x

        @staticmethod
        def make():
            return Record(1)

    assert [f.__name__ for f in functions_of(Plain)] == ["method"]
    assert functions_of(cli.build_parser) == [cli.build_parser.__wrapped__]
    assert {"__init__", "__eq__", "double", "make"} <= {f.__name__ for f in functions_of(Record)}
    assert sorted(f.__name__ for f in written_functions(Record)) == ["double", "make"]


def test_every_public_function_is_called_by_a_command(tmp_path):
    names = public_names()
    assert set(UNREACHED) <= set(names)
    codes = {}
    for name, obj in names.items():
        for f in functions_of(obj):
            codes.setdefault(f.__code__, []).append(name)
    called = {False: set(), True: set()}  # by verify, by the other commands
    sink = called[True]

    def hook(frame, event, arg):
        sink.add(frame.f_code)  # the set of the command line that runs

    cli.build_parser.cache_clear()  # build the parser under the hook, as a fresh process does
    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        for argv in command_lines(tmp_path):
            sink = called[argv[0] != "verify"]
            assert cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0, argv
    finally:
        sys.settrace(previous)
    reached = {side: {name for code in found for name in codes.get(code, ())} for side, found in called.items()}
    outside_verify = {name for name in names if not name.startswith("verify.")}
    # Each name in the message, where pytest's comparison of lists is cut short.
    unreached = sorted(
        (set(names) - outside_verify - reached[False] - reached[True])
        | (outside_verify - reached[True] - set(UNREACHED) - set(VERIFY_ONLY))
    )
    assert not unreached, f"no command line but verify calls {len(unreached)}: {', '.join(unreached)}"
    stale = sorted(((reached[False] | reached[True]) & set(UNREACHED)) | (reached[True] & set(VERIFY_ONLY)))
    assert not stale, f"named in UNREACHED or VERIFY_ONLY but called: {', '.join(stale)}"
    assert set(VERIFY_ONLY) <= outside_verify & reached[False]


def test_verify_only_names_have_one_of_the_four_reasons():
    assert set(VERIFY_ONLY.values()) <= VERIFY_ONLY_KINDS
    assert not set(VERIFY_ONLY) & set(UNREACHED)


def test_every_option_is_on_a_command_line(tmp_path):
    options = {
        option
        for command in cli.build_parser().commands.values()
        for action in command._actions
        for option in action.option_strings
    } - {"-h", "--help"}
    used = {a for argv in command_lines(tmp_path) for a in argv if a.startswith("--")}
    assert set(UNUSED_OPTIONS) <= options
    assert sorted(options - used - set(UNUSED_OPTIONS)) == []
    assert sorted(used & set(UNUSED_OPTIONS)) == []
