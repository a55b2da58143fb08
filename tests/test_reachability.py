"""Reachability guard: every public function of the package runs for a
command other than ``verify``, and every statement inside a function of the
package runs for some command.

The golden command lines, ``verify --suite all --seed 0`` and the
``--svg`` snapshots run once, in-process, under a hook that records the
functions that the ``verify`` line calls apart from those that the other
lines call, and the lines that run in the package's frames.

Functions: the public names are every public module-level function of
``src/cat0sigma/*.py``, every function written in the body of a public
class there (methods, static methods and properties, but not the ones a
value class inherits from ``value.Value``), and each public value class,
which counts as called when a command line builds one: when the base's
``__init__`` runs for it or a function written in its body runs, so a pure
record is guarded too.  A name of ``verify`` must be called by one
of the command lines.  Any other name must be called by a command line
other than ``verify``; or be named in ``UNREACHED`` with the reason it has
to stay although nothing calls it; or be named in ``VERIFY_ONLY`` with one
of the four reasons in ``VERIFY_ONLY_KINDS``, when ``verify`` alone calls
it.  What only ``verify`` asks for otherwise lives in ``verify``.  A name in
either table that the commands it excludes do call fails as stale.

Statements: every statement inside a function of the package must run on
one of the command lines.  A simple statement runs when any of its lines
runs, a compound one when its header does.  Exempt are ``raise``
statements, the bodies of ``except`` clauses, the functions of
``UNREACHED`` and those of ``UNRUN``, each named with the reason its
statements stay although no command line runs them all.  A function of
``UNRUN`` whose every statement runs fails as stale.

Every option of every command must appear on one of those command lines,
or be named in ``UNUSED_OPTIONS`` with the reason it has no golden line.
"""

import ast
import importlib
import inspect
import io
import json
import pathlib
import sys
import types

import pytest

import cat0sigma
from cat0sigma import cli
from cat0sigma.value import Value
from test_cli import SVG_SNAPSHOTS, snapshot_command_line

GOLDEN = pathlib.Path(__file__).parent / "golden"
PACKAGE = pathlib.Path(cat0sigma.__file__).parent
BUILD = Value.__init__.__code__  # the hook records the class of each value that it builds

# Public functions that stay although no in-process command line calls them.
UNREACHED = {
    "cli.main": "the console entry point: it reads sys.argv and exits, and hands both to cli.run, "
    "which the command lines call",
    "cli.usage": "--help prints it, and no command line asks for help; tests/test_cli.py runs it",
    "homology.SimplicialComplex.simplices": "the benchmark's tracer reads it to count the faces "
    "of each flag complex",
    "value.Value.__init_subclass__": "it runs when a value class is defined, at import, before the trace hook is set",
    "value.Value.__repr__": "the exit-2 diagnostics print it (EndNotFixed, an offset on a root), and every command "
    "line exits 0; tests/test_cli.py pins three of them",
    "value.Value.__setattr__": "it refuses an assignment to a field, which no command makes",
}

# Functions with statements that no command line runs, and why each stays.
FORKED = "verify's forked path: it runs only when no trace hook is set, and tests/test_verify.py runs it"
UNRUN = {
    "verify._usable_cpus": FORKED,
    "verify.processes": FORKED,
    "verify._fork_share": FORKED,
    "verify._reap": FORKED,
    "verify.run_suite": FORKED,
    "cli._log": "a SIGMA_LOG=1 progress line; the command lines run with SIGMA_LOG unset",
    "cli._input_error": "the diagnostic of exit 2; every command line exits 0",
    "cli.parse": "the usage-error and --help branches: every golden command line is well formed; "
    "tests/test_cli.py checks them against argparse",
    "cli._read": "the other spellings of an option (a prefix, --opt=value, -hh) and the words that name no option: "
    "every golden command line spells each option in full",
    "verify.CheckResult.record": "the failure count, which a passing verify run never adds to",
    "raag.tietze_trivialize": "a relator with no lone generator, which no golden presentation visits "
    "(test_raag.py's <a, b | a^2, ab> does)",
    "raag.ConnectivityVerdict.all_requirements": "the UNKNOWN of a simple connectivity that the Tietze "
    "search leaves open, which no golden complex reaches",
    "words.cyclic_reduce": "the conjugate case: no golden relator or word is a conjugate",
    "words.reduce_word": "a letter that cancels: every golden isometry word and relator is reduced, and the "
    "Cayley tree multiplies reduced words with words.multiply; tests/test_trees.py runs it",
    "homology.smith_normal_form": "the Euclidean steps, when no unit pivot is left; the flag RP^2 of "
    "raag_suspended_rp2.txt reports its Z/2 without them",
    "homology._invariant_factors": "the exchange of two orders that do not divide, which no golden "
    "complex's torsion needs",
    "jsonio.jsonable": "the \"nan\" of a NaN float, which no golden report holds",
    "exactlp._integer_row": "rational rows: verify hands the oracle integer vectors only",
    "exactlp.strictly_representable_fm": "the empty vector list, which verify never hands the oracle",
    "trees.WordTree.sample_end": "the fallback after 40 failed draws, which no seed of verify reaches",
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
    """The Python functions that run when obj is called: a function itself,
    or every function defined in a class body."""
    if isinstance(obj, type):
        members = vars(obj).values()
        found = [getattr(m, "__func__", None) or getattr(m, "fget", None) or m for m in members]
        return [f for f in found if isinstance(f, types.FunctionType)]
    return [obj]


def written_functions(cls) -> list:
    """The functions written in the body of cls: methods, static methods
    and properties, without the field getter that the value base stores."""
    return [f for f in functions_of(cls) if f.__code__.co_filename == inspect.getfile(cls)]


def public_names() -> dict:
    """"module.name" -> each public function defined at module level and
    each public value class; "module.Class.name" -> each function written
    in the body of a public class."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        module = importlib.import_module(f"cat0sigma.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                if issubclass(obj, Value) and obj is not Value:
                    out[f"{path.stem}.{name}"] = obj
                out.update({f"{path.stem}.{name}.{f.__name__}": f for f in written_functions(obj)})
            elif inspect.isfunction(obj):
                out[f"{path.stem}.{name}"] = obj
    return out


def test_guard_counts_a_class_by_its_body():
    class Plain:
        def method(self):
            pass

    class Record(Value):
        __slots__ = ("x",)

        @property
        def double(self):
            return 2 * self.x

        @staticmethod
        def make():
            return Record(1)

    assert [f.__name__ for f in functions_of(Plain)] == ["method"]
    assert functions_of(cli.parse) == [cli.parse]
    assert sorted(f.__name__ for f in written_functions(Record)) == ["double", "make"]
    # The records whose bodies hold no function count as well.
    records = {"actions.NetCertificate", "actions.UnknownVerdict", "actions.AuditReport", "raag.TietzeCertificate"}
    assert records <= set(public_names())


@pytest.fixture(scope="module")
def hooked_run(tmp_path_factory):
    """One run of command_lines() under a trace hook: the code objects that
    the verify line calls and that the other lines call, and the (file,
    line) pairs that run in the package's frames.  A code object's frames
    are traced until each of its lines has run (its first line, which
    holds a def, only when it has no other), which halves the cost of the
    line events.  A value class that the base's ``__init__`` builds is
    recorded with the code objects."""
    public_names()  # import every module, and so define every value class, before the hook
    lines = command_lines(tmp_path_factory.mktemp("svg"))
    called = {False: set(), True: set()}  # by verify, by the other commands
    sink = called[True]
    package = str(PACKAGE)
    tracked, left = {}, {}  # code -> the lines traced, and those of them not yet run

    def line_hook(frame, event, arg):
        todo = left[frame.f_code]
        todo.discard(frame.f_lineno)
        return line_hook if todo else None

    def hook(frame, event, arg):
        code = frame.f_code
        sink.add(code)  # the set of the command line that runs
        if code is BUILD:
            sink.add(type(frame.f_locals["self"]))
        if code not in tracked:
            numbers = {n for _, _, n in code.co_lines() if n is not None} if code.co_filename.startswith(package) else set()
            tracked[code] = numbers - {code.co_firstlineno} or numbers
            left[code] = set(tracked[code])
        return line_hook if left[code] else None

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        for argv in lines:
            sink = called[argv[0] != "verify"]
            assert cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0, argv
    finally:
        sys.settrace(previous)
    ran = {(code.co_filename, n) for code, numbers in tracked.items() for n in numbers - left[code]}
    return types.SimpleNamespace(lines=lines, called=called, ran=ran)


def test_every_public_function_is_called_by_a_command(hooked_run):
    names = public_names()
    assert set(UNREACHED) <= set(names)
    codes = {}
    for name, obj in names.items():
        if isinstance(obj, type):  # a value class: built by the base, or a function of its body runs
            keys = [obj] + [f.__code__ for f in written_functions(obj)]
        else:
            keys = [f.__code__ for f in functions_of(obj)]
        for key in keys:
            codes.setdefault(key, []).append(name)
    reached = {side: {name for code in found for name in codes.get(code, ())} for side, found in hooked_run.called.items()}
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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(body, function=None, exempt=False):
    """(function, node, exempt) for each statement inside a function in
    body, recursively; function is the dotted name of the enclosing
    function ("Class.method" for a method), and exempt tells a raise
    statement or a statement of an except body.  Docstrings and global or
    nonlocal declarations compile to no code and are left out."""
    for i, node in enumerate(body):
        docstring = i == 0 and isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str)
        if function is not None and not docstring and not isinstance(node, (ast.Global, ast.Nonlocal)):
            yield function, node, exempt or isinstance(node, ast.Raise)
        if isinstance(node, ast.ClassDef) and function is None:  # a class body holds methods, not statements
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from statements(member.body, f"{node.name}.{member.name}")
        elif isinstance(node, DEFINITIONS):
            yield from statements(node.body, node.name if function is None else f"{function}.{node.name}", exempt)
        else:
            for field in ("body", "orelse", "finalbody"):
                yield from statements(getattr(node, field, None) or [], function, exempt)
            for handler in getattr(node, "handlers", ()):  # runs only when its exception is raised
                yield from statements(handler.body, function, True)


def header_lines(node) -> range:
    """The lines that count for a statement: all of a simple statement's, a
    compound one's up to its body, a definition's from its first decorator
    to its def line."""
    if isinstance(node, DEFINITIONS):
        return range(min([d.lineno for d in node.decorator_list] + [node.lineno]), node.lineno + 1)
    body = getattr(node, "body", None)
    if isinstance(body, list):
        return range(node.lineno, max(node.lineno, body[0].lineno - 1) + 1)
    return range(node.lineno, node.end_lineno + 1)


def unrun_statements(ran) -> dict:
    """"module.function" -> the statements inside it, not exempt, whose
    lines are none of ran's, each as (file, line, source)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for function, node, exempt in statements(ast.parse(source).body):
            if not exempt and not any((str(path), n) in ran for n in header_lines(node)):
                out.setdefault(f"{path.stem}.{function}", []).append(
                    (path.name, node.lineno, lines[node.lineno - 1].strip())
                )
    return out


STATEMENT_SAMPLE = '''
def f(x):
    """doc"""
    if x:
        raise ValueError(x)
    try:
        y = (1,
             2)
    except TypeError:
        y = 0
    return y
class C:
    z = 1
    def g(self):
        pass
'''


def test_statement_guard_counts_headers_and_exemptions():
    tree = ast.parse(STATEMENT_SAMPLE)
    found = [(f, node.lineno, exempt) for f, node, exempt in statements(tree.body)]
    assert found == [("f", 4, False), ("f", 5, True), ("f", 6, False), ("f", 7, False), ("f", 10, True),
                     ("f", 11, False), ("C.g", 15, False)]
    assert list(header_lines(tree.body[0].body[1])) == [4]
    assert list(header_lines(tree.body[0].body[2].body[0])) == [7, 8]


def test_every_statement_runs_for_a_command(hooked_run):
    unrun = unrun_statements(hooked_run.ran)
    exempt = (*UNREACHED, *UNRUN)
    missing = sorted(
        where
        for name, found in unrun.items()
        if not any(name == f or name.startswith(f + ".") for f in exempt)
        for where in found
    )
    # Each statement in the message, where pytest's comparison of lists is cut short.
    assert not missing, f"no command line runs {len(missing)} statements:\n" + "\n".join(
        f"{file}:{line}: {source}" for file, line, source in missing
    )
    stale = sorted(name for name in UNRUN if name not in unrun)
    assert not stale, f"named in UNRUN but every statement runs: {', '.join(stale)}"
    assert not set(UNRUN) & set(UNREACHED)


def test_verify_only_names_have_one_of_the_four_reasons():
    assert set(VERIFY_ONLY.values()) <= VERIFY_ONLY_KINDS
    assert not set(VERIFY_ONLY) & set(UNREACHED)


def test_every_option_is_on_a_command_line(hooked_run):
    options = {option for table in cli.OPTIONS.values() for option in table}
    used = {a for argv in hooked_run.lines for a in argv if a.startswith("--")}
    assert set(UNUSED_OPTIONS) <= options
    assert sorted(options - used - set(UNUSED_OPTIONS)) == []
    assert sorted(used & set(UNUSED_OPTIONS)) == []
