"""Command-line entry point: batch computations, audits, the verification
runner, and SVG pictures of character-sphere points.

Every command is deterministic given its inputs and, for the three that
draw random samples (cocompact, audit and verify), its --seed; the seed
appears in every report, as 0 for the commands that draw nothing.  Exit
codes: 0 success, 1 a checked property failed, 2 input error (with a
machine-readable diagnostic on standard error).
SIGMA_LOG=1 turns on progress logging to standard error; ``verify`` then
logs each suite's wall time and the number of processes that ran it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

from . import jsonio
from .errors import Cat0SigmaError, DegreeOutOfRange, UsageError

PROG = "cat0sigma"
# The names of verify.SUITES, sorted: the parser offers them without
# importing verify, which imports every other module.
SUITE_NAMES = (
    "audits", "busemann", "character", "cocompact", "horoball", "raag", "shift", "sl2z", "sphere", "tits", "treesigma"
)


def _log(msg: str, stderr) -> None:
    if os.environ.get("SIGMA_LOG"):
        print(f"{PROG}: {msg}", file=stderr)


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"the data file must hold a JSON object, not {type(data).__name__}")
    return data


def _boundary_pair(space, pair):
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError(f"expected a list of two boundary points, got {pair!r}")
    return space.parse_boundary(pair[0]), space.parse_boundary(pair[1])


# ---------------------------------------------------------------------------
# Command handlers.  Each returns (exit_code, payload), to which run() adds
# the command and the seed, and each imports the modules it uses, so a
# command loads no module it does not need.  The JSON readers only parse;
# the library function a handler hands a value to checks it, and a handler
# that computes with space methods checks each value once.  Exact values
# (tree distances and Busemann values) pass through jsonio.rational where
# they enter a report, so an integral one prints as "n" whether it is an
# int or a Fraction (docs/formats.md).


def cmd_busemann(args, data):
    from . import spaces as sp

    space = sp.space_from_json(data["space"])
    ray = sp.ray_from(space, *jsonio.parse_ray(space, data["ray"]))
    points = [space.check_point(space.parse_point(p)) for p in jsonio.read_field(data, "points", list, [])]
    schedule = [space.parse_scalar(t) for t in jsonio.read_field(data, "schedule", list, []) or [1, 2, 5, 10, 20, 40]]
    mono_slack = space.slack(1e-12)
    bound_slack = space.slack(sp.GLOBAL_TOL)
    values, audits = [], []
    for p in points:
        closed = ray.busemann(p)
        vals = [v for _, v in ray.limit_audit(p, schedule)]
        monotone = all(vals[i] <= vals[i + 1] + mono_slack for i in range(len(vals) - 1))
        top = space.distance(ray.base, p) + bound_slack
        bounded = all(v <= top for v in vals)
        values.append(jsonio.rational(closed))
        audits.append(
            {
                "final": jsonio.rational(vals[-1]) if vals else None,
                "final_gap": abs(float(vals[-1] - closed)) if vals else None,
                "monotone": monotone,
                "bounded": bounded,
            }
        )
    ok = all(a["monotone"] and a["bounded"] for a in audits)
    return (0 if ok else 1), {"space": space.to_json(), "values": values, "limit_audit": audits}


def cmd_tits(args, data):
    from .spaces import GLOBAL_TOL, space_from_json

    space = space_from_json(data["space"])
    results = []
    ok = True
    for pair in jsonio.read_field(data, "pairs", list):
        e1, e2 = (space.check_boundary(e) for e in _boundary_pair(space, pair))
        ang = space.angular_distance(e1, e2)
        td = space.tits_distance(e1, e2)
        ok = ok and td >= ang - GLOBAL_TOL
        results.append({"angular": ang, "tits": td})
    return (0 if ok else 1), {"space": space.to_json(), "results": results}


def cmd_character(args, data):
    from .actions import action_from_json, character_at_end

    action = action_from_json(data["action"])
    end = action.space.parse_boundary(data["end"])
    base = action.space.parse_point(data["base"])
    words = jsonio.read_field(data, "words", list)
    if not all(isinstance(word, str) for word in words):
        raise ValueError(f"words are strings over the generator names, got {words!r}")
    values = character_at_end(action, end, base, words)
    return 0, {"end": end, "values": {word: jsonio.rational(v) for word, v in values.items()}}


def cmd_shift(args, data):
    from . import actions as ac, spaces as sp

    space = sp.space_from_json(data["space"])
    config = jsonio.read_field(data, "config", dict)
    points = {label: space.parse_point(p) for label, p in config.items()}
    fmap = jsonio.read_field(data, "map", dict)
    # A map value is a label when it is a string key of the configuration.
    images = {label: x if isinstance(x, str) and x in config else space.parse_point(x) for label, x in fmap.items()}
    report = ac.shift_report(ac.ControlConfiguration(space, points), images, space.parse_boundary(data["end"]))
    payload = {
        "shifts": {label: jsonio.rational(v) for label, v in report.shifts.items()},
        "displacements": {label: jsonio.rational(v) for label, v in report.displacements.items()},
        "gsh": jsonio.rational(report.gsh),
        "norm": jsonio.rational(report.norm),
        "is_contraction": report.is_contraction,
    }
    return 0, payload


def cmd_cocompact(args, data):
    from . import actions as ac

    action = ac.action_from_json(data["action"])
    base = action.space.parse_point(data["base"])
    verdict = ac.cocompactness_witness(action, base, args.radius, depth=args.depth, seed=args.seed)
    exact = ("max_min_distance", "level", "max_orbit_busemann", "max_region_busemann")
    fields = {k: getattr(verdict, k) for k in verdict.__slots__}
    detail = {k: jsonio.rational(v) if k in exact else v for k, v in fields.items()}
    payload = {
        "radius": args.radius,
        "depth": args.depth,
        "verdict": type(verdict).__name__,
        "detail": detail,
    }
    return 0, payload


def cmd_raag(args, data):
    from .raag import SimpleGraph, flag_verdict

    with open(args.graph, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        graph = SimpleGraph.from_json(json.loads(text))
    else:
        graph = SimpleGraph.from_edge_list(text)
    verdict = flag_verdict(graph, args.n)
    payload = {
        "n": args.n,
        "membership": verdict.membership,
        "verdict": {
            "nonempty": verdict.nonempty,
            "connected": verdict.connected,
            "simply_connected": verdict.simply_connected,
            "homology_vanishing": verdict.homology_vanishing,
        },
    }
    return 0, payload


def _add_degrees(args, summary, payload) -> None:
    """The degree report shared by tree-sigma and mfpr: a table up to --n (or
    to the default of ``sigma_table``) when --table is given or --n is not,
    and the value at --n when --table is not given.  A negative --n is
    rejected before any table is made."""
    from .treesigma import dynamical_sigma, sigma_table

    if args.n is not None and args.n < 0:
        raise DegreeOutOfRange(f"degree {args.n} outside [0, {summary.fl_group}]")
    if args.table or args.n is None:
        payload["table"] = [{"n": n, "value": v} for n, v in sigma_table(summary, args.n)]
    if args.n is not None and not args.table:
        payload["n"] = args.n
        payload["value"] = dynamical_sigma(summary, args.n)


def cmd_tree_sigma(args, data):
    from .treesigma import GraphOfGroupsSummary

    payload = {"summary": data}
    _add_degrees(args, GraphOfGroupsSummary.from_json(data), payload)
    return 0, payload


def cmd_mfpr(args, data):
    from .treesigma import MFPRData, mfpr_lengths

    mfpr = MFPRData.from_json(data)
    if args.svg:
        # Rendered before the m-function is computed, so that a picture it
        # cannot draw is refused first.
        from . import svg

        picture = svg.render_sphere_svg(mfpr.k, mfpr.complement)
    summary = mfpr_lengths(mfpr)
    payload = {
        "lengths": {
            "fl_group": summary.fl_group,
            "cl_character": summary.cl_character,
            "fl_base": summary.fl_stabilizers,
        },
        "antipodal_pair": mfpr.has_antipodal_pair(),
    }
    _add_degrees(args, summary, payload)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(picture)
        payload["svg"] = args.svg
    return 0, payload


def cmd_audit(args, data):
    from . import actions as ac, spaces as sp

    space = sp.space_from_json(data["space"])
    e1, e2 = _boundary_pair(space, jsonio.read_field(data, "ends", list))
    if args.which == "local-busemann":
        report = ac.local_busemann_audit(
            space,
            space.parse_point(data["center"]),
            space.parse_scalar(data["r"]),
            space.parse_scalar(data["eps"]),
            e1,
            e2,
            samples=jsonio.parse_int(jsonio.read_field(data, "samples", default=50)),
            seed=args.seed,
        )
    else:
        base = space.parse_point(data["base"])
        schedule = [space.parse_scalar(t) for t in jsonio.read_field(data, "schedule", list, [1, 2, 5, 10])]
        report = ac.angle_estimate_audit(space, base, e1, e2, schedule)
    payload = {
        "which": args.which,
        "passed": report.passed,
        "samples": report.samples,
        "worst_slack": report.worst_slack,
        "details": report.details,
    }
    return (0 if report.passed else 1), payload


def cmd_verify(args, data):
    from . import verify

    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        start = time.perf_counter()
        reports.append(verify.run_suite(name, seed=args.seed))
        ms, n = 1000 * (time.perf_counter() - start), reports[-1].processes
        _log(f"suite {name} (seed {args.seed}): {ms:.1f} ms, {n} process{'es' if n > 1 else ''}", args.stderr)
    ok = all(r.ok for r in reports)
    return (0 if ok else 1), {"ok": ok, "suites": [r.to_json() for r in reports]}


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises on a malformed command line, so that run() reports it like any
    other input error instead of printing usage and exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first run() and then reused."""
    parser = _Parser(
        prog=PROG,
        description="Boundary geometry of CAT(0) group actions: Busemann "
        "functions, characters, shift calculus and invariant formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's own parser, by name

    def add(name, data=True, draws=False):
        p = sub.add_parser(name)
        p.set_defaults(seed=0)  # the default of --seed, and the seed a command that draws nothing reports
        if data:
            p.add_argument("--data", required=True, help="input JSON file")
        if draws:
            p.add_argument("--seed", type=int)
        return p

    add("busemann")
    add("tits")
    add("character")
    add("shift")
    p = add("cocompact", draws=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--depth", type=int, default=6)
    p = add("raag", data=False)
    p.add_argument("--graph", required=True, help="graph JSON or edge-list file")
    p.add_argument("--n", type=int, default=1)
    p = add("tree-sigma")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--table", action="store_true")
    p = add("mfpr")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--table", action="store_true")
    p.add_argument("--svg", help="emit the complement point set as SVG")
    p = add("audit", draws=True)
    p.add_argument("--which", required=True, choices=["local-busemann", "angle-estimate"])
    p = add("verify", data=False, draws=True)
    p.add_argument("--suite", default="all", choices=[*SUITE_NAMES, "all"])
    return parser


HANDLERS = {
    "busemann": cmd_busemann,
    "tits": cmd_tits,
    "character": cmd_character,
    "shift": cmd_shift,
    "cocompact": cmd_cocompact,
    "raag": cmd_raag,
    "tree-sigma": cmd_tree_sigma,
    "mfpr": cmd_mfpr,
    "audit": cmd_audit,
    "verify": cmd_verify,
}


def _input_error(exc, stderr) -> int:
    diagnostic = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(diagnostic, sort_keys=True), file=stderr)
    return 2


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = build_parser()
    # A command line that starts with a command is parsed once, by that
    # command's parser; the top-level parser sees the rest (--help, no command).
    command = parser.commands.get(argv[0]) if argv else None
    try:
        with contextlib.redirect_stdout(stdout):
            args = (parser.parse_args(argv) if command is None
                    else command.parse_args(argv[1:], argparse.Namespace(command=argv[0])))
    except SystemExit:  # --help has printed the usage to stdout
        return 0
    except UsageError as exc:
        return _input_error(exc, stderr)
    try:
        data = _load(args.data) if getattr(args, "data", None) else None
        _log(f"running {args.command} (seed {args.seed})", stderr)
        args.stderr = stderr  # handlers that log as they go write here
        code, payload = HANDLERS[args.command](args, data)
        stdout.write(jsonio.dumps({"command": args.command, "seed": args.seed, **payload}))
        return code
    except (Cat0SigmaError, ValueError, KeyError, OSError) as exc:
        return _input_error(exc, stderr)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
