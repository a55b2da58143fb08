"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py [WORKLOAD ...]    # default: all, then growth

Runs every job of each workload's pool (every job any seed can select)
through ``cli.run`` and writes ``refs/<workload>.json.gz``: per job id, the
exit code, the parsed JSON output and a digest of the inputs.  Run it on
the baseline commit only; the references are what later commits must
reproduce.

Before writing, the outputs are cross-checked along routes that do not
share their code path:

* MFPR lengths are recomputed with the Fourier-Motzkin decider
  (``exactlp.strictly_representable_fm``) in place of the simplex, except
  in rank 4 with five rays, where one instance takes FM about 40 s;
* tree Busemann values must equal L - h from the construction of each point
  (merge distance L, branch depth h), and the defining-limit audit in the
  payload must reach the same value once its schedule passes the merge;
* structured graphs must get the membership their topology gives;
* every verify job must exit 0 with ``ok`` true, and the suite list must be
  the program's ``verify.SUITES``.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _cross_check(job, code, payload, fm_lengths) -> list:
    problems = []
    argv = job["argv"]
    data = next(iter(job["files"].values()), None)
    if argv[0] == "mfpr" and (data["k"] < 4 or len(data["complement"]) < 5):
        want = fm_lengths(data)
        if payload["lengths"] != want:
            problems.append(f"lengths {payload['lengths']} but Fourier-Motzkin gives {want}")
    if "busemann_values" in job:
        want = [str(v) for v in job["busemann_values"]]
        if payload["values"] != want:
            problems.append(f"Busemann values {payload['values']}, construction gives {want}")
        last_t = 40  # the CLI's default schedule ends at 40
        for L, value, audit in zip(job["merge"], want, payload["limit_audit"]):
            if L <= last_t and audit["final"] != value:
                problems.append(f"limit audit ends at {audit['final']}, closed form {value}")
            if not (audit["monotone"] and audit["bounded"]):
                problems.append("limit audit not monotone and bounded")
    if "expect" in job and payload.get("membership") != job["expect"]:
        problems.append(f"membership {payload.get('membership')}, topology gives {job['expect']}")
    if argv[0] == "verify" and (code != 0 or not payload.get("ok")):
        problems.append("verify suite failed")
    return problems


def _run_all(jobs, indir, cli, fm_lengths):
    """(references by job id, number of problems found)."""
    memo_owner = sys.modules.get("cat0sigma.sphere")
    refs, bad = {}, 0
    for job in jobs:
        argv = [a.replace("{dir}", indir) for a in job["argv"]]
        code, text, _ = run._run_job(cli, argv, memo_owner)
        if code not in (0, 1):
            print(f"{job['id']}: exit {code}", file=sys.stderr)
            bad += 1
            continue
        payload = json.loads(text)
        files = {k: (v if isinstance(v, str) else json.loads(json.dumps(v))) for k, v in job["files"].items()}
        for problem in _cross_check(dict(job, files=files), code, payload, fm_lengths):
            print(f"{job['id']}: {problem}", file=sys.stderr)
            bad += 1
        refs[job["id"]] = {"digest": workloads.job_digest(job), "code": code, "output": payload}
    return refs, bad


def record(name: str, jobs: list, cli, fm_lengths) -> int:
    indir = os.path.join(HERE, ".work", f"record-{name}-{os.getpid()}")
    workloads.write_inputs(jobs, indir)
    try:
        refs, bad = _run_all(jobs, indir, cli, fm_lengths)
    finally:
        shutil.rmtree(indir, ignore_errors=True)
    if bad:
        print(f"{name}: {bad} problems, references not written", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    path = os.path.join(HERE, "refs", f"{name}.json.gz")
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=9) as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
    print(f"{name}: {len(refs)} references written to {os.path.relpath(path, run.ROOT)}")
    return 0


def main(argv) -> int:
    cli = run._import_program()
    from cat0sigma import jsonio, treesigma, verify
    from cat0sigma.exactlp import strictly_representable_fm

    if sorted(verify.SUITES) != sorted(workloads.VERIFY_SUITES):
        print(f"verify.SUITES is {sorted(verify.SUITES)}; update workloads.VERIFY_SUITES", file=sys.stderr)
        return 1

    def fm_lengths(data):
        lengths = treesigma.mfpr_lengths(treesigma.MFPRData.from_json(data), representable=strictly_representable_fm)
        return jsonio.jsonable({"fl_group": lengths.fl_group, "cl_character": lengths.cl_character,
                                "fl_base": lengths.fl_base})

    names = argv or list(workloads.WORKLOADS) + ["growth"]
    status = 0
    for name in names:
        jobs = [j for _, j in workloads.growth_jobs()] if name == "growth" else workloads.pool(name)
        status |= record(name, jobs, cli, fm_lengths)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
