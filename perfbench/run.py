"""The cat0sigma benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; without it the benchmark exits 2 and prints no result.

The run has three processes in turn:

1. set-up probes: fresh interpreters that import ``cat0sigma.cli`` and
   generate and write the workload's input files; ``setup_s`` is the
   median of their times;
2. the workload process: a fresh interpreter that calls ``cli.run`` for one
   job at a time (closed loop, one client), emptying the m-value memo before
   each job so every job starts cold, as a CLI process does;
3. this process, which checks every output against the references recorded
   at the baseline commit and prints the result.

``--trace 0`` repeats passes over the seed's fixed job list until
``--seconds`` have passed and reports the end-to-end metrics.  Job times
are scaled to a reference CPU speed with a calibration kernel timed between
jobs (see ``calibrate``); the raw wall-clock figures are in the details.  ``--trace 1``
times the growth series, makes one untraced and one traced pass, and
reports per-layer call counts and self time; the difference of the two
passes is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 5
TAIL_BEYOND = 10
CHILD_TIMEOUT = 170
# Job latencies are scaled to the CPU speed at which calibrate() takes
# REF_CAL_S.  The machines this runs on change speed by a quarter within
# seconds (other tenants, frequency scaling); a fixed pure-Python kernel
# timed between jobs slows down with them, so raw / kernel time cancels the
# machine and keeps the program.
REF_CAL_S = 0.002
TICK_S = 0.1  # calibrate() also runs this often during a job, for long jobs


def _import_program():
    """Import cat0sigma from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "cat0sigma", "__init__.py")):
        raise SystemExit(f"benchmark: no program at {os.path.relpath(SRC, ROOT)}/cat0sigma")
    sys.path.insert(0, SRC)
    import cat0sigma.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported cat0sigma from {cli.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# Set-up probe (child process)


def setup_probe(workload: str, seed: int, workdir: str, trace: bool) -> None:
    _import_program()
    jobs = workloads.select(workload, seed)
    growth = workloads.growth_jobs() if trace else []
    indir = os.path.join(workdir, "inputs")
    workloads.write_inputs(jobs + [job for _, job in growth], indir)

    def expand(job):
        return [a.replace("{dir}", indir) for a in job["argv"]]

    manifest = {
        "jobs": [{"id": j["id"], "argv": expand(j)} for j in jobs],
        "growth": [{"metric": m, "id": j["id"], "argv": expand(j)} for m, j in growth],
    }
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    elapsed = time.perf_counter() - T_START
    speed = statistics.median(calibrate() for _ in range(3))
    print(json.dumps({"setup_s": elapsed * REF_CAL_S / speed, "raw_setup_s": elapsed}))


# ---------------------------------------------------------------------------
# Workload process (child process)


def calibrate() -> float:
    """Seconds for a fixed exact-rational loop, the kind of work the
    program does; independent of the program."""
    from fractions import Fraction

    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def _clear_memo(memo_owner) -> None:
    """Empty the m-value memo if the program still has one."""
    getattr(memo_owner, "_RAY_COUNT_CACHE", {}).clear()


def _run_job(cli, argv, memo_owner):
    """One closed-loop request: (exit code or error text, stdout, seconds)."""
    _clear_memo(memo_owner)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        code = cli.run(argv, stdout=out, stderr=err)
    except Exception as exc:  # a traceback is a failed job, not a dead run
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - t0


class Ticker:
    """Runs calibrate() from SIGALRM every TICK_S while a job runs, so the
    speed of a long job is sampled during it, not only at its ends."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        self.samples.append(calibrate())

    def __enter__(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


class Pass:
    """Outputs and latencies of repeated passes over one job list.  The
    first pass keeps each output; later passes only note whether theirs
    differed.  Each job is bracketed by calibrate() runs and sampled by the
    ticker; its scaled latency is (wall time - tick time) * REF_CAL_S / (mean
    calibration time of the brackets and ticks)."""

    def __init__(self, jobs, ticker):
        self.jobs = jobs
        self.ticker = ticker
        self.first = [None] * len(jobs)
        self.raw = [[] for _ in jobs]
        self.scaled = [[] for _ in jobs]
        self.drift = [0] * len(jobs)
        self.executions = 0

    def run_once(self, cli, memo_owner) -> float:
        """One pass; returns its wall time, calibration included."""
        t0 = time.perf_counter()
        before = calibrate()
        for i, job in enumerate(self.jobs):
            with self.ticker as ticks:
                code, text, seconds = _run_job(cli, job["argv"], memo_owner)
            after = calibrate()
            seconds -= sum(ticks.samples)
            speed = (before + after + sum(ticks.samples)) / (2 + len(ticks.samples))
            self.raw[i].append(seconds)
            self.scaled[i].append(seconds * REF_CAL_S / speed)
            before = after
            self.executions += 1
            if self.first[i] is None:
                self.first[i] = (code, text)
            elif self.first[i] != (code, text):
                self.drift[i] += 1
        return time.perf_counter() - t0

    def busy_s(self, scaled=True) -> float:
        return sum(map(sum, self.scaled if scaled else self.raw))

    def record(self) -> list:
        return [
            {"id": job["id"], "code": first[0], "stdout": first[1], "latency_s": raw, "scaled_s": scaled,
             "drift": drift}
            for job, first, raw, scaled, drift in zip(self.jobs, self.first, self.raw, self.scaled, self.drift)
        ]


def worker(workdir: str, seconds: float, trace: bool) -> None:
    import resource

    cli = _import_program()
    memo_owner = sys.modules.get("cat0sigma.sphere")
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    result = {}
    ticker = Ticker()
    if not trace:
        runs = Pass(manifest["jobs"], ticker)
        wall, passes = 0.0, 0
        while True:
            wall += runs.run_once(cli, memo_owner)
            passes += 1
            if wall >= seconds:
                break
        result.update(timed_s=wall, passes=passes, executions=runs.executions, jobs=runs.record(),
                      busy_s=runs.busy_s(), busy_raw_s=runs.busy_s(scaled=False))
    else:
        import tracer as tracer_mod
        import selftest

        growth = Pass(manifest["growth"], ticker)
        growth.run_once(cli, memo_owner)
        untraced = Pass(manifest["jobs"], ticker)
        untraced.run_once(cli, memo_owner)
        tracer_ok, tracer_msg = selftest.fixture_check()
        _clear_memo(memo_owner)  # its keys hold the decider the tracer replaces
        tr = tracer_mod.Tracer()
        tr.install()
        unbound = tr.unbound_references()
        traced = Pass(manifest["jobs"], ticker)
        traced.run_once(cli, memo_owner)
        result.update(
            growth=[dict(r, metric=g["metric"]) for r, g in zip(growth.record(), manifest["growth"])],
            untraced_s=untraced.busy_s(),
            traced_s=traced.busy_s(),
            jobs=untraced.record(),
            traced_jobs=traced.record(),
            executions=growth.executions + untraced.executions + traced.executions,
            layers={k: list(v) for k, v in tr.metrics().items()},
            tracer_ok=tracer_ok,
            tracer_msg=tracer_msg,
            unbound=unbound,
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(workdir, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


# ---------------------------------------------------------------------------
# Checking (this process)


def load_refs(names) -> dict:
    refs = {}
    for name in names:
        path = os.path.join(HERE, "refs", f"{name}.json.gz")
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            refs.update(json.load(fh))
    return refs


def matches(ref, got) -> bool:
    """Every key of the reference appears in the output with an equal
    value; outputs may carry extra keys (witnesses, certificates)."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(k in got and matches(v, got[k]) for k, v in ref.items())
    if isinstance(ref, list):
        return isinstance(got, list) and len(ref) == len(got) and all(matches(a, b) for a, b in zip(ref, got))
    return type(ref) is type(got) and ref == got


def check_job(job: dict, rec: dict, refs: dict) -> str | None:
    """None when the job's output is right, else the reason it is not."""
    ref = refs.get(job["id"])
    if ref is None:
        return "no reference output"
    if ref["digest"] != workloads.job_digest(job):
        return "inputs differ from the recorded ones"
    if rec["code"] != ref["code"]:
        return f"exit code {rec['code']!r}, reference {ref['code']}"
    try:
        payload = json.loads(rec["stdout"])
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if not matches(ref["output"], payload):
        return "output differs from the reference"
    if "expect" in job and payload.get("membership") != job["expect"]:
        return f"membership {payload.get('membership')!r}, topology says {job['expect']!r}"
    if "busemann_values" in job and payload.get("values") != [str(v) for v in job["busemann_values"]]:
        return "Busemann values differ from the construction"
    if rec["drift"]:
        return f"output changed between passes ({rec['drift']} times)"
    return None


def check_records(jobs, records, refs):
    """(failed executions, first few failure messages)."""
    failed, messages = 0, []
    for job, rec in zip(jobs, records):
        reason = check_job(job, rec, refs)
        if reason is not None:
            failed += len(rec["latency_s"])
            if len(messages) < 10:
                messages.append(f"{job['id']}: {reason}")
    return failed, messages


# ---------------------------------------------------------------------------
# Metrics


def tail(values):
    """Latency at the highest percentile with TAIL_BEYOND jobs beyond it
    (nearest rank), with that percentile; None when there are too few."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None, None
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n


def environment(workload, seed, seconds, trace) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def git_commit():
    """The checkout's commit from .git, read as files (the benchmark runs
    no git and reads nothing outside the checkout)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _child(args, timeout):
    env = {k: v for k, v in os.environ.items() if k != "SIGMA_LOG"}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py")] + args,
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: child {args[0]} exited {proc.returncode}")
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    parser.add_argument("--worker", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.setup_probe, bool(args.trace))
        return 0
    if args.worker:
        worker(args.worker, args.seconds, bool(args.trace))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "cat0sigma", "__init__.py")):
        print("benchmark: no program under src/cat0sigma in this checkout", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir) -> int:
    trace = bool(args.trace)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    setups = []
    for _ in range(1 if trace else SETUP_PROBES):
        out = _child(["--setup-probe", workdir] + common, CHILD_TIMEOUT)
        setups.append(json.loads(out.strip().splitlines()[-1]))
    _child(["--worker", workdir, "--seconds", str(args.seconds)] + common, CHILD_TIMEOUT)
    with open(os.path.join(workdir, "worker.json"), encoding="utf-8") as fh:
        res = json.load(fh)

    jobs = workloads.select(args.workload, args.seed)
    refs = load_refs([args.workload] + (["growth"] if trace else []))
    failed, messages = check_records(jobs, res["jobs"], refs)
    metrics, detail = {}, {}
    if not trace:
        per_job = [statistics.median(r["scaled_s"]) * 1000.0 for r in res["jobs"]]
        raw_per_job = [statistics.median(r["latency_s"]) * 1000.0 for r in res["jobs"]]
        tail_ms, pct = tail(per_job)
        metrics["setup_s"] = (statistics.median(p["setup_s"] for p in setups), "s")
        metrics["jobs_per_s"] = (res["executions"] / res["busy_s"], "1/s")
        metrics["job_p50_ms"] = (statistics.median(per_job), "ms")
        metrics["job_tail_ms"] = (tail_ms, "ms")
        metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
        detail = {
            "setup_samples_s": [p["setup_s"] for p in setups],
            "raw_setup_samples_s": [p["raw_setup_s"] for p in setups],
            "jobs": len(jobs),
            "passes": res["passes"],
            "executions": res["executions"],
            "timed_s": res["timed_s"],
            "busy_s": res["busy_s"],
            "job_latency": "scaled to reference speed, median over passes per job; p50 and tail over jobs",
            "raw_jobs_per_s": res["executions"] / res["busy_raw_s"],
            "raw_job_p50_ms": statistics.median(raw_per_job),
            "raw_job_tail_ms": tail(raw_per_job)[0],
            "tail_percentile": pct,
            "tail_n": len(per_job),
            "failed_share": failed / res["executions"],
        }
    else:
        growth_jobs = dict(workloads.growth_jobs())
        more, msgs = check_records(list(growth_jobs.values()), res["growth"], refs)
        failed += more
        messages += msgs
        more, msgs = check_records(jobs, res["traced_jobs"], refs)
        failed += more
        messages += msgs
        if not res["tracer_ok"]:
            failed += 1
            messages.append("tracer self-test: " + res["tracer_msg"])
        metrics = {k: tuple(v) for k, v in res["layers"].items()}
        for rec in res["growth"]:
            metrics[rec["metric"]] = (rec["scaled_s"][0] * 1000.0, "ms")
        metrics["trace.overhead_s"] = (res["traced_s"] - res["untraced_s"], "s")
        metrics["trace.unbound_refs"] = (len(res["unbound"]), "count")
        detail = {
            "untraced_s": res["untraced_s"],
            "traced_s": res["traced_s"],
            "overhead_share": (res["traced_s"] - res["untraced_s"]) / res["untraced_s"],
            "unbound": res["unbound"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    attempted = res["executions"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"environment": environment(args.workload, args.seed, args.seconds, args.trace),
              "detail": detail, "failures": messages, **result}
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for msg in messages:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"], "detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
