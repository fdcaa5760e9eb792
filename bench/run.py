"""nbscope benchmark.

    python3 bench/run.py --workload certify-float --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Workloads (job lists in ``workloads.py``):

  certify-float  verdict, pair certificates (both flank sides) and eps > 0
                 window clustering on float streams: irrational rotations
                 with both boundary functions, and erdos-soft;
  certify-exact  verdicts on exact streams with horizons 1e4 to 1e6,
                 eventually periodic streams (periodicity and rational form),
                 block analysis, a CSV round trip and small Monte Carlo runs;
  probe          arc-integral scans, certified evaluations, reflectionless
                 checks and the decay rule.  No certificate search.

Each workload is a closed loop: one client in one warm interpreter runs the
job list pass after pass until ``--seconds`` have elapsed, finishing the
pass it is in.  The library's thread pools keep their default size.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
  setup_s      median wall time of fresh interpreters that import nbscope,
               build the job list and make one small call per job class;
  cli_s        the fastest of 5 wall times of the workload's representative
               CLI command, each run as a fresh subprocess (exit code and JSON
               checked against the in-process result).  Start-up time on a
               shared machine is skewed upward by interference; in a 10-round
               test the minimum of 5 spread 0.11 (quartile distance over
               median), the median of 3 spread 0.27;
  jobs_per_s   jobs completed per second over whole passes;
  job_s.p50    median job wall time;
  job_s.tail   the highest percentile of job wall time with at least ten
               samples above it (the percentile and sample count are
               printed on the line before the result);
  peak_rss_mb  peak resident memory of the measuring interpreter.
``attempted`` and ``failed`` count job runs and CLI runs; a run fails when
it raises, when its output differs from the job's first run, or when the
first run fails its output check (``checks.py``).

With ``--trace 1`` it reports per-layer metrics instead (``tracing.py``):
self time and work counts of each module's public callables per traced
pass, thread-pool speed-ups at two workers against one, CLI import and
in-process time, and the tracing overhead.

Each run writes a record with per-job SHA-256 output digests and an
environment stamp to ``bench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("certify-float", "certify-exact", "probe")

SETUP_RUNS = 3
CLI_RUNS = 5
BUDGET_S = 170          # every child must end within this many seconds of start


class BenchError(RuntimeError):
    """A benchmark process could not produce its result."""


def child_env(threads=None):
    env = dict(os.environ)
    env.pop("NBSCOPE_THREADS", None)
    if threads is not None:
        env["NBSCOPE_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Runner:
    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + BUDGET_S
        self.count = 0

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 1:
            raise BenchError("time budget exhausted")
        return left

    def worker(self, mode, threads=None, trace=0):
        """Run worker.py in a fresh interpreter: (wall seconds, result)."""
        self.count += 1
        out = os.path.join(self.workdir, f"{mode}-{self.count}.json")
        a = self.args
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"), mode,
               f"--workload={a.workload}", f"--seed={a.seed}",
               f"--seconds={a.seconds}", f"--trace={trace}", f"--size={a.size}",
               f"--workdir={self.workdir}", f"--out={out}"]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=child_env(threads), cwd=ROOT,
                                  stdout=subprocess.DEVNULL, timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {mode} timed out") from None
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited with {proc.returncode}")
        with open(out) as f:
            return wall, json.load(f)

    def cli(self, case):
        """Run the CLI case as fresh subprocesses: (wall times, failures)."""
        cmd = [sys.executable, "-m", "nbscope.cli", *case["argv"]]
        times, failures = [], []
        for _ in range(CLI_RUNS):
            start = time.perf_counter()
            try:
                proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                                      capture_output=True, text=True,
                                      timeout=self.remaining())
            except subprocess.TimeoutExpired:
                raise BenchError("CLI command timed out") from None
            times.append(time.perf_counter() - start)
            if proc.returncode != case["expect_exit"]:
                failures.append(f"cli: exit code {proc.returncode}, expected "
                                f"{case['expect_exit']}: {proc.stderr.strip()[-200:]}")
                continue
            text = proc.stdout
            if case["json_file"]:
                with open(case["json_file"]) as f:
                    text = f.read()
            try:
                report = json.loads(text)["report"]
            except (ValueError, KeyError) as e:
                failures.append(f"cli: unreadable JSON output ({e})")
                continue
            if json.dumps(report, sort_keys=True, allow_nan=True) != case["report"]:
                failures.append("cli: JSON report differs from the in-process result")
        return times, failures


def tail(times):
    """(value, percentile) of the highest order statistic with at least ten
    samples above it."""
    s = sorted(times)
    i = max(len(s) - 11, 0)
    return s[i], 100.0 * (i + 1) / len(s)


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        same_root = git.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT)
        commit = lines[1] if same_root else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    h = hashlib.sha256()
    paths = sorted(os.path.join(d, f) for d, _, files in os.walk(SRC)
                   for f in files if f.endswith(".py"))
    for path in paths:
        h.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read() + b"\0")
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "sympy": version("sympy"),
            "nproc": os.cpu_count(), "commit": commit, "src_sha256": h.hexdigest()}


def untraced(run):
    setup = [run.worker("setup")[0] for _ in range(SETUP_RUNS)]
    _, m = run.worker("measure")
    cli_times, cli_failures = run.cli(m["cli"])
    times = m["times"]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cli_s": (min(cli_times), "s"),
        "jobs_per_s": (len(times) / m["wall_s"], "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (tail_s, "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }
    notes = [f"job_s.tail is p{tail_pct:.1f} of {len(times)} job samples "
             f"({m['passes']} passes)"]
    return m, metrics, cli_failures, CLI_RUNS, notes


def traced(run):
    imports = [run.worker("setup")[1]["import_s"] for _ in range(SETUP_RUNS)]
    _, m = run.worker("measure", trace=1)
    failures = []
    scaled = {}
    for threads in (1, 2):
        scaled[threads] = run.worker("scale", threads=threads)[1]
    metrics = {name: tuple(v) for name, v in m["layers"].items()}
    for group, metric in (("analytic.scan", "analytic.scan.speedup_2w"),
                          ("randomseries.mc", "randomseries.mc.speedup_2w")):
        one, two = scaled[1][group], scaled[2][group]
        if one["digests"] != two["digests"]:
            failures.append(f"{group}: outputs differ between 1 and 2 worker threads")
        metrics[metric] = (one["seconds"] / two["seconds"], "x")
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["cli.main.s"] = (m["cli_main_s"], "s")
    metrics["cli.emit_bytes"] = (m["cli_emit_bytes"], "B")
    metrics["trace.overhead_share"] = (m["overhead_share"], "share")
    notes = [f"{len(m['times'])} untraced and {m['attempted'] - len(m['times'])} "
             f"traced job runs; computed counts: {', '.join(m['computed'])}"]
    return m, metrics, failures, 2, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description="nbscope benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny shrinks every input, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nbscope", "__init__.py")):
        print(f"error: no nbscope sources under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(BENCH, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        run = Runner(args, workdir)
        m, metrics, extra_failures, extra_runs, notes = \
            (traced if args.trace else untraced)(run)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = m["failures"] + extra_failures
    attempted = m["attempted"] + extra_runs
    failed = m["failed"] + len(extra_failures)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": environment(),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "attempted": attempted, "failed": failed, "failures": failures,
              "notes": notes, "jobs": m["jobs"], "job_params": m["params"]}
    os.makedirs(os.path.join(BENCH, "runs"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    with open(os.path.join(BENCH, "runs", name), "w") as f:
        json.dump(record, f, indent=1, allow_nan=True)

    for line in failures:
        print(f"FAILED CHECK: {line}")
    for line in notes:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
