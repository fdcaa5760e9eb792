"""One benchmark interpreter.  ``run.py`` starts it as a fresh process.

Modes:
  setup    import nbscope, build the workload's jobs, make one small
           warm-up call per job class, exit (timed from outside);
  measure  the same set-up, then passes over the job list until
           ``--seconds`` have elapsed (at a pass boundary), then the
           output checks on the first pass's results; with ``--trace``
           the passes alternate untraced and traced;
  scale    time the thread-pool calls (probe scans, Monte Carlo runs)
           under whatever NBSCOPE_THREADS the parent set.

The result is one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

_t_start = time.perf_counter()

import nbscope as nb  # noqa: E402
import nbscope.cli  # noqa: E402

_import_s = time.perf_counter() - _t_start

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _error(e):
    return f"{type(e).__name__}: {e}"


def warm_up(workload, seed, workdir):
    """One tiny call per job class, paying lazy imports and first-call costs."""
    seen = set()
    for job in wl.build_jobs(workload, seed, "tiny"):
        if job.cls not in seen:
            seen.add(job.cls)
            wl.run_job(job, workdir)


def run_one(job, workdir, tracer=None):
    if tracer is not None:
        tracer.enabled = True
    start = time.perf_counter()
    try:
        result, error = wl.run_job(job, workdir), None
    except Exception as e:  # a failing job is kept and reported
        result, error = None, _error(e)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    return elapsed, result, error


# ---------------------------------------------------------------------------
# The command-line call each workload times as a subprocess


def _canonical_report(report) -> str:
    return json.dumps(json.loads(json.dumps(report, allow_nan=True)),
                      sort_keys=True, allow_nan=True)


def cli_case(workload, jobs, workdir):
    """argv, expected exit code and in-process report of the workload's
    representative CLI command."""
    by_name = {j.name: j for j in jobs}
    if workload == "certify-float":
        p = by_name["pair-rotation-k5-forward"].params
        s = p["seq"]
        argv = ["certificate", "--family", "rotation", f"--q={s['q']!r}",
                f"--theta={s['theta']!r}", f"--boundary={s['boundary']}",
                f"--window={p['width']}", f"--eps={p['eps']!r}",
                f"--delta={p['delta']!r}", f"--horizon={p['horizon']}",
                "--kind=pair", f"--flank={p['side']}"]
        cert = nb.find_pair_certificate(wl.build_sequence(s), p["width"], p["horizon"],
                                        eps=p["eps"], delta=p["delta"],
                                        flank_side=p["side"])
        report = {"certificates": [] if cert is None else [cert.to_json_dict()]}
        return {"argv": argv, "expect_exit": 0 if cert else 1,
                "report": _canonical_report(report), "json_file": None}
    if workload == "certify-exact":
        p = by_name["verdict-periodic-8"].params
        path = os.path.join(workdir, "cli-input.csv")
        nb.write_sequence_csv(path, wl.build_sequence(p["seq"]), p["horizon"] + 1)
        argv = ["verdict", f"--input={path}", f"--horizon={p['horizon']}", "--window=5"]
        v = nb.verdict(nb.read_sequence_csv(path),
                       nb.AnalysisConfig(width=5, horizon=p["horizon"]))
        return {"argv": argv, "expect_exit": 0 if v.kind != "Inconclusive" else 1,
                "report": _canonical_report(v.to_json_dict()), "json_file": None}
    # the scan job without its top radius: start-up, not the transform of
    # 230k terms, dominates a researcher's single probe call
    job = by_name["scan-periodic-0"]
    p = dict(job.params, radii=job.params["radii"][:-1])
    pattern = ",".join(repr(re) for re, _ in p["seq"]["pattern"])
    json_file = os.path.join(workdir, "cli-probe.json")
    argv = ["probe", "--family=periodic", f"--pattern={pattern}",
            "--arc", repr(p["alpha"]), repr(p["beta"]),
            "--radii=" + ",".join(repr(r) for r in p["radii"]),
            f"--quad-points={p['quad_points']}", f"--tol={p['tol']!r}",
            "--out=" + os.path.join(workdir, "cli-probe.csv"), f"--json={json_file}"]
    rep = wl.run_job(wl.Job(job.name, job.cls, p), workdir)
    return {"argv": argv, "expect_exit": 0,
            "report": _canonical_report(rep.to_json_dict()), "json_file": json_file}


def time_cli_main(argv, rounds=3):
    """Median in-process time of cli.main (parse, compute, emit) and the
    bytes it emits to stdout and to its output files."""
    times, emitted = [], 0
    for _ in range(rounds):
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            nbscope.cli.main(list(argv))
        times.append(time.perf_counter() - start)
        emitted = len(buf.getvalue().encode())
        for a in argv:
            for flag in ("--out=", "--json="):
                if a.startswith(flag):
                    emitted += os.path.getsize(a[len(flag):])
    return statistics.median(times), emitted


# ---------------------------------------------------------------------------
# Modes


def mode_measure(args):
    jobs = wl.build_jobs(args.workload, args.seed, args.size)
    warm_up(args.workload, args.seed, args.workdir)
    cli = cli_case(args.workload, jobs, args.workdir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    first = []                  # (result, error, digest) per job, first pass
    failures = []
    bad = [0] * len(jobs)       # failed runs per job
    plain_times, traced_times = [], []
    passes = traced_passes = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        traced = tracer is not None and passes > traced_passes
        for i, job in enumerate(jobs):
            elapsed, result, error = run_one(job, args.workdir, tracer if traced else None)
            (traced_times if traced else plain_times).append(elapsed)
            d = wl.digest(result) if error is None else None
            if i == len(first):
                first.append((result, error, d))
            if error is not None:
                failures.append(f"{job.name}: raised {error}")
                bad[i] += 1
            elif d != first[i][2]:
                failures.append(f"{job.name}: output differs from the first pass")
                bad[i] += 1
        if traced:
            traced_passes += 1
        else:
            passes += 1
        if time.perf_counter() >= deadline and (tracer is None or traced_passes == passes):
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # output checks on the first pass; a failed check fails every run of the job
    digests = []
    for i, (job, (result, error, d)) in enumerate(zip(jobs, first)):
        reasons = []
        if error is None:
            try:
                reasons = checks.check(job, result)
            except Exception as e:  # report a crashing check as a failure
                reasons = [f"check raised {_error(e)}"]
        for r in reasons:
            failures.append(f"{job.name}: {r}")
        if reasons:
            bad[i] = passes + traced_passes
        digests.append({"name": job.name, "class": job.cls, "sha256": d,
                        "ok": error is None and not reasons})

    out = {"jobs": digests, "times": plain_times, "passes": passes,
           "wall_s": wall, "attempted": len(plain_times) + len(traced_times),
           "failed": sum(bad), "failures": failures, "peak_rss_mb": peak_rss_mb,
           "cli": cli, "params": [{"name": j.name, "class": j.cls, "params": j.params}
                                  for j in jobs]}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracing.layer_metrics(tracer, traced_passes)
        out["computed"] = list(tracing.COMPUTED)
        out["overhead_share"] = sum(traced_times) / sum(plain_times) - 1.0
        out["cli_main_s"], out["cli_emit_bytes"] = time_cli_main(cli["argv"])
    return out


def mode_setup(args):
    wl.build_jobs(args.workload, args.seed, args.size)
    warm_up(args.workload, args.seed, args.workdir)
    return {"import_s": _import_s}


def mode_scale(args, rounds=2):
    groups = wl.scaling_jobs(args.seed, args.size)
    out = {}
    for name, jobs in groups.items():
        digests = [wl.digest(wl.run_job(j, args.workdir)) for j in jobs]   # warm
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            for j in jobs:
                wl.run_job(j, args.workdir)
            times.append(time.perf_counter() - start)
        out[name] = {"seconds": statistics.median(times), "digests": digests}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["setup", "measure", "scale"])
    ap.add_argument("--workload", choices=wl.WORKLOADS, default="probe")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=wl.SIZES, default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    result = {"setup": mode_setup, "measure": mode_measure,
              "scale": mode_scale}[args.mode](args)
    with open(args.out, "w") as f:
        json.dump(result, f, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
