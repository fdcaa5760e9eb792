"""Limits on long runs, one table row per ``python`` command: run it as
``python tests/limits.py``.  Each row runs alone in a fresh child under
the address-space limit ``AS_LIMIT``, in a scratch directory with ``src``
on the path.  It fails on an exit code it does not accept, on reaching
its wall bound (a timer kills it there) or its peak-RSS bound, on a
failed output check, or on a traceback in stderr; a row with no bound
only records its cost.  The runner prints one line per row (exit code,
wall time, peak RSS and minor page faults), writes them to
``BENCH_limits.json`` at the repository root and exits 1 if a row failed.
"""

import json
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
AS_LIMIT = 4 * 2 ** 30          # bytes of address space a row may map
CLI = ("-m", "nbscope.cli")
NO_WARNING = ("-W", "error::RuntimeWarning")


@dataclass(frozen=True)
class Row:
    name: str
    argv: tuple                 # after ``python``
    codes: tuple = (0,)         # accepted exit codes
    wall: float | None = None   # s: the row must end before this
    rss: float | None = None    # MB: the peak RSS must stay under this
    check: object = None        # (stdout, stderr) -> bool


def _report(out):
    return json.loads(out)["report"]


ROWS = (
    # the scans read fixed chunks, so the peak does not grow with the
    # horizon (about 35 MB); a whole-prefix read would need about 4 GB
    Row("Factorial gap verdict at horizon 1e8 peaks under 200 MB",
        CLI + ("verdict", "--family", "gap-factorial", "--horizon", "100000000"),
        rss=200, check=lambda out, err: (
            _report(out)["kind"] == "StrongNaturalBoundaryEvidence"
            and _report(out)["certificate"]["witnesses"][-1] == 39916800)),
    # the zero-flank search walks the 20 support points, not the horizon
    Row("Factorial gap verdict at horizon 9*10^18 exits 0 in under 2 s",
        CLI + ("verdict", "--family", "gap-factorial", "--horizon", "9000000000000000000"),
        wall=2, check=lambda out, err: (
            _report(out)["certificate"]["witnesses"][-1] == math.factorial(20))),
    # work and memory grow with the support below the horizon: the search
    # and the re-check each gather the flanks of the 10^6 support points
    # and witnesses in batches of about 2^16 values (1.4-2 s in all); most
    # of the peak is the witness list and its JSON.  The re-check made one
    # read per witness and took 15 s before the gathers
    Row("Squares gap verdict at horizon 10^12 (10^6 support points) peaks under 400 MB",
        CLI + ("verdict", "--family", "gap-squares", "--horizon", "1000000000000"),
        wall=10, rss=400),
    # the dense zero-flank search is checked against TERM_CAP before any
    # read; it used to scan every center up to the horizon
    Row("Rudin-Shapiro verdict at horizon 1e11 exits 3 at once",
        CLI + ("verdict", "--family", "rudin-shapiro", "--horizon", "100000000000"),
        codes=(3,), wall=60),
    # every |a_n| is 1, above every flank threshold, so the zero-flank
    # search answers from the floor without a read; it read all 10^8
    # values (about 1 s) before
    Row("Rudin-Shapiro zero-flank certificate at horizon 99,999,999 exits 1 in under 1 s",
        CLI + ("certificate", "--family", "rudin-shapiro", "--kind", "gap",
               "--horizon", "99999999"),
        codes=(1,), wall=1, check=lambda out, err: _report(out)["certificates"] == []),
    # the list is converted by one np.fromiter, not one complex() a value
    Row("Verdict on an explicit sequence from a 10^6-value Python list exits 0 in under 3 s",
        ("-c", "import nbscope as nb\n"
               "vals = [(-1) ** bin(n & n >> 1).count('1') for n in range(10 ** 6)]\n"
               "seq = nb.make_sequence(nb.explicit(vals))\n"
               "print(nb.verdict(seq, nb.AnalysisConfig(horizon=10 ** 6)).kind)"),
        wall=3, check=lambda out, err: out.split() == ["StrongNaturalBoundaryEvidence"]),
    # a fill below delta answers both pair searches before any read, and
    # the block analysis refuses the horizon against TERM_CAP; the pair
    # walk used to read every value up to the horizon
    Row("Factorial gap verdict with fill 0.3 at horizon 1e10 exits 3 at once",
        CLI + ("verdict", "--family", "gap-factorial", "--fill", "0.3",
               "--horizon", "10000000000"),
        codes=(3,), wall=60),
    # the CSV writer and reader move fixed chunks of rows, so the reader
    # keeps 16 bytes a row plus one chunk (about 75 MB in all here); the
    # row-loop reader it replaced peaked at about 200 MB
    Row("Rudin-Shapiro CSV round trip at 10^6 rows peaks under 120 MB",
        ("-c", "import sys; from nbscope.cli import main; sys.exit(main(["
               "'generate', '--family', 'rudin-shapiro', '--count', '1000000', "
               "'--out', 'rs.csv']) or main(['verdict', '--input', 'rs.csv']))"),
        rss=120),
    # the arc scan reads one block of 2^15 coefficients at a time in the
    # sequence's own layout into one reused batch buffer, so the peak
    # does not grow with the 27.6 million terms (about 42 MB here, 47 MB
    # when it read 2^18 at a time, 64 MB before the buffer); the
    # whole-prefix transform it replaced peaked at 363 MB already at
    # r = 0.99999
    Row("Rudin-Shapiro probe at r = 0.999999 peaks under 120 MB",
        CLI + ("probe", "--family", "rudin-shapiro", "--arc", "0.3", "1.7",
               "--radii", "0.999999", "--quad-points", "1024"),
        rss=120),
    # the sum takes its 36.8 million coefficients from the chunked reader
    # 2^16 at a time (about 36 MB here); the whole-prefix sum peaked at 598 MB
    Row("Rudin-Shapiro certified evaluation at 0.999999i peaks under 120 MB",
        ("-c", "import nbscope as nb; print(nb.eval_f(nb.make_sequence("
               "nb.rudin_shapiro()), 0.999999j, tol=1e-10).terms_used)"),
        rss=120, check=lambda out, err: out.split() == ["36841344"]),
    # the onset and tie scan reads the source in chunks and every read of
    # the snapped sequence snaps what it reads (about 40 MB here); the
    # stored whole-prefix snap it replaced peaked at 307 MB
    Row("Snapping Rudin-Shapiro at scan horizon 3e6 peaks under 120 MB",
        ("-c", "import nbscope as nb; print(nb.snap_to_limit_points(nb.make_sequence("
               "nb.rudin_shapiro()), [-1, 1], onset_tol=0.01, "
               "scan_horizon=3_000_000).params['onset_index'])"),
        rss=120, check=lambda out, err: out.split() == ["0"]),
    # the path length is checked against TERM_CAP before any allocation;
    # it used to end in a numpy _ArrayMemoryError traceback with exit 1
    Row("Monte Carlo at horizon 1e11 exits 3 at once",
        CLI + ("montecarlo", "--horizon", "100000000000"), codes=(3,), wall=60),
    # the prefix length is checked against TERM_CAP before any read; it
    # used to end in a numpy _ArrayMemoryError traceback with exit 1
    Row("Szego block analysis at horizon 1e11 exits 3 at once",
        CLI + ("szego", "--family", "rudin-shapiro", "--horizon", "100000000000"),
        codes=(3,), wall=60),
    # as above, for the whole-prefix window clustering of rightlimits
    Row("Window extraction at horizon 1e11 exits 3 at once",
        CLI + ("rightlimits", "--family", "erdos-soft", "--window", "3", "--eps", "0.1",
               "--horizon", "100000000000"),
        codes=(3,), wall=60),
    # the scan runs upward from the head and stops once no period is left
    # (after 5! = 120); the top-down scan it replaced read about 9*10^11
    # zeros before it reached the last factorial
    Row("Factorial gap periodicity at horizon 1e12 exits 1 at once",
        CLI + ("periodicity", "--family", "gap-factorial", "--horizon", "1000000000000"),
        codes=(1,), wall=60, check=lambda out, err: '"found": null' in out),
    # the lattice points of the cover are counted and capped before it is
    # built; atoms 1e100 and 0 need about 10^200 and used to hang
    Row("Monte Carlo whose value cover is too large exits 2 at once",
        CLI + ("montecarlo", "--values", "1e100,0", "--trials", "1", "--horizon", "200",
               "--delta", "0.5"),
        codes=(2,), wall=60),
    # the bound times the block length times the FFT length is checked
    # before any transform; it used to exit 0 with every integral null
    # and numpy overflow warnings
    Row("Probe whose transform would overflow exits 2",
        CLI + ("probe", "--family", "periodic", "--pattern", "1e308", "--full",
               "--radii", "0.5,0.999", "--quad-points", "64", "--json", "overflow.json"),
        codes=(2,), wall=60),
    # its tail bound needs r^N below the normal floats; the float test
    # used to take log(0) and end in a math domain error with exit 1
    Row("Probe with a huge bound and a tiny tolerance exits 0 or 2",
        CLI + ("probe", "--family", "periodic", "--pattern", "1e290", "--full",
               "--radii", "0.5", "--quad-points", "64", "--tol", "1e-300"),
        codes=(0, 2), wall=60),
    # differences of +-1.7e308 overflow to inf, which every tolerance test
    # already decides right; numpy warned, and under -W error failed
    Row("Verdict on values near the float maximum raises no RuntimeWarning",
        NO_WARNING + CLI + ("verdict", "--family", "periodic",
                            "--pattern", "1.7e308,-1.7e308,0,1,1,0,0", "--horizon", "300"),
        wall=60, check=lambda out, err: '"kind": "EventuallyPeriodic"' in out),
    # head(z)*(1 - z^7) + z^5*block(z) overflows: the form used to come
    # back with nan and inf coefficients, after numpy RuntimeWarnings
    Row("Eventually periodic verdict near the float maximum reports no form, without a warning",
        NO_WARNING + ("-c", "import sys; from nbscope.cli import main\n"
                            "vals = [1] + [1.7e308] * 4 + [1, 1, 0, 1.7e308, 1.7e308, "
                            "-1.7e308, -1.7e308] * 43\n"
                            "open('head.csv', 'w').write('n,re,im\\n' + ''.join("
                            "f'{n},{v!r},0\\n' for n, v in enumerate(vals)))\n"
                            "sys.exit(main(['verdict', '--input', 'head.csv']))"),
        wall=60, check=lambda out, err: ('"kind": "EventuallyPeriodic"' in out
                                         and '"rational_form": null' in out)),
    # the sum of 1.7e308-sized terms overflowed with a RuntimeWarning and
    # the inf defect ended in a JSON ValueError traceback
    Row("Reflectionless check whose outside series overflows exits 2, without a warning",
        NO_WARNING + CLI + ("reflectionless", "--pattern", "1.7e308,1.7e308,1",
                            "--arc", "0.3", "1.7"),
        codes=(2,), wall=60, check=lambda out, err: "overflows the float range" in err),
    # recorded only, with no bound: the peaks that ROADMAP's memory items
    # are to lower, measured here before and after
    Row("Recorded: erdos-soft window extraction at horizon 3e6",
        CLI + ("rightlimits", "--family", "erdos-soft", "--window", "3", "--eps", "0.1",
               "--horizon", "3000000")),
    Row("Recorded: rotation pair certificate at horizon 1e6",
        CLI + ("certificate", "--family", "rotation", "--q", "0.41421356237309503",
               "--kind", "pair", "--delta", "0.2", "--eps", "0", "--horizon", "1000000"),
        codes=(1,)),
    Row("Recorded: Rudin-Shapiro Szego block analysis at horizon 1e7",
        CLI + ("szego", "--family", "rudin-shapiro", "--horizon", "10000000")),
    Row("Recorded: Markov Monte Carlo at horizon 3e6, 2 trials",
        CLI + ("montecarlo", "--process", "markov", "--transition", "0.9,0.1;0.5,0.5",
               "--values", "0,1", "--horizon", "3000000", "--trials", "2")),
)


def run_row(row, cwd):
    """Run ``row`` in a fresh child in ``cwd``: (exit code, wall s, the
    child's rusage, the reasons it failed).  A child killed at its wall
    bound has exit code -9."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, *row.argv], cwd=cwd, env=env,
                                 stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                 preexec_fn=lambda: resource.setrlimit(
                                     resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT)))
        timer = None
        if row.wall is not None:
            timer = threading.Timer(row.wall, os.kill, (child.pid, signal.SIGKILL))
            timer.start()
        # wait for the exit without reaping, so the timer cannot kill a
        # reused pid; then stop the timer, and reap for the rusage
        os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        if timer is not None:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = code = os.waitstatus_to_exitcode(status)
        peak = usage.ru_maxrss / 1024
        stdout, stderr = (f.seek(0) or f.read().decode(errors="replace") for f in (out, err))
    failed = []
    if code not in row.codes:
        failed.append(f"exit {code}, expected {' or '.join(map(str, row.codes))}")
    if row.wall is not None and wall >= row.wall:
        failed.append(f"wall {wall:.2f} s reached the bound {row.wall} s")
    if row.rss is not None and peak >= row.rss:
        failed.append(f"peak {peak:.1f} MB reached the bound {row.rss} MB")
    if "Traceback" in stderr:
        failed.append("traceback on stderr")
    elif row.check is not None and code in row.codes:
        try:
            ok = row.check(stdout, stderr)
        except (ValueError, KeyError, IndexError, TypeError):
            ok = False
        if not ok:
            failed.append("output check failed")
    if failed and stderr.strip():
        failed.append("stderr tail: " + " | ".join(stderr.strip().splitlines()[-3:]))
    return code, wall, usage, failed


def _git(*args):
    """What git prints, or None outside a checkout."""
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip() or None


def main():
    results = []
    with tempfile.TemporaryDirectory() as cwd:
        for row in ROWS:
            code, wall, usage, failed = run_row(row, cwd)
            peak = usage.ru_maxrss / 1024
            print(f"{'FAIL' if failed else 'pass'}  exit {code:3d}  {wall:7.2f} s  "
                  f"{peak:7.1f} MB  {usage.ru_minflt:8d} faults  {row.name}", flush=True)
            print("".join(f"      {reason}\n" for reason in failed), end="", flush=True)
            results.append({"name": row.name, "exit": code, "wall_s": round(wall, 3),
                            "peak_mb": round(peak, 1), "minor_faults": usage.ru_minflt,
                            "wall_bound_s": row.wall, "rss_bound_mb": row.rss,
                            "passed": not failed})
    record = {"commit": _git("rev-parse", "HEAD"),
              "uncommitted_changes": bool(_git("status", "--porcelain", "--", "src", "tests")),
              "python": platform.python_version(), "numpy": numpy.__version__,
              "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
              "as_limit_bytes": AS_LIMIT, "rows": results}
    (ROOT / "BENCH_limits.json").write_text(json.dumps(record, indent=2) + "\n")
    failures = sum(not r["passed"] for r in results)
    print(f"{len(results) - failures} of {len(results)} rows passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
