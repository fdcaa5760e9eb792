"""Command-line front end.

Machine output (CSV or JSON with a ``schema_version`` field) goes to the
file given by --out, or stdout; diagnostics go to stderr.  Exit codes:
0 success, 1 no finding where one was requested, 2 usage error, 3
numeric-cap abort, 4 a result failed re-verification against raw reads.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analytic, randomseries, rightlimits, sequences

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NO_FINDING = 1
EXIT_USAGE = 2
EXIT_NUMERIC_CAP = 3
EXIT_VERIFICATION = 4


def _not_numbers(text):
    return argparse.ArgumentTypeError(
        f"{text!r} is not a comma-separated list of numbers")


def _parse_values(text):
    try:
        out = [complex(p) for p in text.split(",") if p.strip()]
    except ValueError:
        out = []
    if not out:
        raise _not_numbers(text)
    return out


def _parse_floats(text):
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise _not_numbers(text) from None


_FAMILY_CHOICES = ["periodic", "gap-factorial", "gap-squares", "rudin-shapiro",
                   "rotation", "erdos-hard", "erdos-soft"]


def _add_source_args(p):
    g = p.add_argument_group("input sequence")
    g.add_argument("--family", choices=_FAMILY_CHOICES,
                   help="generator family")
    g.add_argument("--pattern", type=_parse_values,
                   help="comma-separated pattern values (periodic family)")
    g.add_argument("--fill", type=complex, default=1.0,
                   help="fill value for gap families (default 1)")
    g.add_argument("--q", type=float, help="rotation number (irrational)")
    g.add_argument("--theta", type=float, default=0.0,
                   help="rotation phase offset (default 0)")
    g.add_argument("--boundary", default="fractional-part",
                   choices=["fractional-part", "half-indicator"],
                   help="boundary function for the rotation family")
    g.add_argument("--input", help="CSV file with header n,re,im")


def _build_sequence(args):
    if args.input:
        return sequences.read_sequence_csv(args.input)
    fam = args.family
    if fam is None:
        raise sequences.SequenceError("need --family or --input")
    if fam == "periodic":
        if not args.pattern:
            raise sequences.SequenceError("periodic family needs --pattern")
        spec = sequences.periodic(args.pattern)
    elif fam == "rotation":
        if args.q is None:
            raise sequences.SequenceError("rotation family needs --q")
        spec = sequences.rotation(args.q, args.theta, args.boundary)
    elif fam in ("gap-factorial", "gap-squares"):
        spec = sequences.gap_powers("factorials" if fam == "gap-factorial" else "squares",
                                    args.fill)
    elif fam == "rudin-shapiro":
        spec = sequences.rudin_shapiro()
    elif fam in ("erdos-hard", "erdos-soft"):
        spec = sequences.erdos(fam[len("erdos-"):])
    else:
        raise sequences.SequenceError(f"unknown family {fam!r}")
    return sequences.make_sequence(spec)


def _nan_to_null(obj):
    """``obj`` with every float NaN in it replaced by None."""
    if isinstance(obj, dict):
        return {k: _nan_to_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nan_to_null(v) for v in obj]
    return None if isinstance(obj, float) and math.isnan(obj) else obj


def _emit_json(dest, command, report):
    """Write the JSON envelope as strict JSON (NaN as null) to the path
    ``dest``, or stdout if None."""
    payload = {"schema_version": SCHEMA_VERSION, "command": command,
               "report": _nan_to_null(report)}
    text = json.dumps(payload, indent=2, allow_nan=False)
    if dest:
        with open(dest, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


# -- subcommand handlers ----------------------------------------------------


def _cmd_generate(args):
    seq = _build_sequence(args)
    sequences.write_sequence_csv(args.out or sys.stdout, seq, args.count)
    return EXIT_OK


def _cmd_rightlimits(args):
    seq = _build_sequence(args)
    res = rightlimits.extract_right_limits(
        seq, args.window, args.horizon, eps=args.eps,
        max_candidates=args.max_candidates,
        min_recurrence=args.min_recurrence)
    for cand in res.candidates:
        if not cand.verify(seq):
            raise sequences.VerificationError(
                "right-limit candidate failed re-verification")
    _emit_json(args.out, "rightlimits", {
        "candidates": [c.to_json_dict() for c in res.candidates],
        "clusters_total": res.clusters_total,
        "windows_scanned": res.windows_scanned,
        "truncated": res.truncated,
    })
    return EXIT_OK if res.candidates else EXIT_NO_FINDING


def _cmd_certificate(args):
    seq = _build_sequence(args)
    sides = ("backward", "forward") if args.flank == "both" else (args.flank,)
    cert, _ = rightlimits._first_certificate(
        seq, args.window, args.horizon, args.eps, args.delta, args.min_recurrence,
        gap=args.kind != "pair", sides=() if args.kind == "gap" else sides,
        decay=tuple(args.decay) if args.decay else None)
    _emit_json(args.out, "certificate",
               {"certificates": [] if cert is None else [cert.to_json_dict()]})
    return EXIT_NO_FINDING if cert is None else EXIT_OK


def _cmd_szego(args):
    seq = _build_sequence(args)
    rep = rightlimits.szego_block_analysis(seq, args.pmax, args.horizon)
    rightlimits._verify_szego(seq, rep)
    _emit_json(args.out, "szego", rep.to_json_dict())
    return EXIT_OK


def _cmd_periodicity(args):
    seq = _build_sequence(args)
    found = rightlimits.detect_eventual_periodicity(
        seq, args.max_period, args.max_preperiod, args.horizon, tol=args.tol)
    _emit_json(args.out, "periodicity", {
        "found": None if found is None else
        {"preperiod": found[0], "period": found[1]}})
    return EXIT_OK if found is not None else EXIT_NO_FINDING


def _arc_from(args):
    if args.full:
        return analytic.ArcSpec.full_circle()
    if args.arc is None:
        raise sequences.SequenceError("need --arc ALPHA BETA or --full")
    return analytic.ArcSpec(args.arc[0], args.arc[1])


def _cmd_probe(args):
    seq = _build_sequence(args)
    arc = _arc_from(args)
    report = analytic.boundary_l1_scan(seq, arc, args.radii,
                                       quad_points=args.quad_points,
                                       tol=args.tol)
    report.write_csv(args.out or sys.stdout)
    if args.json:
        _emit_json(args.json, "probe", report.to_json_dict())
    if all(report.skipped):
        print("all radii exceeded the evaluation term cap", file=sys.stderr)
        return EXIT_NUMERIC_CAP
    return EXIT_OK


def _cmd_reflectionless(args):
    if args.pattern:
        arc = _arc_from(args)
        res = analytic.periodic_reflectionless_check(args.pattern, arc)
        _emit_json(args.out, "reflectionless", res.to_json_dict())
        return EXIT_OK if res.passed else EXIT_NO_FINDING
    if args.window_csv:
        win = sequences.read_window_csv(args.window_csv)
        res = analytic.decay_rule_check(win, args.decay_side,
                                        args.decay_c, args.decay_d, args.delta)
        _emit_json(args.out, "reflectionless", res.to_json_dict())
        return EXIT_OK
    raise sequences.SequenceError("need --pattern (periodic check) or "
                                  "--window-csv (decay rule)")


def _cmd_montecarlo(args):
    if args.process == "iid":
        spec = randomseries.iid_process(args.values, args.probs, seed=args.seed)
    elif args.process == "markov":
        if not args.transition:
            raise sequences.SequenceError(
                "markov process needs --transition 'row;row;...'")
        rows = []
        for row in args.transition.split(";"):
            try:
                rows.append(_parse_floats(row))
            except argparse.ArgumentTypeError:
                raise sequences.SequenceError(
                    f"--transition row {row!r} is not a list of numbers") from None
        spec = randomseries.markov_process(args.values, rows, seed=args.seed)
    else:
        if args.q is None:
            raise sequences.SequenceError("rotation process needs --q")
        spec = randomseries.rotation_process(args.q, args.theta,
                                             args.boundary, seed=args.seed)
    rep = randomseries.certificate_rate_experiment(
        spec, args.trials, args.window, args.horizon,
        eps=args.eps, delta=args.delta, min_recurrence=args.min_recurrence)
    _emit_json(args.out, "montecarlo", rep.to_json_dict())
    return EXIT_OK


def _cmd_verdict(args):
    seq = _build_sequence(args)
    cfg = rightlimits.AnalysisConfig(
        width=args.window, eps=args.eps, delta=args.delta,
        horizon=args.horizon, p_max=args.pmax,
        min_recurrence=args.min_recurrence)
    v = rightlimits.verdict(seq, cfg)
    _emit_json(args.out, "verdict", v.to_json_dict())
    return EXIT_OK if v.kind != "Inconclusive" else EXIT_NO_FINDING


# -- parser -------------------------------------------------------------------


def _numeric_args(p):
    p.add_argument("--window", type=int, default=5,
                   help="flank/window half-width (default 5)")
    p.add_argument("--eps", type=float,
                   help="matching tolerance (default: 0 exact input, 0.05 float)")
    p.add_argument("--delta", type=float, default=0.5,
                   help="center separation target (default 0.5)")
    p.add_argument("--horizon", type=int, default=100_000,
                   help="largest index scanned (default 100000)")
    p.add_argument("--min-recurrence", type=int, default=3,
                   help="witnesses required for a certificate (default 3)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nbscope",
        description="Analyze bounded power series for natural-boundary "
                    "behavior via recurring-window certificates.",
        epilog="Exit codes: 0 success, 1 no finding, 2 usage error, "
               "3 numeric-cap abort, 4 failed re-verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a sequence prefix as CSV")
    _add_source_args(p)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("rightlimits", help="cluster recurring windows")
    _add_source_args(p)
    _numeric_args(p)
    p.add_argument("--max-candidates", type=int, default=16)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rightlimits)

    p = sub.add_parser("certificate", help="search for gap/pair certificates")
    _add_source_args(p)
    _numeric_args(p)
    p.add_argument("--kind", choices=["gap", "pair", "both"], default="both")
    p.add_argument("--flank", choices=["backward", "forward", "both"],
                   default="both")
    p.add_argument("--decay", type=float, nargs=2, metavar=("C", "D"),
                   help="exponential flank envelope C*exp(-D*k)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_certificate)

    p = sub.add_parser("szego", help="finite-valued block-recurrence analysis")
    _add_source_args(p)
    p.add_argument("--pmax", type=int, default=8)
    p.add_argument("--horizon", type=int, default=100_000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_szego)

    p = sub.add_parser("periodicity", help="detect eventual periodicity")
    _add_source_args(p)
    p.add_argument("--max-period", type=int, default=64)
    p.add_argument("--max-preperiod", type=int, default=64)
    p.add_argument("--horizon", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=None,
                   help="finite tolerance >= 0 on |a_{n+T} - a_n| "
                        "(default: 0 exact input, 1e-9 float)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_periodicity)

    p = sub.add_parser("probe", help="arc integral scan of |f| near the circle")
    _add_source_args(p)
    p.add_argument("--arc", type=float, nargs=2, metavar=("ALPHA", "BETA"))
    p.add_argument("--full", action="store_true", help="full circle")
    p.add_argument("--radii", type=_parse_floats,
                   default=[0.9, 0.99, 0.999, 0.9999])
    p.add_argument("--quad-points", type=int, default=4096)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="per-node truncation tolerance, finite and > 0")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--json", help="also write a JSON envelope here")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("reflectionless",
                       help="periodic reflectionless check / decay rule")
    p.add_argument("--pattern", type=_parse_values)
    p.add_argument("--arc", type=float, nargs=2, metavar=("ALPHA", "BETA"))
    p.add_argument("--full", action="store_true")
    p.add_argument("--window-csv", help="two-sided window CSV (n from -W to W)")
    p.add_argument("--decay-side", choices=["positive", "negative"],
                   default="positive")
    p.add_argument("--decay-c", type=float, default=1.0)
    p.add_argument("--decay-d", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reflectionless)

    p = sub.add_parser("montecarlo", help="pair-certificate rate experiment")
    p.add_argument("--process", choices=["iid", "markov", "rotation"],
                   default="iid")
    p.add_argument("--values", type=_parse_values, default=[0, 1],
                   help="iid atoms / markov emission values")
    p.add_argument("--probs", type=_parse_floats, default=None)
    p.add_argument("--transition",
                   help="markov rows, e.g. '0.9,0.1;0.5,0.5'")
    p.add_argument("--q", type=float)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--boundary", default="fractional-part")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _numeric_args(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("verdict", help="run the full evidence pipeline")
    _add_source_args(p)
    _numeric_args(p)
    p.add_argument("--pmax", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verdict)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except analytic.NumericCapError as e:
        print(f"numeric cap: {e}", file=sys.stderr)
        return EXIT_NUMERIC_CAP
    except (sequences.SequenceError, analytic.AnalyticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except sequences.VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
