"""Command-line behavior: formats, exit codes, round trips, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from nbscope import cli
from nbscope.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:     # argparse's usage errors
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_rudin_shapiro_csv(capsys, tmp_path):
    out = tmp_path / "rs.csv"
    code, _, _ = run(capsys, "generate", "--family", "rudin-shapiro",
                     "--count", "16", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,re,im"
    values = [int(float(line.split(",")[1])) for line in lines[1:]]
    assert values == [1, 1, 1, -1, 1, 1, -1, 1, 1, 1, 1, -1, -1, -1, 1, -1]


def test_missing_input_exits_2_without_output(capsys, tmp_path):
    out = tmp_path / "never.json"
    code, _, err = run(capsys, "certificate",
                       "--input", str(tmp_path / "notexist.csv"),
                       "--out", str(out))
    assert code == 2
    assert not out.exists()
    assert err


def test_verdict_gap_factorial(capsys):
    code, out, _ = run(capsys, "verdict", "--family", "gap-factorial",
                       "--horizon", "100000", "--window", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["report"]["kind"] == "StrongNaturalBoundaryEvidence"
    assert payload["report"]["certificate"]["kind"] == "GapZeroFlank"


def test_verdict_periodic(capsys):
    code, out, _ = run(capsys, "verdict", "--family", "periodic",
                       "--pattern", "1,1,0", "--horizon", "2000")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["kind"] == "EventuallyPeriodic"
    assert payload["report"]["periodicity"] == [0, 3]


def test_certificate_no_finding_exits_1(capsys):
    code, out, _ = run(capsys, "certificate", "--family", "periodic",
                       "--pattern", "1,0", "--horizon", "2000",
                       "--eps", "0", "--delta", "0.5")
    assert code == 1
    assert json.loads(out)["report"]["certificates"] == []


def test_round_trip_generate_then_ingest(capsys, tmp_path):
    path = tmp_path / "rs.csv"
    code, _, _ = run(capsys, "generate", "--family", "rudin-shapiro",
                     "--count", "2048", "--out", str(path))
    assert code == 0
    code, from_file, _ = run(capsys, "certificate", "--input", str(path),
                             "--window", "4", "--eps", "0", "--delta", "2",
                             "--horizon", "2047", "--kind", "pair")
    assert code == 0
    code, in_memory, _ = run(capsys, "certificate", "--family", "rudin-shapiro",
                             "--window", "4", "--eps", "0", "--delta", "2",
                             "--horizon", "2047", "--kind", "pair")
    assert code == 0
    assert (json.loads(from_file)["report"]
            == json.loads(in_memory)["report"])


def test_szego_subcommand(capsys):
    code, out, _ = run(capsys, "szego", "--family", "periodic",
                       "--pattern", "1,0,0", "--pmax", "3",
                       "--horizon", "1500")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["overall"] == "eventually-periodic"
    assert rep["periodicity"] == [0, 3]


def test_periodicity_subcommand_exit_codes(capsys):
    code, out, _ = run(capsys, "periodicity", "--family", "periodic",
                       "--pattern", "1,0", "--horizon", "1000")
    assert code == 0
    assert json.loads(out)["report"]["found"] == {"preperiod": 0, "period": 2}
    code, out, _ = run(capsys, "periodicity", "--family", "rudin-shapiro",
                       "--horizon", "4000")
    assert code == 1


def test_probe_csv_output(capsys):
    code, out, _ = run(capsys, "probe", "--family", "periodic",
                       "--pattern", "1", "--full",
                       "--radii", "0.5,0.9", "--quad-points", "256",
                       "--tol", "1e-8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,integral,quad_err,trunc_err"
    assert len(lines) == 3


def test_probe_arc_json_envelope(capsys, tmp_path):
    jpath = tmp_path / "probe.json"
    code, _, _ = run(capsys, "probe", "--family", "gap-factorial",
                     "--arc", "-0.25", "0.25", "--radii", "0.9,0.99",
                     "--quad-points", "256", "--json", str(jpath),
                     "--out", str(tmp_path / "probe.csv"))
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload["report"]["growth_fit"] is not None


def test_reflectionless_periodic_modes(capsys):
    code, out, _ = run(capsys, "reflectionless", "--pattern", "1",
                       "--arc", "0.1", str(2 * math.pi - 0.1))
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True
    code, out, _ = run(capsys, "reflectionless", "--pattern", "1,0",
                       "--arc", "-0.5", "0.5")
    assert code == 1
    assert json.loads(out)["report"]["passed"] is False


def test_reflectionless_decay_mode(capsys, tmp_path):
    win = tmp_path / "win.csv"
    win.write_text("n,re,im\n-1,1,0\n0,0,0\n1,0,0\n")
    code, out, _ = run(capsys, "reflectionless", "--window-csv", str(win),
                       "--decay-side", "positive", "--decay-c", "1",
                       "--decay-d", "1", "--delta", "0.5")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["outcome"] == "not-reflectionless" and rep["witness"] == -1


@pytest.mark.parametrize("option, named", [
    ("--decay-c", "decay constant c"), ("--decay-d", "decay constant d"), ("--delta", "delta"),
])
def test_reflectionless_decay_rule_nan_exits_2_naming_it(capsys, tmp_path, option, named):
    # a nan --decay-c or --decay-d reported not-reflectionless and a nan
    # --delta consistent-with-zero, each with exit 0
    win = tmp_path / "win.csv"
    win.write_text("n,re,im\n-1,1,0\n0,0,0\n1,0,0\n")
    argv = {"--decay-c": "1", "--decay-d": "1", "--delta": "0.5", option: "nan"}
    code, out, err = run(capsys, "reflectionless", "--window-csv", str(win),
                         "--decay-side", "positive", *(x for kv in argv.items() for x in kv))
    assert code == 2
    assert not out
    assert f"{named} must be finite and > 0, got nan" in err


def test_montecarlo_deterministic(capsys):
    argv = ["montecarlo", "--process", "iid", "--values", "0,1",
            "--probs", "0.5,0.5", "--trials", "3", "--window", "3",
            "--horizon", "3000", "--eps", "0", "--delta", "1",
            "--seed", "5"]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    rep = json.loads(out1)["report"]
    assert rep["found_count"] == 3


def test_montecarlo_constant_refuses(capsys):
    code, _, err = run(capsys, "montecarlo", "--process", "iid",
                       "--values", "1", "--probs", "1.0",
                       "--trials", "2", "--horizon", "500",
                       "--eps", "0", "--delta", "0.5")
    assert code == 2
    assert "unsatisfiable" in err


def test_rightlimits_subcommand(capsys):
    code, out, _ = run(capsys, "rightlimits", "--family", "periodic",
                       "--pattern", "1,0", "--window", "2", "--eps", "0",
                       "--horizon", "1000")
    assert code == 0
    rep = json.loads(out)["report"]
    assert len(rep["candidates"]) == 2


def test_usage_error_without_source(capsys):
    code, _, err = run(capsys, "verdict", "--horizon", "1000")
    assert code == 2
    assert "family" in err


def test_montecarlo_markov_process(capsys):
    code, out, _ = run(capsys, "montecarlo", "--process", "markov",
                       "--values", "0,1",
                       "--transition", "0.5,0.5;0.5,0.5",
                       "--trials", "2", "--window", "3",
                       "--horizon", "3000", "--eps", "0", "--delta", "0.9",
                       "--seed", "3")
    assert code == 0
    assert json.loads(out)["report"]["found_count"] == 2


def test_probe_all_radii_over_cap_exits_3(capsys):
    code, _, err = run(capsys, "probe", "--family", "periodic",
                       "--pattern", "1", "--full",
                       "--radii", "0.999999", "--quad-points", "64",
                       "--tol", "1e-300")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_probe_invalid_tol_exits_2(capsys, tol):
    code, out, err = run(capsys, "probe", "--family", "periodic",
                         "--pattern", "1", "--full", "--radii", "0.9,0.99",
                         "--quad-points", "64", "--tol", tol)
    assert code == 2
    assert not out
    assert "tolerance" in err


def test_probe_needing_no_terms_exits_0(capsys):
    code, out, _ = run(capsys, "probe", "--family", "periodic",
                       "--pattern", "1", "--full", "--radii", "0.9,0.99",
                       "--quad-points", "64", "--tol", "100")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [float(row[1]) for row in rows] == [0.0, 0.0]
    assert [float(row[3]) for row in rows] == pytest.approx([10.0, 100.0])


def test_probe_and_verdict_import_neither_scipy_nor_sympy(tmp_path):
    # nor start a thread: the library runs on the calling thread only
    script = (
        "import sys\n"
        "from nbscope.cli import main\n"
        "probe = main(['probe', '--family', 'rudin-shapiro', '--full',\n"
        "              '--radii', '0.9,0.99', '--quad-points', '64'])\n"
        "verdict = main(['verdict', '--family', 'periodic', '--pattern', '1,1j,0,0',\n"
        "                '--horizon', '2000'])\n"
        "assert (probe, verdict) == (0, 0), (probe, verdict)\n"
        "loaded = sorted(m for m in ('scipy', 'sympy', 'concurrent.futures')\n"
        "                if m in sys.modules)\n"
        "assert not loaded, loaded\n"
        "import threading\n"
        "assert threading.active_count() == 1, threading.enumerate()\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"exact": true' in proc.stdout


def test_probe_requires_arc_or_full(capsys):
    code, _, err = run(capsys, "probe", "--family", "periodic",
                       "--pattern", "1", "--radii", "0.5")
    assert code == 2
    assert "--arc" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_csv_exits_2(capsys, tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text("n,re,im\n" + "".join(f"{n},1,0\n" for n in range(40))
                    + f"40,{value},0\n")
    code, out, err = run(capsys, "verdict", "--input", str(path), "--horizon", "40")
    assert code == 2
    assert not out
    assert "non-finite" in err


@pytest.mark.parametrize("argv", [
    ("--family", "rudin-shapiro", "--tol", "nan"),
    ("--family", "periodic", "--pattern", "1,-1", "--tol", "-1"),
])
def test_invalid_periodicity_tol_exits_2(capsys, argv):
    code, out, err = run(capsys, "periodicity", *argv, "--horizon", "1000")
    assert code == 2
    assert not out
    assert "tolerance" in err


@pytest.mark.parametrize("argv", [
    ("rightlimits", "--family", "rotation", "--q", "0.41421356237309515",
     "--window", "3", "--eps=-0.1"),
    ("rightlimits", "--family", "rotation", "--q", "0.41421356237309515",
     "--window", "3", "--eps=nan"),
    ("certificate", "--family", "rudin-shapiro", "--eps", "-1"),
    ("certificate", "--family", "rudin-shapiro", "--kind", "pair", "--eps", "nan"),
])
def test_invalid_eps_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--horizon", "2000")
    assert code == 2
    assert not out
    assert "eps" in err


@pytest.mark.parametrize("argv", [
    # each exited 1 ("no finding"): an infinite delta passed delta > 2*eps
    ("certificate", "--family", "rudin-shapiro", "--kind", "pair", "--delta", "inf"),
    ("certificate", "--family", "rudin-shapiro", "--kind", "gap", "--delta", "inf"),
    ("verdict", "--family", "rudin-shapiro", "--delta", "inf"),
])
def test_non_finite_delta_exits_2_naming_it(capsys, argv):
    code, out, err = run(capsys, *argv, "--horizon", "2000")
    assert code == 2
    assert not out
    assert "need a finite delta" in err and "(delta=inf" in err


@pytest.mark.parametrize("argv", [
    ("verdict", "--family", "rudin-shapiro", "--min-recurrence", "100000",
     "--pmax", "0"),
    ("szego", "--family", "rudin-shapiro", "--pmax", "0"),
    ("certificate", "--family", "rudin-shapiro", "--min-recurrence", "0",
     "--kind", "gap"),
    ("certificate", "--family", "periodic", "--pattern", "1",
     "--min-recurrence", "0", "--kind", "pair"),
    ("rightlimits", "--family", "rudin-shapiro", "--min-recurrence", "0"),
])
def test_counts_below_1_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--horizon", "300")
    assert code == 2
    assert not out
    assert "must be >= 1" in err


def test_negative_max_candidates_exits_2(capsys):
    code, out, err = run(capsys, "rightlimits", "--family", "erdos-soft",
                         "--window", "3", "--eps", "0.1", "--horizon", "2000",
                         "--max-candidates", "-1")
    assert code == 2
    assert not out
    assert "max_candidates" in err


@pytest.mark.parametrize("command", ["szego", "verdict", "periodicity",
                                     "certificate", "rightlimits"])
def test_negative_horizon_exits_2_naming_it(capsys, command):
    # the error used to name a shrunk internal value (a prefix count of -4,
    # a budget of 2) instead of the horizon passed
    code, out, err = run(capsys, command, "--family", "rudin-shapiro",
                         "--horizon", "-5")
    assert code == 2
    assert not out
    assert "horizon must be >= 0, got -5" in err


def test_failed_reverification_exits_4(capsys, monkeypatch):
    import nbscope as nb
    from nbscope import rightlimits

    # Rudin-Shapiro values are +-1, so no pair can be 3 apart
    forged = nb.NonReflectionlessCertificate(
        kind="PairMismatch", witnesses=(10,), flank_side="backward", flank_width=3,
        eps=0.0, delta=3.0, separation=3.0, pairs=((10, 11), (20, 21), (30, 31)))
    monkeypatch.setattr(rightlimits, "find_pair_certificate", lambda *a, **k: forged)
    code, out, err = run(capsys, "verdict", "--family", "rudin-shapiro",
                         "--horizon", "200")
    assert code == 4
    assert not out
    assert "verification failed" in err


def test_certificate_reverifies_before_emitting(capsys, monkeypatch):
    import nbscope as nb
    from nbscope import rightlimits

    # squares carry 1 at k^2 and 0 elsewhere, so index 10 is no hit
    forged = nb.NonReflectionlessCertificate(
        kind="GapZeroFlank", witnesses=(9, 10, 16), flank_side="backward",
        flank_width=2, eps=0.0, delta=0.5, separation=1.0)
    monkeypatch.setattr(rightlimits, "find_gap_certificate", lambda *a, **k: forged)
    code, out, err = run(capsys, "certificate", "--family", "gap-squares",
                         "--kind", "gap", "--window", "2", "--horizon", "200")
    assert code == 4
    assert not out
    assert "verification failed" in err


def test_certificate_both_kinds_forward_flank_reverifies(capsys, monkeypatch):
    import nbscope as nb
    from nbscope import rightlimits

    # Rudin-Shapiro values are +-1: no zero flank, and no pair 3 apart
    forged = nb.NonReflectionlessCertificate(
        kind="PairMismatch", witnesses=(10,), flank_side="forward", flank_width=3,
        eps=0.0, delta=3.0, separation=3.0, pairs=((10, 11), (20, 21), (30, 31)))
    sides = []

    def forge(*a, flank_side, **k):
        sides.append(flank_side)
        return forged

    monkeypatch.setattr(rightlimits, "find_pair_certificate", forge)
    code, out, err = run(capsys, "certificate", "--family", "rudin-shapiro",
                         "--kind", "both", "--flank", "forward", "--window", "3",
                         "--horizon", "200")
    assert code == 4
    assert not out
    assert "verification failed" in err
    assert sides == ["forward"]


def test_szego_reverifies_before_emitting(capsys, monkeypatch):
    from nbscope import rightlimits

    real = rightlimits.szego_block_analysis

    def forged(*a, **k):
        rep = real(*a, **k)
        w = rep.per_p[2]    # a mismatch inside the agreeing block is no witness
        rep.per_p[2] = rightlimits.SzegoWitness(2, w.first, w.second, 2)
        return rep

    code, out, _ = run(capsys, "szego", "--family", "rudin-shapiro", "--pmax", "3",
                       "--horizon", "2000")
    assert code == 0 and json.loads(out)["report"]["overall"] == "mismatch-at-every-p"
    monkeypatch.setattr(rightlimits, "szego_block_analysis", forged)
    code, out, err = run(capsys, "szego", "--family", "rudin-shapiro", "--pmax", "3",
                         "--horizon", "2000")
    assert code == 4
    assert not out
    assert "p = 2" in err


def test_rightlimits_reverifies_before_emitting(capsys, monkeypatch):
    from nbscope import rightlimits

    real = rightlimits.extract_right_limits

    def forged(*a, **k):
        res = real(*a, **k)
        first, second = res.candidates    # the two phases of 1, 0
        res.candidates[0] = rightlimits.RightLimitCandidate(
            second.window, first.recurrence_indices, first.eps)
        return res

    argv = ("rightlimits", "--family", "periodic", "--pattern", "1,0",
            "--window", "2", "--eps", "0", "--horizon", "1000")
    monkeypatch.setattr(rightlimits, "extract_right_limits", forged)
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert not out
    assert "right-limit candidate" in err


def test_verdict_complex_fill_at_numpy_modulus_exits_0(capsys):
    # delta is the fill's np.abs, one ulp above its Python abs
    code, out, _ = run(capsys, "verdict", "--family", "gap-factorial",
                       "--fill=(-0.39361034141671003-0.09300422103869699j)",
                       "--delta", "0.4044488669797381", "--eps", "0", "--window", "3")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["kind"] == "StrongNaturalBoundaryEvidence"
    assert report["certificate"]["witnesses"] == [6, 24, 120, 720, 5040, 40320]


def test_generate_negative_count_exits_2(capsys):
    code, out, err = run(capsys, "generate", "--family", "periodic", "--pattern", "1,0",
                         "--count", "-3")
    assert code == 2
    assert not out
    assert "count" in err


def test_rotation_sqrt3_is_accepted(capsys):
    q = math.sqrt(3) % 1
    code, out, _ = run(capsys, "generate", "--family", "rotation", "--q", repr(q),
                       "--count", "3")
    assert code == 0
    assert float(out.splitlines()[2].split(",")[1]) == q


@pytest.mark.parametrize("fill", ["nan", "inf", "(1+nanj)", "(-inf+0j)"])
def test_non_finite_gap_fill_exits_2(capsys, fill):
    # nan used to exit 4 ("exceeds certified bound nan"), inf to exit 0
    # with "separation": Infinity
    for family in ("gap-factorial", "gap-squares"):
        code, out, err = run(capsys, "verdict", "--family", family,
                             f"--fill={fill}", "--horizon", "2000")
        assert code == 2
        assert not out
        assert "fill must be finite" in err


@pytest.mark.parametrize("decay", [("nan", "1"), ("1", "nan"), ("inf", "1"),
                                   ("1", "inf"), ("0", "1"), ("1", "-1")])
def test_invalid_gap_decay_exits_2(capsys, decay):
    # a nan envelope used to match nothing and exit 1 ("no finding")
    code, out, err = run(capsys, "certificate", "--family", "gap-factorial",
                         "--kind", "gap", "--decay", *decay, "--horizon", "2000")
    assert code == 2
    assert not out
    assert "decay constants must be finite and > 0" in err


@pytest.mark.parametrize("argv", [("--q", "nan"), ("--q", "inf"), ("--q=-inf",),
                                  ("--q", "0.41421356237309515", "--theta", "nan"),
                                  ("--q", "0.41421356237309515", "--theta", "inf")])
def test_non_finite_rotation_parameters_exit_2(capsys, argv):
    # nan used to end in a ValueError traceback, inf in an OverflowError
    code, out, err = run(capsys, "verdict", "--family", "rotation", *argv,
                         "--horizon", "2000")
    assert code == 2
    assert not out
    assert "must be finite" in err


def test_montecarlo_negative_horizon_exits_2_naming_it(capsys):
    # the error used to name the sampled path length, not the horizon
    code, out, err = run(capsys, "montecarlo", "--process", "iid",
                         "--values", "0,1", "--probs", "0.5,0.5",
                         "--horizon", "-5", "--eps", "0", "--delta", "0.9")
    assert code == 2
    assert not out
    assert "horizon must be >= 0, got -5" in err


@pytest.mark.parametrize("process", [
    ("--process", "iid"),
    ("--process", "markov", "--transition", "0.5,0.5;0.5,0.5"),
    ("--process", "rotation", "--q", "0.41421356237309515", "--delta", "0.2"),
])
def test_montecarlo_huge_horizon_exits_3_naming_the_cap(capsys, process):
    # used to end in a numpy _ArrayMemoryError traceback with exit 1; the
    # refusal comes before the trial path is allocated
    code, out, err = run(capsys, "montecarlo", *process, "--horizon", "100000000000")
    assert code == 3
    assert not out
    assert err == "numeric cap: path length 100000000001 exceeds the cap 100000000\n"


@pytest.mark.parametrize("argv, stage", [
    (("szego", "--family", "rudin-shapiro"), "block analysis"),
    (("rightlimits", "--family", "erdos-soft", "--window", "3", "--eps", "0.1"),
     "window extraction"),
])
def test_whole_prefix_commands_refuse_a_huge_horizon_before_reading(capsys, monkeypatch,
                                                                    argv, stage):
    # each used to end in a numpy _ArrayMemoryError traceback with exit 1
    from nbscope import rightlimits
    monkeypatch.setattr(rightlimits, "_gather", lambda *a: pytest.fail("prefix read"))
    code, out, err = run(capsys, *argv, "--horizon", "100000000000")
    assert code == 3
    assert not out
    assert err == (f"numeric cap: {stage} of 100000000001 values exceeds "
                   f"the cap 100000000\n")


@pytest.mark.parametrize("argv, stage", [
    (("verdict",), "zero-flank search"),
    (("certificate", "--kind", "gap"), "zero-flank search"),
    (("certificate", "--kind", "pair"), "pair search"),
])
def test_dense_searches_refuse_a_huge_horizon_at_once(capsys, argv, stage):
    # the zero-flank scan of verdict read every center up to 10^11 (still
    # running after 60 s); verdict's periodicity scan stops after its head
    code, out, err = run(capsys, *argv, "--family", "rudin-shapiro",
                         "--horizon", "100000000000")
    assert code == 3
    assert not out
    assert err == (f"numeric cap: {stage} over 100000000001 values exceeds "
                   f"the cap 100000000\n")


def test_gap_verdict_at_the_last_index_walks_only_the_support(capsys, monkeypatch):
    from nbscope import sequences
    monkeypatch.setattr(sequences, "_CHUNK", 2 ** 10)
    code, out, _ = run(capsys, "verdict", "--family", "gap-factorial",
                       "--horizon", str(2 ** 63 - 1))
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["kind"] == "StrongNaturalBoundaryEvidence"
    # 6 = 3! has 2 = 2! in its flank of width 5
    assert rep["certificate"]["witnesses"] == [math.factorial(k) for k in range(4, 21)]


def test_reflectionless_whose_outside_series_overflows_exits_2_without_a_warning(tmp_path):
    # the outside-series sum overflowed with a RuntimeWarning and the inf
    # defect ended in a JSON ValueError traceback with exit 1
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "nbscope.cli",
         "reflectionless", "--pattern", "1.7e308,1.7e308,1", "--arc", "0.3", "1.7"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert not proc.stdout
    assert proc.stderr.startswith("error: outside-series confirmation at z = ")
    assert proc.stderr.endswith(" overflows the float range\n")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("verdict",), ("certificate", "--kind", "gap"), ("certificate", "--kind", "pair"),
    ("periodicity",), ("rightlimits",), ("szego",)])
def test_horizon_past_the_last_index_exits_2_before_reading(capsys, monkeypatch, argv):
    # the gap search read upward from 0 and never ended; verdict exited 2
    # only because its periodicity scan read index 10^20 first
    from nbscope import sequences
    monkeypatch.setattr(sequences, "_rs_at", lambda idx: pytest.fail("value read"))
    code, out, err = run(capsys, *argv, "--family", "rudin-shapiro",
                         "--horizon", str(10 ** 20))
    assert code == 2
    assert not out
    assert err == f"error: horizon {10 ** 20} beyond the last index {2 ** 63 - 1}\n"


@pytest.mark.parametrize("process, eps", [
    (("--process", "iid"), 0.0),
    (("--process", "rotation", "--q", "0.41421356237309503", "--delta", "0.2"), 0.05),
])
def test_montecarlo_eps_default_follows_the_value_kind(capsys, process, eps):
    # the default was 0 for every process, so float paths ran the exact search
    code, out, _ = run(capsys, "montecarlo", *process, "--horizon", "2000",
                       "--trials", "2")
    assert code == 0
    assert json.loads(out)["report"]["eps"] == eps


def test_szego_huge_pmax_writes_one_note_for_the_skipped_tail(capsys):
    # every p from 6 on is skipped; one note per p made 19.8 MB of JSON in
    # 0.9 s at this p_max, and a p_max near 10^9 ran for hours
    code, out, _ = run(capsys, "szego", "--family", "periodic", "--pattern", "1,0,-1",
                       "--pmax", "200000", "--horizon", "2000")
    assert code == 0
    per_p = json.loads(out)["report"]["per_p"]
    assert list(per_p) == ["1", "2", "3", "4", "5", "6"]
    assert per_p["6"] == ("skipped (so is every p up to 200000): 333 aligned blocks "
                          "available, 730 needed to guarantee recurrence")


@pytest.mark.parametrize("process", [
    ("--process", "iid"),
    ("--process", "markov", "--transition", "0.5,0.5;0.5,0.5"),
    ("--process", "rotation", "--q", "0.41421356237309515", "--delta", "0.2"),
])
def test_montecarlo_negative_seed_exits_2_naming_the_seed(capsys, process):
    # used to end in a ValueError traceback from np.random.SeedSequence with exit 1
    code, out, err = run(capsys, "montecarlo", *process, "--seed", "-1")
    assert code == 2
    assert not out
    assert err == "error: seed must be an integer >= 0, got -1\n"


def test_probe_whose_transform_would_overflow_exits_2_naming_the_bound(capsys, tmp_path):
    # used to exit 0 with every integral null and numpy overflow warnings
    code, out, err = run(capsys, "probe", "--family", "periodic", "--pattern", "1e308",
                         "--full", "--radii", "0.5,0.999", "--quad-points", "64",
                         "--json", str(tmp_path / "out.json"))
    assert code == 2
    assert not out
    assert err == ("error: bound 1e+308 times block length 32768 times FFT length 33750 "
                   "overflows the arc transform\n")
    assert not (tmp_path / "out.json").exists()


def test_generate_periodic_non_finite_pattern_exits_2(capsys):
    # used to exit 4 with "exceeds certified bound nan"
    code, out, err = run(capsys, "generate", "--family", "periodic",
                         "--pattern", "1,nan", "--count", "5")
    assert code == 2
    assert not out
    assert "periodic pattern values must be finite, got (nan+0j)" in err


@pytest.mark.parametrize("argv,message", [
    # exited 0 with hit rate 1.0
    (("--process", "markov", "--values", "0,1", "--transition", "0.5,0.5;nan,1"),
     "transition probabilities must be finite, got nan"),
    # ended in a ValueError traceback with exit 1
    (("--process", "iid", "--values", "0,1", "--probs", "nan,nan"),
     "iid probabilities must be finite, got nan"),
    (("--process", "iid", "--values", "0,nan"),
     "iid values must be finite, got (nan+0j)"),
    # sigma overflowed: ended in a NaN and an infinity traceback with exit 1
    # (the iid sigma, summed as p|v - mean|^2, overflows to inf, not inf - inf)
    (("--process", "iid", "--values", "1e200,0"), "sigma must be finite, got inf"),
    (("--process", "iid", "--values", "1e308,-1e308"), "sigma must be finite, got inf"),
    (("--process", "markov", "--values", "1e200,0", "--transition", "0.5,0.5;0.5,0.5"),
     "sigma must be finite, got inf"),
    # ended in a ValueError traceback with exit 1: a float parse, then
    # ragged rows in np.asarray
    (("--process", "markov", "--values", "0,1", "--transition", "0.5,a;0.5,0.5"),
     "--transition row '0.5,a' is not a list of numbers"),
    (("--process", "markov", "--values", "0,1", "--transition", "0.5,0.5;"),
     "transition matrix must be rows of numbers of equal length, got [[0.5, 0.5], []]"),
    (("--process", "markov", "--values", "0,1", "--transition", "0.5,0.5;0.5"),
     "transition matrix must be rows of numbers of equal length, got [[0.5, 0.5], [0.5]]"),
    # argparse named the private parser: "invalid _parse_floats value"
    (("--process", "iid", "--values", "0,1", "--probs", "0.5,a"),
     "argument --probs: '0.5,a' is not a comma-separated list of numbers"),
    (("--process", "iid", "--values", "0,a"),
     "argument --values: '0,a' is not a comma-separated list of numbers"),
])
def test_montecarlo_non_finite_inputs_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "montecarlo", *argv, "--trials", "2",
                         "--horizon", "500", "--eps", "0", "--delta", "0.9")
    assert code == 2
    assert not out
    assert message in err and "_parse_" not in err


@pytest.mark.parametrize("option, value", [("--radii", "0.5,x"), ("--pattern", "1,a")])
def test_probe_list_that_is_not_numbers_exits_2_naming_it(capsys, option, value):
    code, out, err = run(capsys, "probe", "--family", "periodic", "--pattern", "1",
                         "--arc", "0.3", "1.7", option, value)
    assert code == 2
    assert not out
    assert f"argument {option}: {value!r} is not a comma-separated list of numbers" in err
    assert "_parse_" not in err


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_reflectionless_full_emits_strict_json(capsys, tmp_path):
    # the nan defect of a check that ran no confirmation used to print NaN
    code, out, _ = run(capsys, "reflectionless", "--pattern", "1,2", "--full",
                       "--arc", "0.1", "0.5")
    assert code == 1
    report = _strict_json(out)["report"]
    assert report["passed"] is False
    assert report["max_confirmation_defect"] is None
    # every subcommand that writes JSON writes it strictly, NaN and
    # Infinity rejected
    probe_json = tmp_path / "probe.json"
    for argv in (
            ("rightlimits", "--family", "erdos-soft", "--window", "2", "--horizon", "2000"),
            ("certificate", "--family", "gap-factorial", "--horizon", "2000"),
            ("certificate", "--family", "periodic", "--pattern", "1,0", "--horizon", "500"),
            ("szego", "--family", "rudin-shapiro", "--horizon", "2000"),
            ("periodicity", "--family", "periodic", "--pattern", "1,2,3", "--horizon", "500"),
            ("periodicity", "--family", "rudin-shapiro", "--horizon", "500"),
            ("reflectionless", "--pattern", "1,1j", "--arc", "0.1", "0.5"),
            ("montecarlo", "--trials", "2", "--horizon", "1000", "--delta", "0.9"),
            ("verdict", "--family", "erdos-soft", "--horizon", "2000"),
            ("verdict", "--family", "rotation", "--q", "0.41421356237309515",
             "--horizon", "2000"),
    ):
        code, out, err = run(capsys, *argv)
        assert code in (0, 1), (argv, err)
        assert _strict_json(out)["command"] == argv[0]
    code, _, _ = run(capsys, "probe", "--family", "rudin-shapiro", "--arc", "0.3", "1.7",
                     "--radii", "0.5,0.9", "--quad-points", "64", "--json", str(probe_json))
    assert code == 0
    assert _strict_json(probe_json.read_text())["command"] == "probe"


def test_emitted_nan_is_null(capsys):
    nan = math.nan
    cli._emit_json(None, "test", {"a": [1.5, nan, (nan, -0.0)], "b": {"c": nan},
                                  "d": "NaN", "e": None})
    assert _strict_json(capsys.readouterr().out)["report"] == {
        "a": [1.5, None, [None, -0.0]], "b": {"c": None}, "d": "NaN", "e": None}


@pytest.mark.parametrize("argv", [
    ("verdict", "--input"),
    ("reflectionless", "--full", "--window-csv"),
])
def test_undecodable_csv_exits_2_naming_file_and_offset(capsys, tmp_path, argv):
    # used to end in a UnicodeDecodeError traceback with exit 1
    path = tmp_path / "utf16.csv"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert not out
    assert str(path) in err and "byte 0" in err
    path.write_bytes(b"n,re,im\n0,1,0\n1,\xc3\x28,0\n")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert "byte 16" in err       # after 8 + 6 + 2 valid bytes


def test_subnormal_eps_exits_2_naming_it(capsys):
    # 1/eps overflowed to inf and the key grid cast printed a RuntimeWarning
    code, out, err = run(capsys, "certificate", "--family", "rotation",
                         "--q", "0.41421356", "--kind", "pair", "--eps", "1e-310",
                         "--horizon", "2000")
    assert code == 2
    assert not out
    assert "1e-310" in err


def test_probe_node_count_over_cap_exits_3_without_allocating(capsys, monkeypatch):
    # used to try a 2.9 TiB allocation and end in a traceback with exit 1
    from nbscope import analytic

    def never(*args):
        raise AssertionError("the transform ran")

    monkeypatch.setattr(analytic, "_blocked_czt", never)
    monkeypatch.setattr(analytic, "_nodes_eval_sparse", never)
    code, out, err = run(capsys, "probe", "--family", "rudin-shapiro", "--full",
                         "--radii", "0.5", "--quad-points", "100000000000")
    assert code == 3
    assert not out
    assert "400000000000 nodes" in err


@pytest.mark.parametrize("argv", [
    ("verdict", "--input"),
    ("reflectionless", "--full", "--window-csv"),
], ids=["verdict", "reflectionless"])
def test_oversized_csv_field_exits_2_naming_file_and_line(capsys, tmp_path, argv):
    # a field over csv.field_size_limit() (131072 characters) used to end in
    # a _csv.Error traceback with exit 1
    path = tmp_path / "big.csv"
    path.write_text("n,re,im\n0,1,0\n1," + "1" * 140_000 + ",0\n")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert not out
    assert f"CSV file {path}, line 3: field larger than field limit" in err


def test_verdict_on_a_lenient_csv_prints_what_the_canonical_one_does(capsys, tmp_path):
    # quoted fields, underscores and blank lines send chunks to the row
    # loop; the verdict must not see the difference
    canon = tmp_path / "canon.csv"
    assert run(capsys, "generate", "--family", "rudin-shapiro", "--count", "10000",
               "--out", str(canon))[0] == 0
    lines = canon.read_text().splitlines()
    lenient = lines[:1]
    for k, line in enumerate(lines[1:]):
        n, re_, im = line.split(",")
        if k % 997 == 0:
            line = f'"{n}","{re_}",{im}'        # quoted fields
        elif k % 997 == 1:
            line = f"0_{n},{re_},{im}"          # an underscore in the index
        elif k % 997 == 2:
            lenient.append("")                  # a blank line
        lenient.append(line)
    (tmp_path / "lenient.csv").write_text("\n".join(lenient) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = run(capsys, "verdict", "--input", str(canon))
        got = run(capsys, "verdict", "--input", str(tmp_path / "lenient.csv"))
    assert want[0] == got[0] == 0
    assert got[1] == want[1] and not got[2]


def test_verdict_near_the_float_max_reports_the_period_without_a_form(capsys, tmp_path):
    # head(z)*(1 - z^7) + z^5*block(z) overflows: the form used to come back
    # with nan and inf coefficients, after numpy warnings
    big = 1.7e308
    vals = [1, big, big, big, big] + [1, 1, 0, big, big, -big, -big] * 43
    path = tmp_path / "near-max.csv"
    path.write_text("n,re,im\n" + "".join(f"{n},{v!r},0\n" for n, v in enumerate(vals)))
    code, out, err = run(capsys, "verdict", "--input", str(path))
    assert code == 0 and not err
    report = json.loads(out)["report"]
    assert report["kind"] == "EventuallyPeriodic"
    assert report["periodicity"] == [5, 7]
    assert report["rational_form"] is None
    assert report["reason"] == (
        f"period 7 after preperiod 5, verified on horizon {len(vals) - 1}; "
        "no rational form: coefficient 10 of the numerator head(z)*(1 - z^7) "
        "+ z^5*block(z) exceeds the float range")


def test_reflectionless_pattern_without_a_float_form_exits_2(capsys):
    # the root test's scale, the sum of |coefficients|, overflows; it used to
    # warn and cancel every root
    code, out, err = run(capsys, "reflectionless", "--pattern", "1.7e308,1.7e308,0.5",
                         "--arc", "0.3", "1.7")
    assert code == 2
    assert not out
    assert "no rational form" in err


def test_pair_eps_below_the_key_grid_exits_2_naming_it(capsys):
    # floor(value/eps) overflowed the int64 key grid with a RuntimeWarning
    code, out, err = run(capsys, "certificate", "--family", "rotation",
                         "--q", "0.41421356", "--kind", "pair", "--eps", "1e-300",
                         "--horizon", "2000")
    assert code == 2
    assert not out
    assert "eps 1e-300" in err and "bound 1.0" in err


def test_pair_eps_just_above_the_key_grid_limit_runs_without_warning(capsys):
    eps = math.nextafter(2.0 ** -62, 1.0)      # bound 1: bound/eps < 2^62
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "certificate", "--family", "rotation",
                             "--q", "0.41421356", "--kind", "pair", "--eps", repr(eps),
                             "--horizon", "2000")
    assert code in (0, 1)
    assert json.loads(out)["command"] == "certificate"
    assert not err
