"""Command-line behavior: formats, exit codes, round trips, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from nbscope.cli import main


def run(capsys, *argv):
    code = main(list(argv))
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
])
def test_montecarlo_non_finite_inputs_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "montecarlo", *argv, "--trials", "2",
                         "--horizon", "500", "--eps", "0", "--delta", "0.9")
    assert code == 2
    assert not out
    assert message in err


def test_reflectionless_full_emits_strict_json(capsys):
    # the nan defect of a check that ran no confirmation used to print NaN
    code, out, _ = run(capsys, "reflectionless", "--pattern", "1,2", "--full",
                       "--arc", "0.1", "0.5")
    assert code == 1

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads(out, parse_constant=reject)["report"]
    assert report["passed"] is False
    assert report["max_confirmation_defect"] is None


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

    monkeypatch.setattr(analytic, "_czt", never)
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
