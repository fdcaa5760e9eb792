"""Acceptance gate: one test per criterion, each at its stated tolerance.

Expected values tagged as derived were computed with the independent
oracles defined alongside each test (recursion arrays, membership scans,
adaptive quadrature, brute-force minimal periods) and frozen here.
"""

import cmath
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import nbscope as nb
from nbscope.analytic import ArcSpec, boundary_l1_scan, decay_rule_check
from nbscope.rightlimits import AnalysisConfig, SzegoWitness
from references import reference_periodicity, reference_reflectionless, rs_polynomials


# ---------------------------------------------------------------------------
# 1. shift identity


def test_criterion_1_shift_identity():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    shifts = (0, 1, 5, 20)
    checked = 0
    for _ in range(100):
        vals = rng.uniform(-1, 1, size=160) + 1j * rng.uniform(-1, 1, size=160)
        seq = nb.make_sequence(nb.explicit(vals))
        zs = rng.uniform(0.3, 0.7, size=10) * np.exp(
            2j * math.pi * rng.uniform(0, 1, size=10))
        for shift in shifts:
            for z in zs:
                res = nb.eval_shift_pair(seq, shift, complex(z), tol=1e-12)
                assert res.identity_residual <= res.residual_allowance
                checked += 1
    assert checked == 4000

    # exact integer coefficients at z = 1/2: the residual vanishes exactly
    for k in range(20):
        vals = rng.integers(-3, 4, size=200)
        seq = nb.make_sequence(nb.explicit(vals))
        for shift in shifts:
            res = nb.eval_shift_pair(seq, shift, 0.5)
            assert res.identity_residual == 0.0

    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 2. reflectionless periodic example


def test_criterion_2_reflectionless_periodic():
    arc = ArcSpec(0.1, 2 * math.pi - 0.1)
    res = nb.periodic_reflectionless_check([1], arc, samples=50)
    assert res.passed

    # direct confirmation against the closed form at 50 outside points
    ext = nb.constant_extension(1.0)
    for i in range(50):
        phi = arc.alpha + (i + 0.5) * arc.width / 50
        rho = 1.1 + 0.8 * i / 49
        z = rho * cmath.exp(1j * phi)
        outside = nb.eval_two_sided(ext, z, tol=1e-12)
        assert abs(1.0 / (1.0 - z) + outside.value) \
            <= outside.abs_error_bound + 1e-10

    # all patterns of length <= 4 over {-1, 0, 1} against the pole oracle
    alphabet = (-1, 0, 1)
    count = 0
    for length in range(1, 5):
        for idx in range(len(alphabet) ** length):
            pattern, v = [], idx
            for _ in range(length):
                pattern.append(alphabet[v % 3])
                v //= 3
            got = nb.periodic_reflectionless_check(pattern, arc, samples=12)
            assert got.passed == reference_reflectionless(pattern, arc), pattern
            count += 1
    assert count == 120


# ---------------------------------------------------------------------------
# 3. gap certificates


def test_criterion_3_gap_certificates():
    start = time.monotonic()

    # factorial family, flank width 6, horizon 1e6
    horizon = 10 ** 6
    facts = []
    f, k = 1, 1
    while f <= horizon:
        facts.append(f)
        k += 1
        f *= k
    fact_set = set(facts)
    oracle = tuple(n for n in facts
                   if n >= 6 and all((n - j) not in fact_set
                                     for j in range(1, 7)))
    seq = nb.make_sequence(nb.gap_powers("factorials", 1))
    cert = nb.find_gap_certificate(seq, 6, horizon, eps=0.0, delta=0.5)
    assert cert.witnesses == oracle
    assert cert.witnesses == (24, 120, 720, 5040, 40320, 362880)
    # the stated quadruple is contained in the verified hit set
    assert {720, 5040, 40320, 362880} <= set(cert.witnesses)
    assert cert.verify(seq)

    # squares family, flank width 4: all n = j^2 with 2j-1 > 4 in range
    squares = {j * j for j in range(0, math.isqrt(horizon) + 1)}
    oracle_sq = tuple(n for n in sorted(squares)
                      if 4 <= n <= horizon
                      and all((n - j) not in squares for j in range(1, 5)))
    seq_sq = nb.make_sequence(nb.gap_powers("squares", 1))
    cert_sq = nb.find_gap_certificate(seq_sq, 4, horizon, eps=0.0, delta=0.5)
    assert cert_sq.witnesses == oracle_sq
    assert all(n == (r := math.isqrt(n)) * r and 2 * r - 1 > 4
               for n in cert_sq.witnesses)
    assert cert_sq.verify(seq_sq)

    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 4. Rudin-Shapiro pair certificates


def test_criterion_4_rudin_shapiro_pairs():
    # hand derivation from the recursion arrays: at (2^j, 3*2^j) the
    # backward flanks coincide and the centers have opposite sign
    P12, _ = rs_polynomials(12)
    hand = []
    for j in range(2, 11):
        n, m = 2 ** j, 3 * 2 ** j
        assert P12[n - 4:n] == P12[m - 4:m]
        assert P12[n] == -P12[m] and abs(P12[n] - P12[m]) == 2
        hand.append((n, m))
    assert hand == [(2 ** j, 3 * 2 ** j) for j in range(2, 11)]

    rs = nb.make_sequence(nb.rudin_shapiro())
    for n, m in hand:
        assert nb.verify_pair(rs, n, m, 4, 0.0, 2.0, "backward")

    cert = nb.find_pair_certificate(rs, 4, 2 ** 12, eps=0.0, delta=2.0,
                                    flank_side="backward")
    assert cert is not None and cert.verify(rs)
    assert (4, 12) in cert.pairs
    assert len(cert.pairs) >= 3


# ---------------------------------------------------------------------------
# 5. block analysis and periodicity detection


def test_criterion_5_szego_analysis():
    proc = nb.iid_process([-1, 1], seed=7)
    path = nb.sample_process(proc, 4096)
    rep = nb.szego_block_analysis(path, 8, 4095)
    for p in range(1, 9):
        w = rep.per_p[p]
        assert isinstance(w, SzegoWitness)
        assert w.mismatch >= p + 1
        assert w.verify(path)
    assert rep.overall == "mismatch-at-every-p"

    # every eventually periodic input with preperiod <= 5, period <= 6
    rng = np.random.default_rng(55)
    for pp in range(6):
        for t in range(1, 7):
            head = list(rng.integers(0, 3, size=pp))
            block = list(rng.integers(0, 3, size=t))
            vals = head + block * ((300 + t) // t)
            seq = nb.make_sequence(nb.explicit(vals))
            horizon = len(vals) - 1
            got = nb.detect_eventual_periodicity(seq, 8, 8, horizon, tol=0.0)
            want = reference_periodicity(seq, 8, 8, horizon, tol=0.0)
            assert got == want

            v = nb.verdict(seq, AnalysisConfig(horizon=horizon))
            assert v.kind == "EventuallyPeriodic"
            assert v.periodicity == want
            period = want[1]
            for pole in v.rational_form.poles:
                assert period % pole.den == 0  # poles at period-th roots only


# ---------------------------------------------------------------------------
# 6. rotation sequence (irrational rotation number)


def test_criterion_6_rotation_pairs():
    q = math.sqrt(2) - 1
    seq = nb.make_sequence(nb.rotation(q, 0.0))
    cert = nb.find_pair_certificate(seq, 5, 100_000, eps=0.05, delta=0.5,
                                    flank_side="forward")
    assert cert is not None
    assert len(cert.pairs) >= 3
    assert cert.verify(seq)
    for n, m in cert.pairs:  # every reported pair is a valid witness
        assert nb.verify_pair(seq, n, m, 5, 0.05, 0.5, "forward")
    # the documented pair qualifies under the same definition
    assert nb.verify_pair(seq, 29, 70, 5, 0.05, 0.5, "forward")

    v = nb.verdict(seq, AnalysisConfig(width=5, eps=0.05, delta=0.5,
                                       horizon=100_000))
    assert v.kind == "StrongNaturalBoundaryEvidence"
    assert v.certificate.kind == "PairMismatch"


# ---------------------------------------------------------------------------
# 7. boundary probe


def test_criterion_7_boundary_probe():
    start = time.monotonic()
    seq = nb.make_sequence(nb.periodic([1]))
    radii = [1 - 10.0 ** (-k) for k in range(1, 5)]
    rep = boundary_l1_scan(seq, ArcSpec.full_circle(), radii,
                           quad_points=32768, tol=1e-6)
    assert all(b > a for a, b in zip(rep.integrals, rep.integrals[1:]))
    assert rep.growth.max_rel_residual < 0.15

    # independent adaptive-quadrature oracle of |1 - r e^{i t}|^{-1}
    for r, integral, qerr, terr in zip(radii, rep.integrals,
                                       rep.quad_errors, rep.trunc_errors):
        oracle, _ = quad(lambda t: 1.0 / abs(1 - r * cmath.exp(1j * t)),
                         0, 2 * math.pi, limit=800,
                         epsabs=1e-12, epsrel=1e-12)
        oracle /= 2 * math.pi
        assert abs(integral - oracle) <= qerr + terr

    arc = ArcSpec(math.pi / 2, 3 * math.pi / 2)
    rep2 = boundary_l1_scan(seq, arc, [0.999, 0.9999],
                            quad_points=8192, tol=1e-8)
    assert abs(rep2.integrals[1] - rep2.integrals[0]) < 1e-3

    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 8. hard/soft edge discrimination


def test_criterion_8_erdos_discrimination():
    horizon = 10 ** 6
    hard = nb.make_sequence(nb.erdos("hard"))
    cert = nb.find_gap_certificate(hard, 5, horizon, eps=0.01, delta=0.5)
    assert cert is not None and cert.kind == "GapZeroFlank"
    # oracle: spikes at j!+j+1 whose preceding block has length >= 5
    oracle = tuple(math.factorial(j) + j + 1 for j in range(4, 10)
                   if math.factorial(j) + j + 1 <= horizon)
    assert cert.witnesses == oracle == (29, 126, 727, 5048, 40329, 362890)
    assert cert.verify(hard)

    soft = nb.make_sequence(nb.erdos("soft"))
    assert nb.find_gap_certificate(soft, 5, horizon, eps=0.01,
                                   delta=0.5) is None

    res = nb.extract_right_limits(soft, 3, horizon, eps=0.1, max_candidates=0)
    assert res.candidates
    for cand in res.candidates:
        arr = cand.window.as_array()
        # near-constant: within 2*eps of the center value (float cushion)
        assert float(np.max(np.abs(arr - arr[3]))) <= 0.2 + 1e-9


# ---------------------------------------------------------------------------
# 9. Monte Carlo certificate rate


def test_criterion_9_monte_carlo():
    spec = nb.iid_process([0, 1], [0.5, 0.5], seed=42)
    rep = nb.certificate_rate_experiment(spec, trials=20, width=3,
                                         horizon=10_000, eps=0.0, delta=1.0)
    assert rep.found_count == 20

    within = sum(1 for t in rep.results
                 if abs(t.variance - 0.25) <= 3 * t.variance_se)
    assert within >= 19

    sep = rep.separation
    assert sep.separation == 1.0
    assert sep.separation >= math.sqrt(1.0 / 8.0)
    assert sep.prob_z >= 1.0 / sep.cover_size

    for t in rep.results:
        path = nb.sample_process(spec, 10_001, trial=t.trial)
        for n, m in t.pairs:
            assert nb.verify_pair(path, n, m, 3, 0.0, 1.0, t.flank_side)


# ---------------------------------------------------------------------------
# 10. decay rule


def test_criterion_10_decay_rule():
    w1 = nb.TwoSidedWindow((1.0, 0.0, 0.0), 1, {"kind": "case"})
    r1 = decay_rule_check(w1, "positive", 1.0, 1.0, 0.5)
    assert (r1.outcome, r1.witness) == ("not-reflectionless", -1)

    w2 = nb.TwoSidedWindow((0.0,) * 7, 3, {"kind": "case"})
    r2 = decay_rule_check(w2, "positive", 1.0, 1.0, 0.5)
    assert (r2.outcome, r2.witness) == ("consistent-with-zero", None)

    vals = (0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 0.125)
    w3 = nb.TwoSidedWindow(vals, 3, {"kind": "case"})
    r3 = decay_rule_check(w3, "positive", 1.0, math.log(2), 0.5)
    assert (r3.outcome, r3.witness) == ("not-reflectionless", 0)
