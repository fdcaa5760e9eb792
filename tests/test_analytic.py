"""Certified evaluation, shift identity, two-sided sums, probe, checks."""

import cmath
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import nbscope as nb
from nbscope.analytic import (
    AnalyticError,
    ArcSpec,
    NumericCapError,
    boundary_l1_scan,
    decay_rule_check,
    eval_two_sided,
    periodic_reflectionless_check,
    truncation_length,
)


# ---------------------------------------------------------------------------
# truncation length


def test_truncation_length_examples():
    assert truncation_length(1.0, 0.5, 1e-10) == 35
    assert truncation_length(1.0, 0.9, 1e-8) == 197
    assert truncation_length(1.0, 0.5, 3.0) == 0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_truncation_length_rejects_invalid_tolerance(tol):
    with pytest.raises(AnalyticError):
        truncation_length(1.0, 0.5, tol)
    seq = nb.make_sequence(nb.periodic([1]))
    with pytest.raises(AnalyticError):
        nb.eval_f(seq, 0.5, tol=tol)
    with pytest.raises(AnalyticError):
        boundary_l1_scan(seq, ArcSpec.full_circle(), [0.5], quad_points=64, tol=tol)


@settings(max_examples=150, deadline=None)
@given(st.floats(0.1, 5.0), st.floats(0.05, 0.99), st.floats(1e-12, 1e-2))
def test_truncation_length_minimality(bound, r, tol):
    n = truncation_length(bound, r, tol)
    assert bound * r ** n / (1 - r) <= tol
    if n > 0:
        assert bound * r ** (n - 1) / (1 - r) > tol


def _power_bound(r, n, up, bits=256):
    """A Fraction at least (up) or at most r**n, by squaring with each
    product rounded outward to ``bits`` bits; exact for powers of 2."""
    num, den = r.as_integer_ratio()             # den is a power of 2
    base, res = (num, 1 - den.bit_length()), (1, 0)

    def mul(a, b):
        m, e = a[0] * b[0], a[1] + b[1]
        extra = max(0, m.bit_length() - bits)
        q = m >> extra
        return (q + (up and q << extra != m), e + extra)

    while n:
        if n & 1:
            res = mul(res, base)
        n >>= 1
        base = mul(base, base) if n else base
    return Fraction(res[0]) * Fraction(2) ** res[1]


def old_truncation_rule(bound, r, tol, offset):
    """(N, tail bound) of _truncation for an infinite sequence, as computed
    before tails below the normal floats were handled, verbatim."""
    if bound <= 0.0 or tol >= bound / (1.0 - r):
        n = 0
    else:
        n = max(0, math.ceil(math.log(tol * (1.0 - r) / bound) / math.log(r)))
        while bound * r ** n / (1.0 - r) > tol:
            n += 1
        while n > 0 and bound * r ** (n - 1) / (1.0 - r) <= tol:
            n -= 1
    return n, bound * r ** (n + offset) / (1.0 - r)


def test_truncation_tail_bounds_the_exact_tail_down_to_subnormal_tolerances():
    from nbscope.analytic import _truncation

    tiny = sys.float_info.min
    for bound in [10.0 ** e for e in range(0, 301, 10)]:
        for r in (0.5, 0.9, 0.999):
            for tol in [10.0 ** -e for e in range(6, 307, 10)] + [1e-300, 1e-308, 1e-310]:
                for offset in (0, 1):
                    n, tail = _truncation(_Sized(bound, None), r, tol, offset=offset)
                    case = (bound, r, tol, offset, n, tail)
                    assert 0.0 < tail <= tol, case
                    # exact rationals: scale * r**k is the tail after k terms
                    scale = Fraction(bound) / (1 - Fraction(r))
                    exact_up = scale * _power_bound(r, n + offset, up=True)
                    try:
                        old_n, old_tail = old_truncation_rule(bound, r, tol, offset)
                    except ValueError:      # log(0): tol * (1 - r) / bound underflowed
                        old_n = None
                    if old_n is not None and min(r ** (old_n + offset),
                                                 bound * r ** (old_n + offset)) >= tiny:
                        # the old rule's bits; its three float roundings can
                        # leave the tail up to 2 ulps under the exact one
                        assert (n, tail) == (old_n, old_tail), case
                        assert Fraction(tail) * (1 + Fraction(1, 2 ** 50)) >= exact_up, case
                    else:
                        assert Fraction(tail) >= exact_up, case
                    # and N is at most one term past the least
                    if n >= 2:
                        assert scale * _power_bound(r, n - 2, up=False) > tol, case


# ---------------------------------------------------------------------------
# eval_f


def test_eval_geometric():
    seq = nb.make_sequence(nb.periodic([1]))
    res = nb.eval_f(seq, 0.5, tol=1e-10)
    assert abs(res.value - 2.0) <= res.abs_error_bound + 1e-12


def test_eval_gap_factorials_value():
    # oracle: high-precision sparse sum of 0.5^(k!)
    with mpmath.workdps(40):
        oracle = sum(mpmath.mpf(0.5) ** math.factorial(k) for k in range(1, 8))
    seq = nb.make_sequence(nb.gap_powers("factorials", 1))
    res = nb.eval_f(seq, 0.5, tol=1e-10)
    assert abs(res.value - float(oracle)) <= res.abs_error_bound
    assert res.value.real == pytest.approx(0.7656250596, abs=1e-9)


def test_eval_at_zero_and_domain():
    rs = nb.make_sequence(nb.rudin_shapiro())
    assert nb.eval_f(rs, 0.0).value == 1.0
    with pytest.raises(AnalyticError):
        nb.eval_f(rs, 1.0)
    with pytest.raises(NumericCapError) as exc:
        nb.eval_f(rs, 1 - 2e-9, tol=1e-300)
    assert exc.value.required > nb.analytic.TERM_CAP


def test_tail_bound_validity_against_extended_precision():
    # 200 random (sequence, z, N): the true tail (4N extra terms at 40
    # digits) never exceeds the geometric bound
    rng = np.random.default_rng(12)
    with mpmath.workdps(40):
        for _ in range(200):
            length = 160
            vals = rng.uniform(-1, 1, size=length) + 1j * rng.uniform(-1, 1, size=length)
            bound = float(np.max(np.abs(vals)))
            n0 = int(rng.integers(5, 32))
            r = float(rng.uniform(0.2, 0.8))
            phi = float(rng.uniform(0, 2 * math.pi))
            z = mpmath.mpf(r) * mpmath.exp(1j * phi)
            tail = mpmath.fsum(
                mpmath.mpc(vals[n]) * z ** n for n in range(n0, min(5 * n0, length)))
            assert abs(tail) <= bound * r ** n0 / (1 - r) + 1e-30


# ---------------------------------------------------------------------------
# one truncation rule for every evaluator

# the three rules it replaces, as they were: eval_f's body, eval_shift_pair
# and the scan's per-radius rule (None: the radius is skipped)

def old_series_rule(bound, length, r, tol, offset):
    n_terms = truncation_length(bound, r, tol)
    if n_terms > nb.analytic.TERM_CAP:
        raise NumericCapError(n_terms)
    if length is not None and n_terms >= length:
        return length, 0.0
    return n_terms, bound * r ** (n_terms + offset) / (1.0 - r)


def old_shift_rule(bound, length, r, tol, shift):
    m_terms = truncation_length(bound, r, tol)
    if shift + m_terms > nb.analytic.TERM_CAP:
        raise NumericCapError(shift + m_terms)
    if length is not None and shift + m_terms > length:
        if shift > length:
            raise nb.SequenceError("shift beyond explicit sequence length")
        m_terms = length - shift
    if length is not None and shift + m_terms >= length:
        return m_terms, 0.0
    return m_terms, bound * r ** m_terms / (1.0 - r)


def old_scan_rule(bound, length, r, tol):
    n_terms = truncation_length(bound, r, tol)
    if n_terms > nb.analytic.TERM_CAP:
        return None
    if length is not None:
        n_terms = min(n_terms, length)
    return n_terms, 0.0 if n_terms == length else bound * r ** n_terms / (1.0 - r)


class _Sized:
    def __init__(self, bound, length):
        self.bound, self.length = bound, length


def _rule_bits(rule, *args):
    try:
        out = rule(*args)
    except (NumericCapError, nb.SequenceError) as e:
        return type(e).__name__
    return None if out is None else (out[0], out[1].hex())


def test_one_truncation_rule_matches_the_three_it_replaced():
    from nbscope.analytic import _truncation

    rng = np.random.default_rng(21)
    for _ in range(3000):
        bound = float(rng.choice([1.0, 0.5, 3.0, rng.uniform(0.01, 10)]))
        r = float(rng.choice([rng.uniform(0.01, 0.99), 1 - 10 ** -rng.uniform(1, 8.9)]))
        tol = float(10 ** -rng.uniform(0, 300))
        shift = int(rng.choice([0, 1, 7, 1000, 10 ** 8 - 5]))
        offset = int(rng.integers(0, 2))
        for length in (None, 3, 1000, int(rng.integers(1, 10 ** 6))):
            seq = _Sized(bound, length)
            olds = [(old_series_rule, (bound, length, r, tol, offset),
                     (seq, r, tol, 0, offset)),
                    (old_shift_rule, (bound, length, r, tol, shift),
                     (seq, r, tol, shift, 0)),
                    (old_scan_rule, (bound, length, r, tol), (seq, r, tol))]
            for old, old_args, new_args in olds:
                want = _rule_bits(old, *old_args)
                got = _rule_bits(_truncation, *new_args)
                if old is old_scan_rule and got == "NumericCapError":
                    got = None
                start = new_args[3] if len(new_args) > 3 else 0
                if length is None or want not in ("NumericCapError", None):
                    assert got == want, (old.__name__, bound, length, r, tol, shift)
                elif start > length:
                    assert got == "SequenceError"
                elif start + truncation_length(bound, r, tol) >= length:
                    # clamped before the cap: the exact finite sum
                    assert got == (length - start, "0x0.0p+0")
                else:
                    assert got == want


def test_finite_sequences_sum_exactly_where_the_cap_used_to_fire():
    # 3 terms give the exact sum at any tolerance; the truncation estimate
    # (705689298 terms at r = 0.999999) used to hit the cap first
    seq = nb.make_sequence(nb.explicit([1, 2, 3]))
    z = 1 - 2.0 ** -20          # dyadic: integer-coefficient sums are exact
    res = nb.eval_f(seq, z, tol=1e-300)
    assert (res.value, res.abs_error_bound, res.terms_used) == (1 + 2 * z + 3 * z * z, 0.0, 3)
    pair = nb.eval_shift_pair(seq, 1, z, tol=1e-300)
    assert (pair.fplus.value, pair.fplus.abs_error_bound, pair.fplus.terms_used) == \
        (2 + 3 * z, 0.0, 2)
    assert pair.fminus == 1 / z and pair.identity_residual <= pair.residual_allowance
    rep = boundary_l1_scan(seq, ArcSpec.full_circle(), [0.9, 0.999999],
                           quad_points=64, tol=1e-300)
    assert rep.skipped == [False, False] and rep.trunc_errors == [0.0, 0.0]
    assert not rep.notes
    theta = (np.arange(4096) + 0.5) * 2 * math.pi / 4096
    for r, integral in zip(rep.radii, rep.integrals):
        w = r * np.exp(1j * theta)
        assert integral == pytest.approx(float(np.mean(np.abs(1 + 2 * w + 3 * w * w))),
                                         rel=1e-9)
    with pytest.raises(nb.SequenceError, match="beyond explicit"):
        nb.eval_shift_pair(seq, 4, z, tol=1e-300)
    # an infinite sequence still needs its truncation, and still hits the cap
    one = nb.make_sequence(nb.periodic([1]))
    with pytest.raises(NumericCapError):
        nb.eval_f(one, z, tol=1e-300)
    with pytest.raises(NumericCapError):
        nb.eval_shift_pair(one, 1, z, tol=1e-300)
    assert boundary_l1_scan(one, ArcSpec.full_circle(), [0.999999], quad_points=64,
                            tol=1e-300).skipped == [True]


# ---------------------------------------------------------------------------
# shift identity


def test_shift_pair_geometric_example():
    seq = nb.make_sequence(nb.periodic([1]))
    res = nb.eval_shift_pair(seq, 3, 0.5, tol=1e-12)
    assert abs(res.fplus.value - 2.0) <= res.fplus.abs_error_bound + 1e-12
    assert res.fminus == 14.0
    assert res.identity_residual <= res.residual_allowance


def test_shift_zero_reduces_to_plain_eval():
    rs = nb.make_sequence(nb.rudin_shapiro())
    res = nb.eval_shift_pair(rs, 0, 0.4, tol=1e-12)
    assert res.fminus == 0.0
    plain = nb.eval_f(rs, 0.4, tol=1e-12)
    assert abs(res.fplus.value - plain.value) <= 1e-12


def test_shift_identity_extended_precision_oracle():
    rs = nb.make_sequence(nb.rudin_shapiro())
    res = nb.eval_shift_pair(rs, 8, 0.4j, tol=1e-12)
    assert res.identity_residual <= res.residual_allowance
    with mpmath.workdps(50):
        z = mpmath.mpc(0.4j)
        coeffs = rs.prefix(res.fplus.terms_used + 8)
        fplus = mpmath.fsum(mpmath.mpc(coeffs[8 + n]) * z ** n
                            for n in range(res.fplus.terms_used))
        assert abs(mpmath.mpc(res.fplus.value) - fplus) < 1e-13


def test_shift_identity_exact_for_integers_at_dyadic_points():
    rng = np.random.default_rng(3)
    for trial in range(10):
        vals = rng.integers(-3, 4, size=200)
        seq = nb.make_sequence(nb.explicit(vals))
        for shift in (0, 1, 5, 20):
            for z in (0.5, 0.25, -0.5):
                res = nb.eval_shift_pair(seq, shift, z)
                assert res.identity_residual == 0.0


def test_shift_rejects_zero():
    seq = nb.make_sequence(nb.periodic([1]))
    with pytest.raises(AnalyticError):
        nb.eval_shift_pair(seq, 3, 0.0)


# ---------------------------------------------------------------------------
# two-sided evaluation


def test_two_sided_constant():
    ext = nb.constant_extension(1.0)
    inside = eval_two_sided(ext, 0.5, tol=1e-12)
    assert abs(inside.value - 2.0) <= inside.abs_error_bound + 1e-12
    outside = eval_two_sided(ext, 2.0, tol=1e-12)
    assert abs(outside.value - 1.0) <= outside.abs_error_bound + 1e-12
    # the inside series continues to -1/(1-z); at z=2 that equals +1,
    # cancelling the outside sum
    assert abs(-1.0 / (1.0 - 2.0) - outside.value) <= outside.abs_error_bound + 1e-12


def test_two_sided_single_negative_entry():
    win = nb.TwoSidedWindow((1.0, 0.0, 0.0), 1, {"kind": "test"})
    res = eval_two_sided(win, 2.0)
    assert res.value == 0.5
    assert res.abs_error_bound == 0.0


def test_two_sided_rejects_unit_circle():
    ext = nb.constant_extension(1.0)
    with pytest.raises(AnalyticError):
        eval_two_sided(ext, cmath.exp(0.3j))


def test_outside_bound_holds():
    # |sum_{n<=-1} b_n z^n| <= A / (1 - 1/|z|) at random outside points
    rng = np.random.default_rng(4)
    pat = [1.0, -0.5, 0.25, 0.8]
    ext = nb.periodic_extension(pat)
    A = max(abs(v) for v in pat)
    for _ in range(100):
        r = float(rng.uniform(1.1, 3.0))
        phi = float(rng.uniform(0, 2 * math.pi))
        z = r * cmath.exp(1j * phi)
        res = eval_two_sided(ext, z, tol=1e-12)
        assert abs(res.value) <= A / (1 - 1 / r) + 1e-9


# the per-index two-sided path, as it was: one fn call and bound check per
# index, with the bound of the whole two-sided sequence

class LoopTwoSided:
    def __init__(self, fn, bound):
        self.fn, self.bound = fn, bound

    def eval(self, n: int) -> complex:
        v = complex(self.fn(n))
        if not abs(v) <= self.bound * (1 + 1e-12) + 1e-9:
            raise nb.VerificationError(
                f"|b_{n}| = {abs(v)} exceeds certified bound {self.bound}")
        return v


def loop_constant_extension(c):
    c = complex(c)
    return LoopTwoSided(lambda n: c, abs(c))


def loop_periodic_extension(pattern):
    pat = tuple(complex(v) for v in pattern)
    p = len(pat)
    bound = max(abs(v) for v in pat)
    return LoopTwoSided(lambda n: pat[n % p], bound)


def _sum_series(coeffs, z, start_exponent=0, chunk=1 << 16):
    """sum_i coeffs[i] * z^(start_exponent + i) as the library summed a
    whole coefficient array, verbatim."""
    from nbscope._util import ipow, kahan_complex_sum

    n = len(coeffs)
    if n == 0:
        return 0j
    partials = []
    power = ipow(z, start_exponent)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        steps = np.empty(hi - lo, dtype=complex)
        steps[0] = power
        if hi - lo > 1:
            steps[1:] = z
        pw = np.cumprod(steps)
        partials.append(complex(np.sum(coeffs[lo:hi] * pw)))
        power = complex(pw[-1]) * z
    return kahan_complex_sum(partials)


def loop_eval_two_sided(source, z, tol=1e-10):
    from nbscope.analytic import _INSIDE_MARGIN, TERM_CAP

    z = complex(z)
    r = abs(z)
    if isinstance(source, nb.TwoSidedWindow):
        W = source.radius
        if r < 1.0:
            vals = np.asarray([source.value(k) for k in range(0, W + 1)], dtype=complex)
            return nb.EvalResult(_sum_series(vals, z, 0), 0.0, W + 1)
        vals = np.asarray([source.value(-m) for m in range(1, W + 1)], dtype=complex)
        return nb.EvalResult(_sum_series(vals, 1.0 / z, 1), 0.0, W)
    if r < 1.0:
        if r > 1.0 - _INSIDE_MARGIN:
            raise AnalyticError("|z| too close to 1 from inside")
        n_terms = truncation_length(source.bound, r, tol)
        if n_terms > TERM_CAP:
            raise NumericCapError(n_terms)
        vals = np.asarray([source.eval(n) for n in range(n_terms)], dtype=complex)
        bound = source.bound * r ** n_terms / (1.0 - r)
        return nb.EvalResult(_sum_series(vals, z, 0), bound, n_terms)
    rinv = 1.0 / r
    if rinv > 1.0 - _INSIDE_MARGIN:
        raise AnalyticError("|z| too close to 1 from outside")
    n_terms = truncation_length(source.bound, rinv, tol)
    if n_terms > TERM_CAP:
        raise NumericCapError(n_terms)
    vals = np.asarray([source.eval(-m) for m in range(1, n_terms + 1)], dtype=complex)
    bound = source.bound * rinv ** (n_terms + 1) / (1.0 - rinv)
    return nb.EvalResult(_sum_series(vals, 1.0 / z, 1), bound, n_terms)


def _bits(res):
    return (res.value.real.hex(), res.value.imag.hex(), res.abs_error_bound.hex(),
            res.terms_used)


def _seeded_points(rng, count):
    """Points inside and outside the disk, from near 0 to near the circle."""
    radii = np.concatenate([rng.uniform(0.01, 0.999, count), rng.uniform(1.001, 5.0, count)])
    return (radii * np.exp(1j * rng.uniform(0, 2 * math.pi, 2 * count))).tolist()


def test_two_sided_sides_match_the_per_index_path_bit_for_bit():
    # complex values whose np.abs and Python abs agree, so that both paths
    # start from the same bound
    agreeing = [v for v in (np.random.default_rng(0).normal(size=(60, 2)) @ [1, 1j]).tolist()
                if float(np.abs(np.complex128(v))) == abs(v)]
    rng = np.random.default_rng(8)
    cases = [(nb.constant_extension(c), loop_constant_extension(c))
             for c in (1.0, -0.75, 0.0, 1j, agreeing[0])]
    for p in range(1, 8):
        for pat in (rng.integers(-2, 3, p).astype(float).tolist(),
                    rng.normal(size=p).tolist(), agreeing[p:2 * p]):
            cases.append((nb.periodic_extension(pat), loop_periodic_extension(pat)))
    for ext, loop in cases:
        for z in _seeded_points(rng, 6):
            for tol in (1e-6, 1e-10, 1e-12):
                assert _bits(eval_two_sided(ext, z, tol)) == \
                    _bits(loop_eval_two_sided(loop, z, tol)), (ext.description, z, tol)
    for W in range(4):
        win = nb.TwoSidedWindow(tuple(rng.normal(size=2 * W + 1) + 0j), W, {"kind": "test"})
        for z in _seeded_points(rng, 6):
            assert _bits(eval_two_sided(win, z)) == _bits(loop_eval_two_sided(win, z))


def test_two_sided_sequence_at_zero_returns_b0():
    ext = nb.periodic_extension([2.0, -1.0, 0.5])
    res = eval_two_sided(ext, 0.0)
    assert (res.value, res.abs_error_bound, res.terms_used) == (2.0, 0.0, 1)
    with pytest.raises(AnalyticError):   # the per-index path refused z = 0
        loop_eval_two_sided(loop_periodic_extension([2.0, -1.0, 0.5]), 0.0)


@pytest.mark.parametrize("W", [0, 1, 2, 5])
def test_window_extension_sums_are_exact_when_the_truncation_covers_the_window(W):
    rng = np.random.default_rng(W)
    win = nb.TwoSidedWindow(tuple(rng.normal(size=2 * W + 1) + 0j), W, {"kind": "test"})
    ext = nb.window_extension(win)
    for z in (0.5, -0.3 + 0.4j, 2.0, 3.0 - 1.0j):
        assert _bits(eval_two_sided(ext, z)) == _bits(eval_two_sided(win, z))
    # a truncation that stops inside the window keeps the side's tail bound
    inside = np.asarray(win.values[W:])
    res = eval_two_sided(ext, 0.2, tol=0.5)
    assert res.terms_used < W + 1
    side_bound = float(np.max(np.abs(inside)))
    assert res.abs_error_bound == side_bound * 0.2 ** res.terms_used / 0.8
    exact = sum(v * 0.2 ** k for k, v in enumerate(inside))
    assert abs(res.value - exact) <= res.abs_error_bound


# ---------------------------------------------------------------------------
# boundary probe


def test_probe_consistency_and_monotone_growth():
    seq = nb.make_sequence(nb.periodic([1]))
    arc = ArcSpec.full_circle()
    radii = [0.9, 0.99, 0.999]
    rep = boundary_l1_scan(seq, arc, radii, quad_points=4096, tol=1e-8)
    assert all(b > a for a, b in zip(rep.integrals, rep.integrals[1:]))
    # doubling the node count moves each integral by less than its bound
    rep2 = boundary_l1_scan(seq, arc, radii, quad_points=8192, tol=1e-8)
    for i in range(len(radii)):
        assert abs(rep2.integrals[i] - rep.integrals[i]) <= rep.quad_errors[i]


def test_probe_matches_adaptive_oracle_away_from_pole():
    seq = nb.make_sequence(nb.periodic([1]))
    arc = ArcSpec(math.pi / 2, 3 * math.pi / 2)
    rep = boundary_l1_scan(seq, arc, [0.99], quad_points=2048, tol=1e-9)
    oracle, _ = quad(lambda t: 1.0 / abs(1 - 0.99 * cmath.exp(1j * t)),
                     math.pi / 2, 3 * math.pi / 2, limit=200)
    oracle /= 2 * math.pi
    assert abs(rep.integrals[0] - oracle) <= rep.quad_errors[0] + rep.trunc_errors[0]


def test_probe_rejects_bad_radii():
    seq = nb.make_sequence(nb.periodic([1]))
    with pytest.raises(AnalyticError):
        boundary_l1_scan(seq, ArcSpec.full_circle(), [0.99, 0.9])
    with pytest.raises(AnalyticError):
        boundary_l1_scan(seq, ArcSpec.full_circle(), [0.5], quad_points=32)


def _sparse_nodes_oracle(exps, fill, r, arc, m):
    """sum_e fill * (r e^{i theta_j})^e in long double, each phase e * theta_j
    reduced mod 2*pi exactly in integers (2*pi to 200 bits) and rounded to
    2^-61 rad."""
    S = 200
    with mpmath.workdps(80):
        two_pi = int(mpmath.floor(2 * mpmath.pi * mpmath.mpf(2) ** S))
    theta = arc.alpha + (np.arange(m) + 0.5) * (arc.width / m)
    radial = np.exp(np.asarray(exps, dtype=np.longdouble) * np.log(np.longdouble(r)))
    out = np.zeros(m, dtype=np.clongdouble)
    for j, th in enumerate(theta.tolist()):
        num, den = th.as_integer_ratio()
        shift = S - (den.bit_length() - 1)
        ang = np.array([((int(e) * num << shift) % two_pi) >> (S - 61) for e in exps],
                       dtype=np.uint64).astype(np.longdouble) * np.longdouble(2.0) ** -61
        out[j] = np.sum(radial * (np.cos(ang) + 1j * np.sin(ang)))
    return out * fill


def test_sparse_nodes_reduce_each_phase_exactly():
    # squares at r = 0.99999 need 2.5 million terms, past the sparse cutoff;
    # a phase formed as one float product e * theta missed the long-double
    # sum by about 3e-13 * mass here
    from nbscope import analytic

    seq = nb.make_sequence(nb.gap_powers("squares"))
    r, arc = 0.99999, ArcSpec(0.3, 1.7)
    n_terms, _ = analytic._truncation(seq, r, 1e-6)
    assert n_terms > analytic._SPARSE_NODE_CUTOFF
    exps, fill = analytic._gap_support(seq, n_terms)
    mass = float(np.sum(np.exp(exps * math.log(r))))
    got = analytic._nodes_eval_sparse(exps, fill, r, arc, 64)
    want = _sparse_nodes_oracle(exps, fill, r, arc, 64)
    assert float(np.abs(got.astype(np.clongdouble) - want).max()) <= 3e-16 * mass


def _turns_removed(x):
    """x minus the nearest whole multiple of 2*pi, from 300-bit arithmetic."""
    with mpmath.workprec(300):
        return float(mpmath.mpf(x) - 2 * mpmath.pi * mpmath.nint(mpmath.mpf(x) / (2 * mpmath.pi)))


def test_reduce_angle_is_exact_and_the_identity_on_minus_pi_to_pi():
    from nbscope import analytic

    with mpmath.workprec(300):
        assert analytic._TWO_PI == mpmath.floor(2 * mpmath.pi * mpmath.mpf(2) ** 253) / 2 ** 253
    inside = [math.pi, -math.pi, 0.0, -0.0, 1e-300, 3.0, -2.5]
    for x in inside:
        y = analytic._reduce_angle(x)
        assert y == x and math.copysign(1, y) == math.copysign(1, x)
    rng = np.random.default_rng(5)
    for x in np.concatenate([rng.uniform(-1e3, 1e3, 200), rng.uniform(-2.0 ** 55, 2.0 ** 55, 200),
                             [np.nextafter(math.pi, 4), 2 * math.pi, 2000.0, 2.0 ** 54]]).tolist():
        assert analytic._reduce_angle(x) == _turns_removed(x)


@pytest.mark.parametrize("alpha", [2.0 ** 40, -2.0 ** 50])
@pytest.mark.parametrize("spec, r", [(nb.gap_powers("squares"), 0.999999),   # sparse nodes
                                     (nb.rudin_shapiro(), 0.99),            # one block
                                     (nb.rudin_shapiro(), 0.9999)])         # many blocks
def test_scan_of_an_arc_moved_by_whole_turns_agrees(spec, r, alpha):
    # node phases were formed from the unreduced alpha: on these arcs the
    # scans missed the same arc near 0 by more than their quadrature error
    seq = nb.make_sequence(spec)
    near = _turns_removed(alpha)
    base = boundary_l1_scan(seq, ArcSpec(near, near + 1.0), [r], quad_points=1024)
    moved = boundary_l1_scan(seq, ArcSpec(alpha, alpha + 1.0), [r], quad_points=1024)
    assert abs(moved.integrals[0] - base.integrals[0]) <= base.quad_errors[0]


@pytest.mark.parametrize("spec", [nb.periodic([1]), nb.gap_powers("factorials")])
def test_probe_rejects_node_counts_over_the_cap_before_allocating(spec, monkeypatch):
    from nbscope import analytic

    def never(*args):
        raise AssertionError("the transform ran")

    monkeypatch.setattr(analytic, "_blocked_czt", never)
    monkeypatch.setattr(analytic, "_nodes_eval_sparse", never)
    seq = nb.make_sequence(spec)
    for points in (analytic.TERM_CAP // 4 + 1, 10 ** 11):
        with pytest.raises(NumericCapError, match="cap") as info:
            boundary_l1_scan(seq, ArcSpec.full_circle(), [0.5, 0.999999],
                             quad_points=points)
        assert info.value.required == 4 * points


def test_probe_with_zero_terms_reports_tail_only():
    # tol >= bound/(1-r) needs no series terms at all
    seq = nb.make_sequence(nb.periodic([1]))
    arc = ArcSpec.full_circle()
    rep = boundary_l1_scan(seq, arc, [0.9, 0.99], quad_points=64, tol=100.0)
    assert rep.integrals == [0.0, 0.0]
    assert rep.skipped == [False, False]
    for r, t in zip(rep.radii, rep.trunc_errors):
        assert t == pytest.approx(seq.bound / (1 - r) * arc.width / (2 * math.pi))


def test_probe_csv_format(tmp_path):
    seq = nb.make_sequence(nb.periodic([1]))
    rep = boundary_l1_scan(seq, ArcSpec.full_circle(), [0.5, 0.9],
                           quad_points=256, tol=1e-8)
    out = tmp_path / "probe.csv"
    rep.write_csv(str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,integral,quad_err,trunc_err"
    assert len(lines) == 3
    d = rep.to_json_dict()
    assert "growth_fit" in d and d["growth_fit"]["slope"] is not None


# ---------------------------------------------------------------------------
# arc spec


def test_arcspec_validation_and_membership():
    with pytest.raises(AnalyticError):
        ArcSpec(1.0, 1.0)
    with pytest.raises(AnalyticError):
        ArcSpec(0.0, 7.0)
    arc = ArcSpec(-0.5, 0.5)
    assert arc.contains_angle(0.0)
    assert arc.contains_angle(2 * math.pi)  # wraps to 0
    assert not arc.contains_angle(math.pi)
    assert ArcSpec.full_circle().contains_angle(1.234)


# ---------------------------------------------------------------------------
# periodic reflectionless check


def test_reflectionless_constant_pattern():
    res = periodic_reflectionless_check([1], ArcSpec(0.1, 2 * math.pi - 0.1))
    assert res.passed
    assert res.max_confirmation_defect <= 1e-10


def test_reflectionless_pole_survives():
    res = periodic_reflectionless_check([1, 0], ArcSpec(-0.5, 0.5))
    assert not res.passed
    assert "0/1" in res.reason


def test_reflectionless_cancellation():
    res = periodic_reflectionless_check([1, -1], ArcSpec(-0.5, 0.5))
    assert res.passed
    form = res.form
    assert [c.real for c in form.denominator] == [1.0, 1.0]  # 1 + z
    assert {(p.num, p.den) for p in form.poles} == {(1, 2)}


def _pole_oracle(pattern, arc):
    """Direct root-of-unity enumeration: evaluate the one-period polynomial
    at every p-th root; a root with nonzero value is a surviving pole."""
    p = len(pattern)
    scale = max(1.0, sum(abs(c) for c in pattern))
    for k in range(p):
        w = cmath.exp(2j * math.pi * k / p)
        val = sum(c * w ** j for j, c in enumerate(pattern))
        if abs(val) > 1e-9 * scale and arc.contains_angle(2 * math.pi * k / p):
            return False
    return True


def test_reflectionless_small_pattern_spotchecks():
    arc = ArcSpec(0.1, 2 * math.pi - 0.1)
    for pattern in ([1], [0], [1, -1], [1, 0], [1, 1, 0], [1, -1, 1, -1]):
        res = periodic_reflectionless_check(pattern, arc, samples=20)
        assert res.passed == _pole_oracle(pattern, arc), pattern


# ---------------------------------------------------------------------------
# decay rule


def test_decay_rule_examples():
    w1 = nb.TwoSidedWindow((1.0, 0.0, 0.0), 1, {"kind": "test"})
    assert decay_rule_check(w1, "positive", 1.0, 1.0, 0.5) == \
        nb.analytic.DecayRuleResult("not-reflectionless", -1)

    w2 = nb.TwoSidedWindow((0.0,) * 7, 3, {"kind": "test"})
    assert decay_rule_check(w2, "positive", 1.0, 1.0, 0.5) == \
        nb.analytic.DecayRuleResult("consistent-with-zero", None)

    vals = (0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 0.125)
    w3 = nb.TwoSidedWindow(vals, 3, {"kind": "test"})
    assert decay_rule_check(w3, "positive", 1.0, math.log(2), 0.5) == \
        nb.analytic.DecayRuleResult("not-reflectionless", 0)


def test_decay_rule_rejects_violated_hypothesis():
    vals = (0.0, 0.0, 0.0, 0.0, 0.9, 0.9, 0.9)
    win = nb.TwoSidedWindow(vals, 3, {"kind": "test"})
    with pytest.raises(AnalyticError) as exc:
        decay_rule_check(win, "positive", 0.5, 1.0, 0.5)
    assert "offsets" in str(exc.value)


@pytest.mark.parametrize("c, d, delta, named", [
    (math.nan, 1.0, 0.5, "decay constant c"), (math.inf, 1.0, 0.5, "decay constant c"),
    (0.0, 1.0, 0.5, "decay constant c"), (1.0, math.nan, 0.5, "decay constant d"),
    (1.0, -math.inf, 0.5, "decay constant d"), (1.0, -1.0, 0.5, "decay constant d"),
    (1.0, 1.0, math.nan, "delta"), (1.0, 1.0, math.inf, "delta"), (1.0, 1.0, 0.0, "delta"),
])
def test_decay_rule_rejects_constants_that_are_not_finite_and_positive(c, d, delta, named):
    # nan passed `c <= 0`, and nan c or d then failed every decay check
    # while a nan delta matched no value
    win = nb.TwoSidedWindow((1.0, 0.0, 0.0), 1, {"kind": "test"})
    with pytest.raises(AnalyticError, match=f"{named} must be finite and > 0, got "):
        decay_rule_check(win, "positive", c, d, delta)


def test_shift_rejects_underflowing_power():
    seq = nb.make_sequence(nb.rudin_shapiro())
    with pytest.raises(AnalyticError):
        nb.eval_shift_pair(seq, 20_000, 0.3)
