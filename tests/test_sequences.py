"""Generator families, range reads, windows, snapping, the rotation screen
and CSV round trips."""

import cmath
import csv
import io
import math
import pathlib
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nbscope as nb
from nbscope import sequences as seqmod
from nbscope._util import fmt17
from nbscope.randomseries import _draw
from nbscope.sequences import SequenceError, _check_finite
from references import (count_gathers, rs_value, scalar_erdos, scalar_explicit,
                        scalar_gap_powers, scalar_periodic, scalar_rotation, scalar_snapped)


# --- independent oracle: the paired polynomial recursion -------------------

def rs_polynomials(level):
    """Coefficient arrays of the paired polynomials at the given level,
    built directly from the recursion P -> P + z^(2^n) Q, Q -> P - z^(2^n) Q."""
    P, Q = [1], [1]
    for _ in range(level):
        P, Q = P + Q, P + [-c for c in Q]
    return P, Q


def test_periodic_constant():
    seq = nb.make_sequence(nb.periodic([1]))
    assert [seq.eval(n) for n in range(4)] == [1, 1, 1, 1]
    assert seq.bound == 1.0


def test_gap_factorials_membership():
    seq = nb.make_sequence(nb.gap_powers("factorials", 1))
    assert seq.eval(3) == 0
    assert seq.eval(6) == 1
    assert seq.eval(24) == 1
    assert seq.eval(25) == 0


def test_rudin_shapiro_first_eight_matches_recursion():
    P3, _ = rs_polynomials(3)
    seq = nb.make_sequence(nb.rudin_shapiro())
    assert [int(v.real) for v in seq.prefix(8)] == P3
    assert P3 == [1, 1, 1, -1, 1, 1, -1, 1]


def test_rudin_shapiro_block_concatenation_law():
    # blocks of length 2^j: level j+2 coefficients read P_j, Q_j, P_j, -Q_j
    seq = nb.make_sequence(nb.rudin_shapiro())
    for j in range(0, 11):
        P, Q = rs_polynomials(j)
        stream = [int(v.real) for v in seq.prefix(2 ** (j + 2))]
        L = 2 ** j
        assert stream[0:L] == P
        assert stream[L:2 * L] == Q
        assert stream[2 * L:3 * L] == P
        assert stream[3 * L:4 * L] == [-c for c in Q]


def test_rotation_fractional_part_values():
    seq = nb.make_sequence(nb.rotation(math.sqrt(2), 0.0))
    assert seq.eval(1).real == pytest.approx(0.4142135624, abs=1e-9)
    assert seq.eval(2).real == pytest.approx(0.8284271247, abs=1e-9)
    assert seq.eval(3).real == pytest.approx(0.2426406871, abs=1e-9)


def test_rotation_shift_identity():
    # shifting the phase by q and the index by -1 reproduces the values
    q = math.sqrt(2) - 1
    a = nb.make_sequence(nb.rotation(q, 0.3))
    b = nb.make_sequence(nb.rotation(q, 0.3 - q))
    for n in range(1, 400):
        assert abs(a.eval(n) - b.eval(n + 1)) < 1e-12


def test_rotation_rejects_rational():
    with pytest.raises(SequenceError):
        nb.make_sequence(nb.rotation(0.5))
    with pytest.raises(SequenceError):
        nb.make_sequence(nb.rotation(float(Fraction(355, 113))))
    # sqrt(3) lies within 9.1e-13 of a fraction with denominator 978122,
    # thousands of ulps away: an irrational, so it is accepted
    nb.make_sequence(nb.rotation(math.sqrt(3)))


def test_rotation_high_index_precision():
    # the exact-integer path must agree with Fraction arithmetic at large n
    q = math.sqrt(2) - 1
    seq = nb.make_sequence(nb.rotation(q, 0.0))
    fq = Fraction(q)
    for n in (10 ** 6, 10 ** 7, 9999991):
        expected = float(Fraction(n) * fq % 1)
        assert abs(seq.eval(n).real - expected) < 1e-15


def test_erdos_vanishes_on_blocks():
    for edge in ("hard", "soft"):
        seq = nb.make_sequence(nb.erdos(edge))
        for j in (2, 3, 4, 5, 6):
            f = math.factorial(j)
            for n in range(f, f + j + 1):
                assert seq.eval(n) == 0
    hard = nb.make_sequence(nb.erdos("hard"))
    for j in (2, 3, 4, 5, 6, 7):
        assert hard.eval(math.factorial(j) + j + 1) == 1


def test_erdos_soft_ramp_is_slow():
    seq = nb.make_sequence(nb.erdos("soft"))
    vals = seq.prefix(50_000).real
    steps = np.abs(np.diff(vals))
    # slope never exceeds the first (shortest) gap's rise
    assert steps.max() <= 0.5
    # in the gap after 7! the rise is 1/(isqrt(gap)+1)
    lo = math.factorial(7) + 7 + 1
    gap = math.factorial(8) - lo
    assert vals[lo] == pytest.approx(1.0 / (math.isqrt(gap) + 1))


def test_erdos_block_prefix_matches_scalar():
    for edge in ("hard", "soft"):
        seq = nb.make_sequence(nb.erdos(edge))
        arr = seq.prefix(800)
        pointwise = np.array([scalar_erdos(edge)(n) for n in range(800)], dtype=complex)
        np.testing.assert_array_equal(arr, pointwise)


def test_invalid_specs_rejected():
    with pytest.raises(SequenceError):
        nb.make_sequence(nb.periodic([]))
    with pytest.raises(SequenceError):
        nb.make_sequence(nb.gap_powers([], 1))
    with pytest.raises(SequenceError):
        nb.make_sequence(nb.gap_powers([-3, 2], 1))
    with pytest.raises(SequenceError):
        nb.erdos("mushy")


@pytest.mark.parametrize("spec,expect_bound", [
    (nb.periodic([1, -2, 0.5]), 2.0),
    (nb.gap_powers("factorials", 0.25), 1.0),   # max(|fill|, 1)
    (nb.gap_powers("squares", -3), 3.0),
    (nb.rudin_shapiro(), 1.0),
    (nb.rotation(math.sqrt(5), 0.1), 1.0),
    (nb.erdos("hard"), 1.0),
    (nb.erdos("soft"), 1.0),
])
def test_declared_bounds(spec, expect_bound):
    assert nb.make_sequence(spec).bound == expect_bound


def test_boundedness_at_random_indices():
    rng = np.random.default_rng(0)
    seqs = [
        nb.make_sequence(nb.periodic([1, -2, 0.5])),
        nb.make_sequence(nb.gap_powers("factorials", 1)),
        nb.make_sequence(nb.gap_powers("squares", -2)),
        nb.make_sequence(nb.rudin_shapiro()),
        nb.make_sequence(nb.rotation(math.sqrt(2), 0.7)),
        nb.make_sequence(nb.erdos("hard")),
        nb.make_sequence(nb.erdos("soft")),
    ]
    idx = rng.integers(0, 100_000, size=10_000)
    for seq in seqs:
        for n in idx[:200]:
            assert abs(seq.eval(int(n))) <= seq.bound + 1e-9
        vals = seq.prefix(100_000)
        assert float(np.max(np.abs(vals))) <= seq.bound + 1e-9


def test_eval_deterministic():
    seq = nb.make_sequence(nb.rotation(math.sqrt(5), 0.2))
    first = [seq.eval(n) for n in range(50)]
    again = [seq.eval(n) for n in range(50)]
    assert first == again


def test_window_read_offs():
    seq = nb.make_sequence(nb.periodic([1, 0]))
    win = nb.window(seq, 4, 2)
    assert [int(v.real) for v in win.values] == [1, 0, 1, 0, 1]

    gap = nb.make_sequence(nb.gap_powers("factorials", 1))
    win = nb.window(gap, 24, 4)
    assert [int(v.real) for v in win.values] == [0, 0, 0, 0, 1, 0, 0, 0, 0]

    rs = nb.make_sequence(nb.rudin_shapiro())
    win = nb.window(rs, 4, 2)
    assert [int(v.real) for v in win.values] == [1, -1, 1, 1, -1]
    assert win.provenance == {"kind": "center", "n": 4}


def test_window_rejects_small_center():
    seq = nb.make_sequence(nb.periodic([1]))
    with pytest.raises(SequenceError):
        nb.window(seq, 1, 2)


def test_snap_nearest_point():
    seq = nb.make_sequence(nb.explicit([1 + 1 / (n + 1) for n in range(100)]))
    snapped = nb.snap_to_limit_points(seq, [0, 1], onset_tol=0.01,
                                      scan_horizon=99)
    assert all(v == 1 for v in snapped.prefix(100))


def test_snap_alternating_with_small_perturbation():
    vals = [(-1) ** n + 1e-3 / (n + 1) for n in range(100)]
    seq = nb.make_sequence(nb.explicit(vals))
    snapped = nb.snap_to_limit_points(seq, [-1, 1], onset_tol=1e-4,
                                      scan_horizon=99)
    assert [int(v.real) for v in snapped.prefix(6)] == [1, -1, 1, -1, 1, -1]
    assert snapped.params["onset_index"] == 0


def test_snap_identity_on_rudin_shapiro():
    rs = nb.make_sequence(nb.rudin_shapiro())
    snapped = nb.snap_to_limit_points(rs, [-1, 1], onset_tol=0.01,
                                      scan_horizon=512)
    np.testing.assert_array_equal(snapped.prefix(512), rs.prefix(512))


def test_snap_tie_flagging():
    seq = nb.make_sequence(nb.explicit([0.5, 0.0, 1.0]))
    snapped = nb.snap_to_limit_points(seq, [0, 1], onset_tol=0.01,
                                      scan_horizon=2)
    assert 0 in snapped.params["ties"]
    assert snapped.eval(0) == 0  # tie broken by enumeration order


def test_snap_requires_separated_points():
    seq = nb.make_sequence(nb.explicit([0.0, 1.0]))
    with pytest.raises(SequenceError):
        nb.snap_to_limit_points(seq, [0, 0.01], onset_tol=0.1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=8),
       st.integers(0, 500))
def test_periodic_matches_pattern(pattern, n):
    seq = nb.make_sequence(nb.periodic(pattern))
    assert seq.eval(n) == pattern[n % len(pattern)]


def test_csv_round_trip():
    seq = nb.make_sequence(nb.rotation(math.sqrt(2), 0.0))
    buf = io.StringIO()
    nb.write_sequence_csv(buf, seq, 64)
    buf.seek(0)
    back = nb.read_sequence_csv(buf)
    np.testing.assert_array_equal(back.prefix(64), seq.prefix(64))
    assert back.length == 64
    assert back.value_kind == "float"


def test_csv_round_trip_exact():
    seq = nb.make_sequence(nb.rudin_shapiro())
    buf = io.StringIO()
    nb.write_sequence_csv(buf, seq, 32)
    buf.seek(0)
    back = nb.read_sequence_csv(buf)
    assert back.value_kind == "exact-integer"
    np.testing.assert_array_equal(back.prefix(32), seq.prefix(32))


def test_csv_rejects_bad_input():
    with pytest.raises(SequenceError):
        nb.read_sequence_csv(io.StringIO("x,y,z\n0,1,0\n"))
    with pytest.raises(SequenceError):
        nb.read_sequence_csv(io.StringIO("n,re,im\n0,1,0\n2,1,0\n"))
    with pytest.raises(SequenceError):
        nb.read_sequence_csv(io.StringIO("n,re,im\n"))


def test_window_csv_round_trip():
    win = nb.TwoSidedWindow((0.5, 0.0, 1.0, 0.0, -0.5), 2, {"kind": "test"})
    buf = io.StringIO()
    nb.write_window_csv(buf, win)
    buf.seek(0)
    back = nb.read_window_csv(buf)
    assert back.values == win.values
    assert back.radius == 2


def test_explicit_length_clamp():
    seq = nb.make_sequence(nb.explicit([1, 2, 3]))
    assert seq.clamp_horizon(100) == 2
    with pytest.raises(SequenceError):
        seq.eval(3)


def test_stochastic_generator_spec():
    proc = nb.iid_process([0, 1], [0.5, 0.5], seed=11)
    spec = nb.GeneratorSpec("stochastic", {"process": proc, "length": 50})
    seq = nb.make_sequence(spec)
    assert seq.length == 50
    assert seq.value_kind == "exact-integer"
    assert float(np.max(np.abs(seq.prefix(50)))) <= 1.0


def test_signed_zeros_canonicalised():
    seq = nb.make_sequence(nb.explicit([-0.0, complex(1.0, -0.0), complex(-0.0, -0.0)]))
    arr = seq.prefix(3)
    assert not np.signbit(arr.real).any() and not np.signbit(arr.imag).any()
    fresh = nb.make_sequence(nb.explicit([complex(-0.0, -0.0)]))
    v = fresh.eval(0)
    assert math.copysign(1.0, v.real) == 1.0 and math.copysign(1.0, v.imag) == 1.0
    back = nb.read_sequence_csv(io.StringIO("n,re,im\n0,-0.0,-0.0\n1,1,0\n"))
    assert not np.signbit(back.prefix(2).view(float)).any()


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999", "abc"])
def test_csv_rejects_non_finite_and_malformed_values(text):
    for row in (f"1,{text},0", f"1,0,{text}"):
        with pytest.raises(SequenceError):
            nb.read_sequence_csv(io.StringIO(f"n,re,im\n0,1,0\n{row}\n"))
    with pytest.raises(SequenceError):
        nb.read_window_csv(io.StringIO(f"n,re,im\n-1,1,0\n0,{text},0\n1,1,0\n"))


# ---------------------------------------------------------------------------
# Gathers: every family has one value function of the index, at(idx),
# checked against the per-index definitions of references.py.


_BIG = ((2 ** 32 - 40, 2 ** 32 + 40), (2 ** 53 - 40, 2 ** 53 + 40), (2 ** 63 - 64, 2 ** 63))


def _around(points, before=3, after=4):
    return tuple((max(0, x - before), x + after) for x in points)


def _erdos_edges():
    """Block starts j!, block ends j!+j, and the two points of each gap
    where the ramp stops rising or starts falling."""
    out, g = [], 0
    for j in range(2, 21):
        f = math.factorial(j)
        rise = math.isqrt(f - g)
        out += [f, f + j, g + rise, f - rise - 1]
        g = f + j + 1
    return _around(out)


_SQRT2 = math.sqrt(2) % 1
_CUSTOM_EXPONENTS = [2 ** 70, 0, 3, 5, 2 ** 32, 2 ** 53 + 1, 2 ** 63 - 10, 2 ** 63, 2 ** 64]
_SNAP_SOURCE = (nb.periodic([0.5, 0.0, 1.0, 0.9, -0.2]), scalar_periodic([0.5, 0.0, 1.0, 0.9, -0.2]))

# name -> (sequence factory, scalar oracle, ranges straddling block edges)
FAMILIES = {
    "periodic-5": (lambda: nb.make_sequence(nb.periodic([1, -1, 1j, -0.0, 0.5 + 2j])),
                   scalar_periodic([1, -1, 1j, -0.0, 0.5 + 2j]),
                   _around([5, 10, 25, 5 * 10 ** 6]) + ((0, 23),) + _BIG),
    "periodic-1": (lambda: nb.make_sequence(nb.periodic([7])), scalar_periodic([7]),
                   ((0, 5),) + _BIG),
    "gap-factorials": (lambda: nb.make_sequence(nb.gap_powers("factorials", 1)),
                       scalar_gap_powers("factorials", 1),
                       _around([math.factorial(k) for k in range(1, 21)]) + _BIG),
    "gap-squares": (lambda: nb.make_sequence(nb.gap_powers("squares", 2 - 1j)),
                    scalar_gap_powers("squares", 2 - 1j),
                    _around([0, 1, 4, 9, 10_000, 2 ** 32]) + ((0, 50),)),
    # exponents of 2^63 or more are past every index
    "gap-custom": (lambda: nb.make_sequence(nb.gap_powers(_CUSTOM_EXPONENTS, 0.5j)),
                   scalar_gap_powers(_CUSTOM_EXPONENTS, 0.5j),
                   _around([0, 3, 5, 2 ** 32, 2 ** 53 + 1, 2 ** 63 - 10], 3, 3)
                   + ((0, 40),) + _BIG),
    "rudin-shapiro": (lambda: nb.make_sequence(nb.rudin_shapiro()), rs_value,
                      _around([2 ** k for k in range(1, 13)]) + ((0, 70),) + _BIG),
    "rotation-frac": (lambda: nb.make_sequence(nb.rotation(_SQRT2, 0.3)),
                      scalar_rotation(_SQRT2, 0.3, "fractional-part"), ((0, 200),) + _BIG),
    "rotation-half": (lambda: nb.make_sequence(
                          nb.rotation(math.sqrt(10) % 1, 0.05, "half-indicator")),
                      scalar_rotation(math.sqrt(10) % 1, 0.05, "half-indicator"),
                      ((0, 200),) + _BIG),
    "rotation-custom": (lambda: nb.make_sequence(
                            nb.rotation(math.sqrt(7) % 1, 0.6, (lambda x: math.sin(7 * x), 1.0))),
                        scalar_rotation(math.sqrt(7) % 1, 0.6, (lambda x: math.sin(7 * x), 1.0)),
                        ((0, 100),) + _BIG),
    "rotation-custom-complex": (
        lambda: nb.make_sequence(nb.rotation(
            _SQRT2, 0.1, (lambda x: complex(math.cos(6 * x), -math.sin(6 * x)), 1.0))),
        scalar_rotation(_SQRT2, 0.1, (lambda x: complex(math.cos(6 * x), -math.sin(6 * x)), 1.0)),
        ((0, 100),) + _BIG),
    "rotation-large-denominator": (
        lambda: nb.make_sequence(nb.rotation(math.sqrt(2) * 1e-7, 0.25)),
        scalar_rotation(math.sqrt(2) * 1e-7, 0.25, "fractional-part"),
        ((0, 100),) + _BIG),
    "erdos-hard": (lambda: nb.make_sequence(nb.erdos("hard")), scalar_erdos("hard"),
                   _erdos_edges() + ((0, 130),) + _BIG),
    "erdos-soft": (lambda: nb.make_sequence(nb.erdos("soft")), scalar_erdos("soft"),
                   _erdos_edges() + ((0, 130),) + _BIG),
    "explicit": (lambda: nb.make_sequence(nb.explicit([complex(n % 7, -(n % 3)) for n in range(50)])),
                 scalar_explicit([complex(n % 7, -(n % 3)) for n in range(50)]),
                 ((0, 50), (10, 20), (49, 50), (50, 50))),
    "snapped": (lambda: nb.snap_to_limit_points(nb.make_sequence(_SNAP_SOURCE[0]), [1.0, 0.0],
                                                onset_tol=0.01, scan_horizon=10),
                scalar_snapped(_SNAP_SOURCE[1], [1.0, 0.0], 10),
                _around([10, 11]) + ((0, 40),) + _BIG),
    "snapped-first-point-zero": (
        lambda: nb.snap_to_limit_points(nb.make_sequence(_SNAP_SOURCE[0]), [0.0, 1.0],
                                        onset_tol=0.01, scan_horizon=12),
        scalar_snapped(_SNAP_SOURCE[1], [0.0, 1.0], 12),
        _around([12, 13]) + ((0, 40),) + _BIG),
    "snapped-rotation": (
        lambda: nb.snap_to_limit_points(nb.make_sequence(nb.rotation(_SQRT2, 0.3)),
                                        [0.0, 0.5, 1.0], onset_tol=0.01, scan_horizon=1000),
        scalar_snapped(scalar_rotation(_SQRT2, 0.3, "fractional-part"), [0.0, 0.5, 1.0], 1000),
        _around([1000, 1001], 20, 20) + _BIG),
}


def _oracle_values(fn, lo, hi):
    return np.array([complex(fn(n)) for n in range(lo, hi)], dtype=complex)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_block_bit_identical_to_scalar_oracle(name):
    make, fn, ranges = FAMILIES[name]
    seq = make()
    for lo, hi in ranges:
        want = _oracle_values(fn, lo, hi)
        got = np.asarray(seq._family_at(np.arange(lo, hi, dtype=np.int64)), dtype=complex)
        assert got.tobytes() == want.tobytes(), (name, lo, hi)
        # the checked read is the block with signed zeros canonicalised,
        # which is what the scalar eval returned
        assert seq.read(lo, hi).tobytes() == (want + 0j).tobytes(), (name, lo, hi)
        for n in (lo, (lo + hi) // 2, hi - 1)[:hi - lo]:
            assert repr(make().eval(n)) == repr(complex(fn(n)) + 0j), (name, n)


def _csv_backed():
    buf = io.StringIO()
    nb.write_sequence_csv(buf, nb.make_sequence(nb.explicit(_CSV_VALUES)), len(_CSV_VALUES))
    buf.seek(0)
    return nb.read_sequence_csv(buf)


_CSV_VALUES = [complex(n % 5 - 2, 0.0) for n in range(300)]
_IID = nb.iid_process([0.25, -1, 2j], [0.5, 0.3, 0.2], seed=8)
_MARKOV = nb.markov_process([0, 1, 1j], [[0.5, 0.5, 0], [0.2, 0.3, 0.5], [1, 0, 0]], seed=4)
# the largest square below 2^63 and a few others, each with its neighbours
_SQUARE_POINTS = [k * k + d for k in [3037000499, 2 ** 31, 10 ** 9 + 7, 123_456_789]
                  for d in (-1, 0, 1)]


def _gather_cases():
    """name -> (sequence factory, scalar oracle, points to draw indices
    at): the families above at every index of their ranges, plus
    CSV-backed and stochastic sequences against their values."""
    cases = {name: (make, fn, sorted({n for lo, hi in ranges for n in range(lo, hi)}))
             for name, (make, fn, ranges) in FAMILIES.items()}
    cases["gap-squares"][2].extend(_SQUARE_POINTS)
    cases["csv"] = (_csv_backed, scalar_explicit(_CSV_VALUES), [0, 1, 3, 150, 296, 299])
    for name, spec in (("stochastic-iid", _IID), ("stochastic-markov", _MARKOV)):
        cases[name] = (partial(nb.sample_process, spec, 400),
                       scalar_explicit(_draw(spec, 400, None)[0]), [0, 3, 200, 396, 399])
    return cases


_GATHER_CASES = _gather_cases()


@pytest.mark.parametrize("name", sorted(_GATHER_CASES))
def test_gathers_bit_identical_to_scalar_oracle(name):
    # seeded index sets, 1-d and center x offset (single and paired
    # centers), drawn at the family's edges (block ends, support points,
    # 2^63) and over its whole index range, shuffled, with repeats
    make, fn, points = _GATHER_CASES[name]
    seq = make()
    end = seq.length or 2 ** 63
    rng = np.random.default_rng(sum(map(ord, name)))
    at = np.array(points, dtype=np.int64)
    inner = at[(at >= 3) & (at < end - 3)]
    offs = np.arange(-3, 4)

    def check(idx):
        got = seq._at(idx)
        assert got.shape == idx.shape
        assert got.dtype == (float if seq.real_valued else complex)
        want = np.array([complex(fn(n)) for n in idx.ravel().tolist()], dtype=complex) + 0j
        assert got.astype(complex).ravel().tobytes() == want.tobytes(), name

    for size in (0, 1, 7, 300):
        check(rng.permutation(np.concatenate((rng.choice(at, size),
                                              rng.integers(0, end, size)))))
        check(rng.choice(inner, size)[:, None] + offs)
        check(rng.choice(inner, (size, 2))[..., None] + offs)
    # gathers whose least or greatest index is one of the points
    for n in at[(at >= 2) & (at < end - 2)].tolist():
        check(n + np.arange(-2, 1))
        check(n + np.arange(3))


def test_gap_squares_far_reads_match_membership():
    # the squares support is a closed form, so reads near 2^62 cost no more
    # than reads near 0
    seq = nb.make_sequence(nb.gap_powers("squares", 1))
    for lo, hi in _BIG + ((2 ** 62 - 50, 2 ** 62 + 50),):
        want = [1.0 if math.isqrt(n) ** 2 == n else 0.0 for n in range(lo, hi)]
        assert seq.read(lo, hi).real.tolist() == want, (lo, hi)
    assert np.flatnonzero(seq.read(2 ** 62 - 50, 2 ** 62 + 50)).tolist() == [50]


def test_gap_factorials_end_at_20_factorial():
    seq = nb.make_sequence(nb.gap_powers("factorials", 1))
    f20 = math.factorial(20)
    assert np.flatnonzero(seq.read(f20 - 64, f20 + 64)).tolist() == [64]
    assert not seq.read(2 ** 63 - 64, 2 ** 63).any()
    exps, fill = seq.gap_support.between(0, 2 ** 63), seq.gap_support.fill
    assert exps == [math.factorial(k) for k in range(1, 21)] and fill == 1


def test_gap_powers_callable_exponents_rejected():
    with pytest.raises(SequenceError, match="malformed exponent set"):
        nb.make_sequence(nb.gap_powers(lambda: iter([1, 4, 9]), 1))


@pytest.mark.parametrize("exponents", ["cubes", "123", [2.5, 4], [1, math.nan],
                                       [1, math.inf], ["4"], [1j]])
def test_gap_powers_rejects_unknown_names_and_non_integral_exponents(exponents):
    # "cubes" escaped as a bare ValueError, and 2.5 put the fill at index 2
    with pytest.raises(SequenceError):
        nb.make_sequence(nb.gap_powers(exponents, 1))


def test_gap_powers_accepts_integral_values_of_any_type():
    seq = nb.make_sequence(nb.gap_powers([4.0, np.int64(1), Fraction(9, 1)], 1))
    assert np.flatnonzero(seq.prefix(12)).tolist() == [1, 4, 9]


def test_gap_powers_default_support_is_labelled_factorials():
    seq = nb.make_sequence(nb.GeneratorSpec("gap-powers", {}))
    assert seq.params["exponents"] == "factorials"
    assert np.flatnonzero(seq.prefix(30)).tolist() == [1, 2, 6, 24]


def test_writes_into_returned_arrays_change_no_later_read():
    # every read returns a fresh array, so a write into one stays there
    seq = nb.make_sequence(nb.rudin_shapiro())
    want = seq.eval(3)
    for arr in (seq.prefix(10), seq.read(2, 5), seq.prefix(40), seq.read(0, 40)):
        arr[1] = 7
    assert seq.eval(3) == want == -1
    assert seq.prefix(40).tolist() == nb.make_sequence(nb.rudin_shapiro()).read(0, 40).tolist()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_reads_past_the_index_domain_raise(name):
    seq = FAMILIES[name][0]()
    for n in (2 ** 63, 2 ** 64 + 5):
        with pytest.raises(SequenceError):
            seq.eval(n)
    with pytest.raises(SequenceError):
        seq.eval(-1)


def test_horizon_past_the_last_index_is_refused():
    # a forward scan would start reading from 0 and never reach it
    seq = nb.make_sequence(nb.rudin_shapiro())
    assert seq.clamp_horizon(2 ** 63 - 1) == 2 ** 63 - 1
    for h in (2 ** 63, 10 ** 20):
        with pytest.raises(SequenceError, match=f"horizon {h} beyond the last "
                                                f"index {2 ** 63 - 1}"):
            seq.clamp_horizon(h)
    assert nb.make_sequence(nb.explicit([1, 2])).clamp_horizon(10 ** 20) == 1


def _growth_cases():
    cases = {name: make for name, (make, _, _) in FAMILIES.items() if name != "explicit"}
    cases["explicit"] = lambda: nb.make_sequence(nb.explicit([n % 5 - 2.5j for n in range(30000)]))
    cases["stochastic"] = lambda: nb.sample_process(nb.markov_process(
        [0, 1, 1j], [[0.5, 0.5, 0], [0.2, 0.3, 0.5], [1, 0, 0]], seed=4), 30000)
    return cases


@pytest.mark.parametrize("name", sorted(_growth_cases()))
def test_prefix_grows_from_where_it_stopped(name, monkeypatch):
    # every prefix reads from 0 again, each chunk from where the last
    # stopped, and no read is served from an earlier one
    monkeypatch.setattr(seqmod, "_CHUNK", 4096)
    make = _growth_cases()[name]
    whole = make().read(0, 20000)
    seq = make()
    calls = count_gathers(seq)
    for count in (1, 8, 1008, 5107, 5107, 3, 0, 9000, 20000):
        calls.clear()
        assert seq.prefix(count).tobytes() == whole[:count].tobytes()
        assert calls == [range(lo, min(lo + 4096, count)) for lo in range(0, count, 4096)]
    calls.clear()
    assert seq.eval(4321) == whole[4321]
    assert calls == [range(4321, 4322)]


@pytest.mark.parametrize("spec", [nb.rudin_shapiro(), nb.rotation(math.sqrt(2) - 1)])
def test_prefix_fills_in_chunks_of_2_16_values(spec):
    seq = nb.make_sequence(spec)
    calls = count_gathers(seq)
    got = seq.prefix(200_000)
    assert calls == [range(0, 65536), range(65536, 131072), range(131072, 196608),
                     range(196608, 200000)]
    assert got.tobytes() == nb.make_sequence(spec).read(0, 200_000).tobytes()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_window_is_the_tuple_of_evals(name):
    make, _, ranges = FAMILIES[name]
    seq = make()
    for lo, hi in ranges:
        for W in (0, 1, 3):
            c = max((lo + hi) // 2, W)
            if c + W >= (seq.length or 2 ** 63):
                continue
            win = seq.window(c, W)
            fresh = make()
            evals = tuple(fresh.eval(c + k) for k in range(-W, W + 1))
            assert repr(win.values) == repr(evals), (name, c, W)
            assert win.provenance == {"kind": "center", "n": c}


def test_concurrent_prefixes_are_exact():
    """Threads reading one sequence's prefix and sparse support at once, as
    callers' threads sharing a sequence may, get exact values, and no read
    is longer than a prefix chunk."""
    import sys
    import threading

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for spec in (nb.rudin_shapiro(), nb.gap_powers("squares", 1)):
            want = nb.make_sequence(spec).prefix(200_000)
            seq = nb.make_sequence(spec)
            errors = []

            def worker(k):
                rng = np.random.default_rng(k)
                try:
                    for count in rng.integers(0, 200_001, size=40).tolist():
                        if seq.prefix(count).tobytes() != want[:count].tobytes():
                            errors.append(("prefix", count))
                        if seq.gap_support is not None:
                            exps = seq.gap_support.between(0, count * 50 + 1)
                            if exps != [i * i for i in range(math.isqrt(count * 50) + 1)]:
                                errors.append(("support", count))
                except Exception as exc:  # reported by the assertion below
                    errors.append(exc)

            calls = count_gathers(seq)
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert max(map(len, calls)) <= seqmod._CHUNK
    finally:
        sys.setswitchinterval(old_interval)


def test_negative_prefix_count_rejected():
    seq = nb.make_sequence(nb.periodic([1, 0]))
    assert seq.prefix(10).shape == (10,)
    with pytest.raises(SequenceError):
        seq.prefix(-3)
    with pytest.raises(SequenceError):
        nb.make_sequence(nb.rudin_shapiro()).prefix(-1)


def test_reads_past_explicit_length_rejected():
    seq = nb.make_sequence(nb.explicit([1, 2, 3]))
    with pytest.raises(SequenceError):
        seq.eval(3)
    with pytest.raises(SequenceError):
        seq.prefix(4)
    with pytest.raises(SequenceError):
        seq.window(2, 1)
    assert seq.window(1, 1).values == (1, 2, 3)


@pytest.mark.parametrize("spec", [nb.rudin_shapiro(), nb.erdos("soft"),
                                  nb.rotation(math.sqrt(2) - 1)])
def test_every_read_is_one_block_read(spec):
    whole = nb.make_sequence(spec).prefix(400)
    seq = nb.make_sequence(spec)
    calls = count_gathers(seq)
    first = seq.prefix(100)
    inside = seq.read(10, 50)
    assert calls == [range(0, 100), range(10, 50)]
    assert not np.shares_memory(inside, first)
    assert inside.tobytes() == whole[10:50].tobytes()
    assert seq.read(100, 100).shape == (0,)
    for lo, hi in ((90, 150), (200, 400), (99, 101)):
        assert seq.read(lo, hi).tobytes() == whole[lo:hi].tobytes()
    assert calls[2:] == [range(100, 100), range(90, 150), range(200, 400), range(99, 101)]
    assert seq.prefix(120).tobytes() == whole[:120].tobytes()
    assert calls[-1] == range(0, 120)
    assert seq.eval(7) == whole[7] and seq.eval(300) == whole[300]
    assert calls[-2:] == [range(7, 8), range(300, 301)]


def test_read_range_errors():
    seq = nb.make_sequence(nb.periodic([1, 0]))
    seq.prefix(10)
    with pytest.raises(SequenceError, match="ends before it starts"):
        seq.read(5, 4)
    with pytest.raises(SequenceError):
        seq.read(-1, 3)
    with pytest.raises(SequenceError):
        seq.read(2 ** 63 - 1, 2 ** 63 + 1)
    assert seq.read(2 ** 63 - 2, 2 ** 63).tolist() == [1, 0]
    short = nb.make_sequence(nb.explicit([1, 2, 3]))
    with pytest.raises(SequenceError):
        short.read(2, 4)
    assert short.read(1, 3).tolist() == [2, 3]


# ---------------------------------------------------------------------------
# Rotation irrationality screen


def _old_screen_rejects(q):
    approx = Fraction(q).limit_denominator(10 ** 6)
    return abs(q - float(approx)) < 1e-12


def _rejected(q):
    try:
        nb.make_sequence(nb.rotation(q))
    except SequenceError:
        return True
    return False


def test_rotation_accepts_every_irrational_square_root():
    for k in range(2, 200):
        if math.isqrt(k) ** 2 != k:
            assert not _rejected(math.sqrt(k) % 1), k
            assert not _rejected(math.sqrt(k)), k


def test_rotation_rejects_doubles_of_small_denominator_rationals():
    for q in (1 / 3, 355 / 113, 0.1 * 3, 0.0, 0.5, 999_999 / 1_000_000, 1 / 999_983):
        assert _rejected(q), q
    rng = np.random.default_rng(7)
    for d in rng.integers(2, 10 ** 6 + 1, size=300).tolist():
        p = int(rng.integers(1, d))
        assert _rejected(p / d), (p, d)


def test_rotation_screen_rejects_few_uniform_numbers_and_only_old_rejections():
    qs = np.random.default_rng(2024).random(10_000).tolist()
    rejected = [q for q in qs if _rejected(q)]
    assert len(rejected) < 0.01 * len(qs)
    assert all(_old_screen_rejects(q) for q in rejected)


@pytest.mark.parametrize("spec", [
    nb.explicit([1.0, math.nan]), nb.explicit([0.0, complex(0.0, math.inf)]),
    nb.periodic([1.0, math.nan]), nb.periodic([-math.inf]),
])
def test_explicit_and_periodic_reject_non_finite_values(spec):
    # explicit([1, nan]) used to be accepted with bound nan
    with pytest.raises(nb.SequenceError, match="must be finite, got"):
        nb.make_sequence(spec)


# ---------------------------------------------------------------------------
# CSV layer: the chunked column reader and writer against the row loops they
# replaced, which are kept below verbatim as oracles (only renamed).


def rowwise_is_integral(v: complex) -> bool:
    return v.imag == 0.0 and float(v.real).is_integer()


def rowwise_exact_kind(values) -> str:
    return "exact-integer" if all(rowwise_is_integral(v) for v in values) else "exact-rational"


def rowwise_explicit(values):
    return nb.GeneratorSpec("explicit", {"values": tuple(complex(v) for v in values)})


def rowwise_make_explicit(params) -> nb.OneSidedSequence:
    values = tuple(complex(v) for v in params.get("values", ()))
    if not values:
        raise SequenceError("explicit sequence needs at least one value")
    arr = np.asarray(values, dtype=complex)
    _check_finite(arr, "explicit values")
    bound = float(np.max(np.abs(arr)))
    kind = params.get("value_kind") or rowwise_exact_kind(values)
    seq = nb.OneSidedSequence(arr.__getitem__, bound,
                              params.get("family_label", "explicit"),
                              {"count": len(values)}, value_kind=kind,
                              length=len(values))
    seq.real_valued = not np.any(arr.imag)
    return seq


def rowwise_write_rows(dest, indices, vals) -> None:
    own = isinstance(dest, (str, bytes))
    f = open(dest, "w", newline="") if own else dest
    try:
        w = csv.writer(f)
        w.writerow(["n", "re", "im"])
        for n, v in zip(indices, vals):
            w.writerow([n, fmt17(v.real), fmt17(v.imag)])
    finally:
        if own:
            f.close()


def rowwise_read_sequence_csv(src) -> nb.OneSidedSequence:
    rows = rowwise_read_rows(src)
    values = []
    for i, (n, v) in enumerate(rows):
        if n != i:
            raise SequenceError(
                f"CSV indices must ascend from 0 without gaps; row {i} has n={n}")
        values.append(v)
    if not values:
        raise SequenceError("CSV contains no data rows")
    kind = "exact-integer" if all(rowwise_is_integral(v) for v in values) else "float"
    return rowwise_make_explicit({"values": values, "family_label": "csv",
                                  "value_kind": kind})


def rowwise_read_window_csv(src) -> nb.TwoSidedWindow:
    rows = rowwise_read_rows(src)
    if not rows:
        raise SequenceError("CSV contains no data rows")
    ns = [n for n, _ in rows]
    W = max(ns)
    if sorted(ns) != list(range(-W, W + 1)):
        raise SequenceError("window CSV must cover -W..W without gaps")
    vals = dict(rows)
    values = tuple(vals[k] for k in range(-W, W + 1))
    return nb.TwoSidedWindow(values, W, {"kind": "csv"}, eps=0.0,
                             bound=max(abs(v) for v in values))


def rowwise_read_rows(src):
    own = isinstance(src, (str, bytes))
    f = open(src, "r", newline="") if own else src
    try:
        if isinstance(f, io.TextIOBase) or hasattr(f, "read"):
            r = csv.reader(f)
        else:  # pragma: no cover
            raise SequenceError("unreadable CSV source")
        header = next(r, None)
        if header is None or [h.strip() for h in header] != ["n", "re", "im"]:
            raise SequenceError(f"expected header 'n,re,im', got {header}")
        out = []
        for row in r:
            if not row:
                continue
            if len(row) != 3:
                raise SequenceError(f"malformed CSV row: {row}")
            try:
                n, v = int(row[0]), complex(float(row[1]), float(row[2]))
            except ValueError:
                raise SequenceError(f"malformed CSV row: {row}") from None
            if not cmath.isfinite(v):
                raise SequenceError(f"non-finite value in CSV row: {row}")
            out.append((n, v + 0j))
        return out
    finally:
        if own:
            f.close()


DEFAULT_CSV_CHUNK = seqmod._CSV_CHUNK
CHUNKS = (1, 7, DEFAULT_CSV_CHUNK)


@pytest.fixture(params=CHUNKS, ids=lambda c: f"chunk{c}")
def chunk(request, monkeypatch):
    monkeypatch.setattr(seqmod, "_CSV_CHUNK", request.param)
    return request.param


_RNG = np.random.default_rng(2010)
_WRITE_SPECS = {
    "periodic-complex": nb.periodic([1, -1j, 0.5 + 0.25j, -0.0, 3]),
    "gap-factorials-complex-fill": nb.gap_powers("factorials", 2 - 1j),
    "gap-squares": nb.gap_powers("squares"),
    "rudin-shapiro": nb.rudin_shapiro(),
    "rotation-fractional-part": nb.rotation(math.sqrt(2) - 1, 0.3),
    "rotation-half-indicator": nb.rotation(math.sqrt(3), 0.0, "half-indicator"),
    "erdos-hard": nb.erdos("hard"),
    "erdos-soft": nb.erdos("soft"),
    "explicit-17-digits": nb.explicit(_RNG.standard_normal(9000)
                                      + 1j * _RNG.standard_normal(9000)),
    "explicit-near-1e300": nb.explicit(_RNG.uniform(-1, 1, 9000) * 1e300
                                       + 1j * _RNG.uniform(-1, 1, 9000) * 1e299),
    "explicit-near-1e-300": nb.explicit(_RNG.uniform(-1, 1, 9000) * 1e-300
                                        + 1j * _RNG.uniform(-1, 1, 9000) * 1e-310),
}


def _write_count(chunk):
    # a few chunks plus a partial one, and one row past a chunk edge
    return 2 * chunk + 2 if chunk > 7 else 60


@pytest.mark.parametrize("name", sorted(_WRITE_SPECS))
def test_csv_writer_is_byte_identical_to_the_row_loop(name, chunk):
    count = _write_count(chunk)
    new, old = io.StringIO(), io.StringIO()
    nb.write_sequence_csv(new, nb.make_sequence(_WRITE_SPECS[name]), count)
    rowwise_write_rows(old, range(count),
                       nb.make_sequence(_WRITE_SPECS[name]).prefix(count))
    assert new.getvalue() == old.getvalue()
    assert new.getvalue().count("\r\n") == count + 1


@pytest.mark.parametrize("name", ["explicit-17-digits", "rudin-shapiro"])
def test_csv_windows_are_byte_identical_to_the_row_loop(name, chunk):
    seq = nb.make_sequence(_WRITE_SPECS[name])
    for win in (seq.window(30, 0), seq.window(40, 13), seq.window(3000, 2000),
                nb.TwoSidedWindow((0.5, -0.0, 1, complex(1e-310, -1e300), 7j),
                                  2, {"kind": "test"})):
        new, old = io.StringIO(), io.StringIO()
        nb.write_window_csv(new, win)
        rowwise_write_rows(old, range(-win.radius, win.radius + 1), win.values)
        assert new.getvalue() == old.getvalue()


def test_csv_file_on_disk_is_byte_identical_and_leaves_the_cache_empty(tmp_path):
    # the writer reads a CSV chunk at a time, so its memory stays bounded
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    seq = nb.make_sequence(_WRITE_SPECS["explicit-17-digits"])
    calls = count_gathers(seq)
    nb.write_sequence_csv(str(new), seq, 9000)
    assert max(map(len, calls)) <= seqmod._CSV_CHUNK
    rowwise_write_rows(str(old), range(9000), seq.prefix(9000))
    assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("count, spec", [(-1, nb.rudin_shapiro()),
                                         (4, nb.explicit([1, 2, 3]))])
def test_csv_writer_checks_the_count_before_the_first_byte(tmp_path, count, spec):
    with pytest.raises(SequenceError) as old:
        nb.make_sequence(spec).prefix(count)
    path = tmp_path / "never.csv"
    with pytest.raises(SequenceError) as new:
        nb.write_sequence_csv(str(path), nb.make_sequence(spec), count)
    assert str(new.value) == str(old.value)
    assert not path.exists()
    buf = io.StringIO()
    with pytest.raises(SequenceError):
        nb.write_sequence_csv(buf, nb.make_sequence(spec), count)
    assert buf.getvalue() == ""


def _rows(indices, re="1"):
    return [f"{n},{re},0" for n in indices]


def _text(lines, header="n,re,im"):
    return "\n".join([header] + lines) + "\n"


# hand-written inputs: each reads the same (or fails with the same message)
# on both paths, as a sequence and as a window
_READ_CASES = {
    "bad-header": "x,y,z\n0,1,0\n",
    "bom": "﻿n,re,im\n0,1,0\n",
    "header-only": "n,re,im\n",
    "empty": "",
    "blank-rows-only": "n,re,im\n\n\n",
    "spaced-header": " n , re , im \n0,1,0\n",
    "short-row": "n,re,im\n0,1,0\n1,1\n",
    "long-row": "n,re,im\n0,1,0\n1,1,0,0\n",
    "whitespace-row": "n,re,im\n0,1,0\n \n",
    "quoted-fields": 'n,re,im\n"0","1","0"\n"1","2.5","-1"\n',
    "quoted-comma": 'n,re,im\n0,"1,5",0\n',
    "spaced-fields": "n,re,im\n0,1,0\n 1, 2 , 3\n",
    "underscores": "n,re,im\n0,1_0,0\n1_0,2,1_0\n",
    "plus-and-arabic-digits": "n,re,im\n+0,1,0\n١,2,0\n",
    "float-index": "n,re,im\n0,1,0\n1.0,1,0\n",
    "hex-float": "n,re,im\n0,0x1p3,0\n",
    "nan": "n,re,im\n0,1,0\n1,nan,0\n",
    "NaN-imag": "n,re,im\n0,1,0\n1,0,NaN\n",
    "inf": "n,re,im\n0,inf,0\n",
    "minus-Infinity": "n,re,im\n0,1,-Infinity\n",
    "overflow": "n,re,im\n0,1,0\n1,1e999,0\n",
    "negative-zero": "n,re,im\n0,-0.0,-0.0\n1,1,-0\n",
    "subnormal": "n,re,im\n0,5e-324,0\n1,1,-1e-310\n",
    "float-values": "n,re,im\n0,1.5,0\n1,2,0\n",
    "complex-integers": "n,re,im\n0,1,1\n1,2,0\n",
    "crlf": "n,re,im\r\n0,1,0\r\n1,2,0\r\n",
    "cr": "n,re,im\r0,1,0\r1,2,0\r",
    "gap": "n,re,im\n0,1,0\n2,1,0\n",
    "starts-at-1": "n,re,im\n1,1,0\n2,1,0\n",
    "duplicate": "n,re,im\n0,1,0\n0,1,0\n1,1,0\n",
    "descending": "n,re,im\n1,1,0\n0,1,0\n-1,1,0\n",
    "huge-index": "n,re,im\n0,1,0\n99999999999999999999999,1,0\n",
    "huge-negative-index": "n,re,im\n-99999999999999999999999,1,0\n0,1,0\n",
    "gap-then-malformed": "n,re,im\n0,1,0\n2,1,0\n3,abc,0\n",
    "gap-then-non-finite": "n,re,im\n0,1,0\n2,1,0\n3,1,inf\n",
    "non-finite-then-malformed": "n,re,im\n0,nan,0\n1,abc,0\n",
    "malformed-then-non-finite": "n,re,im\n0,abc,0\n1,nan,0\n",
    "window": "n,re,im\n-1,1,0\n0,2,0\n1,3,0\n",
    "window-shuffled": "n,re,im\n1,3,0\n-1,1,0\n\n0,2,-2\n",
    "window-negative-only": "n,re,im\n-1,1,0\n",
    "window-negative-zeros": "n,re,im\n-1,-0.0,0\n0,1,-0.0\n1,-0,-0\n",
    "window-missing": "n,re,im\n-2,1,0\n-1,1,0\n1,1,0\n2,1,0\n",
    # the strict chunk parse must read these as the row loop does, or
    # refuse them and leave them to it
    "hash-in-line": "n,re,im\n0,1,0 # note\n1,2,0\n",
    "hash-field": "n,re,im\n0,1,0\n#1,2,0\n",
    "nul-byte": "n,re,im\n0,1,0\n1,2\x00,0\n",
    "bom-in-data": "n,re,im\n\ufeff0,1,0\n",
    "lone-cr-inside-a-line": "n,re,im\n0,1,0\r1,2,0\n",
    "cr-ends-the-last-line": "n,re,im\n0,1,0\n1,2,0\r",
    "unicode-digit-value": "n,re,im\n0,\u0662,0\n",
    "unicode-whitespace": "n,re,im\n\u20030,\xa01,0\u2003\n1,2\u3000,0\n",
    "non-ascii-in-index": "n,re,im\n0,1,0\n\u01fe1,2,0\n",
    "ascii-separators": "n,re,im\n0,1,0\n1,2\x1c,0\n",
    "ascii-whitespace": "n,re,im\n\t0,\x0b1,0\x0c\n1 ,2\t, 0\n",
    "plus-index": "n,re,im\n+0,1,0\n+1,+2,-3\n",
    "minus-zero-index": "n,re,im\n-0,1,0\n1,2,0\n",
    "index-int64-max": f"n,re,im\n0,1,0\n{2 ** 63 - 1},1,0\n",
    "index-2-63": f"n,re,im\n0,1,0\n{2 ** 63},1,0\n",
    "index-float": "n,re,im\n0,1,0\n1e0,1,0\n",
    "index-hex": "n,re,im\n0,1,0\n0x1,1,0\n",
    "infinity": "n,re,im\n0,1,0\n1,infinity,0\n",
    "minus-nan": "n,re,im\n0,1,0\n1,0,-nan\n",
    "empty-field": "n,re,im\n0,1,0\n1,,0\n",
    "trailing-comma": "n,re,im\n0,1,0\n1,2,0,\n",
    "blank-lines-between": "n,re,im\n0,1,0" + "\n" * 12 + "1,2,0\n\n\n",
    "quoted-field-spans-lines": 'n,re,im\n0,1,0\n1,"2\n",0\n2,3,0\n',
}


def _outcome(read, text):
    """What ``read`` makes of ``text``, or of the file at a ``pathlib``
    path."""
    try:
        got = read(str(text) if isinstance(text, pathlib.Path) else io.StringIO(text))
    except Exception as e:     # noqa: BLE001 -- the error is the outcome
        return ("error", type(e), str(e))
    if isinstance(got, nb.TwoSidedWindow):
        return ("window", tuple(map(repr, got.values)), got.radius,
                got.provenance, got.eps, got.bound)
    return ("sequence", got.prefix(got.length).tobytes(), got.length, got.bound,
            got.value_kind, got.family, got.params, got.real_valued)


def _assert_same_reads(text):
    for read, oracle in ((nb.read_sequence_csv, rowwise_read_sequence_csv),
                         (nb.read_window_csv, rowwise_read_window_csv)):
        got, want = _outcome(read, text), _outcome(oracle, text)
        if want[:2] == ("error", csv.Error):
            # a line the csv module rejects is a SequenceError naming the line
            assert got[:2] == ("error", SequenceError)
            assert re.fullmatch(r"CSV file stream, line \d+: " + re.escape(want[2]), got[2])
        else:
            assert got == want


@pytest.mark.parametrize("name", sorted(_READ_CASES))
def test_csv_reader_matches_the_row_loop(name, chunk):
    text = _READ_CASES[name]
    if name not in ("huge-index", "index-int64-max", "index-2-63"):
        _assert_same_reads(text)
        return
    # the row loop built range(-W, W + 1) for W >= 2^63 - 1 and raised
    # OverflowError (a traceback, exit 1); the count check comes first now
    assert (_outcome(nb.read_sequence_csv, text)
            == _outcome(rowwise_read_sequence_csv, text))
    assert _outcome(rowwise_read_window_csv, text)[1] is OverflowError
    assert _outcome(nb.read_window_csv, text) == (
        "error", SequenceError, "window CSV must cover -W..W without gaps")


def _edge_cases(chunk):
    """Inputs with an error on each side of the edge between row chunks
    (data rows ``chunk - 1`` and ``chunk``, counted from 0), as sequences
    (0..N-1) and as windows (-W..W)."""
    for at in (chunk - 1, chunk, chunk + 1):
        n = at + 4
        for base in (list(range(n)), list(range(-(n // 2), n // 2 + 1))):
            def put(pos, line, lines=None):
                lines = list(lines or _rows(base))
                lines[pos] = line
                return lines
            yield _text(put(at, f"{base[at]},abc,0"))          # malformed
            yield _text(put(at, f"{base[at]},1"))              # short
            yield _text(put(at, f"{base[at]},0,nan"))          # non-finite
            yield _text(put(at, f"{base[at] + 7},1,0"))        # gap
            yield _text(put(at, f"{base[at - 1] if at else 5},1,0"))  # duplicate
            yield _text(put(at, ""))                           # blank line
            yield _text(_rows(base[:at]) + [""] + _rows(base[at:]))   # extra blank
            # a whole chunk of blank lines, and a quoted field whose two
            # lines straddle the edge
            yield _text(_rows(base[:at]) + [""] * chunk + _rows(base[at:]))
            yield _text(_rows(base[:at]) + [f'{base[at]},"1', '",0']
                        + _rows(base[at + 1:]))
            # a gap, then a malformed row, a non-finite row, a later gap
            gapped = put(1 if at > 1 else 0, f"{base[0] + 100},1,0")
            yield _text(put(at + 1, f"{base[at + 1]},x,0", gapped))
            yield _text(put(at + 1, f"{base[at + 1]},inf,0", gapped))
            yield _text(put(at + 1, f"{base[at + 1] + 9},1,0", gapped))
            # a malformed row, then a non-finite one across the edge
            yield _text(put(at + 1, f"{base[at + 1]},-inf,0",
                            put(at, f"{base[at]},,0")))
            yield _text(_rows(base))                            # valid


def test_csv_reader_matches_the_row_loop_at_chunk_edges(chunk):
    for text in _edge_cases(chunk):
        _assert_same_reads(text)


def test_csv_reader_matches_the_row_loop_on_written_files(chunk):
    for name in ("explicit-17-digits", "explicit-near-1e300", "rudin-shapiro"):
        buf = io.StringIO()
        nb.write_sequence_csv(buf, nb.make_sequence(_WRITE_SPECS[name]), 2 * chunk + 9)
        _assert_same_reads(buf.getvalue())


def test_csv_reader_names_a_rejected_line_after_strict_chunks(chunk):
    # the row loop takes over after the strict parse has read whole chunks,
    # and still counts every line from the top of the file
    big = "0" * (csv.field_size_limit() + 1)    # numpy reads it as 0.0
    for before in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        text = _text(_rows(range(before)) + [f"{before},{big},0"])
        for read in (nb.read_sequence_csv, nb.read_window_csv):
            with pytest.raises(SequenceError) as e:
                read(io.StringIO(text))
            assert str(e.value) == (f"CSV file stream, line {before + 2}: field larger "
                                    f"than field limit ({csv.field_size_limit()})")


def test_csv_files_with_cr_line_ends_read_as_the_row_loop_reads_them(chunk, tmp_path):
    # a file opened with newline="" also ends lines at a lone \r, which the
    # strict parse then sees at the end of its lines
    path = tmp_path / "cr.csv"
    for text in ("n,re,im\r0,1,0\r\r1,-0.0,2\r", "n,re,im\r\n0,1,0\r\r\n1,2,0\r",
                 "n,re,im\r" + "\r".join(f"{n},{n / 3!r},0" for n in range(20)) + "\r",
                 "n,re,im\r0,1,0\r\r\r2,1,0\n"):
        path.write_bytes(text.encode())
        for read, oracle in ((nb.read_sequence_csv, rowwise_read_sequence_csv),
                             (nb.read_window_csv, rowwise_read_window_csv)):
            assert _outcome(read, path) == _outcome(oracle, path)


def _float_strings(rng, count):
    """Seeded doubles over every exponent, subnormals and both zeros
    included, each written four ways."""
    bits = rng.integers(0, 2 ** 64, count, dtype=np.uint64)
    vals = bits.view(float)
    vals = np.concatenate([vals[np.isfinite(vals)], [0.0, -0.0, 5e-324, -5e-324,
                                                      2.2250738585072014e-308,
                                                      1.7976931348623157e308]])
    for fmt in ("%.17g", "%r", "%.25g", "%.3e"):
        # "%.3e" rounds values near the float maximum up to inf
        yield fmt, [t for t in (fmt % v for v in vals.tolist()) if math.isfinite(float(t))]


def test_strict_chunk_parse_gives_the_bits_of_float():
    rng = np.random.default_rng(24)
    for fmt, strs in _float_strings(rng, 20_000):
        half = len(strs) // 2
        lines = [f"{n},{a},{b}\r\n" for n, (a, b) in
                 enumerate(zip(strs[:half], strs[half:2 * half]))]
        got = seqmod._parse_lines(lines)
        assert got is not None, fmt     # the strict parse took the chunk
        ns, vals = got
        assert ns.tolist() == list(range(half))
        want = np.array([complex(float(a), float(b)) for a, b in
                         zip(strs[:half], strs[half:2 * half])]) + 0j
        assert vals.tobytes() == want.tobytes(), fmt


def test_csv_reader_keeps_one_read_only_array():
    seq = nb.read_sequence_csv(io.StringIO("n,re,im\n0,1,0\n1,2,0\n"))
    with pytest.raises(ValueError):
        seq._family_at.__self__[0] = 5
    arr = seq.read(0, 2)
    assert arr.dtype == complex
    arr[0] = 5
    seq.prefix(2)[1] = 5
    assert seq.read(0, 2).tolist() == [1, 2]


def test_bad_utf8_offset_counts_from_the_start_of_the_file(tmp_path):
    path = tmp_path / "f.csv"
    # a two-byte character straddles the decoder's 64 KiB block edge
    path.write_bytes(b"a" * 65535 + "é".encode() + b"b" * 10 + b"\xff")
    assert seqmod._bad_utf8_offset(str(path)) == 65547
    path.write_bytes(b"n,re,im\n0,1,0\n\xc3")   # truncated last character
    assert seqmod._bad_utf8_offset(str(path)) == 14
    with pytest.raises(SequenceError, match=f"{path} is not valid utf-8 text at byte 14"):
        nb.read_sequence_csv(str(path))


# explicit(): one conversion, the same accepted inputs, values and messages
_EXPLICIT_INPUTS = {
    "none": [1, None],
    "string-number": ["1", "2+3j", " -0.5 "],
    "string-bad": ["abc"],
    "fractions": [Fraction(1, 3), Fraction(-7, 2), Fraction(4)],
    "numpy-scalars": [np.float32(0.1), np.int64(-5), np.complex64(1 - 2j),
                      np.float64(2.5), np.bool_(True)],
    "negative-zero": [-0.0, complex(-0.0, -0.0), complex(1, -0.0)],
    "huge-int": [10 ** 400],
    "big-ints": [2 ** 63 + 1, -(2 ** 64) - 3],
    "empty": [],
    "non-finite": [1.0, math.nan],
    "integers": [1, 2, -3],
    "generator": (x / 4 for x in range(9)),
    "float-array": np.arange(6) / 3.0,
    "int-array": np.arange(-3, 3),
    "object-array": np.array([1, 0.5, 2j], dtype=object),
}


def _explicit_outcome(build_spec, make, values):
    try:
        seq = make(build_spec(values).params)
    except Exception as e:     # noqa: BLE001 -- the error is the outcome
        return ("error", type(e), str(e))
    return ("sequence", seq.prefix(seq.length).tobytes(), seq.length, seq.bound,
            seq.value_kind, seq.family, seq.params, seq.real_valued)


@pytest.mark.parametrize("name", sorted(_EXPLICIT_INPUTS))
def test_explicit_matches_the_double_conversion(name):
    values = _EXPLICIT_INPUTS[name]
    if not isinstance(values, (list, np.ndarray)):
        values = list(values)
    assert (_explicit_outcome(nb.explicit, seqmod._make_explicit, values)
            == _explicit_outcome(rowwise_explicit, rowwise_make_explicit, values))


def test_explicit_does_not_alias_a_writable_array():
    values = np.array([1 + 0j, 2, 3])
    seq = nb.make_sequence(nb.explicit(values))
    values[0] = 99
    assert seq.eval(0) == 1


# --- snapping: the whole-prefix snap it replaced, as the oracle -------------

def old_snap_to_limit_points(seq, points, onset_tol, scan_horizon=10_000):
    """The whole-prefix snap that the chunked scan replaced, verbatim except
    that the layout is passed to the constructor."""
    pts = [complex(p) for p in points]
    if not pts:
        raise SequenceError("need at least one limit point")
    if len(pts) > 1:
        min_dist = min(abs(a - b) for i, a in enumerate(pts)
                       for b in pts[i + 1:])
        if min_dist <= 2 * onset_tol:
            raise SequenceError(
                f"limit points must be pairwise farther apart than "
                f"2*onset_tol = {2 * onset_tol}")
        gamma = 0.5 * min_dist
    else:
        gamma = math.inf

    horizon = seq.clamp_horizon(scan_horizon)
    raw = seq.prefix(horizon + 1)
    parr = np.asarray(pts, dtype=complex)
    dists = np.abs(raw[:, None] - parr[None, :])
    idx = np.argmin(dists, axis=1)
    snapped = parr[idx]

    ties = []
    if len(pts) > 1:
        part = np.partition(dists, 1, axis=1)
        close = np.nonzero(part[:, 1] - part[:, 0] <= onset_tol)[0]
        ties = [int(i) for i in close]

    dev = np.abs(raw - snapped)
    viol = np.nonzero(dev > gamma)[0]
    onset = int(viol[-1]) + 1 if viol.size else 0

    def at(idx):
        past = np.array([seq.eval(n) for n in idx.tolist()], dtype=complex)
        near = parr[np.argmin(np.abs(past[:, None] - parr[None, :]), axis=1)]
        return np.where(idx <= horizon, snapped[np.minimum(idx, horizon)], near)

    bound = max(abs(p) for p in pts)
    return nb.OneSidedSequence(
        at, bound, "snapped",
        {"points": tuple(pts), "gamma": gamma, "onset_index": onset,
         "ties": tuple(ties), "scan_horizon": horizon, "source": seq.family},
        value_kind=seqmod._exact_kind(pts), length=seq.length,
        real_valued=not np.any(parr.imag))


def _planted(base, points, at):
    """``base`` (a complex array) with, at each index of ``at``, a tie (the
    midpoint of the first two points) and right after it a violation (a
    value 1.5 gamma-widths past the first point, away from the second)."""
    vals = base.copy()
    p, q = points[0], points[1]
    for i in at:
        vals[i] = (p + q) / 2
        if i + 1 < vals.size:
            vals[i + 1] = p + 0.75 * (p - q)
    return vals


_EDGES = [0, 6, 7, 13, 14, 4094, 4095, 4096, 4097, 8190, 8191]


def _snap_cases():
    rng = np.random.default_rng(17)
    n = 9000
    pm = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    real = _planted(pm + rng.uniform(-0.2, 0.2, n), [-1, 1], _EDGES + [8990])
    quad = np.array([1, 1j, -1, -1j])
    cplx = quad[rng.integers(0, 4, n)] + 0.1 * (rng.uniform(-1, 1, n)
                                                + 1j * rng.uniform(-1, 1, n))
    cplx = _planted(cplx, [1j, -1], _EDGES + [8993])
    ex = lambda v: nb.make_sequence(nb.explicit(v))
    rot = nb.make_sequence(nb.rotation(math.sqrt(2) - 1, 0.3))
    crot = nb.make_sequence(nb.rotation(math.sqrt(2) - 1, 0.3,
                                        (lambda x: cmath.exp(2j * math.pi * x), 1.0)))
    return {
        # onset in the last chunk; horizons not a multiple of 7 or 4096
        "real-explicit": (ex(real), [-1, 1], 0.05, 8999),
        "real-explicit-short-scan": (ex(real), [-1, 1], 0.05, 4100),
        "complex-explicit": (ex(cplx), [1j, -1, 1, -1j], 0.05, 8999),
        "real-rotation": (rot, [0.0, 0.5, 1.0], 0.01, 8195),
        "complex-rotation": (crot, [1, 1j, -1, -1j], 0.02, 4103),
        "rudin-shapiro": (nb.make_sequence(nb.rudin_shapiro()), [-1, 1], 0.01, 8200),
        "one-point": (ex(real), [0.5], 0.0, 8999),
    }


_SNAP_CASES = _snap_cases()


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("name", sorted(_SNAP_CASES))
def test_chunked_snap_matches_the_whole_prefix_snap(name, chunk, monkeypatch):
    seq, points, tol, horizon = _SNAP_CASES[name]
    old = old_snap_to_limit_points(seq, points, tol, horizon)
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    new = nb.snap_to_limit_points(seq, points, tol, horizon)
    assert new.params == old.params
    assert (new.bound, new.value_kind, new.length, new.real_valued) == \
        (old.bound, old.value_kind, old.length, old.real_valued)
    end = horizon + 40 if seq.length is None else seq.length
    for lo, hi in ((0, end), (horizon - 3, end), (horizon + 1, end), (5, 5)):
        assert new._read(lo, hi).tobytes() == old._read(lo, hi).tobytes()
    if name.endswith("explicit") and chunk == 7:
        # the planted ties and violations sit on chunk edges and are found
        assert set(_EDGES) <= set(new.params["ties"])
        assert new.params["onset_index"] > horizon - 10


@pytest.mark.parametrize("points,tol,named", [
    ([0, math.nan], 0.01, "limit points must be finite, got (nan+0j)"),
    ([0, complex(1, math.inf)], 0.01, "limit points must be finite, got (1+infj)"),
    ([0, 1], math.nan, "onset_tol must be finite and >= 0, got nan"),
    ([0, 1], -1, "onset_tol must be finite and >= 0, got -1"),
    ([0.5], math.inf, "onset_tol must be finite and >= 0, got inf"),
])
def test_snap_rejects_bad_input_naming_the_value(points, tol, named):
    # a nan point used to give a nan bound, so every read raised
    # VerificationError; a nan or negative onset_tol flagged no ties
    seq = nb.make_sequence(nb.explicit([0.0, 1.0, 0.5]))
    with pytest.raises(SequenceError) as exc:
        nb.snap_to_limit_points(seq, points, onset_tol=tol, scan_horizon=2)
    assert named in str(exc.value)
