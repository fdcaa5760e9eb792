"""Generator families, windows, snapping, and CSV round trips."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nbscope as nb
from nbscope.sequences import SequenceError


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
    # sqrt(3) has a rational approximation with denominator 978122 within
    # 9.1e-13, so the conservative screen rejects it as well
    with pytest.raises(SequenceError):
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
        fresh = nb.make_sequence(nb.erdos(edge))
        pointwise = np.array([fresh._fn(n) for n in range(800)], dtype=complex)
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
