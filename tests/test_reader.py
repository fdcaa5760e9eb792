"""Differential tests of the one chunked reader (``sequences._chunks``)
and of every consumer that takes its values from it, with ``_CHUNK``
patched to 1, 7 and 4096 values on two real and two complex families.
The scans (zero-flank search, periodicity, extraction, block analysis)
are checked against their references (``references.py``), which read
each value once and know no chunks.  The prefix, the CSV writer and the
certified sums are checked against the per-consumer chunk loops over
``read`` they ran before, verbatim but for a ``chunk`` argument that
stands in for the constant each loop had, so chunk edges fall alike on
both sides."""

import cmath
import io
import math

import numpy as np
import pytest

import nbscope as nb
from nbscope import analytic
from nbscope import sequences as seqmod
from nbscope._util import ipow, kahan_complex_sum
from references import (fold_skipped_tail, reference_extract, reference_gap_certificate,
                        reference_periodicity, reference_szego)

CHUNKS = (1, 7, 4096)

# two real families and two complex ones
FAMILIES = {
    "rudin-shapiro": nb.rudin_shapiro(),
    "rotation": nb.rotation(math.sqrt(2) - 1, 0.3),
    "periodic-1j": nb.periodic([1, 1j, 0, -1, 1j, 1j, 0]),
    "rotation-complex": nb.rotation(
        math.sqrt(3) - 1, 0.1, (lambda x: cmath.exp(2j * math.pi * x) * (x < 0.7), 1.0)),
}
EXACT = ("rudin-shapiro", "periodic-1j")


def _make(name):
    return nb.make_sequence(FAMILIES[name])


def test_families_cover_both_layouts():
    assert [_make(n).real_valued for n in FAMILIES] == [True, True, False, False]
    assert [_make(n).exact for n in FAMILIES] == [True, False, True, False]


# ---------------------------------------------------------------------------
# The loops the prefix, the CSV writer and the certified sums ran, as they were


def old_prefix(seq, count, chunk):
    out = np.empty(count, dtype=complex)
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        out[lo:hi] = seq.read(lo, hi)
    return out


def old_write_sequence_csv(dest, seq, count, chunk):
    dest.write("n,re,im\r\n")
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        vals = seq.read(lo, hi)
        fields = [None] * (3 * (hi - lo))
        fields[0::3] = range(lo, hi)
        fields[1::3] = vals.real.tolist()
        fields[2::3] = vals.imag.tolist()
        dest.write("%d,%.17g,%.17g\r\n" * (hi - lo) % tuple(fields))


def old_sum_with_mass(coeffs, z, start_exponent, chunk):
    n = len(coeffs)
    if n == 0:
        return 0j, 0.0
    partials = []
    mass = 0.0
    power = ipow(z, start_exponent)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        steps = np.empty(hi - lo, dtype=complex)
        steps[0] = power
        if hi - lo > 1:
            steps[1:] = z
        pw = np.cumprod(steps)
        terms = coeffs[lo:hi] * pw
        partials.append(complex(np.sum(terms)))
        mass += float(np.sum(np.abs(terms)))
        power = complex(pw[-1]) * z
    return kahan_complex_sum(partials), mass


def old_eval_f(seq, z, tol, chunk):
    n_terms, bound = analytic._truncation(seq, abs(z), tol)
    val = old_sum_with_mass(old_prefix(seq, n_terms, chunk), z, 0, chunk)[0]
    return nb.EvalResult(val, bound, n_terms)


def old_eval_shift_pair(seq, shift, z, tol, chunk):
    r = abs(z)
    m_terms, tail_bound = analytic._truncation(seq, r, tol, start=shift)
    all_coeffs = old_prefix(seq, shift + m_terms, chunk)
    head, tail = all_coeffs[:shift], all_coeffs[shift:]

    fplus_val, fplus_mass = old_sum_with_mass(tail, z, 0, chunk)
    fminus_val, fminus_mass = old_sum_with_mass(head, z, -shift, chunk)
    head_val, head_mass = old_sum_with_mass(head, z, 0, chunk)
    tail_val, tail_mass = old_sum_with_mass(tail, z, shift, chunk)
    f_val = head_val + tail_val

    lhs = fplus_val + fminus_val
    scale = ipow(z, -shift)
    rhs = scale * f_val
    residual = abs(lhs - rhs)

    f_bound = tail_bound * r ** shift
    eps_m = float(np.finfo(float).eps)
    rounding = eps_m * (
        (m_terms + 3) * fplus_mass
        + (shift + 3) * fminus_mass
        + abs(scale) * (shift + m_terms + 3) * (head_mass + tail_mass)
        + 2.0 * (abs(lhs) + abs(rhs)))
    allowance = 2.0 * (tail_bound + r ** (-shift) * f_bound + rounding)
    return analytic.ShiftPairResult(fplus=nb.EvalResult(fplus_val, tail_bound, m_terms),
                                    fminus=fminus_val, identity_residual=residual,
                                    residual_allowance=allowance, shift=shift)


def old_eval_window(win, z, chunk):
    W = win.radius
    vals = win.as_array()
    if abs(z) < 1.0:
        return nb.EvalResult(old_sum_with_mass(vals[W:], z, 0, chunk)[0], 0.0, W + 1)
    return nb.EvalResult(old_sum_with_mass(vals[:W][::-1], 1.0 / z, 1, chunk)[0], 0.0, W)


def _bits(x):
    """Bit patterns of a complex or float, so signed zeros count."""
    x = complex(x)
    return x.real.hex(), x.imag.hex()


# ---------------------------------------------------------------------------
# The reader itself


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_read_keeps_its_complex_contract_and_the_reader_its_layout(name):
    seq = _make(name)
    got = seq.read(5, 300)
    assert got.dtype == complex
    own = seq._read(5, 300)
    assert own.dtype == (float if seq.real_valued else complex)
    assert own.astype(complex).tobytes() == got.tobytes()


def test_both_layouts_canonicalise_signed_zeros_and_check_the_bound():
    for pattern in ([-0.0, 1.0, -2.0], [complex(-0.0, -0.0), 1j, -2.0]):
        seq = nb.make_sequence(nb.periodic(pattern))
        assert np.signbit(seq._read(0, 3).view(float)).tolist().count(True) == 1
        assert not np.signbit(seq.read(0, 3).view(float)[:2]).any()
        seq._family_at = lambda idx: np.full(len(idx), 2.5)
        with pytest.raises(nb.VerificationError, match=r"\|a_4\| = 2.5 exceeds"):
            seq._read(4, 6)


@pytest.mark.parametrize("pad", [(0, 0), (3, 0), (0, 2), (1, 4)])
@pytest.mark.parametrize("size", [1, 7, 50, 1000])
def test_chunks_cover_the_range_with_their_pads(size, pad):
    seq = _make("periodic-1j")
    whole = seq._read(0, 400)
    lo, hi = 5, 305
    edges = []
    for c0, vals in seqmod._chunks(seq, lo, hi, size, pad):
        c1 = min(c0 + size, hi)
        edges.append((c0, c1))
        assert vals.tobytes() == whole[c0 - pad[0]:c1 + pad[1]].tobytes()
    assert edges == [(c, min(c + size, hi)) for c in range(lo, hi, size)]


@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunk_size_defaults_to_the_patched_constant(chunk, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    seq = _make("rudin-shapiro")
    assert [c0 for c0, _ in seqmod._chunks(seq, 3, 9000)] == list(range(3, 9000, chunk))


# ---------------------------------------------------------------------------
# Every consumer against its old loop or its scan's reference


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_prefix_and_csv_writer_match_their_loops(name, chunk, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    monkeypatch.setattr(seqmod, "_CSV_CHUNK", chunk)
    seq = _make(name)
    for count in (0, 1, chunk, chunk + 1, 3000):
        assert seq.prefix(count).tobytes() == old_prefix(seq, count, chunk).tobytes()
        got, want = io.StringIO(), io.StringIO()
        nb.write_sequence_csv(got, seq, count)
        old_write_sequence_csv(want, seq, count, chunk)
        assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_gap_scan_matches_its_loop(name, chunk, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    seq = _make(name)
    for width, eps, delta, decay in ((1, 0.0, 0.5, None), (3, 0.05, 0.3, None),
                                     (2, 0.02, 0.45, (0.8, 0.5)), (5, 0.3, 0.7, None)):
        want = reference_gap_certificate(seq, width, 2500, eps, delta, decay, 1)
        got = nb.find_gap_certificate(seq, width, 2500, eps=eps, delta=delta,
                                      decay=decay, min_recurrence=1)
        assert got == want
        if want:
            assert got.separation == want.separation


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_periodicity_scan_matches_its_loop(name, chunk, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    seq = _make(name)
    for mp, mpp, tol in ((8, 8, None), (16, 4, 0.0), (7, 10, 0.3), (3, 0, 1.5)):
        assert (nb.detect_eventual_periodicity(seq, mp, mpp, 2999, tol)
                == reference_periodicity(seq, mp, mpp, 2999, tol))


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_extraction_matches_its_loop(name, chunk, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    seq = _make(name)
    for width, eps in ((2, None), (3, 0.1), (1, 0.0)):
        got = nb.extract_right_limits(seq, width, 2000, eps=eps, max_candidates=0)
        want = reference_extract(seq, width, 2000, eps=eps, max_candidates=0)
        assert got == want
        assert [[_bits(v) for v in c.window.values] for c in got.candidates] == \
            [[_bits(v) for v in c.window.values] for c in want.candidates]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", EXACT)
def test_szego_analysis_matches_its_loop(name, chunk, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    seq = _make(name)
    for p_max, horizon in ((3, 2000), (6, 3000), (2, 40)):
        got = nb.szego_block_analysis(seq, p_max, horizon)
        want = fold_skipped_tail(reference_szego(seq, p_max, horizon), p_max)
        assert got == want
        assert [_bits(v) for v in got.value_set] == [_bits(v) for v in want.value_set]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_certified_sums_match_their_loops(name, chunk, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    seq = _make(name)
    for z in (0.99 * cmath.exp(0.7j), 0.5, -0.9 + 0.3j):
        got, want = nb.eval_f(seq, z, tol=1e-10), old_eval_f(seq, z, 1e-10, chunk)
        assert got == want and _bits(got.value) == _bits(want.value)
    for shift, z in ((0, 0.9 + 0.2j), (1, 0.5), (chunk + 3, 0.95j), (1500, -0.99)):
        got = nb.eval_shift_pair(seq, shift, z, tol=1e-12)
        want = old_eval_shift_pair(seq, shift, z, 1e-12, chunk)
        assert got == want
        assert _bits(got.fplus.value) == _bits(want.fplus.value)
        assert _bits(got.fminus) == _bits(want.fminus)
    win = seq.window(40, 30)
    for z in (0.9 + 0.1j, 1.3 - 0.4j, 0.5, 2.0):
        got, want = nb.eval_two_sided(win, z), old_eval_window(win, z, chunk)
        assert got == want and _bits(got.value) == _bits(want.value)
