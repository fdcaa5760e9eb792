"""Differential tests of the one chunked reader (``sequences._chunks``)
and of every consumer that takes its values from it, with ``_CHUNK``
patched to 1, 7 and 4096 values on two real and two complex families.
Every consumer is checked against its reference (``references.py``),
which reads each value once: the prefix against a single read, the CSV
writer against a row loop, and the scans know no chunks.  The certified
sums are compensated over chunks, so their references take the patched
chunk as an argument, and chunk edges fall alike on both sides."""

import cmath
import io
import math

import numpy as np
import pytest

import nbscope as nb
from nbscope import analytic
from nbscope import sequences as seqmod
from references import (fold_skipped_tail, reference_eval_f, reference_eval_two_sided,
                        reference_extract, reference_gap_certificate, reference_periodicity,
                        reference_power_sum, reference_shift_pair, reference_szego,
                        reference_write_rows)

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
# Every consumer against its reference


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_prefix_and_csv_writer_match_their_loops(name, chunk, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    monkeypatch.setattr(seqmod, "_CSV_CHUNK", chunk)
    seq = _make(name)
    for count in (0, 1, chunk, chunk + 1, 3000):
        assert seq.prefix(count).tobytes() == seq.read(0, count).tobytes()
        got, want = io.StringIO(), io.StringIO()
        nb.write_sequence_csv(got, seq, count)
        reference_write_rows(want, range(count), seq.read(0, count))
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
    # chunk edges at lo + k * chunk, with both parts of each (sum, mass)
    for lo, hi, z in ((0, 3000, 0.95j), (13, 2500, -0.9 + 0.3j), (chunk + 1, 2 * chunk + 2, 0.5)):
        got = analytic._sum_series_with_mass(seq, lo, hi, z, (0, -3, 7))
        for s, (value, mass) in zip((0, -3, 7), got):
            want = reference_power_sum(seq.read(lo, hi), z, s, chunk)
            assert (_bits(value), mass.hex()) == (_bits(want[0]), want[1].hex())
    for z in (0.99 * cmath.exp(0.7j), 0.5, -0.9 + 0.3j):
        got, want = nb.eval_f(seq, z, tol=1e-10), reference_eval_f(seq, z, 1e-10, chunk)
        assert got == want and _bits(got.value) == _bits(want.value)
    for shift, z in ((0, 0.9 + 0.2j), (1, 0.5), (chunk + 3, 0.95j), (1500, -0.99)):
        got = nb.eval_shift_pair(seq, shift, z, tol=1e-12)
        want = reference_shift_pair(seq, shift, z, 1e-12, chunk)
        assert got == want
        assert _bits(got.fplus.value) == _bits(want.fplus.value)
        assert _bits(got.fminus) == _bits(want.fminus)
    win = seq.window(40, 30)
    for z in (0.9 + 0.1j, 1.3 - 0.4j, 0.5, 2.0):
        got, want = nb.eval_two_sided(win, z), reference_eval_two_sided(win, z, chunk=chunk)
        assert got == want and _bits(got.value) == _bits(want.value)
