"""Differential tests of the one chunked reader (``sequences._chunks``)
and of every consumer that takes its values from it, against the code
each consumer ran before: per-consumer chunk loops over ``read`` that took
the real part of real-valued sequences themselves.  The oracles below are
that code, verbatim but for a ``chunk`` argument that stands in for the
constant each loop had, and every test patches ``_CHUNK`` to the same
size, so chunk edges fall alike on both sides."""

import cmath
import io
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import nbscope as nb
from nbscope import analytic
from nbscope import rightlimits as rl
from nbscope import sequences as seqmod
from nbscope._util import ipow, kahan_complex_sum
from test_exact_scans import fold_skipped_tail

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
# The oracles: each consumer's own loop, as it was


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


def old_gap_certificate(seq, width, horizon, eps, delta, decay, chunk):
    """find_gap_certificate's scan; (hits, separation)."""
    h = seq.clamp_horizon(horizon)
    thr = rl._flank_thresholds(width, eps, decay)
    hits = []
    separation = math.inf
    for lo in range(width, h + 1, chunk):
        hi = min(lo + chunk, h + 1)
        seg = seq.read(lo - width, hi)
        ab = np.abs(seg.real if seq.real_valued else seg)
        ok = ab[width:] >= delta
        for k in range(1, width + 1):
            ok &= ab[width - k:hi - lo + width - k] <= thr[k - 1]
        found = np.flatnonzero(ok)
        if found.size:
            hits += (found + lo).tolist()
            separation = min(separation, float(ab[found + width].min()))
    return hits, separation


def old_periodicity(seq, max_period, max_preperiod, horizon, tol, chunk):
    if tol is None:
        tol = 0.0 if seq.exact else 1e-9
    h = seq.clamp_horizon(horizon)
    head = seq.read(0, max_preperiod + max_period)
    cands = {}
    for T in range(1, max_period + 1):
        viol = np.flatnonzero(np.abs(head[T:T + max_preperiod]
                                     - head[:max_preperiod]) > tol)
        cands[T] = (int(viol[-1]) + 1 if viol.size else 0, T)
    live = None
    step = dict.fromkeys(cands, max_period)
    above = np.empty(0)
    c1 = h + 1
    size = min(rl._KEY_CHUNK, chunk)
    while c1 > max_preperiod:
        c0 = max(max_preperiod, c1 - size)
        chunk_vals = seq.read(c0, c1)
        buf = np.concatenate((chunk_vals.real if seq.real_valued else chunk_vals,
                              above[:max_period]))
        if live is None:
            if c1 == h + 1:
                last = buf[-1]
            moving = np.flatnonzero(buf[:c1 - c0] != last)
            if moving.size:
                tail = c0 + int(moving[-1]) + 1
                live = {T: min(h + 1 - T, tail) for T in cands}
        for T in list(live or ()):
            if tol == 0 and any(T % d == 0 for d in live if d < T):
                live[T] = min(live[T], c0)
                continue
            hi = live[T]
            while hi > c0:
                lo = max(c0, hi - step[T])
                ahead, here = buf[lo - c0 + T:hi - c0 + T], buf[lo - c0:hi - c0]
                if (np.any(ahead != here) if tol == 0
                        else np.any(np.abs(ahead - here) > tol)):
                    del live[T]
                    break
                hi, step[T] = lo, 2 * step[T]
            else:
                live[T] = hi
        if live == {}:
            return None
        above, c1, size = buf, c0, min(2 * size, chunk)
    return min(cands[T] for T in (cands if live is None else live))


def old_extract(seq, width, horizon, chunk, eps=None, max_candidates=16,
                min_recurrence=3):
    h = seq.clamp_horizon(horizon)
    eps = rl._resolve_eps(seq, eps)
    arr = old_prefix(seq, h + 1, chunk)
    D = 2 * width + 1
    data = np.ascontiguousarray(arr.real) if seq.real_valued else arr
    wins = sliding_window_view(data, D)
    groups, first, _ = rl._group_rows(wins)
    by_first = np.argsort(first)
    starts = first[by_first]
    rows = wins[starts]
    key = rows[:, 0].real
    label, founders, truncated = rl._leader_clusters(
        key, np.argsort(key, kind="stable"), eps,
        lambda i, cand: np.abs(rows[cand] - rows[i]).max(axis=1) <= eps)
    cid = label[np.argsort(by_first)[groups]]
    kept = np.flatnonzero(cid >= 0)
    centers = (kept[np.argsort(cid[kept], kind="stable")] + width).tolist()
    ends = np.cumsum(np.bincount(cid[kept])).tolist()
    clusters = [(arr[f:f + D], centers[a:b]) for f, a, b
                in zip(starts[founders].tolist(), [0] + ends[:-1], ends)]
    order = sorted(range(len(clusters)), key=lambda i: (-len(clusters[i][1]), i))
    candidates = []
    for i in order:
        leader, mem = clusters[i]
        if len(mem) < min_recurrence:
            break
        win = nb.TwoSidedWindow(tuple(complex(v) for v in leader), width,
                                {"kind": "cluster", "indices": tuple(mem)},
                                eps=eps, bound=seq.bound)
        candidates.append(rl.RightLimitCandidate(win, tuple(mem), eps))
        if max_candidates and len(candidates) >= max_candidates:
            break
    return rl.ExtractResult(candidates=candidates, clusters_total=len(clusters),
                            windows_scanned=h + 2 - D, truncated=truncated)


def old_szego(seq, p_max, horizon, chunk, max_period=64, max_preperiod=64):
    h = seq.clamp_horizon(horizon)
    arr = old_prefix(seq, h + 1, chunk)
    values = np.unique(arr).tolist()
    nv = len(values)
    data = np.ascontiguousarray(arr.real) if seq.real_valued else arr
    per_p: dict = {}
    all_witness = True
    for p in range(1, p_max + 1):
        blocks = (h + 1) // p
        needed = nv ** p + 1
        if blocks < needed:
            per_p[p] = (f"skipped: {blocks} aligned blocks available, "
                        f"{needed} needed to guarantee recurrence")
            all_witness = False
            continue
        groups, first, _ = rl._group_rows(data[:blocks * p].reshape(blocks, p))
        repeated = first[np.bincount(groups) > 1]
        i = int(repeated.min())
        j = int(np.flatnonzero(groups == groups[i])[1])
        P, Q = i * p, j * p
        off = np.flatnonzero(data[P + p:P + h + 1 - Q] != data[Q + p:h + 1])
        witness = rl.SzegoWitness(p, P, Q, int(off[0]) + p + 1) if off.size else None
        if witness is None:
            per_p[p] = "no mismatch within horizon"
            all_witness = False
        else:
            per_p[p] = witness
    if all_witness:
        return rl.SzegoReport(per_p, "mismatch-at-every-p", None, tuple(values), h)
    mp = min(max_period, max(1, h // 3))
    mpp = min(max_preperiod, max(0, h - 2 * mp))
    found = old_periodicity(seq, mp, mpp, h, 0.0, chunk)
    if found is not None:
        return rl.SzegoReport(per_p, "eventually-periodic", found, tuple(values), h)
    return rl.SzegoReport(per_p, "horizon-exhausted", None, tuple(values), h)


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
        seq._block = lambda lo, hi: np.full(hi - lo, 2.5)
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
# Every consumer against its old loop


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
        want, sep = old_gap_certificate(seq, width, 2500, eps, delta, decay, chunk)
        got = nb.find_gap_certificate(seq, width, 2500, eps=eps, delta=delta,
                                      decay=decay, min_recurrence=1)
        assert (list(got.witnesses) if got else []) == want
        if want:
            assert got.separation == sep


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_periodicity_scan_matches_its_loop(name, chunk, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    seq = _make(name)
    for mp, mpp, tol in ((8, 8, None), (16, 4, 0.0), (7, 10, 0.3), (3, 0, 1.5)):
        assert (nb.detect_eventual_periodicity(seq, mp, mpp, 2999, tol)
                == old_periodicity(seq, mp, mpp, 2999, tol, chunk))


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_extraction_matches_its_loop(name, chunk, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    seq = _make(name)
    for width, eps in ((2, None), (3, 0.1), (1, 0.0)):
        got = nb.extract_right_limits(seq, width, 2000, eps=eps, max_candidates=0)
        want = old_extract(seq, width, 2000, chunk, eps=eps, max_candidates=0)
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
        want = fold_skipped_tail(old_szego(seq, p_max, horizon, chunk), p_max)
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
