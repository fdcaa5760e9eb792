"""Differential tests of the early-exit periodicity scan, the block
analysis and the gap search's flank loop against the full-array code they
replaced, of the chunked gap and periodicity scans against the
whole-prefix code they replaced, of the upward periodicity scan against
the top-down scan it replaced, and of the counted block witnesses and the
rank-coded exact pair keys against the lexsort grouping of raw values
they replaced."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import nbscope as nb
from nbscope import rightlimits as rl
from nbscope import sequences as seqmod


def reference_periodicity(seq, max_period, max_preperiod, horizon, tol=None):
    """The full-array loop that detect_eventual_periodicity replaced, verbatim."""
    if max_period < 1:
        raise nb.SequenceError("max_period must be >= 1")
    if tol is None:
        tol = 0.0 if seq.exact else 1e-9
    h = seq.clamp_horizon(horizon)
    if h < max_preperiod + 2 * max_period:
        raise nb.SequenceError(
            f"horizon {h} < max_preperiod + 2*max_period = "
            f"{max_preperiod + 2 * max_period}")
    arr = seq.prefix(h + 1)
    best = None
    for T in range(1, max_period + 1):
        d = np.abs(arr[T:] - arr[:-T])
        viol = np.nonzero(d > tol)[0]
        need = int(viol[-1]) + 1 if viol.size else 0
        if need <= max_preperiod:
            cand = (need, T)
            if best is None or cand < best:
                best = cand
    return best


def reference_szego(seq, p_max, horizon, max_period=64, max_preperiod=64):
    """The per-block dict loop and scalar mismatch walk that
    szego_block_analysis replaced, verbatim (its periodicity fallback uses
    the reference scan above)."""
    h = seq.clamp_horizon(horizon)
    arr = seq.prefix(h + 1)
    values = sorted(set(arr.tolist()), key=lambda v: (v.real, v.imag))
    nv = len(values)

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
        first_seen: dict = {}
        best = None
        for ell in range(blocks):
            blk = arr[ell * p:(ell + 1) * p].tobytes()
            if blk in first_seen:
                cand = (first_seen[blk], ell)
                if best is None or cand < best:
                    best = cand
            else:
                first_seen[blk] = ell
        if best is None:
            raise nb.VerificationError("pigeonhole guarantee violated")
        P, Q = best[0] * p, best[1] * p
        witness = None
        j = p + 1
        while Q + j <= h + 1:
            if arr[P + j - 1] != arr[Q + j - 1]:
                witness = rl.SzegoWitness(p, P, Q, j)
                break
            j += 1
        if witness is None:
            per_p[p] = "no mismatch within horizon"
            all_witness = False
        else:
            per_p[p] = witness

    if all_witness:
        return rl.SzegoReport(per_p, "mismatch-at-every-p", None,
                              tuple(values), h)
    mp = min(max_period, max(1, h // 3))
    mpp = min(max_preperiod, max(0, h - 2 * mp))
    found = reference_periodicity(seq, mp, mpp, h, tol=0.0)
    if found is not None:
        return rl.SzegoReport(per_p, "eventually-periodic", found,
                              tuple(values), h)
    return rl.SzegoReport(per_p, "horizon-exhausted", None, tuple(values), h)


def lexsort_block_witnesses(seq, p_max, horizon):
    """rightlimits._block_witnesses as it grouped the blocks of values with
    one stable lexsort, verbatim."""
    if not seq.exact:
        raise nb.SequenceError(
            "block analysis needs exact-valued input (finite value set)")
    if p_max < 1:
        raise nb.SequenceError(f"p_max must be >= 1, got {p_max}")
    h = seq.clamp_horizon(horizon)
    data = seqmod._gather(seq, h + 1)
    values = tuple(complex(v) for v in np.unique(data).tolist())  # by re, then im
    nv = len(values)

    per_p: dict = {}
    for p in range(1, p_max + 1):
        blocks = (h + 1) // p
        needed = nv ** p + 1
        if blocks < needed:
            per_p[p] = (f"skipped: {blocks} aligned blocks available, "
                        f"{needed} needed to guarantee recurrence")
            continue
        # least pair: the repeated group whose first member (the least index,
        # since the lexsort is stable) is smallest, with its second member
        groups, first, _ = rl._group_rows(data[:blocks * p].reshape(blocks, p))
        repeated = first[np.bincount(groups) > 1]
        if repeated.size == 0:
            raise nb.VerificationError("pigeonhole guarantee violated")
        i = int(repeated.min())
        j = int(np.flatnonzero(groups == groups[i])[1])
        P, Q = i * p, j * p
        off = np.flatnonzero(data[P + p:P + h + 1 - Q] != data[Q + p:h + 1])
        per_p[p] = (rl.SzegoWitness(p, P, Q, int(off[0]) + p + 1) if off.size
                    else "no mismatch within horizon")
    every = all(isinstance(w, rl.SzegoWitness) for w in per_p.values())
    return rl.SzegoReport(per_p, "mismatch-at-every-p" if every else "horizon-exhausted",
                          None, values, h)


def _seq(values, kind=None):
    params = {"values": tuple(complex(v) for v in values)}
    if kind is not None:
        params["value_kind"] = kind
    return nb.make_sequence(nb.GeneratorSpec("explicit", params))


def _same_periodicity(seq, max_period, max_preperiod, horizon, tol=None):
    want = reference_periodicity(seq, max_period, max_preperiod, horizon, tol)
    assert topdown_periodicity(seq, max_period, max_preperiod, horizon, tol) == want
    got = nb.detect_eventual_periodicity(seq, max_period, max_preperiod,
                                         horizon, tol)
    assert got == want
    return want


def _eventually_periodic(head, block, length):
    reps = -(-(length - len(head)) // len(block))
    return list(head) + (list(block) * reps)[:length - len(head)]


# ---------------------------------------------------------------------------
# periodicity


@pytest.mark.parametrize("mpp", [0, 1, 8, 13])
def test_preperiod_at_and_past_the_limit(mpp):
    # head values never occur in the block, so the least preperiod is exactly
    # len(head): valid at mpp, invalid at mpp + 1
    for pre in (mpp - 1, mpp, mpp + 1):
        if pre < 0:
            continue
        for block in ([1, -1, 0], [2], [1j, 1, 1, -1, 0, 0, 2]):
            vals = _eventually_periodic(([5, 6] * pre)[:pre], block, 400)
            got = _same_periodicity(_seq(vals), 16, mpp, 399)
            assert got == ((pre, len(block)) if pre <= mpp else None)


@pytest.mark.parametrize("period", [1, 2, 5])
def test_violations_on_chunk_boundaries(period, monkeypatch):
    # one defect at every position in turn, with chunks of 4: a defect at
    # q > horizon - T violates only at q - T, and one at q < mpp + T only at
    # q + T, so for periods T up to 40 some lone violation falls on every
    # chunk edge
    monkeypatch.setattr(seqmod, "_CHUNK", 4)
    rng = np.random.default_rng(period)
    block = [int(v) for v in rng.integers(-2, 3, period)]
    base = _eventually_periodic([], block, 200)
    for q in range(len(base)):
        vals = list(base)
        vals[q] = 7
        for horizon in (199, 150):
            _same_periodicity(_seq(vals), 40, 6, horizon)


def test_gap_streams_near_the_end_and_constant_streams(monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", 8)
    length = 500
    for r in range(0, 40):
        for fill in (1, 1j, -2):
            vals = [0] * length
            for pos in (3, 40, 200, length - 1 - r):
                vals[pos] = fill
            _same_periodicity(_seq(vals), 32, 16, length - 1)
            _same_periodicity(_seq(vals), 32, 16, length - 1 - r // 2)
            # the same stream on a nonzero constant background
            back = [fill if v == 0 else 0 for v in vals]
            _same_periodicity(_seq(back), 32, 16, length - 1)
    for c in (0, 1, -1, 2 + 3j, 0.1):
        assert _same_periodicity(_seq([c] * 300, "exact-rational"),
                                 64, 64, 299) == (0, 1)


def test_gap_families_match_reference():
    for spec in (nb.gap_powers("factorials"), nb.gap_powers("squares", 1 + 1j),
                 nb.gap_powers(range(3, 4000, 7)), nb.gap_powers([5, 4093, 4095])):
        seq = nb.make_sequence(spec)
        for horizon in (4095, 5040, 5041, 20_000):
            _same_periodicity(seq, 64, 64, horizon)


@pytest.mark.parametrize("complex_data", [False, True])
def test_float_differences_at_tol_and_one_ulp_either_side(complex_data, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", 32)
    rng = np.random.default_rng(7 + complex_data)
    block = rng.uniform(-1, 1, 6)
    if complex_data:
        block = block + 1j * rng.uniform(-1, 1, 6)
    base = np.resize(block, 600)
    for q in (2, 5, 6, 7, 40, 300, 599):
        vals = base.copy()
        vals[q] += (0.3 + 0.2j) * 1e-3 if complex_data else 1e-3
        seq = _seq(vals, "float")
        for T in (6, 12):
            for n in (q - T, q):
                if 0 <= n and n + T < len(vals):
                    d = float(np.abs(vals[n + T] - vals[n]))
                    for tol in (d, np.nextafter(d, 0), np.nextafter(d, np.inf)):
                        _same_periodicity(seq, 16, 8, 599, tol=tol)
        _same_periodicity(seq, 16, 8, 599)          # default tol 1e-9


def test_complex_streams_match_reference(monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", 16)
    rng = np.random.default_rng(11)
    atoms = np.array([0, 1, 1j, -1j, 1 + 1j])
    for trial in range(30):
        head = atoms[rng.integers(0, 5, int(rng.integers(0, 20)))]
        block = atoms[rng.integers(0, 5, int(rng.integers(1, 9)))]
        vals = np.array(_eventually_periodic(head, block, 400))
        if trial % 3 == 0:
            vals[int(rng.integers(0, 400))] += 1j       # imaginary-only defect
        _same_periodicity(_seq(vals), 20, 24, 399)


def test_sequence_families_match_reference():
    for spec in (nb.rudin_shapiro(), nb.erdos("hard"), nb.periodic([1, -1, 0, 1j]),
                 nb.rotation(math.sqrt(2) % 1, 0.3)):
        seq = nb.make_sequence(spec)
        _same_periodicity(seq, 64, 64, 20_000)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_invalid_tolerance_rejected(tol):
    seq = nb.make_sequence(nb.periodic([1, -1]))
    with pytest.raises(nb.SequenceError):
        nb.detect_eventual_periodicity(seq, 8, 8, 1000, tol=tol)
    with pytest.raises(nb.SequenceError):
        nb.verdict(seq, nb.AnalysisConfig(horizon=1000, periodicity_tol=tol))


def test_negative_max_preperiod_rejected():
    seq = nb.make_sequence(nb.periodic([1, -1]))
    with pytest.raises(nb.SequenceError):
        nb.detect_eventual_periodicity(seq, 8, -1, 1000)


# ---------------------------------------------------------------------------
# block analysis


def _late_recurrence_stream(p, blocks, late, rng):
    """±1 stream of aligned p-blocks where block 0 recurs first at block
    ``late``: earlier blocks repeat one another, so the earliest repeat is
    not the least pair."""
    b0 = [1] * p
    out = [b0]
    while len(out) < blocks:
        blk = [int(v) for v in rng.choice([-1, 1], p)]
        if len(out) == late:
            blk = b0
        elif blk == b0 and len(out) < late:
            continue
        out.append(blk)
    return [v for blk in out for v in blk]


@pytest.mark.parametrize("p", range(1, 7))
def test_szego_block_zero_recurs_late(p):
    rng = np.random.default_rng(p)
    for late in (2 ** p + 1, 2 ** p + 40, 150):
        vals = _late_recurrence_stream(p, 160, late, rng)
        seq = _seq(vals)
        h = len(vals) - 1
        want = reference_szego(seq, p, h)
        got = nb.szego_block_analysis(seq, p, h)
        assert got.to_json_dict() == want.to_json_dict()
        w = want.per_p[p]
        assert isinstance(w, rl.SzegoWitness) and (w.first, w.second) == (0, late * p)


def test_szego_matches_reference_on_streams():
    rng = np.random.default_rng(5)
    cases = [
        (nb.make_sequence(nb.rudin_shapiro()), 8, 6000),
        (nb.make_sequence(nb.erdos("hard")), 8, 6000),
        (nb.make_sequence(nb.periodic([1, -1, 0])), 4, 2000),
        (nb.make_sequence(nb.gap_powers("squares")), 6, 3000),
        (nb.sample_process(nb.iid_process([0.0, 1.0, 1j], [0.5, 0.3, 0.2],
                                          seed=5), 4001), 6, 4000),
        (nb.sample_process(nb.markov_process([-1.0, 1.0], [[0.9, 0.1], [0.2, 0.8]],
                                             seed=9), 4001), 8, 4000),
        # eventually periodic: the mismatch walk runs to the horizon
        (_seq(_eventually_periodic([2, 0, 2], [1, -1, -1, 1, 0], 3000)), 6, 2999),
        (_seq(_eventually_periodic([0j] * 7, [1j, 1], 3000)), 6, 2999),
    ]
    # the streams after the least pair first differ at or near the horizon
    for back in range(6):
        vals = _eventually_periodic([2, 0, 2], [1, -1, -1, 1, 0], 1200)
        vals[len(vals) - 1 - back] = 2
        cases.append((_seq(vals), 6, 1199))
    for _ in range(6):
        n = int(rng.integers(200, 3000))
        cases.append((_seq(rng.choice([-1, 0, 1], n)), 5, n - 1))
    for seq, p_max, h in cases:
        want = reference_szego(seq, p_max, h)
        got = nb.szego_block_analysis(seq, p_max, h)
        assert got.to_json_dict() == want.to_json_dict()


# value sets of 1 to 5 values: real, with 1j, and complex only
_ALPHABETS = [[0], [1j], [-1, 1], [1j, -1j], [0, 1, 1j], [1 + 1j, 2j, -1 - 1j],
              [-1, 0, 1, 2], [0.5, 1j, -1j, 1 + 1j, -2]]


def _same_block_witnesses(values, p_max):
    seq = _seq(values)
    h = len(values) - 1
    got = rl._block_witnesses(seq, p_max, h)
    assert got == lexsort_block_witnesses(seq, p_max, h)
    return got


def _alphabet_stream(alphabet, length, rng):
    """Every value of the alphabet once, then seeded draws from it."""
    picks = rng.integers(0, len(alphabet), max(0, length - len(alphabet)))
    return (list(alphabet) + [alphabet[k] for k in picks])[:length]


@pytest.mark.parametrize("alphabet", _ALPHABETS, ids=str)
def test_counted_blocks_match_lexsort_when_blocks_just_suffice(alphabet):
    # blocks = nv^p + 1 (the least count analysed, some with a spare value
    # past the last block) and nv^p (skipped)
    rng = np.random.default_rng(len(alphabet))
    nv = len(alphabet)
    for p in range(1, 11):
        need = p * (nv ** p + 1)
        if need > 12_000:
            break
        for length in (need, need + p - 1, need - 1):
            got = _same_block_witnesses(_alphabet_stream(alphabet, length, rng), p)
            assert len(got.value_set) == nv
            assert str(got.per_p[p]).startswith("skipped") == (length < need)


@pytest.mark.parametrize("alphabet", _ALPHABETS, ids=str)
def test_counted_blocks_match_lexsort_on_seeded_streams(alphabet):
    rng = np.random.default_rng(100 + len(alphabet))
    for _ in range(4):
        length = int(rng.integers(2, 12_000))
        _same_block_witnesses(_alphabet_stream(alphabet, length, rng), 10)
    # eventually periodic tails: no mismatch within the horizon
    head = _alphabet_stream(alphabet, 5, rng)
    block = _alphabet_stream(alphabet, int(rng.integers(1, 7)), rng)
    for length in (40, 1000, 5003):
        got = _same_block_witnesses(_eventually_periodic(head, block, length), 10)
        assert length == 40 or "no mismatch within horizon" in got.per_p.values()


@pytest.mark.parametrize("p", range(1, 5))
def test_counted_blocks_least_pair_is_not_the_earliest_repeat(p):
    # blocks A B C B A ...: B repeats first, but A is the least block that recurs
    rng = np.random.default_rng(40 + p)
    alphabet = [0, 1, 1j]
    while True:
        a, b, c = ([alphabet[k] for k in rng.integers(0, 3, p)] for _ in range(3))
        if len({tuple(a), tuple(b), tuple(c)}) == 3:
            break
    vals = a + b + c + b + a + _alphabet_stream(alphabet, p * (3 ** p + 4), rng)
    w = _same_block_witnesses(vals, p).per_p[p]
    assert isinstance(w, rl.SzegoWitness) and (w.first, w.second) == (0, 4 * p)


@pytest.mark.parametrize("nv", [255, 256, 257, 300])
def test_counted_blocks_with_wide_rank_codes(nv):
    # above 256 values the ranks need two bytes
    rng = np.random.default_rng(nv)
    alphabet = [complex(k % 17, k // 17) for k in range(nv)]
    got = _same_block_witnesses(_alphabet_stream(alphabet, 5000, rng), 3)
    assert len(got.value_set) == nv and isinstance(got.per_p[1], rl.SzegoWitness)


def test_whole_prefix_scans_refuse_past_the_term_cap_before_reading(monkeypatch):
    monkeypatch.setattr(rl, "_gather", lambda *a: pytest.fail("prefix read"))
    rs, soft = nb.make_sequence(nb.rudin_shapiro()), nb.make_sequence(nb.erdos("soft"))
    for call, stage in ((lambda h: rl._block_witnesses(rs, 3, h), "block analysis"),
                        (lambda h: nb.szego_block_analysis(rs, 3, h), "block analysis"),
                        (lambda h: nb.extract_right_limits(soft, 3, h, eps=0.1),
                         "window extraction")):
        with pytest.raises(nb.NumericCapError, match=f"{stage} of 100000000001 values "
                                                     "exceeds the cap 100000000"):
            call(10 ** 11)
        with pytest.raises(nb.NumericCapError):
            call(rl.TERM_CAP)


def test_term_cap_on_whole_prefix_scans_is_inclusive(monkeypatch):
    monkeypatch.setattr(rl, "TERM_CAP", 60)
    seq = _seq([1, -1, 1, 1] * 20)
    assert rl._block_witnesses(seq, 2, 59).horizon == 59
    assert nb.extract_right_limits(seq, 2, 59).windows_scanned == 56
    # a finite sequence's horizon is clamped before the cap applies
    assert rl._block_witnesses(_seq([1, -1] * 30), 2, 10 ** 11).horizon == 59
    for call in (lambda: rl._block_witnesses(seq, 2, 60),
                 lambda: nb.extract_right_limits(seq, 2, 60)):
        with pytest.raises(nb.NumericCapError, match="of 61 values exceeds the cap 60"):
            call()


# ---------------------------------------------------------------------------
# Gap search: one flank loop serves the plain and the decay thresholds


def reference_gap_hits(seq, width, horizon, eps, delta):
    """Hits of the plain (decay-free) gap scan as the sliding-window maximum
    it replaced computed them, verbatim."""

    h = seq.clamp_horizon(horizon)
    ab = np.abs(seq.prefix(h + 1))
    fl = sliding_window_view(ab, width).max(axis=1)  # fl[i] = max ab[i:i+W]
    ok = fl[: h + 1 - width] <= eps
    centers = np.arange(width, h + 1)
    return centers[ok & (ab[centers] >= delta)]


def _gap_witnesses(seq, width, horizon, eps, delta):
    cert = rl.find_gap_certificate(seq, width, horizon, eps=eps, delta=delta,
                                   min_recurrence=1)
    return () if cert is None else cert.witnesses


@pytest.mark.parametrize("width", range(1, 7))
def test_gap_loop_matches_sliding_window_maximum(width):
    families = [nb.gap_powers("factorials", 1), nb.gap_powers("squares", 1),
                nb.gap_powers([3, 4, 9, 17, 18, 19, 40, 47, 90], 1), nb.erdos("hard")]
    for spec in families:
        seq = nb.make_sequence(spec)
        for horizon in (width, 200, 20_000):
            want = reference_gap_hits(seq, width, horizon, 0.0, 0.5)
            assert _gap_witnesses(seq, width, horizon, 0.0, 0.5) == tuple(want.tolist())
    rng = np.random.default_rng(width)
    small = rng.random(3000) * 0.1
    big = 0.5 + rng.random(3000) * 0.5
    vals = np.where(rng.random(3000) < 0.15, big, small)
    if width % 2:
        vals = vals * np.exp(1j * rng.random(3000) * 6.0)
    seq = nb.make_sequence(nb.explicit(vals))
    ab = np.abs(seq.prefix(3000))
    for level in np.sort(ab[ab < 0.1])[::150]:
        for eps in (np.nextafter(level, 0.0), level, np.nextafter(level, 1.0)):
            want = reference_gap_hits(seq, width, 2999, float(eps), 0.45)
            got = _gap_witnesses(seq, width, 2999, float(eps), 0.45)
            assert got == tuple(want.tolist()), (width, eps)


# ---------------------------------------------------------------------------
# Chunked reads: the gap and periodicity scans against the whole-prefix code
# they replaced, with the read chunk patched to 1, 7 and 4096 values


def whole_prefix_periodicity(seq, max_period, max_preperiod, horizon, tol=None):
    """detect_eventual_periodicity as it read one whole prefix, verbatim."""
    if max_period < 1:
        raise nb.SequenceError("max_period must be >= 1")
    if max_preperiod < 0:
        raise nb.SequenceError("max_preperiod must be >= 0")
    if tol is None:
        tol = 0.0 if seq.exact else 1e-9
    if not (math.isfinite(tol) and tol >= 0):
        raise nb.SequenceError(
            f"periodicity tolerance must be finite and >= 0, got {tol}")
    h = seq.clamp_horizon(horizon)
    if h < max_preperiod + 2 * max_period:
        raise nb.SequenceError(
            f"horizon {h} < max_preperiod + 2*max_period = "
            f"{max_preperiod + 2 * max_period}")
    arr = seq.prefix(h + 1)
    # from `tail` on the sequence is exactly constant, so every comparison
    # there is |c - c| = 0 <= tol and cannot violate
    moving = np.flatnonzero(arr != arr[-1])
    tail = int(moving[-1]) + 1 if moving.size else 0
    best = None
    for T in range(1, max_period + 1):
        # the preperiod a valid T needs comes from the head alone; the scan
        # past the head only decides validity, so it runs only for a T that
        # would improve on the best candidate
        viol = np.flatnonzero(np.abs(arr[T:T + max_preperiod]
                                     - arr[:max_preperiod]) > tol)
        cand = (int(viol[-1]) + 1 if viol.size else 0, T)
        if ((best is None or cand < best)
                and _whole_prefix_holds_from(arr, T, max_preperiod,
                                             min(h + 1 - T, tail), tol)):
            best = cand
    return best


def _whole_prefix_holds_from(arr, T, lo, hi, tol):
    """Whether |arr[n+T] - arr[n]| <= tol for every n in [lo, hi), scanned
    backwards in doubling chunks so that a violation near the end (the usual
    case for a wrong period) is found after one small chunk."""
    size = rl._KEY_CHUNK
    while hi > lo:
        c0 = max(lo, hi - size)
        if np.any(np.abs(arr[c0 + T:hi + T] - arr[c0:hi]) > tol):
            return False
        hi, size = c0, 2 * size
    return True


def topdown_periodicity(seq, max_period, max_preperiod, horizon, tol=None):
    """detect_eventual_periodicity as it scanned from the top down, with a
    constant-tail search and per-period backward steps, verbatim."""
    if max_period < 1:
        raise nb.SequenceError("max_period must be >= 1")
    if max_preperiod < 0:
        raise nb.SequenceError("max_preperiod must be >= 0")
    if tol is None:
        tol = 0.0 if seq.exact else 1e-9
    if not (math.isfinite(tol) and tol >= 0):
        raise nb.SequenceError(
            f"periodicity tolerance must be finite and >= 0, got {tol}")
    h = seq.clamp_horizon(horizon)
    if h < max_preperiod + 2 * max_period:
        raise nb.SequenceError(
            f"horizon {h} < max_preperiod + 2*max_period = "
            f"{max_preperiod + 2 * max_period}")
    # the preperiod a valid T needs comes from the head alone; the scan
    # past the head only decides which T are valid
    head = seq._read(0, max_preperiod + max_period)
    cands = {}
    for T in range(1, max_period + 1):
        viol = np.flatnonzero(np.abs(head[T:T + max_preperiod]
                                     - head[:max_preperiod]) > tol)
        cands[T] = (int(viol[-1]) + 1 if viol.size else 0, T)

    # A valid T has no violation at n >= max_preperiod.  From `tail` on the
    # sequence is exactly constant, so every comparison there is
    # |c - c| = 0 <= tol and cannot violate.  The chunks, which double
    # from _KEY_CHUNK values, are first searched for the tail, then each
    # live T is checked below it, backwards in steps that double from
    # max_period values, so that a violation near the end (the usual case
    # for a wrong T) costs one small step.
    live = None         # T -> end of its still unchecked range of n
    step = dict.fromkeys(cands, max_period)
    above = np.empty(0)
    c1 = h + 1
    size = min(rl._KEY_CHUNK, seqmod._CHUNK)
    while c1 > max_preperiod:
        c0 = max(max_preperiod, c1 - size)
        # a_{c0} .. a_{c1+max_period-1}: the top max_period values come
        # from the chunk above, so each index is read once (real values
        # compare and subtract as their complex forms do)
        buf = np.concatenate((seq._read(c0, c1), above[:max_period]))
        if live is None:
            if c1 == h + 1:
                last = buf[-1]
            moving = np.flatnonzero(buf[:c1 - c0] != last)
            if moving.size:
                tail = c0 + int(moving[-1]) + 1
                live = {T: min(h + 1 - T, tail) for T in cands}
        for T in list(live or ()):
            if tol == 0 and any(T % d == 0 for d in live if d < T):
                # exact equality chains: a live divisor d of T has
                # a_{n+d} = a_n for every n checked so far, which gives
                # a_{n+T} = a_n on this chunk too
                live[T] = min(live[T], c0)
                continue
            hi = live[T]
            while hi > c0:
                lo = max(c0, hi - step[T])
                ahead, here = buf[lo - c0 + T:hi - c0 + T], buf[lo - c0:hi - c0]
                # at tol = 0, |x - y| > 0 exactly when x != y (finite values)
                if (np.any(ahead != here) if tol == 0
                        else np.any(np.abs(ahead - here) > tol)):
                    del live[T]
                    break
                hi, step[T] = lo, 2 * step[T]
            else:
                live[T] = hi
        if live == {}:
            return None
        above, c1, size = buf, c0, min(2 * size, seqmod._CHUNK)
    return min(cands[T] for T in (cands if live is None else live))


def whole_prefix_gap_certificate(seq, width, horizon, eps=None, delta=0.5,
                                 decay=None, min_recurrence=3):
    """find_gap_certificate as it read one whole prefix, verbatim."""
    if width < 1:
        raise nb.SequenceError("flank width must be >= 1")
    rl._check_min_recurrence(min_recurrence)
    eps = rl._resolve_eps(seq, eps)
    rl._check_tolerances(eps, delta)
    h = seq.clamp_horizon(horizon)
    if h < width:
        raise nb.SequenceError("horizon smaller than flank width")
    ab = np.abs(seq.prefix(h + 1))

    thr = rl._flank_thresholds(width, eps, decay)
    ok = np.ones(h + 1 - width, dtype=bool)
    for k in range(1, width + 1):
        # flank offset -k of center n = index n-k; centers n = width..h
        ok &= ab[width - k: h + 1 - k] <= thr[k - 1]
    centers = np.arange(width, h + 1)
    hits = centers[ok & (ab[centers] >= delta)]
    if hits.size < min_recurrence:
        return None
    return rl.NonReflectionlessCertificate(
        kind="GapZeroFlank",
        witnesses=tuple(int(n) for n in hits),
        flank_side="backward",
        flank_width=width,
        eps=eps,
        delta=delta,
        separation=float(np.min(ab[hits])),
        decay=None if decay is None else (float(decay[0]), float(decay[1])),
    )


CHUNKS = (1, 7, 4096)

FAMILY_SPECS = {
    "gap-factorials": nb.gap_powers("factorials"),
    "gap-squares-complex": nb.gap_powers("squares", 1 + 1j),
    "gap-custom": nb.gap_powers(range(3, 4000, 7)),
    "gap-edges": nb.gap_powers([6, 7, 13, 14, 20, 27, 34, 41, 48, 400, 406, 407]),
    "rudin-shapiro": nb.rudin_shapiro(),
    "erdos-hard": nb.erdos("hard"),
    "erdos-soft": nb.erdos("soft"),
    "periodic": nb.periodic([1, -1, 0, 1j]),
    "rotation-frac": nb.rotation(math.sqrt(2) % 1, 0.3),
    "rotation-half": nb.rotation(math.sqrt(10) % 1, 0.05, "half-indicator"),
}


def _spiky_stream(seed, length, complex_data):
    """Mostly small values with large spikes: gap hits, and flanks broken
    by a spike or by a small value just over eps, fall on every chunk edge."""
    rng = np.random.default_rng(seed)
    vals = np.where(rng.random(length) < 0.2, 0.5 + rng.random(length) * 0.5,
                    np.where(rng.random(length) < 0.7, 0.0, rng.random(length) * 0.1))
    if complex_data:
        vals = vals * np.exp(1j * rng.random(length) * 6.0)
    return _seq(vals, "float")


def _same_gap(seq, width, horizon, **kw):
    want = whole_prefix_gap_certificate(seq, width, horizon, **kw)
    got = rl.find_gap_certificate(seq, width, horizon, **kw)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.to_json_dict() == want.to_json_dict()
        assert got.separation == want.separation
    return want


@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunked_gap_search_matches_whole_prefix(chunk, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    horizon = 1500 if chunk == 1 else 9000
    for spec in FAMILY_SPECS.values():
        seq = nb.make_sequence(spec)
        for width in (1, 3, 5):
            _same_gap(seq, width, horizon, min_recurrence=1)
            _same_gap(seq, width, horizon, eps=0.05, delta=0.45, decay=(0.8, 0.5))
    for seed, complex_data in ((1, False), (2, True)):
        seq = _spiky_stream(seed, 3000, complex_data)
        for width in (1, 2, 4):
            for eps in (0.0, 0.03, 0.1):
                _same_gap(seq, width, 2999, eps=eps, delta=0.45, min_recurrence=1)
            _same_gap(seq, width, 2999, eps=0.01, delta=0.45, decay=(0.3, 0.7))


def _same_chunked_periodicity(seq, max_period, max_preperiod, horizon, tol=None):
    want = whole_prefix_periodicity(seq, max_period, max_preperiod, horizon, tol)
    assert nb.detect_eventual_periodicity(seq, max_period, max_preperiod,
                                          horizon, tol) == want
    return want


@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunked_periodicity_matches_whole_prefix_on_families(chunk, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    horizon = 700 if chunk == 1 else 20_000
    for spec in FAMILY_SPECS.values():
        seq = nb.make_sequence(spec)
        _same_chunked_periodicity(seq, 16, 16, horizon)
        _same_chunked_periodicity(seq, 16, 16, horizon, tol=0.0)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunked_periodicity_edges_tails_and_divisors(chunk, monkeypatch):
    # with chunks of 7 below index 300 the chunk edges are 293, 286, ...:
    # defects, and the start of a constant tail, land on and beside them;
    # periods 2 and 3 have live multiples, which exact equality vouches for
    # while a divisor lives and which are checked again once it dies
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    found = set()
    for period in (1, 2, 3, 6):
        block = [complex(v) for v in rng.choice([-1, 0, 1, 1j], period)]
        if period > 1:
            block[0] = 2            # no shorter period
        for pre in (0, 5, 12):
            base = _eventually_periodic([3] * pre, block, 300)
            found.add(_same_chunked_periodicity(_seq(base), 24, 12, 299))
            for q in (299, 298, 293, 292, 287, 286, 250, 40, 13, 12, 11):
                vals = list(base)
                vals[q] = 5
                found.add(_same_chunked_periodicity(_seq(vals), 24, 12, 299))
            for t in (293, 292, 286, 100, 13, 12):
                vals = base[:t] + [7] * (300 - t)
                found.add(_same_chunked_periodicity(_seq(vals), 24, 12, 299))
    assert {(0, 2), (5, 3), (12, 6)} <= found


@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunked_periodicity_float_tolerance(chunk, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    rng = np.random.default_rng(31)
    block = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
    base = np.resize(block, 400)
    for q in (399, 392, 300, 50, 20):
        vals = base.copy()
        vals[q] += 1e-3
        seq = _seq(vals, "float")
        for tol in (None, 1e-3, float(np.abs(vals[q] - vals[q - 4])),
                    float(np.nextafter(np.abs(vals[q] - vals[q - 4]), 0))):
            _same_chunked_periodicity(seq, 16, 16, 399, tol=tol)
    # steps of 0.6 tol pass period 1 and fail period 2 (1.2 tol) past the
    # head, while in the head only period 1 fails (its last violation, a
    # step of 1.5 tol at n = 3, is undone by the next step): a live
    # divisor vouches for its multiples only under exact equality
    tol = 1e-3
    vals = [0.0, 0.0, 0.75, 0.0, 1.5, 0.75, 0.75, 0.75]
    vals += [0.75 + 0.6 * k for k in range(392)]
    assert _same_chunked_periodicity(_seq(np.array(vals) * tol, "float"),
                                     8, 8, 399, tol=tol) == (4, 1)


def _counted(spec):
    """A fresh sequence of ``spec`` whose block reads are recorded."""
    seq = nb.make_sequence(spec)
    reads = []
    block = seq._block

    def counting(lo, hi):
        reads.append((lo, hi))
        return block(lo, hi)

    seq._block = counting
    return seq, reads


@pytest.mark.parametrize("chunk", [7, 4096])
def test_periodicity_reads_each_index_once(chunk, monkeypatch):
    # the head [0, mpp + mp) is read once; the chunks from the head upward
    # overlap it by max_period values and each other not at all
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    mp, mpp = 16, 10
    for spec, horizon in ((nb.gap_powers("factorials"), 20_000),
                          (nb.periodic([1, 0, 0, -1]), 3000),
                          (nb.periodic([1, 1j]), 3000),
                          (nb.rudin_shapiro(), 3000)):
        seq, reads = _counted(spec)
        nb.detect_eventual_periodicity(seq, mp, mpp, horizon)
        counts = np.zeros(horizon + 1, dtype=np.int64)
        for lo, hi in reads:
            counts[lo:hi] += 1
        assert counts[:mpp].max() <= 1 and counts[mpp + mp:].max() <= 1
        assert counts[mpp:mpp + mp].max() <= 2
        # no read is longer than the head or a chunk, plus max_period
        assert max(hi - lo for lo, hi in reads) <= max(mpp, chunk) + mp


def _same_forward(seq, max_period, max_preperiod, horizon, tol=None):
    want = topdown_periodicity(seq, max_period, max_preperiod, horizon, tol)
    assert nb.detect_eventual_periodicity(seq, max_period, max_preperiod,
                                          horizon, tol) == want
    return want


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("mp, mpp", [(20, 6), (6, 20), (12, 12)])
def test_forward_scan_matches_top_down_on_defects_and_tails(chunk, mp, mpp,
                                                            monkeypatch):
    # a defect at q, or a constant tail from q, at every index near the
    # bottom and near the top: a defect at q kills a divisor d of T at
    # x = q but T only at x = q + T when q - T < mpp, so d dies a chunk
    # before the multiple it vouched for has to be checked again
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    h = 199
    rng = np.random.default_rng(chunk + mp)
    found = set()
    for period in (1, 2, 3, 4):
        block = [complex(v) for v in rng.choice([-1, 0, 1, 1j], period)]
        block[0] = 2                # no shorter period
        base = _eventually_periodic([3] * 4, block, h + 1)
        for q in (*range(mpp, mpp + 2 * mp + 2), *range(h - mp - 1, h + 1)):
            vals = list(base)
            vals[q] = 5j if q % 2 else 5
            found.add(_same_forward(_seq(vals), mp, mpp, h))
            found.add(_same_forward(_seq(base[:q] + [block[0]] * (h + 1 - q)),
                                    mp, mpp, h))
    assert any(f is not None and f[1] > 1 for f in found)
    assert None in found


@pytest.mark.parametrize("chunk", CHUNKS)
def test_forward_scan_tolerance_with_live_multiples(chunk, monkeypatch):
    # noise under tol keeps period 3 and all its multiples live, each
    # checked on its own (no divisor vouches when tol > 0); one step above
    # tol at q ends them where its comparisons fall
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    tol = 1e-3
    rng = np.random.default_rng(chunk)
    block = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    base = np.resize(block, 300) + rng.uniform(0, tol / 2, 300)
    assert _same_forward(_seq(base, "float"), 24, 8, 299, tol=tol) == (0, 3)
    for q in (8, 11, 20, 31, 32, 40, 150, 280, 290, 299):
        for step in (0.9 * tol, 1.2 * tol, 3 * tol):
            vals = base.copy()
            vals[q] += step
            _same_forward(_seq(vals, "float"), 24, 8, 299, tol=tol)
            _same_forward(_seq(vals, "float"), 8, 24, 299, tol=tol)


def test_gap_family_periodicity_reads_the_head_and_at_most_two_chunks():
    seq, reads = _counted(nb.gap_powers("factorials"))
    assert nb.detect_eventual_periodicity(seq, 64, 64, 10 ** 12) is None
    assert reads[0] == (0, 128) and len(reads) <= 3
    assert all(hi - lo <= seqmod._CHUNK for lo, hi in reads[1:])


def test_gap_check_reads_only_near_its_witnesses():
    # witnesses 10^6 apart are checked by one small read each, never by a
    # read of the span between them
    seq, reads = _counted(nb.gap_powers([10, 10 ** 6, 10 ** 9, 10 ** 12]))
    cert = rl.NonReflectionlessCertificate(
        kind="GapZeroFlank", witnesses=(10, 10 ** 6, 10 ** 9, 10 ** 12),
        flank_side="backward", flank_width=5, eps=0.0, delta=0.5, separation=1.0)
    assert cert.verify(seq)
    assert sorted(reads) == [(n - 5, n + 1) for n in cert.witnesses]
    seq, reads = _counted(nb.gap_powers("factorials"))
    cert = rl.find_gap_certificate(seq, 3, 10 ** 6)
    reads.clear()
    assert cert.verify(seq)
    # 6, 24, 120 and 720 are close neighbours; the others stand alone
    assert reads == [(3, 721)] + [(n - 3, n + 1) for n in (5040, 40320, 362880)]


def old_span_rows(seq, centers, offsets):
    """_span_rows as it grouped centers in a Python loop, verbatim."""
    out = np.empty((len(centers), len(offsets)), dtype=complex)
    o0, span = int(offsets[0]), int(offsets[-1]) - int(offsets[0]) + 1
    order = sorted(range(len(centers)), key=centers.__getitem__)
    srt = [int(centers[k]) for k in order]
    i = 0
    while i < len(srt):
        j = i + 1
        while (j < len(srt) and srt[j] - srt[j - 1] <= rl._WITNESS_GAP
               and srt[j] - srt[i] + span <= seqmod._CHUNK):
            j += 1
        lo = srt[i] + o0
        vals = seq.read(lo, srt[j - 1] + o0 + span)
        rel = np.asarray(srt[i:j], dtype=np.int64) - lo
        out[order[i:j]] = vals[rel[:, None] + offsets]
        i = j
    return out


@pytest.mark.parametrize("chunk, gap", [(7, 1), (16, 3), (64, 8), (4096, 1024)])
@pytest.mark.parametrize("offsets", [np.arange(-3, 1), np.arange(4), np.arange(12)])
def test_span_rows_matches_the_loop_it_replaced(monkeypatch, chunk, gap, offsets):
    # steps of 0 (duplicates), at and either side of the gap, and at and
    # either side of a chunk's reach (chunk - span, which is negative when
    # the span is longer than a chunk), shuffled
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    monkeypatch.setattr(rl, "_WITNESS_GAP", gap)
    reach = abs(chunk - len(offsets))
    steps = sorted({0, 1, gap - 1, gap, gap + 1, 2 * gap, reach - 1, reach, reach + 1})
    rng = np.random.default_rng(chunk * 100 + len(offsets))
    for _ in range(20):
        centers = 3 + np.cumsum(rng.choice(steps, size=int(rng.integers(0, 40))))
        centers = [int(c) for c in rng.permutation(centers)]
        got_seq, got_reads = _counted(nb.rudin_shapiro())
        want_seq, want_reads = _counted(nb.rudin_shapiro())
        got = rl._span_rows(got_seq, centers, offsets)
        want = old_span_rows(want_seq, centers, offsets)
        assert got_reads == want_reads
        assert got.shape == want.shape and np.array_equal(got, want)
        assert all(np.array_equal(got[k], want_seq.read(c + offsets[0], c + offsets[-1] + 1))
                   for k, c in enumerate(centers))


def test_verdict_certificates_leave_the_prefix_cache_empty():
    for spec, horizon in ((nb.gap_powers("factorials"), 10 ** 6),
                          (nb.gap_powers("squares", 1 + 1j), 10 ** 5),
                          (nb.rudin_shapiro(), 10 ** 5),
                          (nb.erdos("hard"), 10 ** 5)):
        seq, reads = _counted(spec)
        v = nb.verdict(seq, nb.AnalysisConfig(horizon=horizon))
        assert v.certificate is not None
        # no read is longer than a chunk plus the flanks around it
        assert max(hi - lo for lo, hi in reads) <= seqmod._CHUNK + 64


# ---------------------------------------------------------------------------
# Exact pair keys: rank codes against the raw values they replaced


def raw_chunk_keys(data, width, off, eps, c0, c1):
    """rightlimits._chunk_keys at eps = 0 as it grouped the raw flank
    values, verbatim."""
    assert eps == 0.0
    seg = data[c0 + off:c1 - 1 + off + width]       # every flank of the chunk
    cen = data[c0:c1]
    rows = keys = sliding_window_view(seg, width)
    cells = cen
    groups, first, order = rl._group_rows(keys)
    return groups, [rows[i].tobytes() for i in first.tolist()], cells, order


def _exact_pair_streams():
    rng = np.random.default_rng(23)
    spikes = np.zeros(3000)
    spikes[rng.integers(0, 3000, 400)] = rng.choice([1.0, -1.0, 2.5], 400)
    return [
        ("rudin-shapiro", nb.make_sequence(nb.rudin_shapiro())),
        ("real", _seq(rng.choice([-1.0, 0.0, 1.0, 2.5, -1e300], 3000))),
        ("complex", _seq(rng.choice([0, 1, 1j, -1j, 1 + 1j], 3000))),
        ("complex-only", _seq(rng.choice([1j, -1j, 2 + 1j], 3000))),
        ("spikes", _seq(spikes)),   # one zero-flank bucket overflows
    ]


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("width", [1, 3, 5])
def test_rank_coded_exact_keys_match_raw_value_grouping(chunk, width):
    for name, seq in _exact_pair_streams():
        data = seqmod._gather(seq, 3000)
        for off, start, stop in ((-width, width, 3000), (1, 0, 3000 - width)):
            for c0 in range(start, stop, chunk):
                c1 = min(c0 + chunk, stop)
                got_groups, got_keys, *got = rl._chunk_keys(data, width, off, 0.0, c0, c1)
                want_groups, want_keys, *want = raw_chunk_keys(data, width, off, 0.0, c0, c1)
                assert got_keys == want_keys, name
                for g, w in zip([got_groups] + got, [want_groups] + want):
                    assert g.dtype == w.dtype and np.array_equal(g, w), name


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_exact_pair_search_matches_raw_value_keys(chunk, monkeypatch):
    monkeypatch.setattr(rl, "_KEY_CHUNK", chunk)
    for name, seq in _exact_pair_streams():
        for width, side in ((1, "forward"), (3, "backward"), (5, "forward")):
            args = (seq, width, 2999)
            kw = dict(eps=0.0, delta=0.5, flank_side=side, min_recurrence=1)
            got = rl.find_pair_certificate(*args, **kw)
            with monkeypatch.context() as m:
                m.setattr(rl, "_chunk_keys", raw_chunk_keys)
                want = rl.find_pair_certificate(*args, **kw)
            assert got == want, name
            assert got is not None and got.verify(seq)
