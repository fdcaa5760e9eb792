"""Differential tests of the exact-stream scans against their references
(``references.py``): the periodicity scan, the block analysis and its
counted block witnesses, the zero-flank search on dense streams and on
gap supports, the rank-coded exact pair keys, and the reads of the
certificate checks.  Each case set is the union of those run against the
code each rewrite replaced; test names recall the rewrite that brought
the cases in."""

import dataclasses
import math

import numpy as np
import pytest

import nbscope as nb
from nbscope import rightlimits as rl
from nbscope import sequences as seqmod
from references import (fold_skipped_tail, raw_chunk_keys, reference_block_witnesses,
                        reference_gap_certificate, reference_gap_hits,
                        reference_periodicity, reference_szego, span_values,
                        count_gathers)


def _seq(values, kind=None):
    params = {"values": tuple(complex(v) for v in values)}
    if kind is not None:
        params["value_kind"] = kind
    return nb.make_sequence(nb.GeneratorSpec("explicit", params))


def _same_periodicity(seq, max_period, max_preperiod, horizon, tol=None):
    want = reference_periodicity(seq, max_period, max_preperiod, horizon, tol)
    assert nb.detect_eventual_periodicity(seq, max_period, max_preperiod,
                                          horizon, tol) == want
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
        want = fold_skipped_tail(reference_szego(seq, p, h), p)
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
        want = fold_skipped_tail(reference_szego(seq, p_max, h), p_max)
        got = nb.szego_block_analysis(seq, p_max, h)
        assert got.to_json_dict() == want.to_json_dict()


# value sets of 1 to 5 values: real, with 1j, and complex only
_ALPHABETS = [[0], [1j], [-1, 1], [1j, -1j], [0, 1, 1j], [1 + 1j, 2j, -1 - 1j],
              [-1, 0, 1, 2], [0.5, 1j, -1j, 1 + 1j, -2]]


def _same_block_witnesses(values, p_max):
    seq = _seq(values)
    h = len(values) - 1
    got = rl._block_witnesses(seq, p_max, h)
    assert got == fold_skipped_tail(reference_block_witnesses(seq, p_max, h), p_max)
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
            want, _ = reference_gap_hits(seq, width, horizon, 0.0, 0.5)
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
            want, _ = reference_gap_hits(seq, width, 2999, float(eps), 0.45)
            got = _gap_witnesses(seq, width, 2999, float(eps), 0.45)
            assert got == tuple(want.tolist()), (width, eps)


# ---------------------------------------------------------------------------
# Chunked reads: the gap and periodicity scans with the read chunk patched
# to 1, 7 and 4096 values


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
    want = reference_gap_certificate(seq, width, horizon, **kw)
    got = rl.find_gap_certificate(seq, width, horizon, **kw)
    assert got == want, (seq.params, width, kw)
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


# ---------------------------------------------------------------------------
# Gap search: a floor above every flank threshold answers without a read


def _floor_streams(small):
    """name -> stream whose least modulus is ``small``, or 0 where zeros
    are mixed in: explicit, periodic and sampled paths, seeded, and
    Rudin-Shapiro, whose floor is 1."""
    rng = np.random.default_rng(int(small * 1000))
    streams = {"rudin-shapiro": nb.make_sequence(nb.rudin_shapiro())}
    for zeros in (False, True):
        atoms = [small, -small, small * 1j, 2, -2j, -2] + [0.0] * zeros
        tag = "-zeros" if zeros else ""
        streams["explicit" + tag] = nb.make_sequence(nb.explicit(rng.choice(atoms, 3000)))
        streams["periodic" + tag] = nb.make_sequence(nb.periodic(rng.permutation(atoms)))
        streams["iid" + tag] = nb.sample_process(nb.iid_process(atoms, seed=zeros), 3000)
        k = len(atoms)
        streams["markov" + tag] = nb.sample_process(
            nb.markov_process(atoms, rng.dirichlet(np.ones(k), size=k), seed=zeros), 3000)
    return streams


# 0.3, and a modulus that is exactly the first threshold of a decay envelope
@pytest.mark.parametrize("small", [0.3, float(rl._flank_thresholds(1, 0.0, (0.9, 0.4))[0])])
def test_floor_answers_the_gap_search_only_above_every_threshold(small):
    thresholds = ((0.0, None), (float(np.nextafter(small, 0.0)), None), (small, None),
                  (0.0, (0.9, 0.4)), (0.1, (0.9, 0.4)), (0.0, (3.0, 0.3)))
    for name, seq in _floor_streams(small).items():
        assert seq.floor == (1.0 if name == "rudin-shapiro"
                             else 0.0 if name.endswith("zeros") else small)
        reads = count_gathers(seq)
        for width in (1, 2, 4):
            for eps, decay in thresholds:
                kw = dict(eps=eps, delta=max(0.5, 2 * eps + 0.05), decay=decay,
                          min_recurrence=1)
                reads.clear()
                got = rl.find_gap_certificate(seq, width, 2999, **kw)
                top = rl._flank_thresholds(width, eps, decay).max()
                # a floor equal to a threshold still scans
                assert (reads == []) == (seq.floor > top), (name, width, eps, decay)
                want = reference_gap_certificate(seq, width, 2999, **kw)
                assert got == want and (got is None or got.separation == want.separation)
                if width == 1 and top == seq.floor == small:
                    assert got is not None, (name, eps, decay)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunked_periodicity_matches_whole_prefix_on_families(chunk, monkeypatch):
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    horizon = 700 if chunk == 1 else 20_000
    for spec in FAMILY_SPECS.values():
        seq = nb.make_sequence(spec)
        _same_periodicity(seq, 16, 16, horizon)
        _same_periodicity(seq, 16, 16, horizon, tol=0.0)


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
            found.add(_same_periodicity(_seq(base), 24, 12, 299))
            for q in (299, 298, 293, 292, 287, 286, 250, 40, 13, 12, 11):
                vals = list(base)
                vals[q] = 5
                found.add(_same_periodicity(_seq(vals), 24, 12, 299))
            for t in (293, 292, 286, 100, 13, 12):
                vals = base[:t] + [7] * (300 - t)
                found.add(_same_periodicity(_seq(vals), 24, 12, 299))
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
            _same_periodicity(seq, 16, 16, 399, tol=tol)
    # steps of 0.6 tol pass period 1 and fail period 2 (1.2 tol) past the
    # head, while in the head only period 1 fails (its last violation, a
    # step of 1.5 tol at n = 3, is undone by the next step): a live
    # divisor vouches for its multiples only under exact equality
    tol = 1e-3
    vals = [0.0, 0.0, 0.75, 0.0, 1.5, 0.75, 0.75, 0.75]
    vals += [0.75 + 0.6 * k for k in range(392)]
    assert _same_periodicity(_seq(np.array(vals) * tol, "float"),
                                     8, 8, 399, tol=tol) == (4, 1)


def _counted(spec):
    """A fresh sequence of ``spec`` whose gathers are recorded
    (:func:`count_gathers`)."""
    seq = nb.make_sequence(spec)
    return seq, count_gathers(seq)


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
        for r in reads:
            counts[r.start:r.stop] += 1
        assert counts[:mpp].max() <= 1 and counts[mpp + mp:].max() <= 1
        assert counts[mpp:mpp + mp].max() <= 2
        # no read is longer than the head or a chunk, plus max_period
        assert max(map(len, reads)) <= max(mpp, chunk) + mp


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
            found.add(_same_periodicity(_seq(vals), mp, mpp, h))
            found.add(_same_periodicity(_seq(base[:q] + [block[0]] * (h + 1 - q)),
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
    assert _same_periodicity(_seq(base, "float"), 24, 8, 299, tol=tol) == (0, 3)
    for q in (8, 11, 20, 31, 32, 40, 150, 280, 290, 299):
        for step in (0.9 * tol, 1.2 * tol, 3 * tol):
            vals = base.copy()
            vals[q] += step
            _same_periodicity(_seq(vals, "float"), 24, 8, 299, tol=tol)
            _same_periodicity(_seq(vals, "float"), 8, 24, 299, tol=tol)


def test_gap_family_periodicity_reads_the_head_and_at_most_two_chunks():
    seq, reads = _counted(nb.gap_powers("factorials"))
    assert nb.detect_eventual_periodicity(seq, 64, 64, 10 ** 12) is None
    assert reads[0] == range(0, 128) and len(reads) <= 3
    assert all(len(r) <= seqmod._CHUNK for r in reads[1:])


def test_gap_check_reads_only_near_its_witnesses():
    # witnesses 10^6 apart are checked by one gather of their flanks, never
    # by a read of the span between them
    seq, reads = _counted(nb.gap_powers([10, 10 ** 6, 10 ** 9, 10 ** 12]))
    cert = rl.NonReflectionlessCertificate(
        kind="GapZeroFlank", witnesses=(10, 10 ** 6, 10 ** 9, 10 ** 12),
        flank_side="backward", flank_width=5, eps=0.0, delta=0.5, separation=1.0)
    assert cert.verify(seq)
    assert reads == [tuple(n + k for n in cert.witnesses for k in range(-5, 1))]
    seq, reads = _counted(nb.gap_powers("factorials"))
    cert = rl.find_gap_certificate(seq, 3, 10 ** 6)
    reads.clear()
    assert cert.verify(seq)
    assert reads == [tuple(n + k for n in cert.witnesses for k in range(-3, 1))]


@pytest.mark.parametrize("chunk, gap", [(1, 1), (7, 1), (16, 3), (64, 8), (4096, 1024),
                                        (seqmod._CHUNK, 1024)])
@pytest.mark.parametrize("offsets", [np.arange(-3, 1), np.arange(4), np.arange(12)])
def test_span_rows_matches_the_loop_it_replaced(monkeypatch, chunk, gap, offsets):
    # centers with steps of 0 (duplicates), 1, and about ``gap`` and a
    # chunk, shuffled, single and in pairs, against values read one index
    # at a time: each batch is one gather of as many centers as fit in a
    # chunk of values, or of one center whose rows hold more
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    reach = abs(chunk - len(offsets))
    steps = sorted({0, 1, gap - 1, gap, gap + 1, 2 * gap, reach - 1, reach, reach + 1})
    rng = np.random.default_rng(chunk * 100 + len(offsets))
    for _ in range(20):
        centers = 3 + np.cumsum(rng.choice(steps, size=int(rng.integers(0, 40))))
        centers = [int(c) for c in rng.permutation(centers)]
        for cen, rows in ((centers, 1), (list(zip(centers, reversed(centers))), 2)):
            seq, reads = _counted(nb.rudin_shapiro())
            batches = list(rl._span_rows(seq, np.array(cen, dtype=np.int64), offsets))
            per_batch = max(1, chunk // (rows * len(offsets)))
            assert len(reads) == len(batches) == -(-len(cen) // per_batch)
            assert all(len(r) <= max(chunk, rows * len(offsets)) for r in reads)
            want = span_values(seq, cen, offsets)
            if batches:
                got = np.concatenate(batches).astype(complex)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            else:
                assert want.size == 0


def test_verdict_certificates_leave_the_prefix_cache_empty():
    for spec, horizon in ((nb.gap_powers("factorials"), 10 ** 6),
                          (nb.gap_powers("squares", 1 + 1j), 10 ** 5),
                          (nb.rudin_shapiro(), 10 ** 5),
                          (nb.erdos("hard"), 10 ** 5)):
        seq, reads = _counted(spec)
        v = nb.verdict(seq, nb.AnalysisConfig(horizon=horizon))
        assert v.certificate is not None
        # no gather is longer than a chunk plus the flanks around it
        assert max(map(len, reads)) <= seqmod._CHUNK + 64


# ---------------------------------------------------------------------------
# Exact pair keys: rank codes against the raw values


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


# ---------------------------------------------------------------------------
# Gap search over the support, and periodicity with every period in one
# comparison


def _support_gap_sets():
    """Exponent sets: the named families, and seeded custom sets with runs
    of exponents closer together than any tested width, some at 0 and 1."""
    yield "factorials"
    yield "squares"
    rng = np.random.default_rng(41)
    for k in range(6):
        gaps = rng.choice([1, 2, 3, 4, 5, 6, 7, 9, 40, 700], size=300,
                          p=[.15, .15, .1, .1, .1, .1, .1, .1, .05, .05])
        yield sorted(set((np.cumsum(gaps) - gaps[0] + k % 2).tolist()))


@pytest.mark.parametrize("chunk", CHUNKS)
def test_support_gap_walk_matches_the_full_scan(chunk, monkeypatch):
    # the support is listed in batches of one reader chunk: 1 and 7 put
    # batch edges among close exponents; fills below, at and above delta,
    # complex fills, and decay envelopes whose thresholds let flank fills
    # through at some offsets but not at others.  min_recurrence only
    # thresholds the hit count after the walk, so its outcomes are tested
    # at the default chunk alone
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    horizon = 4000 if chunk < 4096 else 20_000
    delta = 0.5
    fills = (1.0, -2.0, delta, math.nextafter(delta, 0.0), math.nextafter(delta, 1.0),
             0.6 - 0.8j, 2 + 1j)
    decays = (None, (0.8, 0.5), (3.0, 0.3), (50.0, 1.0))
    widths = (1, 2, 3, 5, 8)
    if chunk == 1:                  # one point a batch: a few cases suffice
        fills, widths = fills[::3], widths[::2]
    outcomes = set()
    for exps in _support_gap_sets():
        for fill in fills:
            seq = nb.make_sequence(nb.gap_powers(exps, fill))
            for width in widths:
                _same_gap(seq, width, width)    # the least horizon
                for decay in decays:
                    for eps in (0.0, 0.2):
                        kw = dict(eps=eps, delta=delta, decay=decay)
                        want = reference_gap_certificate(seq, width, horizon,
                                                         min_recurrence=1, **kw)
                        hits = 0 if want is None else len(want.witnesses)
                        # both outcomes of min_recurrence, where hits allow
                        min_recs = {1, 3, max(1, hits), hits + 1} if chunk > 7 else {1}
                        for min_rec in min_recs:
                            got = rl.find_gap_certificate(seq, width, horizon,
                                                          min_recurrence=min_rec, **kw)
                            assert got == (want if hits >= min_rec else None)
                            assert got is None or got.separation == want.separation
                            outcomes.add(got is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_support_gap_walk_passes_a_fill_on_its_threshold(eps):
    # a support spaced k apart puts the fill at flank offset -k of every
    # center; a fill whose modulus is that offset's threshold passes it
    # (|a_{n-k}| <= bound), so every point from k on is a hit
    decay = (3.0, 0.3)
    for k in range(1, 6):
        fill = float(rl._flank_thresholds(k, eps, decay)[k - 1])
        seq = nb.make_sequence(nb.gap_powers(range(0, 3000, k), fill))
        want = reference_gap_certificate(seq, k, 2999, eps=eps, delta=0.5, decay=decay)
        assert want.witnesses == tuple(range(k, 3000, k))
        assert rl.find_gap_certificate(seq, k, 2999, eps=eps, delta=0.5, decay=decay) == want


def test_support_gap_walk_keeps_the_separation_bits_of_the_layout():
    # separation is np.abs of the value as the sequence lays it out
    # (float64 for a real fill, complex128 else): seeded fills whose
    # modulus is not exact
    rng = np.random.default_rng(5)
    for _ in range(200):
        re, im = rng.normal(size=2) * np.exp(rng.uniform(-3, 3, 2))
        for fill in (complex(re, im), complex(-abs(re) - 1, 0.0)):
            seq = nb.make_sequence(nb.gap_powers("factorials", fill))
            delta = float(np.abs(fill)) / 2
            want = reference_gap_certificate(seq, 3, 50_000, eps=0.0, delta=delta)
            got = rl.find_gap_certificate(seq, 3, 50_000, eps=0.0, delta=delta)
            assert got == want and got.separation == want.separation


def test_support_gap_walk_reads_only_support_rows_and_their_flanks():
    width = 5
    for spec, horizon in ((nb.gap_powers("factorials"), 2 ** 63 - 1),
                          (nb.gap_powers("squares", 2j), 10 ** 9),
                          (nb.gap_powers([0, 3, 4, 10, 10 ** 6, 10 ** 12], 1), 10 ** 15)):
        seq, reads = _counted(spec)
        cert = rl.find_gap_certificate(seq, width, horizon, eps=0.0)
        assert cert is not None and cert.verify(seq)
        support = set(seq.gap_support.between(0, horizon + 1))
        # the search gathers the flank and center of each support point
        # from width on, and the check those of each witness
        indices = [n for r in reads for n in r]
        tested = sum(e >= width for e in support)
        assert len(indices) == (width + 1) * (tested + len(cert.witnesses))
        assert all(any(n + k in support for k in range(width + 1)) for n in indices)


def test_support_past_the_term_cap_is_refused_before_it_is_listed(monkeypatch):
    seq = nb.make_sequence(nb.gap_powers("squares"))
    support = seq.gap_support
    seq.gap_support = dataclasses.replace(
        support, points=lambda i, j: pytest.fail("support listed"))
    monkeypatch.setattr(rl, "TERM_CAP", 1000)
    with pytest.raises(nb.NumericCapError, match="1001 support points"):
        rl.find_gap_certificate(seq, 5, 1000 ** 2)     # 0, 1, ..., 1000 squared
    seq.gap_support = support
    monkeypatch.setattr(rl, "TERM_CAP", 1001)
    assert rl.find_gap_certificate(seq, 5, 1000 ** 2).witnesses == tuple(
        k * k for k in range(4, 1001))        # 9 has 4 in its flank


@pytest.mark.parametrize("search", ["gap", "pair"])
def test_dense_searches_refuse_past_the_term_cap_before_reading(search, monkeypatch):
    monkeypatch.setattr(rl, "TERM_CAP", 5000)
    seq = nb.make_sequence(nb.rudin_shapiro())

    def run(horizon):
        if search == "gap":
            return rl.find_gap_certificate(seq, 5, horizon)
        return rl.find_pair_certificate(seq, 5, horizon)

    run(4999)                       # h + 1 = TERM_CAP values: runs
    seq._family_at = lambda idx: pytest.fail("read before the refusal")
    with pytest.raises(nb.NumericCapError, match="5001 values exceeds the cap 5000"):
        run(5000)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("mp, mpp", [(12, 0), (16, 5), (9, 9), (6, 20), (64, 64)])
def test_one_comparison_periodicity_matches_the_per_period_scan(chunk, mp, mpp,
                                                                monkeypatch):
    # defects in the head, on the first chunks' edges and in later chunks,
    # and constant tails, on periodic streams whose periods have live
    # multiples; exact and under a tolerance
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    h = {1: 2 * mp + mpp + 30, 7: min(3 * mp * mp, 600) + mpp + 40}.get(
        chunk, 3 * mp * mp + mpp + 40)
    rng = np.random.default_rng(chunk + 100 * mp + mpp)
    found = set()
    for period in (1, 2, 3, 4, 6):
        block = [complex(v) for v in rng.choice([-1, 0, 1, 1j], period)]
        block[0] = 2                # no shorter period
        base = _eventually_periodic([3] * min(4, mpp), block, h + 1)
        qs = {mpp, mpp + 1, mpp + mp - 1, mpp + mp, mpp + mp + 1,
              mpp + mp + mp * mp - 1, mpp + mp + mp * mp, h - 1, h,
              *rng.integers(0, h + 1, 6).tolist()}
        for q in sorted(v for v in qs if 0 <= v <= h):
            vals = list(base)
            vals[q] = 5j if q % 2 else 5
            found.add(_same_periodicity(_seq(vals), mp, mpp, h))
            found.add(_same_periodicity(_seq(base[:q] + [block[0]] * (h + 1 - q)),
                                            mp, mpp, h))
        tol = 1e-3
        noisy = np.array(base) + rng.uniform(0, tol / 2, h + 1)
        for q in (mpp, mpp + mp, h // 2, h):
            for step in (0.9 * tol, 1.2 * tol, 3 * tol):
                vals = noisy.copy()
                vals[q:] += step
                found.add(_same_periodicity(_seq(vals, "float"), mp, mpp, h, tol))
                vals = noisy.copy()
                vals[q] += step
                found.add(_same_periodicity(_seq(vals, "float"), mp, mpp, h, tol))
    assert None in found and any(f is not None and f[1] > 1 for f in found)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_multiples_of_a_divisor_that_dies_in_a_later_chunk_are_tested(chunk,
                                                                      monkeypatch):
    # a constant stream keeps period 1 live, and with it, untested, every
    # multiple; a defect several chunks up ends period 1 there, and each
    # multiple it vouched for must be compared in that chunk, where the
    # defect ends it too (so would any later one, unless none is read)
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    mp, mpp = 8, 3
    h = 20 * mp * mp if chunk > 1 else 6 * mp + mpp
    assert _same_periodicity(_seq([4] * (h + 1)), mp, mpp, h) == (0, 1)
    for q in (h // 2, h - mp - 1, h - 2, h):
        vals = [4] * (h + 1)
        vals[q] = 9
        got = _same_periodicity(_seq(vals), mp, mpp, h)
        assert got is None
    # period 2 dies late while 4, 6 and 8 stay live until then
    vals = [1, 2] * (h // 2 + 1)
    vals[h - 3] = 7
    assert _same_periodicity(_seq(vals[:h + 1]), mp, mpp, h) is None


@pytest.mark.parametrize("chunk", (40, 100, 333))
@pytest.mark.parametrize("mp, mpp", [(9, 9), (16, 5), (12, 0), (7, 30), (13, 2)])
def test_head_blocks_of_uneven_row_counts_match_the_per_period_scan(chunk, mp, mpp,
                                                                    monkeypatch):
    # the head is compared in blocks of chunk // (mpp + mp) rows, the last
    # one short; defects at every head index, the padded last columns of
    # a block included, must end or delay the same periods, also where
    # the least period lies in the last block
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    L = mpp + mp
    h = 2 * L + mp + 50
    rng = np.random.default_rng(chunk + 100 * mp + mpp)
    found = set()
    for period in (1, 2, 3, 6, mp - 1, mp):
        block = [complex(v) for v in rng.choice([-1, 0, 1, 1j], period)]
        block[0] = 2
        base = _eventually_periodic([3] * min(3, mpp), block, h + 1)
        found.add(_same_periodicity(_seq(base), mp, mpp, h))
        for q in range(L + 2):
            vals = list(base)
            vals[q] = 5
            found.add(_same_periodicity(_seq(vals), mp, mpp, h))
            vals[min(h, q + period + 1)] = 7j
            found.add(_same_periodicity(_seq(vals), mp, mpp, h))
        noisy = np.array(base) + rng.uniform(0, 5e-4, h + 1)
        for q in (0, mpp, L - 2, L - 1, L):
            vals = noisy.copy()
            vals[q] += 2e-3
            found.add(_same_periodicity(_seq(vals, "float"), mp, mpp, h, 1e-3))
    assert None in found and any(f is not None and f[1] == mp for f in found)
    assert not mpp or any(f is not None and f[0] > 0 for f in found)


@pytest.mark.parametrize("mp, mpp", [(20_000, 64), (64, 10 ** 6)])
def test_periodicity_memory_grows_with_the_head_not_its_square(mp, mpp):
    # the head comparison runs in blocks of about one reader chunk of cells
    # and the divisor sieve holds mp log mp pairs, so neither a
    # max_period x max_period nor a max_period x max_preperiod array is
    # ever built (at these sizes either would take hundreds of MB)
    import tracemalloc
    seq = nb.make_sequence(nb.rudin_shapiro())
    tracemalloc.start()
    try:
        assert rl.detect_eventual_periodicity(seq, mp, mpp, 3 * 10 ** 6) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    head = (mpp + mp) * seq.read(0, 1).itemsize
    assert peak < 3 * head + 16 * 2 ** 20, peak


def test_gap_pair_search_reads_nothing_when_the_fill_cannot_separate(monkeypatch):
    # values 0 and the fill: no two centers are delta apart when |fill| < delta
    monkeypatch.setattr(rl, "TERM_CAP", 5000)
    for fill in (0.3, 0.3j, math.nextafter(0.5, 0)):
        seq, reads = _counted(nb.gap_powers("factorials", fill))
        for side in ("backward", "forward"):
            assert rl.find_pair_certificate(seq, 3, 10 ** 10, eps=0.1,
                                            delta=0.5, flank_side=side) is None
        assert reads == []
        # argument checks still come first
        with pytest.raises(nb.SequenceError, match="flank_side"):
            rl.find_pair_certificate(seq, 3, 10 ** 10, flank_side="sideways")
        with pytest.raises(nb.SequenceError, match="horizon too small"):
            rl.find_pair_certificate(seq, 3, 5)


@pytest.mark.parametrize("fill", [0.5, 1.0, -1j])
def test_gap_pair_search_refuses_past_the_term_cap_when_the_fill_can(fill,
                                                                     monkeypatch):
    monkeypatch.setattr(rl, "TERM_CAP", 5000)
    seq = nb.make_sequence(nb.gap_powers("factorials", fill))
    rl.find_pair_certificate(seq, 3, 4999, eps=0.1, delta=0.5)    # runs
    seq._family_at = lambda idx: pytest.fail("read before the refusal")
    with pytest.raises(nb.NumericCapError, match="5001 values exceeds the cap 5000"):
        rl.find_pair_certificate(seq, 3, 5000, eps=0.1, delta=0.5)
