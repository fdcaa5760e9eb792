"""Differential tests of the pair-certificate search against its reference
(``references.py``): the whole search, and its walk with the key chunk,
the walk block and the caps patched, on real, complex and adversarial
streams; and of the vectorized rotation block against the per-index
reads.  Each case set is the union of those run against the code each
rewrite replaced (the per-center loop, the whole-prefix walk and the walk
that visited every center); test names recall the rewrite that brought
the cases in."""

import cmath
import math

import numpy as np
import pytest

import nbscope as nb
from nbscope import rightlimits as rl
from nbscope import sequences as seqmod
from nbscope.sequences import _frac_shift_at, _frac_shift_exact
from references import (count_gathers, reference_pair_certificate, reference_pair_walk,
                        walk_args)


def _complex_stream(seed, length):
    """Float stream mixing real values with complex ones, so flank keys with
    and without imaginary parts meet in one search.  Some imaginary parts
    are nonzero but below eps (same grid floors as real values, different
    key), and the noise on both parts makes complex sup distances exceed
    eps inside one grid cell."""
    rng = np.random.default_rng(seed)
    atoms = np.array([0.0, 0.9, 0.45j, -0.6 + 0.3j, 0.2 - 0.7j, 0.004j])
    vals = atoms[rng.integers(0, len(atoms), length)]
    vals = vals + rng.uniform(-0.03, 0.03, length)
    vals = vals + 1j * rng.uniform(-0.03, 0.03, length) * (vals.imag != 0)
    real = rng.random(length) < 0.5
    vals[real] = vals[real].real
    return nb.make_sequence(nb.explicit(vals))


def _float_noise(seed, length):
    """Distinct float values: at eps = 0 every flank key is new."""
    rng = np.random.default_rng(seed)
    vals = rng.choice([0.0, 1.0], length) + rng.uniform(-1e-3, 1e-3, length)
    return nb.make_sequence(nb.explicit(vals))


SEQUENCES = {
    "rotation-frac": lambda: nb.make_sequence(nb.rotation(math.sqrt(2) % 1, 0.31)),
    "rotation-frac-k13": lambda: nb.make_sequence(nb.rotation(math.sqrt(13) % 1, 0.77)),
    "rotation-half": lambda: nb.make_sequence(
        nb.rotation(math.sqrt(10) % 1, 0.05, "half-indicator")),
    "erdos-soft": lambda: nb.make_sequence(nb.erdos("soft")),
    "erdos-hard": lambda: nb.make_sequence(nb.erdos("hard")),
    "rudin-shapiro": lambda: nb.make_sequence(nb.rudin_shapiro()),
    "gap-factorials": lambda: nb.make_sequence(nb.gap_powers("factorials")),
    "gap-squares": lambda: nb.make_sequence(nb.gap_powers("squares", 1 + 1j)),
    "gap-custom": lambda: nb.make_sequence(nb.gap_powers(range(3, 4000, 7))),
    "complex-explicit": lambda: _complex_stream(11, 4001),
    "float-noise": lambda: _float_noise(12, 4001),
    "iid": lambda: nb.sample_process(
        nb.iid_process([0.0, 1.0, 1j], [0.5, 0.3, 0.2], seed=5), 4001),
    "markov": lambda: nb.sample_process(
        nb.markov_process([-1.0, 1.0], [[0.8, 0.2], [0.3, 0.7]], seed=9), 4001),
}

EPS = (0.0, 0.02, 0.05, 0.1, 0.3)


def _assert_same(seq, width, horizon, eps, delta, side):
    got = nb.find_pair_certificate(seq, width, horizon, eps=eps, delta=delta,
                                   flank_side=side)
    want = reference_pair_certificate(seq, width, horizon, eps, delta, side)
    if want is None:
        assert got is None
        return None
    assert got is not None
    assert got.pairs == want.pairs
    assert got.witnesses == want.witnesses
    assert got.notes == want.notes
    assert got.separation == want.separation
    assert got.to_json_dict() == want.to_json_dict()
    return want


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_pair_search_matches_reference(name, monkeypatch):
    # a small key chunk puts many chunk boundaries inside the scan
    monkeypatch.setattr(rl, "_KEY_CHUNK", 97)
    seq = SEQUENCES[name]()
    for i, eps in enumerate(EPS):
        width = 1 + (i + len(name)) % 6
        delta = 0.65 if eps == 0.3 else 0.5
        for side in ("backward", "forward"):
            _assert_same(seq, width, 3000, eps, delta, side)


@pytest.mark.parametrize("eps", EPS)
def test_pair_search_complex_keys(eps):
    # narrow flanks: there complex sup distances decide some candidates
    seq = SEQUENCES["complex-explicit"]()
    delta = 0.65 if eps == 0.3 else 0.5
    for width in (1, 2, 3):
        for side in ("backward", "forward"):
            _assert_same(seq, width, 3000, eps, delta, side)


@pytest.mark.parametrize("width", range(1, 7))
def test_pair_search_widths_and_caps(width):
    notes = set()
    for name, eps, horizon in (("rudin-shapiro", 0.0, 6000),
                               ("erdos-hard", 0.0, 6000),
                               ("rotation-half", 0.1, 9000),
                               ("markov", 0.0, 4000)):
        seq = SEQUENCES[name]()
        for side in ("backward", "forward"):
            cert = _assert_same(seq, width, horizon, eps, 0.5, side)
            if cert is not None:
                notes.update(cert.notes)
    # both caps fire somewhere in this grid, so the capped exits are compared
    assert any(n.startswith("pair collection capped") for n in notes)
    assert any(n.startswith("bucket-collision overflow") for n in notes)


def test_pair_search_long_horizon_across_chunks():
    seq = nb.make_sequence(nb.rotation(math.sqrt(5) % 1, 0.123))
    cert = _assert_same(seq, 5, 12_000, 0.02, 0.5, "forward")
    assert cert is not None and max(m for _, m in cert.pairs) > 2 * rl._KEY_CHUNK


# ---------------------------------------------------------------------------
# Chunk reads: the walk reads each key chunk as it reaches it


def _late_complex_stream(length, start):
    """1.0 everywhere, except 1j at every tenth index from ``start`` on: the
    early chunks hold only real values, and the first pairs join an early
    center to a late one."""
    vals = np.ones(length, dtype=complex)
    vals[start::10] = 1j
    return nb.make_sequence(nb.explicit(vals))


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_chunked_pair_search_matches_whole_prefix(name, chunk, monkeypatch):
    monkeypatch.setattr(rl, "_KEY_CHUNK", chunk)
    seq = SEQUENCES[name]()
    horizon = {1: 300, 7: 1200, 4096: 9000}[chunk]
    for i, eps in enumerate(EPS[:3] if chunk == 1 else EPS):
        width = 1 + (i + len(name)) % 5
        delta = 0.65 if eps == 0.3 else 0.5
        for side in ("backward", "forward"):
            _assert_same(seq, width, horizon, eps, delta, side)


@pytest.mark.parametrize("chunk", [7, 97])
def test_key_layout_is_fixed_before_the_first_read(chunk, monkeypatch):
    # the early chunks hold only real values; keying them with a real
    # layout and the later ones with a complex layout would split buckets
    monkeypatch.setattr(rl, "_KEY_CHUNK", chunk)
    seq = _late_complex_stream(3001, 1500)
    assert not seq.real_valued
    for eps in (0.0, 0.05):
        for width in (1, 2, 3):
            for side in ("backward", "forward"):
                cert = _assert_same(seq, width, 3000, eps, 0.5, side)
                assert any(n < 1500 <= m for n, m in cert.pairs)


@pytest.mark.parametrize("name", sorted(n for n in SEQUENCES
                                        if SEQUENCES[n]().real_valued))
def test_complex_layout_decides_alike_on_real_streams(name):
    # a sequence that cannot say it is real is walked with complex values
    # and complex keys; on real data that gives the same pairs and notes
    real, unknown = SEQUENCES[name](), SEQUENCES[name]()
    unknown.real_valued = False
    for i, eps in enumerate(EPS):
        width = 1 + (i + len(name)) % 6
        delta = 0.65 if eps == 0.3 else 0.5
        for side in ("backward", "forward"):
            a = nb.find_pair_certificate(real, width, 3000, eps=eps, delta=delta,
                                         flank_side=side)
            b = nb.find_pair_certificate(unknown, width, 3000, eps=eps,
                                         delta=delta, flank_side=side)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.to_json_dict() == b.to_json_dict()


def test_real_families_say_so():
    real = {"rotation-frac", "rotation-frac-k13", "rotation-half", "erdos-soft",
            "erdos-hard", "rudin-shapiro", "gap-factorials", "gap-custom",
            "float-noise", "markov"}
    for name, make in SEQUENCES.items():
        assert make().real_valued == (name in real), name
    assert nb.make_sequence(nb.periodic([0.5, -1])).real_valued
    assert not nb.make_sequence(nb.periodic([0.5, 1j])).real_valued
    custom = nb.rotation(math.sqrt(2) % 1, 0.0, (lambda x: x, 1.0))
    assert not nb.make_sequence(custom).real_valued


def _counted(make):
    seq = make()
    return seq, count_gathers(seq)


@pytest.mark.parametrize("side", ["backward", "forward"])
def test_capped_search_reads_no_further_than_it_scanned(side):
    seq, reads = _counted(SEQUENCES["rudin-shapiro"])
    cert = nb.find_pair_certificate(seq, 3, 10 ** 6, eps=0.0, flank_side=side)
    assert f"pair collection capped at {rl._PAIR_CAP}" in cert.notes
    last = max(m for _, m in cert.pairs)
    assert max(r.stop for r in reads) <= last + rl._KEY_CHUNK + 3 + 1
    # no read is longer than a key chunk plus its flanks
    assert max(map(len, reads)) <= rl._KEY_CHUNK + 2 * 3
    # the check gathers the pairs' rows at once
    reads.clear()
    assert cert.verify(seq)
    assert len(reads) == 1


def test_pair_verdicts_leave_the_prefix_cache_empty():
    # every stage reads in chunks: no read is longer than a chunk plus its
    # flanks, so memory does not grow with the horizon
    for name in ("rudin-shapiro", "rotation-frac", "rotation-half", "markov"):
        seq, reads = _counted(SEQUENCES[name])
        v = nb.verdict(seq, nb.AnalysisConfig(horizon=4000))
        assert v.certificate is not None and v.certificate.kind == "PairMismatch"
        assert max(map(len, reads)) <= seqmod._CHUNK + 64


def test_group_rows_partitions_like_brute_force():
    rng = np.random.default_rng(3)
    small = rng.integers(-3, 4, size=(500, 4))
    wide = small * (2 ** 40)
    big = np.array([[np.iinfo(np.int64).min, 0], [0, 5], [np.iinfo(np.int64).min, 0],
                    [np.iinfo(np.int64).max, 5]], dtype=np.int64)
    floats = small * 0.25 + 0.1                     # eps = 0 flanks are raw values
    cplx = floats + 1j * rng.integers(-1, 2, size=(500, 4))
    for rows in (small, wide, big, floats, cplx):
        groups, first, order = rl._group_rows(rows)
        assert len(first) == len({tuple(r) for r in rows.tolist()})
        assert sorted(order.tolist()) == list(range(len(rows)))
        assert np.all(np.diff(groups[order]) >= 0)
        assert np.all(np.diff(order)[np.diff(groups[order]) == 0] > 0)
        for i, row in enumerate(rows.tolist()):
            assert rows[first[groups[i]]].tolist() == row
        for i in range(0, len(rows), 17):
            for j in range(0, len(rows), 13):
                assert (groups[i] == groups[j]) == (rows[i].tolist() == rows[j].tolist())


# ---------------------------------------------------------------------------
# The bucket-by-bucket walk against the reference walk, caps and blocks patched


def _many_cells(seed, length):
    """Zero flanks around centers drawn from 24 levels: one bucket holds
    many cells, and nearby levels sit in cells too close to pair."""
    rng = np.random.default_rng(seed)
    levels = np.linspace(-1.0, 1.0, 24)
    vals = np.where(rng.random(length) < 0.45, levels[rng.integers(0, 24, length)], 0.0)
    return nb.make_sequence(nb.explicit(vals))


def _grid_edges(seed, length):
    """Values on grid lines of eps = 0.05 and one ulp below them, centers
    exactly delta = 0.5 apart, and complex centers with equal real parts in
    different imaginary cells."""
    rng = np.random.default_rng(seed)
    atoms = np.array([0.0, 0.5, -0.5, 0.05, np.nextafter(0.05, 0.0), 0.25,
                      0.25 + 0.5j, 0.25 - 0.5j, 0.5j, np.nextafter(0.1, 0.0)])
    return nb.make_sequence(nb.explicit(atoms[rng.integers(0, len(atoms), length)]))


def _overflow_runs(seed, length):
    """Long stretches of 1.0, which overflow their cell, between short
    bursts of -1.0 and 0.0."""
    rng = np.random.default_rng(seed)
    vals = []
    while len(vals) < length:
        vals += [1.0] * int(rng.integers(20, 300))
        vals += rng.choice([-1.0, 0.0], int(rng.integers(1, 12))).tolist()
    return nb.make_sequence(nb.explicit(vals[:length]))


ADVERSARIAL = {
    "many-cells": lambda: _many_cells(21, 4001),
    "grid-edges": lambda: _grid_edges(22, 4001),
    "overflow-runs": lambda: _overflow_runs(23, 4001),
}
WALK_STREAMS = {**SEQUENCES, **ADVERSARIAL}


def _assert_walks_agree(seq, width, horizon, eps, delta, side):
    """The walk and the reference pick the same pairs in the same order,
    with the same notes and the same separation."""
    off, start, stop, end = walk_args(seq, width, horizon, side)
    pairs, notes, vals = rl._pair_walk(seq, width, off, eps, delta, start, stop)
    want, want_notes, want_vals = reference_pair_walk(seq, width, off, eps, delta,
                                                      start, stop, end)
    assert pairs == want
    assert notes == want_notes
    if pairs:
        assert (min(abs(vals[n] - vals[m]) for n, m in pairs)
                == min(abs(want_vals[n] - want_vals[m]) for n, m in want))
    return notes


# the families of the reader's differential tests: two real, two complex
READER_FAMILIES = {
    "rudin-shapiro": SEQUENCES["rudin-shapiro"],
    "rotation-frac": SEQUENCES["rotation-frac"],
    "periodic-1j": lambda: nb.make_sequence(nb.periodic([1, 1j, 0, -1, 1j, 1j, 0])),
    "rotation-complex": lambda: nb.make_sequence(nb.rotation(
        math.sqrt(3) - 1, 0.1, (lambda x: cmath.exp(2j * math.pi * x) * (x < 0.7), 1.0))),
}


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("name", sorted(READER_FAMILIES))
def test_walk_takes_its_key_chunks_from_the_reader(name, chunk, monkeypatch):
    # each key chunk is one read with only the flank it needs: width values
    # before it (backward) or after it (forward)
    monkeypatch.setattr(rl, "_KEY_CHUNK", chunk)
    monkeypatch.setattr(seqmod, "_CHUNK", chunk)
    horizon = 300 if chunk == 1 else 3000
    for side, pad in (("backward", (3, 0)), ("forward", (0, 3))):
        for eps, delta in ((0.0, 0.5), (0.05, 0.5), (0.2, 0.65)):
            seq, reads = _counted(READER_FAMILIES[name])
            _assert_walks_agree(seq, 3, horizon, eps, delta, side)
            reads.clear()
            off, start, stop, _ = walk_args(seq, 3, horizon, side)
            rl._pair_walk(seq, 3, off, eps, delta, start, stop)
            want = [range(c - pad[0], min(c + chunk, stop) + pad[1])
                    for c in range(start, stop, chunk)]
            assert reads == want[:len(reads)] and reads


def test_adversarial_streams_have_their_shape():
    # many-cells: the zero-flank bucket holds every level and zero as cells
    arr = ADVERSARIAL["many-cells"]().read(0, 4001).real
    assert len(set(arr[1:][arr[:-1] == 0].tolist())) == 25
    # overflow-runs: some stretch of equal values is longer than the cap
    arr = ADVERSARIAL["overflow-runs"]().read(0, 4001).real
    cuts = np.flatnonzero(np.diff(arr)) + 1
    assert np.diff(np.concatenate(([0], cuts, [len(arr)]))).max() > rl._BUCKET_CAP
    assert not ADVERSARIAL["grid-edges"]().real_valued


@pytest.mark.parametrize("chunk", [1, 7, 97, 4096])
@pytest.mark.parametrize("name", sorted(WALK_STREAMS))
def test_walk_matches_reference(name, chunk, monkeypatch):
    monkeypatch.setattr(rl, "_KEY_CHUNK", chunk)
    seq = WALK_STREAMS[name]()
    horizon = {1: 300, 7: 1200, 97: 3000, 4096: 9000}[chunk]
    for i, eps in enumerate(EPS[:3] if chunk == 1 else EPS):
        width = 1 + (i + len(name)) % 5
        delta = 0.65 if eps == 0.3 else 0.5
        for side in ("backward", "forward"):
            _assert_walks_agree(seq, width, horizon, eps, delta, side)


@pytest.mark.parametrize("chunk", [7, 4096])
@pytest.mark.parametrize("bucket_cap", [1, 2, 5])
@pytest.mark.parametrize("pair_cap", [1, 2, 5])
def test_walk_matches_reference_under_small_caps(pair_cap, bucket_cap, chunk,
                                                 monkeypatch):
    monkeypatch.setattr(rl, "_PAIR_CAP", pair_cap)
    monkeypatch.setattr(rl, "_BUCKET_CAP", bucket_cap)
    monkeypatch.setattr(rl, "_KEY_CHUNK", chunk)
    notes = set()
    for name in sorted(WALK_STREAMS):
        seq = WALK_STREAMS[name]()
        for eps in (0.0, 0.05):
            for side in ("backward", "forward"):
                notes |= _assert_walks_agree(seq, 1 + len(name) % 3, 1500, eps,
                                             0.5, side)
    # both caps fire, so the stop and the notes before it are compared
    assert f"pair collection capped at {pair_cap}" in notes
    assert "bucket-collision overflow: some candidates dropped" in notes


def test_cell_fills_to_the_cap_through_the_candidate_test(monkeypatch):
    # behind flank 0.3, the 0.47 at 1 holds a cell that the zero centers
    # may pair with but never do (0.47 < delta), so each zero arrival takes
    # the candidate test and joins its cell, until the cap turns away the
    # third; the three 0.5 arrivals after it pair with the two kept zeros
    monkeypatch.setattr(rl, "_BUCKET_CAP", 2)
    seq = nb.make_sequence(nb.explicit([0.3, 0.47] + [0.3, 0.0] * 3 + [0.3, 0.5] * 3))
    notes = _assert_walks_agree(seq, 1, 13, 0.05, 0.5, "backward")
    assert notes == {"bucket-collision overflow: some candidates dropped"}
    assert rl._pair_walk(seq, 1, -1, 0.05, 0.5, 1, 14)[0] == [(3, 9), (5, 11)]


def test_walk_stops_late_in_a_chunk(monkeypatch):
    # a 1 every tenth index from 600 on pairs with a stored zero center:
    # the blocks [512, 1024) and [1024, 1536) find pairs, but too few, and
    # the stop falls in the block after them
    monkeypatch.setattr(rl, "_PAIR_CAP", 100)
    monkeypatch.setattr(rl, "_WALK_BLOCK", 512)
    vals = np.zeros(4001)
    vals[600::10] = 1.0
    seq = nb.make_sequence(nb.explicit(vals))
    for eps in (0.0, 0.05):
        for side in ("backward", "forward"):
            assert "pair collection capped at 100" in _assert_walks_agree(
                seq, 2, 4000, eps, 0.5, side)
            off, start, stop, end = walk_args(seq, 2, 4000, side)
            pairs = rl._pair_walk(seq, 2, off, eps, 0.5, start, stop)[0]
            assert 1536 <= pairs[-1][1] < 2048


def test_walk_ends_with_the_block_of_its_stop(monkeypatch):
    # the 1s at 200, 210 and 220 pair with stored zero centers, so the stop
    # falls in the block [128, 256); the 7 at 300 opens a cell (and tests
    # it against the others) only if the walk goes on to the next block
    monkeypatch.setattr(rl, "_PAIR_CAP", 3)
    monkeypatch.setattr(rl, "_WALK_BLOCK", 128)
    opened = []
    too_close = rl._cells_too_close
    monkeypatch.setattr(rl, "_cells_too_close", lambda p, q, eps, delta: (
        opened.append(p) or too_close(p, q, eps, delta)))
    vals = np.zeros(1000)
    vals[[200, 210, 220]] = 1.0
    vals[300] = 7.0
    seq = nb.make_sequence(nb.explicit(vals))
    assert "pair collection capped at 3" in _assert_walks_agree(seq, 1, 999, 0.0, 0.5,
                                                                 "backward")
    assert 1.0 in opened and 7.0 not in opened


def test_walk_stop_counts_only_pairs_of_finished_blocks(monkeypatch):
    # bucket X (flank 0.3) holds 30 centers of value 0 and then takes a run
    # of value-1 arrivals from 1001 that runs on past 1024; bucket Y (flank
    # -0.1) pairs from 1027 on.  After the block [512, 1024) X's pairs past
    # 1024 are known but Y's are not, so the stop must wait for the next
    # block: the tenth pair is Y's at 1031
    monkeypatch.setattr(rl, "_PAIR_CAP", 10)
    monkeypatch.setattr(rl, "_WALK_BLOCK", 512)
    vals = np.zeros(4001)
    vals[10:70] = [0.3, 0.0] * 30           # X holds 30 zero centers
    vals[100:160] = [-0.1, 0.0] * 30        # so does Y
    vals[1000:1024] = [0.3, 1.0, 0.0, 0.0] * 6
    vals[1024:1200] = [0.3, 1.0, -0.1, 1.0] * 44
    seq = nb.make_sequence(nb.explicit(vals))
    for eps in (0.0, 0.05):
        _assert_walks_agree(seq, 1, 4000, eps, 0.5, "backward")
        pairs = rl._pair_walk(seq, 1, -1, eps, 0.5, 1, 4001)[0]
        assert [m for _, m in pairs] == [1001, 1005, 1009, 1013, 1017, 1021,
                                         1025, 1027, 1029, 1031]


def _abs_split(seed, near, scale, keep):
    """A complex pair (a, b) within ``scale`` of ``near`` and of each other
    for which np.abs(a - b) differs in the last bit from Python's
    abs(a - b), which np.hypot of the parts matches, and which ``keep(a, b)``
    accepts."""
    rng = np.random.default_rng(seed)
    while True:
        a = near + complex(*rng.uniform(-scale, scale, 2))
        b = a + complex(*rng.uniform(-scale, scale, 2))
        d = a - b
        assert float(np.hypot(d.real, d.imag)) == abs(d)
        if float(np.abs(np.complex128(d))) != abs(d) and keep(a, b):
            return a, b


def _assert_pairs_found(seq, width, eps, delta):
    cert = nb.find_pair_certificate(seq, width, 200, eps=eps, delta=delta)
    assert cert is not None and len(cert.pairs) == 50
    assert cert == reference_pair_certificate(seq, width, 200, eps, delta)
    assert cert.verify(seq)
    return cert


def test_complex_center_distance_is_pythons_abs():
    # |a - b| is exactly delta by Python's abs and np.hypot, and np.abs puts
    # it one ulp below delta: a walk that measured with np.abs pairs nothing
    a, b = _abs_split(5, 0.0, 1.0,
                      lambda a, b: np.abs(np.complex128(a - b)) < abs(a - b))
    delta = abs(a - b)
    seq = nb.make_sequence(nb.explicit([0.0, a, 0.0, b] * 50))
    for eps in (0.0, 1e-3):
        cert = _assert_pairs_found(seq, 1, eps, delta)
        assert cert.separation == delta


def test_complex_flank_distance_is_pythons_abs():
    # the flanks f, g lie exactly eps apart by Python's abs and np.hypot, in
    # one grid cell, and np.abs puts them one ulp further: a walk that
    # measured with np.abs would reject every pair
    def same_cell(f, g):
        eps = abs(f - g)
        return (np.abs(np.complex128(f - g)) > eps
                and math.floor(f.real / eps) == math.floor(g.real / eps)
                and math.floor(f.imag / eps) == math.floor(g.imag / eps))

    f, g = _abs_split(6, 0.3 + 0.3j, 0.01, same_cell)
    eps = abs(f - g)
    seq = nb.make_sequence(nb.explicit([f, 0.9, g, 0.1] * 50))
    _assert_pairs_found(seq, 1, eps, 0.5)


# ---------------------------------------------------------------------------
# Rotation values


ROTATION_K = (2, 5, 8, 10, 12, 13, 15, 17, 18, 19, 20)


def _fracs(q, theta, lo, hi):
    """(the gathered fractional parts, the exact ones) for lo <= n < hi."""
    got = _frac_shift_at(q, theta, np.arange(lo, hi, dtype=np.int64))
    return got, np.array([_frac_shift_exact(n, q, theta) for n in range(lo, hi)])


@pytest.mark.parametrize("k", ROTATION_K)
def test_rotation_block_bit_identical(k):
    q = math.sqrt(k) % 1
    theta = float(np.random.default_rng(k).random())
    for lo, hi in ((0, 3000), (2 ** 32 - 1500, 2 ** 32 + 1500),
                   (2 ** 53 - 64, 2 ** 53 + 64), (2 ** 63 - 64, 2 ** 63)):
        got, want = _fracs(q, theta, lo, hi)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q,theta", [(math.sqrt(2) * 1e-7, 0.25),      # qd = 2^75
                                     (math.sqrt(2) % 1, 1e-30),         # td > 2^64
                                     (math.pi % 1, -0.375)])
def test_rotation_block_large_denominator_and_negative_phase(q, theta):
    for lo, hi in ((0, 2000), (2 ** 32 - 100, 2 ** 32 + 100)):
        got, want = _fracs(q, theta, lo, hi)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("boundary", ["fractional-part", "half-indicator", "custom"])
def test_rotation_prefix_matches_scalar_reads(boundary):
    q, theta = math.sqrt(19) % 1, 0.6180339887
    bf = (lambda x: x * x - 0.5, 0.5) if boundary == "custom" else boundary
    seq = nb.make_sequence(nb.rotation(q, theta, bf))
    fresh = nb.make_sequence(nb.rotation(q, theta, bf))
    arr = seq.prefix(4000)
    scalar = np.array([fresh.eval(n) for n in range(4000)])
    assert arr.tobytes() == scalar.tobytes()
