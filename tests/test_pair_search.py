"""Differential tests of the bucketed pair-certificate search and of the
vectorized rotation block against the per-index loops they replaced, of
the chunk-reading pair search against the whole-prefix walk it replaced,
and of the bucket-by-bucket pair walk against the walk that visited every
center."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import nbscope as nb
from nbscope import rightlimits as rl
from nbscope.sequences import _frac_shift_block, _frac_shift_exact


def reference_pair_certificate(seq, width, horizon, eps=None, delta=0.5,
                               flank_side="backward", min_recurrence=3):
    """The per-center loop that find_pair_certificate replaced, verbatim."""
    if flank_side not in ("backward", "forward"):
        raise nb.SequenceError("flank_side must be 'backward' or 'forward'")
    if width < 1:
        raise nb.SequenceError("flank width must be >= 1")
    eps = rl._resolve_eps(seq, eps)
    rl._check_tolerances(eps, delta)
    h = seq.clamp_horizon(horizon)
    if h < 2 * width + 1:
        raise nb.SequenceError("horizon too small for pair search")
    arr = seq.prefix(h + 1)
    backward = flank_side == "backward"
    centers = range(width, h + 1) if backward else range(0, h + 1 - width)

    def flank(i):
        return arr[i - width:i] if backward else arr[i + 1:i + width + 1]

    if eps == 0.0:
        def fkey(v):
            return v.tobytes()

        def ckey(c):
            return c
    else:
        inv = 1.0 / eps

        def fkey(v):
            q = np.floor(v.real * inv).astype(np.int64)
            if np.any(v.imag):
                q = np.concatenate([q, np.floor(v.imag * inv).astype(np.int64)])
            return q.tobytes()

        def ckey(c):
            return (math.floor(c.real * inv), math.floor(c.imag * inv))

    buckets: dict = {}
    pairs = []
    notes = set()
    for m in centers:
        fl = flank(m)
        key = fkey(fl)
        cm = complex(arr[m])
        ck = ckey(cm)
        cells = buckets.get(key)
        chosen = None
        if cells:
            # candidates live in other center cells: same-cell centers are
            # within 2*eps < delta of each other and can never qualify
            for ck2, lst in cells.items():
                if ck2 == ck:
                    continue
                for n in lst:
                    if chosen is not None and n >= chosen:
                        break
                    if (np.max(np.abs(flank(n) - fl)) <= eps
                            and abs(arr[n] - cm) >= delta):
                        chosen = n
                        break
        if chosen is not None:
            pairs.append((int(chosen), int(m)))
            for lst in cells.values():  # chosen sits in this flank bucket
                if chosen in lst:
                    lst.remove(chosen)
                    break
            if len(pairs) >= rl._PAIR_CAP:
                notes.add(f"pair collection capped at {rl._PAIR_CAP}")
                break
        else:
            if cells is None:
                cells = buckets[key] = {}
            lst = cells.setdefault(ck, [])
            if len(lst) < rl._BUCKET_CAP:
                lst.append(m)
            else:
                notes.add("bucket-collision overflow: some candidates dropped")

    if len(pairs) < min_recurrence:
        return None
    pairs.sort(key=lambda p: p[0])
    separation = min(abs(arr[n] - arr[m]) for n, m in pairs)
    return rl.NonReflectionlessCertificate(
        kind="PairMismatch",
        witnesses=tuple(n for n, _ in pairs),
        flank_side=flank_side,
        flank_width=width,
        eps=eps,
        delta=delta,
        separation=float(separation),
        pairs=tuple(pairs),
        notes=tuple(sorted(notes)),
    )


def whole_prefix_pair_certificate(seq, width, horizon, eps=None, delta=0.5,
                                  flank_side="backward", min_recurrence=3):
    """find_pair_certificate as it read one whole prefix, verbatim."""
    if flank_side not in ("backward", "forward"):
        raise nb.SequenceError("flank_side must be 'backward' or 'forward'")
    if width < 1:
        raise nb.SequenceError("flank width must be >= 1")
    rl._check_min_recurrence(min_recurrence)
    eps = rl._resolve_eps(seq, eps)
    rl._check_tolerances(eps, delta)
    h = seq.clamp_horizon(horizon)
    if h < 2 * width + 1:
        raise nb.SequenceError("horizon too small for pair search")
    arr = seq.prefix(h + 1)
    if flank_side == "backward":    # flank offset, first and end center
        off, start, stop = -width, width, h + 1
    else:
        off, start, stop = 1, 0, h + 1 - width
    data = np.ascontiguousarray(arr.real) if np.all(arr.imag == 0) else arr
    pairs, notes = _whole_prefix_pair_walk(data, width, off, eps, delta, start, stop)

    if len(pairs) < min_recurrence:
        return None
    pairs.sort(key=lambda p: p[0])
    separation = min(abs(arr[n] - arr[m]) for n, m in pairs)
    return rl.NonReflectionlessCertificate(
        kind="PairMismatch",
        witnesses=tuple(n for n, _ in pairs),
        flank_side=flank_side,
        flank_width=width,
        eps=eps,
        delta=delta,
        separation=float(separation),
        pairs=tuple(pairs),
        notes=tuple(sorted(notes)),
    )


def _whole_prefix_pair_walk(data, width, off, eps, delta, start, stop):
    """The pair walk over a whole data array, verbatim: the flank of center
    m is data[m + off : m + off + width]."""
    offs = range(off, off + width)
    bucket_ids: dict = {}       # flank key bytes -> bucket id
    cell_ids: dict = {}         # center cell value -> cell id
    buckets: dict = {}          # bucket id -> {cell id -> ascending centers}
    pairs = []
    notes = set()
    vals: list = []             # data as Python scalars, grown with the scan
    for c0 in range(start, stop, rl._KEY_CHUNK):
        c1 = min(c0 + rl._KEY_CHUNK, stop)
        bids, cids = _reference_chunk_keys(data, width, off, eps, c0, c1,
                                           bucket_ids, cell_ids)
        vals += data[len(vals):c1 + width].tolist()
        for m, b, c in zip(range(c0, c1), bids, cids):
            cm = vals[m]
            cells = buckets.get(b)
            chosen = None
            if cells:
                # candidates live in other center cells: same-cell centers
                # are within 2*eps < delta of each other and never qualify;
                # the delta test runs first because most candidates fail it
                for c2, lst in cells.items():
                    if c2 == c:
                        continue
                    for n in lst:
                        if chosen is not None and n >= chosen:
                            break
                        if (abs(vals[n] - cm) >= delta
                                and all(abs(vals[n + k] - vals[m + k]) <= eps
                                        for k in offs)):
                            chosen, chosen_cell = n, lst
                            break
            if chosen is not None:
                pairs.append((chosen, m))
                chosen_cell.remove(chosen)
                if len(pairs) >= rl._PAIR_CAP:
                    notes.add(f"pair collection capped at {rl._PAIR_CAP}")
                    return pairs, notes
            else:
                if cells is None:
                    cells = buckets[b] = {}
                lst = cells.setdefault(c, [])
                if len(lst) < rl._BUCKET_CAP:
                    lst.append(m)
                else:
                    notes.add("bucket-collision overflow: some candidates dropped")
    return pairs, notes


# ---------------------------------------------------------------------------
# The walk that visited every center, and the keys it read: the oracle
# of the bucket-by-bucket walk


def reference_pair_walk(seq, width, off, eps, delta, start, stop, end):
    """rightlimits._pair_walk as it visited every center in Python, verbatim
    (it reads the module's caps and chunk size, so patching them reaches it).

    Sequential pair selection over centers start..stop-1 of a sequence
    read below ``end``; the flank of center m is a_{m+off} .. a_{m+off+width-1}.

    Centers are scanned in ascending order.  Each center m is paired with
    the least n, over the other center cells of m's flank bucket, whose
    flank is within eps of m's (sup metric) and whose center differs from
    m's by at least delta; that n leaves its cell.  An unpaired m joins its
    cell while the cell holds fewer than ``_BUCKET_CAP`` entries.  Keys are
    computed chunk by chunk as the scan reaches them, from one read of the
    chunk's centers and flanks, because the search usually stops at
    ``_PAIR_CAP`` long before the horizon.  The values are real floats when
    the sequence says it is real, else complex (on real data complex values
    make the same decisions: abs(complex(x, 0)) == abs(x), and the keys
    partition alike), fixed before the first read so that every chunk keys
    alike.  Returns (pairs, notes, vals): vals holds a_0 .. as far as the
    scan read, as Python scalars.
    """
    offs = range(off, off + width)
    bucket_ids: dict = {}       # flank key bytes -> bucket id
    cell_ids: dict = {}         # center cell value -> cell id
    buckets: dict = {}          # bucket id -> {cell id -> ascending centers}
    pairs = []
    notes = set()
    vals: list = []             # values as Python scalars, grown with the scan
    for c0 in range(start, stop, rl._KEY_CHUNK):
        c1 = min(c0 + rl._KEY_CHUNK, stop)
        lo = c0 + min(off, 0)
        seg = seq.read(lo, min(c1 + width, end))
        if seq.real_valued:
            seg = np.ascontiguousarray(seg.real)
        bids, cids = _reference_chunk_keys(seg, width, off, eps, c0 - lo,
                                           c1 - lo, bucket_ids, cell_ids)
        vals += seg[len(vals) - lo:].tolist()
        for m, b, c in zip(range(c0, c1), bids, cids):
            cm = vals[m]
            cells = buckets.get(b)
            chosen = None
            if cells:
                # candidates live in other center cells: same-cell centers
                # are within 2*eps < delta of each other and never qualify;
                # the delta test runs first because most candidates fail it
                for c2, lst in cells.items():
                    if c2 == c:
                        continue
                    for n in lst:
                        if chosen is not None and n >= chosen:
                            break
                        if (abs(vals[n] - cm) >= delta
                                and all(abs(vals[n + k] - vals[m + k]) <= eps
                                        for k in offs)):
                            chosen, chosen_cell = n, lst
                            break
            if chosen is not None:
                pairs.append((chosen, m))
                chosen_cell.remove(chosen)
                if len(pairs) >= rl._PAIR_CAP:
                    notes.add(f"pair collection capped at {rl._PAIR_CAP}")
                    return pairs, notes, vals
            else:
                if cells is None:
                    cells = buckets[b] = {}
                lst = cells.setdefault(c, [])
                if len(lst) < rl._BUCKET_CAP:
                    lst.append(m)
                else:
                    notes.add("bucket-collision overflow: some candidates dropped")
    return pairs, notes, vals


def _reference_chunk_keys(data, width, off, eps, c0, c1, bucket_ids, cell_ids):
    """Flank-bucket ids and center-cell ids (lists) of the centers at
    positions c0..c1-1 of ``data``.

    Ids come from ``bucket_ids`` / ``cell_ids``, which grow across chunks,
    so they are consistent over the whole scan.  Flank keys: at eps = 0 the
    flank's bit pattern (value equality, since sequence values carry no
    negative zeros); at eps > 0 the per-coordinate int64 floor(re/eps),
    extended by the imaginary floors and a has-imaginary-part flag when the
    data is complex.  Center cells: the value at eps = 0, else
    (floor(re/eps), floor(im/eps)).
    """
    seg = data[c0 + off:c1 - 1 + off + width]       # every flank of the chunk
    cen = data[c0:c1]
    if eps == 0.0:
        rows = sliding_window_view(seg, width)
        cells = cen
    else:
        inv = 1.0 / eps
        rows = sliding_window_view(np.floor(seg.real * inv).astype(np.int64), width)
        cells = np.floor(cen.real * inv)
        if np.iscomplexobj(data):
            has_imag = sliding_window_view(seg.imag != 0, width).any(axis=1)
            rows = np.hstack([has_imag[:, None].astype(np.int64), rows,
                              sliding_window_view(np.floor(seg.imag * inv)
                                                  .astype(np.int64), width)])
            cells = cells + 1j * np.floor(cen.imag * inv)
    groups, first = _reference_group_rows(rows)
    bids = np.array([bucket_ids.setdefault(rows[i].tobytes(), len(bucket_ids))
                     for i in first.tolist()], dtype=np.int64)[groups]
    uniq, inverse = np.unique(cells, return_inverse=True)
    cids = np.array([cell_ids.setdefault(v, len(cell_ids))
                     for v in uniq.tolist()], dtype=np.int64)[inverse]
    return bids.tolist(), cids.tolist()


def _reference_group_rows(rows):
    """(groups, first) for the value-equal rows of a matrix: row i is in
    group groups[i], and first[g] is the least index of a row of group g
    (the lexsort is stable)."""
    order = np.lexsort(rows.T)
    srt = rows[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    groups = np.empty(len(order), dtype=np.int64)
    groups[order] = np.cumsum(new) - 1
    return groups, order[new]


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
    want = reference_pair_certificate(seq, width, horizon, eps=eps, delta=delta,
                                      flank_side=side)
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


def _assert_same_as_whole_prefix(seq, width, horizon, eps, delta, side):
    got = nb.find_pair_certificate(seq, width, horizon, eps=eps, delta=delta,
                                   flank_side=side)
    want = whole_prefix_pair_certificate(seq, width, horizon, eps=eps,
                                         delta=delta, flank_side=side)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.pairs == want.pairs
        assert got.notes == want.notes
        assert got.separation == want.separation
        assert got.to_json_dict() == want.to_json_dict()
    return want


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
            _assert_same_as_whole_prefix(seq, width, horizon, eps, delta, side)


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
                cert = _assert_same_as_whole_prefix(seq, width, 3000, eps, 0.5, side)
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
    reads = []
    block = seq._block

    def counting(lo, hi):
        reads.append((lo, hi))
        return block(lo, hi)

    seq._block = counting
    return seq, reads


@pytest.mark.parametrize("side", ["backward", "forward"])
def test_capped_search_reads_no_further_than_it_scanned(side):
    seq, reads = _counted(SEQUENCES["rudin-shapiro"])
    cert = nb.find_pair_certificate(seq, 3, 10 ** 6, eps=0.0, flank_side=side)
    assert f"pair collection capped at {rl._PAIR_CAP}" in cert.notes
    last = max(m for _, m in cert.pairs)
    assert max(hi for _, hi in reads) <= last + rl._KEY_CHUNK + 3 + 1
    # no read is longer than a key chunk plus its flanks
    assert max(hi - lo for lo, hi in reads) <= rl._KEY_CHUNK + 2 * 3
    # the check reads the dense pairs' span once
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
        assert max(hi - lo for lo, hi in reads) <= rl._READ_CHUNK + 64


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
# The bucket-by-bucket walk against the walk that visited every center


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


def _walk_args(seq, width, horizon, side):
    """(off, start, stop, end) of find_pair_certificate's walk."""
    h = seq.clamp_horizon(horizon)
    if side == "backward":
        return -width, width, h + 1, h + 1
    return 1, 0, h + 1 - width, h + 1


def _assert_walks_agree(seq, width, horizon, eps, delta, side):
    """The walk and its oracle pick the same pairs in the same order, with
    the same notes and the same separation."""
    args = _walk_args(seq, width, horizon, side)
    pairs, notes, vals = rl._pair_walk(seq, width, args[0], eps, delta, *args[1:])
    want, want_notes, want_vals = reference_pair_walk(seq, width, args[0], eps,
                                                      delta, *args[1:])
    assert pairs == want
    assert notes == want_notes
    if pairs:
        assert (min(abs(vals[n] - vals[m]) for n, m in pairs)
                == min(abs(want_vals[n] - want_vals[m]) for n, m in want))
    return notes


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
            off, start, stop, end = _walk_args(seq, 2, 4000, side)
            pairs = rl._pair_walk(seq, 2, off, eps, 0.5, start, stop, end)[0]
            assert 1536 <= pairs[-1][1] < 2048


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
        pairs = rl._pair_walk(seq, 1, -1, eps, 0.5, 1, 4001, 4001)[0]
        assert [m for _, m in pairs] == [1001, 1005, 1009, 1013, 1017, 1021,
                                         1025, 1027, 1029, 1031]


def test_walk_matches_reference_when_cells_are_nan():
    # 1/eps overflows: a zero value's cell is 0 * inf = nan, and numpy's
    # grouping and the walk both make every nan cell one cell
    real = nb.make_sequence(nb.explicit(_float_noise(12, 4001).read(0, 4001).real
                                        * (np.arange(4001) % 3 != 0)))
    cplx = SEQUENCES["complex-explicit"]()
    with np.errstate(all="ignore"):
        for seq in (real, cplx):
            for side in ("backward", "forward"):
                _assert_walks_agree(seq, 1, 4000, 1e-310, 0.5, side)


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
    args = _walk_args(seq, width, 200, "backward")
    assert list(cert.pairs) == reference_pair_walk(seq, width, args[0], eps,
                                                   delta, *args[1:])[0]
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
# Rotation block


ROTATION_K = (2, 5, 8, 10, 12, 13, 15, 17, 18, 19, 20)


def _exact_fracs(q, theta, lo, hi):
    return np.array([_frac_shift_exact(n, q, theta) for n in range(lo, hi)])


@pytest.mark.parametrize("k", ROTATION_K)
def test_rotation_block_bit_identical(k):
    q = math.sqrt(k) % 1
    theta = float(np.random.default_rng(k).random())
    for lo, hi in ((0, 3000), (2 ** 32 - 1500, 2 ** 32 + 1500),
                   (2 ** 53 - 64, 2 ** 53 + 64), (2 ** 63 - 64, 2 ** 63 + 64)):
        got = _frac_shift_block(q, theta, lo, hi)
        assert got.tobytes() == _exact_fracs(q, theta, lo, hi).tobytes()


@pytest.mark.parametrize("q,theta", [(math.sqrt(2) * 1e-7, 0.25),      # qd = 2^75
                                     (math.sqrt(2) % 1, 1e-30),         # td > 2^64
                                     (math.pi % 1, -0.375)])
def test_rotation_block_large_denominator_and_negative_phase(q, theta):
    for lo, hi in ((0, 2000), (2 ** 32 - 100, 2 ** 32 + 100)):
        got = _frac_shift_block(q, theta, lo, hi)
        assert got.tobytes() == _exact_fracs(q, theta, lo, hi).tobytes()


@pytest.mark.parametrize("boundary", ["fractional-part", "half-indicator", "custom"])
def test_rotation_prefix_matches_scalar_reads(boundary):
    q, theta = math.sqrt(19) % 1, 0.6180339887
    bf = (lambda x: x * x - 0.5, 0.5) if boundary == "custom" else boundary
    seq = nb.make_sequence(nb.rotation(q, theta, bf))
    fresh = nb.make_sequence(nb.rotation(q, theta, bf))
    arr = seq.prefix(4000)
    scalar = np.array([fresh.eval(n) for n in range(4000)])
    assert arr.tobytes() == scalar.tobytes()
