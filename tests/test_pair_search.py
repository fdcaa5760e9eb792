"""Differential tests of the bucketed pair-certificate search and of the
vectorized rotation block against the per-index loops they replaced, and of
the chunk-reading pair search against the whole-prefix walk it replaced."""

import math

import numpy as np
import pytest

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
    pairs, notes = _whole_prefix_pair_walk(rl._data_view(arr), width, off, eps,
                                           delta, start, stop)

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
        bids, cids = rl._chunk_keys(data, width, off, eps, c0, c1,
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
    assert seq._cache.shape[0] == 0
    # the check reads the dense pairs' span once
    reads.clear()
    assert cert.verify(seq)
    assert len(reads) == 1


def test_pair_verdicts_leave_the_prefix_cache_empty():
    for name in ("rudin-shapiro", "rotation-frac", "rotation-half", "markov"):
        seq = SEQUENCES[name]()
        v = nb.verdict(seq, nb.AnalysisConfig(horizon=4000))
        assert v.certificate is not None and v.certificate.kind == "PairMismatch"
        assert seq._cache.shape[0] == 0


def test_group_rows_partitions_like_brute_force():
    rng = np.random.default_rng(3)
    small = rng.integers(-3, 4, size=(500, 4))
    wide = small * (2 ** 40)
    big = np.array([[np.iinfo(np.int64).min, 0], [0, 5], [np.iinfo(np.int64).min, 0],
                    [np.iinfo(np.int64).max, 5]], dtype=np.int64)
    floats = small * 0.25 + 0.1                     # eps = 0 flanks are raw values
    cplx = floats + 1j * rng.integers(-1, 2, size=(500, 4))
    for rows in (small, wide, big, floats, cplx):
        groups, first = rl._group_rows(rows)
        assert len(first) == len({tuple(r) for r in rows.tolist()})
        for i, row in enumerate(rows.tolist()):
            assert rows[first[groups[i]]].tolist() == row
        for i in range(0, len(rows), 17):
            for j in range(0, len(rows), 13):
                assert (groups[i] == groups[j]) == (rows[i].tolist() == rows[j].tolist())


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
