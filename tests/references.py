"""One slow reference per scan, and each family's values one index at a
time, for the differential tests.

Each reference computes what its scan promises from the definition, in
the plainest code that gives the library's results bit for bit: one
whole read of the values and a loop (or one numpy comparison) per case,
with no chunks, so a patched ``_CHUNK`` or ``_KEY_CHUNK`` reaches only the
library side.  The caps ``_PAIR_CAP``, ``_BUCKET_CAP`` and
``_CLUSTER_CAP`` are read from ``rightlimits`` at call time, so patching
them reaches both sides.

A rewrite of a scan adds its cases to the tests that run the scan's
reference; it does not keep the code it replaced as one more oracle.
"""

import dataclasses
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import nbscope as nb
from nbscope import rightlimits as rl
from nbscope.sequences import SequenceError, _frac_shift_exact


# ---------------------------------------------------------------------------
# Family values, one index at a time: the per-index generators that the
# families' value functions replaced


def rs_value(n: int) -> int:
    # parity of the count of adjacent "11" bit pairs
    return 1 if ((n & (n >> 1)).bit_count() & 1) == 0 else -1


def _erdos_gap_value(t: int, gap_len: int) -> float:
    rise = math.isqrt(gap_len)
    return min(t + 1.0, float(gap_len - t), rise + 1.0) / (rise + 1.0)


def _erdos_locate(n: int):
    """(in_block, gap_lo, gap_len) for index n."""
    f, j = 2, 2
    prev_end = -1
    while True:
        if n < f:
            return False, prev_end + 1, f - (prev_end + 1)
        if n <= f + j:
            return True, 0, 0
        prev_end = f + j
        j += 1
        f *= j


def _factorials():
    f, k = 1, 1
    while True:
        yield f
        k += 1
        f *= k


def _squares():
    k = 0
    while True:
        yield k * k
        k += 1


def _exponent_factory(spec):
    if spec == "factorials":
        return _factorials
    if spec == "squares":
        return _squares
    if callable(spec):
        return spec
    try:
        values = sorted(set(int(e) for e in spec))
    except TypeError:
        raise SequenceError(f"malformed exponent set: {spec!r}") from None
    if any(e < 0 for e in values):
        raise SequenceError("exponents must be nonnegative integers")
    if not values:
        raise SequenceError("exponent set must be nonempty")
    return lambda: iter(values)


class _ExponentSet:
    """Lazily grown ascending exponent set with O(1) membership for seen range."""

    def __init__(self, iterator_factory):
        self._it = iterator_factory()
        self._seen = set()
        self._limit = -1  # all exponents <= _limit are in _seen
        self._last = -1

    def grow_to(self, n: int):
        while self._limit < n:
            e = next(self._it, None)
            if e is None:
                self._limit = math.inf
                return
            if e < 0 or e <= self._last:
                raise SequenceError(
                    "exponent stream must be strictly ascending and nonnegative")
            self._last = e
            self._seen.add(e)
            self._limit = e

    def __contains__(self, n: int) -> bool:
        self.grow_to(n)
        return n in self._seen


_SCALAR_BOUNDARY_FNS = {
    "fractional-part": lambda x: x,
    "half-indicator": lambda x: 1.0 if x < 0.5 else 0.0,
}


def scalar_periodic(pattern):
    pattern = tuple(complex(v) for v in pattern)
    p = len(pattern)

    def fn(n):
        return pattern[n % p]

    return fn


def scalar_gap_powers(exponents, fill):
    fill = complex(fill)
    if exponents == "squares":
        return lambda n: fill if math.isqrt(n) ** 2 == n else 0.0
    exps = _ExponentSet(_exponent_factory(exponents))

    def fn(n):
        return fill if n in exps else 0.0

    return fn


def scalar_rotation(q, theta, boundary_fn):
    if isinstance(boundary_fn, str):
        func = _SCALAR_BOUNDARY_FNS[boundary_fn]
    else:
        func = boundary_fn[0]

    def fn(n):
        return func(_frac_shift_exact(n, q, theta))

    return fn


def scalar_erdos(edge):
    hard = edge == "hard"

    def fn(n):
        in_block, gap_lo, gap_len = _erdos_locate(n)
        if in_block:
            return 0.0
        if hard:
            return 1.0
        return _erdos_gap_value(n - gap_lo, gap_len)

    return fn


def scalar_explicit(values):
    values = tuple(complex(v) for v in values)

    def fn(n):
        return values[n]

    return fn


def scalar_snapped(source_fn, points, horizon):
    """The snapped sequence's per-index read over a scalar source oracle
    (the stored part is rebuilt as snap_to_limit_points builds it)."""
    pts = [complex(p) for p in points]
    parr = np.asarray(pts, dtype=complex)
    raw = np.array([complex(source_fn(n)) for n in range(horizon + 1)]) + 0j
    snapped_tuple = tuple(complex(v) for v in
                          parr[np.argmin(np.abs(raw[:, None] - parr[None, :]), axis=1)])

    def fn(n):
        if n <= horizon:
            return snapped_tuple[n]
        v = complex(source_fn(n)) + 0j
        return min(pts, key=lambda p: abs(v - p))

    return fn


# ---------------------------------------------------------------------------
# Eventual periodicity


def reference_periodicity(seq, max_period, max_preperiod, horizon, tol=None):
    """detect_eventual_periodicity: the least (preperiod, period) with
    |a_{n+T} - a_n| <= tol for every n from the preperiod through
    horizon - T, found with one whole-array comparison per period."""
    if tol is None:
        tol = 0.0 if seq.exact else 1e-9
    h = seq.clamp_horizon(horizon)
    if h < max_preperiod + 2 * max_period:
        raise nb.SequenceError(
            f"horizon {h} < max_preperiod + 2*max_period = "
            f"{max_preperiod + 2 * max_period}")
    arr = seq.read(0, h + 1)
    best = None
    with np.errstate(over="ignore"):    # an overflowing difference is inf
        for T in range(1, max_period + 1):
            viol = np.flatnonzero(np.abs(arr[T:] - arr[:-T]) > tol)
            need = int(viol[-1]) + 1 if viol.size else 0
            if need <= max_preperiod and (best is None or (need, T) < best):
                best = (need, T)
    return best


# ---------------------------------------------------------------------------
# Szego block analysis


def reference_block_witnesses(seq, p_max, horizon):
    """rightlimits._block_witnesses (the witness search of
    szego_block_analysis without its periodicity rerun), with a dict of
    aligned blocks and a scalar mismatch walk per length, and one skip note
    per skipped length (:func:`fold_skipped_tail` folds them)."""
    h = seq.clamp_horizon(horizon)
    arr = seq.read(0, h + 1)
    vals = arr.tolist()
    values = tuple(sorted(set(vals), key=lambda v: (v.real, v.imag)))
    nv = len(values)
    per_p: dict = {}
    for p in range(1, p_max + 1):
        blocks = (h + 1) // p
        needed = nv ** p + 1
        if blocks < needed:
            per_p[p] = (f"skipped: {blocks} aligned blocks available, "
                        f"{needed} needed to guarantee recurrence")
            continue
        # the least pair: the least block that recurs, and its next occurrence
        first_seen: dict = {}
        best = None
        for ell in range(blocks):
            blk = arr[ell * p:(ell + 1) * p].tobytes()
            if blk not in first_seen:
                first_seen[blk] = ell
            elif best is None or (first_seen[blk], ell) < best:
                best = (first_seen[blk], ell)
        if best is None:
            raise nb.VerificationError("pigeonhole guarantee violated")
        P, Q = best[0] * p, best[1] * p
        per_p[p] = "no mismatch within horizon"
        for j in range(p + 1, h + 2 - Q):
            if vals[P + j - 1] != vals[Q + j - 1]:
                per_p[p] = rl.SzegoWitness(p, P, Q, j)
                break
    every = all(isinstance(w, rl.SzegoWitness) for w in per_p.values())
    return rl.SzegoReport(per_p, "mismatch-at-every-p" if every else "horizon-exhausted",
                          None, values, h)


def reference_szego(seq, p_max, horizon, max_period=64, max_preperiod=64):
    """szego_block_analysis: the block witnesses, then, unless every
    length has one, the periodicity rerun with the reference above."""
    report = reference_block_witnesses(seq, p_max, horizon)
    if report.overall == "mismatch-at-every-p":
        return report
    h = report.horizon
    mp = min(max_period, max(1, h // 3))
    mpp = min(max_preperiod, max(0, h - 2 * mp))
    found = reference_periodicity(seq, mp, mpp, h, tol=0.0)
    if found is not None:
        return dataclasses.replace(report, overall="eventually-periodic",
                                   periodicity=found)
    return report


def fold_skipped_tail(report, p_max):
    """``report`` of a per-p loop in the form _block_witnesses writes: the
    note of the least skipped length covers every larger length, which
    must all be skipped as well, and their own notes go."""
    skips = [p for p, w in report.per_p.items() if str(w).startswith("skipped")]
    if not skips or skips[0] == p_max:
        return report
    first = skips[0]
    assert skips == list(range(first, p_max + 1))
    per_p = {p: w for p, w in report.per_p.items() if p <= first}
    per_p[first] = per_p[first].replace(
        "skipped:", f"skipped (so is every p up to {p_max}):", 1)
    return dataclasses.replace(report, per_p=per_p)


# ---------------------------------------------------------------------------
# Zero-flank search


def reference_gap_hits(seq, width, horizon, eps, delta, decay=None):
    """(hits, moduli): the centers n in [width, horizon] with |a_n| >= delta
    and |a_{n-k}| <= eps (or C e^{-D k} + eps under decay = (C, D)) for
    k = 1..width, and |a_n| for every n up to the horizon."""
    h = seq.clamp_horizon(horizon)
    ab = np.abs(seq.read(0, h + 1))
    ok = ab[width:] >= delta
    for k in range(1, width + 1):
        thr = eps if decay is None else float(decay[0]) * math.exp(-float(decay[1]) * k) + eps
        ok &= ab[width - k:h + 1 - k] <= thr
    return np.flatnonzero(ok) + width, ab


def reference_gap_certificate(seq, width, horizon, eps=None, delta=0.5, decay=None,
                              min_recurrence=3):
    """find_gap_certificate on the hits above; the separation is the least
    |a_n| over them."""
    eps = rl._resolve_eps(seq, eps)
    hits, ab = reference_gap_hits(seq, width, horizon, eps, delta, decay)
    if hits.size < min_recurrence:
        return None
    return rl.NonReflectionlessCertificate(
        kind="GapZeroFlank",
        witnesses=tuple(hits.tolist()),
        flank_side="backward",
        flank_width=width,
        eps=eps,
        delta=delta,
        separation=float(ab[hits].min()),
        decay=None if decay is None else (float(decay[0]), float(decay[1])),
    )


# ---------------------------------------------------------------------------
# Pair search


def reference_pair_walk(seq, width, off, eps, delta, start, stop, end):
    """rightlimits._pair_walk's rule, center by center over one read of
    a_0 .. a_{end-1}, with every value a Python complex (on real data the
    distances are those of the real values, bit for bit).

    Centers m = start .. stop-1 are taken in ascending order; the flank of
    m is a_{m+off} .. a_{m+off+width-1}.  Flanks share a bucket when their
    values are equal (eps = 0) or when their floor(re/eps) agree, and
    floor(im/eps) too if either flank has a nonzero imaginary part; centers
    share a cell when their values (eps = 0) or their floor(re/eps) and
    floor(im/eps) agree.  Each m pairs with the least n, over the other
    cells of its bucket, whose value differs from m's by at least delta and
    whose flank is within eps of m's at every offset (Python abs); that n
    leaves its cell.  An unpaired m joins its cell while the cell holds
    fewer than ``_BUCKET_CAP`` centers, and the walk stops at the
    ``_PAIR_CAP``-th pair.  Returns (pairs in the order found, notes, the
    values as a list)."""
    arr = seq.read(0, end)
    vals = arr.tolist()
    if eps == 0.0:
        def bucket_of(m):
            return arr[m + off:m + off + width].tobytes()

        def cell_of(m):
            return vals[m]
    else:
        inv = 1.0 / eps
        re = np.floor(arr.real * inv).astype(np.int64)
        im = np.floor(arr.imag * inv).astype(np.int64)
        has_imag = arr.imag != 0

        def bucket_of(m):
            s = slice(m + off, m + off + width)
            return re[s].tobytes() + (im[s].tobytes() if has_imag[s].any() else b"")

        def cell_of(m):
            return int(re[m]), int(im[m])

    buckets: dict = {}          # flank bucket -> {cell -> ascending centers}
    pairs = []
    notes = set()
    for m in range(start, stop):
        cells = buckets.setdefault(bucket_of(m), {})
        own = cell_of(m)
        chosen = None
        for cell, centers in cells.items():
            if cell == own:     # same-cell centers are within 2*eps < delta
                continue
            for n in centers:
                if chosen is not None and n >= chosen:
                    break
                if (abs(vals[n] - vals[m]) >= delta
                        and all(abs(vals[n + k] - vals[m + k]) <= eps
                                for k in range(off, off + width))):
                    chosen, chosen_cell = n, centers
                    break
        if chosen is not None:
            pairs.append((chosen, m))
            chosen_cell.remove(chosen)
            if len(pairs) >= rl._PAIR_CAP:
                notes.add(f"pair collection capped at {rl._PAIR_CAP}")
                break
        else:
            centers = cells.setdefault(own, [])
            if len(centers) < rl._BUCKET_CAP:
                centers.append(m)
            else:
                notes.add("bucket-collision overflow: some candidates dropped")
    return pairs, notes, vals


def walk_args(seq, width, horizon, flank_side):
    """(off, start, stop, end) of find_pair_certificate's walk."""
    h = seq.clamp_horizon(horizon)
    if flank_side == "backward":
        return -width, width, h + 1, h + 1
    return 1, 0, h + 1 - width, h + 1


def reference_pair_certificate(seq, width, horizon, eps, delta=0.5,
                               flank_side="backward", min_recurrence=3):
    """find_pair_certificate on the reference walk: pairs by first index,
    separation the least center distance."""
    off, start, stop, end = walk_args(seq, width, horizon, flank_side)
    pairs, notes, vals = reference_pair_walk(seq, width, off, eps, delta, start, stop, end)
    if len(pairs) < min_recurrence:
        return None
    pairs = sorted(pairs)
    return rl.NonReflectionlessCertificate(
        kind="PairMismatch",
        witnesses=tuple(n for n, _ in pairs),
        flank_side=flank_side,
        flank_width=width,
        eps=eps,
        delta=delta,
        separation=float(min(abs(vals[n] - vals[m]) for n, m in pairs)),
        pairs=tuple(pairs),
        notes=tuple(sorted(notes)),
    )


def raw_chunk_keys(data, width, off, eps, c0, c1):
    """rightlimits._chunk_keys at eps = 0 with the raw flank values as the
    key rows, where the library groups their value ranks: a drop-in for it.
    The grouping itself is the library's ``_group_rows`` (what this checks
    is the rank coding); test_group_rows_partitions_like_brute_force checks
    ``_group_rows``."""
    assert eps == 0.0
    rows = sliding_window_view(data[c0 + off:c1 - 1 + off + width], width)
    groups, first, order = rl._group_rows(rows)
    return groups, [rows[i].tobytes() for i in first.tolist()], data[c0:c1], order


# ---------------------------------------------------------------------------
# Recurring-window extraction


def reference_leader_clusters(data, D, width, eps, chunk=16384):
    """The greedy leader rule of extract_right_limits, chunk by chunk over
    every window: each window joins the earliest cluster whose leader is
    within eps (sup of np.abs) or founds one; once ``_CLUSTER_CAP``
    clusters exist (eps > 0 only) a window matching none is dropped.
    Returns ([(leader, ascending centers)], truncated)."""
    cap = rl._CLUSTER_CAP if eps > 0 else math.inf
    wins = sliding_window_view(data, D)
    lead_rows = np.empty((0, D), dtype=data.dtype)
    members: list = []
    truncated = False
    for s0 in range(0, wins.shape[0], chunk):
        block = np.ascontiguousarray(wins[s0:s0 + chunk])
        first = np.full(block.shape[0], -1, dtype=np.int64)
        remaining = np.arange(block.shape[0])
        for li in range(lead_rows.shape[0]):
            if remaining.size == 0:
                break
            hit = np.abs(block[remaining] - lead_rows[li]).max(axis=1) <= eps
            first[remaining[hit]] = li
            remaining = remaining[~hit]
        matched = np.flatnonzero(first >= 0)
        for li in np.unique(first[matched]).tolist():
            members[li].extend((s0 + matched[first[matched] == li] + width).tolist())
        # unmatched windows found new clusters, earliest first
        new_rows = []
        while remaining.size:
            if lead_rows.shape[0] + len(new_rows) >= cap:
                truncated = True
                break
            row = np.array(block[remaining[0]])
            hit = np.abs(block[remaining] - row).max(axis=1) <= eps  # the founder too
            members.append((s0 + remaining[hit] + width).tolist())
            new_rows.append(row)
            remaining = remaining[~hit]
        if new_rows:
            lead_rows = np.vstack([lead_rows] + new_rows)
    return list(zip(lead_rows, members)), truncated


def reference_extract(seq, width, horizon, eps=None, max_candidates=16, min_recurrence=3):
    """extract_right_limits on the leader rule above: clusters by
    population (ties: earlier first), at most ``max_candidates``."""
    eps = rl._resolve_eps(seq, eps)
    h = seq.clamp_horizon(horizon)
    arr = seq.read(0, h + 1)
    D = 2 * width + 1
    data = np.ascontiguousarray(arr.real) if seq.real_valued else arr
    clusters, truncated = reference_leader_clusters(data, D, width, eps)
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


# ---------------------------------------------------------------------------
# Certificate-check reads


def span_values(seq, centers, offsets):
    """The rows of rightlimits._span_rows, its batches stacked: a_{c+o}
    for each center c (a row, or a pair of rows for a pair of centers) and
    offset o (a column), read one index at a time with ``eval``."""
    idx = np.asarray(centers, dtype=np.int64)[..., None] + offsets
    vals = [seq.eval(int(n)) for n in idx.ravel()]
    return np.array(vals, dtype=complex).reshape(idx.shape)


# ---------------------------------------------------------------------------
# Counted reads


def count_gathers(seq):
    """Record every gather of ``seq``: its value function is wrapped so
    that each call appends its indices to the returned list, as a
    ``range`` when they are one (an empty gather is ``range(0)``, which
    equals every empty range), else as a tuple."""
    gathers, at = [], seq._family_at

    def counting(idx):
        lo = int(idx[0]) if idx.size else 0
        if np.array_equal(idx, np.arange(lo, lo + idx.size)):
            gathers.append(range(lo, lo + idx.size))
        else:
            gathers.append(tuple(idx.tolist()))
        return at(idx)

    seq._family_at = counting
    return gathers
