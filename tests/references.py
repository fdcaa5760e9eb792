"""One slow reference per library function that the differential tests
check, and each family's values one index at a time.

Each reference computes what its function promises from the definition,
in the plainest code that gives the library's results bit for bit: one
whole read of the values and a loop (or one numpy comparison) per case,
with no chunks, so a patched ``_CHUNK`` or ``_KEY_CHUNK`` reaches only the
library side (a reference that sums in chunks, as the certified sums do,
takes its chunk as an argument).  The caps ``_PAIR_CAP``, ``_BUCKET_CAP``
and ``_CLUSTER_CAP`` are read from ``rightlimits`` at call time, so
patching them reaches both sides.

A rewrite of a function adds its cases to the tests that run the
function's reference; it does not keep the code it replaced as one more
oracle.  A reference is retired only when hand-made mutants of the code
it guards are still killed without it.
"""

import cmath
import csv
import dataclasses
import functools
import io
import math
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import nbscope as nb
from nbscope import analytic, randomseries, ratform
from nbscope import rightlimits as rl
from nbscope.analytic import AnalyticError, NumericCapError, ipow, kahan_complex_sum
from nbscope.sequences import SequenceError, _check_finite, _exact_kind, _frac_shift_exact


# ---------------------------------------------------------------------------
# Family values, one index at a time: the per-index generators that the
# families' value functions replaced


def rs_polynomials(level):
    """Coefficient arrays of the Rudin-Shapiro pair at the given level,
    built directly from the recursion P -> P + z^(2^n) Q, Q -> P - z^(2^n) Q."""
    P, Q = [1], [1]
    for _ in range(level):
        P, Q = P + Q, P + [-c for c in Q]
    return P, Q


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


def complex_values(values):
    """explicit()'s stored array, one ``complex(v)`` at a time: what its
    one-call conversion replaced."""
    return np.fromiter(map(complex, values), complex)


def reference_snap(source, points, onset_tol, horizon):
    """snap_to_limit_points of the values ``source(n)`` scanned up to
    ``horizon``: (its params but the source family, its values at an index
    array).  Each a_n goes to its nearest point by np.abs (the first of
    equals); gamma is half the least distance between points (inf for one
    point), the onset one past the last scanned n with |a_n - its point| >
    gamma, and the ties the scanned n whose two nearest points are within
    ``onset_tol`` of each other in distance."""
    parr = np.array([complex(p) for p in points])

    def dists(idx):
        return np.abs(np.array([complex(source(n)) for n in idx])[:, None] - parr)

    gamma = 0.5 * min((abs(a - b) for i, a in enumerate(parr.tolist())
                       for b in parr.tolist()[i + 1:]), default=math.inf)
    d = dists(range(horizon + 1))
    viol = np.flatnonzero(d.min(axis=1) > gamma)
    ties = np.flatnonzero(np.diff(np.sort(d, axis=1)[:, :2], axis=1) <= onset_tol)
    params = {"points": tuple(parr.tolist()), "gamma": gamma,
              "onset_index": int(viol[-1]) + 1 if viol.size else 0,
              "ties": tuple(ties.tolist()), "scan_horizon": horizon}
    return params, lambda idx: parr[np.argmin(dists(idx), axis=1)]


def reference_rational_screen(q):
    """Whether the rotation's irrationality screen refuses q: a fraction of
    denominator at most 10^6 lies within 1e-12 of it."""
    return abs(q - float(Fraction(q).limit_denominator(10 ** 6))) < 1e-12


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


def _leader_clusters(data, D, width, eps, chunk=16384):
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
            with np.errstate(over="ignore"):    # an overflowing difference is inf
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
            with np.errstate(over="ignore"):
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
    clusters, truncated = _leader_clusters(data, D, width, eps)
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


def reference_verify(seq, item):
    """``item.verify(seq)`` from the definition over the values of
    :func:`span_values`, for a certificate, a right-limit candidate or a
    Szegő witness: every gap hit has |a_{n-k}| under its threshold (eps,
    or C e^{-D k} + eps under decay = (C, D), as in :func:`reference_gap_hits`)
    for k = 1..width and |a_n| >= delta, by np.abs; every pair of distinct
    centers has flanks within eps and centers at least delta apart, by
    Python's abs; every candidate center is within eps of the window, by
    np.abs; a witness's first p values agree and its mismatch-th differ.
    False when a value lies off the sequence."""
    try:
        if isinstance(item, rl.RightLimitCandidate):
            W = item.window.radius
            rows = span_values(seq, item.recurrence_indices, np.arange(-W, W + 1))
            return bool(np.all(np.abs(rows - item.window.as_array()) <= item.eps))
        if isinstance(item, rl.SzegoWitness):
            a, b = span_values(seq, (item.first, item.second), np.arange(item.mismatch))
            p = item.p
            return item.mismatch > p and bool(np.all(a[:p] == b[:p]) and a[-1] != b[-1])
        w, eps, delta = item.flank_width, item.eps, item.delta
        if item.kind == "GapZeroFlank":
            thr = [eps if item.decay is None else
                   float(item.decay[0]) * math.exp(-float(item.decay[1]) * k) + eps
                   for k in range(w, 0, -1)]
            ab = np.abs(span_values(seq, item.witnesses, np.arange(-w, 1)))
            return bool(np.all(ab[:, :-1] <= thr) and np.all(ab[:, -1] >= delta))
        offs = range(-w, 1) if item.flank_side == "backward" else range(w + 1)
        pairs = item.pairs or ()
        rows = span_values(seq, pairs, np.array(offs)).tolist()
        return all(n != m for n, m in pairs) and all(
            abs(a - b) >= delta if o == 0 else abs(a - b) <= eps
            for fn, fm in rows for o, a, b in zip(offs, fn, fm))
    except (OverflowError, SequenceError):
        return False


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




# ---------------------------------------------------------------------------
# Certified sums


def power_bound(r, n, up, bits=256):
    """A Fraction at least (up) or at most r**n, by squaring with each
    product rounded outward to ``bits`` bits; exact for powers of 2."""
    num, den = r.as_integer_ratio()             # den is a power of 2
    base, res = (num, 1 - den.bit_length()), (1, 0)

    def mul(a, b):
        m, e = a[0] * b[0], a[1] + b[1]
        extra = max(0, m.bit_length() - bits)
        q = m >> extra
        return (q + (up and q << extra != m), e + extra)

    while n:
        if n & 1:
            res = mul(res, base)
        n >>= 1
        base = mul(base, base) if n else base
    return Fraction(res[0]) * Fraction(2) ** res[1]


@functools.lru_cache(maxsize=None)
def _least_terms(bound, r, tol):
    """The least N with bound * r**N / (1 - r) <= tol, in exact rationals
    (r**N bounded above at 256 bits), for 0 <= r < 1, bound >= 0, tol > 0."""
    scale = Fraction(bound) / (1 - Fraction(r))
    n = 0 if r == 0 or bound == 0 else max(0, math.ceil(
        (math.log(tol) - math.log(bound) + math.log1p(-r)) / math.log(r)))
    while scale * power_bound(r, n, up=True) > tol:
        n += 1
    while n and scale * power_bound(r, n - 1, up=True) <= tol:
        n -= 1
    return n


def reference_truncation(bound, length, r, tol, start=0, offset=0):
    """analytic._truncation: (N, tail) for sum_n a_(start+n) z^(n+offset) at
    |z| = r, N the least count of terms whose tail bound is at most tol.  A
    sequence of ``length`` values is cut at its end (a start past it is
    refused), where the sum is exact, before start + N meets TERM_CAP;
    else the tail is bound * r**(N + offset) / (1 - r) rounded to nearest."""
    n = _least_terms(bound, r, tol)
    exact = length is not None and start + n >= length
    if exact:
        if start > length:
            raise SequenceError(f"shift {start} beyond explicit sequence length {length}")
        n = length - start
    if start + n > analytic.TERM_CAP:
        raise NumericCapError(start + n)
    return n, 0.0 if exact else bound * r ** (n + offset) / (1.0 - r)


def reference_power_sum(coeffs, z, start=0, chunk=1 << 16):
    """(sum, mass) of the terms coeffs[i] z^(start + i), as the certified
    sums form them: the powers are cumulative products from ipow(z, start),
    restarted every ``chunk`` terms from the last power times z; each
    chunk's terms are summed into a partial, the partials are added with
    compensation, and mass is the sum of the chunks' sums of |term|."""
    partials, mass, power = [], 0.0, ipow(z, start)
    for lo in range(0, len(coeffs), chunk):
        steps = np.full(min(chunk, len(coeffs) - lo), z, dtype=complex)
        steps[0] = power
        pw = np.cumprod(steps)
        terms = coeffs[lo:lo + chunk] * pw
        partials.append(complex(np.sum(terms)))
        mass += float(np.sum(np.abs(terms)))
        power = complex(pw[-1]) * z
    return kahan_complex_sum(partials), mass


def reference_eval_f(seq, z, tol, chunk=1 << 16):
    """eval_f: the power sum of the first N values, N and the tail from
    analytic._truncation."""
    n, tail = analytic._truncation(seq, abs(z), tol)
    return nb.EvalResult(reference_power_sum(seq.read(0, n), z, 0, chunk)[0], tail, n)


def reference_shift_pair(seq, shift, z, tol, chunk=1 << 16):
    """eval_shift_pair: f+ over a_shift .. a_(shift+M-1) (M and its tail
    from analytic._truncation at start ``shift``), f- = sum_{n<shift} a_n
    z^(n-shift), the residual |f+ + f- - z^-shift f| with f over the same
    values, and its allowance: twice the tails plus the certified rounding
    of the four power sums."""
    r = abs(z)
    m, tail = analytic._truncation(seq, r, tol, start=shift)
    values = seq.read(0, shift + m)
    head, rest = values[:shift], values[shift:]
    fplus, fplus_mass = reference_power_sum(rest, z, 0, chunk)
    fminus, fminus_mass = reference_power_sum(head, z, -shift, chunk)
    head_val, head_mass = reference_power_sum(head, z, 0, chunk)
    rest_val, rest_mass = reference_power_sum(rest, z, shift, chunk)
    lhs, scale = fplus + fminus, ipow(z, -shift)
    rhs = scale * (head_val + rest_val)
    rounding = float(np.finfo(float).eps) * (
        (m + 3) * fplus_mass + (shift + 3) * fminus_mass
        + abs(scale) * (shift + m + 3) * (head_mass + rest_mass)
        + 2.0 * (abs(lhs) + abs(rhs)))
    allowance = 2.0 * (tail + r ** (-shift) * (tail * r ** shift) + rounding)
    return analytic.ShiftPairResult(fplus=nb.EvalResult(fplus, tail, m), fminus=fminus,
                                    identity_residual=abs(lhs - rhs),
                                    residual_allowance=allowance, shift=shift)


def reference_eval_two_sided(source, z, tol=1e-10, chunk=1 << 16):
    """eval_two_sided.  ``source`` is a TwoSidedWindow, whose sums are
    exact, or a pair (b, bound) of the values b(n) of a two-sided sequence
    at every integer n and a bound on their moduli.  Inside the disk the
    power sum runs over b_0, b_1, ... at z, outside over b_-1, b_-2, ... at
    1/z from exponent 1; a sequence's is cut at the least count of terms
    whose geometric tail bound is at most tol (that tail rounded to
    nearest), and refused within 1e-9 of the circle or past TERM_CAP."""
    z = complex(z)
    inside = abs(z) < 1.0
    w, start, sign = (z, 0, 1) if inside else (1.0 / z, 1, -1)
    if isinstance(source, nb.TwoSidedWindow):
        b, n, tail = source.value, source.radius + inside, 0.0
    else:
        b, bound = source
        r = abs(z) if inside else 1.0 / abs(z)
        if r > 1.0 - analytic._INSIDE_MARGIN:
            raise AnalyticError(f"|z| = {abs(z)} too close to the unit circle")
        n = _least_terms(bound, r, tol)
        if n > analytic.TERM_CAP:
            raise NumericCapError(n)
        tail = bound * r ** (n + start) / (1.0 - r)
    vals = np.array([b(sign * (k + start)) for k in range(n)], dtype=complex)
    return nb.EvalResult(reference_power_sum(vals, w, start, chunk)[0], tail, n)


# ---------------------------------------------------------------------------
# Arc transform


def reference_blocked_czt(read, n, r, phi0, step, m):
    """analytic._blocked_czt from one read of a_0 .. a_{n-1}: sum_{k<n} a_k
    z_j^k at z_j = r e^{i(phi0 + j*step)}, j < m.  The values are cut into
    blocks of L = min(n, max(_BLOCK, m)), the top one padded with zeros;
    each block, times the pre-weight r^l e^{i(phi0*l + step*l^2/2)}, is
    convolved with the conjugate chirp by FFT at the 5-smooth length
    _fast_len(L + m - 1) on its own (a block of zeros adds no transform),
    and the blocks are combined by Horner's rule in z_j^L from the top.
    One block takes its phases as plain float products (the whole-prefix
    transform); more take them reduced mod 2*pi by analytic._phase and
    _phase2, with z_j^L from one phase L * (phi0 + j*step) per node."""
    if n == 0:
        return np.zeros(m, dtype=complex)
    length = min(n, max(analytic._BLOCK, m))
    count = -(-n // length)
    half = step / 2.0
    k = np.arange(max(length, m), dtype=float)
    kl = k[:length]
    if count == 1:
        chirp = np.exp(1j * half * k * k)
        exponent = kl * math.log(r) + 1j * (phi0 * kl + half * kl * kl)
    else:
        square = analytic._phase2(half, k, k)
        chirp = np.exp(1j * square)
        weights = np.exp(kl * math.log(r) + 1j * (analytic._phase(phi0, kl) + square[:length]))
        powers = np.exp(length * math.log(r) + 1j * (
            analytic._phase(phi0, length) + analytic._phase2(step, length, k[:m])))
    size = analytic._fast_len(length + m - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - length + 1:] = chirp[length - 1:0:-1].conj()
    kernel = np.fft.fft(kernel)
    coeffs = np.zeros(count * length, dtype=complex)
    coeffs[:n] = read(0, n)
    acc = None
    for block in coeffs.reshape(count, length)[::-1]:
        row = None
        if block.any():
            # the product as the library forms it: numpy's complex product
            # is not bitwise commutative
            weighted = block * np.exp(exponent) if count == 1 else block * weights
            row = np.fft.ifft(np.fft.fft(weighted, size) * kernel)[:m]
        if acc is None:
            acc = np.zeros(m, dtype=complex) if row is None else row
        else:
            acc = acc * powers if row is None else acc * powers + row
    return acc * chirp[:m]


# ---------------------------------------------------------------------------
# Rational forms and surviving poles


@functools.lru_cache(maxsize=None)
def _cyclotomic(d, dom):
    """The sympy Poly of the d-th cyclotomic polynomial over ``dom``."""
    import sympy

    z = sympy.Symbol("z")
    return sympy.Poly(sympy.cyclotomic_poly(d, z), z, domain=dom)


def reference_reduce_exact(num_coeffs, T, pp):
    """ratform._reduce_exact by sympy: the numerator of period T over
    1 - z^T, reduced by every cyclotomic factor d | T that divides it; the
    others are the denominator, and their primitive roots the poles.  Its
    Polys are built from coefficient lists and the cyclotomics are cached,
    which gives the same Polys as building them from expressions, faster."""
    import sympy

    z = sympy.Symbol("z")
    has_imag = any(c.imag for c in num_coeffs)
    dom = "QQ_I" if has_imag else "QQ"

    coefs = []
    for c in num_coeffs:
        coef = sympy.Integer(int(c.real))
        if has_imag:
            coef = coef + sympy.Integer(int(c.imag)) * sympy.I
        coefs.append(coef)
    npoly = sympy.Poly.from_list(coefs[::-1], z, domain=dom)

    survivors, cancelled = [], []
    quotient = -npoly  # 1 - z^T = -(z^T - 1) = -(product of cyclotomics)
    for d in (d for d in range(1, T + 1) if T % d == 0):
        if npoly.is_zero:
            cancelled.append(d)
            continue
        q, r = quotient.div(_cyclotomic(d, dom))
        if r.is_zero:
            quotient = q
            cancelled.append(d)
        else:
            survivors.append(d)

    den = sympy.Poly(1, z, domain=dom)
    for d in survivors:
        den = den * _cyclotomic(d, dom)

    def to_tuple(poly):
        cs = poly.all_coeffs()[::-1]  # ascending order
        return tuple(complex(sympy.re(c)) + 1j * float(sympy.im(c)) for c in cs)

    poles = []
    for d in survivors:
        for k in range(d):
            if math.gcd(k, d) == 1:
                poles.append(ratform.RootOfUnityPole(k, d))
    poles.sort(key=lambda p: (p.angle, p.den))
    num_tuple = (0j,) if npoly.is_zero else to_tuple(quotient)
    return ratform.RationalForm(num_tuple, to_tuple(den), tuple(poles), T, pp, True)


def reference_reflectionless(pattern, arc):
    """periodic_reflectionless_check's verdict by direct evaluation of the
    one-period polynomial at every p-th root of unity on the arc, not by
    the cyclotomic reduction: it passes when each is a zero (to 1e-9 of
    the coefficients' scale)."""
    p = len(pattern)
    scale = max(1.0, sum(abs(c) for c in pattern))
    for k in range(p):
        w = cmath.exp(2j * math.pi * k / p)
        val = sum(c * w ** j for j, c in enumerate(pattern))
        if abs(val) > 1e-9 * scale and arc.contains_angle(2 * math.pi * k / p):
            return False
    return True


# ---------------------------------------------------------------------------
# CSV rows: the row loops that the chunked writer and readers replaced


def _is_integral(v: complex) -> bool:
    return v.imag == 0.0 and float(v.real).is_integer()


def reference_explicit(values):
    return nb.GeneratorSpec("explicit", {"values": tuple(complex(v) for v in values)})


def reference_make_explicit(params) -> nb.OneSidedSequence:
    """The explicit family: the values one complex() at a time, their kind
    exact-integer when all are whole reals, else exact-rational."""
    values = tuple(complex(v) for v in params.get("values", ()))
    if not values:
        raise SequenceError("explicit sequence needs at least one value")
    arr = np.asarray(values, dtype=complex)
    _check_finite(arr, "explicit values")
    bound = float(np.max(np.abs(arr)))
    kind = params.get("value_kind") or (
        "exact-integer" if all(map(_is_integral, values)) else "exact-rational")
    seq = nb.OneSidedSequence(arr.__getitem__, bound,
                              params.get("family_label", "explicit"),
                              {"count": len(values)}, value_kind=kind,
                              length=len(values))
    seq.real_valued = not np.any(arr.imag)
    return seq


def reference_write_rows(dest, indices, vals) -> None:
    """The header n,re,im, then one csv row per value with its index and
    both parts to 17 significant digits."""
    own = isinstance(dest, (str, bytes))
    f = open(dest, "w", newline="") if own else dest
    try:
        w = csv.writer(f)
        w.writerow(["n", "re", "im"])
        for n, v in zip(indices, vals):
            w.writerow([n, f"{v.real:.17g}", f"{v.imag:.17g}"])
    finally:
        if own:
            f.close()


def reference_read_sequence_csv(src) -> nb.OneSidedSequence:
    rows = _read_rows(src)
    values = []
    for i, (n, v) in enumerate(rows):
        if n != i:
            raise SequenceError(
                f"CSV indices must ascend from 0 without gaps; row {i} has n={n}")
        values.append(v)
    if not values:
        raise SequenceError("CSV contains no data rows")
    kind = "exact-integer" if all(map(_is_integral, values)) else "float"
    return reference_make_explicit({"values": values, "family_label": "csv",
                                    "value_kind": kind})


def reference_read_window_csv(src) -> nb.TwoSidedWindow:
    rows = _read_rows(src)
    if not rows:
        raise SequenceError("CSV contains no data rows")
    ns = [n for n, _ in rows]
    W = max(ns)
    if sorted(ns) != list(range(-W, W + 1)):
        raise SequenceError("window CSV must cover -W..W without gaps")
    vals = dict(rows)
    values = tuple(vals[k] for k in range(-W, W + 1))
    return nb.TwoSidedWindow(values, W, {"kind": "csv"}, eps=0.0,
                             bound=max(abs(v) for v in values))


def _read_rows(src):
    own = isinstance(src, (str, bytes))
    f = open(src, "r", newline="") if own else src
    try:
        if isinstance(f, io.TextIOBase) or hasattr(f, "read"):
            r = csv.reader(f)
        else:  # pragma: no cover
            raise SequenceError("unreadable CSV source")
        header = next(r, None)
        if header is None or [h.strip() for h in header] != ["n", "re", "im"]:
            raise SequenceError(f"expected header 'n,re,im', got {header}")
        out = []
        for row in r:
            if not row:
                continue
            if len(row) != 3:
                raise SequenceError(f"malformed CSV row: {row}")
            try:
                n, v = int(row[0]), complex(float(row[1]), float(row[2]))
            except ValueError:
                raise SequenceError(f"malformed CSV row: {row}") from None
            if not cmath.isfinite(v):
                raise SequenceError(f"non-finite value in CSV row: {row}")
            out.append((n, v + 0j))
        return out
    finally:
        if own:
            f.close()


# ---------------------------------------------------------------------------
# Random series


def reference_draw(spec, length, trial=None):
    """randomseries._draw: (values, value kind) of one path, signed zeros
    as +0.  An iid path is one weighted choice of all its indices; a Markov
    path draws its first state, then takes one uniform per step through the
    current state's row CDF (a draw past the row's end takes the last
    state); a rotation-driven path is the rotation's values."""
    rng = randomseries._rng_for(spec, trial)
    if spec.kind == "iid":
        vals = np.asarray(spec.params["values"], dtype=complex)
        idx = rng.choice(len(vals), size=length, p=spec.params["probs"])
        return vals[idx] + 0j, _exact_kind(spec.params["values"])
    if spec.kind == "markov":
        em = np.asarray(spec.params["emissions"], dtype=complex)
        cdf = np.cumsum(np.asarray(spec.params["transition"], dtype=float), axis=1)
        states = [int(rng.choice(len(em), p=spec.params["initial"]))]
        for u in rng.random(length - 1).tolist():
            nxt = int(np.searchsorted(cdf[states[-1]], u, side="right"))
            states.append(min(nxt, len(em) - 1))
        return em[states] + 0j, _exact_kind(spec.params["emissions"])
    gen = nb.make_sequence(nb.GeneratorSpec("rotation", dict(spec.params)))
    return gen.read(0, length), "float"


def reference_variance_window(spec, index_set, samples, trial_base=1_000_000):
    """variance_window: per index, _variance_with_se of its values on the
    paths of trials trial_base, trial_base + 1, ..."""
    indices = sorted(int(i) for i in index_set)
    draws = np.array([reference_draw(spec, indices[-1] + 1, trial_base + s)[0][indices]
                      for s in range(samples)])
    return [randomseries.IndexVariance(n, *randomseries._variance_with_se(draws[:, j]),
                                       samples) for j, n in enumerate(indices)]


def reference_distribution(spec, calib_len=4096):
    """_distribution_of: an iid process's atoms and weights with sigma =
    sum p |v - mean|^2, else the path of trial None with sigma the mean of
    |a_n - mean|^2."""
    if spec.kind == "iid":
        values = np.asarray(spec.params["values"], dtype=complex)
        probs = np.asarray(spec.params["probs"], dtype=float)
        mean = np.sum(values * probs)
        return (values, probs), float(np.sum(probs * np.abs(values - mean) ** 2))
    path = reference_draw(spec, calib_len)[0]
    return path, float(np.mean(np.abs(path - path.mean()) ** 2))


def reference_experiment(spec, trials, width, horizon, eps, delta, min_recurrence=3,
                         cover_m=8):
    """certificate_rate_experiment: per trial, the variance of its path and
    its first pair certificate, backward flanks before forward ones."""
    dist, sigma = reference_distribution(spec)
    results = []
    for trial in range(trials):
        vals, kind = reference_draw(spec, horizon + 1, trial)
        var, se = randomseries._variance_with_se(vals)
        path = nb.make_sequence(nb.GeneratorSpec("explicit", {
            "values": tuple(vals.tolist()), "value_kind": kind}))
        certs = (nb.find_pair_certificate(path, width, horizon, eps=eps, delta=delta,
                                          flank_side=side, min_recurrence=min_recurrence)
                 for side in ("backward", "forward"))
        cert = next((c for c in certs if c is not None), None)
        results.append(randomseries.TrialResult(
            trial, cert is not None, () if cert is None else cert.pairs,
            None if cert is None else cert.flank_side, var, se))
    return randomseries.MonteCarloReport(
        trials=trials, found_count=sum(r.found for r in results), results=results,
        separation=nb.separated_values(dist, cover_m, sigma, bound=spec.bound),
        delta=delta, width=width, horizon=horizon, eps=eps,
        params={"kind": spec.kind, "seed": spec.seed, "min_recurrence": min_recurrence})


def reference_hex_cover(K, m):
    """randomseries._hex_cover: the points of the hexagonal lattice of
    spacing sqrt(3)/m (rows sqrt(3)/2 apart, odd rows moved half a step)
    whose math.hypot is at most K + 1/m, in (re, im) order."""
    s = math.sqrt(3) / m
    R = K + 1.0 / m
    rows = int(math.ceil(R / (s * math.sqrt(3) / 2.0))) + 1
    cols = int(math.ceil(R / s)) + 1
    pts = []
    for j in range(-rows, rows + 1):
        y = j * s * math.sqrt(3) / 2.0
        off = (j % 2) * s / 2.0
        for i in range(-cols, cols + 1):
            x = i * s + off
            if math.hypot(x, y) <= R:
                pts.append(complex(x, y))
    pts.sort(key=lambda c: (c.real, c.imag))
    return np.array(pts, dtype=complex)


def reference_cover_mass(points, weights, centers, m):
    """randomseries._cover_mass: the weight of the points within 1/m of
    each center, by a scan of every point."""
    return np.array([weights[np.abs(points - c) <= 1.0 / m].sum() for c in centers])


def reference_far_centers(centers, mass, z, threshold):
    """randomseries._far_centers: the ascending i with mass[i] > 0 and
    Python's abs(centers[i] - z) >= threshold."""
    return np.array([i for i, c in enumerate(centers.tolist())
                     if mass[i] > 0 and abs(c - z) >= threshold], dtype=np.int64)
