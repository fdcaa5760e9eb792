"""Finite-horizon search for right-limit structure in bounded sequences.

A right limit of a one-sided sequence is a two-sided sequence obtained as a
pointwise limit of index-shifted copies along indices going to infinity.
Desk-scale searches cannot witness true limits, so everything here works
with recurring finite windows and labels its output *evidence*:

* recurring-window extraction (greedy leader clustering under the sup
  metric);
* zero-flank certificates: recurring centers whose backward flank is
  (nearly) zero while the center stays large -- the discrete shadow of a
  right limit vanishing on one side with a nonzero center;
* pair-mismatch certificates: center pairs whose one-sided flanks agree
  while the centers differ -- two right limits sharing a half-line but
  disagreeing at the origin, which rules out analytic continuation across
  any arc and upgrades to strong-boundary evidence;
* block-recurrence analysis for finite-valued sequences (the pigeonhole
  dichotomy: either a mismatch witness at every block length, or the
  sequence is eventually periodic and sums to a rational function with
  poles at roots of unity);
* eventual-periodicity detection;
* a combined verdict pipeline.

Every certificate re-verifies against raw sequence reads (a sequence
keeps no values between reads); emitted evidence never depends on cached
intermediate state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import islice
from operator import sub

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from . import ratform, sequences
from .analytic import TERM_CAP, NumericCapError
from .sequences import (
    OneSidedSequence,
    SequenceError,
    TwoSidedWindow,
    VerificationError,
    _chunks,
    _gather,
    default_eps,
)

__all__ = [
    "AnalysisConfig",
    "RightLimitCandidate",
    "ExtractResult",
    "NonReflectionlessCertificate",
    "SzegoWitness",
    "SzegoReport",
    "Verdict",
    "extract_right_limits",
    "find_gap_certificate",
    "find_pair_certificate",
    "verify_gap_hit",
    "verify_pair",
    "szego_block_analysis",
    "detect_eventual_periodicity",
    "verdict",
]

_CLUSTER_CAP = 10 ** 6
# First values sorted before all of them, to find a tie early
_TIE_PROBE = 64
_BUCKET_CAP = 64
_PAIR_CAP = 256


@dataclass
class AnalysisConfig:
    """Knobs shared by the search operations and the verdict pipeline.

    ``eps`` of ``None`` resolves per sequence: 0 for exact value kinds,
    0.05 for float-valued ones.
    """

    width: int = 5
    eps: float | None = None
    delta: float = 0.5
    horizon: int = 100_000
    p_max: int = 8
    min_recurrence: int = 3
    max_period: int = 64
    max_preperiod: int = 64
    periodicity_tol: float | None = None


def _resolve_eps(seq, eps):
    eps = default_eps(seq) if eps is None else float(eps)
    # a negative or nan eps matches nothing, not even a window to itself
    if not (math.isfinite(eps) and eps >= 0):
        raise SequenceError(f"eps must be finite and >= 0, got {eps}")
    # the key grids scale by 1/eps, which is inf for a subnormal eps
    if 0 < eps < sys.float_info.min:
        raise SequenceError(
            f"eps must be 0 or at least {sys.float_info.min} (1/eps must be "
            f"finite), got {eps}")
    return eps


def _check_min_recurrence(min_recurrence):
    if min_recurrence < 1:
        raise SequenceError(f"min_recurrence must be >= 1, got {min_recurrence}")


def _span_rows(seq, centers, offsets):
    """Batches of rows a_{c+o}, a row per center c of the int64 array
    ``centers`` (two per row of a (k, 2) array of pairs) and a column per
    offset o: each one gather of ``centers[:, None] + offsets`` of at most
    a reader chunk of values, or of one center if its rows hold more."""
    per_center = len(offsets) * math.prod(centers.shape[1:])
    step = max(1, sequences._CHUNK // per_center)
    for i in range(0, len(centers), step):
        yield seq._at(centers[i:i + step, ..., None] + offsets)


def _rows_hold(seq, centers, offsets, holds):
    """Whether ``holds(rows)`` is true of every batch of :func:`_span_rows`
    (vacuously of none); False when some c + o is not an index of ``seq``,
    which the gather refuses before it reads."""
    try:
        # a center of 2^63 or more does not fit, and one near it wraps below 0
        return all(holds(rows) for rows in
                   _span_rows(seq, np.asarray(centers, dtype=np.int64), offsets))
    except (OverflowError, SequenceError):
        return False


# ---------------------------------------------------------------------------
# Recurring-window extraction


@dataclass(frozen=True)
class RightLimitCandidate:
    """A window that recurs along strictly increasing centers.

    Every recurrence center matches the stored window values within
    ``eps`` in the sup metric over offsets |k| <= radius.
    """

    window: TwoSidedWindow
    recurrence_indices: tuple
    eps: float

    def verify(self, seq: OneSidedSequence) -> bool:
        """Re-check every center, with the clustering's distance (np.abs)."""
        W, values = self.window.radius, self.window.as_array()
        return _rows_hold(seq, self.recurrence_indices, np.arange(-W, W + 1),
                          lambda rows: bool(np.all(np.abs(rows - values) <= self.eps)))

    def to_json_dict(self):
        return {
            "values": [[v.real, v.imag] for v in self.window.values],
            "radius": self.window.radius,
            "recurrence_indices": list(self.recurrence_indices),
            "eps": self.eps,
        }


@dataclass
class ExtractResult:
    candidates: list
    clusters_total: int
    windows_scanned: int
    truncated: bool = False


def extract_right_limits(seq: OneSidedSequence, width: int, horizon: int,
                         eps: float | None = None, max_candidates: int = 16,
                         min_recurrence: int = 3) -> ExtractResult:
    """Cluster all windows of the given half-width up to the horizon.

    Greedy leader clustering: scanning centers in ascending order, each
    window joins the earliest-created cluster whose leader window is within
    ``eps`` in sup metric, else founds a new cluster; once ``_CLUSTER_CAP``
    clusters exist (eps > 0 only), a window matching none is dropped and
    ``truncated`` is set.  When no two windows share the real part of
    their first value, no two are equal and the rule runs on the windows
    themselves.  Otherwise equal windows, which always land in the same
    cluster, are grouped first, and the rule runs once per distinct
    window, in order of first occurrence.  Either way each founder only
    tests the windows whose first value lies within a little more than
    ``eps`` of its own (at eps = 0 each distinct window is its own
    cluster).  Clusters with at
    least ``min_recurrence`` members are returned as candidates, ordered by
    population (ties: earlier cluster first), at most ``max_candidates``
    (0: no limit).
    """
    if width < 1:
        raise SequenceError("window width must be >= 1")
    _check_min_recurrence(min_recurrence)
    if max_candidates < 0:
        raise SequenceError(f"max_candidates must be >= 0, got {max_candidates}")
    h = seq.clamp_horizon(horizon)
    if h < 10 * width:
        raise SequenceError(f"horizon {h} too small; need >= {10 * width}")
    eps = _resolve_eps(seq, eps)
    if h + 1 > TERM_CAP:
        raise NumericCapError(h + 1, f"window extraction of {h + 1} values "
                                     f"exceeds the cap {TERM_CAP}")
    data = _gather(seq, h + 1)
    D = 2 * width + 1
    n = h + 2 - D
    key = data[:n].real
    by_key = _tie_free_order(key)
    if by_key is not None:
        # every window is distinct; test each founder's candidates a
        # column at a time on views of the data
        def within(i, cand):
            ok = np.abs(data[cand] - data[i]) <= eps
            for c in range(1, D):
                ok &= np.abs(data[c:c + n][cand] - data[i + c]) <= eps
            return ok
        cid, founders, truncated = _leader_clusters(key, by_key, eps, within)
    else:
        wins = sliding_window_view(data, D)
        groups, first, _ = _group_rows(wins)
        # distinct windows in order of first occurrence, then each window's
        # cluster (-1: dropped at the cap)
        by_first = np.argsort(first)
        starts = first[by_first]
        rows = wins[starts]
        key = rows[:, 0].real
        label, founders, truncated = _leader_clusters(
            key, np.argsort(key, kind="stable"), eps,
            lambda i, cand: np.abs(rows[cand] - rows[i]).max(axis=1) <= eps)
        cid = label[np.argsort(by_first)[groups]]
        founders = starts[founders]
    # members come out ascending
    kept = np.flatnonzero(cid >= 0)
    centers = (kept[np.argsort(cid[kept], kind="stable")] + width).tolist()
    ends = np.cumsum(np.bincount(cid[kept])).tolist()
    clusters = [(data[f:f + D], centers[a:b]) for f, a, b
                in zip(np.asarray(founders).tolist(), [0] + ends[:-1], ends)]

    order = sorted(range(len(clusters)),
                   key=lambda i: (-len(clusters[i][1]), i))
    candidates = []
    for i in order:
        leader, mem = clusters[i]
        if len(mem) < min_recurrence:
            break  # population-sorted: the rest are smaller
        win = TwoSidedWindow(tuple(complex(v) for v in leader), width,
                             {"kind": "cluster", "indices": tuple(mem)},
                             eps=eps, bound=seq.bound)
        candidates.append(RightLimitCandidate(win, tuple(mem), eps))
        if max_candidates and len(candidates) >= max_candidates:
            break
    return ExtractResult(candidates=candidates, clusters_total=len(clusters),
                         windows_scanned=h + 2 - D, truncated=truncated)


def _tie_free_order(key):
    """The argsort of ``key`` if no two of its values are equal (so it is
    the stable one), else None.  A stream with ties mostly has some among its
    first values, which a short sort finds before the whole one."""
    head = np.sort(key[:_TIE_PROBE])
    if np.any(head[1:] == head[:-1]):
        return None
    order = np.argsort(key)
    srt = key[order]
    return order if np.all(srt[1:] != srt[:-1]) else None


def _leader_clusters(key, by_key, eps, within):
    """Greedy leader clustering of distinct rows, taken in order.

    The first unassigned row founds a cluster and absorbs every unassigned
    row within eps (``within(i, cand)``: a mask of the rows ``cand`` within
    eps of row i, sup of np.abs): leaders never change and the earliest
    matching one wins, as in the sequential rule.  Only rows whose ``key``
    (column-0 real part) lies within ``slack`` of the founder's are
    tested; the slack exceeds eps by more than the distance's rounding, so
    it can only add candidates; ``by_key`` is a stable argsort of ``key``.
    Returns (label, founders, truncated): row i is in cluster label[i],
    founded by row founders[label[i]], or in none (-1) once
    ``_CLUSTER_CAP`` clusters exist and it matches none of them.
    """
    n = len(key)
    if eps == 0.0:
        # distinct rows are never within 0 of each other
        every = np.arange(n)
        return every, every, False
    sorted_key = key[by_key]
    slack = eps * (1 + 2.0 ** -20)
    label = np.full(n, -1, dtype=np.int64)
    founders = []
    with np.errstate(over="ignore"):    # an overflowing difference is inf, never within eps
        for b0 in range(0, n, _KEY_CHUNK):
            # rows absorbed before this block starts are skipped in bulk
            for i in (np.flatnonzero(label[b0:b0 + _KEY_CHUNK] < 0) + b0).tolist():
                if label[i] >= 0:
                    continue
                if len(founders) >= _CLUSTER_CAP:
                    return label, founders, True
                cand = by_key[sorted_key.searchsorted(key[i] - slack):
                              sorted_key.searchsorted(key[i] + slack, "right")]
                cand = cand[label[cand] < 0]
                label[cand[within(i, cand)]] = len(founders)
                founders.append(i)
    return label, founders, False


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class NonReflectionlessCertificate:
    """Discrete evidence that some right limit is not reflectionless.

    ``GapZeroFlank``: centers whose whole backward flank is within ``eps``
    of zero (or under an exponential-decay envelope) while |a_n| >= delta.
    ``PairMismatch``: disjoint index pairs with one-sided flank agreement
    within ``eps`` and center separation >= delta.  ``delta > 2*eps`` is
    enforced so a match and a mismatch can never both be tolerance noise.
    """

    kind: str                      # "GapZeroFlank" | "PairMismatch"
    witnesses: tuple               # centers (gap) / leading indices (pair)
    flank_side: str                # "backward" | "forward"
    flank_width: int
    eps: float
    delta: float
    separation: float              # smallest center separation achieved
    pairs: tuple | None = None
    decay: tuple | None = None     # (C, D) envelope, when used
    notes: tuple = ()

    def verify(self, seq: OneSidedSequence) -> bool:
        """Re-check every witness against raw gathers of its rows."""
        if self.kind == "GapZeroFlank":
            return _gap_hits_hold(seq, self.witnesses, self.flank_width,
                                  self.eps, self.delta, self.decay)
        return _pairs_hold(seq, self.pairs or (), self.flank_width, self.eps,
                           self.delta, self.flank_side)

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "pairs": None if self.pairs is None else [list(p) for p in self.pairs],
            "witnesses": list(self.witnesses),
            "flank": {"side": self.flank_side,
                      "range": [1, self.flank_width]},
            "eps": self.eps,
            "delta": self.delta,
            "separation": self.separation,
            "decay": None if self.decay is None else list(self.decay),
            "notes": list(self.notes),
        }


def _check_tolerances(eps, delta):
    # an infinite delta would separate nothing from noise: it matches nothing
    if not (math.isfinite(delta) and delta > 2 * eps):
        raise SequenceError(
            f"need a finite delta > 2*eps to separate signal from tolerance "
            f"noise (delta={delta}, eps={eps})")


def _flank_thresholds(width, eps, decay):
    """Bounds on |a_{n-k}|, k = 1..width, at a zero-flank hit: eps, or
    C e^{-D k} + eps under the decay envelope (C, D), whose constants must
    be finite and > 0."""
    if decay is not None and not all(math.isfinite(v) and v > 0
                                     for v in map(float, decay)):
        raise SequenceError(
            f"decay constants must be finite and > 0, got {tuple(decay)}")
    return np.array([eps if decay is None
                     else float(decay[0]) * math.exp(-float(decay[1]) * k) + eps
                     for k in range(1, width + 1)])


def _zero_flanks(ab, thr, delta):
    """Per row |a_{n-width}| .. |a_n| of ``ab``, column by column (a sliding
    window view is not copied): whether each flank modulus is within its
    threshold ``thr`` (offsets -width..-1) and the center's is >= delta."""
    ok = ab[:, -1] >= delta
    for k, t in enumerate(thr.tolist()):
        ok &= ab[:, k] <= t
    return ok


def _gap_hits_hold(seq, centers, width, eps, delta, decay):
    """Whether every center is a zero-flank hit, with the search's distance
    (np.abs) and thresholds."""
    thr = _flank_thresholds(width, eps, decay)[::-1]
    return _rows_hold(seq, centers, np.arange(-width, 1),
                      lambda rows: bool(_zero_flanks(np.abs(rows), thr, delta).all()))


def verify_gap_hit(seq: OneSidedSequence, n: int, width: int, eps: float,
                   delta: float, decay=None) -> bool:
    return _gap_hits_hold(seq, (n,), width, eps, delta, decay)


def find_gap_certificate(seq: OneSidedSequence, width: int, horizon: int,
                         eps: float | None = None, delta: float = 0.5,
                         decay=None, min_recurrence: int = 3):
    """Scan for centers with a zero (or decay-envelope) backward flank.

    A hit at n requires |a_{n-k}| <= eps for k = 1..width (or under
    C e^{-D k} + eps when ``decay`` = (C, D) is given) and |a_n| >= delta.
    Returns a certificate iff at least ``min_recurrence`` hits exist.
    On a gap family only its support is tested (:func:`_support_gap_hits`);
    any other sequence has its centers scanned a reader chunk at a time,
    each chunk read with the ``width`` flank values before it, and a
    horizon past ``TERM_CAP`` values is refused before any read.
    """
    if width < 1:
        raise SequenceError("flank width must be >= 1")
    _check_min_recurrence(min_recurrence)
    eps = _resolve_eps(seq, eps)
    _check_tolerances(eps, delta)
    h = seq.clamp_horizon(horizon)
    if h < width:
        raise SequenceError("horizon smaller than flank width")
    thr = _flank_thresholds(width, eps, decay)[::-1]    # offsets -width..-1

    if seq.gap_support is not None:
        hits, separation = _support_gap_hits(seq, width, h, delta, thr)
    else:
        _check_dense_horizon(h, "zero-flank search")
        hits, separation = [], math.inf
        for lo, seg in _chunks(seq, width, h + 1, pad=(width, 0)):
            # row i: |a_{lo+i-width}| .. |a_{lo+i}|
            ab = sliding_window_view(np.abs(seg), width + 1)
            found = np.flatnonzero(_zero_flanks(ab, thr, delta))
            if found.size:
                hits += (found + lo).tolist()
                separation = min(separation, float(ab[found, -1].min()))
    if len(hits) < min_recurrence:
        return None
    return NonReflectionlessCertificate(
        kind="GapZeroFlank",
        witnesses=tuple(hits),
        flank_side="backward",
        flank_width=width,
        eps=eps,
        delta=delta,
        separation=separation,
        decay=None if decay is None else (float(decay[0]), float(decay[1])),
    )


def _check_dense_horizon(h, what):
    """Refuse a search that would read all h + 1 values past ``TERM_CAP``."""
    if h + 1 > TERM_CAP:
        raise NumericCapError(h + 1, f"{what} over {h + 1} values exceeds "
                                     f"the cap {TERM_CAP}")


def _support_gap_hits(seq, width, h, delta, thr):
    """(hits, separation) of the zero-flank search on a gap family.  Off
    its support every value is 0, which fails the center test (delta >
    2*eps >= 0), so only its points n >= width below h + 1 are tested, on
    gathers of their rows of about a reader chunk of values each; a support
    past ``TERM_CAP`` points is refused before it is listed."""
    sup = seq.gap_support
    first, count = sup.rank(width), sup.rank(h + 1)
    if count > TERM_CAP:
        raise NumericCapError(count, f"zero-flank search over {count} support "
                                     f"points exceeds the cap {TERM_CAP}")
    offsets, hits, separation = np.arange(-width, 1), [], math.inf
    step = max(1, sequences._CHUNK // (width + 1))
    for i in range(first, count, step):
        pts = np.array(sup.points(i, min(i + step, count)), dtype=np.int64)
        ab = np.abs(seq._at(pts[:, None] + offsets))
        ok = _zero_flanks(ab, thr, delta)
        if ok.any():
            hits += pts[ok].tolist()
            separation = min(separation, float(ab[ok, -1].min()))
    return hits, separation


def _pairs_hold(seq, pairs, width, eps, delta, flank_side):
    """Whether every pair (n, m) has flanks within eps and centers at least
    delta apart.  The distance is hypot(re, im), bit for bit the Python abs
    of the pair walk (np.abs on complex values can differ in the last bit)."""
    offs = np.arange(-width, 1) if flank_side == "backward" else np.arange(width + 1)
    if any(n == m for n, m in pairs):
        return False

    def holds(rows):
        with np.errstate(over="ignore"):    # an overflow is inf: apart, never within eps
            d = rows[:, 0] - rows[:, 1]     # the n's rows less the m's
            dist = np.hypot(d.real, d.imag)
        return bool(np.all(dist[:, offs != 0] <= eps)
                    and np.all(dist[:, offs == 0] >= delta))

    return _rows_hold(seq, pairs, offs, holds)


def verify_pair(seq: OneSidedSequence, n: int, m: int, width: int, eps: float,
                delta: float, flank_side: str = "backward") -> bool:
    return _pairs_hold(seq, ((n, m),), width, eps, delta, flank_side)


def find_pair_certificate(seq: OneSidedSequence, width: int, horizon: int,
                          eps: float | None = None, delta: float = 0.5,
                          flank_side: str = "backward",
                          min_recurrence: int = 3):
    """Search for disjoint index pairs with matching one-sided flanks and
    separated centers.

    Flank vectors are hash-bucketed on an eps-width grid (exact values when
    eps = 0) and candidates are confirmed exactly, so accepted pairs are
    never tolerance artifacts; grid-boundary near-misses may go unfound.
    Scanning is in ascending second-index order and each selected pair
    removes both indices from further pairing, which makes the found set
    stable under horizon growth.  Values are read a key chunk at a time as
    the scan reaches them, so a capped search reads no further than it
    scanned.  A horizon past ``TERM_CAP`` values is refused before any
    read, except on a gap family whose fill is below delta in modulus,
    where no pair exists and nothing is read.
    """
    if flank_side not in ("backward", "forward"):
        raise SequenceError("flank_side must be 'backward' or 'forward'")
    if width < 1:
        raise SequenceError("flank width must be >= 1")
    _check_min_recurrence(min_recurrence)
    eps = _resolve_eps(seq, eps)
    _check_tolerances(eps, delta)
    # the flank keys floor(value/eps) are int64, so |value|/eps must fit
    if eps > 0 and seq.bound / eps >= 2 ** 62:
        raise SequenceError(
            f"eps {eps} is too small for the pair search's int64 key grid: "
            f"bound/eps must be below 2^62 (bound {seq.bound})")
    h = seq.clamp_horizon(horizon)
    if h < 2 * width + 1:
        raise SequenceError("horizon too small for pair search")
    # a gap family's values are 0 and its fill: no two centers are delta
    # apart unless the fill's modulus is
    if seq.gap_support is not None and abs(seq.gap_support.fill) < delta:
        return None
    _check_dense_horizon(h, "pair search")
    if flank_side == "backward":    # flank offset, first and end center
        off, start, stop = -width, width, h + 1
    else:
        off, start, stop = 1, 0, h + 1 - width
    pairs, notes, vals = _pair_walk(seq, width, off, eps, delta, start, stop)

    if len(pairs) < min_recurrence:
        return None
    pairs.sort(key=lambda p: p[0])
    separation = min(abs(vals[n] - vals[m]) for n, m in pairs)
    return NonReflectionlessCertificate(
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


_KEY_CHUNK = 4096
# Centers per block of a key chunk: the walk checks for its stop after each.
_WALK_BLOCK = 128


def _pair_walk(seq, width, off, eps, delta, start, stop):
    """Sequential pair selection over centers start..stop-1; the flank of
    center m is a_{m+off} .. a_{m+off+width-1} (off = -width or 1).

    The rule: centers are taken in ascending order.  Each center m is
    paired with the least n, over the other center cells of m's flank
    bucket, whose flank is within eps of m's (sup metric) and whose center
    differs from m's by at least delta; that n leaves its cell.  An
    unpaired m joins its cell while the cell holds fewer than
    ``_BUCKET_CAP`` entries, and the walk stops at the ``_PAIR_CAP``-th
    pair.

    Buckets meet only at that stop, so a key chunk is walked bucket by
    bucket: its centers are grouped by bucket, ascending within a bucket,
    and cut into runs of one cell.  Each cell knows the other cells of its
    bucket that are not too close to it (``_cells_too_close``); only their
    centers can pair with its own, and while a run lasts only its own
    pairings take centers from them.  So a run's arrivals take the
    candidate test one by one while those cells hold a center, and the
    rest of the run joins its cell as one slice.  Runs are taken by the
    ``_WALK_BLOCK``-center block of the chunk they start in, and once the
    finished blocks hold enough pairs the chunk's pairs are merged in
    order of m and cut at the stop; the overflow note counts only if a
    center overflowed before the stop.

    Keys are computed chunk by chunk as the scan reaches them, from one
    read of the chunk's centers and flanks, because the search usually
    stops at ``_PAIR_CAP`` long before the horizon; they come in the
    sequence's own layout, so every chunk keys alike.  Returns (pairs,
    notes, vals): vals holds a_0 .. as Python scalars, as far as the scan
    read when it last met a center that could pair (so past every center
    of ``pairs``).
    """
    end_off = off + width
    exact = eps == 0.0
    # flank key bytes -> {cell -> (its ascending centers, the center lists
    # of the bucket's cells not too close to it)}
    buckets: dict = {}
    pairs = []
    notes = set()
    vals: list = []             # a_0 .. as Python scalars, for the candidate test
    unconverted = []            # numpy segments read since, converted only
    read_end = 0                # when a center that can pair arrives
    pad = (width, 0) if off < 0 else (0, width)
    for c0, seg in _chunks(seq, start, stop, _KEY_CHUNK, pad):
        lo = c0 - pad[0]
        c1 = lo + len(seg) - pad[1]
        groups, gkeys, cells, order = _chunk_keys(seg, width, off, eps, c0 - lo, c1 - lo)
        unconverted.append(seg[read_end - lo:])
        read_end = lo + len(seg)
        b, c = groups[order], cells[order]
        heads = np.flatnonzero(np.concatenate(
            ([True], (b[1:] != b[:-1]) | (c[1:] != c[:-1]))))
        ends = np.append(heads[1:], len(order))
        # runs by the block of the chunk their first center falls in: a
        # stop early in the chunk is seen after its block
        blk = order[heads] // _WALK_BLOCK
        ro = np.argsort(blk, kind="stable")
        heads, ends = heads[ro], ends[ro]
        runs = zip(heads.tolist(), ends.tolist(), [gkeys[g] for g in b[heads].tolist()],
                   c[heads].tolist())
        ms = (order + c0).tolist()
        need = _PAIR_CAP - len(pairs)
        found = []              # (m, n) of this chunk
        spill = stop            # least center that found its cell full
        for blk_no, count in enumerate(np.bincount(blk).tolist()):
            for i, j, bk, ck in islice(runs, count):
                bucket = buckets.get(bk)
                if bucket is None:
                    bucket = buckets[bk] = {}
                cell = bucket.get(ck)
                if cell is None:
                    # link the new cell with the bucket's cells whose centers
                    # may pair with its own: same-cell centers are within
                    # 2*eps < delta of each other and never qualify, nor do
                    # those of a cell too close to it
                    cell = bucket[ck] = ([], [])
                    for c2, (l2, far2) in bucket.items():
                        if c2 is not ck and not _cells_too_close(ck, c2, eps, delta):
                            cell[1].append(l2)
                            far2.append(cell[0])
                lst, far = cell
                reach = sum(map(len, far)) if far else 0
                if reach and unconverted:
                    for u in unconverted:
                        vals += u.tolist()
                    unconverted.clear()
                while reach and i < j:
                    m = ms[i]
                    i += 1
                    cm = vals[m]
                    chosen = None
                    for l2 in far:
                        for n in l2:
                            if chosen is not None and n >= chosen:
                                break
                            # at eps = 0 every candidate passes: its flank
                            # is m's, and its value passed the delta test as
                            # its cell's; else the delta test goes first, as
                            # most candidates fail it
                            if exact or (abs(vals[n] - cm) >= delta and max(map(
                                    abs, map(sub, vals[n + off:n + end_off],
                                             vals[m + off:m + end_off]))) <= eps):
                                chosen, chosen_cell = n, l2
                                break
                    if chosen is not None:
                        found.append((m, chosen))
                        chosen_cell.remove(chosen)
                        reach -= 1
                    elif len(lst) < _BUCKET_CAP:
                        lst.append(m)
                    else:
                        spill = min(spill, m)
                # the rest of the run cannot pair: it joins the cell up to the cap
                room = _BUCKET_CAP - len(lst)
                if j - i > room:
                    spill = min(spill, ms[i + room])
                    j = i + room
                lst += ms[i:j]
            if (len(found) >= need
                    and sum(m < c0 + _WALK_BLOCK * (blk_no + 1)
                            for m, _ in found) >= need):
                break
        found.sort()
        if len(pairs) + len(found) >= _PAIR_CAP:
            found = found[:_PAIR_CAP - len(pairs)]
            pairs += [(n, m) for m, n in found]
            notes.add(f"pair collection capped at {_PAIR_CAP}")
            if spill < found[-1][0]:
                notes.add("bucket-collision overflow: some candidates dropped")
            return pairs, notes, vals
        pairs += [(n, m) for m, n in found]
        if spill < stop:
            notes.add("bucket-collision overflow: some candidates dropped")
    return pairs, notes, vals


def _cells_too_close(p, q, eps, delta):
    """Whether every center of the cell with value ``p`` lies less than
    delta from every center of the cell with value ``q``, so that no
    candidate between the two cells passes the delta test.

    At eps = 0 a cell's value is its centers' value.  At eps > 0 it is the
    grid index K = floor(re/eps) (plus i*floor(im/eps) on complex data).
    While every index is at most 2**32 in size, the rounding of re/eps
    moves a value by far less than 0.01 of a cell, so two values in cells
    K and K' lie less than (|K - K'| + 1.01) * eps apart in each
    coordinate.
    """
    if eps == 0.0:
        return abs(q - p) < delta
    lim = 2.0 ** 32
    if not (abs(p.real) <= lim and abs(p.imag) <= lim
            and abs(q.real) <= lim and abs(q.imag) <= lim):
        return False
    if isinstance(p, float):
        return (abs(p - q) + 1.01) * eps < delta
    return math.hypot(abs(p.real - q.real) + 1.01,
                      abs(p.imag - q.imag) + 1.01) * eps < delta


def _chunk_keys(data, width, off, eps, c0, c1):
    """(groups, keys, cells, order) for the centers at positions c0..c1-1 of
    ``data``: their flank groups (int64, local to the chunk), each group's
    flank key as bytes, their center cells, and the order that lists them
    group by group, ascending within a group.

    Flank keys, the same bytes in every chunk: at eps = 0 the flank's bit
    pattern (value equality, since sequence values carry no negative
    zeros); at eps > 0 the per-coordinate int64 floor(re/eps), extended by
    the imaginary floors and a has-imaginary-part flag when the data is
    complex.  Center cells, the same values in every chunk: the value at
    eps = 0, else floor(re/eps), plus i*floor(im/eps) when the data is
    complex.
    """
    seg = data[c0 + off:c1 - 1 + off + width]       # every flank of the chunk
    cen = data[c0:c1]
    if eps == 0.0:
        ranks = _compact(np.unique(seg, return_inverse=True)[1])
        rows, keys = sliding_window_view(seg, width), sliding_window_view(ranks, width)
        cells = cen
    else:
        inv = 1.0 / eps
        grid = np.floor(seg.real * inv).astype(np.int64)
        rows = sliding_window_view(grid, width)
        keys = sliding_window_view(_compact(grid), width)
        cells = np.floor(cen.real * inv)
        if np.iscomplexobj(data):
            has_imag = sliding_window_view(seg.imag != 0, width).any(axis=1)
            rows = np.hstack([has_imag[:, None].astype(np.int64), rows,
                              sliding_window_view(np.floor(seg.imag * inv)
                                                  .astype(np.int64), width)])
            keys = _compact(rows)
            cells = cells + 1j * np.floor(cen.imag * inv)
    # key rows (value ranks, compact grids) group as rows do; the bytes come from rows
    groups, first, order = _group_rows(keys)
    return groups, [rows[i].tobytes() for i in first.tolist()], cells, order


def _compact(a):
    """The int64 array ``a`` as uint16 offsets from its least value when
    its values span less than 2**16 (the same order, which numpy sorts by
    radix), else ``a`` itself."""
    least = a.min()
    if int(a.max()) - int(least) < 2 ** 16:
        return (a - least).astype(np.uint16)
    return a


def _group_rows(rows):
    """(groups, first, order) for the value-equal rows of a matrix: row i
    is in group groups[i], first[g] is the least index of a row of group g,
    and ``order`` lists the rows group by group, ascending within a group
    (the lexsort is stable)."""
    order = np.lexsort(rows.T)
    srt = rows[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    groups = np.empty(len(order), dtype=np.int64)
    groups[order] = np.cumsum(new) - 1
    return groups, order[new], order


# ---------------------------------------------------------------------------
# Finite-valued block analysis


@dataclass(frozen=True)
class SzegoWitness:
    """Block recurrence that fails to extend: the length-p blocks starting
    after offsets ``first`` and ``second`` agree, but the streams disagree
    ``mismatch`` steps in (mismatch >= p+1).  Offsets follow the 1-indexed
    block convention: block ell covers stream positions ell*p+1 .. (ell+1)*p,
    where stream position j holds coefficient a_{j-1}."""

    p: int
    first: int
    second: int
    mismatch: int

    def verify(self, seq: OneSidedSequence) -> bool:
        """Re-check the agreeing blocks and the mismatch exactly."""
        if self.mismatch < self.p + 1:
            return False

        def holds(rows):
            a, b = rows[0]
            return bool(np.all(a[:self.p] == b[:self.p]) and a[-1] != b[-1])

        return _rows_hold(seq, ((self.first, self.second),), np.arange(self.mismatch),
                          holds)

    def to_json_dict(self):
        return {"p": self.p, "first": self.first, "second": self.second,
                "mismatch": self.mismatch}


@dataclass
class SzegoReport:
    """Per-block-length recurrence analysis of a finite-valued sequence."""

    per_p: dict
    overall: str          # mismatch-at-every-p | eventually-periodic | horizon-exhausted
    periodicity: tuple | None
    value_set: tuple
    horizon: int

    def to_json_dict(self):
        per = {}
        for p, v in self.per_p.items():
            per[str(p)] = v.to_json_dict() if isinstance(v, SzegoWitness) else v
        return {
            "per_p": per,
            "overall": self.overall,
            "periodicity": None if self.periodicity is None else list(self.periodicity),
            "value_set": [[v.real, v.imag] for v in self.value_set],
            "horizon": self.horizon,
        }


def szego_block_analysis(seq: OneSidedSequence, p_max: int, horizon: int,
                         max_period: int = 64, max_preperiod: int = 64) -> SzegoReport:
    """Pigeonhole analysis of aligned value blocks of each length p <= p_max.

    For each p, among the first-recurring pair of equal blocks (smallest
    first offset, then smallest second offset) the streams are compared
    beyond the agreeing block; the least disagreement offset L >= p+1 is
    the witness.  Lengths whose guaranteed recurrence needs more blocks
    than the horizon provides are skipped: the least such length gets one
    note, which covers every length above it as well.  If any length lacks
    a witness the sequence is re-examined for eventual periodicity.
    """
    report = _block_witnesses(seq, p_max, horizon)
    if report.overall == "mismatch-at-every-p":
        return report
    h = report.horizon
    mp = min(max_period, max(1, h // 3))
    mpp = min(max_preperiod, max(0, h - 2 * mp))
    found = detect_eventual_periodicity(seq, mp, mpp, h, tol=0.0)
    if found is not None:
        report.overall, report.periodicity = "eventually-periodic", found
    return report


def _block_witnesses(seq, p_max, horizon) -> SzegoReport:
    """The witness search of :func:`szego_block_analysis`, without its
    periodicity rerun: overall is ``mismatch-at-every-p`` when every
    length has a witness, else ``horizon-exhausted``.  Blocks are counted
    by key, their value ranks in base nv (below nv^p < blocks: int64)."""
    if not seq.exact:
        raise SequenceError(
            "block analysis needs exact-valued input (finite value set)")
    if p_max < 1:
        raise SequenceError(f"p_max must be >= 1, got {p_max}")
    h = seq.clamp_horizon(horizon)
    if h + 1 > TERM_CAP:
        raise NumericCapError(h + 1, f"block analysis of {h + 1} values "
                                     f"exceeds the cap {TERM_CAP}")
    data = _gather(seq, h + 1)
    uniq = np.unique(data)
    values = tuple(complex(v) for v in uniq.tolist())  # by re, then im
    nv = len(values)
    codes = np.searchsorted(uniq, data).astype(np.min_scalar_type(nv - 1))
    del data

    per_p: dict = {}
    for p in range(1, p_max + 1):
        blocks = (h + 1) // p
        needed = nv ** p + 1
        if blocks < needed:
            # blocks falls and needed grows with p: every larger p skips too
            rest = f" (so is every p up to {p_max})" if p < p_max else ""
            per_p[p] = (f"skipped{rest}: {blocks} aligned blocks available, "
                        f"{needed} needed to guarantee recurrence")
            break
        keys = np.zeros(blocks, dtype=np.int64)
        for t in range(p):
            keys *= nv
            keys += codes[t:blocks * p:p]
        # least pair: the least block whose key recurs, and its next occurrence
        repeated = (np.bincount(keys) > 1)[keys]
        i = int(repeated.argmax())
        if not repeated[i]:
            raise VerificationError("pigeonhole guarantee violated")
        j = i + 1 + int((keys[i + 1:] == keys[i]).argmax())
        P, Q = i * p, j * p
        off = np.flatnonzero(codes[P + p:P + h + 1 - Q] != codes[Q + p:h + 1])
        per_p[p] = (SzegoWitness(p, P, Q, int(off[0]) + p + 1) if off.size
                    else "no mismatch within horizon")
    every = all(isinstance(w, SzegoWitness) for w in per_p.values())
    return SzegoReport(per_p, "mismatch-at-every-p" if every else "horizon-exhausted",
                       None, values, h)


def detect_eventual_periodicity(seq: OneSidedSequence, max_period: int,
                                max_preperiod: int, horizon: int,
                                tol: float | None = None):
    """Lexicographically least (preperiod, period) valid on the whole
    horizon, or None.

    A candidate is valid when |a_{n+period} - a_n| <= tol for every n from
    the preperiod through horizon - period.  ``tol`` must be finite and
    >= 0.  The head [0, max_preperiod + max_period) is read once, the rest
    upward in chunks that double up to one reader chunk, each read once,
    in the sequence's own layout; the scan stops at the first chunk that
    leaves no period valid.
    """
    if max_period < 1:
        raise SequenceError("max_period must be >= 1")
    if max_preperiod < 0:
        raise SequenceError("max_preperiod must be >= 0")
    if tol is None:
        tol = 0.0 if seq.exact else 1e-9
    if not (math.isfinite(tol) and tol >= 0):
        raise SequenceError(
            f"periodicity tolerance must be finite and >= 0, got {tol}")
    h = seq.clamp_horizon(horizon)
    mp, mpp = max_period, max_preperiod
    if h < mpp + 2 * mp:
        raise SequenceError(
            f"horizon {h} < max_preperiod + 2*max_period = {mpp + 2 * mp}")
    # the head compared with itself, in blocks of rows of about one reader
    # chunk of cells: bad[i, n] is whether a_{n+T} and a_n differ, for
    # T = t0 + i, n + T in the head.  A violation at n < mpp only raises T's
    # preperiod (one past the last); one at n >= mpp ends T, as does any
    # later one.  Row i ends with i cells past the head (ext's padding),
    # all among the block's last k - 1 columns, at n >= mpp; the last k
    # rows of pad keep the cells of those columns that are in the head.
    L = mpp + mp
    head = seq._read(0, L)
    pre = np.zeros(mp, dtype=np.int64)
    live = np.ones(mp, dtype=bool)
    rows = max(1, min(mp, sequences._CHUNK // L))
    ext = head if rows == 1 else np.concatenate((head, head[:rows - 1]))
    pad = np.arange(rows - 1) < np.arange(rows - 1, -1, -1)[:, None]
    for t0 in range(1, mp + 1, rows):
        k, w = min(rows, mp + 1 - t0), L - t0
        # row i is ext[t0 + i:t0 + i + w], within ext since k <= rows
        win = as_strided(ext[t0:], (k, w), (ext.strides[0],) * 2, writeable=False)
        bad = _differ(win, head[:w], tol)
        if mpp:
            last = bad[:, mpp - 1::-1]
            pre[t0 - 1:t0 - 1 + k] = np.where(last.any(axis=1), mpp - last.argmax(axis=1), 0)
        dead = bad[:, mpp:w - k + 1].any(axis=1)
        if k > 1:
            dead |= (bad[:, w - k + 1:] & pad[rows - k:, :k - 1]).any(axis=1)
        live[t0 - 1:t0 - 1 + k] = ~dead
    # a sieve of mp log mp pairs: div[j] is a proper divisor of mult[j],
    # and every period up to mp pairs so with each of its proper divisors
    div = np.arange(1, mp // 2 + 1)
    div = np.repeat(div, mp // div - 1)
    mult = div * (np.arange(div.size) - np.searchsorted(div, div) + 2)

    # buf holds a_{x0-mp} .. a_{x1-1}; each chunk [x0, x1) keeps the mp
    # values below it, so a_x is compared with a_{x-T} for every x in it;
    # the first chunk holds mp^2 values (4096 at the default max_period 64)
    x1 = L
    buf = head[-mp:]
    size = min(mp * mp, sequences._CHUNK)
    while live.any() and x1 <= h:
        x0, x1 = x1, min(h + 1, x1 + size)
        buf = np.concatenate((buf[-mp:], seq._read(x0, x1)))
        size = min(2 * size, sequences._CHUNK)
        tested = np.zeros(mp, dtype=bool)
        while True:
            # at tol = 0 a live proper divisor d of T gives a_x = a_{x-d} =
            # ... = a_{x-T} (equality chains), so T is compared only once
            # every divisor of it has died, in this chunk or before
            todo = live & ~tested
            if tol == 0:
                todo[mult[live[div - 1]] - 1] = False
            if not todo.any():
                break
            tested |= todo
            for T in (np.flatnonzero(todo) + 1).tolist():
                live[T - 1] = not np.any(_differ(buf[mp:], buf[mp - T:len(buf) - T], tol))
    periods = np.arange(1, mp + 1)
    return min(zip(pre[live].tolist(), periods[live].tolist()), default=None)


def _differ(a, b, tol):
    """|a - b| > tol elementwise.  At tol = 0 that is a != b (finite
    values); else an overflowing difference is inf, above every finite tol."""
    if tol == 0:
        return a != b
    with np.errstate(over="ignore"):
        return np.abs(a - b) > tol


# ---------------------------------------------------------------------------
# Verdict pipeline


@dataclass
class Verdict:
    """Machine-checkable conclusion of the combined analysis.

    Kinds: ``StrongNaturalBoundaryEvidence`` (a verified certificate or
    all-p block mismatches), ``NaturalBoundaryEvidence`` (reserved for
    evidence that does not upgrade), ``EventuallyPeriodic`` (with reduced
    rational form, poles at roots of unity; none, and the reason says why,
    where a coefficient would exceed the float range), ``Inconclusive``.
    """

    kind: str
    certificate: NonReflectionlessCertificate | None = None
    szego: SzegoReport | None = None
    periodicity: tuple | None = None
    rational_form: ratform.RationalForm | None = None
    reason: str = ""
    probes: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "certificate": None if self.certificate is None
            else self.certificate.to_json_dict(),
            "szego": None if self.szego is None else self.szego.to_json_dict(),
            "periodicity": None if self.periodicity is None
            else list(self.periodicity),
            "rational_form": None if self.rational_form is None
            else self.rational_form.to_json_dict(),
            "reason": self.reason,
            "probes": list(self.probes),
        }


def _first_certificate(seq, width, horizon, eps, delta, min_recurrence,
                       gap=True, sides=("backward", "forward"), decay=None):
    """(first certificate or None, searches run) of the zero-flank search
    if ``gap``, then the pair search on each of ``sides``; the certificate
    is re-verified against raw reads (VerificationError if it fails)."""
    cert, probes = None, []
    if gap:
        cert = find_gap_certificate(seq, width, horizon, eps=eps, delta=delta,
                                    decay=decay, min_recurrence=min_recurrence)
        probes.append("gap-certificate(backward)")
    for side in sides:
        if cert is not None:
            break
        cert = find_pair_certificate(seq, width, horizon, eps=eps, delta=delta,
                                     flank_side=side, min_recurrence=min_recurrence)
        probes.append(f"pair-certificate({side})")
    if cert is not None and not cert.verify(seq):
        raise VerificationError("certificate failed re-verification")
    return cert, probes


def _verify_szego(seq, report):
    """Re-check every block-mismatch witness of ``report`` against raw
    reads; raises VerificationError naming the first that fails."""
    for p, w in report.per_p.items():
        if isinstance(w, SzegoWitness) and not w.verify(seq):
            raise VerificationError(
                f"block-mismatch witness for p = {p} failed re-verification")


def verdict(seq: OneSidedSequence, config: AnalysisConfig | None = None) -> Verdict:
    """Run the evidence pipeline on a sequence.

    Order: (1) eventual periodicity (exact-horizon verification, reduced
    rational form); (2) zero-flank then pair-mismatch certificates (both
    flank sides), which carry strong-boundary evidence; (3) for exact
    finite-valued input, block-recurrence analysis (a mismatch at every
    block length is strong-boundary evidence); (4) otherwise inconclusive.
    Certificates embedded in the verdict are re-verified against raw reads.
    """
    cfg = config or AnalysisConfig()
    h = seq.clamp_horizon(cfg.horizon)

    mp = min(cfg.max_period, max(1, h // 3))
    mpp = min(cfg.max_preperiod, max(0, h - 2 * mp))
    found = detect_eventual_periodicity(seq, mp, mpp, h, tol=cfg.periodicity_tol)
    probes = [f"periodicity(max_period={mp}, max_preperiod={mpp})"]
    if found is not None:
        pre, per = found
        arr = seq.read(0, pre + per)
        reason = f"period {per} after preperiod {pre}, verified on horizon {h}"
        try:
            form = ratform.reduce_eventually_periodic(arr[:pre], arr[pre:])
        except ratform.RationalFormError as e:
            form, reason = None, f"{reason}; no rational form: {e}"
        return Verdict(kind="EventuallyPeriodic", periodicity=found, rational_form=form,
                       reason=reason, probes=probes)

    cert, searched = _first_certificate(seq, cfg.width, h, cfg.eps, cfg.delta,
                                        cfg.min_recurrence)
    probes += searched
    if cert is not None:
        return Verdict(kind="StrongNaturalBoundaryEvidence",
                       certificate=cert,
                       reason=f"{cert.kind} with {len(cert.witnesses)} witnesses",
                       probes=probes)

    if seq.exact:
        # step 1 ran the periodicity scan, so the analysis's rerun is skipped
        report = _block_witnesses(seq, cfg.p_max, h)
        probes.append(f"szego(p_max={cfg.p_max})")
        if report.overall == "mismatch-at-every-p":
            _verify_szego(seq, report)
            return Verdict(kind="StrongNaturalBoundaryEvidence",
                           szego=report,
                           reason=f"block mismatch at every p <= {cfg.p_max}",
                           probes=probes)

    return Verdict(kind="Inconclusive",
                   reason="no certificate found and no periodicity detected "
                          "within the configured horizon",
                   probes=probes)
