"""Bounded coefficient sequences and their canonical generator families.

A one-sided sequence a_0, a_1, ... with sup_n |a_n| < infinity is the basic
object of study: it is the coefficient stream of a power series analytic on
the open unit disk.  This module provides

* :class:`OneSidedSequence` -- a deterministic, bounded, total map from
  nonnegative indices to complex values, with a certified bound;
* generator families (periodic patterns, sparse gap-power supports,
  Rudin-Shapiro, irrational-rotation samples, ramped gap sequences with hard
  or soft edges, explicit arrays);
* :class:`TwoSidedWindow` -- a finite two-sided excerpt b_{-W}..b_W used as a
  desk-scale stand-in for a right limit (a limit of index-shifted copies of
  the sequence along indices going to infinity);
* two-sided extensions for evaluating the outside series of a window;
* CSV import/export with the ``n,re,im`` schema.

All generators are pure: construction fixes every value, queries never
mutate, and repeated queries return identical results.
"""

from __future__ import annotations

import cmath
import codecs
import csv
import io
import math
import operator
import os
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "SequenceError",
    "VerificationError",
    "GeneratorSpec",
    "OneSidedSequence",
    "TwoSidedWindow",
    "TwoSidedSequence",
    "make_sequence",
    "periodic",
    "gap_powers",
    "rudin_shapiro",
    "rotation",
    "erdos",
    "explicit",
    "window",
    "snap_to_limit_points",
    "constant_extension",
    "periodic_extension",
    "window_extension",
    "write_sequence_csv",
    "read_sequence_csv",
    "write_window_csv",
    "read_window_csv",
    "default_eps",
]

#: Denominator cap used when screening rotation numbers for rationality.
_RATIONAL_DENOM_CAP = 10 ** 6
_RATIONAL_TOL = 1e-12
_RATIONAL_ULPS = 4

# Bound checks allow this much floating slack on |value| <= bound.
_BOUND_SLACK = 1e-9

# Reads cover 0 <= n < 2^63, the range of the int64/uint64 index arithmetic
# in the families' value functions.
_INDEX_END = 2 ** 63

# The chunked reader (_chunks) reads at most this many values at a time.
_CHUNK = 2 ** 16


class SequenceError(ValueError):
    """Invalid generator specification or sequence-domain error."""


def _check_finite(arr, what):
    """Raise SequenceError naming the first non-finite entry of ``arr``."""
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise SequenceError(f"{what} must be finite, got {arr.flat[bad[0]]}")


class VerificationError(RuntimeError):
    """A certificate, witness or certified bound failed its re-check against
    raw sequence reads.  Raised explicitly, so the check also runs under
    ``python -O``."""


@dataclass(frozen=True)
class GeneratorSpec:
    """A generator family tag plus its parameters.

    ``family`` is one of ``periodic``, ``gap-powers``, ``rudin-shapiro``,
    ``rotation``, ``erdos``, ``explicit``, ``stochastic``.
    """

    family: str
    params: dict = field(default_factory=dict)


def periodic(pattern: Sequence[complex]) -> GeneratorSpec:
    """a_n = pattern[n mod p].  The pattern must be nonempty."""
    return GeneratorSpec("periodic", {"pattern": tuple(complex(v) for v in pattern)})


def gap_powers(exponents="factorials", fill: complex = 1.0) -> GeneratorSpec:
    """a_n = fill on a sparse exponent set, 0 elsewhere.

    ``exponents`` is ``"factorials"`` ({k! : k >= 1}), ``"squares"``
    ({k^2 : k >= 0}) or an explicit iterable of nonnegative integers.  Each
    support is read in closed form over any index range, so horizons up to
    1e9 never materialize arrays.
    """
    return GeneratorSpec("gap-powers", {"exponents": exponents, "fill": complex(fill)})


def rudin_shapiro() -> GeneratorSpec:
    """The +-1 sequence built from the paired polynomial recursion.

    a_n = (-1)^(number of occurrences of "11" in the binary expansion of n).
    """
    return GeneratorSpec("rudin-shapiro", {})


def rotation(q: float, theta: float = 0.0, boundary_fn="fractional-part") -> GeneratorSpec:
    """Samples of a boundary function along an irrational rotation.

    a_n = F(frac(n*q + theta)) where F maps [0,1) to a bounded value.
    ``boundary_fn`` is ``"fractional-part"`` (F(x) = x), ``"half-indicator"``
    (1 on [0, 1/2), else 0), or a pair ``(callable, sup_bound)``.

    Construction rejects q when the closest fraction p/d with d <= 1e6 lies
    within min(1e-12, 4 ulp(q)) of it: doubles of such fractions (1/3,
    355/113, 0.1*3) are rejected, while irrationals such as sqrt(3), whose
    near fractions are thousands of ulps away, are accepted.
    """
    return GeneratorSpec(
        "rotation", {"q": float(q), "theta": float(theta), "boundary_fn": boundary_fn}
    )


def erdos(edge: str = "hard") -> GeneratorSpec:
    """Sequences vanishing on the union of blocks [j!, j!+j] for j >= 2.

    ``hard``: value 1 everywhere off the blocks (the value jumps at block
    edges).  ``soft``: each gap between blocks carries a symmetric
    piecewise-linear ramp 0 -> 1 -> 0 whose rise length is
    floor(sqrt(gap length)), so the slope decays and every long window
    looks nearly constant.
    """
    if edge not in ("hard", "soft"):
        raise SequenceError(f"erdos edge must be 'hard' or 'soft', got {edge!r}")
    return GeneratorSpec("erdos", {"edge": edge})


def explicit(values: Iterable[complex]) -> GeneratorSpec:
    """A finite explicit coefficient list, held as a read-only complex
    array of ``complex(v)`` for each value.

    A list, tuple or 1-d ndarray is converted in one numpy call; other
    iterables, and lists that hold a nan or None, take ``complex(v)`` one
    value at a time (see :func:`_complex_values`).  None is refused as
    ``complex(None)`` is.  Inside a list or tuple numpy also converts
    bytes (parsed as text: ``b"2.5"`` is 2.5) and numpy datetimes and
    timedeltas (their integer count), which ``complex()`` refuses."""
    return GeneratorSpec("explicit", {"values": _complex_values(values)})


def _complex_values(values) -> np.ndarray:
    """``complex(v)`` for each of ``values`` as a read-only complex array,
    bit for bit, converted once: a read-only 1-d complex array passes
    through, a 1-d bool or numeric array is cast, and a list, tuple or 1-d
    object array goes through one ``np.fromiter``, which converts each
    value ``complex()`` accepts as it does.  numpy reads None as nan, so
    a converted nan, a value numpy refuses, or any other iterable takes
    the per-value loop, which refuses what ``complex()`` refuses."""
    arr = None
    if type(values) is np.ndarray and values.ndim == 1 and values.dtype.kind in "biufc":
        if values.dtype == complex and not values.flags.writeable:
            return values
        arr = values.astype(complex)
    elif isinstance(values, (list, tuple)) or (
            type(values) is np.ndarray and values.ndim == 1 and values.dtype == object):
        try:
            arr = np.fromiter(values, complex, count=len(values))
        except (TypeError, ValueError, OverflowError):
            pass
        if arr is not None and np.isnan(arr).any():
            arr = None
    if arr is None:
        arr = np.fromiter(map(complex, values), dtype=complex)
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Core sequence type


class OneSidedSequence:
    """A bounded coefficient sequence with a certified sup bound.

    Every value comes from one vectorized function of the index: ``at(idx)``
    returns a_n for each n of a 1-d int64 array, as a fresh array (which
    the gather canonicalises in place) or a read-only one.  The sequence
    keeps no state between queries: :meth:`_at` gathers any indices, :meth:`read`,
    :meth:`eval` and :meth:`window` gather a range, and :meth:`prefix` fills
    the first ``count`` values from the chunked reader :func:`_chunks`.
    Each gather checks its indices before any value is computed, returns a
    fresh array, canonicalises signed zeros to +0.0, so bit-pattern keys
    over values mean value equality, and checks its values against the bound.
    Indices run over 0 <= n < 2^63.  ``value_kind`` records whether values
    admit exact equality comparison (``exact-integer`` /
    ``exact-rational``) or need a tolerance (``float``); downstream
    searches pick their default matching tolerance from it.

    ``length`` is ``None`` for generators defined at every index and a
    finite count for explicit/CSV-backed sequences, whose analyses clamp
    their horizons accordingly.

    ``real_valued`` is True when every value is known to be real before
    any is read (each family constructor passes it): the sequence's own
    layout, in which the chunked reader hands out values, is then float64;
    False, the default, means complex.

    ``gap_support`` is ``None`` except on sparse gap families, where it is
    their :class:`GapSupport`, so evaluators and searches can walk the
    support without reading coefficients.

    ``floor`` is an exact lower bound on every |a_n| as ``np.abs`` gives
    it, stated by the family: 1 for Rudin-Shapiro, min |pattern| for
    periodic, min |a| over the stored values for explicit, CSV-read and
    sampled-path sequences, and 0 for every other family.  The zero-flank
    search reads nothing when it exceeds every flank threshold.
    """

    def __init__(self, at, bound, family, params=None, value_kind="float",
                 length=None, real_valued=False, gap_support=None, floor=0.0):
        self._family_at = at
        self.bound = float(bound)
        self.floor = float(floor)
        self.family = family
        self.params = dict(params or {})
        self.value_kind = value_kind
        self.length = length
        self.real_valued = real_valued
        self.gap_support = gap_support

    # -- queries ----------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.value_kind in ("exact-integer", "exact-rational")

    def read(self, lo: int, hi: int) -> np.ndarray:
        """a_lo..a_{hi-1} as a fresh complex array: one gather."""
        return self._read(lo, hi).astype(complex, copy=False)

    def _read(self, lo: int, hi: int) -> np.ndarray:
        """a_lo..a_{hi-1} as a fresh array in the sequence's own layout: one
        gather of the range, which is refused before it is allocated if it
        leaves the indices."""
        lo, hi = operator.index(lo), operator.index(hi)
        if hi < lo:
            raise SequenceError(f"read range [{lo}, {hi}) ends before it starts")
        self._check_index(lo, hi)
        # the indices are freed once the family has read them
        return self._checked(self._family_at(np.arange(lo, hi, dtype=np.int64)),
                             lo.__add__)

    def _at(self, idx) -> np.ndarray:
        """a_n for each index n of the int64 array ``idx``, as a fresh array
        of its shape in the sequence's own layout, checked as :meth:`_checked`
        checks it."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size:
            self._check_index(int(idx.min()), int(idx.max()) + 1)
        flat = idx.ravel()
        return self._checked(self._family_at(flat), flat.__getitem__).reshape(idx.shape)

    def _checked(self, vals, index_of) -> np.ndarray:
        """The 1-d values ``vals`` a family returned, in the sequence's own
        layout with signed zeros as +0.0 (in place when ``vals`` is a
        writable array of that layout that owns its data, else in a copy),
        checked against the bound on that layout (on real values |x| is
        bit for bit that of x + 0j); a value over it raises
        VerificationError naming its index ``index_of(i)``."""
        vals = np.asarray(vals)
        if (vals.dtype == (float if self.real_valued else complex)
                and vals.flags.writeable and vals.base is None):
            vals += 0.0
        else:
            vals = vals.real + 0.0 if self.real_valued else vals.astype(complex, copy=False) + 0j
        limit = self.bound * (1 + 1e-12) + _BOUND_SLACK
        if not vals.size:
            return vals
        if self.real_valued:    # the extremes, with no array of moduli
            ok = vals.max() <= limit and -vals.min() <= limit
        else:
            ok = np.abs(vals).max() <= limit
        if not ok:
            i = int(np.argmin(np.abs(vals) <= limit))
            raise VerificationError(
                f"|a_{index_of(i)}| = {abs(vals[i])} exceeds certified bound {self.bound}")
        return vals

    def eval(self, n: int) -> complex:
        return complex(self.read(n, n + 1)[0])

    def prefix(self, count: int) -> np.ndarray:
        """First ``count`` values as a fresh complex array, filled from the
        chunked reader, so no gather's temporaries grow with ``count``."""
        self._check_count(count)
        return _gather(self, count, complex)

    def _check_index(self, lo: int, hi: int) -> None:
        """Reject indices lo..hi-1 unless 0 <= lo and hi <= the end."""
        end = _INDEX_END if self.length is None else self.length
        if lo < 0:
            raise SequenceError(f"index must be >= 0, got {lo}")
        if hi > end:
            raise SequenceError(f"index {hi - 1} beyond the last index {end - 1}")

    def _check_count(self, count: int) -> None:
        """Reject a prefix count below 0 or past the last index."""
        if count < 0:
            raise SequenceError(f"prefix count must be >= 0, got {count}")
        self._check_index(0, count)

    def clamp_horizon(self, horizon: int) -> int:
        """Largest usable index not exceeding ``horizon``, which must be >= 0
        and, on an unbounded sequence, no more than its last index."""
        if horizon < 0:
            raise SequenceError(f"horizon must be >= 0, got {horizon}")
        if self.length is not None:
            return min(horizon, self.length - 1)
        if horizon >= _INDEX_END:
            raise SequenceError(f"horizon {horizon} beyond the last index "
                                f"{_INDEX_END - 1}")
        return horizon

    def window(self, center: int, radius: int) -> "TwoSidedWindow":
        return window(self, center, radius)

    def __repr__(self):
        return (f"OneSidedSequence(family={self.family!r}, bound={self.bound}, "
                f"value_kind={self.value_kind!r}, length={self.length})")


def _chunks(seq: OneSidedSequence, lo: int, hi: int, size: int | None = None,
            pad: tuple = (0, 0)):
    """The one chunked reader: (c0, values) for c0 = lo, lo + size, ...
    below ``hi`` (``size`` defaults to ``_CHUNK``); ``values`` is one read
    of a_{c0 - pad[0]} .. a_{c1 + pad[1] - 1}, c1 = min(c0 + size, hi), in
    the sequence's own layout, so memory stays bounded by one chunk."""
    size = size or _CHUNK
    for c0 in range(lo, hi, size):
        yield c0, seq._read(c0 - pad[0], min(c0 + size, hi) + pad[1])


def _gather(seq: OneSidedSequence, count: int, dtype=None) -> np.ndarray:
    """a_0 .. a_{count-1} as one array filled from the chunked reader, in
    the sequence's own layout unless ``dtype`` is given."""
    out = np.empty(count, dtype or (float if seq.real_valued else complex))
    for lo, vals in _chunks(seq, 0, count):
        out[lo:lo + len(vals)] = vals
    return out


@dataclass(frozen=True)
class TwoSidedWindow:
    """A finite two-sided excerpt b_{-W}..b_W of a (candidate) right limit.

    ``provenance`` records where the window came from: a single center
    ``{"kind": "center", "n": n}`` (values are exact reads a_{n+k}) or a
    recurrence cluster ``{"kind": "cluster", "indices": (...)}`` whose
    members all match the stored values within ``eps``.
    """

    values: tuple
    radius: int
    provenance: dict
    eps: float = 0.0
    bound: float = 0.0

    def __post_init__(self):
        if len(self.values) != 2 * self.radius + 1:
            raise SequenceError(
                f"window of radius {self.radius} needs {2 * self.radius + 1} "
                f"values, got {len(self.values)}")

    def value(self, k: int) -> complex:
        if abs(k) > self.radius:
            raise SequenceError(f"offset {k} outside window radius {self.radius}")
        return self.values[k + self.radius]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=complex)


def window(seq: OneSidedSequence, center: int, radius: int) -> TwoSidedWindow:
    """Exact window a_{center-W}..a_{center+W}; requires center >= W."""
    if radius < 0:
        raise SequenceError("window radius must be >= 0")
    if center < radius:
        raise SequenceError(
            f"window center {center} smaller than radius {radius}")
    vals = tuple(seq.read(center - radius, center + radius + 1).tolist())
    return TwoSidedWindow(vals, radius, {"kind": "center", "n": center},
                          eps=0.0, bound=seq.bound)


# ---------------------------------------------------------------------------
# Family construction


def _all_integral(arr: np.ndarray) -> bool:
    """True when every entry of the complex array is a finite integer."""
    re = arr.real
    return not arr.imag.any() and bool(np.all(np.isfinite(re) & (np.trunc(re) == re)))


def _exact_kind(values) -> str:
    arr = np.asarray(values, dtype=complex)
    return "exact-integer" if _all_integral(arr) else "exact-rational"


def _make_periodic(params) -> OneSidedSequence:
    pattern = tuple(complex(v) for v in params.get("pattern", ()))
    if not pattern:
        raise SequenceError("periodic pattern must be nonempty")
    p = len(pattern)
    arr = np.asarray(pattern, dtype=complex)
    _check_finite(arr, "periodic pattern values")
    moduli = np.abs(arr)

    vals = arr if np.any(arr.imag) else arr.real.copy()
    vals.flags.writeable = False
    # n mod p by floor division, which numpy does about twice as fast
    return OneSidedSequence(lambda idx: vals.take(idx - idx // p * p), moduli.max(),
                            "periodic", {"pattern": pattern}, value_kind=_exact_kind(arr),
                            real_valued=vals.dtype == float, floor=moduli.min())


# k! for k = 1..20: 20! < 2^63 < 21!, and reads stop at 2^63
_FACTORIALS = tuple(math.factorial(k) for k in range(1, 21))


@dataclass(frozen=True)
class GapSupport:
    """The support of a gap family, each of its points holding ``fill``:
    ``rank(x)`` counts the exponents below x, and ``points(i, j)`` lists
    the exponents of rank i .. j-1, ascending."""

    rank: Callable[[int], int]
    points: Callable[[int, int], list]
    fill: complex

    def between(self, lo: int, hi: int) -> list:
        """The exponents e with lo <= e < hi, ascending."""
        return self.points(self.rank(lo), self.rank(hi))


def _square_rank(x: int) -> int:
    """Squares below x: the least k >= 0 with k*k >= x."""
    return math.isqrt(x - 1) + 1 if x > 0 else 0


def _exponent_ranks(spec):
    """(rank, points) of a gap family's exponent set, as in GapSupport."""
    if spec == "squares":
        return _square_rank, lambda i, j: [k * k for k in range(i, j)]
    if spec == "factorials":
        exps = _FACTORIALS
    else:
        # rejects other names ("cubes") and non-integral values (2.5, nan)
        try:
            pairs = [(int(e), e) for e in spec]
        except (TypeError, ValueError, OverflowError):
            raise SequenceError(f"malformed exponent set: {spec!r}") from None
        if any(n != e or n < 0 for n, e in pairs):
            raise SequenceError(f"exponents must be nonnegative integers: {spec!r}")
        exps = tuple(sorted({n for n, _ in pairs}))
        if not exps:
            raise SequenceError("exponent set must be nonempty")

    return partial(bisect_left, exps), lambda i, j: list(exps[i:j])


def _make_gap_powers(params) -> OneSidedSequence:
    fill = complex(params.get("fill", 1.0))
    if not cmath.isfinite(fill):
        raise SequenceError(f"gap fill must be finite, got {fill}")
    name = params.get("exponents", "factorials")
    support = GapSupport(*_exponent_ranks(name), fill)
    bound = max(abs(fill), 1.0)
    label = name if isinstance(name, str) else "custom"
    value = fill if fill.imag else fill.real

    def at(idx):
        if label == "squares":
            # below 2^63 a float root is within 1e-6 of the exact one, so a
            # square's rounds to its integer root; k*k fits in uint64
            r = np.rint(np.sqrt(idx)).astype(np.uint64)
            return np.where((r * r).view(np.int64) == idx, value, 0.0)
        # against the exponents from the least to the greatest index only;
        # "sort" compares each index with them in turn when they are few
        local = support.between(int(idx.min()), int(idx.max()) + 1) if idx.size else []
        return np.where(np.isin(idx, local, kind="sort"), value, 0.0)

    return OneSidedSequence(at, bound, "gap-powers", {"exponents": label, "fill": fill},
                            value_kind=_exact_kind([fill]), real_valued=fill.imag == 0,
                            gap_support=support)


def _rs_at(idx):
    # parity of the count of adjacent "11" bit pairs
    return np.where(np.bitwise_count(idx & (idx >> 1)) & 1, -1.0, 1.0)


def _make_rudin_shapiro(params) -> OneSidedSequence:
    return OneSidedSequence(_rs_at, 1.0, "rudin-shapiro", {},
                            value_kind="exact-integer", real_valued=True, floor=1.0)


def _check_irrational(q: float):
    # A double of p/d lies within half an ulp of it, while Dirichlet's
    # theorem puts every irrational within 1/d^2 of some p/d (d <= cap):
    # a tolerance of a few ulps rejects the first without the second.
    tol = min(_RATIONAL_TOL, _RATIONAL_ULPS * math.ulp(q))
    approx = Fraction(q).limit_denominator(_RATIONAL_DENOM_CAP)
    if abs(q - float(approx)) <= tol:
        raise SequenceError(
            f"rotation number {q!r} is within {tol:.3g} of "
            f"{approx.numerator}/{approx.denominator}; an irrational rotation "
            f"number is required")


def _frac_shift_exact(n: int, q: float, theta: float) -> float:
    """frac(n*q + theta) with the product n*q carried in exact integer
    arithmetic on the binary representations of q and theta.

    A naive double product loses the low bits that decide values next to
    the discontinuity of the boundary function; this path is exact up to
    the single final rounding, for any n.
    """
    qn, qd = q.as_integer_ratio()       # qd is a power of two
    tn, td = theta.as_integer_ratio()
    d = max(qd, td)
    x = (n * qn * (d // qd) + tn * (d // td)) % d
    return x / d


def _frac_shift_at(q: float, theta: float, idx: np.ndarray) -> np.ndarray:
    """frac(n*q + theta) for each n of the int64 array ``idx`` (n >= 0),
    bit for bit as :func:`_frac_shift_exact`.

    The common denominator d is a power of two, so when d <= 2^64 the
    numerator (n*q_num + theta_num) mod d is exact in wrapping uint64
    arithmetic (d divides 2^64).  The numerator is converted to float as
    hi*2^32 + lo: both halves are exact doubles, so the sum rounds once,
    correctly, and the division by d is exact.  Larger d (tiny q or theta)
    takes the exact per-index path.
    """
    qn, qd = q.as_integer_ratio()
    tn, td = theta.as_integer_ratio()
    d = max(qd, td)
    if d > 2 ** 64:
        return np.array([_frac_shift_exact(n, q, theta) for n in idx.tolist()],
                        dtype=float)
    step = np.uint64(qn * (d // qd) % d)
    start = np.uint64(tn * (d // td) % d)
    x = (idx.view(np.uint64) * step + start) & np.uint64(d - 1)
    upper = (x >> np.uint64(32)).astype(float) * 2.0 ** 32
    lower = (x & np.uint64(0xFFFFFFFF)).astype(float)
    return (upper + lower) / float(d)


# name -> (vectorized function of the fractional parts, sup bound)
_BOUNDARY_FNS = {
    "fractional-part": (lambda xs: xs, 1.0),
    "half-indicator": (lambda xs: np.where(xs < 0.5, 1.0, 0.0), 1.0),
}


def _make_rotation(params) -> OneSidedSequence:
    q = float(params["q"])
    theta = float(params.get("theta", 0.0))
    if not (math.isfinite(q) and math.isfinite(theta)):
        raise SequenceError(
            f"rotation number and phase must be finite, got q={q}, theta={theta}")
    _check_irrational(q)
    bf = params.get("boundary_fn", "fractional-part")
    if isinstance(bf, str):
        if bf not in _BOUNDARY_FNS:
            raise SequenceError(f"unknown boundary function {bf!r}")
        vfunc, sup = _BOUNDARY_FNS[bf]
        label = bf
    else:
        func, sup = bf
        label = "custom"

        def vfunc(xs):
            return [func(x) for x in xs.tolist()]

    # a custom boundary function may be complex
    return OneSidedSequence(lambda idx: vfunc(_frac_shift_at(q, theta, idx)),
                            float(sup), "rotation",
                            {"q": q, "theta": theta, "boundary_fn": label},
                            value_kind="float", real_valued=isinstance(bf, str))


# The gaps [g, f) before the Erdos blocks [j!, j!+j], j = 2..21: their starts
# g, lengths f - g and rise + 1 = isqrt(f - g) + 1.  21! > 2^64, so the last
# gap, after 20!+20, runs past every index: its length is held as 2^63 - 1,
# which keeps f - n above rise + 1, and its rise is taken from 21!.
_ERDOS_G = np.array([0] + [math.factorial(j) + j + 1 for j in range(2, 21)])
_ERDOS_LEN = np.array([min(math.factorial(j) - g, _INDEX_END - 1)
                       for j, g in zip(range(2, 22), _ERDOS_G.tolist())])
_ERDOS_RISE1 = np.array([math.isqrt(math.factorial(j) - g) + 1.0
                         for j, g in zip(range(2, 22), _ERDOS_G.tolist())])


def _erdos_at(hard: bool, idx: np.ndarray) -> np.ndarray:
    """Erdos values at the int64 indices ``idx``: 0 on the blocks, and in each
    gap [g, f) 1 (hard) or min(n - g + 1, f - n, rise + 1) / (rise + 1)."""
    k = np.searchsorted(_ERDOS_G, idx, side="right") - 1
    t = idx - _ERDOS_G[k]               # n - g
    fall = _ERDOS_LEN[k] - t            # f - n, at most 0 in the block after the gap
    if hard:
        return (fall > 0).astype(float)
    rise1 = _ERDOS_RISE1[k]
    return np.maximum(np.minimum(np.minimum(t + 1.0, fall), rise1), 0.0) / rise1


def _make_erdos(params) -> OneSidedSequence:
    edge = params.get("edge", "hard")
    hard = edge == "hard"
    kind = "exact-integer" if hard else "float"
    return OneSidedSequence(partial(_erdos_at, hard), 1.0,
                            "erdos", {"edge": edge}, value_kind=kind,
                            real_valued=True)


def _make_explicit(params) -> OneSidedSequence:
    arr = _complex_values(params.get("values", ()))
    if not arr.size:
        raise SequenceError("explicit sequence needs at least one value")
    _check_finite(arr, "explicit values")
    moduli = np.abs(arr)
    bound, floor = moduli.max(), moduli.min()
    del moduli                  # before the kind test's temporaries
    kind = params.get("value_kind") or _exact_kind(arr)
    count = arr.shape[0]
    real = not np.any(arr.imag)
    return OneSidedSequence((arr.real if real else arr).__getitem__, bound,
                            params.get("family_label", "explicit"), {"count": count},
                            value_kind=kind, length=count, real_valued=real, floor=floor)


_MAKERS = {"periodic": _make_periodic, "gap-powers": _make_gap_powers,
           "rudin-shapiro": _make_rudin_shapiro, "rotation": _make_rotation,
           "erdos": _make_erdos, "explicit": _make_explicit}


def make_sequence(spec: GeneratorSpec) -> OneSidedSequence:
    """Build the sequence described by ``spec``.

    The certified bound is the family's known sup: max |pattern| for
    periodic, max(|fill|, 1) for gap powers, 1 for Rudin-Shapiro and the
    ramped-gap families, sup of the boundary function for rotations.  The
    floor is the family's known inf of |a_n| (see :class:`OneSidedSequence`).
    """
    family = spec.family
    if family in _MAKERS:
        return _MAKERS[family](spec.params)
    if family == "stochastic":
        from . import randomseries

        proc = spec.params.get("process")
        length = spec.params.get("length")
        if proc is None or length is None:
            raise SequenceError(
                "stochastic spec needs 'process' and 'length' parameters")
        return randomseries.sample_process(proc, length)
    raise SequenceError(f"unknown generator family {family!r}")


def default_eps(seq: OneSidedSequence) -> float:
    """Matching tolerance: 0 for exact value kinds, 0.05 for float."""
    return 0.0 if seq.exact else 0.05


# ---------------------------------------------------------------------------
# Snapping to a finite limit-point set


def snap_to_limit_points(seq: OneSidedSequence, points: Sequence[complex],
                         onset_tol: float, scan_horizon: int = 10_000) -> OneSidedSequence:
    """Replace each a_n by the nearest member of the finite set ``points``
    (the first of equally near points in enumeration order); every read
    snaps the source values it reads.

    A bounded sequence whose values accumulate only at finitely many points
    eventually stays within gamma = half the minimal pairwise distance of
    the nearest point; the returned sequence records in ``params`` the first
    index (within ``scan_horizon``) from which |a_n - snapped_n| <= gamma
    holds through the end of the scan, plus any indices where the two
    nearest points were closer than ``onset_tol`` apart in distance (ties).
    """
    pts = [complex(p) for p in points]
    if not pts:
        raise SequenceError("need at least one limit point")
    parr = np.asarray(pts, dtype=complex)
    _check_finite(parr, "limit points")
    if not (math.isfinite(onset_tol) and onset_tol >= 0):
        raise SequenceError(f"onset_tol must be finite and >= 0, got {onset_tol}")
    min_dist = min((abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:]),
                   default=math.inf)
    if min_dist <= 2 * onset_tol:
        raise SequenceError(
            f"limit points must be pairwise farther apart than "
            f"2*onset_tol = {2 * onset_tol}")
    gamma = 0.5 * min_dist

    def distances(vals):
        return np.abs(vals[:, None] - parr[None, :])

    horizon = seq.clamp_horizon(scan_horizon)
    ties, onset = [], 0
    for lo, vals in _chunks(seq, 0, horizon + 1):
        dists = distances(vals)
        if len(pts) > 1:
            part = np.partition(dists, 1, axis=1)
            ties += (np.flatnonzero(part[:, 1] - part[:, 0] <= onset_tol) + lo).tolist()
        viol = np.flatnonzero(dists.min(axis=1) > gamma)
        if viol.size:
            onset = lo + int(viol[-1]) + 1

    def at(idx):
        return parr[np.argmin(distances(seq._at(idx)), axis=1)]

    return OneSidedSequence(
        at, max(abs(p) for p in pts), "snapped",
        {"points": tuple(pts), "gamma": gamma, "onset_index": onset,
         "ties": tuple(ties), "scan_horizon": horizon, "source": seq.family},
        value_kind=_exact_kind(pts), length=seq.length,
        real_valued=not np.any(parr.imag))


# ---------------------------------------------------------------------------
# Two-sided extensions (for outside-the-disk evaluation)


@dataclass(frozen=True)
class TwoSidedSequence:
    """A bounded two-sided sequence b_n, n in Z, as two one-sided sequences:
    ``inside`` holds b_0, b_1, ... and ``outside`` holds b_{-1}, b_{-2}, ..."""

    inside: OneSidedSequence
    outside: OneSidedSequence
    description: str = "two-sided"


def constant_extension(c: complex) -> TwoSidedSequence:
    c = complex(c)
    side = make_sequence(periodic([c]))
    return TwoSidedSequence(side, side, f"constant {c}")


def periodic_extension(pattern: Sequence[complex]) -> TwoSidedSequence:
    inside = make_sequence(periodic(pattern))
    pat = inside.params["pattern"]
    # b_{-m} = pat[-m mod p]: the outside side runs through the pattern backwards
    return TwoSidedSequence(inside, make_sequence(periodic(pat[::-1])),
                            f"periodic({len(pat)})")


def window_extension(win: TwoSidedWindow) -> TwoSidedSequence:
    """Zero-padding beyond the window radius."""
    W = win.radius
    return TwoSidedSequence(make_sequence(explicit(win.values[W:])),
                            make_sequence(explicit(win.values[W - 1::-1] if W else (0,))),
                            "zero-padded window")


# ---------------------------------------------------------------------------
# CSV import/export: header "n,re,im", index ascending from 0, no gaps.
# Rows move in chunks of _CSV_CHUNK: each chunk is one read and one write,
# or one slice of the reader converted a column at a time, so memory stays
# bounded by the chunk (plus the values a reader keeps, 16 bytes a row).

_CSV_CHUNK = 4096

# One row in csv.writer's default dialect: lines end in \r\n, and no field
# needs quoting (a finite float's text holds no ',', '"' or line break).
# A chunk of k rows is one %-format of this row repeated k times.
_CSV_ROW = "%d,%.17g,%.17g\r\n"


def write_sequence_csv(dest, seq: OneSidedSequence, count: int) -> None:
    """Write a_0..a_{count-1}; values come from the chunked reader, so
    memory does not grow with ``count``."""
    count = operator.index(count)
    seq._check_count(count)
    _write_rows(dest, 0, (vals for _, vals in _chunks(seq, 0, count, _CSV_CHUNK)))


def write_window_csv(dest, win: TwoSidedWindow) -> None:
    vals = win.as_array()
    _write_rows(dest, -win.radius,
                np.split(vals, range(_CSV_CHUNK, vals.size, _CSV_CHUNK)))


def _write_rows(dest, first, chunks) -> None:
    """Header, then one row per value of the arrays ``chunks``, numbered
    on from ``first``."""
    own = isinstance(dest, (str, bytes))
    f = open(dest, "w", newline="") if own else dest
    try:
        f.write("n,re,im\r\n")
        for vals in chunks:
            k = len(vals)
            fields = [None] * (3 * k)
            fields[0::3] = range(first, first + k)
            fields[1::3] = vals.real.tolist()
            fields[2::3] = vals.imag.tolist()
            f.write(_CSV_ROW * k % tuple(fields))
            first += k
    finally:
        if own:
            f.close()


def read_sequence_csv(src) -> OneSidedSequence:
    """Read a one-sided sequence; validates ascending gap-free indices and
    finite values.

    Integer-valued files import as exact (so downstream analyses compare
    with zero tolerance, matching in-memory generation of exact families);
    anything else imports as float.  A malformed or non-finite row anywhere
    in the file is reported before an index gap.
    """
    chunks, gap, count = [], None, 0
    for ns, vals in _read_rows(src):
        if gap is None:
            off = np.flatnonzero(ns != np.arange(count, count + ns.shape[0]))
            if off.size:
                gap = (count + int(off[0]), int(ns[off[0]]))
        chunks.append(vals)
        count += vals.shape[0]
    if gap is not None:
        raise SequenceError(
            f"CSV indices must ascend from 0 without gaps; row {gap[0]} has n={gap[1]}")
    if not count:
        raise SequenceError("CSV contains no data rows")
    values = np.concatenate(chunks)
    values.flags.writeable = False
    kind = "exact-integer" if _all_integral(values) else "float"
    return _make_explicit({"values": values, "family_label": "csv",
                           "value_kind": kind})


def read_window_csv(src) -> TwoSidedWindow:
    """Read a two-sided window; indices must run -W..W without gaps."""
    chunks = list(_read_rows(src))
    if not chunks:
        raise SequenceError("CSV contains no data rows")
    ns = np.concatenate([c[0] for c in chunks])
    W = int(ns.max())
    if ns.shape[0] != 2 * W + 1 or not np.array_equal(np.sort(ns),
                                                      np.arange(-W, W + 1)):
        raise SequenceError("window CSV must cover -W..W without gaps")
    values = np.empty(ns.shape[0], dtype=complex)
    values[ns + W] = np.concatenate([c[1] for c in chunks])
    values = tuple(values.tolist())
    return TwoSidedWindow(values, W, {"kind": "csv"}, eps=0.0,
                          bound=max(abs(v) for v in values))


def _read_rows(src):
    """The data rows of an ``n,re,im`` CSV as (indices, values) array
    pairs, one per chunk of rows.  Blank lines are skipped; a malformed or
    non-finite row raises SequenceError naming the first such row, and a
    line the reader rejects (a field over ``csv.field_size_limit()``)
    raises SequenceError naming the file and the line.

    Each chunk of lines goes to the strict bulk parse of _parse_lines; from
    the first chunk it refuses on, csv.reader and _parse_rows read the rest
    of the file, so they name the first bad row."""
    own = isinstance(src, (str, bytes))
    f = open(src, "r", newline="", encoding="utf-8") if own else src
    done = 0                    # lines read before the reader r started
    try:
        if isinstance(f, io.TextIOBase) or hasattr(f, "read"):
            r = csv.reader(f)
        else:  # pragma: no cover
            raise SequenceError("unreadable CSV source")
        header = next(r, None)
        if header is None or [h.strip() for h in header] != ["n", "re", "im"]:
            raise SequenceError(f"expected header 'n,re,im', got {header}")
        done = r.line_num
        while lines := list(islice(f, _CSV_CHUNK)):
            rows = _parse_lines(lines)
            if rows is None:
                break
            done += len(lines)
            yield rows
        else:
            return
        r = csv.reader(chain(lines, f))
        while raw := list(islice(r, _CSV_CHUNK)):
            rows = list(filter(None, raw))
            if rows:
                yield _parse_rows(rows)
    except UnicodeDecodeError as e:
        # the decoder's own offset counts from the block it was decoding
        name, where = ((os.fsdecode(src), f"byte {_bad_utf8_offset(src)}") if own
                       else (getattr(f, "name", "stream"), e.reason))
        raise SequenceError(
            f"CSV file {name} is not valid {e.encoding} text at {where}") from None
    except csv.Error as e:     # e.g. a field over csv.field_size_limit()
        name = os.fsdecode(src) if own else getattr(f, "name", "stream")
        raise SequenceError(f"CSV file {name}, line {done + r.line_num}: {e}") from None
    finally:
        if own:
            f.close()


def _parse_lines(lines):
    """(indices, values) of a chunk of CSV lines by numpy's C parser, or
    None if it refuses them.

    It accepts only rows of three unquoted fields that int() and float()
    also accept, and converts them to the same numbers; blank lines are
    skipped.  It refuses a chunk that holds a quote (a quoted field may
    span lines), a line over ``csv.field_size_limit()`` (csv.reader rejects
    it), a character outside ASCII (numpy's int64 parser takes some of
    them for digits), a control character 0x1C-0x1F (numpy strips them as
    whitespace, int() and float() do not), no data row, or a value that is
    not finite."""
    text, limit = "".join(lines), csv.field_size_limit()
    if (not text.isascii() or any(c in text for c in '"\x1c\x1d\x1e\x1f')
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                              dtype=[("n", np.int64), ("re", float), ("im", float)])
    except (ValueError, UserWarning):
        return None
    vals = np.empty(rows.shape[0], dtype=complex)
    vals.real = rows["re"]
    vals.imag = rows["im"]
    if not np.isfinite(vals).all():
        return None
    return rows["n"], vals + 0j       # -0.0 reads as +0


def _parse_rows(rows):
    """(indices, values) of nonempty CSV rows, a column at a time."""
    k = len(rows)
    try:
        if set(map(len, rows)) == {3}:
            ns, re, im = zip(*rows)
            vals = np.empty(k, dtype=complex)
            vals.real = np.fromiter(map(float, re), dtype=float, count=k)
            vals.imag = np.fromiter(map(float, im), dtype=float, count=k)
            try:
                idx = np.fromiter(map(int, ns), dtype=np.int64, count=k)
            except OverflowError:   # kept exact: such an index can only be a gap
                idx = np.array(list(map(int, ns)), dtype=object)
            if np.isfinite(vals).all():
                return idx, vals + 0j       # -0.0 reads as +0
    except ValueError:
        pass
    for row in rows:    # name the first bad row, exactly as a row loop would
        _check_row(row)
    raise AssertionError("a CSV chunk failed to convert, yet no row is bad")


def _check_row(row):
    if len(row) != 3:
        raise SequenceError(f"malformed CSV row: {row}")
    try:
        int(row[0])
        v = complex(float(row[1]), float(row[2]))
    except ValueError:
        raise SequenceError(f"malformed CSV row: {row}") from None
    if not cmath.isfinite(v):
        raise SequenceError(f"non-finite value in CSV row: {row}")


def _bad_utf8_offset(path) -> int:
    """Offset of the first byte of the file at ``path`` that does not
    decode as UTF-8 (the file's length if every byte does)."""
    dec = codecs.getincrementaldecoder("utf-8")()
    done = 0                    # bytes handed to the decoder so far
    with open(path, "rb") as f:
        while True:
            block = f.read(1 << 16)
            held = len(dec.getstate()[0])   # undecoded tail of earlier blocks
            try:
                dec.decode(block, final=not block)
            except UnicodeDecodeError as e:
                return done - held + e.start
            if not block:
                return done
            done += len(block)
