"""Certified numerical evaluation of bounded power series near the unit circle.

Everything here carries explicit error bounds.  A sequence bounded by A has

    |sum_{n >= N} a_n z^n|  <=  A |z|^N / (1 - |z|)        (|z| < 1)
    |sum_{m >= N} b_{-m} z^{-m}|  <=  A |z|^{-N} / (1 - |z|^{-1})   (|z| > 1)

so a tolerance dictates a truncation length, and every evaluation returns
its value together with the geometric tail bound actually incurred.

The arc scan integrates |f(r e^{i theta})| over an arc of the unit circle
at a ladder of radii.  A series that continues analytically across an arc
keeps these integrals bounded as r -> 1; unbounded growth on every arc is
the numerical signature this probe looks for.  The probe only corroborates:
conclusions are carried by discrete certificates, never by the scan.
"""

from __future__ import annotations

import cmath
import csv
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import ratform
from ._util import fmt17, ipow, kahan_complex_sum
from .sequences import (
    OneSidedSequence,
    SequenceError,
    TwoSidedSequence,
    TwoSidedWindow,
    _chunks,
    periodic_extension,
    window_extension,
)

__all__ = [
    "AnalyticError",
    "NumericCapError",
    "ArcSpec",
    "EvalResult",
    "ShiftPairResult",
    "BoundaryProbeReport",
    "ReflectionlessCheckResult",
    "DecayRuleResult",
    "TERM_CAP",
    "truncation_length",
    "eval_f",
    "eval_shift_pair",
    "eval_two_sided",
    "boundary_l1_scan",
    "periodic_reflectionless_check",
    "decay_rule_check",
]

#: Hard cap on the number of series terms in a single evaluation.
TERM_CAP = 10 ** 8

_INSIDE_MARGIN = 1e-9


class AnalyticError(ValueError):
    """Domain violation for an analytic-engine operation."""


class NumericCapError(RuntimeError):
    """The requested tolerance needs more than TERM_CAP series terms."""

    def __init__(self, required: int, message: str | None = None):
        self.required = required
        super().__init__(message or
                         f"evaluation needs {required} terms (cap {TERM_CAP})")


@dataclass(frozen=True)
class ArcSpec:
    """An arc alpha < theta < beta of the unit circle, in radians.

    Width must be positive and strictly below a full turn; use
    :meth:`full_circle` for the whole circle.
    """

    alpha: float
    beta: float
    full: bool = False

    def __post_init__(self):
        if self.full:
            return
        if not (self.alpha < self.beta):
            raise AnalyticError("arc needs alpha < beta")
        if self.beta - self.alpha >= 2 * math.pi:
            raise AnalyticError(
                "arc width must be < 2*pi; use ArcSpec.full_circle()")

    @classmethod
    def full_circle(cls) -> "ArcSpec":
        return cls(0.0, 2.0 * math.pi, full=True)

    @property
    def width(self) -> float:
        return 2.0 * math.pi if self.full else self.beta - self.alpha

    def contains_angle(self, theta: float) -> bool:
        """Whether e^{i theta} lies on the closed arc."""
        if self.full:
            return True
        span = self.beta - self.alpha
        rel = (theta - self.alpha) % (2.0 * math.pi)
        return rel <= span or rel >= 2.0 * math.pi  # tolerate wrap rounding

    def to_json_dict(self):
        return {"alpha": self.alpha, "beta": self.beta, "full": self.full}


@dataclass(frozen=True)
class EvalResult:
    """A computed value with its certified absolute error bound."""

    value: complex
    abs_error_bound: float
    terms_used: int


@dataclass(frozen=True)
class ShiftPairResult:
    """Result of evaluating the index-shift identity at one point.

    For shift N the inside part sums a_{n+N} z^n, the outside part is the
    exact finite sum of a_j z^{j-N} over j < N, and together they must
    reproduce z^{-N} f(z).  ``identity_residual`` is the observed defect,
    ``residual_allowance`` is twice the combined truncation bounds it is
    contractually held under.
    """

    fplus: EvalResult
    fminus: complex
    identity_residual: float
    residual_allowance: float  # 2 * (truncation bounds + certified rounding)
    shift: int


def truncation_length(bound: float, r: float, tol: float) -> int:
    """Least N with bound * r**N / (1-r) <= tol; 0 if no terms are needed.

    The test runs in floats while r**N and bound * r**N are normal floats.
    Below that their rounding is no longer relative (r**N can round to 0),
    so N comes from logarithms with a margin that covers their rounding,
    and may exceed the least N by a term."""
    if not (0.0 < r < 1.0):
        raise AnalyticError(f"radius must be in (0,1), got {r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise AnalyticError(f"tolerance must be finite and positive, got {tol}")
    if bound <= 0.0 or tol >= bound / (1.0 - r):
        return 0
    target = tol * (1.0 - r) / bound
    if target >= sys.float_info.min:
        # closed-form estimate, then settle on the exact least N in float arithmetic
        n = max(0, math.ceil(math.log(target) / math.log(r)))
        while bound * r ** n / (1.0 - r) > tol:
            n += 1
        while n > 0 and bound * r ** (n - 1) / (1.0 - r) <= tol:
            n -= 1
        if _float_tail(bound, r, n) is not None:
            return n
    # the logarithms and differences are each rounded by at most an ulp of
    # a value below 1500 in size (7e-13 in all), and the quotient by a few
    # ulps: 1e-12 added to the numerator and 1e-12 relative cover them
    n = (math.log(bound) - math.log(tol) - math.log(1.0 - r) + 1e-12) / -math.log(r)
    return math.ceil(n * (1.0 + 1e-12))


def _float_tail(bound, r, n):
    """The least float at or above bound * p / (1-r), where p is r**n moved
    up by an ulp (so at or above the exact power, which pow rounds to within
    an ulp), when r**n and bound * r**n are normal floats (or the bound is
    0); else None."""
    power = r ** n
    if not (power >= sys.float_info.min
            and (bound * power >= sys.float_info.min or bound == 0.0)):
        return None
    exact = Fraction(bound) * Fraction(math.nextafter(power, math.inf)) / (1 - Fraction(r))
    tail = float(exact)
    return tail if Fraction(tail) >= exact else math.nextafter(tail, math.inf)


def _truncation(seq: OneSidedSequence, r: float, tol: float, start: int = 0,
                offset: int = 0):
    """(terms, tail bound) for sum_n a_(start+n) z^(n+offset) within ``tol``
    at |z| = r: a finite sequence is cut at its end, where the sum is exact
    (bound 0), before the cap is checked against start + terms.  A tail too
    small for normal floats is reported as ``tol``, which bounds it."""
    n = truncation_length(seq.bound, r, tol)
    exact = seq.length is not None and start + n >= seq.length
    if exact:
        if start > seq.length:
            raise SequenceError(
                f"shift {start} beyond explicit sequence length {seq.length}")
        n = seq.length - start
    if start + n > TERM_CAP:
        raise NumericCapError(start + n)
    if exact:
        return n, 0.0
    tail = _float_tail(seq.bound, r, n + offset)
    return n, tol if tail is None else tail


# ---------------------------------------------------------------------------
# Series summation helpers


def _sum_series_with_mass(seq: OneSidedSequence, lo: int, hi: int, z: complex,
                          starts=(0,)):
    """[(sum, mass)] for each start exponent s of ``starts``: the sum of
    a_n z^(s + n - lo) over lo <= n < hi, compensated over the reader's
    chunks (edges at lo + k * _CHUNK), and mass = sum of |term| for rounding
    bounds.  Powers advance by sequential multiplication, so exact dyadic
    inputs (e.g. z = 1/2 with integer coefficients) stay exact."""
    sums = [[ipow(z, s), [], 0.0] for s in starts]     # power, partials, mass
    for _, coeffs in _chunks(seq, lo, hi):
        for acc in sums:
            steps = np.empty(len(coeffs), dtype=complex)
            steps[0] = acc[0]
            steps[1:] = z
            pw = np.cumprod(steps)
            terms = coeffs * pw
            acc[1].append(complex(np.sum(terms)))
            acc[2] += float(np.sum(np.abs(terms)))
            acc[0] = complex(pw[-1]) * z
    return [(kahan_complex_sum(partials), mass) for _, partials, mass in sums]


def _gap_support(seq: OneSidedSequence, count: int):
    """(exponents, fill) for a sparse gap-power family, else None."""
    if seq.gap_support is None:
        return None
    exps = seq.gap_support.between(0, count)
    return np.asarray(exps, dtype=np.int64), complex(seq.gap_support.fill)


def eval_f(seq: OneSidedSequence, z: complex, tol: float = 1e-10) -> EvalResult:
    """Evaluate f(z) = sum a_n z^n inside the disk to within ``tol``."""
    z = complex(z)
    return _eval_series(seq, z, abs(z), tol)


def _eval_series(seq: OneSidedSequence, z: complex, r: float, tol: float,
                 offset: int = 0) -> EvalResult:
    """sum_n a_n z^(n + offset) to within ``tol``, where r = |z| < 1 (the
    outside series of a two-sided sequence passes r = 1.0 / |z|, which can
    differ from abs(1 / z) in the last bit, and offset 1)."""
    if r > 1.0 - _INSIDE_MARGIN:
        raise AnalyticError(
            f"|z| = {r} too close to the unit circle (need <= {1 - _INSIDE_MARGIN})")
    if r == 0.0:
        return EvalResult(seq.eval(0), 0.0, 1)
    n_terms, bound = _truncation(seq, r, tol, offset=offset)
    sparse = _gap_support(seq, n_terms)
    if sparse is not None:
        exps, fill = sparse
        val = kahan_complex_sum(fill * ipow(z, int(e) + offset) for e in exps)
    else:
        val = _sum_series_with_mass(seq, 0, n_terms, z, (offset,))[0][0]
    return EvalResult(val, bound, n_terms)


def eval_shift_pair(seq: OneSidedSequence, shift: int, z: complex,
                    tol: float = 1e-12) -> ShiftPairResult:
    """Evaluate the shifted inside/outside split and its identity residual.

    The truncations are matched: f(z) is summed over exactly the
    coefficients used by the head and the shifted inside part, so the two
    truncation tails cancel and the residual is pure floating-point noise
    (identically zero for integer coefficients at dyadic z).
    """
    if shift < 0:
        raise AnalyticError("shift must be >= 0")
    z = complex(z)
    r = abs(z)
    if r == 0.0:
        raise AnalyticError("shift identity needs z != 0")
    if r > 1.0 - _INSIDE_MARGIN:
        raise AnalyticError("the shifted inside series needs |z| < 1")
    m_terms, tail_bound = _truncation(seq, r, tol, start=shift)

    if abs(ipow(z, shift)) < sys.float_info.min:
        raise AnalyticError(
            f"|z|^shift underflows (|z| = {r}, shift = {shift}); use a "
            f"smaller shift or a larger |z|")

    (fminus_val, fminus_mass), (head_val, head_mass) = _sum_series_with_mass(
        seq, 0, shift, z, (-shift, 0))
    (fplus_val, fplus_mass), (tail_val, tail_mass) = _sum_series_with_mass(
        seq, shift, shift + m_terms, z, (0, shift))
    f_val = head_val + tail_val

    lhs = fplus_val + fminus_val
    scale = ipow(z, -shift)
    rhs = scale * f_val
    residual = abs(lhs - rhs)

    f_bound = tail_bound * r ** shift          # tail of f starts at shift+m
    # certified rounding: each term of a length-k power sum carries at most
    # (k+3) ulps of relative error, compensation keeps accumulation below
    # that; the z^-shift rescale and final combination add |value|-level ulps
    eps_m = float(np.finfo(float).eps)
    rounding = eps_m * (
        (m_terms + 3) * fplus_mass
        + (shift + 3) * fminus_mass
        + abs(scale) * (shift + m_terms + 3) * (head_mass + tail_mass)
        + 2.0 * (abs(lhs) + abs(rhs)))
    allowance = 2.0 * (tail_bound + r ** (-shift) * f_bound + rounding)

    return ShiftPairResult(
        fplus=EvalResult(fplus_val, tail_bound, m_terms),
        fminus=fminus_val,
        identity_residual=residual,
        residual_allowance=allowance,
        shift=shift,
    )


def eval_two_sided(source, z: complex, tol: float = 1e-10) -> EvalResult:
    """Evaluate the inside series (|z| < 1) or the outside series (|z| > 1)
    of a two-sided window or two-sided sequence.

    Windows are zero-padded beyond their radius, so their sums are exact.
    A two-sided sequence sums its inside side at z, or its outside side at
    1/z from exponent 1.
    """
    z = complex(z)
    r = abs(z)
    if r == 1.0:
        raise AnalyticError("two-sided evaluation is undefined on |z| = 1")
    if isinstance(source, TwoSidedWindow):
        ext, W = window_extension(source), source.radius
        side, w, n, start = ((ext.inside, z, W + 1, 0) if r < 1.0
                             else (ext.outside, 1.0 / z, W, 1))
        return EvalResult(_sum_series_with_mass(side, 0, n, w, (start,))[0][0], 0.0, n)
    if not isinstance(source, TwoSidedSequence):
        raise AnalyticError(
            "source must be a TwoSidedWindow or TwoSidedSequence")
    if r < 1.0:
        return _eval_series(source.inside, z, r, tol)
    return _eval_series(source.outside, 1.0 / z, 1.0 / r, tol, offset=1)


# ---------------------------------------------------------------------------
# Boundary L1 scan


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit I(r) ~ intercept + slope * log(1/(1-r))."""

    slope: float
    intercept: float
    max_rel_residual: float


@dataclass
class BoundaryProbeReport:
    """Arc integrals of |f| at a ladder of radii with error bounds.

    ``integrals[i]`` approximates the mean of |f(r e^{i theta})| over the
    arc, normalized by 2*pi (so the full circle gives the plain angular
    average).  ``quad_errors`` come from Richardson comparison at half the
    node count, ``trunc_errors`` integrate the per-node truncation
    tolerance.  Radii whose truncation would exceed the term cap are
    flagged in ``skipped`` and carry NaN entries.
    """

    arc: ArcSpec
    radii: list
    integrals: list
    quad_errors: list
    trunc_errors: list
    skipped: list
    quad_points: int
    tol: float
    growth: GrowthFit | None = None
    notes: list = field(default_factory=list)

    def write_csv(self, dest) -> None:
        own = isinstance(dest, (str, bytes))
        f = open(dest, "w", newline="") if own else dest
        try:
            w = csv.writer(f)
            w.writerow(["r", "integral", "quad_err", "trunc_err"])
            for r, i, q, t in zip(self.radii, self.integrals,
                                  self.quad_errors, self.trunc_errors):
                w.writerow([fmt17(r), fmt17(i), fmt17(q), fmt17(t)])
        finally:
            if own:
                f.close()

    def to_json_dict(self) -> dict:
        def clean(xs):
            return [None if (isinstance(x, float) and math.isnan(x)) else x
                    for x in xs]

        return {
            "arc": self.arc.to_json_dict(),
            "radii": list(self.radii),
            "integrals": clean(self.integrals),
            "quad_errors": clean(self.quad_errors),
            "trunc_errors": clean(self.trunc_errors),
            "skipped": list(self.skipped),
            "quad_points": self.quad_points,
            "tol": self.tol,
            "growth_fit": None if self.growth is None else {
                "slope": self.growth.slope,
                "intercept": self.growth.intercept,
                "max_rel_residual": self.growth.max_rel_residual,
            },
            "notes": list(self.notes),
        }


def _fast_len(n: int) -> int:
    """Least 5-smooth integer >= n (n >= 1): a length numpy.fft does fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# The arc transform sums blocks of L = max(_BLOCK, nodes) coefficients, read
# one at a time; a call holds a batch of at most max(1, _GROUP // L) block
# rows plus the kernel row, and one block read.
_BLOCK = 1 << 15
_GROUP = 1 << 18

# 2*pi = _C1 + _C2 + _C3 (Cody and Waite), _C1 and _C2 of at most 23
# significant bits, so their products with integers below 2^30 are exact
_C1 = math.ldexp(math.floor(math.ldexp(2.0 * math.pi, 20)), -20)
_C2 = math.ldexp(math.floor(math.ldexp(2.0 * math.pi - _C1, 43)), -43)
_C3 = (2.0 * math.pi - _C1 - _C2) + 2.4492935982947064e-16   # + 2*pi - float(2*pi)


def _split(x):
    """(head, tail) with head + tail == x exactly and each part of at most
    26 significant bits, so its product with an integer below 2^27 is exact
    (Veltkamp's split; elementwise for arrays)."""
    c = 134217729.0 * x                  # 2^27 + 1
    head = c - (c - x)
    return head, x - head


def _mod_two_pi(x):
    """x minus the nearest whole multiple of 2*pi, within a few ulps of 2*pi
    for |x| < 2^32 (the multiple's first two parts are subtracted exactly)."""
    q = np.rint(x * (0.5 / math.pi))
    return ((x - q * _C1) - q * _C2) - q * _C3


# 2*pi to 256 bits (below it by less than 2^-253)
_TWO_PI = Fraction(0xc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74020bbea63b139b22,
                   2 ** 253)


def _reduce_angle(x):
    """x minus the nearest whole multiple of 2*pi, rounded once for |x| <
    2^60 (an arc's start has |x| < 2^55, as its width is below 2*pi); x
    itself on [-pi, pi]."""
    if abs(x) <= math.pi:
        return x
    x = Fraction(x)
    return float(x - round(x / _TWO_PI) * _TWO_PI)


def _phase(x, j):
    """j * x minus a whole multiple of 2*pi, for floats x and integers
    0 <= j < 2^27 with |j * x| < 2^32 (elementwise), within a few ulps of
    2*pi: no rounding error grows with j * x."""
    head, tail = _split(x)
    return _mod_two_pi(j * head) + j * tail


def _phase2(x, a, b):
    """a * b * x minus a whole multiple of 2*pi, as :func:`_phase`, for
    integers 0 <= a, b < 2^27 (a * x splits into two exact products)."""
    head, tail = _split(x)
    return _phase(head * a, b) + _phase(tail * a, b)


def _blocked_czt(read, n: int, r: float, phi0: float, step: float, m: int) -> np.ndarray:
    """sum_{k<n} a_k z_j^k at z_j = r e^{i(phi0 + j*step)}, j < m, where
    ``read(lo, hi)`` returns a_lo .. a_{hi-1} as a float64 or complex array.

    Bluestein's chirp z-transform, one block of L = max(_BLOCK, m)
    coefficients at a time (L = n when n <= L): f(z_j) = sum_b z_j^(bL)
    B_b(z_j), where B_b sums the b-th block.  With jl = (j^2 + l^2 -
    (j-l)^2)/2 each B_b(z_j) is a linear convolution of the block, times
    the pre-weight r^l e^{i(phi0*l + step*l^2/2)} that every block shares,
    with the conjugate chirp, done by FFT at a 5-smooth length >= L + m - 1;
    so chirp phases stay below (L + m)^2 * step / 2 whatever n is.  The
    blocks are combined by Horner's rule in z_j^L, highest first, as the
    reads go, so time is O(n log(L + m)) and memory does not grow with n.
    A call holds one buffer of at most max(1, _GROUP // L) block rows plus
    the kernel row, made once, and one block read: each block, top first, is
    read and weighted into its row, and a batch of live rows is
    transformed there in place (the first batch with the kernel); a block
    of zeros skips its transforms (they would be zero).  With one block
    this is exactly the whole-prefix transform.
    """
    if n == 0:
        return np.zeros(m, dtype=complex)
    length = min(n, max(_BLOCK, m))
    n_blocks = -(-n // length)
    half = step / 2.0
    k = np.arange(max(length, m), dtype=float)
    kl = k[:length]
    if n_blocks == 1:
        # the whole-prefix transform's phases, bit for bit
        chirp = np.exp(1j * half * k * k)
        pre_exponent = kl * math.log(r) + 1j * (phi0 * kl + half * kl * kl)
    else:
        # every block repeats these phases, so they are reduced mod 2*pi in
        # exact pieces: a rounding error shared by all blocks would add up
        # across them.  z_j^L comes from one phase L * (phi0 + j*step) per
        # node the same way, not from powers of z_j.
        square = _phase2(half, k, k)
        chirp = np.exp(1j * square)
        weights = np.exp(kl * math.log(r) + 1j * (_phase(phi0, kl) + square[:length]))
        del square
        j = np.arange(m, dtype=float)
        powers = np.exp(length * math.log(r)
                        + 1j * (_phase(phi0, length) + _phase2(step, length, j)))
    del k, kl
    size = _fast_len(length + m - 1)

    # rows [0, batch) take the live blocks of a group, filled from the
    # bottom up so that they end next to the kernel row, buf[batch]
    batch = min(max(1, _GROUP // length), n_blocks)
    buf = np.empty((batch + 1, size), dtype=complex)
    kernel = buf[batch]
    kernel[:m] = chirp[:m].conj()
    kernel[m:size - length + 1] = 0
    kernel[size - length + 1:] = chirp[length - 1:0:-1].conj()
    chirp = chirp[:m].copy()
    acc = None
    for first in range((n_blocks - 1) // batch * batch, -1, -batch):
        live, rows = [], 0
        for lo in reversed(range(first * length, min(n, (first + batch) * length), length)):
            block = read(lo, min(n, lo + length))      # the top block may be short
            live.append(bool(block.any()))
            if not live[-1]:
                continue
            rows += 1
            row = buf[batch - rows]
            if n_blocks == 1:
                # the whole-prefix transform's own product, bit for bit
                # (numpy's complex product is not bitwise commutative, and
                # numpy may evaluate a large `a * <temporary>` in place with
                # its operands swapped)
                row[:length] = block * np.exp(pre_exponent)
            else:
                np.multiply(block, weights[:len(block)], out=row[:len(block)])
            row[len(block):] = 0
        del block
        conv = buf[batch - rows:batch]
        # the first batch takes the kernel's transform along in one call
        forward = buf[batch - rows:] if acc is None else conv
        if len(forward):
            np.fft.fft(forward, axis=-1, out=forward)
        if rows:
            conv *= kernel
            np.fft.ifft(conv, axis=-1, out=conv)
        row = batch
        for alive in live:
            row -= alive
            if acc is None:
                # a copy: the next group overwrites the buffer
                acc = buf[row, :m].copy() if alive else np.zeros(m, dtype=complex)
            elif alive:
                acc = acc * powers + buf[row, :m]
            else:
                acc = acc * powers
    return acc * chirp


def _nodes_eval_sparse(exps, fill, r, arc: ArcSpec, m: int) -> np.ndarray:
    """Direct sparse summation: sum_e fill * (r e^{i theta_j})^e, each phase
    e * theta_j reduced exactly by :func:`_phase` (e < TERM_CAP < 2^27; the
    arc is moved whole turns to start in [-pi, pi], so |e * theta_j| < 2^32)."""
    h = arc.width / m
    theta = _reduce_angle(arc.alpha) + (np.arange(m) + 0.5) * h
    out = np.zeros(m, dtype=complex)
    logr = math.log(r)
    for lo in range(0, len(exps), 64):
        chunk = exps[lo:lo + 64].astype(float)
        radial = np.exp(chunk * logr)
        phase = np.exp(1j * _phase(theta[None, :], chunk[:, None]))
        out += (radial[:, None] * phase).sum(axis=0)
    return fill * out


# gap families above this term count skip array materialization entirely
_SPARSE_NODE_CUTOFF = 1 << 20


def _scan_one_radius(seq, arc, r, m, tol):
    n_terms, trunc = _truncation(seq, r, tol)
    weight = arc.width / (2.0 * math.pi)

    sparse = (_gap_support(seq, n_terms)
              if n_terms > _SPARSE_NODE_CUTOFF else None)
    if sparse is not None:
        vals_half = _nodes_eval_sparse(sparse[0], sparse[1], r, arc, m)
        vals_full = _nodes_eval_sparse(sparse[0], sparse[1], r, arc, 2 * m)
    else:
        # one transform on the quarter-step grid alpha + i*width/(4m) holds
        # the m-node midpoints at i = 2 mod 4 and the 2m-node ones at odd i;
        # alpha moved whole turns into [-pi, pi] keeps its phases small
        fine = _blocked_czt(seq._read, n_terms, r, _reduce_angle(arc.alpha),
                            arc.width / (4 * m), 4 * m)
        vals_half, vals_full = fine[2::4], fine[1::2]
    i_half = float(np.mean(np.abs(vals_half))) * weight
    i_full = float(np.mean(np.abs(vals_full))) * weight
    # Richardson difference plus a rounding allowance for the transform
    # (at converged radii the difference is pure float noise)
    fp_noise = 1e-12 * max(1.0, abs(i_full)) * math.log2(2 * m + n_terms + 4)
    quad_err = abs(i_full - i_half) + fp_noise
    trunc_err = trunc * weight
    return i_full, quad_err, trunc_err


def boundary_l1_scan(seq: OneSidedSequence, arc: ArcSpec, radii,
                     quad_points: int = 1024, tol: float = 1e-6) -> BoundaryProbeReport:
    """Scan the arc integral of |f| over an ascending ladder of radii.

    Midpoint quadrature at ``quad_points`` nodes (and at double resolution
    for the Richardson error estimate); per-node series truncation within
    ``tol``.  The growth fit regresses I(r) on log(1/(1-r)).  Raises
    NumericCapError, before allocating, when the 4 * ``quad_points`` nodes
    of the transform exceed TERM_CAP, and AnalyticError, before any
    transform, when the sequence's bound times the block length times the
    FFT length is not finite.
    """
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise AnalyticError("radii must be strictly ascending")
    if not radii:
        raise AnalyticError("need at least one radius")
    if not (0.0 < radii[0] and radii[-1] <= 1.0 - 1e-6):
        raise AnalyticError("radii must lie in (0, 1 - 1e-6]")
    try:
        quad_points = operator.index(quad_points)
    except TypeError:
        raise AnalyticError(f"quad_points must be an integer, got {quad_points!r}") from None
    if quad_points < 64:
        raise AnalyticError("need at least 64 quadrature nodes")
    # the transform evaluates 4 * quad_points nodes at once
    if 4 * quad_points > TERM_CAP:
        raise NumericCapError(4 * quad_points,
                              f"{quad_points} quadrature points need "
                              f"{4 * quad_points} nodes (cap {TERM_CAP})")
    # the transform's FFTs sum up to L coefficients of modulus at most the
    # bound, times a kernel of FFT length unit terms: a bound whose sums
    # could overflow is refused before any transform runs
    length = max(_BLOCK, 4 * quad_points)
    size = _fast_len(length + 4 * quad_points - 1)
    if not math.isfinite(seq.bound * length * size):
        raise AnalyticError(f"bound {seq.bound} times block length {length} times "
                            f"FFT length {size} overflows the arc transform")

    integrals, quad_errors, trunc_errors, skipped, notes = [], [], [], [], []
    for r in radii:
        try:
            row, skip = _scan_one_radius(seq, arc, r, quad_points, tol), False
        except NumericCapError:
            row, skip = (math.nan, math.nan, math.nan), True
            notes.append(f"radius {r} skipped: truncation exceeds term cap")
        integrals.append(row[0])
        quad_errors.append(row[1])
        trunc_errors.append(row[2])
        skipped.append(skip)

    growth = None
    kept = [(r, i) for r, i, s in zip(radii, integrals, skipped) if not s]
    if len(kept) >= 2:
        lx = np.array([math.log(1.0 / (1.0 - r)) for r, _ in kept])
        iy = np.array([i for _, i in kept])
        design = np.vstack([np.ones_like(lx), lx]).T
        coef, *_ = np.linalg.lstsq(design, iy, rcond=None)
        fit = design @ coef
        denom = np.where(np.abs(iy) > 0, np.abs(iy), 1.0)
        growth = GrowthFit(slope=float(coef[1]), intercept=float(coef[0]),
                           max_rel_residual=float(np.max(np.abs(fit - iy) / denom)))

    return BoundaryProbeReport(arc=arc, radii=radii, integrals=integrals,
                               quad_errors=quad_errors, trunc_errors=trunc_errors,
                               skipped=skipped, quad_points=quad_points, tol=tol,
                               growth=growth, notes=notes)


# ---------------------------------------------------------------------------
# Reflectionless checks


@dataclass(frozen=True)
class ReflectionlessCheckResult:
    passed: bool
    reason: str
    form: ratform.RationalForm
    max_confirmation_defect: float

    def to_json_dict(self):
        defect = self.max_confirmation_defect
        return {
            "passed": self.passed,
            "reason": self.reason,
            "rational_form": self.form.to_json_dict(),
            # nan (no confirmation ran) is null, as in the probe report
            "max_confirmation_defect": None if math.isnan(defect) else defect,
        }


def periodic_reflectionless_check(pattern, arc: ArcSpec, samples: int = 50,
                                  tol: float = 1e-10) -> ReflectionlessCheckResult:
    """Decide whether the periodic two-sided sequence is reflectionless on
    the arc.

    The inside series of a p-periodic sequence is P(z)/(1 - z^p); after
    cancelling shared roots of unity the check passes iff no surviving pole
    lies on the closed arc.  The algebra is then confirmed numerically: at
    ``samples`` points outside the disk near the arc, the reduced form must
    cancel the outside series within the truncation bound plus ``tol``.
    """
    pattern = [complex(v) for v in pattern]
    if not pattern:
        raise AnalyticError("pattern must be nonempty")
    try:
        form = ratform.reduce_eventually_periodic([], pattern)
    except ratform.RationalFormError as e:
        raise AnalyticError(f"pattern has no rational form: {e}") from None

    offending = [p for p in form.poles if arc.contains_angle(p.angle)]
    if offending:
        labels = ", ".join(p.label() for p in offending)
        return ReflectionlessCheckResult(
            False, f"surviving pole(s) on the closed arc: {labels}",
            form, math.nan)

    ext = periodic_extension(pattern)
    max_defect = 0.0
    # an overflowing sum comes out inf or nan, without a warning, and is
    # refused: a confirmation that cannot be computed confirms nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(samples):
            phi = arc.alpha + (i + 0.5) * arc.width / samples
            rho = 1.1 + 0.8 * (i / max(1, samples - 1))
            zz = rho * cmath.exp(1j * phi)
            outside = eval_two_sided(ext, zz, tol=1e-12)
            defect = abs(form.value(zz) + outside.value)
            if not (math.isfinite(defect) and math.isfinite(outside.abs_error_bound)):
                raise AnalyticError(f"outside-series confirmation at z = {zz!r} "
                                    f"overflows the float range")
            max_defect = max(max_defect, defect)
            if defect > outside.abs_error_bound + tol:
                return ReflectionlessCheckResult(
                    False,
                    f"outside-series confirmation failed at z = {zz!r}: "
                    f"defect {defect} exceeds allowance",
                    form, defect)

    return ReflectionlessCheckResult(True, "no surviving pole on the arc",
                                     form, max_defect)


@dataclass(frozen=True)
class DecayRuleResult:
    outcome: str                 # "not-reflectionless" | "consistent-with-zero"
    witness: int | None

    def to_json_dict(self):
        return {"outcome": self.outcome, "witness": self.witness}


def decay_rule_check(win: TwoSidedWindow, side: str, c: float, d: float,
                     delta: float) -> DecayRuleResult:
    """Decision rule for exponentially one-sided-decaying window values.

    A two-sided sequence that is reflectionless on some arc and decays
    exponentially on one side must vanish identically.  Contrapositively:
    once the claimed side verifies |b_n| <= c*e^(-d|n|), any window value
    of magnitude >= delta anywhere witnesses that the sequence cannot be
    reflectionless on any arc.
    """
    if side not in ("positive", "negative"):
        raise AnalyticError("side must be 'positive' or 'negative'")
    for name, value in (("decay constant c", c), ("decay constant d", d),
                        ("delta", delta)):
        if not (math.isfinite(value) and value > 0):
            raise AnalyticError(f"{name} must be finite and > 0, got {value}")
    W = win.radius
    ks = range(1, W + 1) if side == "positive" else range(-W, 0)
    violations = [k for k in ks
                  if abs(win.value(k)) > c * math.exp(-d * abs(k)) * (1 + 1e-9) + 1e-300]
    if violations:
        raise AnalyticError(
            f"decay hypothesis fails on the {side} side at offsets {violations}")
    for k in range(-W, W + 1):
        if abs(win.value(k)) >= delta:
            return DecayRuleResult("not-reflectionless", k)
    return DecayRuleResult("consistent-with-zero", None)
