"""Rational forms of eventually periodic series.

An eventually periodic coefficient stream sums to

    f(z) = head(z) + z^len(head) * block(z) / (1 - z^T),   T = len(block),

a rational function whose poles sit among the T-th roots of unity.  This
module reduces that representation: roots of unity where the combined
numerator vanishes are cancelled, the rest are reported as poles.

Gaussian-integer inputs are reduced exactly, in Python integers, over the
cyclotomic factorization of 1 - z^T; other inputs fall back to numeric
root matching with a 1e-9 tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RootOfUnityPole", "RationalForm", "RationalFormError",
           "reduce_eventually_periodic"]

_NUMERIC_POLE_TOL = 1e-9
# the least int that rounds to inf as a float (halfway past the float max)
_FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970


class RationalFormError(ValueError):
    """The reduced form has a coefficient beyond the floats: the input is
    finite, but a sum of its values overflows."""


@dataclass(frozen=True)
class RootOfUnityPole:
    """The pole e^(2*pi*i*num/den) in lowest terms."""

    num: int
    den: int

    @property
    def angle(self) -> float:
        return 2.0 * math.pi * self.num / self.den

    @property
    def value(self) -> complex:
        return cmath.exp(2j * math.pi * self.num / self.den)

    def label(self) -> str:
        return f"exp(2*pi*i*{self.num}/{self.den})"


@dataclass(frozen=True)
class RationalForm:
    """Reduced f = numerator/denominator with poles at roots of unity.

    Coefficient tuples are ascending in the exponent.  ``exact`` marks an
    exact cyclotomic reduction; otherwise cancellation was decided
    numerically.
    """

    numerator: tuple
    denominator: tuple
    poles: tuple
    period: int
    preperiod: int
    exact: bool

    def numerator_value(self, z: complex) -> complex:
        return sum(c * z ** k for k, c in enumerate(self.numerator))

    def denominator_value(self, z: complex) -> complex:
        return sum(c * z ** k for k, c in enumerate(self.denominator))

    def value(self, z: complex) -> complex:
        return self.numerator_value(z) / self.denominator_value(z)

    def to_json_dict(self) -> dict:
        return {
            "numerator": [[c.real, c.imag] for c in self.numerator],
            "denominator": [[c.real, c.imag] for c in self.denominator],
            "poles": [{"num": p.num, "den": p.den, "angle": p.angle}
                      for p in self.poles],
            "period": self.period,
            "preperiod": self.preperiod,
            "exact": self.exact,
        }


def _is_gaussian_integer(v: complex) -> bool:
    return float(v.real).is_integer() and float(v.imag).is_integer()


def _combined_numerator(head, block):
    """Coefficients of head(z)*(1 - z^T) + z^len(head)*block(z), ascending,
    summed in the values' own type (exact for Python ints)."""
    T, pp = len(block), len(head)
    out = [0] * (pp + T)
    for k, c in enumerate(head):
        out[k] += c
        out[k + T] -= c
    for k, c in enumerate(block):
        out[pp + k] += c
    return out


def _trim(coeffs):
    arr = np.asarray(coeffs, dtype=complex)
    nz = np.nonzero(np.abs(arr) > 0)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return arr[: nz[-1] + 1]


def _numerator_overflow(k, T, pp):
    return RationalFormError(
        f"coefficient {k} of the numerator head(z)*(1 - z^{T}) + "
        f"z^{pp}*block(z) exceeds the float range")


def _divmod_monic(num, den):
    """(quotient, remainder) of integer polynomials, coefficient lists
    ascending in the exponent; ``den`` is monic."""
    deg = len(den) - 1
    rem = list(num)
    quot = [0] * max(0, len(rem) - deg)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + deg]
        if c:
            quot[i] = c
            for j in range(deg + 1):
                rem[i + j] -= c * den[j]
    return quot, rem[:deg]


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _cyclotomics(T):
    """{d: Phi_d} for the divisors d of T, from z^d - 1 = prod_{e | d} Phi_e
    by exact monic long division."""
    cyc = {}
    for d in (d for d in range(1, T + 1) if T % d == 0):
        poly = [-1] + [0] * (d - 1) + [1]
        for e in cyc:
            if d % e == 0:
                poly, _ = _divmod_monic(poly, cyc[e])
        cyc[d] = poly
    return cyc


def _reduce_exact(re_part, im_part, T, pp):
    """Exact reduction of a Gaussian-integer numerator, given as its real
    and imaginary int coefficients, over the cyclotomic factors of
    1 - z^T, in Python ints.  Phi_d has integer coefficients and is monic,
    so a Gaussian numerator divides exactly iff its real and imaginary
    parts both do."""
    re_part, im_part = list(re_part), list(im_part)
    while len(re_part) > 1 and not (re_part[-1] or im_part[-1]):
        re_part.pop()
        im_part.pop()
    is_zero = not any(re_part) and not any(im_part)
    cyc = _cyclotomics(T)

    survivors = []
    # 1 - z^T = -(z^T - 1) = -(product of cyclotomics)
    quotient = ([-c for c in re_part], [-c for c in im_part])
    for d, phi in ({} if is_zero else cyc).items():
        q_re, r_re = _divmod_monic(quotient[0], phi)
        q_im, r_im = _divmod_monic(quotient[1], phi)
        if any(r_re) or any(r_im):
            survivors.append(d)
        else:
            quotient = (q_re, q_im)

    den = [1]
    for d in survivors:
        den = _polymul(den, cyc[d])

    poles = [RootOfUnityPole(k, d) for d in survivors for k in range(d)
             if math.gcd(k, d) == 1]
    poles.sort(key=lambda p: (p.angle, p.den))
    try:
        num_tuple = ((0j,) if is_zero else
                     tuple(complex(float(a), float(b)) for a, b in zip(*quotient)))
    except OverflowError:
        raise RationalFormError("a coefficient of the reduced numerator "
                                "exceeds the float range") from None
    den_tuple = tuple(complex(float(a), 0.0) for a in den)
    return RationalForm(num_tuple, den_tuple, tuple(poles), T, pp, True)


def _synthetic_div(coeffs, root):
    """Divide an ascending-coefficient polynomial by (z - root)."""
    desc = coeffs[::-1]
    out = np.zeros(len(desc) - 1, dtype=complex)
    acc = 0j
    for i, c in enumerate(desc[:-1]):
        acc = c + acc * root
        out[i] = acc
    return out[::-1]


def _reduce_numeric(num_coeffs, T, pp):
    num = _trim(num_coeffs)
    with np.errstate(over="ignore"):
        scale = max(1.0, float(np.sum(np.abs(num))))
    if math.isinf(scale):
        # the root test compares with a multiple of the scale
        raise RationalFormError("the sum of |numerator coefficients| "
                                "exceeds the float range")
    roots = [cmath.exp(2j * math.pi * k / T) for k in range(T)]
    surviving, cancelled = [], []
    for k, w in enumerate(roots):
        val = sum(c * w ** j for j, c in enumerate(num))
        (cancelled if abs(val) <= _NUMERIC_POLE_TOL * scale else surviving).append(k)

    red = -num
    for k in cancelled:
        if len(red) > 1:
            red = _synthetic_div(red, roots[k])
    den = np.ones(1, dtype=complex)
    for k in surviving:
        den = np.convolve(den, np.array([-roots[k], 1.0]))
    # k / T in lowest terms (gcd(0, T) = T gives 0 / 1)
    poles = [RootOfUnityPole(k // math.gcd(k, T), T // math.gcd(k, T)) for k in surviving]
    poles.sort(key=lambda p: (p.angle, p.den))
    return RationalForm(tuple(complex(c) for c in red),
                        tuple(complex(c) for c in den),
                        tuple(poles), T, pp, False)


def reduce_eventually_periodic(head, block) -> RationalForm:
    """Reduced rational form of the series with preperiodic ``head`` and
    repeating ``block``.  Raises RationalFormError where a coefficient of
    the form would exceed the float range."""
    head = [complex(v) for v in head]
    block = [complex(v) for v in block]
    if not block:
        raise ValueError("period block must be nonempty")
    T, pp = len(block), len(head)
    if all(_is_gaussian_integer(c) for c in head + block):
        # summed in ints: float sums of integers past 2^53 round
        re_part = _combined_numerator([int(c.real) for c in head],
                                      [int(c.real) for c in block])
        im_part = _combined_numerator([int(c.imag) for c in head],
                                      [int(c.imag) for c in block])
        for k, (a, b) in enumerate(zip(re_part, im_part)):
            if max(abs(a), abs(b)) >= _FLOAT_OVERFLOW:
                raise _numerator_overflow(k, T, pp)
        return _reduce_exact(re_part, im_part, T, pp)
    num = np.array(_combined_numerator(head, block), dtype=complex)
    if not np.isfinite(num).all():
        raise _numerator_overflow(int(np.flatnonzero(~np.isfinite(num))[0]), T, pp)
    return _reduce_numeric(num, T, pp)
