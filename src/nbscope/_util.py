"""Small shared helpers: compensated sums, integer powers, number format."""

from __future__ import annotations


def kahan_complex_sum(terms):
    """Neumaier-compensated sum of an iterable of complex numbers.

    Real and imaginary parts carry separate compensation so that exact
    dyadic inputs stay exact.
    """
    sr = si = 0.0
    cr = ci = 0.0
    for v in terms:
        x, y = v.real, v.imag
        t = sr + x
        if abs(sr) >= abs(x):
            cr += (sr - t) + x
        else:
            cr += (x - t) + sr
        sr = t
        t = si + y
        if abs(si) >= abs(y):
            ci += (si - t) + y
        else:
            ci += (y - t) + si
        si = t
    return complex(sr + cr, si + ci)


def ipow(z: complex, k: int) -> complex:
    """z**k for integer k via repeated multiplication.

    Avoids the exp/log round trip of complex ``**`` so powers of exact
    dyadics (e.g. z = 1/2) come out exact.
    """
    if k < 0:
        return 1.0 / ipow(z, -k)
    result = complex(1.0, 0.0)
    base = complex(z)
    while k:
        if k & 1:
            result *= base
        base *= base
        k >>= 1
    return result


def fmt17(x: float) -> str:
    """Decimal with 17 significant digits (lossless double round trip)."""
    return f"{x:.17g}"
