"""The exact rational-form reduction in Python integers, checked against the
sympy reduction it replaced (sympy is a test-only oracle)."""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest

from nbscope import ratform
from nbscope.ratform import RationalForm, RootOfUnityPole

ALPHABET = (-1, 0, 1, 1j)


@functools.lru_cache(maxsize=None)
def _cyclotomic(d, dom):
    """The sympy Poly of the d-th cyclotomic polynomial over ``dom``."""
    import sympy

    z = sympy.Symbol("z")
    return sympy.Poly(sympy.cyclotomic_poly(d, z), z, domain=dom)


def reference_reduce_exact(num_coeffs, T, pp):
    """The sympy reduction that ratform._reduce_exact replaced.  Its Polys
    are built from coefficient lists and the cyclotomics are cached, which
    gives the same Polys as building them from expressions, faster."""
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
                poles.append(RootOfUnityPole(k, d))
    poles.sort(key=lambda p: (p.angle, p.den))
    num_tuple = (0j,) if npoly.is_zero else to_tuple(quotient)
    return RationalForm(num_tuple, to_tuple(den), tuple(poles), T, pp, True)


def _assert_same(head, block):
    head, block = [complex(v) for v in head], [complex(v) for v in block]
    num = np.array(ratform._combined_numerator(head, block), dtype=complex)
    got = ratform.reduce_eventually_periodic(head, block)
    want = reference_reduce_exact(num, len(block), len(head))
    assert got == want, (head, block)
    # signed zeros reach the JSON output, so the floats must match bit for bit
    assert repr(got.numerator) == repr(want.numerator), (head, block)
    assert repr(got.denominator) == repr(want.denominator), (head, block)


@pytest.mark.parametrize("head_len", [0, 1, 2])
def test_reduce_exact_matches_sympy_on_all_short_patterns(head_len):
    pytest.importorskip("sympy")
    heads = list(itertools.product(ALPHABET, repeat=head_len))
    for length in range(1, 5):
        for block in itertools.product(ALPHABET, repeat=length):
            for head in heads:
                _assert_same(head, block)


def test_reduce_exact_matches_sympy_on_seeded_long_patterns():
    pytest.importorskip("sympy")
    rng = np.random.default_rng(20261018)
    values = ALPHABET + (2, -3, 2 - 1j, -1j, 5j)
    for _ in range(300):
        block = [values[i] for i in rng.integers(0, len(values), int(rng.integers(5, 9)))]
        head = [values[i] for i in rng.integers(0, len(values), int(rng.integers(0, 4)))]
        _assert_same(head, block)


def test_reduce_exact_cancels_and_keeps_expected_factors():
    # 1 + z + z^2 repeating with period 3: f = -1/(z - 1), one pole at 1
    form = ratform.reduce_eventually_periodic([], [1, 1, 1])
    assert form.exact
    assert form.numerator == (-1 + 0j,)
    assert form.denominator == (-1 + 0j, 1 + 0j)
    assert form.poles == (RootOfUnityPole(0, 1),)


def test_cyclotomics_multiply_back_to_z_power_minus_one():
    for T in (1, 2, 6, 12, 30, 60, 105):
        cyc = ratform._cyclotomics(T)
        prod = [1]
        for poly in cyc.values():
            assert poly[-1] == 1
            prod = ratform._polymul(prod, poly)
        assert prod == [-1] + [0] * (T - 1) + [1]
    # Phi_105 is the first with a coefficient outside {-1, 0, 1}
    assert min(ratform._cyclotomics(105)[105]) == -2


BIG = 1.7e308


@pytest.mark.parametrize("head, block, named", [
    # head(z)*(1 - z^7) + z^5*block(z) adds -BIG to -BIG at z^10 and z^11
    ([1, BIG, BIG, BIG, BIG], [1, 1, 0, BIG, BIG, -BIG, -BIG],
     "coefficient 10 of the numerator head(z)*(1 - z^7) + z^5*block(z)"),
    # the numeric root test's scale, the sum of |coefficients|, is inf
    ([], [BIG, BIG, 0.5], "the sum of |numerator coefficients|"),
    # exact: -block(z) / (z - 1) = BIG*(z + 1)^2 has the coefficient 2*BIG
    ([], [-BIG, -BIG, BIG, BIG, 0], "a coefficient of the reduced numerator"),
], ids=["numerator", "numeric-scale", "exact-quotient"])
def test_forms_beyond_the_float_range_raise_naming_why(head, block, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ratform.RationalFormError) as e:
            ratform.reduce_eventually_periodic(head, block)
    assert str(e.value).startswith(named) and str(e.value).endswith("exceeds the float range")


def test_forms_near_the_float_range_that_fit_are_kept():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        form = ratform.reduce_eventually_periodic([], [BIG, -BIG, 0, 1, 1, 0, 0])
        assert form.exact and form.numerator[0] == -BIG
        form = ratform.reduce_eventually_periodic([BIG], [BIG, BIG])
        assert form.numerator == (-BIG + 0j,) and form.poles == (RootOfUnityPole(0, 1),)


def sympy_form(head, block):
    """(numerator, denominator, poles) of head(z) + z^pp*block(z)/(1 - z^T)
    for real integer values, cancelled in exact rationals by sympy, the
    denominator monic; poles are the roots of the denominator."""
    import sympy

    z = sympy.Symbol("z")
    T, pp = len(block), len(head)
    f = (sum(sympy.Integer(v) * z ** k for k, v in enumerate(head))
         + z ** pp * sum(sympy.Integer(v) * z ** k for k, v in enumerate(block))
         / (1 - z ** T))
    num, den = (sympy.Poly(p, z) for p in sympy.fraction(sympy.cancel(sympy.together(f))))
    lead = den.LC()
    num, den = num.quo_ground(lead), den.quo_ground(lead)
    poles = {complex(sympy.N(r, 30)) for r in sympy.Poly(den, z).all_roots()}
    as_floats = lambda p: tuple(complex(float(c)) for c in p.all_coeffs()[::-1])
    return as_floats(num), as_floats(den), poles


@pytest.mark.parametrize("head, block", [
    # float sums lost the 1: 2^60 - 2^60 z^2 + z^2 became 2^60
    ([2 ** 60], [0, 1]),
    ([2 ** 60, -(2 ** 62)], [1, 2 ** 55, -(2 ** 70 + 2 ** 18)]),
    ([], [2 ** 80, 2 ** 80 + 2 ** 28, 1]),
    ([3, 2 ** 64], [-(2 ** 64), 0, 0, 7]),
], ids=["2^60-then-0,1", "mixed", "period-3", "period-4"])
def test_exact_forms_of_integers_past_2_to_the_53(head, block):
    pytest.importorskip("sympy")
    form = ratform.reduce_eventually_periodic([float(v) for v in head],
                                              [float(v) for v in block])
    num, den, poles = sympy_form(head, block)
    assert form.exact
    assert form.numerator == num and form.denominator == den
    assert len(form.poles) == len(poles)
    for p in form.poles:
        assert min(abs(p.value - w) for w in poles) < 1e-12


def test_two_to_the_60_then_zero_one_has_poles_at_plus_and_minus_1():
    form = ratform.reduce_eventually_periodic([2.0 ** 60], [0, 1])
    assert form.poles == (RootOfUnityPole(0, 1), RootOfUnityPole(1, 2))
    assert form.denominator == (-1, 0, 1)
