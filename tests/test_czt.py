"""The numpy chirp z-transform behind the arc scan, against scipy's czt
(a test-only oracle) and against extended-precision Horner sums."""

import cmath
import math

import numpy as np
import pytest

import nbscope as nb
from nbscope.analytic import ArcSpec, _czt, _fast_len, boundary_l1_scan, truncation_length

def horner_clongdouble(coeffs, r, phi0, step, m):
    """sum_k coeffs[k] z_j^k by Horner's rule in np.clongdouble."""
    j = np.arange(m, dtype=np.longdouble)
    theta = np.longdouble(phi0) + j * np.longdouble(step)
    z = np.longdouble(r) * (np.cos(theta) + 1j * np.sin(theta)).astype(np.clongdouble)
    acc = np.zeros(m, dtype=np.clongdouble)
    for c in np.asarray(coeffs, dtype=np.clongdouble)[::-1]:
        acc = acc * z + c
    return acc


def _mass(coeffs, r):
    """sum |c_k| r^k: the scale of the rounding error of any evaluation."""
    return float(np.sum(np.abs(coeffs) * r ** np.arange(len(coeffs))))


def _seeded_case(rng, n):
    coeffs = rng.choice([-1.0, 1.0], n) + 1j * rng.uniform(-1, 1, n)
    # r with r^n no smaller than about 1e-6, as truncation at tol leaves it
    r = float(min(0.9999, math.exp(math.log(1e-6) / max(n, 1)) * rng.uniform(0.9995, 1.0)))
    phi0 = float(rng.uniform(-math.pi, 2 * math.pi))
    step = float(rng.uniform(0.05, 2 * math.pi) / 4096)
    return coeffs, r, phi0, step


def test_fast_len_is_least_5_smooth():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    for n in list(range(1, 2001)) + [10 ** 5 + 1, 230_000 + 4095, 2 ** 20 + 1]:
        want = n
        while not smooth(want):
            want += 1
        assert _fast_len(n) == want, n


@pytest.mark.parametrize("n, m", [(0, 64), (1, 64), (63, 64), (2000, 256),
                                  (20000, 128), (230_000, 32)])
def test_czt_matches_extended_precision_horner(n, m):
    rng = np.random.default_rng(1000 + n)
    coeffs, r, phi0, step = _seeded_case(rng, n)
    got = _czt(coeffs, r, phi0, step, m)
    assert got.shape == (m,)
    if n == 0:
        assert not np.any(got)
        return
    want = horner_clongdouble(coeffs, r, phi0, step, m)
    assert float(np.max(np.abs(got - want))) <= 1e-13 * _mass(coeffs, r)


@pytest.mark.parametrize("n, m", [(1, 64), (5, 4096), (300, 64), (4096, 1024),
                                  (30000, 4096)])
def test_czt_matches_scipy(n, m):
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(n * 7 + m)
    coeffs, r, phi0, step = _seeded_case(rng, n)
    got = _czt(coeffs, r, phi0, step, m)
    want = signal.czt(coeffs, m=m, w=cmath.exp(1j * step),
                      a=(1.0 / r) * cmath.exp(-1j * phi0))
    # scipy forms its chirp as complex powers w**(k**2/2), whose error grows
    # with the transform length and exceeds ours (see the Horner test)
    assert float(np.max(np.abs(got - want))) <= 4e-16 * (n + m) * _mass(coeffs, r)


@pytest.mark.parametrize("alpha, beta, m", [(0.0, 2 * math.pi, 64),
                                            (-0.4, 1.1, 100), (2.0, 5.9, 1024)])
def test_quarter_grid_holds_both_richardson_levels(alpha, beta, m):
    rng = np.random.default_rng(m)
    coeffs = rng.uniform(-1, 1, 3000).astype(complex)
    r = 0.998
    arc = ArcSpec(alpha, beta) if beta - alpha < 2 * math.pi else ArcSpec.full_circle()
    fine = _czt(coeffs, r, arc.alpha, arc.width / (4 * m), 4 * m)
    # separate transforms at the m and 2m midpoints alpha + (j + 1/2) * h
    half, full = (_czt(coeffs, r, arc.alpha + h / 2, h, nodes)
                  for nodes, h in ((m, arc.width / m), (2 * m, arc.width / (2 * m))))
    scale = _mass(coeffs, r)
    assert float(np.max(np.abs(fine[2::4] - half))) <= 1e-12 * scale
    assert float(np.max(np.abs(fine[1::2] - full))) <= 1e-12 * scale



def test_scan_reports_both_richardson_levels():
    # few nodes close to the circle, so the two levels differ visibly
    seq = nb.make_sequence(nb.rudin_shapiro())
    arc, r, m, tol = ArcSpec(0.3, 2.1), 0.999, 64, 1e-6
    rep = boundary_l1_scan(seq, arc, [r], quad_points=m, tol=tol)
    coeffs = seq.prefix(truncation_length(seq.bound, r, tol))
    weight = arc.width / (2 * math.pi)
    levels = []
    for nodes in (m, 2 * m):
        h = arc.width / nodes
        vals = _czt(coeffs, r, arc.alpha + h / 2, h, nodes)
        levels.append(float(np.mean(np.abs(vals))) * weight)
    assert abs(levels[1] - levels[0]) > 1e-3 * levels[1]
    assert rep.integrals[0] == pytest.approx(levels[1], rel=1e-12)
    assert rep.quad_errors[0] == pytest.approx(abs(levels[1] - levels[0]), rel=1e-6)
