"""The blocked chirp z-transform behind the arc scan, against the
whole-prefix transform it replaced, scipy's czt (a test-only oracle) and
extended-precision Horner sums."""

import cmath
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

import nbscope as nb
from nbscope import analytic
from nbscope.analytic import ArcSpec, _blocked_czt, _fast_len, boundary_l1_scan, truncation_length


# The whole-prefix transform the arc scan used before it read blocks, kept
# verbatim as the oracle of the blocked one.
def _czt(coeffs: np.ndarray, r: float, phi0: float, step: float, m: int) -> np.ndarray:
    """sum_k coeffs[k] z_j^k at z_j = r e^{i(phi0 + j*step)}, j < m.

    Bluestein's chirp z-transform: with jk = (j^2 + k^2 - (j-k)^2)/2 the
    sums become one linear convolution of the chirp-weighted coefficients
    with the conjugate chirp, done by FFT at a 5-smooth length, in
    O((N+M) log(N+M)) time.  Every phase is formed from float k directly
    (no repeated complex powers), so rounding does not compound with k.
    """
    n = len(coeffs)
    if n == 0:
        return np.zeros(m, dtype=complex)
    half = step / 2.0
    k = np.arange(max(n, m), dtype=float)
    chirp = np.exp(1j * half * k * k)
    kn = k[:n]
    weighted = coeffs * np.exp(kn * math.log(r) + 1j * (phi0 * kn + half * kn * kn))
    size = _fast_len(n + m - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()
    conv = np.fft.ifft(np.fft.fft(weighted, size) * np.fft.fft(kernel))
    return conv[:m] * chirp[:m]


def _czt_blocks(coeffs, r, phi0, step, m):
    """The blocked transform over an array of coefficients."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return _blocked_czt(lambda lo, hi: coeffs[lo:hi], len(coeffs), r, phi0, step, m)


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
    got = _czt_blocks(coeffs, r, phi0, step, m)
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
    got = _czt_blocks(coeffs, r, phi0, step, m)
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
    fine = _czt_blocks(coeffs, r, arc.alpha, arc.width / (4 * m), 4 * m)
    # separate transforms at the m and 2m midpoints alpha + (j + 1/2) * h
    half, full = (_czt_blocks(coeffs, r, arc.alpha + h / 2, h, nodes)
                  for nodes, h in ((m, arc.width / m), (2 * m, arc.width / (2 * m))))
    scale = _mass(coeffs, r)
    assert float(np.max(np.abs(fine[2::4] - half))) <= 1e-12 * scale
    assert float(np.max(np.abs(fine[1::2] - full))) <= 1e-12 * scale



def test_scan_reports_both_richardson_levels():
    # few nodes close to the circle, so the two levels differ visibly
    seq = nb.make_sequence(nb.rudin_shapiro())
    arc, r, m, tol = ArcSpec(0.3, 2.1), 0.999, 64, 1e-6
    rep = boundary_l1_scan(seq, arc, [r], quad_points=m, tol=tol)
    n = truncation_length(seq.bound, r, tol)
    weight = arc.width / (2 * math.pi)
    levels = []
    for nodes in (m, 2 * m):
        h = arc.width / nodes
        vals = _blocked_czt(seq.read, n, r, arc.alpha + h / 2, h, nodes)
        levels.append(float(np.mean(np.abs(vals))) * weight)
    assert abs(levels[1] - levels[0]) > 1e-3 * levels[1]
    assert rep.integrals[0] == pytest.approx(levels[1], rel=1e-12)
    assert rep.quad_errors[0] == pytest.approx(abs(levels[1] - levels[0]), rel=1e-6)


@pytest.mark.parametrize("n, m, kind", [
    (1, 64, "complex"), (63, 64, "real"), (2000, 256, "complex"),
    # past numpy's in-place evaluation of large temporaries
    (20000, 4096, "complex"), (20000, 4096, "real"),
    (analytic._BLOCK, 4096, "complex"), (5, 4096, "complex"), (300, 64, "zeros"),
])
def test_one_block_is_the_whole_prefix_transform_bit_for_bit(n, m, kind):
    rng = np.random.default_rng(n + m)
    coeffs, r, phi0, step = _seeded_case(rng, n)
    if kind == "real":
        coeffs = coeffs.real.astype(complex)
    elif kind == "zeros":
        coeffs = np.zeros(n, dtype=complex)
    assert n <= max(analytic._BLOCK, m)
    assert np.array_equal(_czt_blocks(coeffs, r, phi0, step, m),
                          _czt(coeffs, r, phi0, step, m))


def test_scan_radii_within_one_block_are_unchanged(monkeypatch):
    # the ladder's radii below the top need at most _BLOCK terms, the top
    # one (0.9999) eight blocks
    seq = nb.make_sequence(nb.rudin_shapiro())
    arc, radii = ArcSpec(0.3, 1.7), [0.9, 0.99, 0.995, 0.999, 0.9999]
    rep = boundary_l1_scan(seq, arc, radii, quad_points=256)
    monkeypatch.setattr(analytic, "_blocked_czt",
                        lambda read, n, r, phi0, step, m: _czt(read(0, n), r, phi0, step, m))
    old = boundary_l1_scan(seq, arc, radii, quad_points=256)
    within = [truncation_length(seq.bound, r, rep.tol) <= analytic._BLOCK for r in radii]
    assert within == [True] * 4 + [False]
    for i, one_block in enumerate(within):
        if one_block:
            assert (rep.integrals[i], rep.quad_errors[i]) == (old.integrals[i], old.quad_errors[i])
        else:
            assert rep.integrals[i] == pytest.approx(old.integrals[i], rel=1e-12)


@pytest.mark.parametrize("block, group, m", [
    (1, 1, 1), (1, 5, 1), (7, 7, 5), (7, 30, 5), (7, 30, 64),
    (64, 64, 16), (64, 1000, 16), (64, 200, 100),
])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_small_blocks_match_extended_precision_horner(monkeypatch, block, group, m, kind):
    monkeypatch.setattr(analytic, "_BLOCK", block)
    monkeypatch.setattr(analytic, "_GROUP", group)
    n = 1003                    # a multiple of none of the block lengths
    length = max(block, m)
    rng = np.random.default_rng(block * 1000 + group + m)
    coeffs, r, phi0, step = _seeded_case(rng, n)
    if kind == "real":
        coeffs = coeffs.real.astype(complex)
    # two whole blocks of zeros (whole groups when a group is one block),
    # and a top block of zeros, where the Horner sum starts
    coeffs[length:3 * length] = 0
    coeffs[(n - 1) // length * length:] = 0
    assert n // length >= 4 and (n % length or length == 1)
    got = _czt_blocks(coeffs, r, phi0, step, m)
    want = horner_clongdouble(coeffs, r, phi0, step, m)
    assert float(np.max(np.abs(got - want))) <= 1e-13 * _mass(coeffs, r)


@pytest.mark.parametrize("pattern, alpha, width", [
    ([1, -1, 1, 1j, -1, -1, 1], 0.3, 1.4), ([1, 1, -1], -2.9, 0.7),
])
def test_nodes_at_radius_0_99999_match_the_closed_form_periodic_sum(pattern, alpha, width):
    # 2.5 million terms, 78 blocks: the whole-prefix transform formed chirp
    # phases of about 1e9 rad here and missed by about 2e-11 * mass.  The
    # blocked one measures about 3e-17 * mass; phases phi0*l or z_j^L formed
    # without the exact reduction measure 1e-14 to 2e-13 * mass, so the
    # bound is 1e-15 * mass, well inside the 1e-13 * mass of the other tests
    seq = nb.make_sequence(nb.periodic(pattern))
    r, m = 0.99999, 4096
    n = truncation_length(seq.bound, r, 1e-6)
    assert n == 2_532_831
    got = _blocked_czt(seq.read, n, r, alpha, width / m, m)

    theta = np.longdouble(alpha) + np.arange(m, dtype=np.longdouble) * np.longdouble(width / m)
    z = np.longdouble(r) * (np.cos(theta) + 1j * np.sin(theta)).astype(np.clongdouble)
    p = len(pattern)
    q, rest = divmod(n, p)

    def poly(cs):
        acc = np.zeros(m, dtype=np.clongdouble)
        for c in cs[::-1]:
            acc = acc * z + c
        return acc

    zqp = np.exp(np.longdouble(q * p) * (np.log(np.longdouble(r)) + 1j * theta))
    want = poly(pattern) * (1 - zqp) / (1 - z ** p) + zqp * poly(pattern[:rest])
    mass = (1 - r ** n) / (1 - r)
    assert float(np.max(np.abs(got - want))) <= 1e-15 * mass


def test_phase_reduction_matches_exact_arithmetic():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-7, 7, 200), rng.uniform(0, 1e-3, 200)])
    j = rng.integers(0, 2 ** 27, 400).astype(float)
    j[:4] = [0, 1, 2 ** 27 - 1, 12345]
    a, b = j % 4096, j % 8191
    assert np.all(np.abs(j * x) < 2 ** 32)
    got = analytic._phase(x, j)
    got2 = analytic._phase2(x * 1e-4, a, b)
    with mpmath.workprec(200):
        two_pi = 2 * mpmath.pi
        for exact, val in [(mpmath.mpf(xi) * int(ji), g) for xi, ji, g in zip(x, j, got)] + \
                [(mpmath.mpf(xi * 1e-4) * int(ai) * int(bi), g)
                 for xi, ai, bi, g in zip(x, a, b, got2)]:
            off = exact - mpmath.mpf(float(val))
            assert abs(off - two_pi * mpmath.nint(off / two_pi)) <= 1e-15


# The blocked transform before it worked in place (it padded a short top
# block with np.concatenate, copied out the live blocks and took complex
# reads only), kept verbatim but for module-qualified names, as the oracle
# of the in-place one.
def _old_blocked_czt(read, n: int, r: float, phi0: float, step: float, m: int) -> np.ndarray:
    """sum_{k<n} a_k z_j^k at z_j = r e^{i(phi0 + j*step)}, j < m, where
    ``read(lo, hi)`` returns a_lo .. a_{hi-1}.

    Bluestein's chirp z-transform, one block of L = max(_BLOCK, m)
    coefficients at a time (L = n when n <= L): f(z_j) = sum_b z_j^(bL)
    B_b(z_j), where B_b sums the b-th block.  With jl = (j^2 + l^2 -
    (j-l)^2)/2 each B_b(z_j) is a linear convolution of the block, times
    the pre-weight r^l e^{i(phi0*l + step*l^2/2)} that every block shares,
    with the conjugate chirp, done by FFT at a 5-smooth length >= L + m - 1;
    so chirp phases stay below (L + m)^2 * step / 2 whatever n is.  The
    blocks are combined by Horner's rule in z_j^L, highest first, as the
    reads go: a group of at most _GROUP coefficients at a time, from the
    top, so time is O(n log(L + m)) and memory does not grow with n.  A
    block of zeros skips its transforms (they would be zero).  With one
    block this is exactly the whole-prefix transform.
    """
    if n == 0:
        return np.zeros(m, dtype=complex)
    length = min(n, max(analytic._BLOCK, m))
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
        square = analytic._phase2(half, k, k)
        chirp = np.exp(1j * square)
        weights = np.exp(kl * math.log(r) + 1j * (analytic._phase(phi0, kl) + square[:length]))
        j = np.arange(m, dtype=float)
        powers = np.exp(length * math.log(r)
                        + 1j * (analytic._phase(phi0, length)
                                + analytic._phase2(step, length, j)))
    size = _fast_len(length + m - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - length + 1:] = chirp[length - 1:0:-1].conj()
    kernel = np.fft.fft(kernel)

    per_group = max(1, analytic._GROUP // length)
    acc = None
    for first in range((n_blocks - 1) // per_group * per_group, -1, -per_group):
        lo = first * length
        hi = min(n, lo + per_group * length)
        count = -(-(hi - lo) // length)
        coeffs = read(lo, hi)
        if count * length > hi - lo:            # the top block is short
            coeffs = np.concatenate(
                (coeffs, np.zeros(count * length - (hi - lo), dtype=complex)))
        blocks = coeffs.reshape(count, length)
        live = blocks.any(axis=1)
        rows = iter(())
        if live.any():
            if n_blocks == 1:
                # the whole-prefix transform's own product, bit for bit
                # (numpy's complex product is not bitwise commutative, and
                # numpy may evaluate a large `a * <temporary>` in place with
                # its operands swapped)
                weighted = blocks[0] * np.exp(pre_exponent)
            else:
                weighted = (blocks if live.all() else blocks[live]) * weights
            conv = np.fft.ifft(np.fft.fft(weighted, size, axis=-1) * kernel, axis=-1)
            rows = iter(conv[..., :m].reshape(-1, m)[::-1])
        for alive in live[::-1].tolist():
            if acc is None:
                acc = next(rows) if alive else np.zeros(m, dtype=complex)
            elif alive:
                acc = acc * powers + next(rows)
            else:
                acc = acc * powers
    return acc * chirp[:m]



def _planted(rng, n, length, kind):
    """n seeded coefficients (float64 when real) with blocks of zeros: the
    second and third whole blocks, and the top block, which may be short."""
    coeffs = rng.choice([-1.0, 1.0], n)
    if kind == "complex":
        coeffs = coeffs + 1j * rng.uniform(-1, 1, n)
    coeffs[length:3 * length] = 0
    coeffs[(n - 1) // length * length:] = 0
    return coeffs


def _assert_same_bits_as_the_oracle(coeffs, r, phi0, step, m):
    """The in-place transform of ``coeffs`` read in their own layout and of
    their complex copy, against the oracle on the complex copy, bit for bit."""
    n, copy = len(coeffs), coeffs.astype(complex)
    want = _old_blocked_czt(lambda lo, hi: copy[lo:hi].copy(), n, r, phi0, step, m)
    for src in (coeffs, copy):
        got = _blocked_czt(lambda lo, hi: src[lo:hi].copy(), n, r, phi0, step, m)
        assert got.dtype == complex and got.shape == (m,)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, planted", [
    (0, False), (300, False), (5000, False), (analytic._BLOCK, False),
    (analytic._BLOCK + 1, False), (230_247, False), (230_247, True),
    # 19 blocks in three groups, so the buffer is reused
    (600_000, False), (600_000, True),
])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_in_place_transform_matches_the_copying_one_bit_for_bit(n, planted, kind):
    m = 4096
    rng = np.random.default_rng(n + planted)
    coeffs, r, phi0, step = _seeded_case(rng, n)
    if planted:
        coeffs = _planted(rng, n, max(analytic._BLOCK, m), kind)
    elif kind == "real":
        coeffs = coeffs.real.copy()
    assert coeffs.dtype == (float if kind == "real" else complex)
    _assert_same_bits_as_the_oracle(coeffs, r, phi0, step, m)
    if n == 300:
        _assert_same_bits_as_the_oracle(np.zeros(n, dtype=coeffs.dtype), r, phi0, step, m)


@pytest.mark.parametrize("block, group", [
    (1, 1), (1, 7), (1, 64), (7, 7), (7, 64), (64, 7), (64, 64),
])
@pytest.mark.parametrize("m", [1, 5, 16, 100])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_in_place_transform_with_small_blocks_matches_bit_for_bit(monkeypatch, block, group,
                                                                  m, kind):
    monkeypatch.setattr(analytic, "_BLOCK", block)
    monkeypatch.setattr(analytic, "_GROUP", group)
    n = 1003                    # a multiple of none of the block lengths
    rng = np.random.default_rng(block * 1000 + group + m)
    _, r, phi0, step = _seeded_case(rng, n)
    for planted in (False, True):
        coeffs = _planted(rng, n, max(block, m), kind)
        if not planted:
            coeffs = coeffs + (1.0 if kind == "real" else 1j)
        _assert_same_bits_as_the_oracle(coeffs, r, phi0, step, m)


def _dead_blocks(coeffs, length, dead):
    for b in dead:
        coeffs[b * length:(b + 1) * length] = 0
    return coeffs


# 12 blocks of max(8, m) in batches of 4 (_GROUP 32): three groups, so the
# first group's transformed kernel is reused by two more, and a top block
# of 3 coefficients
@pytest.mark.parametrize("dead", [
    (), (8, 10),                    # dead blocks between the top group's live ones
    (11,), (8, 9, 10, 11),          # a dead top block; a wholly dead top group
    (0, 1, 2, 3, 4, 5, 6, 7, 9),    # one live row in each of the top two groups
])
@pytest.mark.parametrize("m", [5, 12])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_batches_with_dead_blocks_match_bit_for_bit(monkeypatch, dead, m, kind):
    monkeypatch.setattr(analytic, "_BLOCK", 8)
    monkeypatch.setattr(analytic, "_GROUP", 32)
    length = max(8, m)
    n = 11 * length + 3
    rng = np.random.default_rng(m + len(dead))
    coeffs, r, phi0, step = _seeded_case(rng, n)
    if kind == "real":
        coeffs = coeffs.real.copy()
    _assert_same_bits_as_the_oracle(_dead_blocks(coeffs, length, dead), r, phi0, step, m)


@pytest.mark.parametrize("n, block, group, m", [
    (1003, 7, 64, 5), (1003, 64, 7, 100), (99, 8, 32, 5), (96, 8, 32, 5), (5, 8, 32, 3),
])
def test_each_block_is_read_once_top_first(monkeypatch, n, block, group, m):
    monkeypatch.setattr(analytic, "_BLOCK", block)
    monkeypatch.setattr(analytic, "_GROUP", group)
    length = min(n, max(block, m))
    coeffs = _dead_blocks(np.random.default_rng(n).uniform(-1, 1, n), length, (1,))
    log = []

    def read(lo, hi):
        log.append((lo, hi))
        return coeffs[lo:hi].copy()

    _blocked_czt(read, n, 0.99, 0.3, 0.01, m)
    assert log == [(lo, min(n, lo + length)) for lo in reversed(range(0, n, length))]


def test_top_rung_working_set_is_one_batch_and_a_little():
    # 230 247 terms in 8 blocks of 2^15: the 9-row buffer of 36 864 values
    # (5.06 MB) plus the weights, the node powers, the chirp and one block
    # read; holding the group read, a separate kernel and the full chirp
    # as well traced about 11 MB
    seq = nb.make_sequence(nb.rudin_shapiro())
    r, m = 0.9999, 4096
    n = truncation_length(seq.bound, r, 1e-6)
    assert n == 230_247 and _fast_len(analytic._BLOCK + m - 1) == 36_864
    tracemalloc.start()
    try:
        _blocked_czt(seq._read, n, r, 0.3, 1.4 / m, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9 * 36_864 * 16 + 2.5 * 2 ** 20


def test_scan_top_rung_reads_the_own_layout_bit_for_bit():
    # the probe bench's top rung: 230 247 Rudin-Shapiro terms, 8 blocks, read
    # as float64 by the scan and as complex by the oracle
    seq = nb.make_sequence(nb.rudin_shapiro())
    r, m = 0.9999, 4096
    n = truncation_length(seq.bound, r, 1e-6)
    assert n == 230_247 and seq._read(0, 8).dtype == float
    want = _old_blocked_czt(seq.read, n, r, 0.3, 1.4 / m, m)
    assert _blocked_czt(seq._read, n, r, 0.3, 1.4 / m, m).tobytes() == want.tobytes()
    assert _blocked_czt(seq.read, n, r, 0.3, 1.4 / m, m).tobytes() == want.tobytes()


def _overflow_edge(quad_points):
    """(largest bound the scan takes, least bound it refuses) at ``quad_points``:
    where bound * block length * FFT length stops being finite."""
    m = 4 * quad_points
    length = max(analytic._BLOCK, m)
    size = _fast_len(length + m - 1)
    inside = sys.float_info.max / length / size
    while not math.isfinite(inside * length * size):
        inside = math.nextafter(inside, 0.0)
    past = math.nextafter(inside, math.inf)
    while math.isfinite(past * length * size):
        past = math.nextafter(past, math.inf)
    return inside, past


def test_scan_refuses_a_bound_whose_transform_would_overflow(monkeypatch):
    # a pattern of 1e308 used to give every integral nan with numpy overflow
    # warnings, reported as a success; the RuntimeWarning filter of the test
    # configuration turns any such warning into a failure here
    inside, past = _overflow_edge(64)
    arc, radii = ArcSpec.full_circle(), [0.5, 0.999]
    rep = boundary_l1_scan(nb.make_sequence(nb.periodic([inside])), arc, radii, quad_points=64)
    assert all(math.isfinite(x) and x > 0 for x in rep.integrals + rep.quad_errors)
    monkeypatch.setattr(analytic, "_blocked_czt", lambda *a: pytest.fail("transform ran"))
    message = re.escape(f"bound {past} times block length")
    with pytest.raises(analytic.AnalyticError, match=message):
        boundary_l1_scan(nb.make_sequence(nb.periodic([past])), arc, radii, quad_points=64)
