"""Scans on values near the float maximum, where the difference of two
values overflows.  Each scan runs with RuntimeWarnings as errors and is
compared with a brute-force oracle in Python floats, whose differences
overflow to inf without a warning: an inf difference fails every finite
eps or tol test and passes every finite delta test."""

import math

import numpy as np
import pytest

import nbscope as nb
from nbscope import rightlimits as rl

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

BIG = 1.7e308
VALUES = [BIG, -BIG, 0.0, 1.0]


def _stream(seed, noisy, head=5, period=None, length=300):
    """Seeded values over {BIG, -BIG, 0, 1}: a random head, then a repeated
    random block (or random values throughout), times 1 + 1e-9 * N(0, 1)
    when noisy."""
    rng = np.random.default_rng(seed)
    if period is None:
        vals = rng.choice(VALUES, length)
    else:
        vals = np.concatenate([rng.choice(VALUES, head),
                               np.tile(rng.choice(VALUES, period), length)])[:length]
    if noisy:
        vals = vals * (1 + 1e-9 * rng.standard_normal(length))
    return vals.tolist()


def _seq(vals, noisy):
    params = {"values": tuple(complex(v) for v in vals)}
    if noisy:
        params["value_kind"] = "float"
    return nb.make_sequence(nb.GeneratorSpec("explicit", params))


def py_periodicity(vals, mp, mpp, h, tol):
    best = None
    for T in range(1, mp + 1):
        need = max((n + 1 for n in range(h + 1 - T)
                    if abs(vals[n + T] - vals[n]) > tol), default=0)
        if need <= mpp and (best is None or (need, T) < best):
            best = (need, T)
    return best


def py_pairs(vals, width, h, eps, delta, side):
    """Pairs (n, m) of the walk's rule: each center m, in ascending order,
    takes the least unpaired earlier n of its flank bucket whose center is
    at least delta from its own and whose flank is within eps of its own."""
    backward = side == "backward"
    centers = range(width, h + 1) if backward else range(0, h + 1 - width)

    def flank(i):
        return vals[i - width:i] if backward else vals[i + 1:i + width + 1]

    def key(f):
        return tuple(f) if eps == 0 else tuple(math.floor(v * (1.0 / eps)) for v in f)

    pool, pairs = {}, []
    for m in centers:
        fl = flank(m)
        unpaired = pool.setdefault(key(fl), [])
        chosen = next((n for n in unpaired if abs(vals[n] - vals[m]) >= delta
                       and max(abs(a - b) for a, b in zip(flank(n), fl)) <= eps), None)
        if chosen is None:
            unpaired.append(m)
        else:
            unpaired.remove(chosen)
            pairs.append((chosen, m))
    return sorted(pairs)


def py_clusters(vals, width, h, eps):
    """Greedy leader clusters of the windows, members ascending."""
    leaders, members = [], []
    for c in range(width, h + 1 - width):
        w = vals[c - width:c + width + 1]
        for i, lead in enumerate(leaders):
            if max(abs(a - b) for a, b in zip(w, lead)) <= eps:
                members[i].append(c)
                break
        else:
            leaders.append(w)
            members.append([c])
    return members


def py_block_witnesses(vals, p_max, h):
    """Per p: (p, first, second, mismatch) of the least pair of equal
    aligned blocks, or None when skipped or without a mismatch."""
    nv = len(set(vals[:h + 1]))
    out = {}
    for p in range(1, p_max + 1):
        blocks = (h + 1) // p
        if blocks < nv ** p + 1:
            out[p] = None
            continue
        seen, best = {}, None
        for ell in range(blocks):
            b = tuple(vals[ell * p:(ell + 1) * p])
            if b in seen:
                best = min(best or (math.inf,), (seen[b], ell))
            else:
                seen[b] = ell
        P, Q = best[0] * p, best[1] * p
        j = next((j for j in range(p + 1, h + 2 - Q) if vals[P + j - 1] != vals[Q + j - 1]),
                 None)
        out[p] = None if j is None else (p, P, Q, j)
    return out


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_periodicity_near_the_float_max(seed, noisy):
    vals = _stream(seed, noisy, head=seed + 2, period=seed + 4)
    seq = _seq(vals, noisy)
    for tol in (0.0, 1e-9, 1e300):
        for mp, mpp in ((8, 8), (3, 2)):
            assert nb.detect_eventual_periodicity(seq, mp, mpp, 299, tol) == \
                py_periodicity(vals, mp, mpp, 299, tol), (tol, mp, mpp)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pair_search_near_the_float_max(seed, noisy):
    vals = _stream(seed, noisy)
    seq = _seq(vals, noisy)
    for eps, delta in ((0.0, 0.5), (1e300, 1e305)):
        for width, side in ((1, "backward"), (2, "forward")):
            cert = nb.find_pair_certificate(seq, width, 299, eps=eps, delta=delta,
                                            flank_side=side, min_recurrence=1)
            want = py_pairs(vals, width, 299, eps, delta, side)
            assert cert is not None and list(cert.pairs) == want, (eps, width, side)
            assert cert.separation == min(abs(vals[n] - vals[m]) for n, m in want)
            assert cert.notes == () and cert.verify(seq)
            # the check of any one pair, overflowing or not
            for n, m in ((n, m) for n in range(40, 60) for m in range(60, 80)):
                fn, fm = ((vals[n - width:n], vals[m - width:m]) if side == "backward"
                          else (vals[n + 1:n + width + 1], vals[m + 1:m + width + 1]))
                want = (abs(vals[n] - vals[m]) >= delta
                        and max(abs(a - b) for a, b in zip(fn, fm)) <= eps)
                assert rl.verify_pair(seq, n, m, width, eps, delta, side) == want


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_extraction_near_the_float_max(seed, noisy):
    vals = _stream(seed, noisy)
    seq = _seq(vals, noisy)
    for eps in (0.0, 1e300):
        res = nb.extract_right_limits(seq, 1, 299, eps=eps, max_candidates=0,
                                      min_recurrence=1)
        members = py_clusters(vals, 1, 299, eps)
        assert res.clusters_total == len(members)
        assert [list(c.recurrence_indices) for c in res.candidates] == \
            sorted(members, key=lambda m: (-len(m), m[0]))
        assert all(c.verify(seq) for c in res.candidates)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_szego_near_the_float_max(seed):
    for period in (None, seed + 4):
        vals = _stream(seed, False, head=seed + 2, period=period)
        seq = _seq(vals, False)
        rep = nb.szego_block_analysis(seq, 3, 299)
        want = py_block_witnesses(vals, 3, 299)
        got = {p: (w.p, w.first, w.second, w.mismatch)
               if isinstance(w, rl.SzegoWitness) else None for p, w in rep.per_p.items()}
        assert got == want
        assert all(w.verify(seq) for w in rep.per_p.values() if isinstance(w, rl.SzegoWitness))
        if all(want.values()):
            assert (rep.overall, rep.periodicity) == ("mismatch-at-every-p", None)
        else:
            found = py_periodicity(vals, 64, 64, 299, 0.0)
            assert rep.periodicity == found
            assert rep.overall == ("eventually-periodic" if found else "horizon-exhausted")


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verdict_near_the_float_max(seed, noisy):
    cfg = nb.AnalysisConfig(horizon=299, width=2, eps=1e300 if noisy else None,
                            delta=1e305 if noisy else 0.5)
    vals = _stream(seed, noisy)
    seq = _seq(vals, noisy)
    v = nb.verdict(seq, cfg)
    assert py_periodicity(vals, 64, 64, 299, 1e-9 if noisy else 0.0) is None
    assert v.kind == "StrongNaturalBoundaryEvidence"
    assert v.certificate is not None and v.certificate.verify(seq)
    # a purely periodic stream: its rational form adds no two values
    vals = _stream(seed, False, head=0, period=seed + 4)
    v = nb.verdict(_seq(vals, False), cfg)
    assert v.kind == "EventuallyPeriodic"
    assert v.periodicity == py_periodicity(vals, 64, 64, 299, 0.0) == (0, seed + 4)
