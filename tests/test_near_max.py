"""Scans on values near the float maximum, where the difference of two
values overflows.  Each scan runs with RuntimeWarnings as errors and is
compared with its reference, whose differences overflow to inf without a
warning: an inf difference fails every finite eps or tol test and passes
every finite delta test."""


import numpy as np
import pytest

import nbscope as nb
from nbscope import rightlimits as rl
from references import (fold_skipped_tail, reference_extract, reference_pair_certificate,
                        reference_periodicity, reference_szego)

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


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_periodicity_near_the_float_max(seed, noisy):
    vals = _stream(seed, noisy, head=seed + 2, period=seed + 4)
    seq = _seq(vals, noisy)
    for tol in (0.0, 1e-9, 1e300):
        for mp, mpp in ((8, 8), (3, 2)):
            assert nb.detect_eventual_periodicity(seq, mp, mpp, 299, tol) == \
                reference_periodicity(seq, mp, mpp, 299, tol), (tol, mp, mpp)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pair_search_near_the_float_max(seed, noisy):
    vals = _stream(seed, noisy)
    seq = _seq(vals, noisy)
    for eps, delta in ((0.0, 0.5), (1e300, 1e305)):
        for width, side in ((1, "backward"), (2, "forward")):
            cert = nb.find_pair_certificate(seq, width, 299, eps=eps, delta=delta,
                                            flank_side=side, min_recurrence=1)
            want = reference_pair_certificate(seq, width, 299, eps, delta, side, 1)
            assert cert is not None and cert == want, (eps, width, side)
            assert cert.separation == want.separation
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
        assert res == reference_extract(seq, 1, 299, eps, max_candidates=0, min_recurrence=1)
        assert all(c.verify(seq) for c in res.candidates)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_szego_near_the_float_max(seed):
    for period in (None, seed + 4):
        vals = _stream(seed, False, head=seed + 2, period=period)
        seq = _seq(vals, False)
        rep = nb.szego_block_analysis(seq, 3, 299)
        assert rep == fold_skipped_tail(reference_szego(seq, 3, 299), 3)
        assert all(w.verify(seq) for w in rep.per_p.values() if isinstance(w, rl.SzegoWitness))


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verdict_near_the_float_max(seed, noisy):
    cfg = nb.AnalysisConfig(horizon=299, width=2, eps=1e300 if noisy else None,
                            delta=1e305 if noisy else 0.5)
    vals = _stream(seed, noisy)
    seq = _seq(vals, noisy)
    v = nb.verdict(seq, cfg)
    assert reference_periodicity(seq, 64, 64, 299, 1e-9 if noisy else 0.0) is None
    assert v.kind == "StrongNaturalBoundaryEvidence"
    assert v.certificate is not None and v.certificate.verify(seq)
    # a purely periodic stream: its rational form adds no two values
    vals = _stream(seed, False, head=0, period=seed + 4)
    v = nb.verdict(_seq(vals, False), cfg)
    assert v.kind == "EventuallyPeriodic"
    assert v.periodicity == reference_periodicity(_seq(vals, False), 64, 64, 299, 0.0) == \
        (0, seed + 4)


def test_verdict_with_a_head_near_the_float_max_has_no_rational_form():
    # the numerator head(z)*(1 - z^7) + z^5*block(z) overflows; the form
    # used to come back with nan and inf coefficients
    head, block = [1.0, BIG, BIG, BIG, BIG], [1.0, 1.0, 0.0, BIG, BIG, -BIG, -BIG]
    vals = (head + block * 43)[:300]
    v = nb.verdict(_seq(vals, False), nb.AnalysisConfig(horizon=299))
    assert (v.kind, v.periodicity) == ("EventuallyPeriodic", (5, 7))
    assert reference_periodicity(_seq(vals, False), 64, 64, 299, 0.0) == (5, 7)
    assert v.rational_form is None and v.to_json_dict()["rational_form"] is None
    assert v.reason.startswith("period 7 after preperiod 5, verified on horizon 299; "
                               "no rational form: coefficient 10 of the numerator")
