"""Certificate checks: gathers of the witnesses' rows and one numpy
predicate per batch, with the distance of the search that produced the
certificate.

Each check is compared with its reference, which reads the values one
index at a time.  Thresholds are set to an observed distance and to the
doubles on either side of it, so every comparison is tested at its edge.
The per-index loops the checks replaced measured gap and cluster distances
with Python's abs while the searches use np.abs; the two differ in the last
bit on some complex values, so the complex streams of those checks draw
values on which they agree, and test_complex_fill_gap_certificate_verifies
covers a value on which they differ.
"""

import math

import numpy as np
import pytest

import nbscope as nb
from nbscope import rightlimits as rl
from nbscope.rightlimits import RightLimitCandidate, SzegoWitness
from references import count_gathers, reference_verify


def _gap(n, width, eps, delta, decay=None):
    return nb.NonReflectionlessCertificate("GapZeroFlank", (n,), "backward", width, eps,
                                           delta, delta, decay=decay)


def _pair(n, m, width, eps, delta, side="backward"):
    return nb.NonReflectionlessCertificate("PairMismatch", (n,), side, width, eps, delta,
                                           delta, pairs=((n, m),))


# --- streams and thresholds -------------------------------------------------

def around(x):
    """x and the doubles on either side of it."""
    x = float(x)
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


def _agrees(v):
    return float(np.abs(np.complex128(v))) == abs(complex(v))


def agreeing_alphabet(rng, size):
    """Complex values whose moduli and pairwise differences have the same
    |.| under np.abs and Python's abs."""
    while True:
        alpha = (rng.normal(size=size) + 1j * rng.normal(size=size)).tolist()
        if all(_agrees(a - b) for a in alpha + [0] for b in alpha):
            return alpha


def stream(kind, rng, length, zero_share=0.0):
    """Seeded values as a list of Python complex numbers."""
    if kind == "real":
        vals = rng.normal(size=length)
    elif kind == "complex":
        vals = rng.normal(size=length) + 1j * rng.normal(size=length)
    else:           # "agreeing": complex draws on which np.abs and abs agree
        vals = np.array(agreeing_alphabet(rng, 6))[rng.integers(0, 6, length)]
    return np.where(rng.random(length) < zero_share, 0.0, vals).astype(complex).tolist()


# --- gap checks -------------------------------------------------------------

@pytest.mark.parametrize("kind", ["real", "agreeing"])
@pytest.mark.parametrize("decay", [None, (0.8, 0.5)])
def test_gap_check_matches_the_loop(kind, decay):
    rng = np.random.default_rng(5)
    vals = stream(kind, rng, 300, zero_share=0.7)
    width = 3
    centers = sorted(set(rng.integers(0, 300, size=30).tolist()) | {1, 3})
    hits = 0
    seq = nb.make_sequence(nb.explicit(vals))
    for n in centers:
        if n < width:
            flank = 0.0
        else:
            env = [0.0 if decay is None else decay[0] * math.exp(-decay[1] * k)
                   for k in range(1, width + 1)]
            flank = max(max(abs(vals[n - k]) - env[k - 1], 0.0)
                        for k in range(1, width + 1))
        for eps in around(flank):
            for delta in around(abs(vals[n])):
                got = nb.verify_gap_hit(seq, n, width, eps, delta, decay)
                assert got == reference_verify(seq, _gap(n, width, eps, delta, decay))
                hits += got
    for eps in around(0.5):
        for delta in around(abs(vals[centers[-1]])):
            cert = nb.NonReflectionlessCertificate(
                "GapZeroFlank", tuple(centers[2:]), "backward", width, eps,
                delta, delta, decay=decay)
            assert cert.verify(seq) == reference_verify(seq, cert)
    assert hits


def test_gap_certificates_of_the_search_verify():
    for spec, width, eps, delta in ((nb.gap_powers("squares", 1), 5, 0.0, 0.5),
                                    (nb.gap_powers("factorials", 0.5 - 0.25j), 3, 0.0, 0.5),
                                    (nb.erdos("hard"), 2, 0.0, 0.5)):
        seq = nb.make_sequence(spec)
        cert = nb.find_gap_certificate(seq, width, 50_000, eps=eps, delta=delta)
        assert cert is not None
        fresh = nb.make_sequence(spec)
        assert cert.verify(seq) and cert.verify(fresh)
        assert reference_verify(fresh, cert)


def test_complex_fill_gap_certificate_verifies():
    """The fill's np.abs, which the search and its check compare with delta,
    is one ulp above its Python abs, which the per-index check used."""
    fill = -0.39361034141671003 - 0.09300422103869699j
    delta = 0.4044488669797381
    assert float(np.abs(fill)) == delta == math.nextafter(abs(fill), 1.0)
    spec = nb.gap_powers("factorials", fill)
    seq = nb.make_sequence(spec)
    cert = nb.find_gap_certificate(seq, 3, 100_000, eps=0.0, delta=delta)
    assert cert.witnesses == (6, 24, 120, 720, 5040, 40320)
    assert cert.verify(seq)
    assert cert.verify(nb.make_sequence(spec))
    assert reference_verify(seq, cert) and abs(fill) < delta
    v = nb.verdict(nb.make_sequence(spec),
                   nb.AnalysisConfig(width=3, eps=0.0, delta=delta))
    assert v.kind == "StrongNaturalBoundaryEvidence"
    assert v.certificate.witnesses == cert.witnesses


def test_gap_check_past_an_explicit_end_fails():
    """A hit whose center lies past the end of an explicit sequence fails
    the check, with nothing read; it used to raise SequenceError."""
    seq = nb.make_sequence(nb.explicit([0, 0, 1, 0, 0, 1]))
    assert nb.verify_gap_hit(seq, 5, 2, 0.0, 0.5)
    reads = count_gathers(seq)
    for n in (6, 100, 2 ** 63, 2 ** 70, 1, -1):
        assert not nb.verify_gap_hit(seq, n, 2, 0.0, 0.5)
    cert = nb.NonReflectionlessCertificate("GapZeroFlank", (2, 5, 6), "backward", 2,
                                           0.0, 0.5, 1.0)
    assert not cert.verify(seq)
    assert reads == []


# --- pair checks ------------------------------------------------------------

@pytest.mark.parametrize("kind", ["real", "complex"])
def test_pair_check_matches_the_loop(kind):
    rng = np.random.default_rng(9)
    vals = stream(kind, rng, 300)
    width = 4
    pairs = [tuple(p) for p in rng.integers(0, 296, size=(25, 2)).tolist()]
    pairs += [(40, 40), (2, 90), (90, 2), (295, 10)]
    seq = nb.make_sequence(nb.explicit(vals))
    for side, offs in (("backward", range(-width, 0)),
                       ("forward", range(1, width + 1))):
        hits = 0
        for n, m in pairs:
            flank = max((abs(vals[n + k] - vals[m + k]) for k in offs
                         if 0 <= min(n, m) + k and max(n, m) + k < 300), default=0.0)
            for eps in around(flank):
                for delta in around(abs(vals[n] - vals[m])):
                    got = nb.verify_pair(seq, n, m, width, eps, delta, side)
                    assert got == reference_verify(seq, _pair(n, m, width, eps, delta, side))
                    hits += got
        assert hits
        chosen = [p for p in pairs if p[0] != p[1] and min(p) >= width][:6]
        flank = max(abs(vals[n + k] - vals[m + k]) for n, m in chosen for k in offs)
        center = min(abs(vals[n] - vals[m]) for n, m in chosen)
        for eps in around(flank):
            for delta in around(center):
                cert = nb.NonReflectionlessCertificate(
                    "PairMismatch", tuple(n for n, _ in chosen), side, width,
                    eps, delta, center, pairs=tuple(chosen))
                assert cert.verify(seq) == reference_verify(seq, cert)


def test_pair_certificates_of_the_search_verify():
    x = np.random.default_rng(3).normal(size=4000)
    cases = ((nb.rotation(math.sqrt(2) - 1), 5, 0.05, 0.5),
             (nb.rudin_shapiro(), 4, 0.0, 1.0),
             (nb.explicit(np.round(x + 1j * np.roll(x, 1), 1)), 2, 0.15, 1.0))
    for spec, width, eps, delta in cases:
        for side in ("backward", "forward"):
            seq = nb.make_sequence(spec)
            cert = nb.find_pair_certificate(seq, width, 3000, eps=eps,
                                            delta=delta, flank_side=side)
            assert cert is not None, (spec.family, side)
            fresh = nb.make_sequence(spec)
            assert cert.verify(seq) and cert.verify(fresh)
            assert reference_verify(fresh, cert)


def test_pair_check_past_an_explicit_end_fails():
    """A pair whose flank or center lies past the end of an explicit
    sequence fails the check, with nothing read; it used to raise
    SequenceError.  No pairs pass vacuously."""
    seq = nb.make_sequence(nb.explicit(range(1, 11)))
    assert nb.verify_pair(seq, 4, 6, 2, 2.0, 2.0)
    assert nb.verify_pair(seq, 4, 7, 2, 3.0, 3.0, "forward")
    reads = count_gathers(seq)
    assert not nb.verify_pair(seq, 4, 100, 2, 0.0, 0.5)
    for m in (10, 2 ** 63, 2 ** 70):
        assert not nb.verify_pair(seq, 4, m, 2, 100.0, 0.5)
        assert not nb.verify_pair(seq, m, 4, 2, 100.0, 0.5)
    assert not nb.verify_pair(seq, 4, 8, 2, 100.0, 0.5, "forward")
    assert not nb.verify_pair(seq, 1, 6, 2, 100.0, 0.5)
    assert reads == []
    assert rl._pairs_hold(seq, (), 2, 0.0, 0.5, "backward")
    assert rl._gap_hits_hold(seq, (), 2, 0.0, 0.5, None)
    assert rl._pairs_hold(seq, [], 2, 0.0, 0.5, "forward")
    assert reads == []


# --- cluster checks ---------------------------------------------------------

@pytest.mark.parametrize("kind", ["real", "agreeing"])
def test_cluster_check_matches_the_loop(kind):
    rng = np.random.default_rng(13)
    vals = stream(kind, rng, 300)
    W = 2
    seq = nb.make_sequence(nb.explicit(vals))
    for _ in range(15):
        lead = int(rng.integers(W, 300 - W))
        members = sorted(set(rng.integers(W, 300 - W, size=4).tolist()) | {lead})
        leader = tuple(complex(v) for v in vals[lead - W:lead + W + 1])
        far = max(abs(vals[n + k] - leader[k + W])
                  for n in members for k in range(-W, W + 1))
        for eps in around(far):
            win = nb.TwoSidedWindow(leader, W, {"kind": "cluster"}, eps=eps)
            cand = RightLimitCandidate(win, tuple(members), eps)
            assert cand.verify(seq) == reference_verify(seq, cand)
            assert cand.verify(seq) == (eps >= far)


def test_cluster_candidates_of_the_search_verify():
    rng = np.random.default_rng(1)
    noisy = rng.choice([0, 1, 1j], size=3000) + 0.03 * (rng.normal(size=3000)
                                                          + 1j * rng.normal(size=3000))
    for spec, eps in ((nb.erdos("soft"), 0.1), (nb.periodic([1, 0, 1j]), 0.0),
                      (nb.explicit(noisy), 0.2)):
        seq = nb.make_sequence(spec)
        res = nb.extract_right_limits(seq, 2, 2000, eps=eps, max_candidates=4)
        assert res.candidates
        for cand in res.candidates:
            assert cand.verify(seq) and cand.verify(nb.make_sequence(spec))


def test_cluster_check_past_an_explicit_end_fails():
    """A center whose window runs past the end of an explicit sequence
    fails the check, with nothing read; it used to raise SequenceError."""
    seq = nb.make_sequence(nb.explicit([1, 1, 1, 2, 1]))
    win = nb.TwoSidedWindow((1, 1, 1), 1, {"kind": "cluster"})
    assert RightLimitCandidate(win, (1,), 0.0).verify(seq)
    assert not RightLimitCandidate(win, (1, 2), 0.0).verify(seq)
    reads = count_gathers(seq)
    for centers in ((1, 4), (4,), (0, 1), (1, 2 ** 63), (1, 2 ** 70)):
        past = RightLimitCandidate(win, centers, 0.0)
        assert not past.verify(seq)
    assert reads == []


# --- block-mismatch witnesses -----------------------------------------------

def test_szego_check_matches_the_loop():
    rng = np.random.default_rng(21)
    iid = rng.choice(np.array([0, 1, 1j]), size=3000)
    for spec in (nb.rudin_shapiro(), nb.explicit(iid)):
        found = nb.szego_block_analysis(nb.make_sequence(spec), 5, 2999).per_p
        witnesses = [w for w in found.values() if isinstance(w, SzegoWitness)]
        assert witnesses
        seq = nb.make_sequence(nb.explicit(nb.make_sequence(spec).prefix(3000)))
        for w in witnesses:
            assert w.verify(seq) and reference_verify(seq, w)
            for p, f, s, mm in ((w.p, w.first, w.second, w.mismatch - 1),
                                (w.p, w.first, w.second, w.mismatch + 1),
                                (w.p, w.second, w.first, w.mismatch),
                                (w.p, w.first + 1, w.second, w.mismatch),
                                (w.p + 1, w.first, w.second, w.mismatch),
                                (w.p, w.first, w.second, w.p)):
                if max(f, s) + mm > 3000:
                    continue        # the span runs past the explicit end
                other = SzegoWitness(p, f, s, mm)
                assert other.verify(seq) == reference_verify(seq, other)


def test_szego_check_past_an_explicit_end_fails():
    """A witness whose blocks or mismatch lie past the end of an explicit
    sequence fails the check, with nothing read; it used to raise
    SequenceError."""
    seq = nb.make_sequence(nb.explicit([0, 1, 0, 1, 0, 1, 1]))
    assert SzegoWitness(2, 0, 2, 5).verify(seq)
    reads = count_gathers(seq)
    for w in (SzegoWitness(2, 0, 4, 4), SzegoWitness(2, 0, 2 ** 63, 5),
              SzegoWitness(2, 2 ** 70, 0, 3), SzegoWitness(2, -1, 2, 5)):
        assert not w.verify(seq)
    assert reads == []


# --- far indices -------------------------------------------------------------

def test_single_checks_near_2_53_leave_the_prefix_uncached():
    seq = nb.make_sequence(nb.rudin_shapiro())
    calls = count_gathers(seq)
    n = 2 ** 53
    win = nb.TwoSidedWindow(tuple(nb.make_sequence(nb.rudin_shapiro())
                                  .read(n - 1, n + 2).tolist()), 1, {"kind": "cluster"})
    checks = [
        (lambda s: nb.verify_gap_hit(s, n, 3, 0.0, 0.5),
         lambda s: reference_verify(s, _gap(n, 3, 0.0, 0.5))),
        (lambda s: nb.verify_pair(s, n, n + 8, 3, 0.0, 1.0, "forward"),
         lambda s: reference_verify(s, _pair(n, n + 8, 3, 0.0, 1.0, "forward"))),
        (lambda s: SzegoWitness(2, n, n + 6, 5).verify(s),
         lambda s: reference_verify(s, SzegoWitness(2, n, n + 6, 5))),
        (lambda s: RightLimitCandidate(win, (n,), 0.0).verify(s),
         lambda s: reference_verify(s, RightLimitCandidate(win, (n,), 0.0))),
    ]
    got = [check(seq) for check, _ in checks]
    assert got == [loop(nb.make_sequence(nb.rudin_shapiro())) for _, loop in checks]
    assert got[3]
    assert len(calls) == len(checks)
    assert all(min(c) >= n - 3 and len(c) <= 12 for c in calls)
    seq.prefix(3)
    assert calls[-1] == range(0, 3)
