"""Window clustering, certificates, block analysis, periodicity, verdicts."""

import math
import sys
import warnings

import numpy as np
import pytest

import nbscope as nb
from nbscope import rightlimits
from nbscope.rightlimits import AnalysisConfig, SzegoWitness
from nbscope.sequences import SequenceError
from references import count_gathers, reference_extract


# ---------------------------------------------------------------------------
# extract_right_limits


def test_extract_periodic_two_phases():
    seq = nb.make_sequence(nb.periodic([1, 0]))
    res = nb.extract_right_limits(seq, 2, 1000, eps=0.0)
    assert res.clusters_total == 2
    assert len(res.candidates) == 2
    for cand in res.candidates:
        assert len(cand.recurrence_indices) >= 1000 // 2 - 2
        assert cand.verify(seq)
        steps = np.diff(cand.recurrence_indices)
        assert np.all(steps == 2)


def test_extract_gap_factorials_zero_and_spike_windows():
    seq = nb.make_sequence(nb.gap_powers("factorials", 1))
    res = nb.extract_right_limits(seq, 2, 10_000, eps=0.0, max_candidates=16)
    windows = [tuple(int(v.real) for v in c.window.values)
               for c in res.candidates]
    assert (0, 0, 0, 0, 0) in windows
    assert any(sum(w) == 1 for w in windows)


def test_extract_erdos_soft_candidates_near_constant():
    seq = nb.make_sequence(nb.erdos("soft"))
    res = nb.extract_right_limits(seq, 3, 100_000, eps=0.1, max_candidates=0)
    assert res.candidates
    for cand in res.candidates:
        arr = cand.window.as_array()
        assert np.max(np.abs(arr - arr[3])) <= 2 * 0.1 + 1e-9


def test_extract_greedy_matches_brute_force():
    rng = np.random.default_rng(7)
    vals = rng.random(300).round(1)
    seq = nb.make_sequence(nb.explicit(vals))
    res = nb.extract_right_limits(seq, 2, 299, eps=0.15, max_candidates=0,
                                  min_recurrence=1)
    arr = seq.prefix(300).real
    leaders, members = [], []
    for n in range(2, 298):
        w = arr[n - 2:n + 3]
        for i, L in enumerate(leaders):
            if np.max(np.abs(w - L)) <= 0.15:
                members[i].append(n)
                break
        else:
            leaders.append(w)
            members.append([n])
    assert res.clusters_total == len(leaders)
    by_first = {m[0]: m for m in members}
    for cand in res.candidates:
        assert list(cand.recurrence_indices) == by_first[cand.recurrence_indices[0]]


def _extract_eps0_oracle(seq, width, horizon):
    """The per-window dict grouping extract_right_limits used at eps = 0:
    clusters in order of first appearance, members ascending."""
    arr = seq.prefix(horizon + 1)
    h, D = horizon, 2 * width + 1
    members: dict = {}
    for s in range(0, h + 1 - D + 1):
        key = arr[s:s + D].tobytes()
        members.setdefault(key, []).append(s + width)
    return [(np.frombuffer(k, dtype=complex), v) for k, v in members.items()]


_EPS0_STREAMS = {
    "rudin-shapiro": nb.rudin_shapiro(),
    "rotation": nb.rotation(math.sqrt(2) - 1),
    "erdos-hard": nb.erdos("hard"),
    "squares": nb.gap_powers("squares", 1),
    "periodic-complex": nb.periodic([1, 1j, -1, 0.5 + 0.5j, 1j, 0]),
    "explicit-complex": nb.explicit(np.random.default_rng(5).choice(
        [0, 1, 1j, -1 - 1j], size=6001)),
}


@pytest.mark.parametrize("width", [1, 3, 5])
@pytest.mark.parametrize("name", sorted(_EPS0_STREAMS))
def test_extract_eps0_grouping_matches_dict_oracle(name, width):
    seq = nb.make_sequence(_EPS0_STREAMS[name])
    res = nb.extract_right_limits(seq, width, 6000, eps=0.0,
                                  max_candidates=0, min_recurrence=1)
    clusters = _extract_eps0_oracle(seq, width, 6000)
    order = sorted(range(len(clusters)), key=lambda i: (-len(clusters[i][1]), i))
    assert res.clusters_total == len(clusters)
    assert [(repr(c.window.values), c.recurrence_indices) for c in res.candidates] == [
        (repr(tuple(complex(v) for v in clusters[i][0])), tuple(clusters[i][1]))
        for i in order]


def _assert_same_extract(res, ref):
    assert res.clusters_total == ref.clusters_total
    assert res.windows_scanned == ref.windows_scanned
    assert res.truncated is ref.truncated
    assert len(res.candidates) == len(ref.candidates)
    for got, want in zip(res.candidates, ref.candidates):
        # repr keeps every bit of the leader values, signed zeros included
        assert repr(got.window.values) == repr(want.window.values)
        assert got.recurrence_indices == want.recurrence_indices
        assert repr(got) == repr(want)


_ULP_1E12 = math.ulp(1e12)       # 2**-13: float steps near 1e12


def _near_1e12(rng, n, imag=False):
    # column-0 gaps are whole multiples of the ulp, and eps below sits
    # within a few ulps of three of them
    vals = 1e12 + _ULP_1E12 * rng.integers(0, 8, size=n)
    if imag:
        vals = vals + 1j * _ULP_1E12 * rng.integers(0, 2, size=n)
    return nb.make_sequence(nb.explicit(vals))


def _float_noise(rng, n):
    return nb.make_sequence(nb.explicit(rng.random(n)))


def _complex_repeats(rng, n):
    atoms = np.array([0, 1, 1j, -1 - 1j, 0.5 + 0.5j])
    vals = atoms[rng.integers(0, len(atoms), size=n)]
    # a few near-copies, so clusters gather more than exact repeats
    vals = vals + 0.01 * (rng.random(n) < 0.1)
    return nb.make_sequence(nb.explicit(vals))


def _rotation_with_copies(rng, n, width):
    # a rotation's windows are all distinct; copy eight windows of the first
    # half exactly into the second, so their first values tie
    vals = nb.make_sequence(nb.rotation(math.sqrt(2) - 1, 0.1)).prefix(n).real
    D, half = 2 * width + 1, n // 2
    for k, src in enumerate(sorted(rng.choice(half - D, size=8, replace=False))):
        dst = half + k * (half // 8)
        vals[dst:dst + D] = vals[src:src + D]
    return nb.make_sequence(nb.explicit(vals))


def _complex_shared_real(rng, n):
    # real parts from eight values, imaginary parts all distinct
    return nb.make_sequence(nb.explicit(rng.integers(0, 8, size=n) / 8
                                        + 1j * rng.random(n)))


def _complex_distinct_real(rng, n):
    return nb.make_sequence(nb.explicit(rng.random(n)
                                        + 0.5j * rng.integers(0, 3, size=n)))


_EPS_3ULP = 3 * _ULP_1E12
_DIFF_CASES = [
    # (stream, width, horizon, eps)
    ("erdos-soft", lambda rng: nb.make_sequence(nb.erdos("soft")), 3, 6000, 0.1),
    ("half-indicator", lambda rng: nb.make_sequence(
        nb.rotation(math.sqrt(5) - 2, 0.0, "half-indicator")), 3, 6000, 0.02),
    ("rotation-0.05", lambda rng: nb.make_sequence(nb.rotation(math.sqrt(2) - 1)),
     5, 6000, 0.05),
    ("rotation-0.01", lambda rng: nb.make_sequence(nb.rotation(math.sqrt(3) - 1, 0.3)),
     3, 4000, 0.01),
    ("float-noise", lambda rng: _float_noise(rng, 3000), 1, 2999, 0.2),
    ("float-noise-rounded", lambda rng: nb.make_sequence(
        nb.explicit(rng.random(2500).round(1))), 2, 2499, 0.15),
    ("iid", lambda rng: nb.sample_process(
        nb.iid_process([0, 0.3, 1], seed=11), 5000), 3, 4999, 0.35),
    ("markov", lambda rng: nb.sample_process(nb.markov_process(
        [0, 0.5, 1], [[0.8, 0.1, 0.1], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]], seed=4),
        5000), 4, 4999, 0.5),
    ("complex-repeats", lambda rng: _complex_repeats(rng, 5000), 2, 4999, 0.75),
    ("complex-repeats-tight", lambda rng: _complex_repeats(rng, 2000), 2, 1999, 0.01),
    # windows at sup distance exactly eps
    ("dyadic-exact-eps", lambda rng: nb.make_sequence(
        nb.explicit(rng.integers(0, 4, size=3000) * 0.25)), 2, 2999, 0.25),
    ("1e12-at-eps", lambda rng: _near_1e12(rng, 3000), 2, 2999, _EPS_3ULP),
    ("1e12-below-eps", lambda rng: _near_1e12(rng, 3000), 2, 2999,
     math.nextafter(_EPS_3ULP, 0)),
    ("1e12-above-eps", lambda rng: _near_1e12(rng, 3000), 2, 2999,
     math.nextafter(_EPS_3ULP, 1)),
    ("1e12-few-ulps-of-eps", lambda rng: _near_1e12(rng, 3000), 2, 2999,
     _EPS_3ULP * (1 - 4 * 2.0 ** -53)),
    ("1e12-complex", lambda rng: _near_1e12(rng, 3000, imag=True), 2, 2999,
     _EPS_3ULP),
    # first-value ties force the exact grouping; without them it is skipped
    ("rotation-with-copies", lambda rng: _rotation_with_copies(rng, 6000, 3),
     3, 5999, 0.05),
    ("complex-shared-real", lambda rng: _complex_shared_real(rng, 3000), 1,
     2999, 0.3),
    ("complex-distinct-real", lambda rng: _complex_distinct_real(rng, 3000), 1,
     2999, 0.3),
    # distinct values, many pairs exactly eps apart
    ("dyadic-distinct-exact-eps", lambda rng: nb.make_sequence(
        nb.explicit(rng.permutation(3000) / 1024)), 1, 2999, 0.25),
]


@pytest.mark.parametrize("cap", [None, 1, 2, 5])
@pytest.mark.parametrize("name,make,width,horizon,eps", _DIFF_CASES,
                         ids=[c[0] for c in _DIFF_CASES])
def test_extract_matches_reference_leader_clusters(monkeypatch, name, make,
                                                   width, horizon, eps, cap):
    if cap is not None:
        monkeypatch.setattr(rightlimits, "_CLUSTER_CAP", cap)
    seq = make(np.random.default_rng(sum(map(ord, name))))
    for max_candidates, min_recurrence in ((0, 1), (16, 3)):
        res = nb.extract_right_limits(seq, width, horizon, eps=eps,
                                      max_candidates=max_candidates,
                                      min_recurrence=min_recurrence)
        ref = reference_extract(seq, width, horizon, eps, max_candidates,
                                min_recurrence)
        _assert_same_extract(res, ref)
    # every stream has more than 5 clusters, so a patched cap fires mid-stream
    assert res.truncated is (cap is not None)


@pytest.mark.parametrize("name,grouped", [
    ("rotation-0.05", False), ("complex-distinct-real", False),
    ("dyadic-distinct-exact-eps", False),
    ("rotation-with-copies", True), ("complex-shared-real", True),
    ("erdos-soft", True)])
def test_extract_groups_windows_only_when_first_values_tie(monkeypatch, name,
                                                           grouped):
    _, make, width, horizon, eps = next(c for c in _DIFF_CASES if c[0] == name)
    seq = make(np.random.default_rng(sum(map(ord, name))))
    calls = []

    def group_rows(rows):
        calls.append(rows.shape)
        if not grouped:
            raise AssertionError("tie-free windows were grouped")
        return group_rows_before(rows)

    group_rows_before = rightlimits._group_rows
    monkeypatch.setattr(rightlimits, "_group_rows", group_rows)
    for e in (eps, 0.0):
        nb.extract_right_limits(seq, width, horizon, eps=e)
    assert len(calls) == (2 if grouped else 0)


def test_extract_copied_windows_join_their_originals_cluster():
    seq = _rotation_with_copies(np.random.default_rng(0), 6000, 3)
    res = nb.extract_right_limits(seq, 3, 5999, eps=0.05, max_candidates=0,
                                  min_recurrence=1)
    cluster = {c: i for i, cand in enumerate(res.candidates)
               for c in cand.recurrence_indices}
    vals = seq.prefix(6000)
    wins = {}
    for c in range(3, 5997):
        wins.setdefault(vals[c - 3:c + 4].tobytes(), []).append(c)
    copies = [cs for cs in wins.values() if len(cs) > 1]
    assert len(copies) == 8
    for cs in copies:
        assert len({cluster[c] for c in cs}) == 1


def test_extract_eps0_ignores_the_cap(monkeypatch):
    # every distinct window is its own cluster at eps = 0, however many
    monkeypatch.setattr(rightlimits, "_CLUSTER_CAP", 2)
    seq = nb.make_sequence(nb.rudin_shapiro())
    res = nb.extract_right_limits(seq, 3, 3000, eps=0.0, max_candidates=0,
                                  min_recurrence=1)
    clusters = _extract_eps0_oracle(seq, 3, 3000)
    assert res.truncated is False
    assert res.clusters_total == len(clusters) > 2
    assert sum(len(c.recurrence_indices) for c in res.candidates) == res.windows_scanned


def test_real_and_complex_paths_agree():
    # real_valued picks the arithmetic before any value is read; a sequence
    # that cannot say takes the complex path, which must give the same
    q = math.sqrt(2) - 1
    real = nb.make_sequence(nb.rotation(q, 0.3))
    cplx = nb.make_sequence(nb.rotation(q, 0.3, (lambda x: x, 1.0)))
    assert real.real_valued and not cplx.real_valued
    a, b = (nb.extract_right_limits(s, 2, 10_000, eps=0.05) for s in (real, cplx))
    assert a.clusters_total == b.clusters_total == 17
    assert ([c.to_json_dict() for c in a.candidates]
            == [c.to_json_dict() for c in b.candidates])
    rs, flagged = nb.make_sequence(nb.rudin_shapiro()), nb.make_sequence(nb.rudin_shapiro())
    flagged.real_valued = False
    a, b = (nb.extract_right_limits(s, 3, 20_000, eps=0.0) for s in (rs, flagged))
    assert ([c.to_json_dict() for c in a.candidates]
            == [c.to_json_dict() for c in b.candidates])
    a, b = (nb.szego_block_analysis(s, 8, 50_000) for s in (rs, flagged))
    assert a.to_json_dict() == b.to_json_dict()


def test_candidate_check_after_extraction_reads_raw_values():
    # the check goes to the value function, not to values the extraction read
    seq = nb.make_sequence(nb.rotation(math.sqrt(2) - 1, 0.3))
    res = nb.extract_right_limits(seq, 2, 10_000, eps=0.05)
    assert res.candidates
    at = seq._family_at
    calls = count_gathers(seq)
    for cand in res.candidates:
        calls.clear()
        assert cand.verify(seq) and calls
    # every window holds a value >= 0.2, so halved values match no leader
    seq._family_at = lambda idx: 0.5 * at(idx)
    assert not any(cand.verify(seq) for cand in res.candidates)


def test_extract_rejects_small_horizon():
    seq = nb.make_sequence(nb.periodic([1]))
    with pytest.raises(SequenceError):
        nb.extract_right_limits(seq, 5, 30)


# ---------------------------------------------------------------------------
# gap certificates


def test_gap_certificate_factorials():
    seq = nb.make_sequence(nb.gap_powers("factorials", 1))
    cert = nb.find_gap_certificate(seq, 4, 1000, eps=0.0, delta=0.5)
    assert cert.witnesses == (24, 120, 720)
    assert cert.kind == "GapZeroFlank"
    assert cert.verify(seq)
    assert cert.separation == 1.0


def test_gap_certificate_squares():
    seq = nb.make_sequence(nb.gap_powers("squares", 1))
    cert = nb.find_gap_certificate(seq, 4, 2000, eps=0.0, delta=0.5)
    squares = {j * j for j in range(1, 50)}
    expected = tuple(n for n in sorted(squares)
                     if n <= 2000 and all((n - k) not in squares | {0}
                                          for k in range(1, 5)))
    assert cert.witnesses == expected
    assert 49 in cert.witnesses and 64 in cert.witnesses and 81 in cert.witnesses


def test_gap_certificate_none_for_constant():
    seq = nb.make_sequence(nb.periodic([1]))
    assert nb.find_gap_certificate(seq, 4, 1000, eps=0.0, delta=0.5) is None


def test_gap_certificate_decay_envelope():
    # values decay like 2^-k behind each spike: strict zero flank fails,
    # the decay-envelope variant succeeds
    vals = np.zeros(4000)
    for center in (100, 900, 2500, 3900):
        vals[center] = 1.0
        for k in range(1, 6):
            vals[center - k] = 2.0 ** (-k - 2)
    seq = nb.make_sequence(nb.explicit(vals))
    assert nb.find_gap_certificate(seq, 5, 3999, eps=0.0, delta=0.5) is None
    cert = nb.find_gap_certificate(seq, 5, 3999, eps=1e-9, delta=0.5,
                                   decay=(0.25, math.log(2)))
    assert cert is not None
    assert set(cert.witnesses) == {100, 900, 2500, 3900}
    assert cert.decay == (0.25, math.log(2))
    assert cert.verify(seq)


def test_tolerance_separation_enforced():
    seq = nb.make_sequence(nb.periodic([1]))
    with pytest.raises(SequenceError):
        nb.find_gap_certificate(seq, 4, 1000, eps=0.3, delta=0.5)
    with pytest.raises(SequenceError):
        nb.find_pair_certificate(seq, 4, 1000, eps=0.3, delta=0.5)


# ---------------------------------------------------------------------------
# pair certificates


def test_pair_certificate_rudin_shapiro_examples():
    rs = nb.make_sequence(nb.rudin_shapiro())
    for n, m in [(4, 12), (8, 24), (16, 48)]:
        assert nb.verify_pair(rs, n, m, 4, 0.0, 2.0, "backward")
        assert abs(rs.eval(n) - rs.eval(m)) == 2.0
    cert = nb.find_pair_certificate(rs, 4, 4096, eps=0.0, delta=2.0,
                                    flank_side="backward")
    assert cert is not None
    assert (4, 12) in cert.pairs
    assert cert.verify(rs)
    # disjointness: no index reused
    flat = [i for p in cert.pairs for i in p]
    assert len(flat) == len(set(flat))
    # strictly increasing leading indices
    assert all(a < b for a, b in zip(cert.witnesses, cert.witnesses[1:]))


def test_pair_certificate_rotation_example():
    q = math.sqrt(2) - 1
    seq = nb.make_sequence(nb.rotation(q, 0.0))
    assert seq.eval(70).real == pytest.approx(0.99495, abs=5e-6)
    assert seq.eval(29).real == pytest.approx(0.01219, abs=5e-6)
    diffs = [abs(seq.eval(70 + k) - seq.eval(29 + k)) for k in range(1, 6)]
    assert max(diffs) == pytest.approx(0.0172, abs=5e-4)
    assert nb.verify_pair(seq, 29, 70, 5, 0.05, 0.5, "forward")
    cert = nb.find_pair_certificate(seq, 5, 20_000, eps=0.05, delta=0.5,
                                    flank_side="forward")
    assert cert is not None and len(cert.pairs) >= 3
    assert cert.verify(seq)


def test_pair_certificate_none_for_periodic():
    seq = nb.make_sequence(nb.periodic([1, 0]))
    assert nb.find_pair_certificate(seq, 3, 2000, eps=0.0, delta=0.5,
                                    flank_side="backward") is None
    assert nb.find_pair_certificate(seq, 3, 2000, eps=0.0, delta=0.5,
                                    flank_side="forward") is None


def test_pair_search_prefix_stable():
    rs = nb.make_sequence(nb.rudin_shapiro())
    small = nb.find_pair_certificate(rs, 4, 512, eps=0.0, delta=2.0)
    large = nb.find_pair_certificate(rs, 4, 2048, eps=0.0, delta=2.0)
    assert set(small.pairs) <= set(large.pairs)


def test_pair_delta_separation_invariant():
    rs = nb.make_sequence(nb.rudin_shapiro())
    cert = nb.find_pair_certificate(rs, 4, 1024, eps=0.0, delta=2.0)
    assert cert.delta > 2 * cert.eps
    assert cert.separation >= cert.delta


# ---------------------------------------------------------------------------
# block analysis


def test_szego_rudin_shapiro_p1():
    rs = nb.make_sequence(nb.rudin_shapiro())
    rep = nb.szego_block_analysis(rs, 1, 4000)
    w = rep.per_p[1]
    assert (w.first, w.second, w.mismatch) == (0, 1, 3)
    assert w.verify(rs)


def test_szego_periodic_no_witness():
    seq = nb.make_sequence(nb.periodic([1, 0, 0]))
    rep = nb.szego_block_analysis(seq, 4, 2000)
    assert all(v == "no mismatch within horizon" for v in rep.per_p.values())
    assert rep.overall == "eventually-periodic"
    assert rep.periodicity == (0, 3)


def test_szego_iid_all_witnesses():
    proc = nb.iid_process([-1, 1], seed=7)
    path = nb.sample_process(proc, 4096)
    rep = nb.szego_block_analysis(path, 8, 4095)
    for p in range(1, 9):
        w = rep.per_p[p]
        assert isinstance(w, SzegoWitness)
        assert w.mismatch >= p + 1
        assert w.verify(path)
    assert rep.overall == "mismatch-at-every-p"


def test_szego_rejects_float_input():
    rot = nb.make_sequence(nb.rotation(math.sqrt(2)))
    with pytest.raises(SequenceError):
        nb.szego_block_analysis(rot, 4, 1000)


@pytest.mark.parametrize("eps", [-0.1, -1.0, math.nan, math.inf])
def test_searches_reject_invalid_eps(eps):
    # a negative or nan eps matched no window, not even its own leader, so
    # the clustering founded one cluster per window up to its cap
    rot = nb.make_sequence(nb.rotation(math.sqrt(2) - 1))
    with pytest.raises(SequenceError, match="eps"):
        nb.extract_right_limits(rot, 3, 2000, eps=eps)
    with pytest.raises(SequenceError, match="eps"):
        nb.find_gap_certificate(rot, 3, 2000, eps=eps)
    with pytest.raises(SequenceError, match="eps"):
        nb.find_pair_certificate(rot, 3, 2000, eps=eps)


@pytest.mark.parametrize("eps", [5e-324, 1e-310, sys.float_info.min / 2])
def test_searches_reject_subnormal_eps_naming_it(eps):
    # 1/eps is inf for these, and the key grids cast inf * 0 = nan to int64
    rot = nb.make_sequence(nb.rotation(math.sqrt(2) - 1))
    for search in (nb.extract_right_limits, nb.find_gap_certificate,
                   nb.find_pair_certificate):
        with pytest.raises(SequenceError, match=f"got {eps}"):
            search(rot, 3, 2000, eps=eps)


def test_pair_search_rejects_eps_whose_key_grid_overflows_int64():
    # floor(value/eps) is an int64 key: bound/eps must stay below 2^62
    rot = nb.make_sequence(nb.rotation(math.sqrt(2) - 1))     # bound 1
    for eps in (1e-300, 2.0 ** -62):
        with pytest.raises(SequenceError, match=f"eps {eps} .*bound 1.0"):
            nb.find_pair_certificate(rot, 3, 2000, eps=eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nb.find_pair_certificate(rot, 3, 2000, eps=math.nextafter(2.0 ** -62, 1.0))
        # the gap search and extraction build no integer grid
        nb.find_gap_certificate(rot, 3, 2000, eps=1e-300)
        nb.extract_right_limits(rot, 3, 2000, eps=1e-300)


@pytest.mark.parametrize("min_recurrence", [0, -2])
def test_searches_reject_min_recurrence_below_1(min_recurrence):
    rs = nb.make_sequence(nb.rudin_shapiro())
    one = nb.make_sequence(nb.periodic([1]))
    with pytest.raises(SequenceError, match="min_recurrence"):
        nb.find_gap_certificate(rs, 5, 300, min_recurrence=min_recurrence)
    with pytest.raises(SequenceError, match="min_recurrence"):
        nb.find_pair_certificate(one, 5, 300, min_recurrence=min_recurrence)
    with pytest.raises(SequenceError, match="min_recurrence"):
        nb.extract_right_limits(rs, 3, 300, min_recurrence=min_recurrence)


def test_extract_rejects_negative_max_candidates():
    # -1 used to stop after the first candidate; 0 still means no limit
    soft = nb.make_sequence(nb.erdos("soft"))
    with pytest.raises(SequenceError, match="max_candidates"):
        nb.extract_right_limits(soft, 3, 2000, eps=0.1, max_candidates=-1)
    assert len(nb.extract_right_limits(soft, 3, 2000, eps=0.1,
                                       max_candidates=0).candidates) > 1


@pytest.mark.parametrize("p_max", [0, -1])
def test_szego_and_verdict_reject_p_max_below_1(p_max):
    # p_max = 0 used to report a mismatch at every p <= 0, with no witness
    rs = nb.make_sequence(nb.rudin_shapiro())
    with pytest.raises(SequenceError, match="p_max"):
        nb.szego_block_analysis(rs, p_max, 300)
    with pytest.raises(SequenceError, match="p_max"):
        nb.verdict(rs, AnalysisConfig(horizon=300, min_recurrence=100_000, p_max=p_max))


def test_szego_skips_undersupplied_p():
    proc = nb.iid_process([-1, 1], seed=3)
    path = nb.sample_process(proc, 600)
    rep = nb.szego_block_analysis(path, 10, 599)
    # 2^7 + 1 blocks of length 7 would need 903 values; one note covers 7..10
    assert list(rep.per_p) == list(range(1, 8))
    assert rep.per_p[7] == ("skipped (so is every p up to 10): 85 aligned blocks "
                            "available, 129 needed to guarantee recurrence")


def test_szego_dichotomy_at_desk_scale():
    cases = [
        nb.make_sequence(nb.periodic([1, 0, 1, 0, 0, 0])),
        nb.make_sequence(nb.periodic([2, 2, 2])),
        nb.make_sequence(nb.rudin_shapiro()),
        nb.sample_process(nb.iid_process([0, 1], seed=5), 3000),
        nb.make_sequence(nb.explicit([7, 3] + [1, 0, 2] * 900)),
    ]
    for seq in cases:
        rep = nb.szego_block_analysis(seq, 6, 2500)
        if rep.overall == "mismatch-at-every-p":
            assert rep.periodicity is None
        else:
            assert rep.overall == "eventually-periodic"
            assert rep.periodicity is not None


# ---------------------------------------------------------------------------
# periodicity


def test_periodicity_examples():
    seq = nb.make_sequence(nb.explicit([5] + [1, 0] * 300))
    assert nb.detect_eventual_periodicity(seq, 16, 16, 500) == (1, 2)
    assert nb.detect_eventual_periodicity(
        nb.make_sequence(nb.periodic([1])), 4, 4, 500) == (0, 1)


def test_periodicity_rudin_shapiro_none():
    rs = nb.make_sequence(nb.rudin_shapiro())
    assert nb.detect_eventual_periodicity(rs, 64, 64, 2 ** 14) is None


def test_periodicity_lexicographic_least():
    # (0, 5) beats (1, 2): preperiod is compared first
    vals = [3, 1, 0, 1, 0] * 60
    seq = nb.make_sequence(nb.explicit(vals))
    assert nb.detect_eventual_periodicity(seq, 8, 8, 299) == (0, 5)


def test_periodicity_precondition():
    seq = nb.make_sequence(nb.periodic([1]))
    with pytest.raises(SequenceError):
        nb.detect_eventual_periodicity(seq, 64, 64, 100)


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_gap_family():
    seq = nb.make_sequence(nb.gap_powers("factorials", 1))
    v = nb.verdict(seq, AnalysisConfig(horizon=20_000))
    assert v.kind == "StrongNaturalBoundaryEvidence"
    assert v.certificate.kind == "GapZeroFlank"
    assert v.certificate.verify(seq)


def test_verdict_periodic_rational_form():
    seq = nb.make_sequence(nb.periodic([1, 1, 0]))
    v = nb.verdict(seq, AnalysisConfig(horizon=2000))
    assert v.kind == "EventuallyPeriodic"
    assert v.periodicity == (0, 3)
    assert v.rational_form.exact
    # poles only at cube roots of unity
    assert {(p.num, p.den) for p in v.rational_form.poles} == {(0, 1), (1, 3), (2, 3)}
    for p in v.rational_form.poles:
        assert 3 % p.den == 0


def test_verdict_rational_form_of_integers_past_2_to_the_53():
    # 2^60 + z^2/(1 - z^2): a float sum of the numerator dropped the z^2 term
    seq = nb.make_sequence(nb.explicit([2 ** 60] + [0, 1] * 600))
    v = nb.verdict(seq, AnalysisConfig(horizon=1000))
    assert v.kind == "EventuallyPeriodic" and v.periodicity == (1, 2)
    form = v.rational_form
    assert form.exact and form.denominator == (-1, 0, 1)
    assert {(p.num, p.den) for p in form.poles} == {(0, 1), (1, 2)}


def test_verdict_snapped_sequence_goes_to_block_analysis():
    # float perturbation of an aperiodic +-1 stream: inconclusive as floats,
    # strong evidence after snapping to the limit points
    rs = nb.make_sequence(nb.rudin_shapiro())
    vals = [v.real * (1 + 1e-6 / (n + 1)) for n, v in enumerate(rs.prefix(3000))]
    noisy = nb.make_sequence(nb.explicit(vals))
    snapped = nb.snap_to_limit_points(noisy, [-1, 1], onset_tol=1e-3,
                                      scan_horizon=2999)
    v = nb.verdict(snapped, AnalysisConfig(horizon=2999, delta=2.0, eps=0.0))
    assert v.kind == "StrongNaturalBoundaryEvidence"


def test_verdict_inconclusive_short_float():
    rng = np.random.default_rng(0)
    seq = nb.make_sequence(nb.explicit(rng.random(700)))
    v = nb.verdict(seq, AnalysisConfig(horizon=699, width=6, delta=0.9))
    assert v.kind == "Inconclusive"
    assert v.probes


def test_verdict_runs_the_periodicity_scan_once(monkeypatch):
    # no certificate (delta 3 exceeds |a - b| for +-1 values) and some
    # block length without a witness: the analysis would rerun the scan,
    # whose answer the verdict threw away
    calls = []
    scan = rightlimits.detect_eventual_periodicity

    def counting(*args, **kwargs):
        calls.append(args[1:4])
        return scan(*args, **kwargs)

    monkeypatch.setattr(rightlimits, "detect_eventual_periodicity", counting)
    v = nb.verdict(nb.make_sequence(nb.rudin_shapiro()),
                   AnalysisConfig(horizon=2000, delta=3.0))
    assert calls == [(64, 64, 2000)]
    assert v.to_json_dict() == {
        "kind": "Inconclusive", "certificate": None, "szego": None,
        "periodicity": None, "rational_form": None,
        "reason": "no certificate found and no periodicity detected within "
                  "the configured horizon",
        "probes": ["periodicity(max_period=64, max_preperiod=64)",
                   "gap-certificate(backward)", "pair-certificate(backward)",
                   "pair-certificate(forward)", "szego(p_max=8)"]}
    # the public analysis still reruns it
    calls.clear()
    report = nb.szego_block_analysis(nb.make_sequence(nb.rudin_shapiro()), 8, 2000)
    assert report.overall == "horizon-exhausted" and calls == [(64, 64, 2000)]


def test_certificate_json_stable_fields():
    seq = nb.make_sequence(nb.gap_powers("factorials", 1))
    cert = nb.find_gap_certificate(seq, 4, 1000, eps=0.0, delta=0.5)
    d = cert.to_json_dict()
    assert {"kind", "pairs", "flank", "eps", "delta", "witnesses"} <= d.keys()
    assert d["flank"] == {"side": "backward", "range": [1, 4]}

    rs = nb.make_sequence(nb.rudin_shapiro())
    cert2 = nb.find_pair_certificate(rs, 4, 1024, eps=0.0, delta=2.0)
    d2 = cert2.to_json_dict()
    assert d2["kind"] == "PairMismatch"
    assert d2["pairs"] and d2["witnesses"] == [p[0] for p in d2["pairs"]]


def test_verdict_json_round():
    seq = nb.make_sequence(nb.periodic([1, 1, 0]))
    v = nb.verdict(seq, AnalysisConfig(horizon=2000))
    d = v.to_json_dict()
    assert d["kind"] == "EventuallyPeriodic"
    assert d["rational_form"]["poles"]


# ---------------------------------------------------------------------------
# Signed zeros and explicit re-verification


def test_extract_eps0_signed_zeros_are_one_value():
    # numerically period 3; the period-6 pattern differs only in the sign
    # of its zeros
    plain = nb.make_sequence(nb.periodic([0.0, 1.0, 2.0]))
    signed = nb.make_sequence(nb.periodic([0.0, 1.0, 2.0, -0.0, 1.0, 2.0]))
    a = nb.extract_right_limits(plain, 2, 300, eps=0.0)
    b = nb.extract_right_limits(signed, 2, 300, eps=0.0)
    assert a.clusters_total == b.clusters_total == 3


def test_szego_signed_zero_pigeonhole():
    seq = nb.make_sequence(nb.explicit([0.0, -0.0, 1.0, 1.0]))
    rep = nb.szego_block_analysis(seq, 1, 2)
    assert rep.per_p[1] == SzegoWitness(1, 0, 1, 2)
    assert rep.per_p[1].verify(seq)


_FORGED_SCRIPT = r"""
import sys
import nbscope as nb
from nbscope import randomseries, rightlimits

assert sys.flags.optimize >= 1
forged = nb.NonReflectionlessCertificate(
    kind="PairMismatch", witnesses=(10,), flank_side="backward", flank_width=3,
    eps=0.0, delta=0.5, separation=1.0, pairs=((10, 11), (20, 21), (30, 31)))
rejected = []

rightlimits.find_pair_certificate = lambda *a, **k: forged
try:
    nb.verdict(nb.make_sequence(nb.periodic([1.0, 1.0, 0.0, 1.0, 0.0])),
               nb.AnalysisConfig(horizon=50, max_period=4, max_preperiod=0))
except nb.VerificationError:
    rejected.append("verdict")

randomseries.find_pair_certificate = lambda *a, **k: forged
try:
    nb.certificate_rate_experiment(nb.iid_process([0, 1], seed=1), 1, 3, 200,
                                   eps=0.0, delta=0.5)
except nb.VerificationError:
    rejected.append("montecarlo")

unbounded = nb.OneSidedSequence(lambda idx: [2.0] * len(idx), 1.0, "forged-bound")
for read in (lambda: unbounded.eval(0), lambda: unbounded.prefix(4)):
    try:
        read()
    except nb.VerificationError:
        rejected.append("bound")
print(",".join(rejected))
"""


def test_forged_certificate_rejected_under_optimize():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", _FORGED_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "verdict,montecarlo,bound,bound"
