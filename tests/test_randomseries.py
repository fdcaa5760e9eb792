"""Seeded processes, variance diagnostics, separation, Monte Carlo."""

import json
import math

import numpy as np
import pytest

import nbscope as nb
from nbscope.randomseries import _rng_for
from nbscope.sequences import SequenceError


def test_seeded_reproducibility():
    spec = nb.iid_process([0, 1], [0.5, 0.5], seed=42)
    a = nb.sample_process(spec, 1000).prefix(1000)
    b = nb.sample_process(spec, 1000).prefix(1000)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_diverge_early():
    a = nb.sample_process(nb.iid_process([0, 1], seed=42), 100).prefix(100)
    b = nb.sample_process(nb.iid_process([0, 1], seed=43), 100).prefix(100)
    # agreement of the whole block has probability 2^-100; flagged statistical
    assert not np.array_equal(a, b)


def test_path_respects_bound():
    spec = nb.iid_process([0.5, -1j, 1], seed=9)
    path = nb.sample_process(spec, 5000)
    assert float(np.max(np.abs(path.prefix(5000)))) <= spec.bound


def test_trial_streams_differ():
    spec = nb.iid_process([0, 1], seed=1)
    a = nb.sample_process(spec, 200, trial=0).prefix(200)
    b = nb.sample_process(spec, 200, trial=1).prefix(200)
    assert not np.array_equal(a, b)


def test_markov_process_path():
    spec = nb.markov_process([0, 1], [[0.9, 0.1], [0.5, 0.5]], seed=5)
    path = nb.sample_process(spec, 2000)
    vals = path.prefix(2000).real
    assert set(np.unique(vals)) <= {0.0, 1.0}
    # heavy self-loop at state 0 biases occupation toward 0
    assert vals.mean() < 0.5


def reference_markov_path(spec, length, trial=None):
    """The per-step Markov sampling loop that sample_process replaced, verbatim."""
    rng = _rng_for(spec, trial)
    em = np.asarray(spec.params["emissions"], dtype=complex)
    tr = np.asarray(spec.params["transition"], dtype=float)
    k = len(em)
    states = np.empty(length, dtype=np.int64)
    states[0] = rng.choice(k, p=spec.params["initial"])
    # one uniform per step, inverted through the row CDF
    u = rng.random(length - 1)
    cdf = np.cumsum(tr, axis=1)
    for i in range(1, length):
        states[i] = min(int(np.searchsorted(cdf[states[i - 1]], u[i - 1], side="right")), k - 1)
    return em[states]


def _seeded_transition(rng, k):
    tr = rng.dirichlet(np.ones(k), size=k)
    if k > 1:
        tr[0] = 0.0                      # a row with zero-probability entries
        tr[0, int(rng.integers(k))] = 1.0
        tr[-1, 0] = 0.0                  # a transition that never happens
        tr[-1] /= tr[-1].sum()
    return tr


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_markov_path_matches_reference_loop(k):
    rng = np.random.default_rng(100 + k)
    for case in range(4):
        tr = _seeded_transition(rng, k)
        initial = rng.dirichlet(np.ones(k))
        spec = nb.markov_process(rng.integers(-3, 4, k) + 1j * rng.integers(0, 2, k),
                                 tr, initial, seed=int(rng.integers(1 << 30)))
        for length, trial in ((1, None), (2, 0), (997, None), (5000, case)):
            got = nb.sample_process(spec, length, trial=trial).prefix(length)
            want = reference_markov_path(spec, length, trial)
            assert got.tobytes() == want.tobytes(), (k, case, length)
    # a row whose CDF ends well below 1 (markov_process allows only rounding
    # there), so many draws land past it and take the clip to state k - 1
    spec = nb.markov_process(np.arange(k), _seeded_transition(rng, k), seed=k)
    short = [list(row) for row in spec.params["transition"]]
    short[-1] = [0.5 * p for p in short[-1]]
    spec = nb.ProcessSpec("markov", dict(spec.params, transition=short), spec.bound, k)
    got = nb.sample_process(spec, 3000).prefix(3000)
    assert got.tobytes() == reference_markov_path(spec, 3000).tobytes()


def test_markov_validation():
    with pytest.raises(SequenceError):
        nb.markov_process([0, 1], [[0.9, 0.2], [0.5, 0.5]])


def test_variance_window_bernoulli():
    spec = nb.iid_process([0, 1], [0.5, 0.5], seed=10)
    for item in nb.variance_window(spec, [0, 3, 17], samples=400):
        assert abs(item.variance - 0.25) <= 3 * item.standard_error


def test_variance_window_constant_zero():
    spec = nb.iid_process([0.7], [1.0], seed=10)
    for item in nb.variance_window(spec, [0, 5], samples=120):
        assert item.variance == 0.0
        assert item.standard_error == 0.0


def test_variance_window_pm_one():
    spec = nb.iid_process([-1, 1], seed=2)
    for item in nb.variance_window(spec, [1, 2], samples=500):
        assert abs(item.variance - 1.0) <= 3 * item.standard_error + 1e-9


def test_separated_values_bernoulli():
    sep = nb.separated_values(
        (np.array([0, 1], dtype=complex), np.array([0.5, 0.5])), 4, 0.25)
    assert sep.z == 0 and sep.w == 1
    assert sep.separation == 1.0 >= math.sqrt(0.25 / 2)
    assert sep.prob_z >= 1.0 / sep.cover_size
    assert sep.prob_w >= sep.min_prob_w


def test_separated_values_constant_none():
    assert nb.separated_values(
        (np.array([1.0 + 0j]), np.array([1.0])), 4, 0.0) is None


def test_separated_values_pm_one():
    sep = nb.separated_values(
        (np.array([-1, 1], dtype=complex), np.array([0.5, 0.5])), 4, 1.0)
    assert (sep.z, sep.w) == (-1, 1)
    assert sep.separation == 2.0 >= math.sqrt(0.5)


def test_separated_values_from_samples():
    rng = np.random.default_rng(0)
    draws = rng.choice([0.0, 1.0], size=2000)
    sigma = float(np.var(draws))
    sep = nb.separated_values(draws.astype(complex), 4, sigma)
    # z takes the heavier empirical atom; together they recover {0, 1}
    got = sorted((abs(sep.z), abs(sep.w)))
    assert got[0] < 0.05 and abs(got[1] - 1) < 0.05
    assert sep.separation > 0.9
    assert sep.prob_z >= 1.0 / sep.cover_size


def test_experiment_finds_certificates():
    spec = nb.iid_process([0, 1], [0.5, 0.5], seed=42)
    rep = nb.certificate_rate_experiment(spec, trials=5, width=3,
                                         horizon=10_000, eps=0.0, delta=1.0)
    assert rep.found_count == 5
    assert rep.separation.separation == 1.0
    for tr in rep.results:
        assert tr.found and tr.pairs
        path = nb.sample_process(spec, 10_001, trial=tr.trial)
        for n, m in tr.pairs:
            assert nb.verify_pair(path, n, m, 3, 0.0, 1.0, tr.flank_side)


def test_experiment_refuses_constant_process():
    spec = nb.iid_process([1.0], [1.0], seed=1)
    with pytest.raises(SequenceError) as exc:
        nb.certificate_rate_experiment(spec, trials=2, width=3,
                                       horizon=1000, eps=0.0, delta=0.5)
    assert "unsatisfiable" in str(exc.value)


def test_experiment_refuses_oversized_delta():
    spec = nb.iid_process([0, 1], seed=1)
    with pytest.raises(SequenceError):
        nb.certificate_rate_experiment(spec, trials=2, width=3,
                                       horizon=1000, eps=0.0, delta=1.5)


def test_rotation_driven_constant_yields_nothing():
    spec = nb.rotation_process(math.sqrt(2) - 1, 0.0,
                               boundary_fn=(lambda x: 1.0, 1.0), seed=0)
    path = nb.sample_process(spec, 2000)
    assert nb.find_pair_certificate(path, 3, 1999, eps=0.05, delta=0.5,
                                    flank_side="backward") is None
    assert nb.find_pair_certificate(path, 3, 1999, eps=0.05, delta=0.5,
                                    flank_side="forward") is None


def test_report_bit_identical_reproduction():
    spec = nb.iid_process([0, 1], [0.5, 0.5], seed=7)
    r1 = nb.certificate_rate_experiment(spec, trials=4, width=3,
                                        horizon=4000, eps=0.0, delta=1.0)
    r2 = nb.certificate_rate_experiment(spec, trials=4, width=3,
                                        horizon=4000, eps=0.0, delta=1.0)
    assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())


@pytest.mark.parametrize("make,message", [
    (lambda: nb.iid_process([0.0, math.nan]), "iid values must be finite"),
    (lambda: nb.iid_process([0.0, 1.0], [math.nan, math.nan]),
     "iid probabilities must be finite"),
    (lambda: nb.iid_process([0.0, 1.0], [math.inf, 0.0]),
     "iid probabilities must be finite"),
    (lambda: nb.markov_process([0.0, complex(1, math.inf)], [[0.5, 0.5], [0.5, 0.5]]),
     "markov values must be finite"),
    (lambda: nb.markov_process([0.0, 1.0], [[0.5, 0.5], [math.nan, 1.0]]),
     "transition probabilities must be finite"),
    (lambda: nb.markov_process([0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]], [math.nan, 1.0]),
     "initial probabilities must be finite"),
])
def test_process_specs_reject_non_finite_inputs(make, message):
    # nan transition rows used to pass the row-sum check (hit rate 1.0), and
    # nan values or probabilities ended in a numpy ValueError
    with pytest.raises(SequenceError, match=message):
        make()
