"""Seeded processes, variance diagnostics, separation, Monte Carlo."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import nbscope as nb
from nbscope import randomseries
from nbscope.analytic import TERM_CAP, NumericCapError
from nbscope.randomseries import _distribution_of, _rng_for, _variance_with_se
from nbscope.sequences import SequenceError, _exact_kind


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


def old_cover_mass(points, weights, carr, radius):
    """separated_values' mass of each cover center, as it scanned every
    point for every center, verbatim."""
    return np.array([weights[np.abs(points - c) <= radius].sum() for c in carr])


def _mass_distributions():
    rng = np.random.default_rng(31)
    for k in range(2, 9):
        values = rng.normal(size=k) + 1j * rng.normal(size=k) * (k % 2)
        probs = rng.random(k)
        yield f"iid-{k}", values, probs / probs.sum()
    for spec in (nb.markov_process([0, 1, 1j, -0.5], _seeded_transition(rng, 4), seed=3),
                 nb.rotation_process(0.41421356237309503, 0.3, seed=4),
                 nb.rotation_process(0.6180339887498949, boundary_fn="half-indicator",
                                     seed=5)):
        path = randomseries._draw(spec, 600)[0]
        yield spec.kind, path, np.full(path.size, 1.0 / path.size)


@pytest.mark.parametrize("centers", [10, 1000, 100_000])
def test_cover_mass_matches_the_scan_it_replaced(centers, monkeypatch):
    for name, points, weights in _mass_distributions():
        if centers > 1000 and name in ("iid-3", "iid-4", "iid-6", "iid-7"):
            continue        # the old scan takes about 1 s a distribution here
        K = max(float(np.max(np.abs(points))), 1e-12)
        m = max(1, round(math.sqrt(centers / 1.2) / K))     # about that many centers
        carr = np.asarray(randomseries._hex_cover(K, m), dtype=complex)
        want = old_cover_mass(points, weights, carr, 1.0 / m)
        got = randomseries._cover_mass(points, weights, carr, m)
        assert got.tobytes() == want.tobytes(), (name, m, carr.size)
        if centers > 1000:
            continue
        # and every pick and tie-break that follows
        dist = (points, weights) if name.startswith("iid") else points
        sigma = float(np.mean(np.abs(points - points.mean()) ** 2))
        fast = nb.separated_values(dist, m, sigma)
        monkeypatch.setattr(randomseries, "_cover_mass",
                            lambda p, w, c, m_eff: old_cover_mass(p, w, c, 1.0 / m_eff))
        assert nb.separated_values(dist, m, sigma) == fast, name
        monkeypatch.undo()


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


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
@pytest.mark.parametrize("make", [
    lambda seed: nb.iid_process([0.0, 1.0], seed=seed),
    lambda seed: nb.markov_process([0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]], seed=seed),
    lambda seed: nb.rotation_process(0.41421356237309515, seed=seed),
])
def test_process_specs_reject_bad_seeds_naming_them(make, seed):
    # a negative seed used to reach np.random.SeedSequence and end in a
    # ValueError at the first draw
    message = re.escape(f"seed must be an integer >= 0, got {seed!r}")
    with pytest.raises(SequenceError, match=message):
        make(seed)
    assert make(np.int64(7)).seed == 7 and type(make(np.int64(7)).seed) is int


@pytest.mark.parametrize("sigma, bound, message", [
    (math.nan, None, "sigma must be finite, got nan"),
    (math.inf, None, "sigma must be finite, got inf"),
    (0.25, math.inf, "cover radius K must be finite, got inf"),
    # |1.5e308 + 1.5e308j| overflows to inf
    (0.25, None, "cover radius K must be finite, got inf"),
    # atoms 1e100 and 0: about 10^200 lattice points
    (2.5e199, 1e100, r"radius-1e\+100 disk .* up to .* lattice points \(cap 1000000\)"),
    # atoms 1 and 1.000001: m_eff about 2.8e6, about 10^13 lattice points
    (2.5e-13, 1.000001, r"radius 1/2828428 scans up to 1.\d+e\+13 lattice points "
                        r"\(cap 1000000\)"),
])
def test_separated_values_refuses_non_finite_sigma_or_cover_radius(monkeypatch, sigma,
                                                                   bound, message):
    # each ended in a traceback from _hex_cover; the refusal comes before it
    monkeypatch.setattr(randomseries, "_hex_cover", lambda *a: pytest.fail("cover built"))
    atoms = (np.array([0, 1.5e308 + 1.5e308j]), np.array([0.5, 0.5]))
    with pytest.raises(SequenceError, match=message):
        nb.separated_values(atoms, 4, sigma, bound=bound)


def _exact_sigma(values, probs):
    """sum p |v - mean|^2, mean = sum p v, in exact rational arithmetic on
    the float inputs."""
    ps = [Fraction(float(p)) for p in probs]
    re = [Fraction(complex(v).real) for v in values]
    im = [Fraction(complex(v).imag) for v in values]
    mr = sum(p * x for p, x in zip(ps, re))
    mi = sum(p * y for p, y in zip(ps, im))
    return sum(p * ((x - mr) ** 2 + (y - mi) ** 2) for p, x, y in zip(ps, re, im))


def test_iid_sigma_matches_exact_arithmetic():
    # E|X|^2 - |EX|^2 gave 2.498e-13 for atoms 1 and 1.000001 (exact 2.5e-13)
    rng = np.random.default_rng(17)
    cases = [([1.0, 1.000001], None), ([1e8, 1e8 + 1], [0.25, 0.75]),
             ([1j, 1j + 1e-6, 1.0 + 1j], [0.2, 0.3, 0.5]),
             ([-0.0, 1, complex(-0.0, 1), 0.5], [0.3, 0.3, 0.2, 0.2]),
             ([0.0, 1.0], [0.5, 0.5]), ([-1.0, 1.0], None)]
    for n in (2, 3, 7):
        centre = complex(*rng.uniform(-10, 10, 2))
        vals = centre + rng.uniform(-1e-6, 1e-6, n) + 1j * rng.uniform(-1e-6, 1e-6, n)
        cases.append((vals.tolist(), rng.dirichlet(np.ones(n)).tolist()))
    for values, probs in cases:
        spec = nb.iid_process(values, probs, seed=1)
        sigma = _distribution_of(spec)[1]
        want = _exact_sigma(spec.params["values"], spec.params["probs"])
        assert math.isclose(sigma, float(want), rel_tol=1e-12), (values, sigma, float(want))


# --- the prefix-based random-series code that reading the drawn path replaced,
# kept as the oracle (verbatim except that the layout is passed to the
# constructor)

def old_sample_process(spec, length, trial=None):
    if length < 1:
        raise SequenceError("path length must be >= 1")
    if spec.kind == "iid":
        rng = _rng_for(spec, trial)
        vals = np.asarray(spec.params["values"], dtype=complex)
        idx = rng.choice(len(vals), size=length, p=spec.params["probs"])
        path = vals[idx]
        kind = _exact_kind(spec.params["values"])
    elif spec.kind == "markov":
        rng = _rng_for(spec, trial)
        em = np.asarray(spec.params["emissions"], dtype=complex)
        tr = np.asarray(spec.params["transition"], dtype=float)
        k = len(em)
        state = int(rng.choice(k, p=spec.params["initial"]))
        u = rng.random(length - 1)
        cdf = np.cumsum(tr, axis=1)
        step_to = [np.minimum(np.searchsorted(row, u, side="right"), k - 1).tolist()
                   for row in cdf]
        states = [state]
        for i in range(length - 1):
            state = step_to[state][i]
            states.append(state)
        path = em[np.array(states, dtype=np.int64)]
        kind = _exact_kind(spec.params["emissions"])
    elif spec.kind == "rotation-driven":
        gen = nb.make_sequence(nb.GeneratorSpec("rotation", dict(spec.params)))
        path = gen.prefix(length)
        kind = "float"
    else:
        raise SequenceError(f"unknown process kind {spec.kind!r}")
    return nb.OneSidedSequence(
        lambda lo, hi: path[lo:hi], spec.bound, f"stochastic-{spec.kind}",
        {"seed": spec.seed, "trial": trial, "kind": spec.kind},
        value_kind=kind, length=length, real_valued=not np.any(path.imag))


def old_variance_window(spec, index_set, samples, trial_base=1_000_000):
    indices = sorted(int(i) for i in index_set)
    length = indices[-1] + 1
    draws = np.empty((samples, len(indices)), dtype=complex)
    for s in range(samples):
        path = old_sample_process(spec, length, trial=trial_base + s)
        vals = path.prefix(length)
        draws[s] = vals[indices]
    out = []
    for j, idx in enumerate(indices):
        var, se = _variance_with_se(draws[:, j])
        out.append(randomseries.IndexVariance(idx, var, se, samples))
    return out


def old_distribution_of(spec, calib_len=4096):
    if spec.kind == "iid":
        values = np.asarray(spec.params["values"], dtype=complex)
        probs = np.asarray(spec.params["probs"], dtype=float)
        mean = np.sum(values * probs)
        # the sigma of the two-pass sum that replaced E|X|^2 - |EX|^2 (see
        # test_iid_sigma_matches_exact_arithmetic)
        sigma = float(np.sum(probs * np.abs(values - mean) ** 2))
        return (values, probs), sigma
    path = old_sample_process(spec, calib_len, trial=None).prefix(calib_len)
    mean = path.mean()
    sigma = float(np.mean(np.abs(path - mean) ** 2))
    return path, sigma


def old_experiment(spec, trials, width, horizon, eps, delta, min_recurrence=3,
                   cover_m=8):
    dist, sigma = old_distribution_of(spec)
    sep = nb.separated_values(dist, cover_m, sigma, bound=spec.bound)

    def run(trial):
        path = old_sample_process(spec, horizon + 1, trial=trial)
        var, se = _variance_with_se(path.prefix(horizon + 1))
        for side in ("backward", "forward"):
            cert = nb.find_pair_certificate(path, width, horizon, eps=eps,
                                            delta=delta, flank_side=side,
                                            min_recurrence=min_recurrence)
            if cert is not None:
                assert cert.verify(path)
                return randomseries.TrialResult(trial, True, cert.pairs, side, var, se)
        return randomseries.TrialResult(trial, False, (), None, var, se)

    results = [run(trial) for trial in range(trials)]
    found = sum(1 for r in results if r.found)
    return randomseries.MonteCarloReport(
        trials=trials, found_count=found, results=results, separation=sep,
        delta=delta, width=width, horizon=horizon, eps=eps,
        params={"kind": spec.kind, "seed": spec.seed,
                "min_recurrence": min_recurrence})


# signed zeros among the atoms: a sequence read gives them as +0, and so
# must the drawn path
_PROCESSES = {
    "iid": nb.iid_process([-0.0, 1, complex(-0.0, 1), 0.5], [0.3, 0.3, 0.2, 0.2], seed=3),
    "iid-real": nb.iid_process([-0.0, 1.0, -1.0], seed=4),
    "markov": nb.markov_process([complex(-0.0, -0.0), 1, 0.5j],
                                [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.4, 0.0, 0.6]],
                                seed=5),
    "rotation-driven": nb.rotation_process(math.sqrt(2) - 1, 0.25, seed=6),
    "rotation-driven-half": nb.rotation_process(math.sqrt(5) % 1, 0.0,
                                                "half-indicator", seed=7),
}


@pytest.mark.parametrize("name", sorted(_PROCESSES))
def test_path_consumers_match_the_prefix_based_code(name):
    spec = _PROCESSES[name]
    for length, trial in ((1, None), (4097, 2)):
        new, old = nb.sample_process(spec, length, trial), old_sample_process(spec, length, trial)
        assert new.prefix(length).tobytes() == old.prefix(length).tobytes()
        assert (new.family, new.params, new.bound, new.value_kind, new.length,
                new.real_valued) == (old.family, old.params, old.bound,
                                     old.value_kind, old.length, old.real_valued)
    assert (nb.variance_window(spec, [0, 7, 300], samples=120)
            == old_variance_window(spec, [0, 7, 300], samples=120))
    (got, got_sigma), (want, want_sigma) = _distribution_of(spec), old_distribution_of(spec)
    assert got_sigma == want_sigma
    if spec.kind == "iid":
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    else:
        assert got.tobytes() == want.tobytes()
    eps = 0.0 if spec.kind != "rotation-driven" else 0.05
    delta = 0.5 * nb.separated_values(want, 8, want_sigma, bound=spec.bound).separation
    args = dict(trials=3, width=3, horizon=3000, eps=eps, delta=delta)
    new = nb.certificate_rate_experiment(spec, **args)
    old = old_experiment(spec, **args)
    assert json.dumps(new.to_json_dict()) == json.dumps(old.to_json_dict())
    assert new.found_count > 0 or spec.kind == "rotation-driven"


def test_huge_path_length_is_refused_before_anything_is_drawn(monkeypatch):
    def never(*args):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(randomseries, "_rng_for", never)
    monkeypatch.setattr(randomseries, "_gather", never)
    for spec in _PROCESSES.values():
        for call in (lambda: nb.sample_process(spec, 10 ** 11),
                     lambda: randomseries._draw(spec, TERM_CAP + 1),
                     lambda: nb.variance_window(spec, [TERM_CAP], samples=100)):
            with pytest.raises(NumericCapError) as exc:
                call()
            assert str(TERM_CAP) in str(exc.value)
    with pytest.raises(NumericCapError, match="path length 100000000001 exceeds the cap"):
        nb.certificate_rate_experiment(_PROCESSES["iid"], trials=2, width=3,
                                       horizon=10 ** 11, eps=0.0, delta=0.5)


def test_path_length_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(randomseries, "TERM_CAP", 50)
    spec = _PROCESSES["markov"]
    assert randomseries._draw(spec, 50)[0].size == 50
    with pytest.raises(NumericCapError, match="path length 51 exceeds the cap 50"):
        randomseries._draw(spec, 51)
