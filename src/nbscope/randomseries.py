"""Seeded stochastic coefficient processes and the pair-certificate
Monte Carlo experiment.

A bounded random coefficient sequence whose per-index variance stays
positive along some index subsequence admits, almost surely, two right
limits agreeing off the center but differing at it; at desk scale this
shows up as pair-mismatch certificates on sampled paths.  The experiment
here samples seeded paths, runs the pair search on each, and reports the
hit rate together with variance diagnostics and the constructive
two-value separation used to justify the center-gap target.

Reproducibility: every path is a pure function of (process spec, seed,
trial index), and trials run and are aggregated in trial order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .analytic import TERM_CAP, NumericCapError
from .rightlimits import _first_certificate, _resolve_eps
from .sequences import (GeneratorSpec, OneSidedSequence, SequenceError,
                        _check_finite, _exact_kind, _gather, make_sequence)

__all__ = [
    "ProcessSpec",
    "iid_process",
    "markov_process",
    "rotation_process",
    "sample_process",
    "IndexVariance",
    "variance_window",
    "Separation",
    "separated_values",
    "TrialResult",
    "MonteCarloReport",
    "certificate_rate_experiment",
]

_ROW_SUM_TOL = 1e-12
# lattice points that separated_values may scan for its disk cover
_COVER_CAP = 10 ** 6


@dataclass(frozen=True)
class ProcessSpec:
    """A bounded stochastic coefficient process.

    ``kind`` is ``iid`` (independent draws from finitely many atoms),
    ``markov`` (finite-state chain with per-state emission values), or
    ``rotation-driven`` (deterministic samples of a boundary function along
    an irrational rotation; the seed is ignored).  ``bound`` certifies
    sup |a_n| over all randomness.
    """

    kind: str
    params: dict
    bound: float
    seed: int


def iid_process(values, probs=None, seed: int = 0) -> ProcessSpec:
    vals = tuple(complex(v) for v in values)
    if not vals:
        raise SequenceError("iid process needs at least one atom")
    _check_finite(np.asarray(vals), "iid values")
    if probs is None:
        probs = tuple(1.0 / len(vals) for _ in vals)
    probs = tuple(float(p) for p in probs)
    _check_finite(np.asarray(probs), "iid probabilities")
    if len(probs) != len(vals):
        raise SequenceError("values and probs must have equal length")
    if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > _ROW_SUM_TOL:
        raise SequenceError("probs must be nonnegative and sum to 1")
    bound = max(abs(v) for v in vals)
    return ProcessSpec("iid", {"values": vals, "probs": probs}, bound,
                       _check_seed(seed))


def markov_process(emissions, transition, initial=None, seed: int = 0) -> ProcessSpec:
    em = tuple(complex(v) for v in emissions)
    _check_finite(np.asarray(em, dtype=complex), "markov values")
    try:
        tr = np.asarray(transition, dtype=float)
    except (TypeError, ValueError):     # a ragged or non-numeric matrix
        raise SequenceError(f"transition matrix must be rows of numbers of equal "
                            f"length, got {transition!r}") from None
    k = len(em)
    if tr.shape != (k, k):
        raise SequenceError("transition matrix shape must match emissions")
    _check_finite(tr, "transition probabilities")
    if np.any(tr < 0) or np.any(np.abs(tr.sum(axis=1) - 1.0) > _ROW_SUM_TOL):
        raise SequenceError("transition rows must be nonnegative and sum to 1")
    if initial is None:
        initial = tuple(1.0 / k for _ in range(k))
    initial = tuple(float(p) for p in initial)
    _check_finite(np.asarray(initial), "initial probabilities")
    if abs(sum(initial) - 1.0) > _ROW_SUM_TOL or any(p < 0 for p in initial):
        raise SequenceError("initial distribution must be a distribution")
    bound = max(abs(v) for v in em)
    return ProcessSpec("markov",
                       {"emissions": em, "transition": tr.tolist(),
                        "initial": initial},
                       bound, _check_seed(seed))


def rotation_process(q: float, theta: float = 0.0,
                     boundary_fn="fractional-part", seed: int = 0) -> ProcessSpec:
    spec = GeneratorSpec("rotation",
                         {"q": q, "theta": theta, "boundary_fn": boundary_fn})
    probe = make_sequence(spec)  # validates q and the boundary function
    return ProcessSpec("rotation-driven",
                       {"q": q, "theta": theta,
                        "boundary_fn": spec.params["boundary_fn"]},
                       probe.bound, _check_seed(seed))


def _check_seed(seed) -> int:
    """``seed`` as an int; SequenceError naming it unless it is an integer
    >= 0, the seeds np.random.SeedSequence takes."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise SequenceError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


def _rng_for(spec: ProcessSpec, trial=None):
    key = () if trial is None else (int(trial),)
    return np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=key))


def _draw(spec: ProcessSpec, length: int, trial=None):
    """One path of the process as (values, value kind): its ``length``
    values in one complex array, signed zeros as +0 as a read gives them.
    A length over TERM_CAP is refused before anything is drawn."""
    if length < 1:
        raise SequenceError("path length must be >= 1")
    if length > TERM_CAP:
        raise NumericCapError(
            length, f"path length {length} exceeds the cap {TERM_CAP}")
    if spec.kind == "iid":
        rng = _rng_for(spec, trial)
        vals = np.asarray(spec.params["values"], dtype=complex) + 0j
        idx = rng.choice(len(vals), size=length, p=spec.params["probs"])
        return vals[idx], _exact_kind(spec.params["values"])
    if spec.kind == "markov":
        rng = _rng_for(spec, trial)
        em = np.asarray(spec.params["emissions"], dtype=complex) + 0j
        tr = np.asarray(spec.params["transition"], dtype=float)
        k = len(em)
        state = int(rng.choice(k, p=spec.params["initial"]))
        # one uniform per step, inverted through the row CDF of every state
        # at once; the walk then only picks the row of the current state
        u = rng.random(length - 1)
        cdf = np.cumsum(tr, axis=1)
        step_to = [np.minimum(np.searchsorted(row, u, side="right"), k - 1).tolist()
                   for row in cdf]
        states = [state]
        for i in range(length - 1):
            state = step_to[state][i]
            states.append(state)
        return em[np.array(states, dtype=np.int64)], _exact_kind(spec.params["emissions"])
    if spec.kind == "rotation-driven":
        gen = make_sequence(GeneratorSpec("rotation", dict(spec.params)))
        return _gather(gen, length, complex), "float"
    raise SequenceError(f"unknown process kind {spec.kind!r}")


def _path_sequence(spec: ProcessSpec, path: np.ndarray, kind: str,
                   trial=None) -> OneSidedSequence:
    """The drawn ``path`` as an explicit sequence, reading the array itself."""
    real = not np.any(path.imag)
    return OneSidedSequence(
        (path.real if real else path).__getitem__, spec.bound, f"stochastic-{spec.kind}",
        {"seed": spec.seed, "trial": trial, "kind": spec.kind},
        value_kind=kind, length=len(path), real_valued=real)


def sample_process(spec: ProcessSpec, length: int, trial=None) -> OneSidedSequence:
    """Draw one path of the process as an explicit sequence.

    The path is a deterministic function of (spec, seed, trial): repeated
    calls reproduce it bit for bit.
    """
    return _path_sequence(spec, *_draw(spec, length, trial), trial)


# ---------------------------------------------------------------------------
# Variance diagnostics


@dataclass(frozen=True)
class IndexVariance:
    index: int
    variance: float
    standard_error: float
    samples: int


def _variance_with_se(x: np.ndarray):
    """Unbiased variance of complex draws with a batch-means standard error.

    Variance is sum |x - mean|^2 / (n-1); draws with a single value give
    (0, 0) exactly.  The SE comes from the spread of per-batch variances
    over disjoint batches (sd / sqrt(#batches)), which stays honest for
    two-point distributions where moment plug-in and jackknife both
    degenerate at symmetric samples.
    """
    n = x.size
    if n < 2 or bool(np.all(x == x[0])):
        return 0.0, 0.0
    mean = x.mean()
    var = float(np.sum(np.abs(x - mean) ** 2) / (n - 1))
    k = min(20, n // 10)
    if k < 2:
        # too few draws for batching: normal-theory fallback
        return var, var * math.sqrt(2.0 / (n - 1))
    bsize = n // k
    trimmed = x[: k * bsize].reshape(k, bsize)
    bmean = trimmed.mean(axis=1, keepdims=True)
    bvar = np.sum(np.abs(trimmed - bmean) ** 2, axis=1) / (bsize - 1)
    se = float(bvar.std(ddof=1) / math.sqrt(k))
    return var, se


def variance_window(spec: ProcessSpec, index_set, samples: int,
                    trial_base: int = 1_000_000) -> list:
    """Per-index empirical variance across independent sample paths."""
    if samples < 100:
        raise SequenceError("need at least 100 sample paths")
    indices = sorted(int(i) for i in index_set)
    if not indices or indices[0] < 0:
        raise SequenceError("index set must be nonempty and nonnegative")
    length = indices[-1] + 1
    draws = np.empty((samples, len(indices)), dtype=complex)
    for s in range(samples):
        draws[s] = _draw(spec, length, trial_base + s)[0][indices]
    out = []
    for j, idx in enumerate(indices):
        var, se = _variance_with_se(draws[:, j])
        out.append(IndexVariance(idx, var, se, samples))
    return out


# ---------------------------------------------------------------------------
# Constructive two-value separation


@dataclass(frozen=True)
class Separation:
    """Two well-separated values each carrying definite probability mass.

    ``z`` and ``w`` are at distance >= sqrt(sigma/2); the disks of radius
    1/m around them carry empirical probability >= prob_z / prob_w, with
    prob_z >= 1/cover_size by the pigeonhole over the disk cover.
    """

    z: complex
    w: complex
    prob_z: float
    prob_w: float
    cover_size: int
    disk_radius: float
    threshold: float
    min_prob_w: float

    @property
    def separation(self) -> float:
        return abs(self.z - self.w)

    def to_json_dict(self):
        return {
            "z": [self.z.real, self.z.imag],
            "w": [self.w.real, self.w.imag],
            "prob_z": self.prob_z,
            "prob_w": self.prob_w,
            "cover_size": self.cover_size,
            "disk_radius": self.disk_radius,
            "threshold": self.threshold,
            "separation": self.separation,
        }


def _hex_cover(K: float, m: int) -> np.ndarray:
    """Hexagonal-lattice centers (spacing sqrt(3)/m) covering the radius-K
    disk with disks of radius 1/m, in lexicographic (re, im) order.  A
    lattice point is a center when math.hypot puts it within K + 1/m;
    np.hypot may differ from math.hypot in the last bit, so the points it
    puts within a few ulp of that radius are settled by math.hypot."""
    s = math.sqrt(3) / m
    R = K + 1.0 / m
    rows = int(math.ceil(R / (s * math.sqrt(3) / 2.0))) + 1
    cols = int(math.ceil(R / s)) + 1
    j = np.arange(-rows, rows + 1, dtype=float)[:, None]
    i = np.arange(-cols, cols + 1, dtype=float)
    x = i * s + (j % 2) * s / 2.0
    y = np.broadcast_to(j * s * math.sqrt(3) / 2.0, x.shape)
    r = np.hypot(x, y)
    inside = r <= R
    edge = np.abs(r - R) <= 4 * np.spacing(R)
    inside[edge] = [math.hypot(a, b) <= R
                    for a, b in zip(x[edge].tolist(), y[edge].tolist())]
    x, y = x[inside], y[inside]
    order = np.lexsort((y, x))
    centers = np.empty(order.size, dtype=complex)
    centers.real, centers.imag = x[order], y[order]
    return centers


def _cover_mass(points, weights, centers, m: int):
    """weights[np.abs(points - c) <= 1/m].sum() for each center c of
    ``centers`` (as _hex_cover returns them), without a scan of every point
    per center.  A point within 1/m of a center lies within 2/3 of a row
    and 1/sqrt(3) of a column of it, so it is tested only against the 2 x 2
    lattice points within 0.67 rows and 0.58 columns of it, rebuilt with
    _hex_cover's arithmetic (on whole floats, which give the same values),
    and those it is near are found among the centers by value.  Each
    center sums its points in ascending order with np.sum, so every mass
    has the bits of that expression."""
    s = math.sqrt(3) / m
    j = np.ceil(points.imag / (s * math.sqrt(3) / 2.0) - 0.67)[:, None] + [0.0, 1.0]
    off = (j % 2) * s / 2.0
    i = np.ceil((points.real[:, None] - off) / s - 0.58)[:, :, None] + [0.0, 1.0]
    lattice = np.empty(i.shape, dtype=complex)
    lattice.real = i * s + off[:, :, None]
    lattice.imag = (j * s * math.sqrt(3) / 2.0)[:, :, None]
    near = np.abs(points[:, None, None] - lattice) <= 1.0 / m
    pidx, lattice = np.nonzero(near)[0], lattice[near]
    cidx = np.minimum(np.searchsorted(centers, lattice), len(centers) - 1)
    found = centers[cidx] == lattice
    order = np.lexsort((pidx[found], cidx[found]))
    pidx, cidx = pidx[found][order], cidx[found][order]
    heads = np.flatnonzero(np.diff(cidx, prepend=-1))
    mass = np.zeros(len(centers))
    mass[cidx[heads]] = [weights[g].sum() for g in np.split(pidx, heads[1:])]
    return mass


def _far_centers(centers, mass, z, threshold):
    """Ascending indices i with mass[i] > 0 and abs(centers[i] - z) >=
    threshold, with the scalar abs of a complex number: np.abs on an array
    can differ from it by up to 2 ulp, so distances within 4 ulp of the
    threshold are settled by the scalar abs."""
    cand = np.flatnonzero(mass > 0)
    dist = np.abs(centers[cand] - z)
    close = np.flatnonzero(np.abs(dist - threshold) <= 4 * np.spacing(threshold))
    dist[close] = [abs(c - z) for c in centers[cand[close]]]
    return cand[dist >= threshold]


def separated_values(distribution, m: int, sigma: float, bound=None):
    """Constructively find two separated high-probability values.

    ``distribution`` is either an array of sample draws or a pair
    (values, probs) of atoms with weights.  The radius-K disk is covered by
    disks of radius 1/m (m is raised if needed so 1/m <= sqrt(sigma/2));
    z is a maximal-probability disk center (snapped to the conditional mean
    inside its disk when that does not lose mass), and w repeats the
    argument over centers at distance >= sqrt(sigma/2) from z.  Returns
    None when sigma = 0 or when no candidate retains enough mass.
    """
    if m < 1:
        raise SequenceError("cover parameter m must be >= 1")
    if sigma < 0:
        raise SequenceError("sigma must be >= 0")
    if not math.isfinite(sigma):
        raise SequenceError(f"sigma must be finite, got {sigma}")
    if isinstance(distribution, tuple) and len(distribution) == 2:
        points = np.asarray(distribution[0], dtype=complex)
        weights = np.asarray(distribution[1], dtype=float)
        if points.size != weights.size:
            raise SequenceError("values and probs must have equal length")
        # finite weights >= 0 with a finite sum > 0 keep every mass below
        # finite, so the picks never meet a nan (a sum that overflows is inf)
        with np.errstate(over="ignore"):
            total = float(weights.sum())
        if points.size and not (np.all(weights >= 0) and 0 < total < math.inf):
            raise SequenceError("probs must be finite and >= 0, with a sum > 0")
        weights = weights / total
    else:
        points = np.asarray(distribution, dtype=complex).ravel()
        if points.size == 0:
            raise SequenceError("empty sample set")
        weights = np.full(points.size, 1.0 / points.size)
    if points.size == 0:
        raise SequenceError("empty sample set")

    if sigma == 0.0:
        return None
    K = float(bound) if bound is not None else float(np.max(np.abs(points)))
    K = max(K, 1e-12)
    if not math.isfinite(K):
        raise SequenceError(f"cover radius K must be finite, got {K}")
    threshold = math.sqrt(sigma / 2.0)
    m_eff = max(int(m), int(math.ceil(1.0 / threshold)))
    radius = 1.0 / m_eff
    # _hex_cover scans (2 rows + 1)(2 cols + 1) points, rows <= 2Rm/3 + 2
    # and cols <= Rm/sqrt(3) + 2 with R = K + 1/m
    R = K + radius
    scanned = (4 * R * m_eff / 3 + 5) * (2 * R * m_eff / math.sqrt(3) + 5)
    if scanned > _COVER_CAP:
        raise SequenceError(f"cover of the radius-{K} disk by disks of radius 1/{m_eff} "
                            f"scans up to {scanned:.3g} lattice points (cap {_COVER_CAP})")

    carr = _hex_cover(K, m_eff)
    n_cover = len(carr)
    mass = _cover_mass(points, weights, carr, m_eff)

    def pick(cand_idx):
        best = int(cand_idx[np.argmax(mass[cand_idx])])    # the least of the heaviest
        raw_prob = float(mass[best])
        sel = np.abs(points - carr[best]) <= radius
        snapped = complex(np.sum(points[sel] * weights[sel]) / weights[sel].sum())
        snapped_prob = float(weights[np.abs(points - snapped) <= radius].sum())
        if snapped_prob >= raw_prob:
            return snapped, snapped_prob
        return complex(carr[best]), raw_prob

    z, prob_z = pick(np.arange(n_cover))
    if prob_z <= 0.0:
        return None

    k_tilde = (sigma / (8.0 * K * K)) / n_cover
    away = _far_centers(carr, mass, z, threshold)
    if not away.size:
        return None
    w, prob_w = pick(away)
    if abs(w - z) < threshold:
        # snapping pulled w inside the exclusion disk; keep the raw center
        best = int(away[np.argmax(mass[away])])
        w, prob_w = complex(carr[best]), float(mass[best])
    if prob_w < k_tilde:
        return None
    return Separation(z=z, w=w, prob_z=prob_z, prob_w=prob_w,
                      cover_size=n_cover, disk_radius=radius,
                      threshold=threshold, min_prob_w=k_tilde)


# ---------------------------------------------------------------------------
# Monte Carlo pair-certificate experiment


@dataclass(frozen=True)
class TrialResult:
    trial: int
    found: bool
    pairs: tuple
    flank_side: str | None
    variance: float
    variance_se: float


@dataclass
class MonteCarloReport:
    trials: int
    found_count: int
    results: list
    separation: Separation
    delta: float
    width: int
    horizon: int
    eps: float
    params: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.found_count / self.trials if self.trials else 0.0

    def to_json_dict(self):
        return {
            "trials": self.trials,
            "found_count": self.found_count,
            "hit_rate": self.hit_rate,
            "separation": self.separation.to_json_dict(),
            "delta": self.delta,
            "width": self.width,
            "horizon": self.horizon,
            "eps": self.eps,
            "params": self.params,
            "results": [
                {"trial": t.trial, "found": t.found,
                 "pairs": [list(p) for p in t.pairs],
                 "flank_side": t.flank_side,
                 "variance": t.variance, "variance_se": t.variance_se}
                for t in self.results
            ],
        }


def _distribution_of(spec: ProcessSpec, calib_len: int = 4096):
    """(distribution, sigma) for :func:`separated_values`; a sigma that
    overflows comes back inf or nan, without a warning, to be refused there."""
    if spec.kind == "iid":
        values = np.asarray(spec.params["values"], dtype=complex)
        probs = np.asarray(spec.params["probs"], dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = np.sum(values * probs)
            sigma = float(np.sum(probs * np.abs(values - mean) ** 2))
        return (values, probs), sigma
    path = _draw(spec, calib_len)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = path.mean()
        sigma = float(np.mean(np.abs(path - mean) ** 2))
    return path, sigma


def certificate_rate_experiment(spec: ProcessSpec, trials: int, width: int,
                                horizon: int, eps: float | None, delta: float,
                                min_recurrence: int = 3,
                                cover_m: int = 8) -> MonteCarloReport:
    """Sample seeded paths and search each for a pair-mismatch certificate.

    The center-separation target ``delta`` must not exceed the separation
    achieved by :func:`separated_values` on the process distribution
    (itself >= sqrt(sigma/2)); otherwise the experiment refuses to run.
    Witness pairs are re-verified against the stored path before being
    reported.  ``eps`` None takes the default of the paths' value kind (0
    exact, 0.05 float); the report records the value used.
    """
    if trials < 1:
        raise SequenceError("need at least one trial")
    if horizon < 0:     # as clamp_horizon says, before any path is sampled
        raise SequenceError(f"horizon must be >= 0, got {horizon}")
    dist, sigma = _distribution_of(spec)
    sep = separated_values(dist, cover_m, sigma, bound=spec.bound)
    if sep is None:
        raise SequenceError(
            "precondition unsatisfiable: the process admits no separated "
            "value pair (sigma = 0 or too little mass); no delta > 0 is "
            "reachable")
    if delta > sep.separation + 1e-12:
        raise SequenceError(
            f"precondition unsatisfiable: delta = {delta} exceeds the "
            f"achieved separation {sep.separation}")

    def run(trial):
        nonlocal eps
        vals, kind = _draw(spec, horizon + 1, trial)
        var, se = _variance_with_se(vals)
        path = _path_sequence(spec, vals, kind, trial)
        eps = _resolve_eps(path, eps)       # every path has the spec's kind
        cert, _ = _first_certificate(path, width, horizon, eps, delta,
                                     min_recurrence, gap=False)
        if cert is None:
            return TrialResult(trial, False, (), None, var, se)
        return TrialResult(trial, True, cert.pairs, cert.flank_side, var, se)

    results = [run(trial) for trial in range(trials)]

    found = sum(1 for r in results if r.found)
    return MonteCarloReport(
        trials=trials, found_count=found, results=results, separation=sep,
        delta=delta, width=width, horizon=horizon, eps=eps,
        params={"kind": spec.kind, "seed": spec.seed,
                "min_recurrence": min_recurrence})
