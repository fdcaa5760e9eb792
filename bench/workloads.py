"""Seeded job lists for the benchmark workloads, and the code that runs a job.

A job is a name, a job class and plain JSON-able parameters.  ``run_job``
builds the job's sequence from those parameters inside the call, so the
generator's cost is part of the job's time and no ``prefix`` cache or
exponent set is carried from one job to the next.

Every pass of a workload runs the same list.  The list's shape (job
classes, families, horizons, tolerances, widths, radius-ladder tops) is
fixed, and the seed draws everything else: rotation phases, custom gap
sets, eventually periodic heads and blocks, Monte Carlo seeds and chains,
arcs, lower radii and evaluation points.  Rotation numbers are
q = frac(sqrt(k)) for fixed k, one per job, taken in order from the
non-square k whose q the generator accepts (``ROTATION_K``): the pair
search on a rotation costs from 0.2 s to 14 s depending on q, and up to 5x
on half-indicator streams, so a seeded k would make the pass time depend
on the seed more than on the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

import nbscope as nb

WORKLOADS = ("certify-float", "certify-exact", "probe")
SIZES = ("full", "tiny")

# The first non-square k >= 2 whose frac(sqrt(k)) passes the generator's
# rationality screen.
ROTATION_K = (2, 5, 8, 10, 12, 13, 15, 17, 18, 19, 20)

# Values of the seeded eventually periodic streams.
PERIODIC_ALPHABET = (-1.0, 0.0, 1.0, 1j)


@dataclasses.dataclass(frozen=True)
class Job:
    name: str
    cls: str
    params: dict


@dataclasses.dataclass
class CsvResult:
    """Values read back from a written CSV, and the verdict on them."""

    values: np.ndarray
    verdict: object


def _pairs(values):
    return [[float(complex(v).real), float(complex(v).imag)] for v in values]


def _complexes(pairs):
    return [complex(re, im) for re, im in pairs]


# ---------------------------------------------------------------------------
# Sequence specs (plain data) and their construction


def is_exact(s: dict) -> bool:
    fam = s["family"]
    if fam == "rotation":
        return False
    if fam == "erdos":
        return s["edge"] == "hard"
    return True


def make_spec(s: dict):
    fam = s["family"]
    if fam == "rotation":
        return nb.rotation(s["q"], s["theta"], s["boundary"])
    if fam == "erdos":
        return nb.erdos(s["edge"])
    if fam == "rudin-shapiro":
        return nb.rudin_shapiro()
    if fam == "gap":
        exps = s["exponents"]
        return nb.gap_powers(exps if isinstance(exps, str) else tuple(exps))
    if fam == "periodic":
        return nb.periodic(_complexes(s["pattern"]))
    if fam == "eventually-periodic":
        head, block = _complexes(s["head"]), _complexes(s["block"])
        reps = (s["length"] - len(head)) // len(block) + 1
        return nb.explicit((head + block * reps)[: s["length"]])
    raise ValueError(f"unknown family {fam!r}")


def process_spec(s: dict):
    if s["family"] == "iid":
        return nb.iid_process(s["values"], s["probs"], seed=s["seed"])
    return nb.markov_process(s["values"], s["transition"], seed=s["seed"])


def build_sequence(s: dict):
    if s["family"] in ("iid", "markov"):
        return nb.sample_process(process_spec(s), s["length"])
    return nb.make_sequence(make_spec(s))


def config(p: dict):
    return nb.AnalysisConfig(width=p["width"], eps=p["eps"], delta=p["delta"],
                             horizon=p["horizon"])


# ---------------------------------------------------------------------------
# Seeded draws


def _rng(seed: int, workload: str):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def rotation_q(k: int) -> float:
    return math.sqrt(k) % 1.0


def _rotation(rng, k, boundary="fractional-part"):
    """Rotation by frac(sqrt(k)) with a seeded phase."""
    return {"family": "rotation", "q": rotation_q(k), "k": k,
            "theta": float(rng.random()), "boundary": boundary}


def _draw_gap_set(rng, horizon, count, spacing):
    """``count`` seeded exponents below ``horizon``, pairwise more than
    ``spacing`` apart, so each is a zero-flank center."""
    slots = rng.choice(horizon // (spacing + 1) - 1, size=count, replace=False)
    return sorted(int(s) * (spacing + 1) + spacing + 1 for s in slots)


def _draw_arc(rng, avoid_den=()):
    """Seeded arc (alpha, beta), kept 1e-6 rad away from the roots of unity
    of the given orders so that closed-arc membership is unambiguous."""
    while True:
        alpha = float(rng.uniform(-math.pi, math.pi))
        beta = alpha + float(rng.uniform(0.3, 2.5))
        if abs(alpha) < 1e-3 or abs(beta) < 1e-3:
            continue        # keep both in plain decimal notation for the CLI
        angles = [2 * math.pi * j / d for d in avoid_den for j in range(d)]
        if all(min(abs((e - a + math.pi) % (2 * math.pi) - math.pi)
                   for e in (alpha, beta)) > 1e-6 for a in angles):
            return alpha, beta


def _ladder(rng, top_exp, tiny):
    """Radii 1 - 10^-(i + u_i), i = 1 .. top_exp - 1, with seeded u_i in
    [0, 0.05), topped by 1 - 10^-top_exp.  A radius's cost grows as
    1/(1 - r), so the jitter moves it by at most 12%."""
    if tiny:
        top_exp = min(top_exp, 3)
    radii = [1 - 10 ** -(i + float(rng.uniform(0, 0.05))) for i in range(1, top_exp)]
    return radii + [1 - 10 ** -top_exp]


def _z_points(rng, count, rmin, rmax):
    out = []
    for _ in range(count):
        r = float(rng.uniform(rmin, rmax))
        t = float(rng.uniform(-math.pi, math.pi))
        z = r * complex(math.cos(t), math.sin(t))
        out.append([z.real, z.imag])
    return out


# ---------------------------------------------------------------------------
# Job lists


def build_jobs(workload: str, seed: int, size: str = "full") -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = _rng(seed, workload)
    tiny = size == "tiny"

    def h(n):
        return max(n // 20, 500) if tiny else n

    return {"certify-float": _float_jobs, "certify-exact": _exact_jobs,
            "probe": _probe_jobs}[workload](rng, h, tiny)


def _float_jobs(rng, h, tiny):
    jobs = [
        Job("verdict-rotation-k2", "verdict",
            {"seq": _rotation(rng, 2), "width": 5, "eps": None,
             "delta": 0.5, "horizon": h(6_000)}),
        Job("verdict-erdos-soft", "verdict",
            {"seq": {"family": "erdos", "edge": "soft"}, "width": 5,
             "eps": None, "delta": 0.5, "horizon": h(6_000)}),
        Job("pair-rotation-k5-forward", "pair",
            {"seq": _rotation(rng, 5), "width": 5, "eps": 0.02,
             "delta": 0.5, "horizon": h(8_000), "side": "forward"}),
        Job("pair-rotation-k8-backward", "pair",
            {"seq": _rotation(rng, 8), "width": 3, "eps": 0.1,
             "delta": 0.5, "horizon": h(3_000), "side": "backward"}),
    ]
    shapes = [(20_000, "backward", 0.05, 5), (20_000, "forward", 0.1, 3),
              (50_000, "backward", 0.02, 5), (50_000, "forward", 0.05, 3),
              (100_000, "backward", 0.1, 5), (100_000, "forward", 0.02, 3)]
    for (H, side, eps, width), k in zip(shapes, ROTATION_K[3:9]):
        jobs.append(Job(f"pair-half-indicator-{H}-{side}", "pair",
                        {"seq": _rotation(rng, k, "half-indicator"),
                         "width": width, "eps": eps, "delta": 0.5,
                         "horizon": h(H), "side": side}))
    jobs += [
        Job("extract-erdos-soft", "extract",
            {"seq": {"family": "erdos", "edge": "soft"}, "width": 3,
             "eps": 0.1, "horizon": h(20_000)}),
        Job("extract-rotation-k2", "extract",
            {"seq": _rotation(rng, 2), "width": 5, "eps": 0.05,
             "horizon": h(20_000)}),
        Job("extract-half-indicator", "extract",
            {"seq": _rotation(rng, ROTATION_K[9], "half-indicator"), "width": 3,
             "eps": 0.02, "horizon": h(20_000)}),
    ]
    return jobs


def _exact_jobs(rng, h, tiny):
    def verdict_job(name, seq, horizon):
        return Job(name, "verdict", {"seq": seq, "width": 5, "eps": None,
                                     "delta": 0.5, "horizon": horizon})

    def periodic_seq(period, length):
        pick = lambda n: [PERIODIC_ALPHABET[i] for i in rng.integers(0, 4, n)]
        return {"family": "eventually-periodic",
                "head": _pairs(pick(int(rng.integers(0, 13)))),
                "block": _pairs(pick(period)), "length": length}

    rs = {"family": "rudin-shapiro"}
    factorials = {"family": "gap", "exponents": "factorials"}
    squares = {"family": "gap", "exponents": "squares"}
    erdos_hard = {"family": "erdos", "edge": "hard"}
    jobs = []
    # horizons 1e4 to 1e6: the 1e5 jobs sit in the middle of the cost
    # order, so the median job is an array-bound one
    for H, tag in ((10_000, "1e4"), (100_000, "1e5"), (1_000_000, "1e6")):
        if H == 1_000_000:
            families = (("rudin-shapiro", rs), ("gap-factorial", factorials))
        else:
            families = (("rudin-shapiro", rs), ("gap-factorial", factorials),
                        ("gap-squares", squares), ("erdos-hard", erdos_hard))
        for name, seq in families:
            jobs.append(verdict_job(f"verdict-{name}-{tag}", seq, h(H)))
        custom = {"family": "gap",
                  "exponents": _draw_gap_set(rng, h(H), max(H // 5000, 12), 5)}
        jobs.append(verdict_job(f"verdict-gap-custom-{tag}", custom, h(H)))
    # nominal periods are fixed per job: the rational-form reduction costs
    # from 0.01 s at period 1 to 0.12 s at period 60
    for period in (1, 8, 16, 60):
        H = h(10_000)
        jobs.append(Job(f"verdict-periodic-{period}", "periodic",
                        {"seq": periodic_seq(period, H + 1), "width": 5,
                         "eps": None, "delta": 0.5, "horizon": H,
                         "z": _z_points(rng, 4, 0.1, 0.5)}))
    p_max = 4 if tiny else 8
    jobs += [
        Job("szego-rudin-shapiro", "szego",
            {"seq": rs, "p_max": p_max, "horizon": h(50_000)}),
        Job("szego-iid", "szego",
            {"seq": {"family": "iid", "values": [-1.0, 1.0],
                     "probs": [0.5, 0.5], "seed": int(rng.integers(2 ** 31)),
                     "length": h(50_000) + 1},
             "p_max": p_max, "horizon": h(50_000)}),
        Job("csv-gap-custom", "csv",
            {"seq": {"family": "gap",
                     "exponents": _draw_gap_set(rng, h(20_000), 12, 5)},
             "count": h(20_000) + 1, "width": 5, "eps": None, "delta": 0.5,
             "horizon": h(20_000)}),
    ]
    stay = float(rng.uniform(0.55, 0.8))
    jobs += [
        Job("montecarlo-iid", "montecarlo",
            {"process": {"family": "iid", "values": [0.0, 1.0],
                         "probs": [0.5, 0.5], "seed": int(rng.integers(2 ** 31))},
             "trials": 2 if tiny else 8, "width": 3, "horizon": h(10_000),
             "delta": 0.5}),
        Job("montecarlo-markov", "montecarlo",
            {"process": {"family": "markov", "values": [0.0, 1.0],
                         "transition": [[stay, 1 - stay], [1 - stay, stay]],
                         "seed": int(rng.integers(2 ** 31))},
             "trials": 2, "width": 3, "horizon": h(10_000),
             "delta": 0.5}),
    ]
    return jobs


def _probe_jobs(rng, h, tiny):
    qp = 256 if tiny else 1024

    def scan(name, seq, top_exp):
        alpha, beta = _draw_arc(rng)
        return Job(name, "scan", {"seq": seq, "alpha": alpha, "beta": beta,
                                  "radii": _ladder(rng, top_exp, tiny),
                                  "quad_points": qp, "tol": 1e-6})

    def int_pattern(n):
        while True:
            pat = [float(v) for v in rng.integers(-1, 2, n)]
            if any(pat):
                return pat

    rs = {"family": "rudin-shapiro"}
    factorials = {"family": "gap", "exponents": "factorials"}
    jobs = [
        scan(f"scan-periodic-{i}",
             {"family": "periodic", "pattern": _pairs(int_pattern(int(rng.integers(2, 7))))}, 4)
        for i in range(2)
    ]
    jobs += [scan(f"scan-rudin-shapiro-{i}", rs, 4) for i in range(2)]
    jobs += [
        scan("scan-gap-squares", {"family": "gap", "exponents": "squares"}, 4),
        scan("scan-gap-factorial", factorials, 5),
        scan("scan-rotation", _rotation(rng, ROTATION_K[10]), 4),
        Job("eval-f", "eval-f",
            {"cases": [{"seq": rs, "z": _z_points(rng, 4, 0.3, 0.99)},
                       {"seq": factorials, "z": _z_points(rng, 4, 0.3, 0.999)}]}),
        Job("eval-shift-rudin-shapiro", "eval-shift",
            {"seq": rs, "shift": int(rng.integers(50, 400)),
             "z": _z_points(rng, 3, 0.5, 0.95)}),
        Job("eval-two-sided", "eval-two-sided",
            {"window": _pairs(rng.uniform(-1, 1, 2 * 8 + 1)),
             "pattern": _pairs(int_pattern(int(rng.integers(2, 6)))),
             "z_in": _z_points(rng, 2, 0.3, 0.9),
             "z_out": _pairs(1.5 / complex(*z) for z in _z_points(rng, 2, 0.3, 0.9))}),
    ]
    cases = []
    for _ in range(2):
        pat = int_pattern(int(rng.integers(2, 9)))
        alpha, beta = _draw_arc(rng, avoid_den=range(1, len(pat) + 1))
        cases.append({"pattern": _pairs(pat), "alpha": alpha, "beta": beta})
    jobs.append(Job("reflectionless", "reflectionless", {"cases": cases}))
    W, c, d = 6, 1.0, 0.5
    windows = []
    for big in (True, False):
        pos = [float(rng.uniform(0, 0.5)) * c * math.exp(-d * k) for k in range(1, W + 1)]
        spread = 1.0 if big else 0.2      # a value >= delta = 0.5 exists only if big
        neg = [float(v) for v in rng.uniform(-spread, spread, W)]
        windows.append(_pairs(neg + [float(rng.uniform(-spread, spread))] + pos))
    jobs.append(Job("decay", "decay", {"windows": windows, "radius": W, "side": "positive",
                                       "c": c, "d": d, "delta": 0.5}))
    return jobs


def scaling_jobs(seed: int, size: str = "full") -> dict:
    """The calls timed under one and two library worker threads: the probe
    workload's scans and the exact workload's Monte Carlo runs."""
    return {
        "analytic.scan": [j for j in build_jobs("probe", seed, size) if j.cls == "scan"],
        "randomseries.mc": [j for j in build_jobs("certify-exact", seed, size)
                            if j.cls == "montecarlo"],
    }


# ---------------------------------------------------------------------------
# Running a job


def _window(values, radius):
    vals = tuple(_complexes(values))
    return nb.TwoSidedWindow(vals, radius, {"kind": "bench"},
                             bound=max(abs(v) for v in vals))


def run_job(job: Job, workdir: str):
    p = job.params
    c = job.cls
    if c in ("verdict", "periodic"):
        return nb.verdict(build_sequence(p["seq"]), config(p))
    if c == "pair":
        return nb.find_pair_certificate(build_sequence(p["seq"]), p["width"],
                                        p["horizon"], eps=p["eps"],
                                        delta=p["delta"], flank_side=p["side"])
    if c == "extract":
        return nb.extract_right_limits(build_sequence(p["seq"]), p["width"],
                                       p["horizon"], eps=p["eps"])
    if c == "szego":
        return nb.szego_block_analysis(build_sequence(p["seq"]), p["p_max"],
                                       p["horizon"])
    if c == "csv":
        path = os.path.join(workdir, f"{job.name}.csv")
        nb.write_sequence_csv(path, build_sequence(p["seq"]), p["count"])
        back = nb.read_sequence_csv(path)
        return CsvResult(back.prefix(back.length), nb.verdict(back, config(p)))
    if c == "montecarlo":
        return nb.certificate_rate_experiment(
            process_spec(p["process"]), p["trials"], p["width"], p["horizon"],
            eps=0.0, delta=p["delta"])
    if c == "scan":
        return nb.boundary_l1_scan(build_sequence(p["seq"]),
                                   nb.ArcSpec(p["alpha"], p["beta"]), p["radii"],
                                   quad_points=p["quad_points"], tol=p["tol"])
    if c == "eval-f":
        out = []
        for case in p["cases"]:
            seq = build_sequence(case["seq"])
            out += [nb.eval_f(seq, complex(*z)) for z in case["z"]]
        return out
    if c == "eval-shift":
        seq = build_sequence(p["seq"])
        return [nb.eval_shift_pair(seq, p["shift"], complex(*z)) for z in p["z"]]
    if c == "eval-two-sided":
        win = _window(p["window"], (len(p["window"]) - 1) // 2)
        ext = nb.periodic_extension(_complexes(p["pattern"]))
        return [nb.eval_two_sided(src, complex(*z))
                for src in (win, ext) for z in p["z_in"] + p["z_out"]]
    if c == "reflectionless":
        return [nb.periodic_reflectionless_check(_complexes(case["pattern"]),
                                                 nb.ArcSpec(case["alpha"], case["beta"]))
                for case in p["cases"]]
    if c == "decay":
        return [nb.decay_rule_check(_window(w, p["radius"]), p["side"], p["c"], p["d"],
                                    p["delta"])
                for w in p["windows"]]
    raise ValueError(f"unknown job class {c!r}")


# ---------------------------------------------------------------------------
# Canonical results and digests


def canon(obj):
    """JSON-able form of a result with no timing in it."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if hasattr(obj, "to_json_dict"):
        return canon(obj.to_json_dict())
    if dataclasses.is_dataclass(obj):
        return {f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(canon(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()
