"""Independent output checks for every job class.

Each check recomputes what it needs from the job's parameters with the
benchmark's own code: sequence values (``reference_values``), sup-metric
flank comparisons, brute-force zero-flank hits, the least
(preperiod, period) of a constructed stream, block recurrences, power
sums and arc integrals.  Only Monte Carlo paths are regenerated with the
library's ``sample_process``, because they are defined by its sampler.

A check returns a list of failure reasons; an empty list means the output
is correct.  The checks hold for every seed.  Known limit: for
Gaussian-integer streams the rational-form check tests that the form
matches the series and that its poles are roots of unity that zero its
denominator, not that each reported pole is a true (non-removable) pole.
"""

from __future__ import annotations

import math

import numpy as np

import nbscope as nb

from workloads import (
    _complexes,
    build_sequence,
    config,
    is_exact,
    process_spec,
)

# Allowed floating-point disagreement, relative to the mass sum |a_n z^n|,
# between a library evaluation and the benchmark's own summation.
SUM_SLACK = 1e-11
# Arc integrals: extra slack beyond the reported quad_err + trunc_err.
INTEGRAL_SLACK = 1e-9
# Largest number of series terms the benchmark sums itself per radius.
AFFORDABLE_TERMS = 30_000
PAIR_CAP = 256


# ---------------------------------------------------------------------------
# Reference sequence values


def _factorials_upto(n):
    out, f, k = [], 1, 1
    while f <= n:
        out.append(f)
        k += 1
        f *= k
    return out


def gap_exponents(s, upto):
    """Exponents of a gap family that are <= upto."""
    exps = s["exponents"]
    if exps == "factorials":
        return _factorials_upto(upto)
    if exps == "squares":
        return [k * k for k in range(math.isqrt(upto) + 1)]
    return [e for e in exps if e <= upto]


def _rotation_values(s, count):
    qn, qd = float(s["q"]).as_integer_ratio()
    tn, td = float(s["theta"]).as_integer_ratio()
    d = qd * td // math.gcd(qd, td)
    step = qn * (d // qd) % d
    x = tn * (d // td) % d
    half = s["boundary"] == "half-indicator"
    out = np.empty(count, dtype=float)
    for n in range(count):
        f = x / d
        out[n] = (1.0 if f < 0.5 else 0.0) if half else f
        x += step
        if x >= d:
            x -= d
    return out.astype(complex)


def _erdos_values(edge, count):
    out = np.ones(count, dtype=float)
    starts, j, f = [], 2, 2
    while True:
        starts.append((f, f + j))
        if f >= count:
            break
        j += 1
        f *= j
    prev_end = -1
    for lo, hi in starts:
        gap_lo, gap_len = prev_end + 1, lo - (prev_end + 1)
        if edge == "soft" and gap_len > 0:
            t = np.arange(gap_len, dtype=float)
            rise = math.isqrt(gap_len)
            ramp = np.minimum(np.minimum(t + 1.0, gap_len - t), rise + 1.0) / (rise + 1.0)
            stop = min(gap_lo + gap_len, count)
            if stop > gap_lo:
                out[gap_lo:stop] = ramp[: stop - gap_lo]
        if lo < count:
            out[lo:min(hi + 1, count)] = 0.0
        prev_end = hi
    return out.astype(complex)


def _rudin_shapiro_values(count):
    x = np.arange(count, dtype=np.int64)
    x &= x >> 1
    parity = np.zeros(count, dtype=np.int64)
    while x.any():
        parity ^= x & 1
        x >>= 1
    return np.where(parity == 0, 1.0, -1.0).astype(complex)


def reference_values(s, count):
    """a_0 .. a_{count-1} of a sequence spec, computed without the
    library's generators (stochastic paths excepted)."""
    fam = s["family"]
    if fam == "rotation":
        return _rotation_values(s, count)
    if fam == "erdos":
        return _erdos_values(s["edge"], count)
    if fam == "rudin-shapiro":
        return _rudin_shapiro_values(count)
    if fam == "gap":
        out = np.zeros(count, dtype=complex)
        out[gap_exponents(s, count - 1)] = 1.0
        return out
    if fam == "periodic":
        pat = np.asarray(_complexes(s["pattern"]))
        return np.resize(pat, count)
    if fam == "eventually-periodic":
        head, block = _complexes(s["head"]), _complexes(s["block"])
        tail = np.resize(np.asarray(block, dtype=complex), max(count - len(head), 0))
        return np.concatenate([np.asarray(head, dtype=complex), tail])[:count]
    if fam in ("iid", "markov"):
        return nb.sample_process(process_spec(s), s["length"]).prefix(count)
    raise ValueError(f"unknown family {fam!r}")


def _bound(s):
    if s["family"] == "periodic":
        return max(abs(v) for v in _complexes(s["pattern"]))
    return 1.0


def _length(s):
    if s["family"] == "eventually-periodic":
        return s["length"]
    if s["family"] in ("iid", "markov"):
        return s["length"]
    return None


def _clamp(s, horizon):
    n = _length(s)
    return horizon if n is None else min(horizon, n - 1)


def _resolved_eps(s, eps):
    if eps is not None:
        return float(eps)
    return 0.0 if is_exact(s) else 0.05


# ---------------------------------------------------------------------------
# Certificates


def gap_hits(ref, width, horizon, eps, delta):
    """All centers n in [width, horizon] whose backward flank is within eps
    of zero and whose center is at least delta."""
    ab = np.abs(ref[: horizon + 1])
    above = np.concatenate([[0], np.cumsum(ab > eps)])   # above[i]: count in ab[:i]
    n = np.arange(width, horizon + 1)
    ok = (above[n] - above[n - width] == 0) & (ab[n] >= delta)
    return [int(i) for i in n[ok]]


def check_pairs(pairs, side, ref, *, width, horizon, eps, delta):
    """Sup-metric re-check of pair witnesses: (reasons, center distances)."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n, m = pairs[:, 0], pairs[:, 1]
    errs = []
    if not 3 <= len(pairs) <= PAIR_CAP:
        return [f"{len(pairs)} pairs, outside [3, {PAIR_CAP}]"], None
    if np.any(n >= m) or np.any(np.diff(n) < 0):
        errs.append("pairs not ordered (n < m, ascending n)")
    if len(set(n.tolist()) | set(m.tolist())) != 2 * len(pairs):
        errs.append("pairs are not disjoint")
    offs = np.arange(-width, 0) if side == "backward" else np.arange(1, width + 1)
    lo = min(n.min(), m.min()) + offs.min()
    hi = max(n.max(), m.max()) + max(offs.max(), 0)
    if lo < 0 or hi > horizon:
        return errs + [f"pair flank indices [{lo}, {hi}] leave [0, {horizon}]"], None
    flank = np.abs(ref[n[:, None] + offs] - ref[m[:, None] + offs]).max(axis=1)
    centers = np.abs(ref[n] - ref[m])
    if np.any(flank > eps):
        errs.append(f"pair {pairs[np.argmax(flank > eps)].tolist()} flanks differ by more than eps")
    if np.any(centers < delta):
        errs.append(f"pair {pairs[np.argmax(centers < delta)].tolist()} centers closer than delta")
    return errs, centers


def check_certificate(c, ref, *, width, horizon, eps, delta, side, seq):
    """Re-check a certificate against reference values, then with its own
    ``verify`` on a freshly built sequence."""
    errs = []
    if c.eps != eps:
        errs.append(f"certificate eps {c.eps} != requested {eps}")
    if c.delta != delta:
        errs.append(f"certificate delta {c.delta} != requested {delta}")
    if c.flank_width != width:
        errs.append(f"flank width {c.flank_width} != requested {width}")
    if c.kind == "GapZeroFlank":
        w = np.asarray(c.witnesses, dtype=np.int64)
        if c.flank_side != "backward":
            errs.append(f"gap certificate with flank side {c.flank_side}")
        if w.size < 3 or np.any(np.diff(w) <= 0) or w[0] < width or w[-1] > horizon:
            return errs + [f"gap witnesses not ascending within [{width}, {horizon}]"]
        ab = np.abs(ref)
        flank = np.max([ab[w - k] for k in range(1, width + 1)], axis=0)
        if np.any(flank > eps):
            errs.append(f"gap witness {int(w[np.argmax(flank > eps)])} has a flank value above eps")
        if np.any(ab[w] < delta):
            errs.append("gap witness center below delta")
        if c.separation != float(ab[w].min()):
            errs.append(f"separation {c.separation} != recomputed {float(ab[w].min())}")
    elif c.kind == "PairMismatch":
        if side is not None and c.flank_side != side:
            errs.append(f"flank side {c.flank_side} != requested {side}")
        if tuple(n for n, _ in c.pairs) != tuple(c.witnesses):
            errs.append("witnesses differ from the pairs' first indices")
        more, centers = check_pairs(c.pairs, c.flank_side, ref, width=width,
                                    horizon=horizon, eps=eps, delta=delta)
        errs += more
        if centers is not None and c.separation != float(centers.min()):
            errs.append(f"separation {c.separation} != recomputed {float(centers.min())}")
    else:
        errs.append(f"unknown certificate kind {c.kind!r}")
    if not errs and not c.verify(seq):
        errs.append("verify() on a freshly built sequence returned False")
    return errs


# ---------------------------------------------------------------------------
# Periodicity and rational forms


def least_periodicity(head, block):
    """Least (preperiod, period) of head followed by block repeated forever."""
    T0 = len(block)
    period = min(d for d in range(1, T0 + 1) if T0 % d == 0
                 and all(block[i] == block[(i + d) % T0] for i in range(T0)))
    stream = list(head) + list(block) * 2
    pre = len(head)
    while pre > 0 and stream[pre - 1] == stream[pre - 1 + period]:
        pre -= 1
    return pre, period


def check_rational_form(form, ref, pre, period, zs):
    errs = []
    if (form.preperiod, form.period) != (pre, period):
        errs.append(f"rational form for ({form.preperiod}, {form.period}), expected ({pre}, {period})")
    if not form.exact:
        errs.append("Gaussian-integer stream was not reduced exactly")
    n = np.arange(80)
    for z in zs:
        direct = complex(np.sum(ref[:80] * complex(z) ** n))
        got = form.value(complex(z))
        if not abs(got - direct) <= 1e-9 * (1 + abs(direct)):
            errs.append(f"rational form at z={z}: {got} != power sum {direct}")
    den = np.asarray(form.denominator, dtype=complex)
    if len(form.poles) != len(den) - 1:
        errs.append(f"{len(form.poles)} poles for a denominator of degree {len(den) - 1}")
    scale = float(np.sum(np.abs(den)))
    for p in form.poles:
        if not (0 <= p.num < p.den and math.gcd(p.num, p.den) == 1 and period % p.den == 0):
            errs.append(f"pole {p.num}/{p.den} is not a reduced root of unity of order dividing {period}")
        elif abs(form.denominator_value(p.value)) > 1e-9 * scale:
            errs.append(f"pole {p.num}/{p.den} does not zero the denominator")
    return errs


# ---------------------------------------------------------------------------
# Per-class checks


def _check_verdict(job, v):
    p = job.params
    s = p["seq"]
    h = _clamp(s, p["horizon"])
    ref = reference_values(s, h + 1)
    eps = _resolved_eps(s, p["eps"])
    errs = []
    if s["family"] == "erdos" and s["edge"] == "soft":
        if v.kind != "Inconclusive":
            errs.append(f"erdos-soft verdict {v.kind}, expected Inconclusive")
        return errs
    if v.kind == "EventuallyPeriodic":
        return errs + ["aperiodic stream reported EventuallyPeriodic"]
    if is_exact(s):
        hits = gap_hits(ref, p["width"], h, eps, p["delta"])
        if len(hits) >= 3:
            c = v.certificate
            if c is None or c.kind != "GapZeroFlank":
                return errs + [f"{len(hits)} zero-flank hits exist but the verdict is {v.kind}"]
            if list(c.witnesses) != hits:
                errs.append("gap witnesses differ from the brute-force hit list")
    if v.certificate is not None:
        if v.kind != "StrongNaturalBoundaryEvidence":
            errs.append(f"certificate carried by verdict kind {v.kind}")
        errs += check_certificate(v.certificate, ref, width=p["width"], horizon=h,
                                  eps=eps, delta=p["delta"], side=None,
                                  seq=build_sequence(s))
    elif v.szego is not None:
        errs += _check_szego_report(v.szego, ref, h, 8)
    else:
        errs.append(f"verdict {v.kind} carries no evidence")
    return errs


def _check_periodic(job, v):
    p = job.params
    s = p["seq"]
    h = _clamp(s, p["horizon"])
    head, block = _complexes(s["head"]), _complexes(s["block"])
    pre, period = least_periodicity(head, block)
    if v.kind != "EventuallyPeriodic":
        return [f"eventually periodic stream got verdict {v.kind}"]
    errs = []
    if tuple(v.periodicity) != (pre, period):
        errs.append(f"periodicity {tuple(v.periodicity)}, least is ({pre}, {period})")
    errs += check_rational_form(v.rational_form, reference_values(s, h + 1),
                                pre, period, [complex(*z) for z in p["z"]])
    return errs


def _check_pair(job, c):
    p = job.params
    s = p["seq"]
    if c is None:
        return []
    h = _clamp(s, p["horizon"])
    return check_certificate(c, reference_values(s, h + 1), width=p["width"],
                             horizon=h, eps=_resolved_eps(s, p["eps"]),
                             delta=p["delta"], side=p["side"],
                             seq=build_sequence(s))


def _check_extract(job, r):
    p = job.params
    s = p["seq"]
    W = p["width"]
    h = _clamp(s, p["horizon"])
    eps = _resolved_eps(s, p["eps"])
    ref = reference_values(s, h + 1)
    errs = []
    if r.windows_scanned != h + 1 - 2 * W:
        errs.append(f"windows_scanned {r.windows_scanned} != {h + 1 - 2 * W}")
    if r.truncated:
        errs.append("cluster cap reached")
    if not 0 < len(r.candidates) <= 16 or r.clusters_total < len(r.candidates):
        errs.append(f"{len(r.candidates)} candidates of {r.clusters_total} clusters")
    seen = set()
    sizes = []
    offs = np.arange(-W, W + 1)
    for c in r.candidates:
        idx = np.asarray(c.recurrence_indices, dtype=np.int64)
        sizes.append(idx.size)
        if c.eps != eps or c.window.radius != W:
            errs.append("candidate eps or radius differs from the request")
        if idx.size < 3 or np.any(np.diff(idx) <= 0) or idx[0] < W or idx[-1] > h - W:
            errs.append("recurrence indices not ascending inside the horizon")
            continue
        if seen & set(idx.tolist()):
            errs.append("a center belongs to two clusters")
        seen |= set(idx.tolist())
        leader = np.asarray(c.window.values, dtype=complex)
        if leader.tobytes() != ref[idx[0] + offs].tobytes():
            errs.append(f"leader window differs from the reads at center {idx[0]}")
        dist = np.abs(ref[idx[:, None] + offs] - leader).max(axis=1)
        if np.any(dist > eps):
            errs.append(f"member {int(idx[np.argmax(dist > eps)])} is farther than eps from its leader")
    if sizes != sorted(sizes, reverse=True):
        errs.append("candidates not ordered by population")
    return errs


def _least_block_pair(ref, p, blocks):
    rows = ref[: blocks * p].reshape(blocks, p)
    keys = np.concatenate([rows.real, rows.imag], axis=1)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.ravel()
    best = None
    for g in np.nonzero(counts >= 2)[0]:
        where = np.nonzero(inverse == g)[0]
        cand = (int(where[0]), int(where[1]))
        if best is None or cand < best:
            best = cand
    return best


def _check_szego_report(rep, ref, h, p_max):
    errs = []
    if rep.horizon != h:
        errs.append(f"report horizon {rep.horizon} != {h}")
    vals = ref[: h + 1]
    value_set = sorted(set(vals.tolist()), key=lambda v: (v.real, v.imag))
    if list(rep.value_set) != value_set:
        errs.append("value set differs from the reads")
    all_witness = True
    for p in range(1, p_max + 1):
        blocks = (h + 1) // p
        got = rep.per_p.get(p)
        if blocks < len(value_set) ** p + 1:
            all_witness = False
            if not (isinstance(got, str) and got.startswith("skipped")):
                errs.append(f"p={p}: expected a skip note, got {got!r}")
            continue
        i1, i2 = _least_block_pair(vals, p, blocks)
        P, Q = i1 * p, i2 * p
        differ = np.nonzero(vals[P + p:P + h + 1 - Q] != vals[Q + p:h + 1])[0]
        if differ.size == 0:
            all_witness = False
            if got != "no mismatch within horizon":
                errs.append(f"p={p}: expected no mismatch, got {got!r}")
            continue
        expect = (p, P, Q, int(differ[0]) + p + 1)
        have = (getattr(got, "p", None), getattr(got, "first", None),
                getattr(got, "second", None), getattr(got, "mismatch", None))
        if have != expect:
            errs.append(f"p={p}: witness {have}, expected {expect}")
    if all_witness and rep.overall != "mismatch-at-every-p":
        errs.append(f"overall {rep.overall!r} although every p has a witness")
    return errs


def _check_szego(job, rep):
    p = job.params
    s = p["seq"]
    h = _clamp(s, p["horizon"])
    errs = _check_szego_report(rep, reference_values(s, h + 1), h, p["p_max"])
    if rep.overall != "mismatch-at-every-p":
        errs.append(f"overall {rep.overall!r}, expected mismatch-at-every-p")
    return errs


def _check_csv(job, r):
    p = job.params
    orig = build_sequence(p["seq"]).prefix(p["count"])
    errs = []
    if r.values.shape != orig.shape or r.values.tobytes() != orig.tobytes():
        errs.append("CSV round trip is not bit-exact")
    direct = nb.verdict(build_sequence(p["seq"]), config(p))
    if direct.to_json_dict() != r.verdict.to_json_dict():
        errs.append("verdict on the CSV-read sequence differs from the in-memory verdict")
    return errs + _check_verdict(job, r.verdict)


def _check_montecarlo(job, rep):
    p = job.params
    spec = process_spec(p["process"])
    H = p["horizon"]
    errs = []
    if (rep.trials, rep.width, rep.horizon, rep.eps, rep.delta) != \
            (p["trials"], p["width"], H, 0.0, p["delta"]):
        errs.append("report echoes different trials/width/horizon/eps/delta")
    if [t.trial for t in rep.results] != list(range(p["trials"])):
        errs.append("trial results out of order")
    if rep.found_count != sum(t.found for t in rep.results):
        errs.append("found_count differs from the per-trial results")
    for t in rep.results:
        if not t.found:
            if t.pairs or t.flank_side is not None:
                errs.append(f"trial {t.trial}: pairs reported without a finding")
            continue
        path = nb.sample_process(spec, H + 1, trial=t.trial).prefix(H + 1)
        more, _ = check_pairs(t.pairs, t.flank_side, path, width=p["width"],
                              horizon=H, eps=0.0, delta=p["delta"])
        errs += [f"trial {t.trial}: {e}" for e in more]
    return errs


def _horner(coeffs, z):
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _terms_for(bound, r, tol):
    return max(1, math.ceil(math.log(tol * (1 - r) / bound) / math.log(r)))


def _series_at(s, z, count):
    """sum_{n < count} a_n z^n at every point of the array z."""
    if s["family"] == "gap":
        out = np.zeros_like(z)
        for e in gap_exponents(s, count - 1):
            out += np.exp(e * np.log(z))
        return out
    return _horner(reference_values(s, count), z)


def _check_scan(job, rep):
    p = job.params
    s = p["seq"]
    m = p["quad_points"]
    errs = []
    if list(rep.radii) != list(p["radii"]) or rep.quad_points != m:
        errs.append("report radii or node count differ from the request")
    if any(rep.skipped):
        errs.append("a radius was skipped")
    alpha, beta = p["alpha"], p["beta"]
    width = beta - alpha
    theta = alpha + (np.arange(2 * m) + 0.5) * width / (2 * m)
    weight = width / (2 * math.pi)
    bound = _bound(s)
    for i, r in enumerate(p["radii"]):
        count = _terms_for(bound, r, p["tol"] * 1e-3)
        if s["family"] != "gap" and count > AFFORDABLE_TERMS:
            continue
        z = r * np.exp(1j * theta)
        ours = float(np.mean(np.abs(_series_at(s, z, count)))) * weight
        tail = bound * r ** count / (1 - r) * weight
        got = rep.integrals[i]
        allowed = rep.quad_errors[i] + rep.trunc_errors[i] + tail + \
            INTEGRAL_SLACK * max(1.0, abs(got))
        if not abs(got - ours) <= allowed:
            errs.append(f"integral at r={r}: {got} vs own {ours}, allowed {allowed:.3g}")
    return errs


def _check_sum(label, got, want, allowed):
    if not abs(got - want) <= allowed:
        return [f"{label}: {got} vs own {want}, allowed {allowed:.3g}"]
    return []


def _own_sum(ref, z, start=0):
    terms = ref * complex(z) ** np.arange(start, start + len(ref))
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


def _check_eval_f(job, results):
    points = [(case["seq"], z) for case in job.params["cases"] for z in case["z"]]
    errs = []
    if len(results) != len(points):
        return [f"{len(results)} results for {len(points)} points"]
    for (s, zz), res in zip(points, results):
        z = complex(*zz)
        count = _terms_for(_bound(s), abs(z), 1e-16)
        want = complex(_series_at(s, np.array([z]), count)[0])
        mass = sum(abs(z) ** n for n in range(count))
        errs += _check_sum(f"eval_f at {z}", res.value, want,
                           res.abs_error_bound + SUM_SLACK * mass)
        if not res.abs_error_bound <= 1e-10:
            errs.append(f"eval_f at {z}: error bound {res.abs_error_bound} above tol")
    return errs


def _check_eval_shift(job, results):
    p = job.params
    s = p["seq"]
    N = p["shift"]
    errs = []
    for zz, res in zip(p["z"], results):
        z = complex(*zz)
        if res.shift != N:
            errs.append(f"shift {res.shift} != {N}")
        if not res.identity_residual <= res.residual_allowance:
            errs.append(f"identity residual {res.identity_residual} above allowance")
        count = _terms_for(_bound(s), abs(z), 1e-16)
        ref = reference_values(s, N + count)
        plus, plus_mass = _own_sum(ref[N:], z)
        minus, minus_mass = _own_sum(ref[:N], z, -N)
        errs += _check_sum(f"inside part at {z}", res.fplus.value, plus,
                           res.fplus.abs_error_bound + SUM_SLACK * plus_mass)
        errs += _check_sum(f"outside part at {z}", res.fminus, minus,
                           SUM_SLACK * minus_mass)
    return errs


def _check_eval_two_sided(job, results):
    p = job.params
    win = np.asarray(_complexes(p["window"]))
    W = (len(win) - 1) // 2
    pat = np.asarray(_complexes(p["pattern"]))
    per = len(pat)
    zs = [complex(*z) for z in p["z_in"] + p["z_out"]]
    expected = []
    for z in zs:       # zero-padded window
        if abs(z) < 1:
            expected.append(_own_sum(win[W:], z))
        else:
            expected.append(_own_sum(win[:W][::-1], 1 / z, 1))
    for z in zs:       # periodic extension, closed forms
        if abs(z) < 1:
            num, mass = _own_sum(pat, z)
            expected.append((num / (1 - z ** per), mass / (1 - abs(z) ** per)))
        else:
            w = 1 / z
            back = np.array([pat[(-k) % per] for k in range(1, per + 1)])
            num, mass = _own_sum(back, w, 1)
            expected.append((num / (1 - w ** per), mass / (1 - abs(w) ** per)))
    errs = []
    for i, (res, (want, mass)) in enumerate(zip(results, expected)):
        errs += _check_sum(f"two-sided evaluation {i}", res.value, want,
                           res.abs_error_bound + SUM_SLACK * max(mass, 1.0))
    return errs


def _on_closed_arc(angle, alpha, beta):
    return (angle - alpha) % (2 * math.pi) <= beta - alpha


def _check_reflectionless(job, results):
    errs = []
    for i, (case, res) in enumerate(zip(job.params["cases"], results)):
        errs += [f"case {i}: {e}" for e in _check_reflectionless_case(case, res)]
    return errs


def _check_reflectionless_case(p, res):
    pat = np.asarray(_complexes(p["pattern"]))
    per = len(pat)
    scale = float(np.sum(np.abs(pat)))
    poles = set()
    for k in range(per):
        w = np.exp(2j * math.pi * k / per)
        if abs(np.sum(pat * w ** np.arange(per))) > 1e-9 * scale:
            g = math.gcd(k, per)
            poles.add((k // g, per // g))
    passed = not any(_on_closed_arc(2 * math.pi * a / b, p["alpha"], p["beta"])
                     for a, b in poles)
    errs = []
    got = {(q.num, q.den) for q in res.form.poles}
    if got != poles:
        errs.append(f"poles {sorted(got)}, expected {sorted(poles)}")
    if res.passed != passed:
        errs.append(f"passed={res.passed}, expected {passed}")
    if res.passed and not math.isfinite(res.max_confirmation_defect):
        errs.append("passing check without a finite confirmation defect")
    return errs


def _check_decay(job, results):
    p = job.params
    W = p["radius"]
    errs = []
    for values, res in zip(p["windows"], results):
        win = _complexes(values)
        witness = next((k for k in range(-W, W + 1) if abs(win[k + W]) >= p["delta"]), None)
        outcome = "consistent-with-zero" if witness is None else "not-reflectionless"
        if (res.outcome, res.witness) != (outcome, witness):
            errs.append(f"decay rule gave ({res.outcome}, {res.witness}), "
                        f"expected ({outcome}, {witness})")
    return errs


CHECKS = {
    "verdict": _check_verdict,
    "periodic": _check_periodic,
    "pair": _check_pair,
    "extract": _check_extract,
    "szego": _check_szego,
    "csv": _check_csv,
    "montecarlo": _check_montecarlo,
    "scan": _check_scan,
    "eval-f": _check_eval_f,
    "eval-shift": _check_eval_shift,
    "eval-two-sided": _check_eval_two_sided,
    "reflectionless": _check_reflectionless,
    "decay": _check_decay,
}


def check(job, result) -> list:
    """Failure reasons for one job's result; empty when it is correct."""
    return CHECKS[job.cls](job, result)
