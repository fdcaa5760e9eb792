"""Spans and counts around the library's public callables, recorded from the
benchmark's side.

``Tracer.install`` replaces each public function and method with a wrapper
in every ``nbscope`` namespace that binds it (the package re-exports
everything, and ``randomseries`` imports ``find_pair_certificate`` by
name).  A span is (layer, start, end, parent).  Each thread keeps its own
stack; work submitted to the library's thread pools inherits the
submitting span as parent, so Monte Carlo trials and probe radii nest
under the call that started them.  A layer's self time is the sum over its
spans of duration minus the union of the intervals its children cover.

Counts come from returned objects, or are computed from the arguments
with public functions (``clamp_horizon``, ``truncation_length``); the
computed ones are listed in ``COMPUTED``.
"""

from __future__ import annotations

import concurrent.futures
import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

from nbscope import analytic, randomseries, ratform, rightlimits, sequences

# (owner, attribute) -> layer.  Owners are modules or classes.
CALLABLES = [
    (sequences.OneSidedSequence, "prefix", "sequences.prefix"),
    (sequences.OneSidedSequence, "eval", "sequences.eval"),
    (sequences, "make_sequence", "sequences.make"),
    (sequences, "write_sequence_csv", "sequences.csv"),
    (sequences, "read_sequence_csv", "sequences.csv"),
    (rightlimits, "find_pair_certificate", "rightlimits.pair"),
    (rightlimits, "find_gap_certificate", "rightlimits.gap"),
    (rightlimits, "extract_right_limits", "rightlimits.extract"),
    (rightlimits, "detect_eventual_periodicity", "rightlimits.periodicity"),
    (rightlimits, "szego_block_analysis", "rightlimits.szego"),
    (rightlimits, "verify_pair", "rightlimits.verify"),
    (rightlimits, "verify_gap_hit", "rightlimits.verify"),
    (rightlimits.NonReflectionlessCertificate, "verify", "rightlimits.verify"),
    (rightlimits.SzegoWitness, "verify", "rightlimits.verify"),
    (rightlimits.RightLimitCandidate, "verify", "rightlimits.verify"),
    (rightlimits, "verdict", "rightlimits.verdict"),
    (ratform, "reduce_eventually_periodic", "ratform.reduce"),
    (analytic, "boundary_l1_scan", "analytic.scan"),
    (analytic, "eval_f", "analytic.eval"),
    (analytic, "eval_shift_pair", "analytic.eval"),
    (analytic, "eval_two_sided", "analytic.eval"),
    (analytic, "periodic_reflectionless_check", "analytic.reflectionless"),
    (analytic, "decay_rule_check", "analytic.reflectionless"),
    (randomseries, "sample_process", "randomseries.sample"),
    (randomseries, "certificate_rate_experiment", "randomseries.mc"),
]

COMPUTED = ("rightlimits.pair.centers", "rightlimits.gap.centers",
            "rightlimits.periodicity.periods_tried", "rightlimits.szego.blocks",
            "analytic.scan.terms", "analytic.scan.nodes")

_PAIR_NOTES = ("pair collection capped", "bucket-collision overflow")


def _bound_args(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_pair(add, fn, args, kwargs, cert):
    a = _bound_args(fn, args, kwargs)
    width, seq = a["width"], a["seq"]
    h = seq.clamp_horizon(a["horizon"])
    first = width if a["flank_side"] == "backward" else 0
    last = h if a["flank_side"] == "backward" else h - width
    if cert is not None and any(n.startswith(_PAIR_NOTES[0]) for n in cert.notes):
        last = max(m for _, m in cert.pairs)   # the scan stopped at this center
    add("rightlimits.pair.calls", 1)
    add("rightlimits.pair.centers", last - first + 1)
    add("rightlimits.pair.found", cert is not None)
    add("rightlimits.pair.capped", cert is not None and any(
        n.startswith(_PAIR_NOTES) for n in cert.notes))


def _count_gap(add, fn, args, kwargs, cert):
    a = _bound_args(fn, args, kwargs)
    add("rightlimits.gap.centers", a["seq"].clamp_horizon(a["horizon"]) + 1 - a["width"])


def _count_extract(add, fn, args, kwargs, res):
    add("rightlimits.extract.calls", 1)
    add("rightlimits.extract.windows", res.windows_scanned)
    add("rightlimits.extract.clusters", res.clusters_total)
    add("rightlimits.extract.truncated", bool(res.truncated))


def _count_periodicity(add, fn, args, kwargs, res):
    add("rightlimits.periodicity.periods_tried", _bound_args(fn, args, kwargs)["max_period"])


def _count_szego(add, fn, args, kwargs, rep):
    add("rightlimits.szego.blocks", sum(
        (rep.horizon + 1) // p for p, v in rep.per_p.items()
        if not (isinstance(v, str) and v.startswith("skipped"))))


def _count_reduce(add, fn, args, kwargs, res):
    add("ratform.reduce.calls", 1)


def _count_scan(add, fn, args, kwargs, rep):
    a = _bound_args(fn, args, kwargs)
    seq = a["seq"]
    for r, skipped in zip(rep.radii, rep.skipped):
        add("analytic.scan.radii", 1)
        add("analytic.scan.skipped", skipped)
        if skipped:
            continue
        terms = analytic.truncation_length(seq.bound, r, rep.tol)
        if seq.length is not None:
            terms = min(terms, seq.length)
        add("analytic.scan.terms", terms)
        add("analytic.scan.nodes", 3 * rep.quad_points)


def _count_eval(add, fn, args, kwargs, res):
    if isinstance(res, analytic.EvalResult):
        add("analytic.eval.terms", res.terms_used)
    else:
        add("analytic.eval.terms", res.fplus.terms_used + res.shift)


def _count_sample(add, fn, args, kwargs, seq):
    add("randomseries.sample.values", seq.length)


def _count_mc(add, fn, args, kwargs, rep):
    add("randomseries.mc.trials", rep.trials)
    add("randomseries.mc.found", rep.found_count)


def _count_prefix(add, fn, args, kwargs, arr):
    add("sequences.prefix.values", len(arr))


COUNTERS = {
    "sequences.prefix": _count_prefix,
    "rightlimits.pair": _count_pair,
    "rightlimits.gap": _count_gap,
    "rightlimits.extract": _count_extract,
    "rightlimits.periodicity": _count_periodicity,
    "rightlimits.szego": _count_szego,
    "ratform.reduce": _count_reduce,
    "analytic.scan": _count_scan,
    "analytic.eval": _count_eval,
    "randomseries.sample": _count_sample,
    "randomseries.mc": _count_mc,
}


class Tracer:
    """Records spans and counts while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.spans = []                 # [layer, start, end, parent index]
        self.counts = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    # -- recording ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def add(self, name, amount):
        with self._lock:
            self.counts[name] += amount

    def _wrap(self, fn, layer):
        counter = COUNTERS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._current()
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append([layer, 0.0, 0.0, parent])
            stack = tracer._stack()
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = tracer.spans[idx]
                span[1], span[2] = start, end
            if layer == "sequences.eval":
                tracer.add("sequences.eval.calls", 1)
                if parent is not None and tracer.spans[parent][0] == "rightlimits.verify":
                    tracer.add("rightlimits.verify.reads", 1)
            elif counter is not None:
                counter(tracer.add, fn, args, kwargs, result)
            return result

        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._current()

                def run(*a, **k):
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.inherited = None

                return super().submit(run, *args, **kwargs)

        return TracedPool

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "nbscope" or n.startswith("nbscope.")]
        for owner, name, layer in CALLABLES:
            original = owner.__dict__[name]
            wrapped = self._wrap(original, layer)
            if isinstance(owner, type):
                self._set(owner, name, wrapped)
                continue
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, attr, wrapped)
        pool = concurrent.futures.ThreadPoolExecutor
        traced_pool = self._pool_class(pool)
        for ns in namespaces:
            if vars(ns).get("ThreadPoolExecutor") is pool:
                self._set(ns, "ThreadPoolExecutor", traced_pool)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results -----------------------------------------------------------------

    def self_times(self) -> dict:
        """Layer -> total self time in seconds."""
        children = defaultdict(list)
        for layer, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = defaultdict(float)
        for i, (layer, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for s, e in sorted(children.get(i, ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            out[layer] += (end - start) - covered
        return dict(out)


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass, as (value, unit)."""
    t = tracer.self_times()
    c = tracer.counts
    n = max(passes, 1)

    def share(num, den):
        return c[num] / c[den] if c[den] else 0.0

    return {
        "sequences.prefix.s": (t.get("sequences.prefix", 0.0) / n, "s"),
        "sequences.prefix.values": (c["sequences.prefix.values"] / n, "count"),
        "sequences.eval.calls": (c["sequences.eval.calls"] / n, "count"),
        "sequences.eval.s": (t.get("sequences.eval", 0.0) / n, "s"),
        "sequences.csv.s": (t.get("sequences.csv", 0.0) / n, "s"),
        "rightlimits.pair.s": (t.get("rightlimits.pair", 0.0) / n, "s"),
        "rightlimits.pair.centers": (c["rightlimits.pair.centers"] / n, "count"),
        "rightlimits.pair.found_share": (share("rightlimits.pair.found", "rightlimits.pair.calls"), "share"),
        "rightlimits.pair.capped_share": (share("rightlimits.pair.capped", "rightlimits.pair.calls"), "share"),
        "rightlimits.gap.s": (t.get("rightlimits.gap", 0.0) / n, "s"),
        "rightlimits.gap.centers": (c["rightlimits.gap.centers"] / n, "count"),
        "rightlimits.extract.s": (t.get("rightlimits.extract", 0.0) / n, "s"),
        "rightlimits.extract.windows": (c["rightlimits.extract.windows"] / n, "count"),
        "rightlimits.extract.clusters": (c["rightlimits.extract.clusters"] / n, "count"),
        "rightlimits.extract.truncated_share": (share("rightlimits.extract.truncated", "rightlimits.extract.calls"), "share"),
        "rightlimits.periodicity.s": (t.get("rightlimits.periodicity", 0.0) / n, "s"),
        "rightlimits.periodicity.periods_tried": (c["rightlimits.periodicity.periods_tried"] / n, "count"),
        "rightlimits.szego.s": (t.get("rightlimits.szego", 0.0) / n, "s"),
        "rightlimits.szego.blocks": (c["rightlimits.szego.blocks"] / n, "count"),
        "rightlimits.verify.s": (t.get("rightlimits.verify", 0.0) / n, "s"),
        "rightlimits.verify.reads": (c["rightlimits.verify.reads"] / n, "count"),
        "ratform.reduce.s": (t.get("ratform.reduce", 0.0) / n, "s"),
        "ratform.reduce.calls": (c["ratform.reduce.calls"] / n, "count"),
        "analytic.scan.s": (t.get("analytic.scan", 0.0) / n, "s"),
        "analytic.scan.terms": (c["analytic.scan.terms"] / n, "count"),
        "analytic.scan.nodes": (c["analytic.scan.nodes"] / n, "count"),
        "analytic.scan.skipped_share": (share("analytic.scan.skipped", "analytic.scan.radii"), "share"),
        "analytic.eval.s": (t.get("analytic.eval", 0.0) / n, "s"),
        "analytic.eval.terms": (c["analytic.eval.terms"] / n, "count"),
        "analytic.reflectionless.s": (t.get("analytic.reflectionless", 0.0) / n, "s"),
        "randomseries.sample.s": (t.get("randomseries.sample", 0.0) / n, "s"),
        "randomseries.sample.values": (c["randomseries.sample.values"] / n, "count"),
        "randomseries.mc.s": (t.get("randomseries.mc", 0.0) / n, "s"),
        "randomseries.mc.trials": (c["randomseries.mc.trials"] / n, "count"),
        "randomseries.mc.hit_share": (share("randomseries.mc.found", "randomseries.mc.trials"), "share"),
    }
