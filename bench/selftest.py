"""Tests of the benchmark itself.

    python3 bench/selftest.py

Smoke runs of every workload at tiny size, and one mutation test per job
class: the job's real output passes its check, and a copy with one result
corrupted (a pair index shifted, the period changed, an integral moved past
its error bar, ...) fails it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import unittest

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), f"--workload={workload}",
         "--seed=7", "--seconds=1", f"--trace={trace}", "--size=tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace, names):
        code, lines = run_bench(workload, trace)
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines[:-1])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result["metrics"]), names)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_untraced_runs(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0, names)

    def test_traced_run(self):
        self.check_run("certify-exact", 1, {m["name"] for m in SPEC["per_layer"]})


def _job(workload, cls, name=None):
    return next(j for j in wl.build_jobs(workload, 7, "tiny")
                if j.cls == cls and (name is None or j.name == name))


def _shift_pair(pairs):
    (n, m), *rest = pairs
    return ((n, m + 1), *rest)


class MutationTest(unittest.TestCase):
    """Each test corrupts one field of a real result with ``mutate``."""

    def assert_caught(self, workload, cls, mutate, name=None):
        job = _job(workload, cls, name)
        with tempfile.TemporaryDirectory() as work:
            result = wl.run_job(job, work)
        self.assertEqual(checks.check(job, result), [], "real output must pass")
        self.assertNotEqual(checks.check(job, mutate(result)), [],
                            "corrupted output must fail")

    def test_verdict_pair_index(self):
        def mutate(v):
            cert = dataclasses.replace(v.certificate, pairs=_shift_pair(v.certificate.pairs))
            return dataclasses.replace(v, certificate=cert)
        self.assert_caught("certify-float", "verdict", mutate)

    def test_verdict_gap_witness(self):
        def mutate(v):
            w = v.certificate.witnesses
            cert = dataclasses.replace(v.certificate, witnesses=(w[0] + 1,) + w[1:])
            return dataclasses.replace(v, certificate=cert)
        self.assert_caught("certify-exact", "verdict", mutate,
                           name="verdict-gap-factorial-1e6")

    def test_periodic_period(self):
        def mutate(v):
            pre, per = v.periodicity
            return dataclasses.replace(v, periodicity=(pre, 2 * per))
        self.assert_caught("certify-exact", "periodic", mutate)

    def test_pair_index(self):
        self.assert_caught("certify-float", "pair",
                           lambda c: dataclasses.replace(c, pairs=_shift_pair(c.pairs)),
                           name="pair-half-indicator-20000-backward")

    def test_extract_member(self):
        def mutate(r):
            c = r.candidates[0]
            idx = c.recurrence_indices
            moved = dataclasses.replace(c, recurrence_indices=idx[:-1] + (idx[-1] + 1,))
            return dataclasses.replace(r, candidates=[moved] + r.candidates[1:])
        self.assert_caught("certify-float", "extract", mutate)

    def test_szego_witness(self):
        def mutate(rep):
            per_p = dict(rep.per_p)
            per_p[1] = dataclasses.replace(per_p[1], mismatch=per_p[1].mismatch + 1)
            return dataclasses.replace(rep, per_p=per_p)
        self.assert_caught("certify-exact", "szego", mutate)

    def test_csv_bit(self):
        def mutate(r):
            bits = r.values.copy().view(np.uint64)
            bits[3] ^= 1
            return dataclasses.replace(r, values=bits.view(complex))
        self.assert_caught("certify-exact", "csv", mutate)

    def test_montecarlo_pair_index(self):
        def mutate(rep):
            results = list(rep.results)
            i = next(k for k, t in enumerate(results) if t.found)
            results[i] = dataclasses.replace(results[i], pairs=_shift_pair(results[i].pairs))
            return dataclasses.replace(rep, results=results)
        self.assert_caught("certify-exact", "montecarlo", mutate)

    def test_scan_integral(self):
        def mutate(rep):
            ints = list(rep.integrals)
            ints[0] += 10 * (rep.quad_errors[0] + rep.trunc_errors[0]) + 1e-6
            return dataclasses.replace(rep, integrals=ints)
        self.assert_caught("probe", "scan", mutate)

    def test_eval_f_value(self):
        def mutate(rs):
            return [dataclasses.replace(rs[0], value=rs[0].value + 1e-6)] + rs[1:]
        self.assert_caught("probe", "eval-f", mutate)

    def test_eval_shift_inside_part(self):
        def mutate(rs):
            plus = dataclasses.replace(rs[0].fplus, value=rs[0].fplus.value + 1e-6)
            return [dataclasses.replace(rs[0], fplus=plus)] + rs[1:]
        self.assert_caught("probe", "eval-shift", mutate)

    def test_eval_two_sided_value(self):
        def mutate(rs):
            return rs[:-1] + [dataclasses.replace(rs[-1], value=rs[-1].value + 1e-6)]
        self.assert_caught("probe", "eval-two-sided", mutate)

    def test_reflectionless_decision(self):
        self.assert_caught("probe", "reflectionless",
                           lambda rs: [dataclasses.replace(rs[0], passed=not rs[0].passed)] + rs[1:])

    def test_decay_witness(self):
        def mutate(rs):
            return [dataclasses.replace(r, witness=None if r.witness is not None else 0)
                    for r in rs]
        self.assert_caught("probe", "decay", mutate)


if __name__ == "__main__":
    unittest.main()
