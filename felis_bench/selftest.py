#!/usr/bin/env python3
"""Self-tests of felis_bench.py.

  python3 felis_bench/selftest.py            # all tests (builds the harness)
  python3 felis_bench/selftest.py Compare    # compare verdicts only, no build

Compare (bench_compare_selftest): synthetic run sets for improved, within
bound, worse, unresolved and a higher failure share, checked against
`felis_bench.py compare`.

Smoke (bench_smoke): every workload at 2 warm-up + 3 window steps, timed and
traced, checking the result fields, the traced/timed digest equality and the
reference-mismatch path. Also checks that the benchmark refuses to run, with
no result, from a directory that holds only the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import felis_bench as fb  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "t", "unit": "ms", "better": "lower", "bound": 0.05},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05},
]}


def run_set(t_values, rate_values=None, failed=0):
    rate_values = rate_values or [100.0] * len(t_values)
    return {"workloads": {"w": [
        {"attempted": 10, "failed": failed,
         "metrics": {"t": {"value": t, "unit": "ms"},
                     "rate": {"value": r, "unit": "1/s"}}}
        for t, r in zip(t_values, rate_values)]}}


def verdicts(base, change):
    return {metric: v for _, metric, _, _, v in fb.compare_sets(base, change, SPEC)}


class Compare(unittest.TestCase):
    BASE = [100.0, 100.4, 99.8, 100.2, 99.6, 100.1, 99.9, 100.3, 99.7, 100.0]

    def test_improved(self):
        change = [v * 0.9 for v in self.BASE]
        self.assertEqual(verdicts(run_set(self.BASE), run_set(change))["t"], "improved")

    def test_within_bound(self):
        change = [v * 1.02 for v in self.BASE]
        self.assertEqual(verdicts(run_set(self.BASE), run_set(change))["t"],
                         "within bound")

    def test_worse(self):
        change = [v * 1.08 for v in self.BASE]
        self.assertEqual(verdicts(run_set(self.BASE), run_set(change))["t"], "worse")

    def test_higher_is_better(self):
        base = run_set(self.BASE, rate_values=[100.0] * 10)
        self.assertEqual(verdicts(base, run_set(self.BASE, [80.0] * 10))["rate"], "worse")
        self.assertEqual(verdicts(base, run_set(self.BASE, [120.0] * 10))["rate"],
                         "improved")

    def test_unresolved(self):
        wide = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
        self.assertEqual(verdicts(run_set(wide), run_set(self.BASE))["t"], "unresolved")
        # A wide spread still resolves when every change run beats every parent run.
        self.assertEqual(verdicts(run_set(wide), run_set([50.0] * 10))["t"], "improved")

    def test_failure_share(self):
        v = verdicts(run_set(self.BASE), run_set(self.BASE, failed=1))
        self.assertEqual(v["failure_share"], "worse")
        self.assertEqual(v["t"], "within bound")

    def test_compare_command_exit_code(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, values in (("base", self.BASE), ("worse", [v * 1.2 for v in self.BASE])):
                path = os.path.join(tmp, name + ".json")
                with open(path, "w") as f:
                    json.dump(run_set(values), f)
                paths.append(path)
            spec = fb.benchmark_spec
            fb.benchmark_spec = lambda: SPEC
            try:
                self.assertEqual(fb.main(["compare", paths[0], paths[0]]), 0)
                self.assertEqual(fb.main(["compare", paths[0], paths[1]]), 1)
            finally:
                fb.benchmark_spec = spec


SHORT = {"warmup": 2, "window": 3, "setup_runs": 2, "replays": 1, "probe_steps": 2}
# Five steps with a checkpoint every step: the injected crash still fires at
# the third write (step 3) and every case resumes from step 2.
CAMPAIGN_SHORT = dict(SHORT, set=["campaign.steps=5", "checkpoint.every=1"])


class Smoke(unittest.TestCase):
    def measure(self, name, trace):
        short = CAMPAIGN_SHORT if name == "campaign_n5" else SHORT
        metrics, checks = fb.measure(name, 7, trace, short)
        result = fb.result_json(metrics, checks, trace)
        self.assertTrue(result["correct"], checks.reasons)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = fb.benchmark_spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result

    def test_every_workload(self):
        for name in fb.workload_config()["workloads"]:
            with self.subTest(workload=name):
                self.measure(name, False)
                self.measure(name, True)

    def test_step_reference_mismatch(self):
        w = fb.workload_config()["workloads"]["slab_n3_r2"]
        settings = fb.run_settings(w, fb.workload_config(), SHORT)
        fb.ensure_built()
        with fb.Scratch("selftest") as scratch:
            out = fb.harness(fb.step_args(w, 7, False, settings, scratch))
        window = slice(settings["warmup"], None)
        reference = {"seed": 7, "warmup": 2, "window": 3}
        for key in ("pressure_iters", "velocity_iters", "scalar_iters"):
            reference[key] = sum(out[key][window])
        for key in ("nu_plate", "nu_volume", "kinetic_energy"):
            reference[key] = out["observables"][key]

        checks = fb.Checks(5)
        fb.check_step(out, settings, reference, 7, checks, "run")
        self.assertEqual(checks.failed, 0, checks.reasons)

        reference["nu_plate"] += 1e-12
        checks = fb.Checks(5)
        fb.check_step(out, settings, reference, 7, checks, "run")
        self.assertEqual(checks.failed, 1)
        self.assertIn("nu_plate", checks.reasons[0])

        checks = fb.Checks(5)  # other seeds check only step health
        fb.check_step(out, settings, reference, 8, checks, "run")
        self.assertEqual(checks.failed, 0)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(fb.REPO, "BENCHMARK.json"), tmp)
            shutil.copytree(fb.HERE, os.path.join(tmp, "felis_bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "felis_bench/felis_bench.py", "--workload", "cyl_n7",
                 "--seed", "7", "--seconds", "20", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
