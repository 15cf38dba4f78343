"""Self-tests of the benchmark harness.

Usage: python3 bench/selftest.py

Kept out of the repository's pytest suite on purpose: they start the CLI
(about 10 s) and test the benchmark, not the program.
"""

import dataclasses
import json
import os
import re
import shutil
import unittest
from pathlib import Path

import layers
import run
from tracer import outermost, self_times
from workloads import (REFERENCE, ROOT, WORKLOADS, check_canonical_run, compare_table,
                       load_trajectory_reference)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class MetricNames(unittest.TestCase):
    def test_declared_names_are_valid_and_unique(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))

    def test_span_metrics_are_declared(self):
        declared = set(run.declared_metrics(trace=True))
        self.assertLessEqual(set(layers.layer_metrics([])), declared)


class SelfTime(unittest.TestCase):
    SPANS = [
        ("1.0", None, "root", 0.0, 10.0, None),
        ("1.1", "1.0", "a", 1.0, 4.0, None),
        ("1.2", "1.1", "a", 2.0, 3.0, None),      # nested in a: counted once
        ("2.0", "1.0", "worker", 3.0, 6.0, None),  # overlaps a, another process
        ("3.0", "1.0", "worker", 8.0, 12.0, None),  # ends after its parent
    ]

    def test_self_time_subtracts_union_of_children(self):
        selfs = self_times(self.SPANS)
        self.assertAlmostEqual(selfs["1.0"], 10.0 - (5.0 + 2.0))
        self.assertAlmostEqual(selfs["1.1"], 3.0 - 1.0)
        self.assertAlmostEqual(selfs["1.2"], 1.0)
        self.assertAlmostEqual(selfs["3.0"], 4.0)

    def test_outermost_skips_nested_spans_of_the_same_layer(self):
        found = outermost(self.SPANS, {"a"})
        self.assertEqual([s[0] for s in found], ["1.1"])


class ImportTime(unittest.TestCase):
    def test_counts_outermost_scipy_imports_once(self):
        log = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |       scipy._lib",
            "import time:        20 |         30 |     scipy",
            "import time:         5 |         35 |   fswl.fractional",
            "import time:        40 |         40 |   scipy.special",
            "import time:         1 |         76 | fswl",
        ])
        self.assertAlmostEqual(run.scipy_import_s(log), 70e-6)


class Checks(unittest.TestCase):
    """Runs the canonical workload for real and checks how failures count."""

    @classmethod
    def setUpClass(cls):
        cls.work = ROOT / ".bench_runs" / f"selftest-{os.getpid()}"
        cls.runner = run.Runner("canonical_run", 987, seconds=1.0, work=cls.work)

    @classmethod
    def tearDownClass(cls):
        cls.runner.close()
        shutil.rmtree(cls.work, ignore_errors=True)

    def _invoke_with(self, **changes):
        original = self.runner.workload
        self.runner.workload = dataclasses.replace(original, **changes)
        try:
            self.runner.invoke("cli")
        finally:
            self.runner.workload = original
        return self.runner.ops[-1]["failures"]

    def test_failures_raise_fail_ratio(self):
        self.runner.ops.clear()
        good = self._invoke_with()
        self.assertEqual(good, [])
        self.assertEqual(self.runner.fail_counts(), (0, 1))

        bad_exit = self._invoke_with(
            cli_args=lambda out, seed: ["run", "--config", "missing.json", "--out", str(out)])
        self.assertTrue(any("exit code" in f for f in bad_exit), bad_exit)
        self.assertEqual(self.runner.fail_counts(), (1, 2))

        ref = load_trajectory_reference()
        ref["u_specs"] = ref["u_specs"] * (1.0 + 1e-6)
        perturbed = self._invoke_with(check=lambda inv, seed: check_canonical_run(inv, seed, ref))
        self.assertTrue(any("reference" in f for f in perturbed), perturbed)
        self.assertEqual(self.runner.fail_counts(), (2, 3))

        wrong_seed = self._invoke_with(check=lambda inv, seed: check_canonical_run(inv, seed + 1))
        self.assertTrue(any("seed" in f for f in wrong_seed), wrong_seed)

    def test_perturbed_table_is_rejected(self):
        ref = json.loads((REFERENCE / "eps_sweep.json").read_text())
        rows = ref["viscosity_table"]
        self.assertEqual(compare_table(rows, rows), 0.0)
        bumped = [dict(r, u_l2_diff=r["u_l2_diff"] * (1 + 1e-3)) for r in rows]
        self.assertGreater(compare_table(bumped, rows), 1e-4)


class SeedArgument(unittest.TestCase):
    def test_every_workload_passes_the_seed_to_the_cli(self):
        for name, wl in WORKLOADS.items():
            args = wl.cli_args(Path("out"), 4242)
            self.assertEqual(args[args.index("--seed") + 1], "4242", name)


if __name__ == "__main__":
    unittest.main()
