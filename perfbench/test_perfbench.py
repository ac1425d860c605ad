"""Self-test for the benchmark: every workload at a small size, and failing checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL = {
    "count-es-n6": run.Workload("count-es", 4),
    "enumerate-es-n5": run.Workload("enumerate-es", 3),
    "conflicts-api": run.Workload("conflicts-api", 4),
}


def bench(workload: str, trace: int, workloads=SMALL) -> tuple[int, dict, list[str]]:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, workloads)
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-1]), lines


class SmallWorkloads(unittest.TestCase):
    def test_spec_matches_the_metrics_the_benchmark_knows(self):
        self.assertEqual(set(SPEC["paths"]), {HERE.name})
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        self.assertEqual([m["name"] for m in SPEC["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in SPEC["per_layer"]], list(run.PER_LAYER))
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertEqual(metric["unit"], run.UNITS[metric["name"]])

    def test_every_workload_completes_with_every_metric(self):
        for workload in SMALL:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, lines = bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC[group]])
                    self.assertIn("ops_failed_ratio 0.0 ratio", lines)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            # At these sizes an invocation is about as long as the
                            # interpreter start that items_per_s subtracts, so only
                            # the real workloads give it a meaningful value.
                            if name != "items_per_s":
                                self.assertGreater(metric["value"], 0, name)

    def test_traced_counts_are_exact(self):
        metrics = {k: v["value"] for k, v in bench("count-es-n6", 1)[1]["metrics"].items()}
        self.assertEqual(metrics["order_enum.matrices"], 355)
        self.assertEqual(metrics["order_enum.posets"], 219)
        self.assertEqual(metrics["conflicts.count_calls"], 219)
        self.assertEqual(metrics["conflicts.structures"], 916)
        self.assertGreater(metrics["es_enum.speedup_w2"], 0)
        metrics = {k: v["value"] for k, v in bench("enumerate-es-n5", 1)[1]["metrics"].items()}
        self.assertEqual(metrics["order_enum.matrices"], 29)
        self.assertEqual(metrics["conflicts.structures"], 41)
        self.assertEqual(metrics["cli.records"], 41)
        self.assertEqual(metrics["conflicts.count_calls"], 0)

    def test_wrong_expected_count_fails_every_operation(self):
        wrong = dict(SMALL, **{"count-es-n6": run.Workload("count-es", 4, expected=917)})
        code, result, lines = bench("count-es-n6", 0, wrong)
        self.assertEqual(code, run.EXIT_CHECK_FAILED)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("ops_failed_ratio 1.0 ratio", lines)

    def test_refuses_a_checkout_without_sources(self):
        run.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(
                HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__")
            )
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "conflicts-api",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertEqual(proc.returncode, run.EXIT_NO_SOURCES)
        self.assertEqual(proc.stdout, "")


class HostSpeed(unittest.TestCase):
    def test_scale_states_times_at_the_nominal_speed(self):
        self.assertEqual(hostspeed.scale([]), 1.0)
        slow = hostspeed.NOMINAL_S * 1.5
        self.assertAlmostEqual(hostspeed.scale([slow, hostspeed.NOMINAL_S, slow]), 1 / 1.5)

    def test_probe_samples_while_the_measured_code_runs(self):
        with hostspeed.Probe() as probe:
            end = time.perf_counter() + 10 * hostspeed.INTERVAL_S
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(probe.samples), 5)
        self.assertAlmostEqual(probe.total_s, sum(probe.samples))


if __name__ == "__main__":
    unittest.main()
