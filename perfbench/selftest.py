"""Self-tests of the serving benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

They check that the seeded generators are deterministic, that every
metric name is well formed and matches ``BENCHMARK.json``, that a
toy-size run of each workload (untraced and traced) passes the
correctness gate, that a deliberately perturbed answer fails it, and
that the command refuses to run without the program's sources. The
file is not named ``test_*.py`` so that the repository's tier-1 suite
does not collect these slower, process-spawning tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

from common import BENCH_DIR, METRIC_NAME, ROOT, WORK_DIR, use_source_tree

use_source_tree()

import numpy as np  # noqa: E402

from gate import Gate, precision_at_k  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS, build_plan, make_graph  # noqa: E402

RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def run_toy(workload: str, *extra: str, cwd=ROOT):
    return subprocess.run(
        [*RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--toy", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class Generators(unittest.TestCase):
    def test_inputs_and_requests_are_deterministic(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                g1, g2 = (make_graph(name, 5, toy=True) for _ in range(2))
                self.assertTrue(
                    all(np.array_equal(a, b) for a, b in
                        zip(g1.edge_arrays(), g2.edge_arrays())))
                plan = build_plan(name, g1, 5, 1.0)
                self.assertEqual(plan, build_plan(name, g2, 5, 1.0))
                other = build_plan(name, make_graph(name, 6, toy=True), 6,
                                   1.0)
                self.assertNotEqual(plan["timed"], other["timed"])

    def test_warmup_shares_no_query_with_timed(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                plan = build_plan(name, make_graph(name, 5, toy=True), 5,
                                  1.0)
                timed = {
                    op if isinstance(op, int) else op[-1]
                    for op in plan["timed"]
                    if isinstance(op, int) or op[0] != "mutate"
                }
                self.assertFalse(timed & set(plan["warmup"]))


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_declared(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for key, table in (("end_to_end", END_TO_END),
                           ("per_layer", PER_LAYER)):
            entries = {m["name"]: m["unit"] for m in declared[key]}
            self.assertEqual(entries, table)
            for name in entries:
                self.assertRegex(name, METRIC_NAME)
        self.assertEqual(
            [w["name"] for w in declared["workloads"]], list(WORKLOADS))


class Gating(unittest.TestCase):
    def test_precision_counts_ties_and_rejects_wrong_nodes(self):
        reference = np.array([1.0, 0.5, 0.5, 0.5, 0.1])
        self.assertEqual(precision_at_k([2, 3], reference, 0, 2), 1.0)
        self.assertEqual(precision_at_k([1, 4], reference, 0, 2), 0.5)
        gate = Gate()
        gate.check("precision", precision_at_k([4, 1], reference, 0, 2)
                   == 1.0)
        self.assertFalse(gate.passed)

    def test_toy_runs_pass_the_gate(self):
        for name in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=name, trace=trace):
                    done = run_toy(name, "--trace", trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = last_json(done.stdout)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    expected = PER_LAYER if trace == "1" else END_TO_END
                    self.assertEqual(set(result["metrics"]), set(expected))

    def test_perturbed_answer_fails_the_gate(self):
        done = run_toy("web-exact", "--trace", "0", "--perturb")
        self.assertEqual(done.returncode, 1)
        self.assertFalse(last_json(done.stdout)["correct"])

    def test_refuses_to_run_without_the_program(self):
        bare = WORK_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns(
                                ".work", "results", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "web-exact", "--seed", "1", "--seconds", "1", "--trace",
                 "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
