"""Tests for the ``python -m repro.bench`` regression harness."""

import json
import os

import pytest

from repro.bench import BenchCase, compare_runs, run_suite
from repro.bench.runner import machine_info, run_case
from repro.bench.__main__ import main

# A workload small enough for the test suite; the CLI structure is the
# same at every size.
TINY = [
    "--nodes", "60", "--edges", "240", "--queries", "8",
    "--num-terms", "4", "--allpairs-nodes", "40",
    "--allpairs-edges", "160", "--repeat", "1", "--warmup", "0",
]


def run_tiny(tmp_path, *extra):
    out = tmp_path / "BENCH_test.json"
    code = main(
        ["--quick", "--tag", "test", "--output", str(out), *TINY, *extra]
    )
    return code, out


class TestCli:
    def test_writes_valid_json(self, tmp_path, capsys):
        code, out = run_tiny(tmp_path)
        assert code == 0
        document = json.loads(out.read_text())
        assert document["schema"] == 1
        assert document["tag"] == "test"
        assert document["params"]["nodes"] == 60
        assert document["machine"]["numpy"]
        results = document["results"]
        for case in (
            "build_transition",
            "single_source_reference",
            "batch_per_query_loop",
            "batch_blocked_kernel",
            "engine_batch_top_k",
            "allpairs_iter_gsr",
        ):
            assert case in results
            assert results[case]["seconds_min"] > 0
            assert results[case]["peak_bytes"] >= 0
        assert "speedup_blocked_vs_loop" in document["derived"]

    def test_no_write(self, tmp_path, capsys):
        out = tmp_path / "BENCH_x.json"
        code = main(
            ["--quick", "--output", str(out), "--no-write", *TINY]
        )
        assert code == 0
        assert not out.exists()

    def test_compare_against_itself_passes(self, tmp_path, capsys):
        code, out = run_tiny(tmp_path)
        assert code == 0
        # speedup floor lowered (at this tiny scale the blocked
        # kernel's advantage is overhead-dominated) and the threshold
        # widened: every tiny-workload case is microsecond-scale,
        # where run-to-run jitter is unbounded
        code, _ = run_tiny(
            tmp_path, "--compare", str(out), "--speedup-floor", "0.01",
            "--threshold", "1000",
        )
        assert code == 0
        assert "no regression" in capsys.readouterr().out

    def test_compare_detects_regression(self, tmp_path, capsys):
        code, out = run_tiny(tmp_path)
        assert code == 0
        doctored = json.loads(out.read_text())
        for case in doctored["results"].values():
            case["seconds_min"] /= 1e6  # impossible baseline
        baseline = tmp_path / "BENCH_doctored.json"
        baseline.write_text(json.dumps(doctored))
        # --min-gate-ms 0 keeps the sub-ms doctored times gated
        code, _ = run_tiny(
            tmp_path, "--compare", str(baseline),
            "--speedup-floor", "0.01", "--min-gate-ms", "0",
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_compare_missing_baseline(self, tmp_path, capsys):
        code, _ = run_tiny(
            tmp_path, "--compare", str(tmp_path / "nope.json")
        )
        assert code == 2

    def test_float32_suite_runs(self, tmp_path, capsys):
        code, out = run_tiny(tmp_path, "--dtype", "float32")
        assert code == 0
        assert json.loads(out.read_text())["params"]["dtype"] == "float32"


class TestRunner:
    def test_run_case_counts_repeats(self):
        calls = []
        case = BenchCase(
            "probe", lambda: (1,), lambda x: calls.append(x)
        )
        result = run_case(case, warmup=2, repeat=3)
        # 2 warmup + 3 timed + 1 tracemalloc
        assert len(calls) == 6
        assert len(result.seconds) == 3
        assert result.seconds_min <= result.seconds_mean

    def test_fresh_state_reruns_setup(self):
        built = []

        def setup():
            built.append(1)
            return (len(built),)

        case = BenchCase("probe", setup, lambda x: x, fresh_state=True)
        run_case(case, warmup=1, repeat=2)
        assert len(built) == 4  # warmup + 2 repeats + tracemalloc

    def test_run_case_rejects_zero_repeats(self):
        case = BenchCase("probe", lambda: (), lambda: None)
        with pytest.raises(ValueError):
            run_case(case, repeat=0)

    def test_run_suite_and_compare_roundtrip(self):
        cases = [
            BenchCase("a", lambda: (), lambda: sum(range(100))),
            BenchCase("b", lambda: (), lambda: sum(range(100))),
        ]
        run = run_suite(
            cases, tag="t", params={}, warmup=0, repeat=1
        )
        document = run.to_dict()
        ok, lines = compare_runs(document, document, threshold=3.0)
        assert ok
        assert len(lines) == 2
        # a missing case fails the gate
        shrunk = json.loads(json.dumps(document))
        del shrunk["results"]["b"]
        ok, lines = compare_runs(shrunk, document)
        assert not ok
        assert any("missing" in line for line in lines)

    def test_compare_skips_sub_ms_cases_by_default(self):
        document = {
            "results": {"fast": {"seconds_min": 1e-5}},
            "derived": {},
        }
        slower = {
            "results": {"fast": {"seconds_min": 1e-3}},
            "derived": {},
        }
        ok, lines = compare_runs(slower, document, threshold=3.0)
        assert ok  # 100x slower but sub-ms baseline: not gated
        assert any("not gated" in line for line in lines)
        ok, _ = compare_runs(
            slower, document, threshold=3.0, min_gate_seconds=0.0
        )
        assert not ok

    def test_machine_info_counts_the_cores_the_process_may_use(
        self, monkeypatch
    ):
        # a 4-core host that pins the job to one core: the worker
        # scaling floor must see one CPU and stay unarmed
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        machine = machine_info()
        assert machine["cpu_count"] == 1
        pinned = {
            "machine": machine,
            "derived": {"speedup_workers_4_vs_1": 1.0},
        }
        ok, lines = compare_runs(pinned, {"results": {}})
        assert ok
        assert "not gated" in lines[0]


class TestListFlag:
    def test_list_enumerates_cases_without_running(self, tmp_path, capsys):
        code = main(["--list"])
        assert code == 0
        out = capsys.readouterr().out
        for case in (
            "build_transition",
            "batch_blocked_kernel",
            "engine_batch_top_k",
            "cluster_scaling",
        ):
            assert case in out
        # nothing was written
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_list_wins_over_run_flags(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_x.json"
        code = main(["--list", "--tag", "x", "--output", str(out_file)])
        assert code == 0
        assert not out_file.exists()
