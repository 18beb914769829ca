"""Tests for :mod:`repro.obs` and :mod:`repro.bench.signal`.

Covers the Prometheus exposition format, histogram invariants, the
tracing pipeline end to end (including trace ids echoed by the worker
threads), slow-query log bounding, offline latency summaries, the
per-worker series, and the E-Divisive change-point gate.
"""

from __future__ import annotations

import asyncio
import json
import os
import re

import pytest

from repro.bench.signal import (
    detect_changes,
    e_divisive,
    run_detection,
)
from repro.graph.generators import random_digraph
from repro.obs import (
    MetricsRegistry,
    NullObservability,
    Observability,
    SlowQueryLog,
    Trace,
    Tracer,
)
from repro.serve import ServingService


# ---------------------------------------------------------------------------
# Prometheus text exposition conformance
# ---------------------------------------------------------------------------
def test_counter_exposition_has_help_type_and_value():
    registry = MetricsRegistry()
    counter = registry.counter("acme_requests_total", "Requests.")
    counter.inc(3)
    text = registry.render()
    assert "# HELP acme_requests_total Requests.\n" in text
    assert "# TYPE acme_requests_total counter\n" in text
    assert "acme_requests_total 3.0\n" in text


def test_labelled_samples_sort_and_escape():
    registry = MetricsRegistry()
    counter = registry.counter(
        "acme_ops_total", "Ops.", labelnames=("zone", "op")
    )
    counter.labels(zone='us"1', op="read\nwrite\\x").inc()
    text = registry.render()
    # labels render sorted by name; values escape \ " and newline
    assert (
        'acme_ops_total{op="read\\nwrite\\\\x",zone="us\\"1"} 1.0\n'
        in text
    )


def test_metric_names_and_duplicates_are_validated():
    registry = MetricsRegistry()
    registry.counter("ok_name_total", "x")
    with pytest.raises(ValueError):
        registry.counter("ok_name_total", "duplicate")
    with pytest.raises(ValueError):
        registry.counter("0bad", "leading digit")
    with pytest.raises(ValueError):
        registry.gauge("bad-dash", "punctuation")


def test_counter_is_monotonic():
    registry = MetricsRegistry()
    counter = registry.counter("acme_total", "x")
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_every_metric_line_is_well_formed():
    """Each sample line must parse as <name>{labels}? <float>."""
    obs = Observability()
    obs.requests_top_k.inc()
    obs.request_duration.observe(0.012)
    obs.shard_dispatch.labels(worker="0").observe(0.001)
    sample = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (?:[0-9.e+-]+|\+Inf)$"
    )
    for line in obs.render().strip().splitlines():
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE "))
        else:
            assert sample.match(line), line


# ---------------------------------------------------------------------------
# histogram invariants
# ---------------------------------------------------------------------------
def _bucket_counts(text: str, name: str) -> list[tuple[str, float]]:
    rows = []
    for line in text.splitlines():
        if line.startswith(f"{name}_bucket"):
            le = re.search(r'le="([^"]+)"', line).group(1)
            rows.append((le, float(line.rsplit(" ", 1)[1])))
    return rows


def test_histogram_buckets_are_cumulative_and_bounded():
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "acme_latency_seconds", "x", buckets=(0.01, 0.1, 1.0)
    )
    for value in (0.005, 0.005, 0.05, 0.5, 5.0):
        histogram.observe(value)
    text = registry.render()
    rows = _bucket_counts(text, "acme_latency_seconds")
    assert [le for le, _ in rows] == ["0.01", "0.1", "1.0", "+Inf"]
    counts = [count for _, count in rows]
    assert counts == sorted(counts)  # cumulative => non-decreasing
    assert counts == [2.0, 3.0, 4.0, 5.0]
    assert "acme_latency_seconds_count 5.0\n" in text
    assert registry.sample_value(
        "acme_latency_seconds_sum"
    ) == pytest.approx(5.56)


def test_histogram_rejects_bad_buckets():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.histogram("acme_h", "x", buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        registry.histogram("acme_h2", "x", buckets=(2.0, 1.0))


def test_callback_metrics_pull_at_render_time():
    registry = MetricsRegistry()
    state = {"served": 0}
    registry.counter_fn(
        "acme_served_total", "x", lambda: state["served"]
    )
    state["served"] = 7
    assert registry.sample_value("acme_served_total") == 7.0
    # a failing callback contributes no samples instead of raising
    registry.gauge_fn("acme_broken", "x", lambda: 1 / 0)
    assert "acme_broken" not in registry.render().replace(
        "# HELP acme_broken", ""
    ).replace("# TYPE acme_broken", "")


# ---------------------------------------------------------------------------
# tracing and the slow-query log
# ---------------------------------------------------------------------------
def test_trace_spans_record_order_and_meta():
    trace = Trace("cafe", "top_k")
    with trace.span("compute", batch=4):
        pass
    trace.add_span("render", 0.001)
    assert trace.span_names() == ["compute", "render"]
    document = trace.to_dict()
    assert document["spans"][0]["batch"] == 4
    assert document["spans"][1]["duration_ms"] == 1.0


def test_tracer_routes_only_slow_or_failed_traces():
    tracer = Tracer(slow_query_ms=10_000.0)
    fast = tracer.start("top_k")
    tracer.finish(fast)
    assert tracer.slow_queries == 0
    failed = tracer.start("top_k")
    tracer.finish(failed, status="error")  # failures always log
    assert tracer.slow_queries == 1
    assert tracer.slow_log.entries()[-1]["status"] == "error"
    assert [t.trace_id for t in tracer.last()] == [
        fast.trace_id, failed.trace_id,
    ]


def test_tracer_none_threshold_disables_logging():
    tracer = Tracer(slow_query_ms=None)
    trace = tracer.start("top_k")
    tracer.finish(trace, status="error")
    assert tracer.slow_queries == 0
    assert tracer.slow_log.entries() == []


def test_slow_query_log_ring_is_bounded():
    log = SlowQueryLog(max_entries=3)
    for n in range(10):
        log.write({"trace_id": f"t{n}"})
    assert [e["trace_id"] for e in log.entries()] == ["t7", "t8", "t9"]
    assert log.written == 10


def test_slow_query_log_rotates_once_and_bounds_disk(tmp_path):
    path = tmp_path / "slow.jsonl"
    log = SlowQueryLog(path, max_entries=8, max_bytes=400)
    for n in range(50):
        log.write({"trace_id": f"{n:04d}", "pad": "x" * 40})
    assert log.rotations >= 1
    rotated = tmp_path / "slow.jsonl.1"
    assert rotated.exists()
    assert path.stat().st_size <= 400
    assert rotated.stat().st_size <= 400
    # both files still parse line by line, newest entries in `path`
    lines = path.read_text().strip().splitlines()
    assert json.loads(lines[-1])["trace_id"] == "0049"
    json.loads(rotated.read_text().strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# offline latency summaries (smoke and chaos reports, cluster bench)
# ---------------------------------------------------------------------------
class TestLatencyStats:
    def test_loadgen_latency_stats(self):
        from repro.obs.metrics import LatencyStats

        stats = LatencyStats.from_seconds(
            [0.001, 0.002, 0.004, 0.1]
        )
        assert stats.count == 4
        assert stats.p50_ms <= stats.p95_ms <= stats.p99_ms
        assert stats.max_ms == pytest.approx(100.0)
        assert sum(stats.histogram.values()) == 4
        assert stats.histogram["<2ms"] == 1     # the 1.0 ms sample
        assert stats.histogram["<4ms"] == 1     # the 2.0 ms sample
        assert stats.histogram["<128ms"] == 1   # the 100 ms sample

    def test_loadgen_rejects_empty_samples(self):
        from repro.obs.metrics import LatencyStats

        with pytest.raises(ValueError):
            LatencyStats.from_seconds([])


# ---------------------------------------------------------------------------
# service integration: in-process
# ---------------------------------------------------------------------------
@pytest.fixture()
def traced_service():
    graph = random_digraph(80, 320, seed=11)
    service = ServingService(graph, slow_query_ms=0.0)
    service.start_background()
    yield service
    service.close()


def test_request_spans_cover_the_full_pipeline(traced_service):
    traced_service.top_k_sync(3, k=5)
    trace = traced_service.observability.tracer.last()[-1]
    # workers=0 shards through the router too: one shard span
    assert trace.span_names() == [
        "coalesce", "dispatch", "shard", "compute", "render",
    ]
    assert trace.status == "ok"
    entry = traced_service.observability.tracer.slow_log.entries()[-1]
    assert entry["trace_id"] == trace.trace_id
    assert entry["slow_query_ms"] == 0.0


def test_metrics_text_reflects_served_requests(traced_service):
    for q in range(4):
        traced_service.top_k_sync(q, k=5)
    traced_service.score_sync(1, 2)
    text = traced_service.metrics_text()
    assert "# TYPE repro_requests_total counter\n" in text
    registry = traced_service.observability.registry
    assert registry.sample_value(
        "repro_requests_total", {"kind": "top_k"}
    ) == 4.0
    assert registry.sample_value(
        "repro_requests_total", {"kind": "score"}
    ) == 1.0
    assert registry.sample_value(
        "repro_request_duration_seconds_count"
    ) == 5.0
    assert registry.sample_value("repro_broker_requests_total") == 5.0


def test_swap_stages_reach_the_histogram(traced_service):
    traced_service.mutate(add=[(0, 0)])  # self-loop: never pre-existing
    registry = traced_service.observability.registry
    for stage in ("build", "commit", "total"):
        assert registry.sample_value(
            "repro_swap_stage_seconds_count",
            {"kind": "delta", "stage": stage},
        ) == 1.0
    assert registry.sample_value(
        "repro_snapshot_delta_swaps_total"
    ) == 1.0


def test_telemetry_disabled_serves_without_metrics():
    graph = random_digraph(40, 160, seed=5)
    service = ServingService(graph, telemetry=False)
    service.start_background()
    try:
        ranking = service.top_k_sync(1, k=3)
        assert len(ranking) == 3
        assert isinstance(service.observability, NullObservability)
        assert "telemetry disabled" in service.metrics_text()
        assert service.status()["observability"] == {"enabled": False}
    finally:
        service.close()


# ---------------------------------------------------------------------------
# service integration: trace ids reach the worker threads
# ---------------------------------------------------------------------------
def test_trace_ids_echoed_in_shard_meta():
    graph = random_digraph(120, 600, seed=23)
    service = ServingService(graph, workers=2, slow_query_ms=None)

    async def drive():
        async with service:
            await asyncio.gather(
                *(service.top_k(q, k=5) for q in range(6))
            )
            return service.metrics_text()

    text = asyncio.run(drive())
    try:
        traces = service.observability.tracer.last()
        assert len(traces) == 6
        shard_spans = [
            span
            for trace in traces
            for span in trace.spans
            if span.name == "shard"
        ]
        assert shard_spans, "no shard spans recorded"
        # every shard span proves the worker echoed this request's
        # trace id back in the shard meta
        for span in shard_spans:
            assert span.meta["echoed"] is True
        # the coalesced batch crossed both workers
        workers = {
            span.meta["worker"]
            for trace in traces
            for span in trace.spans
            if span.name == "shard"
        }
        assert workers == {0, 1}

        # per-worker series carry the bare worker index, like
        # repro_shard_dispatch_seconds
        for worker in ("0", "1"):
            assert (
                f'repro_worker_shards_total{{worker="{worker}"}}'
                in text
            )
        total_columns = sum(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_worker_columns_served_total{")
        )
        assert total_columns >= 6.0
        assert text.count("repro_worker_shards_total{") == 2
        # the workers computed in the snapshot's engine
        assert service.observability.registry.sample_value(
            "repro_engine_column_computes"
        ) == 6.0
    finally:
        service.close()


# ---------------------------------------------------------------------------
# change-point detection
# ---------------------------------------------------------------------------
def test_e_divisive_finds_an_injected_step():
    series = [10.0, 10.1, 9.9, 10.0, 20.2, 19.8, 20.1, 20.0]
    points = e_divisive(series, seed=3)
    assert [p["index"] for p in points] == [4]
    assert points[0]["p_value"] <= 0.05


def test_e_divisive_is_quiet_on_stationary_noise():
    series = [10.0 + 0.3 * ((i * 7) % 5 - 2) for i in range(12)]
    assert e_divisive(series, seed=3) == []
    assert e_divisive([5.0] * 10, seed=3) == []
    assert e_divisive([1.0, 2.0, 3.0], seed=3) == []  # too short


def _bench_entry(tag: str, case_ms: float, speedup: float) -> dict:
    return {
        "tag": tag,
        "document": {
            "results": {"case_a": {"seconds_min": case_ms / 1e3}},
            "derived": {"speedup_a": speedup},
        },
    }


def _synthetic_history(regressed: bool) -> list[dict]:
    entries = [
        _bench_entry(f"r{i}", 10.0 + 0.1 * (i % 3), 4.0)
        for i in range(5)
    ]
    late_ms = 20.0 if regressed else 10.0
    entries += [
        _bench_entry(f"r{i}", late_ms + 0.1 * (i % 3), 4.0)
        for i in range(5, 10)
    ]
    return entries


def test_detect_changes_flags_direction_per_orientation():
    findings = detect_changes(_synthetic_history(regressed=True))
    assert [f["metric"] for f in findings] == ["case_a"]
    finding = findings[0]
    assert finding["direction"] == "regression"
    assert finding["tag"] == "r5"
    assert finding["ratio"] == pytest.approx(2.0, rel=0.05)
    # a timing drop is an improvement, not a regression
    improved = list(reversed(_synthetic_history(regressed=True)))
    for i, entry in enumerate(improved):
        entry["tag"] = f"r{i}"
    down = detect_changes(improved)
    assert down[0]["direction"] == "improvement"


def test_speedup_drop_is_a_regression():
    entries = [
        _bench_entry(f"r{i}", 10.0 + 0.1 * (i % 3), 4.0 + 0.02 * (i % 2))
        for i in range(5)
    ]
    entries += [
        _bench_entry(f"r{i}", 10.0 + 0.1 * (i % 3), 2.0 + 0.02 * (i % 2))
        for i in range(5, 10)
    ]
    findings = detect_changes(entries)
    assert [f["metric"] for f in findings] == ["speedup_a"]
    assert findings[0]["direction"] == "regression"


def test_run_detection_gates_unless_allowlisted(tmp_path):
    entries = _synthetic_history(regressed=True)
    ok, findings = run_detection(
        entries, expected_path=tmp_path / "missing.json"
    )
    assert not ok
    assert findings[0]["expected"] is False

    allowlist = tmp_path / "expected.json"
    allowlist.write_text(json.dumps({
        "expected": [{
            "metric": "case_a",
            "tag": "r5",
            "reason": "workload doubled on purpose",
        }],
    }))
    ok, findings = run_detection(entries, expected_path=allowlist)
    assert ok
    assert findings[0]["expected"] is True
    assert findings[0]["reason"] == "workload doubled on purpose"

    ok, _ = run_detection(
        _synthetic_history(regressed=False),
        expected_path=tmp_path / "missing.json",
    )
    assert ok


def test_min_shift_suppresses_small_moves():
    entries = [
        _bench_entry(f"r{i}", 10.0, 4.0) for i in range(5)
    ] + [
        _bench_entry(f"r{i}", 10.5, 4.0) for i in range(5, 10)
    ]
    assert detect_changes(entries, min_shift=0.10) == []
    assert detect_changes(entries, min_shift=0.01) != []


def test_bench_cli_history_detect_gate(tmp_path, monkeypatch, capsys):
    from repro.bench.__main__ import main

    monkeypatch.chdir(tmp_path)
    base = 1_600_000_000
    for i, entry in enumerate(_synthetic_history(regressed=True)):
        path = tmp_path / f"BENCH_{entry['tag']}.json"
        path.write_text(json.dumps(dict(
            entry["document"], tag=entry["tag"],
        )))
        os.utime(path, (base + i, base + i))  # commit order via mtime
    assert main(["--history", "--detect"]) == 1
    out = capsys.readouterr().out
    assert "FAIL regression" in out

    (tmp_path / "BENCH_expected_changes.json").write_text(json.dumps({
        "expected": [{"metric": "case_a", "tag": "r5",
                      "reason": "intentional"}],
    }))
    assert main(["--history", "--detect"]) == 0
    out = capsys.readouterr().out
    assert "ok  expected regression" in out
