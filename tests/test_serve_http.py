"""Tests for the stdlib HTTP front end and the serving smoke CLI."""

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.graph import figure1_citation_graph, random_digraph
from repro.serve import ServingService, serve_http
from repro.serve.__main__ import main as serve_main


def http_json(url, payload=None, timeout=30.0):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method="POST" if data is not None else "GET",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


@pytest.fixture()
def server():
    service = ServingService(
        figure1_citation_graph(),
        num_iterations=10,
        max_batch=16,
        max_wait_ms=2.0,
    )
    service.start_background()
    http = serve_http(service, port=0, background=True)
    try:
        yield http
    finally:
        http.stop()
        service.close()


class TestEndpoints:
    def test_healthz(self, server):
        assert http_json(f"{server.url}/healthz") == {"ok": True}

    def test_top_k_by_label(self, server):
        from repro.engine import SimilarityEngine

        document = http_json(
            f"{server.url}/top_k", {"query": "i", "k": 2}
        )
        expected = SimilarityEngine(
            figure1_citation_graph(), num_iterations=10
        ).top_k("i", k=2)
        assert document["query_label"] == "i"
        assert [r["label"] for r in document["results"]] == [
            e.label for e in expected
        ]
        assert [r["score"] for r in document["results"]] == pytest.approx(
            [e.score for e in expected]
        )

    def test_score(self, server):
        document = http_json(
            f"{server.url}/score", {"u": "h", "v": "d"}
        )
        assert document["score"] > 0

    def test_status_reflects_traffic(self, server):
        http_json(f"{server.url}/top_k", {"query": "h", "k": 3})
        status = http_json(f"{server.url}/status")
        assert status["broker"]["requests"] >= 1
        assert status["snapshots"]["current"]["nodes"] == 11

    def test_warmup(self, server):
        document = http_json(f"{server.url}/warmup", {})
        assert document["engine_stats"]["transition_builds"] == 1

    def test_mutate_hot_swaps(self, server):
        before = http_json(
            f"{server.url}/top_k", {"query": "h", "k": 3}
        )
        document = http_json(
            f"{server.url}/mutate", {"add": [["a", "h"], ["b", "h"]]}
        )
        assert document["snapshot"]["seq"] == 1
        after = http_json(
            f"{server.url}/top_k", {"query": "h", "k": 3}
        )
        assert (
            [r["score"] for r in after["results"]]
            != [r["score"] for r in before["results"]]
        )

    def test_no_op_mutate_answers_with_the_current_seq(self, server):
        for body in (
            {"add": [["a", "b"]]},  # already an edge
            {"add": [["a", "h"]], "remove": [["a", "h"]]},
        ):
            document = http_json(f"{server.url}/mutate", body)
            assert document["snapshot"]["seq"] == 0
        status = http_json(f"{server.url}/status")
        assert status["snapshots"]["swaps"] == 0
        assert status["snapshots"]["builds"] == 0

    def test_unknown_node_answers_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(f"{server.url}/top_k", {"query": "zzz"})
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_missing_field_answers_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(f"{server.url}/top_k", {"k": 3})
        assert excinfo.value.code == 400

    def test_bad_json_answers_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/top_k", data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_route_answers_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(f"{server.url}/nope")
        assert excinfo.value.code == 404


class TestConcurrentServing:
    def test_64_concurrent_queries_coalesce(self):
        """The CI smoke scenario, in-process: 64 concurrent HTTP
        clients, coalescing proven by broker stats."""
        service = ServingService(
            random_digraph(200, 1200, seed=13),
            num_iterations=6,
            max_batch=32,
            max_wait_ms=2.0,
            cache_entries=0,
        )
        service.start_background()
        http = serve_http(service, port=0, background=True)
        try:
            def query(q):
                return http_json(
                    f"{http.url}/top_k", {"query": q, "k": 5}
                )

            with ThreadPoolExecutor(max_workers=64) as pool:
                answers = list(pool.map(query, range(64)))
            assert len(answers) == 64
            assert all("results" in a for a in answers)
            stats = service.broker.stats
            assert stats.dispatched == 64
            assert stats.errors == 0
            assert stats.largest_batch >= 2       # coalescing proven
            assert stats.batches < 64
        finally:
            http.stop()
            service.close()


class TestSmokeCli:
    def test_smoke_command_passes_and_writes_histogram(
        self, tmp_path, capsys
    ):
        out = tmp_path / "smoke.json"
        code = serve_main([
            "smoke",
            "--nodes", "150", "--edges", "900",
            "--num-iterations", "5",
            "--clients", "16", "--requests-per-client", "2",
            "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["total_requests"] == 32
        assert report["checks"]["coalescing_happened"]
        assert report["checks"]["all_requests_answered"]
        latency = report["latency"]
        assert latency["count"] == 32
        assert 0 < latency["p50_ms"] <= latency["p99_ms"]
        assert sum(latency["histogram"].values()) == 32
        assert "passed" in capsys.readouterr().out

    def test_list_like_help_runs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            serve_main(["--help"])
        assert excinfo.value.code == 0
        assert "smoke" in capsys.readouterr().out


class TestStatusCounters:
    """PR 4 satellite: every caching layer's counters in /status."""

    def test_status_exposes_cache_and_engine_counters(self, server):
        http_json(f"{server.url}/top_k", {"query": "h", "k": 3})
        http_json(f"{server.url}/top_k", {"query": "h", "k": 3})
        status = http_json(f"{server.url}/status")
        cache = status["cache"]
        for key in ("hits", "misses", "evictions", "entries",
                    "hit_rate"):
            assert key in cache
        assert cache["hits"] >= 1  # the repeated query
        engine = status["engine"]
        for key in ("transition_builds", "compression_builds",
                    "index_adoptions", "hits", "misses",
                    "column_evictions"):
            assert key in engine
        assert engine["transition_builds"] == 1
        # nested copy (snapshot-scoped) stays consistent with the hoist
        nested = status["snapshots"]["current"]["engine_stats"]
        assert nested == engine
        assert status["snapshots"]["index"]["path"] is None

    def test_status_cli_renders_counters(self, server, capsys):
        from repro.serve.__main__ import main as cli_main

        http_json(f"{server.url}/top_k", {"query": "h", "k": 3})
        assert cli_main(["status", "--url", server.url]) == 0
        out = capsys.readouterr().out
        assert "result cache" in out
        assert "hit_rate=" in out
        assert "index_adoptions=" in out
        assert "index         not configured" in out
        assert cli_main(["status", "--url", server.url, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "cache" in document and "engine" in document

    def test_render_status_handles_disabled_cache(self):
        from repro.serve.__main__ import render_status

        text = render_status({"cache": None, "config": {},
                              "snapshots": {}})
        assert "result cache  disabled" in text
