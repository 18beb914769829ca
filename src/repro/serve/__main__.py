"""``python -m repro.serve`` — run and poke the similarity server.

Subcommands::

    serve    start the HTTP server (random graph, an edge-list file,
             or the paper's Figure 1 graph); ``--index PATH`` wires a
             persistent precomputation index for near-zero restarts,
             ``--workers K`` shards every micro-batch across K worker
             threads sharing one in-process index (repro.cluster)
    status   GET /status from a running server and summarise its
             cache / engine / broker / cluster / index counters
             (--json for raw)
    warmup   POST /warmup to a running server
    metrics  GET /metrics from a running server and print the raw
             Prometheus text exposition (pipe it to grep, or point a
             Prometheus scrape job at the endpoint directly)
    smoke    self-contained serving smoke test: ephemeral server,
             concurrent clients, assert coalescing, write a latency
             histogram (the CI job); ``--workers`` /
             ``--mutate-mid-run`` turn it into the full multi-worker
             hot-swap drill, ``--mutate-stream N`` streams N
             single-edge mutations under load and asserts they all
             swapped through the O(delta) incremental path; the run
             also scrapes ``/metrics`` mid-load and asserts the
             exported counters agree with the broker's stats
    chaos    scripted chaos drill (repro.serve.chaos): under client
             load, an engine call that raises for chosen queries,
             one that blocks past a short deadline, a flood past the
             queue bound, and a canary whose green engine raises;
             asserts zero unaccounted requests, bounded p99, each
             fault's answers, recovery after each, and canary
             auto-rollback; writes the report JSON (the CI artifact)

Examples::

    python -m repro.serve serve --nodes 2000 --edges 12000 --port 8321
    python -m repro.serve serve --index graph.simidx --workers 4
    curl -s localhost:8321/status | python -m json.tool
    curl -s -X POST localhost:8321/top_k \
        -d '{"query": 7, "k": 5}' | python -m json.tool
    python -m repro.serve status --url http://localhost:8321
    python -m repro.serve metrics --url http://localhost:8321
    python -m repro.serve smoke --clients 64 --output smoke.json
    python -m repro.serve smoke --workers 2 --mutate-mid-run
    python -m repro.serve smoke --workers 2 --mutate-stream 6
    python -m repro.serve chaos --workers 2 --clients 32

Every subcommand and flag is documented in ``docs/operations.md``
(cross-checked against these parsers by ``tests/test_docs.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.cliopts import (
    add_config_options,
    add_graph_options,
    build_graph,
    config_from_args,
)
from repro.obs.metrics import LatencyStats
from repro.serve.http import serve_http
from repro.serve.service import ServingService

__all__ = ["build_parser", "main", "render_status", "smoke_exit_code"]


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    add_config_options(parser)
    parser.add_argument(
        "--max-batch", type=int, default=32,
        help="broker micro-batch cap (default 32)",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="broker linger after the first queued request "
        "(default 2.0 ms)",
    )
    parser.add_argument(
        "--cache-entries", type=int, default=1024,
        help="result-cache bound (default 1024; 0 disables)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker threads answering shards of each batch from "
        "the snapshot's one engine (repro.cluster); 0 (default) "
        "starts one per core. OpenBLAS is capped at cores // workers "
        "threads (at least 1) while they run",
    )
    parser.add_argument(
        "--max-delta-fraction", type=float, default=0.10,
        help="largest edit batch (as a fraction of current edges) "
        "applied as O(delta) artifact surgery, bit-identical to a "
        "rebuild; larger batches rebuild, and 0 rebuilds on every "
        "mutation (default 0.10)",
    )
    parser.add_argument(
        "--max-chain-depth", type=int, default=8,
        help="delta generations that may stack before a mutation "
        "folds the chain with a full rebuild: a restart replays one "
        "segment per generation, and memo-gSR* loses biclique "
        "sharing on every touched row (default 8)",
    )
    parser.add_argument(
        "--max-queue-depth", type=int, default=0,
        help="load shedding: reject (HTTP 429 + Retry-After) any "
        "request arriving while this many are already queued in the "
        "broker (default 0 = never shed)",
    )
    parser.add_argument(
        "--default-deadline-ms", type=float, default=0.0,
        help="per-request deadline: a request not answered within "
        "this budget fails with HTTP 504 without poisoning its "
        "micro-batch, even when its kernel call hangs; per-request "
        "'deadline_ms' overrides it (default 0 = no deadline)",
    )
    parser.add_argument(
        "--canary-fraction", type=float, default=0.1,
        help="blue-green mutations (POST /mutate with "
        "'canary': true): fraction of traffic routed to the new "
        "snapshot while it proves itself (default 0.1)",
    )
    parser.add_argument(
        "--no-telemetry", action="store_true",
        help="disable metrics + request tracing (repro.obs); "
        "/metrics then serves a one-line comment document",
    )
    parser.add_argument(
        "--slow-query-ms", type=float, default=250.0,
        help="request traces at or above this total latency (or "
        "that errored) are written to the slow-query log "
        "(default 250.0; pass a negative value to disable)",
    )
    parser.add_argument(
        "--slow-query-log", default=None, metavar="PATH",
        help="JSON-lines file for slow-query traces (bounded: "
        "rotated once to PATH.1 at ~1 MB); default is a memory-only "
        "ring surfaced in /status",
    )


def _build_service(args) -> ServingService:
    return ServingService(
        build_graph(args),
        config_from_args(args),
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        cache_entries=args.cache_entries,
        index_path=getattr(args, "index", None),
        workers=args.workers,
        max_delta_fraction=args.max_delta_fraction,
        max_chain_depth=args.max_chain_depth,
        max_queue_depth=args.max_queue_depth,
        default_deadline_ms=args.default_deadline_ms,
        canary_fraction=args.canary_fraction,
        telemetry=not args.no_telemetry,
        slow_query_ms=(
            None if args.slow_query_ms < 0 else args.slow_query_ms
        ),
        slow_query_log=args.slow_query_log,
    )


def _metric_total(text: str, name: str) -> float | None:
    """Sum every sample of metric ``name`` in a Prometheus text body.

    Sums across label combinations (``name{...}`` and bare ``name``
    lines both count); returns ``None`` when the series is absent.
    """
    total, found = 0.0, False
    for line in text.splitlines():
        if line.startswith(name + "{") or line.startswith(name + " "):
            total += float(line.rsplit(" ", 1)[1])
            found = True
    return total if found else None


def _http_json(
    url: str, payload: dict | None = None, timeout: float = 30.0
) -> dict:
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method="POST" if data is not None else "GET",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve similarity queries over HTTP with "
        "micro-batch coalescing and snapshot hot-swap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve", help="start the HTTP server (runs until interrupted)"
    )
    add_graph_options(serve)
    _add_engine_options(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 picks an ephemeral one; default 8321)",
    )
    serve.add_argument(
        "--no-warmup", action="store_true",
        help="skip pre-building Q/Q^T before accepting traffic",
    )
    serve.add_argument(
        "--index", default=None, metavar="PATH",
        help="persistent precomputation index file (repro.index): "
        "loaded (mmap) at startup when its fingerprint matches, "
        "written after warmup/mutate otherwise — restarts then skip "
        "the artifact rebuild entirely",
    )
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")

    for name, help_text in (
        ("status", "fetch and summarise /status from a running "
         "server (cache/engine/broker counters; --json for the raw "
         "document)"),
        ("warmup", "trigger /warmup on a running server"),
        ("metrics", "fetch /metrics from a running server and print "
         "the raw Prometheus text exposition"),
    ):
        client = sub.add_parser(name, help=help_text)
        client.add_argument(
            "--url", default="http://127.0.0.1:8321",
            help="server base URL (default http://127.0.0.1:8321)",
        )
        if name == "status":
            client.add_argument(
                "--json", action="store_true",
                help="print the raw JSON document instead of the "
                "summary",
            )

    smoke = sub.add_parser(
        "smoke",
        help="self-contained serving smoke test (the CI job): "
        "ephemeral server, concurrent clients, coalescing assert, "
        "latency histogram",
    )
    add_graph_options(smoke)
    _add_engine_options(smoke)
    smoke.add_argument(
        "--clients", type=int, default=64,
        help="concurrent HTTP clients (default 64)",
    )
    smoke.add_argument(
        "--requests-per-client", type=int, default=2,
        help="queries each client issues (default 2)",
    )
    smoke.add_argument("--k", type=int, default=10)
    smoke.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0 = ephemeral)",
    )
    smoke.add_argument(
        "--output", default="SERVE_smoke.json",
        help="latency-histogram report path "
        "(default SERVE_smoke.json)",
    )
    smoke.add_argument(
        "--index", default=None, metavar="PATH",
        help="persistent precomputation index file, as for serve; "
        "with --mutate-stream every delta swap then persists a "
        ".delta-<seq> segment beside it (the mutation-smoke CI job "
        "compacts and verifies that chain afterwards)",
    )
    smoke.add_argument(
        "--mutate-mid-run", action="store_true",
        help="POST /mutate while the client load is in flight and "
        "assert the hot-swap completed with zero failed requests",
    )
    smoke.add_argument(
        "--mutate-stream", type=int, default=0, metavar="N",
        help="stream N single-edge mutations while the client load "
        "is in flight and assert every one swapped through the "
        "O(delta) incremental path with zero failed requests (the "
        "mutation-smoke CI job); the swap-latency breakdown lands "
        "in the report JSON",
    )
    smoke.set_defaults(nodes=800, edges=4800)

    chaos = sub.add_parser(
        "chaos",
        help="scripted chaos drill (the chaos-drill CI job): under "
        "client load, a raising and a blocking engine call, a flood "
        "past the queue bound, and a canary whose green engine "
        "raises; assert zero unaccounted requests, bounded p99, each "
        "fault's answers and recovery, and canary auto-rollback",
    )
    chaos.add_argument(
        "--workers", type=int, default=2,
        help="workers in the attacked pool (default 2)",
    )
    chaos.add_argument(
        "--clients", type=int, default=16,
        help="concurrent HTTP clients per wave (default 16)",
    )
    chaos.add_argument(
        "--requests-per-client", type=int, default=4,
        help="queries each client issues per wave (default 4)",
    )
    chaos.add_argument(
        "--nodes", type=int, default=300,
        help="random-graph nodes (default 300)",
    )
    chaos.add_argument(
        "--edges", type=int, default=1800,
        help="random-graph edges (default 1800)",
    )
    chaos.add_argument(
        "--seed", type=int, default=7,
        help="graph + query-stream seed (default 7)",
    )
    chaos.add_argument(
        "--p99-budget-ms", type=float, default=30000.0,
        help="p99 latency bound the drill asserts (default 30000)",
    )
    chaos.add_argument(
        "--output", default="SERVE_chaos.json",
        help="drill report path (default SERVE_chaos.json)",
    )
    return parser


def _cmd_serve(args) -> int:
    service = _build_service(args)
    service.start_background()
    if not args.no_warmup:
        print("warming up (building Q / Q^T) ...", flush=True)
        service.warmup()
    server = serve_http(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    snapshot = service.snapshots.current
    print(
        f"serving {snapshot.graph!r} measure={args.measure} "
        f"({service.cluster.pool.size} worker threads) on "
        f"{server.url}  (Ctrl-C to stop)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        service.close()
    return 0


def _cmd_client(args, endpoint: str, post: bool) -> int:
    url = args.url.rstrip("/") + endpoint
    try:
        document = _http_json(url, payload={} if post else None)
    except OSError as exc:
        print(f"cannot reach {url}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(document, indent=2))
    return 0


def render_status(document: dict) -> str:
    """A terminal-friendly summary of the ``/status`` document.

    Surfaces every caching layer's counters — result-cache hits /
    misses / evictions and hit rate, the engine's column reads and
    its artifact builds vs. index adoptions, broker coalescing, and
    the snapshot manager's hot-swap + persistent-index state.
    """
    config = document.get("config", {})
    engine = document.get("engine", {})
    broker = document.get("broker", {})
    cache = document.get("cache")
    snapshots = document.get("snapshots", {})
    current = snapshots.get("current", {})
    index = snapshots.get("index", {})
    lines = [
        f"uptime        {document.get('uptime_seconds', 0.0):.1f} s",
        f"graph         {current.get('nodes', '?')} nodes / "
        f"{current.get('edges', '?')} edges "
        f"(snapshot seq {current.get('seq', '?')})",
        f"config        measure={config.get('measure')} "
        f"c={config.get('c')} dtype={config.get('dtype')} "
        f"iterations={config.get('num_iterations')} "
        f"mode={config.get('mode', 'exact')}",
        f"broker        batches={broker.get('batches', 0)} "
        f"dispatched={broker.get('dispatched', 0)} "
        f"coalesced={broker.get('coalesced_requests', 0)} "
        f"largest_batch={broker.get('largest_batch', 0)}",
    ]
    if cache is not None:
        lines.append(
            f"result cache  hits={cache.get('hits', 0)} "
            f"misses={cache.get('misses', 0)} "
            f"evictions={cache.get('evictions', 0)} "
            f"entries={cache.get('entries', 0)} "
            f"hit_rate={cache.get('hit_rate', 0.0):.1%}"
        )
    else:
        lines.append("result cache  disabled")
    lines.append(
        f"engine        column hits={engine.get('hits', 0)} "
        f"misses={engine.get('misses', 0)}; builds: "
        f"transition={engine.get('transition_builds', 0)} "
        f"compression={engine.get('compression_builds', 0)} "
        f"matrix={engine.get('matrix_builds', 0)}; "
        f"index_adoptions={engine.get('index_adoptions', 0)}"
    )
    approx = document.get("approx")
    if approx:
        estimator = approx.get("estimator", {})
        lines.append(
            f"approx        epsilon={approx.get('epsilon')} "
            f"walks={approx.get('walk_length')}x"
            f"{approx.get('samples_per_node')} "
            f"index_bytes={approx.get('index_bytes', 0)} "
            f"samples_drawn={estimator.get('samples_drawn', 0)}"
        )
    delta = snapshots.get("delta", {})
    lines.append(
        f"snapshots     builds={snapshots.get('builds', 0)} "
        f"swaps={snapshots.get('swaps', 0)} "
        f"(delta={delta.get('swaps', 0)} "
        f"full={delta.get('full_swaps', 0)} "
        f"fallbacks={delta.get('fallbacks', 0)})"
    )
    if delta:
        lines.append(
            f"delta         chain_depth={delta.get('chain_depth', 0)}/"
            f"{delta.get('max_chain_depth', 0)} "
            f"max_fraction={delta.get('max_delta_fraction', 0.0)} "
            f"segments_loaded={delta.get('segments_loaded', 0)}"
        )
    latency = snapshots.get("swap_latency", {})
    for kind in ("delta", "full"):
        entry = latency.get(kind) or {}
        if not entry.get("count"):
            continue

        def _stage(stage: str) -> str:
            row = entry.get(stage) or {}
            p50 = row.get("p50", 0.0) * 1e3
            p90 = row.get("p90", row.get("max", 0.0)) * 1e3
            mx = row.get("max", 0.0) * 1e3
            return f"{p50:.1f}/{p90:.1f}/{mx:.1f} ms"

        lines.append(
            f"swap latency  {kind}: count={entry['count']} "
            f"(p50/p90/max) build={_stage('build_s')} "
            f"commit={_stage('commit_s')} "
            f"total={_stage('total_s')}"
        )
    cluster = document.get("cluster")
    if cluster:
        pool = cluster.get("pool", {})
        lines.append(
            f"cluster       workers={pool.get('workers', 0)} "
            f"blas_threads={pool.get('blas_threads')} "
            f"shards={cluster.get('shards_dispatched', 0)}"
        )
    if index.get("path"):
        lines.append(
            f"index         {index['path']} "
            f"loads={index.get('loads', 0)} "
            f"saves={index.get('saves', 0)} "
            f"load_errors={index.get('load_errors', 0)}"
        )
    else:
        lines.append("index         not configured")
    guard = document.get("guard") or {}
    if guard:
        lines.append(
            f"guard         queue_depth={guard.get('queue_depth', 0)}/"
            f"{guard.get('max_queue_depth', 0) or 'unbounded'} "
            f"shed={guard.get('shed', 0)} "
            f"deadline_ms={guard.get('default_deadline_ms', 0.0):g} "
            f"deadline_expired={guard.get('deadline_expired', 0)} "
            f"abandoned_batches={broker.get('abandoned_batches', 0)}"
        )
        canary = guard.get("canary")
        if canary:
            counts = canary.get("counts", {})
            green = counts.get("green", {})
            error_rate = canary.get("error_rate", {})
            p95_ms = canary.get("p95_ms", {})
            lines.append(
                f"canary        outcome="
                f"{canary.get('outcome') or 'in-flight'} "
                f"fraction={canary.get('fraction')} "
                f"green ok={green.get('ok', 0)} "
                f"errors={green.get('errors', 0)} "
                f"error_delta="
                f"{error_rate.get('green', 0.0) - error_rate.get('blue', 0.0):+.3f} "
                f"green_p95={p95_ms.get('green', 0.0):.1f}ms"
            )
    obs = document.get("observability") or {}
    if obs.get("enabled"):
        tracing = obs.get("tracing", {})
        slow_log = tracing.get("slow_log", {})
        lines.append(
            f"telemetry     traces={tracing.get('traces_started', 0)} "
            f"slow_queries={tracing.get('slow_queries', 0)} "
            f"(threshold={tracing.get('slow_query_ms')} ms, "
            f"log={slow_log.get('path') or 'memory ring'}); "
            f"scrape /metrics for the full catalog"
        )
    elif obs:
        lines.append("telemetry     disabled (--no-telemetry)")
    return "\n".join(lines)


def _cmd_status(args) -> int:
    url = args.url.rstrip("/") + "/status"
    try:
        document = _http_json(url)
    except OSError as exc:
        print(f"cannot reach {url}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        print(render_status(document))
    return 0


def _cmd_metrics(args) -> int:
    url = args.url.rstrip("/") + "/metrics"
    try:
        with urllib.request.urlopen(url, timeout=30.0) as response:
            text = response.read().decode()
    except OSError as exc:
        print(f"cannot reach {url}: {exc}", file=sys.stderr)
        return 2
    print(text, end="" if text.endswith("\n") else "\n")
    return 0


def smoke_exit_code(checks: dict, failures: list) -> int:
    """Exit code for a smoke/chaos run: 0 only when *everything* held.

    A non-empty ``failures`` list fails the run even if every named
    check passed — per-request errors must never be summarised away
    into a green exit.

    >>> from repro.serve.__main__ import smoke_exit_code
    >>> smoke_exit_code({"coalesced": True}, [])
    0
    >>> smoke_exit_code({"coalesced": True}, ["query 3: timeout"])
    1
    >>> smoke_exit_code({"coalesced": False}, [])
    1
    """
    return 0 if all(checks.values()) and not failures else 1


def _cmd_smoke(args) -> int:
    service = _build_service(args)
    service.start_background()
    service.warmup()
    server = serve_http(service, port=args.port, background=True)
    url = server.url
    total = args.clients * args.requests_per_client
    print(
        f"smoke: {args.clients} clients x "
        f"{args.requests_per_client} requests against {url} "
        f"({service.cluster.pool.size} worker threads)",
        flush=True,
    )

    import numpy as np

    rng = np.random.default_rng(args.seed)
    nodes = service.snapshots.current.graph.num_nodes
    queries = rng.permutation(nodes)[:total] if total <= nodes else (
        rng.integers(0, nodes, size=total)
    )
    streams = [
        [int(q) for q in queries[i::args.clients]]
        for i in range(args.clients)
    ]
    failures: list[str] = []
    latencies: list[float] = []

    def client(stream: list[int]) -> list[float]:
        lat = []
        for q in stream:
            t0 = time.perf_counter()
            try:
                document = _http_json(
                    f"{url}/top_k", {"query": q, "k": args.k}
                )
                if "results" not in document:
                    failures.append(f"query {q}: {document}")
            except Exception as exc:
                failures.append(f"query {q}: {exc}")
            lat.append(time.perf_counter() - t0)
        return lat

    def fetch_metrics() -> str:
        with urllib.request.urlopen(
            f"{url}/metrics", timeout=30.0
        ) as response:
            return response.read().decode()

    mutate_result: dict = {}
    streamed_mutations = 0
    midload_metrics = ""
    wall_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=args.clients) as pool:
        futures = [pool.submit(client, s) for s in streams]
        if not args.no_telemetry:
            # scrape while client traffic is in flight: the endpoint
            # must answer (and parse) mid-load, not just at rest
            time.sleep(0.02)
            try:
                midload_metrics = fetch_metrics()
            except Exception as exc:
                failures.append(f"mid-load /metrics: {exc}")
        if args.mutate_mid_run:
            # fire the hot-swap while client traffic is in flight;
            # the edge is new (u -> u self-loop is almost surely
            # absent in the random graph) so the swap really builds
            time.sleep(0.05)
            try:
                mutate_result = _http_json(
                    f"{url}/mutate", {"add": [[0, 0]]}
                )
            except Exception as exc:
                failures.append(f"mutate: {exc}")
        if args.mutate_stream:
            # stream single-edge mutations under load: self-loops are
            # never generated by the random graphs, so each add is a
            # genuinely new edge and each swap should go through the
            # O(delta) incremental path (batch of 1 edge is always
            # under --max-delta-fraction)
            time.sleep(0.05)
            span = max(1, nodes - 1)
            for j in range(args.mutate_stream):
                node = 1 + j % span  # node 0 belongs to mutate-mid-run
                body = (
                    {"add": [[node, node]]}
                    if (j // span) % 2 == 0
                    else {"remove": [[node, node]]}
                )
                try:
                    _http_json(f"{url}/mutate", body)
                    streamed_mutations += 1
                except Exception as exc:
                    failures.append(f"mutate-stream {j}: {exc}")
        for future in futures:
            latencies.extend(future.result())
    wall = time.perf_counter() - wall_start

    status = _http_json(f"{url}/status")
    final_metrics = ""
    if not args.no_telemetry:
        try:
            final_metrics = fetch_metrics()
        except Exception as exc:
            failures.append(f"final /metrics: {exc}")
    server.stop()
    service.close()

    broker = status["broker"]
    checks = {
        "all_requests_answered": not failures,
        "every_request_dispatched_or_cached": (
            broker["dispatched"] + broker["cache_hits"] >= total
        ),
        "coalescing_happened": broker["largest_batch"] >= 2
        and broker["coalesced_requests"] > 0,
        "fewer_batches_than_requests": (
            broker["batches"] < broker["dispatched"]
        ),
    }
    if not args.no_telemetry:
        # the mid-load scrape proves /metrics answers while the broker
        # is saturated; the final scrape must agree with broker stats
        # because every series is either pull-time (same source) or a
        # hot-path counter incremented exactly once per request
        checks["metrics_scraped_mid_load"] = (
            "# TYPE repro_requests_total counter" in midload_metrics
        )
        checks["metrics_requests_match_broker"] = (
            _metric_total(final_metrics, "repro_requests_total")
            == broker["requests"]
        )
        checks["metrics_zero_dropped"] = (
            broker["requests"]
            == broker["dispatched"] + broker["cache_hits"]
            and broker["errors"] == 0
        )
    if args.mutate_mid_run:
        swapped = status["snapshots"]["swaps"] >= 1
        checks["mutation_swapped_mid_traffic"] = swapped and bool(
            mutate_result.get("snapshot")
        )
    if args.mutate_stream:
        delta_stats = status["snapshots"].get("delta", {})
        # every (max_chain_depth + 1)-th swap folds the chain with a
        # full rebuild by design; all others must be delta swaps
        cycle = args.max_chain_depth + 1
        expected_delta = (
            streamed_mutations - streamed_mutations // cycle
        )
        checks["mutation_stream_all_applied"] = (
            streamed_mutations == args.mutate_stream
        )
        checks["mutations_swapped_via_delta_path"] = (
            delta_stats.get("fallbacks", 0) == 0
            and delta_stats.get("swaps", 0) >= expected_delta
        )
    if args.mode == "approx":
        approx = status.get("approx") or {}
        checks["approx_stats_reported"] = (
            approx.get("walk_length", 0) > 0
            and approx.get("index_bytes", 0) > 0
        )
    cluster = status["cluster"]
    checks["shards_dispatched"] = cluster["shards_dispatched"] > 0
    report = {
        "url": url,
        "workers": args.workers,
        "total_requests": total,
        "wall_seconds": wall,
        "requests_per_second": total / wall if wall > 0 else 0.0,
        "latency": LatencyStats.from_seconds(latencies).to_dict(),
        "broker": broker,
        "cluster": cluster,
        "mutations_streamed": streamed_mutations,
        "delta": status["snapshots"].get("delta"),
        "swap_latency": status["snapshots"].get("swap_latency"),
        "checks": checks,
        "failures": failures[:10],
    }
    out = Path(args.output)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"  {total} requests in {wall * 1e3:.0f} ms "
        f"({report['requests_per_second']:.0f} rps), "
        f"p50 {report['latency']['p50_ms']:.1f} ms / "
        f"p99 {report['latency']['p99_ms']:.1f} ms"
    )
    print(
        f"  batches={broker['batches']} "
        f"mean_batch={broker['mean_batch_size']:.1f} "
        f"largest={broker['largest_batch']}"
    )
    print(f"wrote {out}")
    for name, passed in checks.items():
        print(f"  {'ok' if passed else 'FAIL'} {name}")
    code = smoke_exit_code(checks, failures)
    if code != 0:
        if failures:
            print(f"  first failure: {failures[0]}", file=sys.stderr)
        print("serving smoke test FAILED", file=sys.stderr)
        return code
    print("serving smoke test passed")
    return 0


def _cmd_chaos(args) -> int:
    from repro.serve.chaos import run_drill

    print(
        f"chaos drill: --workers {args.workers}, "
        f"{args.clients} clients x {args.requests_per_client} "
        "requests per wave (raise / block / flood / bad green)",
        flush=True,
    )
    report = run_drill(
        workers=args.workers,
        clients=args.clients,
        requests_per_client=args.requests_per_client,
        nodes=args.nodes,
        edges=args.edges,
        seed=args.seed,
        p99_budget_ms=args.p99_budget_ms,
        report_path=args.output,
        verbose=True,
    )
    counts = report["counts"]
    print(
        f"  {report['submitted']} requests: ok={counts['ok']} "
        f"shed={counts['shed']} deadline={counts['deadline']} "
        f"failed={counts['failed']} error={counts['error']}; p99 "
        f"{report['latency']['p99_ms']:.1f} ms"
    )
    print(
        f"  abandoned_batches="
        f"{report['broker'].get('abandoned_batches', 0)}; canary "
        f"outcome={report['canary'].get('outcome')}"
    )
    print(f"wrote {args.output}")
    for name, passed in report["checks"].items():
        print(f"  {'ok' if passed else 'FAIL'} {name}")
    code = smoke_exit_code(report["checks"], [])
    print(
        "chaos drill passed" if code == 0
        else "chaos drill FAILED"
    )
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "warmup":
        return _cmd_client(args, "/warmup", post=True)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "smoke":
        return _cmd_smoke(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
