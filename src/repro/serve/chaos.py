"""Scripted chaos drill for the guard layer (``serve chaos``).

One function, :func:`run_drill`, stands up a real
:class:`~repro.serve.ServingService` behind a real HTTP server and
attacks it with the pool's chaos hooks while client load is in
flight. The hooks simulate each fault at the shard-dispatch contract
(a worker thread cannot really be killed):

* **kill** — ``kill_worker`` marks a worker crashed; its next shard
  crashes, the breaker trips, the shard is answered on the dispatch
  thread, and the respawned worker is restored by a half-open probe.
* **hang** — ``hang_worker`` makes a worker's next shard sleep past
  ``shard_timeout`` and then crash; same recovery path.
* **corrupt** — ``corrupt_next_reply`` makes a worker's next shard
  crash at once; same recovery path.
* **bad green** — a blue-green canary whose green side is forced to
  error (``inject_green_fault``) must auto-roll back with blue still
  serving.

The drill's contract is the guard layer's contract: **no request is
ever dropped** — every submitted request resolves to a rendered
answer, an explicit 429 shed, or an explicit 504 deadline — p99 stays
bounded, every injected fault trips a breaker that later restores,
and the bad green never becomes the serving snapshot. The report
(and the breaker-transition JSONL) are the CI artifacts.

The module is import-light on purpose: tests call :func:`run_drill`
at small scale directly, and ``python -m repro.serve chaos`` is the
CI entry point.

>>> from repro.serve.chaos import classify_status
>>> classify_status(200), classify_status(429), classify_status(504)
('ok', 'shed', 'deadline')
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.graph.generators import random_digraph
from repro.serve.http import serve_http
from repro.serve.service import ServingService

__all__ = ["classify_status", "run_drill"]


def classify_status(code: int) -> str:
    """Bucket an HTTP status into the drill's accounting ledger.

    ``ok`` / ``shed`` (429, load shedding) / ``deadline`` (504) are
    the three *accounted* outcomes; anything else is an ``error``,
    which the drill treats as a dropped request.

    >>> classify_status(500)
    'error'
    """
    if code == 200:
        return "ok"
    if code == 429:
        return "shed"
    if code == 504:
        return "deadline"
    return "error"


def _post_top_k(url: str, query: int, k: int, timeout: float) -> str:
    body = json.dumps({"query": query, "k": k}).encode()
    request = urllib.request.Request(
        f"{url}/top_k",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            reply.read()
            return classify_status(reply.status)
    except urllib.error.HTTPError as exc:
        exc.read()
        return classify_status(exc.code)
    except Exception:
        return "error"


def run_drill(
    *,
    workers: int = 2,
    clients: int = 16,
    requests_per_client: int = 4,
    nodes: int = 300,
    edges: int = 1800,
    seed: int = 7,
    k: int = 5,
    max_queue_depth: int = 256,
    default_deadline_ms: float = 10_000.0,
    breaker_threshold: int = 1,
    breaker_cooldown_s: float = 0.4,
    shard_timeout: float = 1.0,
    canary_fraction: float = 0.5,
    canary_min_requests: int = 8,
    p99_budget_ms: float = 30_000.0,
    request_timeout_s: float = 60.0,
    report_path=None,
    transitions_path=None,
    verbose: bool = False,
) -> dict:
    """Run the scripted kill/hang/corrupt/bad-green drill; return the report.

    The report dict carries per-wave outcome counts, the global
    accounting ledger, latency percentiles, the breaker's
    trip/restore history, the canary verdict, and a ``checks`` map
    whose conjunction is the drill's pass/fail. ``report_path`` /
    ``transitions_path`` additionally write the report JSON and the
    breaker-transition JSONL (the CI artifacts).

    Defaults are CI-sized; tests call it with smaller ``clients`` /
    ``nodes``.
    """
    graph = random_digraph(nodes, edges, seed=seed)
    service = ServingService(
        graph,
        num_iterations=5,
        workers=workers,
        shard_timeout=shard_timeout,
        # every request must reach dispatch for the ledger to mean
        # anything — the result cache would hide repeats
        cache_entries=0,
        max_queue_depth=max_queue_depth,
        default_deadline_ms=default_deadline_ms,
        breaker_threshold=breaker_threshold,
        breaker_cooldown_s=breaker_cooldown_s,
        canary_fraction=canary_fraction,
        canary_min_requests=canary_min_requests,
    )
    service.start_background()
    service.warmup()
    server = serve_http(service, background=True)
    url = server.url

    counts = {"ok": 0, "shed": 0, "deadline": 0, "error": 0}
    latencies: list[float] = []
    submitted = 0
    waves: list[dict] = []

    def wave(name: str, inject=None) -> dict:
        nonlocal submitted
        wave_counts = {"ok": 0, "shed": 0, "deadline": 0, "error": 0}

        def client(stream: list[int]) -> None:
            nonlocal submitted
            for query in stream:
                t0 = time.perf_counter()
                outcome = _post_top_k(url, query, k, request_timeout_s)
                latencies.append(time.perf_counter() - t0)
                wave_counts[outcome] += 1

        streams = [
            [
                (seed + i * requests_per_client + j) % nodes
                for j in range(requests_per_client)
            ]
            for i in range(clients)
        ]
        submitted += clients * requests_per_client
        with ThreadPoolExecutor(max_workers=clients) as pool:
            futures = [pool.submit(client, s) for s in streams]
            if inject is not None:
                inject()
            for future in futures:
                future.result()
        for key, value in wave_counts.items():
            counts[key] += value
        row = dict(wave_counts, name=name)
        waves.append(row)
        if verbose:
            print(f"  wave {name}: {wave_counts}", flush=True)
        return row

    pool = service.cluster.pool
    canary_report: dict = {}
    try:
        wave("baseline")
        wave("kill", inject=lambda: pool.kill_worker(0))
        time.sleep(breaker_cooldown_s * 1.5)
        wave("recover-kill")
        hang_target = min(1, pool.size - 1)
        wave(
            "hang",
            inject=lambda: pool.hang_worker(
                hang_target, shard_timeout * 1.5
            ),
        )
        time.sleep(breaker_cooldown_s * 1.5)
        wave("recover-hang")
        wave("corrupt", inject=lambda: pool.corrupt_next_reply(0))
        time.sleep(breaker_cooldown_s * 1.5)
        wave("recover-corrupt")

        blue_seq = service.snapshots.current.seq

        def bad_green() -> None:
            raise RuntimeError("chaos drill: forced bad green build")

        canary = service.mutate_canary(
            add=[(0, 0)],
            inject_green_fault=bad_green,
        )
        deadline = time.monotonic() + request_timeout_s
        while canary.outcome is None and time.monotonic() < deadline:
            # canary-wave traffic: green-side requests fail by design,
            # so this wave keeps its own ledger outside `counts`
            wave_row = wave("canary-bad-green")
            if wave_row["error"] == 0 and canary.outcome is None:
                time.sleep(0.05)
        # the canary wave's intentional green errors are accounted
        # separately: remove them from the global drop ledger
        canary_rows = [w for w in waves if w["name"] == "canary-bad-green"]
        for row in canary_rows:
            counts["error"] -= row["error"]
            submitted -= row["error"]
        canary_report = service.canary_status() or {}
        wave("after-rollback")
    finally:
        cluster = service.cluster
        status = service.status()
        server.stop()
        service.close()

    from repro.bench.loadgen import LatencyStats

    stats = LatencyStats.from_seconds(latencies)
    breaker = status["guard"]["breaker"]
    transitions = cluster.breakers.transitions
    accounted = counts["ok"] + counts["shed"] + counts["deadline"]
    checks = {
        "zero_unaccounted_requests": accounted == submitted
        and counts["error"] == 0,
        "p99_bounded": stats.p99_ms <= p99_budget_ms,
        "breaker_tripped": breaker.get("trips", 0) >= 3,
        "breaker_recovered": breaker.get("restores", 0) >= 1,
        "bad_green_rolled_back": (
            canary_report.get("outcome") == "rollback"
        ),
        "blue_still_serving": (
            status["snapshots"]["current"]["seq"] == blue_seq
            and waves[-1]["ok"] > 0
        ),
    }
    report = {
        "workers": workers,
        "submitted": submitted,
        "counts": counts,
        "waves": waves,
        "latency": stats.to_dict(),
        "breaker": breaker,
        "canary": canary_report,
        "checks": checks,
        "ok": all(checks.values()),
    }
    if report_path is not None:
        Path(report_path).write_text(
            json.dumps(report, indent=2) + "\n"
        )
    if transitions_path is not None:
        Path(transitions_path).write_text(
            "".join(json.dumps(row) + "\n" for row in transitions)
        )
    return report
