"""Scripted chaos drill for the guard layer (``serve chaos``).

One function, :func:`run_drill`, stands up a real
:class:`~repro.serve.ServingService` behind a real HTTP server and
injects real faults while client load is in flight. Each fault is
injected from outside, by wrapping the attacked engine's ``columns``
method on the instance, so the serving code carries no chaos hook:

* **raise** — the call raises for chosen queries: their requests are
  answered 500 (a shard that raises fails only its own tasks), and
  every other request of the wave is still answered.
* **block** — the call blocks on a :class:`threading.Event` for a
  chosen query while the wave carries a short ``deadline_ms``: every
  request is answered within its deadline (the blocked one 504), and
  the broker abandons the blocked batch to its thread. The event is
  released after the wave.
* **flood** — three times the usual clients while the engine is held:
  the queue fills to ``max_queue_depth`` and the overflow is shed with
  429.
* **bad green** — a blue-green canary whose green engine raises must
  auto-roll back with blue still serving.

The drill's contract is the guard layer's contract: **no request is
ever dropped** — every submitted request resolves to a rendered
answer, an explicit 429 shed, an explicit 504 deadline, or a 500 from
the fault injected for it — p99 stays bounded, each fault shows its
answers, the wave after each fault is all 200, and the bad green never
becomes the serving snapshot. The report is the CI artifact.

The module is import-light on purpose: tests call :func:`run_drill`
at small scale directly, and ``python -m repro.serve chaos`` is the
CI entry point.

>>> from repro.serve.chaos import classify_status
>>> classify_status(200), classify_status(429), classify_status(504)
('ok', 'shed', 'deadline')
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from repro.graph.generators import random_digraph
from repro.obs.metrics import LatencyStats
from repro.serve.http import serve_http
from repro.serve.service import ServingService

__all__ = ["classify_status", "run_drill"]

#: the block wave's per-request deadline, and how far past it an
#: answer may arrive (HTTP round trip and event-loop scheduling)
_BLOCK_DEADLINE_MS = 300.0
_ANSWER_SLACK_MS = 500.0


def classify_status(code: int) -> str:
    """Bucket an HTTP status into the drill's accounting ledger.

    ``ok`` / ``shed`` (429, load shedding) / ``deadline`` (504) are
    the three *accounted* outcomes; anything else is an ``error``,
    which the drill treats as a dropped request unless it is the 500
    that an injected fault asked for.

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


def _post_top_k(
    url: str, query: int, k: int, deadline_ms, timeout: float
) -> int:
    """One ``POST /top_k``; its HTTP status, or 0 for no answer."""
    payload = {"query": query, "k": k}
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    request = urllib.request.Request(
        f"{url}/top_k",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            reply.read()
            return reply.status
    except urllib.error.HTTPError as exc:
        exc.read()
        return exc.code
    except Exception:
        return 0


@contextmanager
def _faulty_columns(engine, fault):
    """Call ``fault(queries)`` before each ``engine.columns`` call."""
    columns = engine.columns

    def attacked(queries, *args, **kwargs):
        queries = list(queries)
        fault(queries)
        return columns(queries, *args, **kwargs)

    engine.columns = attacked
    try:
        yield
    finally:
        del engine.columns


def run_drill(
    *,
    workers: int = 2,
    clients: int = 16,
    requests_per_client: int = 4,
    nodes: int = 300,
    edges: int = 1800,
    seed: int = 7,
    k: int = 5,
    default_deadline_ms: float = 10_000.0,
    canary_fraction: float = 0.5,
    canary_min_requests: int = 8,
    p99_budget_ms: float = 30_000.0,
    request_timeout_s: float = 60.0,
    report_path=None,
    verbose: bool = False,
) -> dict:
    """Run the scripted raise/block/flood/bad-green drill; return the report.

    The report dict carries per-wave outcome counts, the global
    accounting ledger, latency percentiles, the broker's counters,
    the canary verdict, and a ``checks`` map whose conjunction is the
    drill's pass/fail. ``report_path`` additionally writes the report
    JSON (the CI artifact).

    Outside the flood at most ``clients`` requests are in flight, so
    the queue bound is ``clients`` and only the flood can shed: with
    batches of at most ``clients`` and the engine held, its
    ``3 * clients`` requests overflow the queue.
    Defaults are CI-sized; tests call it with smaller ``clients`` /
    ``nodes``.
    """
    graph = random_digraph(nodes, edges, seed=seed)
    service = ServingService(
        graph,
        num_iterations=5,
        workers=workers,
        # every request must reach dispatch for the ledger to mean
        # anything — the result cache would hide repeats
        cache_entries=0,
        max_batch=clients,
        max_queue_depth=clients,
        default_deadline_ms=default_deadline_ms,
        canary_fraction=canary_fraction,
        canary_min_requests=canary_min_requests,
    )
    service.start_background()
    service.warmup()
    server = serve_http(service, background=True)
    url = server.url
    broker_stats = service.broker.stats

    outcomes = ("ok", "shed", "deadline", "failed", "error")
    counts = dict.fromkeys(outcomes, 0)
    latencies: list[float] = []
    waves: list[dict] = []
    submitted = 0

    def streams(width: int, per_client: int) -> list[list[int]]:
        return [
            [(seed + i * per_client + j) % nodes for j in range(per_client)]
            for i in range(width)
        ]

    def wave(
        name: str,
        *,
        width: int = clients,
        per_client: int = requests_per_client,
        deadline_ms: float | None = None,
        fails: bool = False,
        inject=None,
    ) -> tuple[dict, list]:
        """One burst of ``width`` clients; its counts and its rows.

        ``fails`` marks a wave whose injected fault answers 500 by
        design; ``inject`` runs while the clients are in flight."""
        nonlocal submitted
        submitted += width * per_client
        rows: list[tuple[int, int, float]] = []

        def client(stream: list[int]) -> None:
            for query in stream:
                t0 = time.perf_counter()
                code = _post_top_k(
                    url, query, k, deadline_ms, request_timeout_s
                )
                rows.append((query, code, time.perf_counter() - t0))

        with ThreadPoolExecutor(max_workers=width) as pool:
            futures = [
                pool.submit(client, stream)
                for stream in streams(width, per_client)
            ]
            if inject is not None:
                inject()
            for future in futures:
                future.result()
        row = dict.fromkeys(outcomes, 0)
        for _, code, seconds in rows:
            outcome = classify_status(code)
            if outcome == "error" and code == 500 and fails:
                outcome = "failed"
            row[outcome] += 1
            latencies.append(seconds)
        for key in outcomes:
            counts[key] += row[key]
        row["name"] = name
        row["max_ms"] = max(seconds for _, _, seconds in rows) * 1e3
        waves.append(row)
        if verbose:
            print(
                f"  wave {name}: "
                + " ".join(f"{key}={row[key]}" for key in outcomes),
                flush=True,
            )
        return row, rows

    def codes_of(rows, queries) -> set[int]:
        return {code for query, code, _ in rows if query in queries}

    wave_size = clients * requests_per_client
    first = [stream[0] for stream in streams(clients, requests_per_client)]
    poisoned = {first[0], first[-1]}
    blocked = first[0]
    canary_report: dict = {}
    # each fault shows its own answers, checked right after its wave
    checks: dict[str, bool] = {}
    try:
        wave("baseline")
        engine = service.snapshots.current.engine

        def raise_for_poisoned(queries: list) -> None:
            if poisoned.intersection(queries):
                raise RuntimeError("chaos drill: injected engine failure")

        with _faulty_columns(engine, raise_for_poisoned):
            raised, rows = wave("raise", fails=True)
        checks["raise_answered_poisoned_500"] = (
            raised["ok"] + raised["failed"] == wave_size
            and codes_of(rows, poisoned) == {500}
        )
        wave("recover-raise")

        release = threading.Event()
        abandoned_before = broker_stats.abandoned_batches

        def block_on_event(queries: list) -> None:
            if blocked in queries:
                release.wait(request_timeout_s)

        with _faulty_columns(engine, block_on_event):
            try:
                held, rows = wave("block", deadline_ms=_BLOCK_DEADLINE_MS)
            finally:
                release.set()
        checks["block_answered_within_deadline"] = (
            held["ok"] + held["deadline"] == wave_size
            and codes_of(rows, {blocked}) == {504}
            and held["max_ms"] <= _BLOCK_DEADLINE_MS + _ANSWER_SLACK_MS
            and broker_stats.abandoned_batches > abandoned_before
        )
        wave("recover-block")

        gate = threading.Event()
        shed_before = broker_stats.shed

        def open_gate_once_shed() -> None:
            stop = time.monotonic() + request_timeout_s
            while broker_stats.shed == shed_before:
                if time.monotonic() >= stop:
                    break
                time.sleep(0.005)
            gate.set()

        def hold(queries: list) -> None:
            gate.wait(request_timeout_s)

        with _faulty_columns(engine, hold):
            try:
                flood, _ = wave(
                    "flood", width=3 * clients, per_client=1,
                    inject=open_gate_once_shed,
                )
            finally:
                gate.set()
        checks["flood_shed_past_queue_depth"] = (
            flood["shed"] >= 1
            and flood["ok"] + flood["shed"] == 3 * clients
        )
        wave("recover-flood")

        blue_seq = service.snapshots.current.seq
        canary = service.mutate_canary(add=[(0, 0)])

        def raise_always(queries: list) -> None:
            raise RuntimeError("chaos drill: bad green engine")

        with _faulty_columns(canary.green.engine, raise_always):
            deadline = time.monotonic() + request_timeout_s
            while canary.outcome is None and time.monotonic() < deadline:
                # green-side requests fail by design: their 500s are
                # the injected fault's answers
                row, _ = wave("canary-bad-green", fails=True)
                if row["failed"] == 0 and canary.outcome is None:
                    time.sleep(0.05)
        canary_report = service.canary_status() or {}
        wave("after-rollback")
    finally:
        status = service.status()
        server.stop()
        service.close()

    stats = LatencyStats.from_seconds(latencies)
    accounted = sum(counts[key] for key in outcomes if key != "error")
    recovery = [
        w for w in waves
        if w["name"].startswith("recover-") or w["name"] == "after-rollback"
    ]
    checks.update({
        "zero_unaccounted_requests": accounted == submitted
        and counts["error"] == 0,
        "p99_bounded": stats.p99_ms <= p99_budget_ms,
        # the wave after each fault is all 200
        "recovered_after_each_fault": len(recovery) == 4
        and all(w["ok"] == wave_size for w in recovery),
        "bad_green_rolled_back": (
            canary_report.get("outcome") == "rollback"
        ),
        "blue_still_serving": (
            status["snapshots"]["current"]["seq"] == blue_seq
            and waves[-1]["ok"] > 0
        ),
    })
    report = {
        "workers": workers,
        "submitted": submitted,
        "counts": counts,
        "waves": waves,
        "latency": stats.to_dict(),
        "broker": status["broker"],
        "canary": canary_report,
        "checks": checks,
        "ok": all(checks.values()),
    }
    if report_path is not None:
        Path(report_path).write_text(
            json.dumps(report, indent=2) + "\n"
        )
    return report
