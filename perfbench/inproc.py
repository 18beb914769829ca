"""One serving process of an in-process workload (web-exact, sf-approx).

Usage: ``python3 perfbench/inproc.py SPEC.json`` (``run.py`` writes the
spec). The process reads the edge list it is handed, builds a
``repro.serve.ServingService`` configured as ``python -m repro.serve
serve`` would be by default (plus the workload's named differences),
and answers the plan's first query: set-up ends there. Then, as the
spec asks, it runs the untimed warm-up and the timed closed loop (all
callers are coroutines on the service's own event loop), answers the
check sample, and applies its share of the plan's edit batches one at
a time. It writes what it measured to ``spec["out"]`` as JSON.
"""

from __future__ import annotations

import asyncio
import sys
from time import perf_counter

from common import counters, read_json, use_source_tree, write_json


def ranking_doc(ranking) -> dict:
    return {
        "nodes": [int(n) for n in ranking.nodes],
        "scores": [float(s) for s in ranking.scores],
    }


def closed_loop(service, queries: list, concurrency: int, k: int) -> dict:
    """``concurrency`` callers on the service loop, each awaiting its
    reply before taking the next query of the fixed sequence."""

    async def drive() -> dict:
        start = [0.0] * len(queries)
        end = [0.0] * len(queries)
        ok = [False] * len(queries)
        errors: list[str] = []
        cursor = iter(range(len(queries)))

        async def caller() -> None:
            for i in cursor:
                start[i] = perf_counter()
                try:
                    await service.top_k(queries[i], k=k)
                except Exception as exc:  # noqa: BLE001 - counted
                    errors.append(f"top_k {queries[i]}: {exc!r}")
                else:
                    ok[i] = True
                end[i] = perf_counter()

        begin = perf_counter()
        await asyncio.gather(*(caller() for _ in range(concurrency)))
        finish = perf_counter()
        return {"start": start, "end": end, "ok": ok, "errors": errors,
                "window": [begin, finish]}

    return service.submit(drive()).result()


def apply_edits(service, batches: list[dict]) -> dict:
    latencies, errors = [], []
    for batch in batches:
        t0 = perf_counter()
        try:
            service.mutate(add=batch["add"], remove=batch["remove"])
        except Exception as exc:  # noqa: BLE001 - counted
            errors.append(f"mutate: {exc!r}")
            continue
        latencies.append(perf_counter() - t0)
    return {"latencies_s": latencies, "errors": errors,
            "attempted": len(batches)}


def main(spec_path: str) -> int:
    use_source_tree()
    spec = read_json(spec_path)
    tracer = None
    if spec.get("trace_out"):
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    import repro.graph.io as graph_io
    from repro.engine import SimilarityConfig
    from repro.serve import ServingService
    from workloads import SERVE_DEFAULTS, WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    plan = read_json(spec["plan_file"])
    k = plan["k"]
    config = SimilarityConfig(
        measure=SERVE_DEFAULTS["measure"],
        c=SERVE_DEFAULTS["c"],
        num_iterations=SERVE_DEFAULTS["num_iterations"],
        dtype=SERVE_DEFAULTS["dtype"],
        seed=SERVE_DEFAULTS["seed"],
        max_cached_columns=SERVE_DEFAULTS["max_cached_columns"],
        column_policy=SERVE_DEFAULTS["column_policy"],
        mode=workload.mode,
    )
    out: dict = {"role": spec["role"]}
    start = perf_counter()
    graph = graph_io.read_edge_list(spec["edge_file"])
    service = ServingService(
        graph,
        config,
        cache_entries=SERVE_DEFAULTS["cache_entries"],
        workers=workload.workers,
        backend=workload.backend,
        index_path=spec.get("index_path"),
    )
    try:
        service.start_background()
        service.warmup()
        first = service.top_k_sync(plan["first_query"], k=k)
        out["setup_s"] = perf_counter() - start
        out["first"] = ranking_doc(first)
        # whether set-up adopted a persisted index or built (and saved)
        # its own, before any write can save one
        out["index_io"] = service.status()["snapshots"]["index"]
        if spec.get("timed"):
            closed_loop(service, plan["warmup"], workload.concurrency, k)
            out["counters_before"] = counters(service.status())
            out["timed"] = closed_loop(service, plan["timed"],
                                       workload.concurrency, k)
            out["counters_after"] = counters(service.status())
        if spec.get("check"):
            out["check"] = {
                str(q): ranking_doc(service.top_k_sync(q, k=k))
                for q in plan["check"]
            }
        if spec.get("edits"):
            lo, hi = spec["edits"]
            before = counters(service.status())
            window = perf_counter()
            out["mutations"] = apply_edits(service, plan["mutations"][lo:hi])
            out["mutation_window"] = [window, perf_counter()]
            out["mutation_counters"] = [before, counters(service.status())]
    finally:
        service.close()
        if tracer is not None:
            tracer.dump(spec["trace_out"])
    write_json(spec["out"], out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
