"""The three serving workloads and their seeded inputs.

A workload is a graph, a serving configuration and a fixed request
sequence. :func:`prepare` draws all of it from ``--seed`` and writes it
to disk before any timed process starts; the serving processes receive
only those files. The number of timed requests is fixed by the seed and
``--seconds`` (never by how fast the program answers), so a faster
commit does the same work instead of more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import write_json

K = 10
#: queries whose answers the gate checks against the reference (on
#: sf-approx, precision below 1 moves by 1/(10 * CHECK) per miss)
CHECK = 32
#: serving configuration of ``python -m repro.serve serve`` by default
SERVE_DEFAULTS = {
    "measure": "gSR*",
    "c": 0.6,
    "num_iterations": 10,
    "dtype": "float64",
    "seed": 42,
    "max_cached_columns": 4096,
    "column_policy": "lru",
    "cache_entries": 1024,
}


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists, and which layers it loads heavily
    and lightly, is recorded in ``BENCHMARK.json``."""

    name: str
    #: timed requests per second of --seconds (sizes the sequence)
    requests_per_second: float
    #: requests in flight (in-process) or client threads (HTTP)
    concurrency: int
    http: bool = False
    mode: str = "exact"
    workers: int = 0
    backend: str = "process"
    persist_index: bool = False
    #: cold set-ups per run, the main process's included
    setups: int = 3
    #: fresh "restart" processes per run
    restarts: int = 5
    #: edit batches per run, applied by the first restarts after their
    #: first answer, at most ceil(edits / restarts) each (http-mixed
    #: writes during its timed sequence instead)
    edits: int = 0
    warmup: int = 32


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="web-exact",
            requests_per_second=120.0,
            concurrency=16,
            workers=2,
            backend="thread",
            # a cold set-up here is ~0.9 s and moves with the machine's
            # speed from one second to the next: ten pooled per run
            restarts=7,
            # the first edit after a start is slower; with three per
            # restart the median is not split between the two modes
            edits=15,
        ),
        Workload(
            name="http-mixed",
            # 500 operations at --seconds 10: each takes ~47 ms on the
            # two connections, so the run is ~1.2x --seconds
            requests_per_second=50.0,
            concurrency=2,
            http=True,
            warmup=20,
        ),
        Workload(
            name="sf-approx",
            requests_per_second=140.0,
            concurrency=16,
            mode="approx",
            persist_index=True,
            # a cold set-up takes ~6-8 s, a restart ~4 s and an edit
            # ~2.5 s here: this mix keeps the run inside the budget
            setups=2,
            restarts=3,
            edits=3,
        ),
    )
}

def make_graph(workload: str, seed: int, toy: bool = False):
    """The seeded input graph of ``workload`` (``toy``: self-test size)."""
    if workload == "web-exact":
        from repro.datasets.web import web_graph

        return web_graph(9 if toy else 15, density=5.6, seed=seed)
    if workload == "http-mixed":
        from repro.graph.generators import random_digraph

        nodes, edges = (200, 1200) if toy else (2000, 12000)
        return random_digraph(nodes, edges, seed=seed)
    from repro.datasets import scale_free_graph

    return scale_free_graph(3000 if toy else 100_000, avg_out_degree=8,
                            seed=seed)


def _fresh_nodes(rng, pool: np.ndarray, exclude: set, count: int) -> list:
    """``count`` distinct members of ``pool`` not in ``exclude``."""
    chosen = [int(v) for v in rng.permutation(pool) if int(v) not in exclude]
    if len(chosen) < count:
        raise ValueError("graph too small for the requested sample")
    return chosen[:count]


def _edit_batches(rng, graph, batches: int) -> list[dict]:
    """Edge batches valid in any order: each adds two edges absent from
    the graph and removes one present edge, and no edge is touched
    twice, so the final graph is the same whatever order they apply in.
    """
    n = graph.num_nodes
    src, dst = graph.edge_arrays()
    existing = set(zip(src.tolist(), dst.tolist()))
    removable = rng.permutation(len(src))
    out, added = [], set()
    for b in range(batches):
        adds = []
        while len(adds) < 2:
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if u != v and (u, v) not in existing and (u, v) not in added:
                added.add((u, v))
                adds.append([u, v])
        e = int(removable[b])
        out.append({"add": adds, "remove": [[int(src[e]), int(dst[e])]]})
    return out


def _zipf_ranks(rng, n: int, size: int, s: float = 1.1) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** s
    return rng.choice(n, size=size, p=weights / weights.sum())


def build_plan(workload: str, graph, seed: int, seconds: float) -> dict:
    """The fixed request sequence of one run (JSON-ready)."""
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, 1])
    n = graph.num_nodes
    timed_count = max(1, math.ceil(spec.requests_per_second * seconds))
    plan = {"workload": workload, "seed": seed, "k": K}
    if workload == "web-exact":
        # a permutation: every timed request computes a fresh column
        order = [int(v) for v in rng.permutation(n)]
        if timed_count + spec.warmup + CHECK > n:
            raise ValueError("graph too small for the requested run")
        plan["timed"] = order[:timed_count]
        plan["warmup"] = order[timed_count:timed_count + spec.warmup]
        plan["check"] = order[
            timed_count + spec.warmup:
            timed_count + spec.warmup + CHECK
        ]
        plan["mutations"] = _edit_batches(
            rng, graph, spec.edits)
    elif workload == "sf-approx":
        indeg = graph.in_degrees()
        hubs = np.argsort(-indeg, kind="stable")[: min(1000, n // 4)]
        pick_hub = rng.random(timed_count) < 0.5
        timed = np.where(
            pick_hub,
            hubs[rng.integers(0, hubs.size, size=timed_count)],
            rng.integers(0, n, size=timed_count),
        )
        plan["timed"] = [int(v) for v in timed]
        used = set(plan["timed"])
        rest = np.setdiff1d(np.arange(n), hubs)
        plan["warmup"] = _fresh_nodes(rng, rest, used, spec.warmup)
        used.update(plan["warmup"])
        half = CHECK // 2
        plan["check"] = [int(v) for v in rng.choice(hubs, half, replace=False)]
        plan["check"] += _fresh_nodes(
            rng, rest, used | set(plan["check"]), CHECK - half
        )
        plan["mutations"] = _edit_batches(
            rng, graph, spec.edits)
    else:
        popularity = rng.permutation(n)
        mutations = max(1, round(0.01 * timed_count))
        scores = round(0.09 * timed_count)
        top_ks = timed_count - mutations - scores
        kinds = rng.permutation(
            ["top_k"] * top_ks + ["score"] * scores + ["mutate"] * mutations
        )
        zipf = popularity[_zipf_ranks(rng, n, timed_count)]
        ops, next_edit = [], 0
        for i, kind in enumerate(kinds):
            if kind == "top_k":
                ops.append(["top_k", int(zipf[i])])
            elif kind == "score":
                ops.append(["score", int(zipf[i]), int(rng.integers(n))])
            else:
                ops.append(["mutate", next_edit])
                next_edit += 1
        plan["timed"] = ops
        plan["mutations"] = _edit_batches(rng, graph, mutations)
        used = {op[1] for op in ops if op[0] != "mutate"}
        used |= {op[2] for op in ops if op[0] == "score"}
        plan["warmup"] = _fresh_nodes(rng, np.arange(n), used, spec.warmup)
        plan["check"] = _fresh_nodes(
            rng, np.arange(n), set(plan["warmup"]), CHECK
        )
    plan["first_query"] = plan["check"][0]
    return plan


def prepare(workload: str, seed: int, seconds: float, workdir: Path,
            toy: bool = False):
    """Write the edge list and plan of one run; return (graph, paths)."""
    from repro.graph.io import write_edge_list

    graph = make_graph(workload, seed, toy=toy)
    edge_file = workdir / "graph.txt"
    plan_file = workdir / "plan.json"
    write_edge_list(graph, edge_file)
    plan = build_plan(workload, graph, seed, seconds)
    write_json(plan_file, plan)
    return graph, plan, edge_file, plan_file


def final_graph(graph, mutations: list[dict]):
    """``graph`` with every edit batch applied (order does not matter)."""
    from repro.graph.digraph import DiGraph

    src, dst = graph.edge_arrays()
    edges = set(zip(src.tolist(), dst.tolist()))
    for batch in mutations:
        edges.update(tuple(e) for e in batch["add"])
        edges.difference_update(tuple(e) for e in batch["remove"])
    return DiGraph.from_edges(sorted(edges), num_nodes=graph.num_nodes)
