"""Delta-vs-rebuild mutation benchmark for incremental maintenance.

The serving layer's tentpole claim is that a small edge batch should
cost ``O(delta)``, not ``O(graph)``: a mutation that touches 1% of the
edges must not pay a full ``Q`` / ``Q^T`` / factor rebuild. This
module measures exactly that trade on one seeded scale-free graph
(:func:`repro.datasets.scale_free_graph`): two
:class:`~repro.serve.SnapshotManager` instances serve the same graph —
one with ``max_delta_fraction=0`` (the classic rebuild-every-swap
path), one with the default delta budget — and the *identical* seeded
batch sequence (1% of edges swapped out per mutation) is pushed
through both. Per-mutation wall time is the whole ``mutate()`` call:
edit application, artifact work, warmup, and the pointer swap.

The derived ``speedup_delta_swap_vs_rebuild`` is the ratio of the two
medians, and the document also records a bit-parity check: after the
final mutation, sampled score columns from the delta-maintained engine
must be **byte-identical** to the rebuild-maintained engine's — the
fast path is only admissible because it changes nothing about the
answers.

``python -m repro.bench --mutate`` embeds this document under the
``"mutate"`` key of ``BENCH_<tag>.json`` and copies the speedup into
the gated derived ratios — the acceptance regime is a 10x+ speedup at
10^5 nodes.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

__all__ = ["run_mutate_compare", "run_mutate_compare_isolated"]


def _batch(rng, graph, fraction: float):
    """One seeded edge swap: remove/add ``fraction`` of the edges.

    Removals sample the existing edge set; additions draw fresh
    non-self-loop pairs absent from it. Returned as ``(add, remove)``
    id-pair lists suitable for :meth:`SnapshotManager.mutate`.
    """
    heads, tails = graph.edge_arrays()
    m = heads.size
    k = max(1, int(m * fraction))
    existing = set(zip(heads.tolist(), tails.tolist()))
    picks = rng.choice(m, size=k, replace=False)
    remove = [(int(heads[i]), int(tails[i])) for i in picks]
    add: list[tuple[int, int]] = []
    seen = set()
    n = graph.num_nodes
    while len(add) < k:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u == v or (u, v) in existing or (u, v) in seen:
            continue
        seen.add((u, v))
        add.append((u, v))
    return add, remove


def run_mutate_compare(
    nodes: int = 100_000,
    avg_out_degree: float = 16.0,
    batches: int = 3,
    batch_fraction: float = 0.01,
    measure: str = "memo-gSR*",
    num_terms: int = 10,
    dtype: str = "float64",
    seed: int = 42,
    parity_queries: int = 8,
    speedup_floor: float | None = None,
    progress=None,
) -> dict:
    """Benchmark delta-path mutations against full-rebuild mutations.

    The default measure is ``memo-gSR*`` — the paper's memoized
    measure, whose index carries the biclique factor decomposition.
    That is the configuration the incremental path exists for: a full
    rebuild must recompress the factors from scratch (``O(graph)``,
    by far the dominant swap cost), while the delta path demotes only
    the touched rows (``O(delta)``).

    Each manager runs the identical seeded edit plan *sequentially*
    (not interleaved with the other manager), preceded by one untimed
    warm-up mutation that absorbs first-call allocator effects — the
    timed medians then reflect each path's steady state rather than
    cross-path heap churn.

    Returns a JSON-ready document with per-path swap timings (median
    and per-mutation), the derived ``speedup_delta_swap_vs_rebuild``,
    and the ``checks`` map (all mutations actually took their intended
    path; sampled columns bit-identical; optional speedup floor) that
    ``python -m repro.bench --mutate`` turns into its exit code.
    """
    from repro.datasets import scale_free_graph
    from repro.serve.snapshot import SnapshotManager

    if progress is not None:
        progress(f"mutate_compare@{nodes}")
    graph = scale_free_graph(
        nodes, avg_out_degree=avg_out_degree, seed=seed
    )
    config = dict(
        measure=measure, num_iterations=num_terms, dtype=dtype
    )

    # identical seeded batches for both sides: both managers start
    # from the same graph and receive the same edits, so their served
    # graphs stay equal after every swap. The first planned batch is
    # an untimed warm-up.
    batch_rng = np.random.default_rng(seed + 1)
    edit_plan = []
    plan_graph = graph
    for _ in range(batches + 1):
        add, remove = _batch(batch_rng, plan_graph, batch_fraction)
        edit_plan.append((add, remove))
        plan_graph = plan_graph.copy_with_edits(add, remove)

    # parity sample, fixed up front: after its edit plan each manager
    # serves the same graph, so its sampled score columns must be
    # byte-identical across the two maintenance histories
    query_rng = np.random.default_rng(seed + 2)
    sample = [
        int(q) for q in query_rng.choice(
            nodes, size=min(parity_queries, nodes), replace=False
        )
    ]

    # one phase per maintenance path, each on a freshly collected heap
    # with ONLY its own manager alive: a full build constructs several
    # whole graphs and factor decompositions, and the allocator churn
    # of a concurrently-live second manager measurably inflates the
    # other phase's timings — a harness artifact, not a property of
    # either maintenance path. The manager is constructed, warmed,
    # driven through the plan, sampled for parity, and destroyed
    # before the next phase begins.
    timings: dict[str, list[float]] = {}
    columns: dict[str, dict] = {}
    delta_stats: dict = {}
    swap_latency: dict = {}
    for name in ("delta", "rebuild"):
        gc.collect()
        if name == "rebuild":
            manager = SnapshotManager(
                graph, max_delta_fraction=0, **config
            )
        else:
            manager = SnapshotManager(
                graph,
                # the sequence must never fold mid-run: the benchmark
                # times the delta path itself, not the chain policy
                # (batches + warm-up mutation, plus headroom)
                max_chain_depth=max(8, batches + 2),
                **config,
            )
        manager.warmup()
        timings[name] = []
        for step, (add, remove) in enumerate(edit_plan):
            start = time.perf_counter()
            manager.mutate(add=add, remove=remove)
            elapsed = time.perf_counter() - start
            if step == 0:
                continue  # untimed warm-up mutation
            timings[name].append(elapsed)
            if progress is not None:
                progress(
                    f"mutate_compare {name} batch {step}/{batches} "
                    f"({elapsed:.3f}s)"
                )
        columns[name] = manager.current.engine.columns(sample)
        if name == "delta":
            delta_stats = manager.describe()["delta"]
            swap_latency = manager.swap_latency_summary()
        del manager
        gc.collect()

    medians = {
        name: statistics.median(values)
        for name, values in timings.items()
    }
    speedup = medians["rebuild"] / medians["delta"]

    rebuilt = columns["rebuild"]
    incremental = columns["delta"]
    parity = all(
        np.array_equal(
            np.asarray(rebuilt[q]), np.asarray(incremental[q])
        )
        for q in rebuilt
    )
    checks = {
        "all_mutations_took_delta_path": (
            delta_stats["swaps"] == batches + 1  # incl. warm-up
            and delta_stats["fallbacks"] == 0
        ),
        "columns_bit_identical": parity,
    }
    if speedup_floor is not None:
        checks["speedup_floor_met"] = speedup >= speedup_floor
    graph_edges = graph.num_edges
    return {
        "nodes": nodes,
        "edges": graph_edges,
        "avg_out_degree": avg_out_degree,
        "batches": batches,
        "warmup_batches": 1,
        "batch_fraction": batch_fraction,
        "edits_per_batch": 2 * max(1, int(graph_edges * batch_fraction)),
        "measure": measure,
        "dtype": dtype,
        "num_terms": num_terms,
        "seed": seed,
        "swap_seconds": timings,
        "swap_seconds_median": medians,
        "parity_queries": len(sample),
        "delta": delta_stats,
        "swap_latency": swap_latency,
        "speedup_key": "speedup_delta_swap_vs_rebuild",
        "speedup_delta_swap_vs_rebuild": speedup,
        "speedup_floor": speedup_floor,
        "checks": checks,
    }


def run_mutate_compare_isolated(progress=None, **kwargs) -> dict:
    """:func:`run_mutate_compare` in a fresh subprocess.

    Mutation swaps are the only tier whose timings are sensitive to
    the *heap history* of the process: the other tiers build graphs,
    engines, and indexes whose allocator churn measurably inflates
    the sub-second delta swaps that run after them. A fresh
    interpreter per comparison (the same isolation discipline
    ``pyperf`` applies to every benchmark) removes that coupling —
    the recorded numbers then depend only on the two maintenance
    paths. Progress lines stream back via the child's stderr; the
    document comes back as JSON on its stdout.
    """
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + existing if existing
        else package_root
    )
    child = subprocess.Popen(
        [
            sys.executable, "-m", "repro.bench.mutate",
            "--kwargs", json.dumps(kwargs),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    assert child.stderr is not None
    for line in child.stderr:
        line = line.rstrip("\n")
        if line and progress is not None:
            progress(line)
    stdout, _ = child.communicate()
    if child.returncode != 0:
        raise RuntimeError(
            "isolated mutate comparison failed "
            f"(exit {child.returncode}): {stdout.strip()[-2000:]}"
        )
    return json.loads(stdout)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.bench.mutate`` — the isolation entry point.

    Internal plumbing for :func:`run_mutate_compare_isolated`, not an
    operator CLI (``python -m repro.bench --mutate`` is): takes the
    keyword arguments as one JSON object, streams progress to stderr,
    and prints the result document as JSON on stdout.
    """
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.mutate",
        description="run one delta-vs-rebuild mutation comparison "
        "in this (fresh) process and print its JSON document",
    )
    parser.add_argument(
        "--kwargs", default="{}",
        help="run_mutate_compare keyword arguments as a JSON object",
    )
    args = parser.parse_args(argv)
    document = run_mutate_compare(
        progress=lambda message: print(
            message, file=sys.stderr, flush=True
        ),
        **json.loads(args.kwargs),
    )
    json.dump(document, sys.stdout)
    print(flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
