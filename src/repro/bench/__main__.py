"""``python -m repro.bench`` — run, record, and compare benchmarks.

Typical uses::

    python -m repro.bench --quick                  # fast suite -> BENCH_quick.json
    python -m repro.bench --tag PR2                # full suite  -> BENCH_PR2.json
    python -m repro.bench --quick --compare BENCH_baseline.json
    python -m repro.bench --list                   # enumerate cases
    python -m repro.bench --serve --tag PR3        # + serving load test
    python -m repro.bench --cluster --tag PR5      # + worker scaling
    python -m repro.bench --approx --tag PR6       # + approx-vs-exact tier
    python -m repro.bench --mutate --tag PR7       # + delta-vs-rebuild tier
    python -m repro.bench --telemetry --tag PR8    # + observability cost tier
    python -m repro.bench --history                # trend over BENCH_*.json
    python -m repro.bench --history --detect       # + change-point gate

Compare mode exits non-zero when a case regresses beyond
``--threshold`` times its baseline or a gated batching speedup falls
below ``--speedup-floor`` — the CI regression gate. ``--serve`` runs
the serving load generator (:mod:`repro.bench.loadgen`) after the
kernel suite and embeds its throughput / latency-percentile document
under the ``"serving"`` key of ``BENCH_<tag>.json``; ``--cluster``
runs the worker-scaling case on the thread pool (under
``"cluster"``), and its ``speedup_workers_<b>_vs_<a>`` ratio joins the
gated derived speedups when the machine has enough CPUs to express
it. ``--approx`` runs the exact-vs-approx large-graph comparison
(:mod:`repro.bench.approx`) on seeded scale-free graphs, embeds its
document under ``"approx"``, copies ``speedup_approx_vs_exact`` into
the gated derived speedups, and exits non-zero when precision@k falls
below its floor. ``--mutate`` runs the delta-vs-rebuild mutation
comparison (:mod:`repro.bench.mutate`): identical seeded 1%-of-edges
batch swaps pushed through a ``max_delta_fraction=0`` and a
default :class:`~repro.serve.SnapshotManager`, with the
median-swap ratio recorded as ``speedup_delta_swap_vs_rebuild`` and
bit-parity between the two maintenance histories gated. ``--history``
renders the trend table over every committed ``BENCH_*.json`` in the
current directory (commit order) and exits without timing anything;
adding ``--detect`` runs E-Divisive change-point detection
(:mod:`repro.bench.signal`) over every metric series afterwards and
exits non-zero on regressions the committed
``BENCH_expected_changes.json`` allowlist does not explain.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.runner import (
    compare_runs,
    default_suite,
    run_suite,
)

QUICK = {
    "nodes": 800,
    "edges": 4800,
    "queries": 32,
    "num_terms": 8,
    "allpairs_nodes": 300,
    "allpairs_edges": 1800,
    "repeat": 2,
    "warmup": 1,
}
FULL = {
    "nodes": 2000,
    "edges": 12000,
    "queries": 64,
    "num_terms": 10,
    "allpairs_nodes": 600,
    "allpairs_edges": 3600,
    "repeat": 3,
    "warmup": 1,
}

#: Serving-load workloads paired with the kernel presets: the full
#: setting is the acceptance regime (32 concurrent clients on the
#: 2k-node benchmark graph), quick is the CI-sized version.
SERVE_QUICK = {"clients": 16, "requests_per_client": 2}
SERVE_FULL = {"clients": 32, "requests_per_client": 4}

#: Telemetry-overhead workloads (``--telemetry``): the full setting is
#: the acceptance regime (the 2k/12k serving workload, p50 overhead of
#: metrics + tracing gated below 5%); quick runs fewer rounds and only
#: reports the overhead — CI machines are too noisy to gate a 5%
#: latency delta at CI scale. The metrics-consistency check (every
#: request counted) is gated in both settings.
TELEMETRY_QUICK = {"rounds": 2, "overhead_limit": None}
TELEMETRY_FULL = {"rounds": 3, "overhead_limit": 0.05}

#: Worker-scaling workloads (``--cluster``): micro-batches of top-k
#: tasks over distinct query columns pushed through the sharded thread
#: pool at the low and high worker counts of the
#: ``speedup_workers_4_vs_1`` gate.
CLUSTER_QUICK = {"batches": 4, "batch_size": 32}
CLUSTER_FULL = {"batches": 8, "batch_size": 64}

#: Approx-tier workloads (``--approx``): the full setting is the
#: acceptance regime (10^4 and 10^5-node scale-free graphs, 10x floor
#: at the largest), quick shrinks the graphs to CI size — too small
#: for the asymptotic speedup, so only precision is gated there.
APPROX_QUICK = {
    "node_counts": (2_000, 10_000), "queries": 8,
    "speedup_floor": None,
}
APPROX_FULL = {
    "node_counts": (10_000, 100_000), "queries": 12,
    "speedup_floor": 10.0,
}

#: Mutation-tier workloads (``--mutate``): the full setting is the
#: acceptance regime (1%-of-edges batch swaps on a 10^5-node
#: scale-free graph, 10x floor for the delta path over full rebuild);
#: quick shrinks the graph to CI size, where the rebuild is cheap
#: enough that the asymptotic ratio cannot be expressed — only the
#: path/parity checks are gated there.
MUTATE_QUICK = {"nodes": 10_000, "batches": 3, "speedup_floor": None}
MUTATE_FULL = {"nodes": 100_000, "batches": 3, "speedup_floor": 10.0}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the repo's performance suite and write "
        "machine-readable BENCH_<tag>.json results.",
    )
    parser.add_argument(
        "--tag",
        default=None,
        help="result tag; output goes to BENCH_<tag>.json "
        "(default: 'quick' with --quick, else 'local')",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller workload and fewer repeats (the CI setting)",
    )
    for name in ("nodes", "edges", "queries", "num-terms",
                 "allpairs-nodes", "allpairs-edges", "repeat",
                 "warmup"):
        parser.add_argument(
            f"--{name}", type=int, default=None,
            help=f"override the suite's {name.replace('-', '_')}",
        )
    parser.add_argument("--k", type=int, default=10,
                        help="top-k size for the ranking cases")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--dtype", choices=("float64", "float32"), default="float64",
        help="kernel precision for the suite",
    )
    parser.add_argument(
        "--output", default=None,
        help="explicit output path (default BENCH_<tag>.json in the "
        "current directory)",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="print results without writing a JSON file",
    )
    parser.add_argument(
        "--compare", metavar="BASELINE", default=None,
        help="compare against a baseline BENCH_*.json and exit "
        "non-zero on regression",
    )
    parser.add_argument(
        "--threshold", type=float, default=3.0,
        help="absolute gate: max allowed seconds_min ratio vs the "
        "baseline (default 3.0 — generous, baselines travel "
        "between machines)",
    )
    parser.add_argument(
        "--speedup-floor", type=float, default=2.0,
        help="relative gate: min allowed batching speedup (machine-"
        "independent; default 2.0)",
    )
    parser.add_argument(
        "--min-gate-ms", type=float, default=1.0,
        help="cases with a baseline best time below this are "
        "reported but never fail the absolute gate (default 1.0 ms)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_cases",
        help="enumerate the registered bench cases and exit",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="also run the serving load generator and embed its "
        "throughput / latency-percentile document under the "
        "'serving' key",
    )
    parser.add_argument(
        "--clients", type=int, default=None,
        help="serving load: concurrent client streams "
        "(default 32 full / 16 quick)",
    )
    parser.add_argument(
        "--requests-per-client", type=int, default=None,
        help="serving load: queries per client (default 4 full / "
        "2 quick)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=32,
        help="serving load: broker micro-batch cap (default 32)",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="serving load: broker linger in ms (default 2.0)",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="also run the telemetry-overhead comparison (the serving "
        "workload with the observability stack enabled vs disabled) "
        "and embed its document under the 'telemetry' key; the "
        "relative p50 overhead is gated below --telemetry-limit in "
        "the full setting",
    )
    parser.add_argument(
        "--telemetry-rounds", type=int, default=None,
        help="telemetry tier: alternating enabled/disabled rounds "
        "whose per-side p50 medians are compared (default 3 full / "
        "2 quick)",
    )
    parser.add_argument(
        "--telemetry-limit", type=float, default=None,
        help="telemetry tier: max allowed relative p50 overhead "
        "(default 0.05 full / ungated quick)",
    )
    parser.add_argument(
        "--cluster", action="store_true",
        help="also run the worker-scaling case (repro.cluster "
        "thread pool) and embed its document under the 'cluster' "
        "key; its speedup joins the derived ratios as "
        "speedup_workers_<b>_vs_<a>",
    )
    parser.add_argument(
        "--worker-counts", default="1,4", metavar="A,B",
        help="worker-scaling: comma-separated worker counts, low to "
        "high (default 1,4 — the gated speedup_workers_4_vs_1 pair)",
    )
    parser.add_argument(
        "--approx", action="store_true",
        help="also run the exact-vs-approx comparison on scale-free "
        "graphs (repro.bench.approx) and embed its document under "
        "the 'approx' key; its speedup_approx_vs_exact joins the "
        "gated derived ratios and its precision@k floor is an exit "
        "gate",
    )
    parser.add_argument(
        "--approx-nodes", default=None, metavar="A,B",
        help="approx tier: comma-separated graph sizes, ascending "
        "(default 10000,100000 full / 2000,10000 quick); the speedup "
        "is taken at the largest",
    )
    parser.add_argument(
        "--approx-queries", type=int, default=None,
        help="approx tier: top-k queries per scale (default 12 full "
        "/ 8 quick)",
    )
    parser.add_argument(
        "--approx-epsilon", type=float, default=None,
        help="approx tier: estimator accuracy knob (default: the "
        "tier's 0.05)",
    )
    parser.add_argument(
        "--approx-speedup-floor", type=float, default=None,
        help="approx tier: required speedup at the largest scale "
        "(default 10.0 full / ungated quick — small graphs cannot "
        "express the asymptotic ratio)",
    )
    parser.add_argument(
        "--mutate", action="store_true",
        help="also run the delta-vs-rebuild mutation comparison "
        "(repro.bench.mutate) and embed its document under the "
        "'mutate' key; its speedup_delta_swap_vs_rebuild joins the "
        "gated derived ratios and its path/parity checks are exit "
        "gates",
    )
    parser.add_argument(
        "--mutate-nodes", type=int, default=None,
        help="mutation tier: scale-free graph size (default 100000 "
        "full / 10000 quick)",
    )
    parser.add_argument(
        "--mutate-batches", type=int, default=None,
        help="mutation tier: seeded 1%%-of-edges batch swaps pushed "
        "through both maintenance paths (default 3)",
    )
    parser.add_argument(
        "--mutate-speedup-floor", type=float, default=None,
        help="mutation tier: required (rebuild median) / (delta "
        "median) swap-time ratio (default 10.0 full / ungated quick "
        "— small graphs rebuild too fast to express the ratio)",
    )
    parser.add_argument(
        "--history", action="store_true",
        help="print the trend table over every BENCH_*.json in the "
        "current directory (commit order) and exit; nothing is timed",
    )
    parser.add_argument(
        "--detect", action="store_true",
        help="with --history: run E-Divisive change-point detection "
        "over every metric series (repro.bench.signal) and exit "
        "non-zero on regressions not explained by the "
        "--expected-changes allowlist",
    )
    parser.add_argument(
        "--expected-changes", default="BENCH_expected_changes.json",
        metavar="PATH",
        help="allowlist of intentional series shifts consulted by "
        "--detect (default BENCH_expected_changes.json)",
    )
    parser.add_argument(
        "--detect-alpha", type=float, default=0.05,
        help="permutation-test significance level for --detect "
        "(default 0.05)",
    )
    parser.add_argument(
        "--detect-min-shift", type=float, default=0.10,
        help="minimum relative mean shift a --detect finding must "
        "show (default 0.10 — smaller moves are machine noise)",
    )
    return parser


def list_cases(args, preset: dict) -> int:
    """Print every registered case name (tiny setup, nothing timed)."""
    cases = default_suite(
        nodes=64, edges=256, queries=4, num_terms=4,
        allpairs_nodes=24, allpairs_edges=96,
        k=args.k, dtype=args.dtype, seed=args.seed,
    )
    print("kernel cases (python -m repro.bench):")
    for case in cases:
        fresh = "  [fresh-state]" if case.fresh_state else ""
        print(f"  {case.name}{fresh}")
    print("serving load scenario (--serve):")
    print(
        "  serving_load  "
        f"[{preset['nodes']} nodes, {preset['edges']} edges, "
        "coalesced vs sequential single_source]"
    )
    print("telemetry-overhead scenario (--telemetry):")
    print(
        "  telemetry_overhead  "
        f"[{preset['nodes']} nodes, {preset['edges']} edges, "
        "serving load with metrics+tracing on vs off, p50 gated]"
    )
    print("worker-scaling scenario (--cluster):")
    print(
        "  cluster_scaling  "
        f"[{preset['nodes']} nodes, {preset['edges']} edges, "
        f"worker counts {args.worker_counts}, sharded thread pool]"
    )
    approx = APPROX_QUICK if args.quick else APPROX_FULL
    sizes = args.approx_nodes or ",".join(
        str(n) for n in approx["node_counts"]
    )
    print("approx-tier scenario (--approx):")
    print(
        "  approx_compare  "
        f"[scale-free graphs at {sizes} nodes, exact vs "
        "mode=approx top-k: latency, precision@k, walk-index "
        "build]"
    )
    mutate = MUTATE_QUICK if args.quick else MUTATE_FULL
    print("mutation-tier scenario (--mutate):")
    print(
        "  mutate_compare  "
        f"[scale-free graph at {args.mutate_nodes or mutate['nodes']} "
        "nodes, identical 1%-of-edges batch swaps: delta-maintained "
        "vs rebuild-maintained SnapshotManager, bit-parity gated]"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.history:
        from repro.bench.history import collect_history, render_history

        entries = collect_history()
        print(render_history(entries))
        if args.detect:
            from repro.bench.signal import render_findings, run_detection

            ok, findings = run_detection(
                entries,
                expected_path=args.expected_changes,
                alpha=args.detect_alpha,
                min_shift=args.detect_min_shift,
            )
            print()
            print(render_findings(findings))
            if not ok:
                print(
                    "unexplained perf regression in the BENCH series "
                    f"(record intentional shifts in "
                    f"{args.expected_changes})",
                    file=sys.stderr,
                )
                return 1
        return 0
    preset = dict(QUICK if args.quick else FULL)
    for key in list(preset):
        override = getattr(args, key.replace("-", "_"), None)
        if override is not None:
            preset[key] = override
    repeat = preset.pop("repeat")
    warmup = preset.pop("warmup")
    if args.list_cases:
        return list_cases(args, preset)
    tag = args.tag or ("quick" if args.quick else "local")
    params = dict(
        preset,
        k=args.k,
        dtype=args.dtype,
        seed=args.seed,
        repeat=repeat,
        warmup=warmup,
        quick=args.quick,
    )
    cases = default_suite(
        k=args.k, dtype=args.dtype, seed=args.seed, **preset
    )
    run = run_suite(
        cases,
        tag=tag,
        params=params,
        warmup=warmup,
        repeat=repeat,
        progress=lambda name: print(f"  running {name} ...", flush=True),
    )
    document = run.to_dict()
    if args.serve:
        from repro.bench.loadgen import run_serving_load

        serve_defaults = SERVE_QUICK if args.quick else SERVE_FULL
        print("  running serving_load ...", flush=True)
        document["serving"] = run_serving_load(
            nodes=preset["nodes"],
            edges=preset["edges"],
            clients=args.clients or serve_defaults["clients"],
            requests_per_client=(
                args.requests_per_client
                or serve_defaults["requests_per_client"]
            ),
            k=args.k,
            num_terms=preset["num_terms"],
            dtype=args.dtype,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            seed=args.seed,
        )
    telemetry_ok = True
    if args.telemetry:
        from repro.bench.loadgen import run_telemetry_overhead

        telemetry_defaults = (
            TELEMETRY_QUICK if args.quick else TELEMETRY_FULL
        )
        limit = (
            args.telemetry_limit
            if args.telemetry_limit is not None
            else telemetry_defaults["overhead_limit"]
        )
        serve_defaults = SERVE_QUICK if args.quick else SERVE_FULL
        print("  running telemetry_overhead ...", flush=True)
        document["telemetry"] = run_telemetry_overhead(
            nodes=preset["nodes"],
            edges=preset["edges"],
            clients=args.clients or serve_defaults["clients"],
            requests_per_client=(
                args.requests_per_client
                or serve_defaults["requests_per_client"]
            ),
            k=args.k,
            num_terms=preset["num_terms"],
            dtype=args.dtype,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            seed=args.seed,
            rounds=(
                args.telemetry_rounds or telemetry_defaults["rounds"]
            ),
            overhead_limit=limit,
        )
        telemetry_ok = all(
            document["telemetry"]["checks"].values()
        )
    if args.cluster:
        from repro.bench.loadgen import run_cluster_scaling

        print("  running cluster_scaling ...", flush=True)
        cluster = run_cluster_scaling(
            nodes=preset["nodes"],
            edges=preset["edges"],
            worker_counts=tuple(
                int(w) for w in args.worker_counts.split(",")
            ),
            k=args.k,
            num_terms=preset["num_terms"],
            dtype=args.dtype,
            seed=args.seed,
            **(CLUSTER_QUICK if args.quick else CLUSTER_FULL),
        )
        document["cluster"] = cluster
        key = cluster["speedup_key"]
        document["derived"][key] = cluster[key]
    approx_ok = True
    if args.approx:
        from repro.bench.approx import run_approx_compare

        approx_defaults = APPROX_QUICK if args.quick else APPROX_FULL
        node_counts = tuple(
            int(n) for n in args.approx_nodes.split(",")
        ) if args.approx_nodes else approx_defaults["node_counts"]
        floor = (
            args.approx_speedup_floor
            if args.approx_speedup_floor is not None
            else approx_defaults["speedup_floor"]
        )
        document["approx"] = run_approx_compare(
            node_counts=node_counts,
            queries=(
                args.approx_queries or approx_defaults["queries"]
            ),
            k=args.k,
            epsilon=args.approx_epsilon,
            num_terms=preset["num_terms"],
            dtype=args.dtype,
            seed=args.seed,
            speedup_floor=floor,
            progress=lambda name: print(
                f"  running {name} ...", flush=True
            ),
        )
        key = document["approx"]["speedup_key"]
        document["derived"][key] = document["approx"][key]
        approx_ok = all(document["approx"]["checks"].values())
    mutate_ok = True
    if args.mutate:
        # a fresh subprocess per comparison: the tiers above leave
        # allocator churn that measurably inflates sub-second delta
        # swaps timed in the same process
        from repro.bench.mutate import run_mutate_compare_isolated

        mutate_defaults = MUTATE_QUICK if args.quick else MUTATE_FULL
        floor = (
            args.mutate_speedup_floor
            if args.mutate_speedup_floor is not None
            else mutate_defaults["speedup_floor"]
        )
        document["mutate"] = run_mutate_compare_isolated(
            nodes=args.mutate_nodes or mutate_defaults["nodes"],
            batches=(
                args.mutate_batches or mutate_defaults["batches"]
            ),
            num_terms=preset["num_terms"],
            dtype=args.dtype,
            seed=args.seed,
            speedup_floor=floor,
            progress=lambda name: print(
                f"  running {name} ...", flush=True
            ),
        )
        key = document["mutate"]["speedup_key"]
        document["derived"][key] = document["mutate"][key]
        mutate_ok = all(document["mutate"]["checks"].values())
    print(f"\n== repro.bench [{tag}] ==")
    for name, result in document["results"].items():
        print(
            f"  {name:<28} {result['seconds_min'] * 1e3:9.2f} ms "
            f"(mean {result['seconds_mean'] * 1e3:9.2f} ms, "
            f"peak {result['peak_bytes'] / 1e6:8.2f} MB)"
        )
    for key, value in document["derived"].items():
        print(f"  {key:<28} {value:9.2f}x")
    if args.serve:
        serving = document["serving"]
        coalesced = serving["coalesced"]
        print(
            f"  serving_load                 "
            f"{coalesced['requests_per_second']:9.0f} rps "
            f"(sequential "
            f"{serving['sequential']['requests_per_second']:.0f} rps, "
            f"{serving['speedup_throughput']:.2f}x; p50 "
            f"{coalesced['latency']['p50_ms']:.1f} ms, p99 "
            f"{coalesced['latency']['p99_ms']:.1f} ms)"
        )
    if args.telemetry:
        telemetry = document["telemetry"]
        print(
            f"  telemetry_overhead           p50 "
            f"{telemetry['disabled']['p50_ms']:.2f} ms off vs "
            f"{telemetry['enabled']['p50_ms']:.2f} ms on -> "
            f"{telemetry['p50_overhead'] * 100:+.1f}%"
            + (
                f" (limit {telemetry['params']['overhead_limit']:.0%})"
                if telemetry["params"]["overhead_limit"] is not None
                else " (ungated)"
            )
        )
        for name, passed in telemetry["checks"].items():
            print(f"  {'ok' if passed else 'FAIL'} telemetry {name}")
    if args.cluster:
        cluster = document["cluster"]
        sides = ", ".join(
            f"{count}w {data['columns_per_second']:.0f} col/s"
            for count, data in cluster["workers"].items()
        )
        print(
            f"  cluster_scaling              {sides} "
            f"-> {cluster[cluster['speedup_key']]:.2f}x"
        )
    if args.approx:
        approx = document["approx"]
        for size, scale in approx["scales"].items():
            print(
                f"  approx_compare@{size:<13} "
                f"exact "
                f"{scale['exact']['seconds_per_query'] * 1e3:8.2f} ms"
                f" vs approx "
                f"{scale['approx']['seconds_per_query'] * 1e3:7.2f} "
                f"ms -> {scale['speedup']:.1f}x, "
                f"precision@{approx['k']} "
                f"{scale['precision_at_k']:.3f}"
            )
        for name, passed in approx["checks"].items():
            print(f"  {'ok' if passed else 'FAIL'} approx {name}")
    if args.mutate:
        mutate = document["mutate"]
        medians = mutate["swap_seconds_median"]
        print(
            f"  mutate_compare@{mutate['nodes']:<13} "
            f"rebuild {medians['rebuild'] * 1e3:9.1f} ms vs delta "
            f"{medians['delta'] * 1e3:8.1f} ms per swap -> "
            f"{mutate[mutate['speedup_key']]:.1f}x "
            f"({mutate['batches']} batches, "
            f"{mutate['edits_per_batch']} edits each)"
        )
        for name, passed in mutate["checks"].items():
            print(f"  {'ok' if passed else 'FAIL'} mutate {name}")
    if not args.no_write:
        out_path = Path(args.output or f"BENCH_{tag}.json")
        out_path.write_text(json.dumps(document, indent=2) + "\n")
        print(f"\nwrote {out_path}")
    if args.compare is not None:
        baseline_path = Path(args.compare)
        if not baseline_path.exists():
            print(f"baseline {baseline_path} not found", file=sys.stderr)
            return 2
        baseline = json.loads(baseline_path.read_text())
        ok, lines = compare_runs(
            document,
            baseline,
            threshold=args.threshold,
            speedup_floor=args.speedup_floor,
            min_gate_seconds=args.min_gate_ms * 1e-3,
        )
        print(f"\n== compare vs {baseline_path} ==")
        for line in lines:
            print(f"  {line}")
        if not ok:
            print("regression detected", file=sys.stderr)
            return 1
        print("no regression")
    if not telemetry_ok:
        print("telemetry gates FAILED", file=sys.stderr)
        return 1
    if not approx_ok:
        print("approx gates FAILED", file=sys.stderr)
        return 1
    if not mutate_ok:
        print("mutate gates FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
