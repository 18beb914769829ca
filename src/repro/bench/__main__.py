"""``python -m repro.bench`` — run, record, and compare benchmarks.

Typical uses::

    python -m repro.bench --quick                  # fast suite -> BENCH_quick.json
    python -m repro.bench --tag PR2                # full suite  -> BENCH_PR2.json
    python -m repro.bench --quick --compare BENCH_baseline.json
    python -m repro.bench --list                   # enumerate cases
    python -m repro.bench --cluster --tag PR5      # + worker scaling
    python -m repro.bench --history                # trend over BENCH_*.json
    python -m repro.bench --history --detect       # + change-point gate

Compare mode exits non-zero when a case regresses beyond
``--threshold`` times its baseline or a gated batching speedup falls
below ``--speedup-floor`` — the CI regression gate. ``--cluster``
runs the worker-scaling case on the thread pool
(:mod:`repro.bench.cluster`, under ``"cluster"`` in
``BENCH_<tag>.json``), and its ``speedup_workers_<b>_vs_<a>`` ratio
joins the gated derived speedups when the process may run on enough
CPUs to express it. ``--history`` renders the trend table over every
committed ``BENCH_*.json`` in the current directory (commit order)
and exits without timing anything;
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

#: Worker-scaling workloads (``--cluster``): micro-batches of top-k
#: tasks over distinct query columns pushed through the sharded thread
#: pool at the low and high worker counts of the
#: ``speedup_workers_4_vs_1`` gate.
CLUSTER_QUICK = {"batches": 4, "batch_size": 32}
CLUSTER_FULL = {"batches": 8, "batch_size": 64}


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
    print("worker-scaling scenario (--cluster):")
    print(
        "  cluster_scaling  "
        f"[{preset['nodes']} nodes, {preset['edges']} edges, "
        f"worker counts {args.worker_counts}, sharded thread pool]"
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
    if args.cluster:
        from repro.bench.cluster import run_cluster_scaling

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
    print(f"\n== repro.bench [{tag}] ==")
    for name, result in document["results"].items():
        print(
            f"  {name:<28} {result['seconds_min'] * 1e3:9.2f} ms "
            f"(mean {result['seconds_mean'] * 1e3:9.2f} ms, "
            f"peak {result['peak_bytes'] / 1e6:8.2f} MB)"
        )
    for key, value in document["derived"].items():
        print(f"  {key:<28} {value:9.2f}x")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
