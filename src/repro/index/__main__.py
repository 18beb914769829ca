"""``python -m repro.index`` — build, inspect, and verify indexes.

Subcommands::

    build    build a SimilarityIndex for a graph + config and save it
    inspect  print a saved index's metadata and array table (header
             only — no array payload is read)
    verify   deep-check a saved index: checksums + CSR structure
    smoke    the CI cold-start check: load the index in THIS (fresh)
             process, assert score parity against a freshly built
             engine, and assert that load + first query beats full
             artifact rebuild + first query
    compact  fold a base index and the ``.delta-<n>`` segments the
             serving layer persisted beside it into one fresh base
             file (offline chain maintenance)

Examples::

    python -m repro.index build --nodes 2000 --edges 12000 \
        --measure memo-gSR* --output bench.simidx
    python -m repro.index inspect bench.simidx
    python -m repro.index verify bench.simidx
    python -m repro.index smoke --index bench.simidx \
        --nodes 2000 --edges 12000 --measure memo-gSR*
    python -m repro.index compact bench.simidx

``smoke`` regenerates the (seeded) graph itself, so running ``build``
and ``smoke`` as two separate processes exercises the real restart
path: nothing is shared but the file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.cliopts import (
    add_config_options,
    add_graph_options,
    build_graph,
    config_from_args,
)
from repro.engine.engine import SimilarityEngine
from repro.index.artifacts import SimilarityIndex
from repro.index.store import (
    DEFAULT_SUFFIX,
    IndexFormatError,
    verify_index,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.index",
        description="Build, inspect, and verify persistent "
        "similarity-precomputation indexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser(
        "build", help="build an index and save it to --output"
    )
    add_graph_options(build)
    add_config_options(build)
    build.add_argument(
        "--output", default=f"index{DEFAULT_SUFFIX}",
        help=f"output path (default index{DEFAULT_SUFFIX})",
    )

    inspect = sub.add_parser(
        "inspect", help="print a saved index's metadata (header only)"
    )
    inspect.add_argument("path")

    verify = sub.add_parser(
        "verify",
        help="deep-check checksums and CSR structure; exit 1 on any "
        "problem",
    )
    verify.add_argument("path")

    smoke = sub.add_parser(
        "smoke",
        help="cold-start check (the CI job): load --index fresh, "
        "assert parity with a rebuilt engine and that load beats "
        "rebuild",
    )
    add_graph_options(smoke)
    add_config_options(smoke)
    smoke.add_argument(
        "--index", required=True,
        help="index file produced by `build` (ideally in another "
        "process)",
    )
    smoke.add_argument(
        "--queries", type=int, default=8,
        help="query columns compared for parity (default 8)",
    )
    smoke.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="required (rebuild time) / (load time) ratio for the "
        "cold-start gate (default 2.0)",
    )
    smoke.add_argument(
        "--repeat", type=int, default=3,
        help="timing repetitions; the best of each side is compared "
        "(default 3)",
    )
    smoke.add_argument(
        "--output", default="INDEX_smoke.json",
        help="machine-readable report path (default INDEX_smoke.json)",
    )

    compact = sub.add_parser(
        "compact",
        help="apply every .delta-<n> segment found beside the base "
        "index onto it and write the folded result back (atomic); "
        "applied segments are removed unless --keep-deltas",
    )
    compact.add_argument("path")
    compact.add_argument(
        "--output", default=None,
        help="write the folded index here instead of replacing the "
        "base file in place (segments are then kept)",
    )
    compact.add_argument(
        "--keep-deltas", action="store_true",
        help="do not delete the segments that were folded in",
    )
    return parser


def _cmd_build(args) -> int:
    graph = build_graph(args)
    config = config_from_args(args)
    start = time.perf_counter()
    index = SimilarityIndex.build(graph, config)
    built = time.perf_counter() - start
    path = index.save(args.output)
    size = path.stat().st_size
    print(f"built {index}")
    print(
        f"  build {built * 1e3:.1f} ms, wrote {size / 1e6:.2f} MB "
        f"to {path}"
    )
    return 0


def _cmd_inspect(args) -> int:
    try:
        index = SimilarityIndex.load(args.path, mmap=True)
    except IndexFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(index.describe(), indent=2))
    return 0


def _cmd_verify(args) -> int:
    problems = verify_index(args.path)
    if problems:
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        print(f"{args.path}: {len(problems)} problem(s)",
              file=sys.stderr)
        return 1
    print(f"{args.path}: ok (checksums + structure verified)")
    return 0


def _timed_first_query(make_engine, query: int) -> tuple[float, np.ndarray]:
    start = time.perf_counter()
    engine = make_engine()
    column = engine.single_source(query)
    return time.perf_counter() - start, column


def _cmd_smoke(args) -> int:
    graph = build_graph(args)
    config = config_from_args(args)
    path = Path(args.index)
    rng = np.random.default_rng(args.seed)
    queries = [
        int(q)
        for q in rng.choice(
            graph.num_nodes,
            size=min(args.queries, graph.num_nodes),
            replace=False,
        )
    ]
    probe = queries[0]

    # parity: a fresh build in this process is the oracle
    reference = SimilarityEngine(graph, config)
    loaded_index = SimilarityIndex.load(path, mmap=True)
    served = SimilarityEngine.from_index(loaded_index, graph, config)
    worst = 0.0
    for query in queries:
        expected = reference.single_source(query)
        actual = served.single_source(query)
        worst = max(
            worst, float(np.max(np.abs(expected - actual)))
        )
    stats = served.stats.snapshot()
    tolerance = 1e-6 if config.dtype == "float32" else 1e-10

    # cold start: load+query vs full rebuild+query, best of --repeat
    load_times, rebuild_times = [], []
    for _ in range(max(1, args.repeat)):
        seconds, _ = _timed_first_query(
            lambda: SimilarityEngine.from_index(
                SimilarityIndex.load(path, mmap=True), graph, config
            ),
            probe,
        )
        load_times.append(seconds)
        seconds, _ = _timed_first_query(
            lambda: SimilarityEngine.from_index(
                SimilarityIndex.build(graph, config), graph, config
            ),
            probe,
        )
        rebuild_times.append(seconds)
    speedup = min(rebuild_times) / min(load_times)

    checks = {
        "score_parity": worst <= tolerance,
        "no_artifact_rebuild": (
            stats["transition_builds"] == 0
            and stats["compression_builds"] == 0
        ),
        "cold_start_load_beats_rebuild": speedup >= args.min_speedup,
    }
    report = {
        "index": str(path),
        "index_bytes": path.stat().st_size,
        "graph": {
            "nodes": graph.num_nodes, "edges": graph.num_edges,
        },
        "config": {
            "measure": config.measure, "c": config.c,
            "num_iterations": config.num_iterations,
            "dtype": config.dtype,
        },
        "parity": {
            "queries": len(queries),
            "max_abs_difference": worst,
            "tolerance": tolerance,
        },
        "cold_start": {
            "load_seconds_min": min(load_times),
            "rebuild_seconds_min": min(rebuild_times),
            "speedup": speedup,
            "min_speedup": args.min_speedup,
        },
        "engine_stats": stats,
        "checks": checks,
    }
    Path(args.output).write_text(
        json.dumps(report, indent=2) + "\n"
    )
    print(
        f"  load {min(load_times) * 1e3:.2f} ms vs rebuild "
        f"{min(rebuild_times) * 1e3:.2f} ms -> {speedup:.1f}x "
        f"(floor {args.min_speedup:.1f}x)"
    )
    print(
        f"  parity over {len(queries)} queries: max diff "
        f"{worst:.2e} (tolerance {tolerance:.0e})"
    )
    print(f"wrote {args.output}")
    for name, passed in checks.items():
        print(f"  {'ok' if passed else 'FAIL'} {name}")
    if not all(checks.values()):
        print("index smoke test FAILED", file=sys.stderr)
        return 1
    print("index smoke test passed")
    return 0


def _cmd_compact(args) -> int:
    from repro.index.artifacts import IndexMismatchError
    from repro.index.delta import apply_delta_file, find_delta_siblings

    path = Path(args.path)
    try:
        index = SimilarityIndex.load(path, mmap=True)
    except IndexFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    siblings = find_delta_siblings(path)
    if not siblings:
        print(f"{path}: no delta segments to fold")
        return 0
    start = time.perf_counter()
    applied_paths = []
    for seq, segment in siblings:
        try:
            index, delta = apply_delta_file(index, segment)
        except (IndexFormatError, IndexMismatchError) as exc:
            # a broken link ends the chain — fold what applied
            # cleanly, keep the rest on disk for inspection
            print(
                f"warning: stopping at {segment.name}: {exc}",
                file=sys.stderr,
            )
            break
        applied_paths.append(segment)
        print(
            f"  applied {segment.name}: +{delta.added.shape[0]} "
            f"-{delta.removed.shape[0]} edges "
            f"(chain depth {delta.chain_depth})"
        )
    if not applied_paths:
        print("error: no segment applied cleanly", file=sys.stderr)
        return 1
    out = Path(args.output) if args.output else path
    index.save(out)  # writes atomically
    elapsed = time.perf_counter() - start
    if out == path and not args.keep_deltas:
        for segment in applied_paths:
            segment.unlink(missing_ok=True)
        removed = f", removed {len(applied_paths)} segment(s)"
    else:
        removed = ""
    print(
        f"folded {len(applied_paths)} of {len(siblings)} segment(s) "
        f"into {out} in {elapsed * 1e3:.1f} ms "
        f"({out.stat().st_size / 1e6:.2f} MB){removed}"
    )
    return 0 if len(applied_paths) == len(siblings) else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "build":
        return _cmd_build(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "smoke":
        return _cmd_smoke(args)
    if args.command == "compact":
        return _cmd_compact(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
