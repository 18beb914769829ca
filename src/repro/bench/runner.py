"""The persistent performance harness behind ``python -m repro.bench``.

Where :mod:`repro.bench.harness` reproduces the *paper's* figures,
this module tracks the *repo's own* performance over time, in the
style of regression-driven benchmark suites: a fixed set of named
cases over a seeded workload, warmup/repeat wall-clock timing plus a
tracemalloc peak per case, machine-readable output written to
``BENCH_<tag>.json``, and a compare mode that fails when a case
regresses against a committed baseline.

Two kinds of gate are applied when comparing:

* **absolute** — a case's best wall time may not exceed
  ``threshold x`` its baseline time (generous by default, because
  baselines travel between machines);
* **relative** — derived speedup ratios (blocked batch kernel vs the
  pre-blocking per-query loop, engine ``batch_top_k`` vs the same
  loop) are machine-independent and must stay above a floor.
"""

from __future__ import annotations

import json
import platform
import re
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

SCHEMA_VERSION = 1

#: Derived ratios that the compare gate holds to ``speedup_floor``.
#: These are machine-independent ratios (batching speedups, the
#: index cold-start ratio), so a floor can gate CI without
#: cross-machine wall-clock noise. The per-query
#: ``speedup_single_source`` ratio is reported but not gated (B = 1
#: barely benefits from blocking).
GATED_SPEEDUPS = (
    "speedup_blocked_vs_loop",
    "speedup_engine_batch_vs_loop",
    "speedup_index_load_vs_rebuild",
    "speedup_workers_4_vs_1",
)

#: ``speedup_workers_<b>_vs_<a>`` ratios (``python -m repro.bench
#: --cluster``) are machine-independent only when the machine can
#: actually run the larger worker count in parallel, so their floor
#: applies only when the *current* run's ``machine.cpu_count`` (the
#: cores the process may run on) is at least ``b``; with fewer they
#: are reported un-gated.
_WORKER_SPEEDUP = re.compile(r"^speedup_workers_(\d+)_vs_(\d+)$")

__all__ = [
    "BenchCase",
    "BenchRun",
    "CaseResult",
    "compare_runs",
    "default_suite",
    "machine_info",
    "run_suite",
]


@dataclass(frozen=True)
class BenchCase:
    """One named benchmark: ``fn(*setup())`` timed repeatedly.

    ``setup`` builds the case's inputs and is excluded from the
    timing. With ``fresh_state`` set, ``setup`` re-runs before *every*
    invocation — required for memoizing targets (a warm
    :class:`~repro.engine.SimilarityEngine` would otherwise serve
    repeat invocations from its column cache and time the memo, not
    the kernel).
    """

    name: str
    setup: Callable[[], tuple]
    fn: Callable[..., Any]
    fresh_state: bool = False


@dataclass
class CaseResult:
    """Timings (seconds per repeat) and peak allocation of one case."""

    name: str
    seconds: list[float]
    peak_bytes: int

    @property
    def seconds_min(self) -> float:
        return min(self.seconds)

    @property
    def seconds_mean(self) -> float:
        return sum(self.seconds) / len(self.seconds)

    def to_dict(self) -> dict:
        return {
            "seconds_min": self.seconds_min,
            "seconds_mean": self.seconds_mean,
            "seconds": list(self.seconds),
            "peak_bytes": self.peak_bytes,
        }


@dataclass
class BenchRun:
    """A full suite run, serialisable to ``BENCH_<tag>.json``."""

    tag: str
    params: dict
    machine: dict
    results: dict[str, CaseResult] = field(default_factory=dict)

    def derived(self) -> dict[str, float]:
        """Machine-independent ratios computed from the case timings."""
        out: dict[str, float] = {}

        def ratio(numerator: str, denominator: str, key: str) -> None:
            a = self.results.get(numerator)
            b = self.results.get(denominator)
            if a and b and b.seconds_min > 0:
                out[key] = a.seconds_min / b.seconds_min

        ratio(
            "batch_per_query_loop",
            "batch_blocked_kernel",
            "speedup_blocked_vs_loop",
        )
        ratio(
            "batch_per_query_loop",
            "engine_batch_top_k",
            "speedup_engine_batch_vs_loop",
        )
        ratio(
            "single_source_reference",
            "single_source_blocked",
            "speedup_single_source",
        )
        ratio(
            "index_cold_rebuild",
            "index_cold_load",
            "speedup_index_load_vs_rebuild",
        )
        return out

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "tag": self.tag,
            "created_at": time.strftime(
                "%Y-%m-%dT%H:%M:%S", time.gmtime()
            ),
            "machine": self.machine,
            "params": self.params,
            "results": {
                name: result.to_dict()
                for name, result in self.results.items()
            },
            "derived": self.derived(),
        }

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def machine_info() -> dict:
    import scipy

    from repro.cluster.blas import usable_cores

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": usable_cores(),
    }
    try:
        import resource

        info["max_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss
    except ImportError:  # pragma: no cover - non-POSIX
        pass
    return info


def run_case(
    case: BenchCase, warmup: int = 1, repeat: int = 3
) -> CaseResult:
    """Time one case: ``warmup`` untimed calls, ``repeat`` timed ones.

    One extra call runs under :mod:`tracemalloc` for the peak-bytes
    column — separately, so the tracer's overhead never pollutes the
    wall-clock numbers.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    state = None if case.fresh_state else case.setup()

    def acquire_args() -> tuple:
        # fresh-state cases rebuild their inputs before every single
        # invocation (warmup, timed, and memory passes alike)
        return case.setup() if case.fresh_state else state

    for _ in range(warmup):
        case.fn(*acquire_args())
    seconds = []
    for _ in range(repeat):
        args = acquire_args()
        start = time.perf_counter()
        case.fn(*args)
        seconds.append(time.perf_counter() - start)
    args = acquire_args()
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        case.fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not already_tracing:
            tracemalloc.stop()
    return CaseResult(name=case.name, seconds=seconds, peak_bytes=peak)


def default_suite(
    nodes: int = 2000,
    edges: int = 12000,
    queries: int = 64,
    num_terms: int = 10,
    k: int = 10,
    allpairs_nodes: int = 600,
    allpairs_edges: int = 3600,
    dtype: str = "float64",
    seed: int = 42,
) -> list[BenchCase]:
    """The repo's serving-hot-path cases over a seeded random digraph.

    The batch cases cover the acceptance regime: ``queries`` fresh
    query nodes on a ``nodes``/``edges`` graph, served by (a) the
    pre-blocking per-query series walk
    (:func:`repro.core.queries.single_source_reference` — the "before"
    side), (b) the blocked multi-source kernel, and (c) the full
    engine ``batch_top_k`` path including ranking. All-pairs kernels
    run on a smaller graph so a full suite stays interactive.

    The ``index_cold_*`` pair measures server cold start: loading a
    persisted ``memo-gSR*`` index (``Q``, ``Q^T``, compressed
    factors, coefficients) with ``mmap=True`` and serving a first
    query, versus rebuilding every artifact from the graph and
    serving the same query. The persisted file lives in a temp
    directory built lazily on first use and removed at exit; the
    ratio is gated as ``speedup_index_load_vs_rebuild``.
    """
    import atexit
    import shutil
    import tempfile
    from pathlib import Path

    from repro.core.multi_source import multi_source
    from repro.core.queries import single_source_reference
    from repro.core import (
        memo_simrank_star_factorized,
        simrank_star,
        simrank_star_exponential,
    )
    from repro.engine import (
        Ranking,
        SimilarityConfig,
        SimilarityEngine,
    )
    from repro.graph import random_digraph
    from repro.graph.matrices import backward_transition_matrix
    from repro.index import SimilarityIndex

    rng = np.random.default_rng(seed)
    graph = random_digraph(nodes, edges, seed=seed)
    small = random_digraph(allpairs_nodes, allpairs_edges, seed=seed + 1)
    query_ids = rng.choice(nodes, size=queries, replace=False)
    query_list = [int(q) for q in query_ids]
    transition = backward_transition_matrix(graph, dtype=dtype)
    transition_t = transition.T.tocsr()

    def loop_batch(g, qs, q_mat, qt_mat):
        rankings = []
        for node in qs:
            scores = single_source_reference(
                g, node, 0.6, num_terms,
                transition=q_mat, transition_t=qt_mat,
            )
            rankings.append(
                Ranking.from_scores(scores, query=node, k=k)
            )
        return rankings

    def blocked_batch(g, qs, q_mat, qt_mat):
        block = multi_source(
            g, qs, 0.6, num_terms,
            transition=q_mat, transition_t=qt_mat, dtype=dtype,
        )
        return [
            Ranking.from_scores(block[:, j], query=node, k=k)
            for j, node in enumerate(qs)
        ]

    def fresh_engine() -> tuple:
        engine = SimilarityEngine(
            graph, measure="gSR*", c=0.6,
            num_iterations=num_terms, dtype=dtype,
        )
        engine.transition_t  # warm Q/Q^T: both sides start warm
        return (engine,)

    # -- index cold-start pair ------------------------------------------
    cold_config = SimilarityConfig(
        measure="memo-gSR*", c=0.6,
        num_iterations=num_terms, dtype=dtype,
    )
    index_dir: list[Path] = []  # created lazily, removed at exit

    def index_path() -> Path:
        if not index_dir:
            index_dir.append(
                Path(tempfile.mkdtemp(prefix="repro-bench-index-"))
            )
            atexit.register(
                shutil.rmtree, index_dir[0], ignore_errors=True
            )
        path = index_dir[0] / "bench.simidx"
        if not path.exists():
            SimilarityIndex.build(graph, cold_config).save(path)
        return path

    def cold_load(path: Path, probe: int):
        index = SimilarityIndex.load(path, mmap=True)
        engine = SimilarityEngine.from_index(index, graph, cold_config)
        return engine.single_source(probe)

    def cold_rebuild(fresh_graph, probe: int):
        index = SimilarityIndex.build(fresh_graph, cold_config)
        engine = SimilarityEngine.from_index(
            index, fresh_graph, cold_config
        )
        return engine.single_source(probe)

    scores_vector = rng.random(nodes)

    return [
        BenchCase(
            "build_transition",
            lambda: (graph,),
            lambda g: backward_transition_matrix(g, dtype=dtype),
        ),
        BenchCase(
            "single_source_reference",
            lambda: (graph, query_list[0], transition, transition_t),
            lambda g, q, qm, qtm: single_source_reference(
                g, q, 0.6, num_terms, transition=qm, transition_t=qtm
            ),
        ),
        BenchCase(
            "single_source_blocked",
            lambda: (graph, query_list[0], transition, transition_t),
            lambda g, q, qm, qtm: multi_source(
                g, (q,), 0.6, num_terms,
                transition=qm, transition_t=qtm, dtype=dtype,
            ),
        ),
        BenchCase(
            "batch_per_query_loop",
            lambda: (graph, query_list, transition, transition_t),
            loop_batch,
        ),
        BenchCase(
            "batch_blocked_kernel",
            lambda: (graph, query_list, transition, transition_t),
            blocked_batch,
        ),
        BenchCase(
            "engine_batch_top_k",
            fresh_engine,
            lambda engine: engine.batch_top_k(query_list, k=k),
            fresh_state=True,
        ),
        BenchCase(
            "ranking_top_k",
            lambda: (scores_vector,),
            lambda scores: Ranking.from_scores(scores, query=0, k=k),
        ),
        BenchCase(
            "index_cold_load",
            lambda: (index_path(), query_list[0]),
            cold_load,
            fresh_state=True,
        ),
        BenchCase(
            "index_cold_rebuild",
            lambda: (graph, query_list[0]),
            cold_rebuild,
            fresh_state=True,
        ),
        BenchCase(
            "allpairs_iter_gsr",
            lambda: (small,),
            lambda g: simrank_star(g, 0.6, num_terms, dtype=dtype),
        ),
        BenchCase(
            "allpairs_exp_esr",
            lambda: (small,),
            lambda g: simrank_star_exponential(
                g, 0.6, num_terms, dtype=dtype
            ),
        ),
        BenchCase(
            "allpairs_memo_gsr",
            lambda: (small,),
            lambda g: memo_simrank_star_factorized(
                g, 0.6, num_terms, dtype=dtype
            ),
        ),
    ]


def run_suite(
    cases: list[BenchCase],
    tag: str,
    params: dict,
    warmup: int = 1,
    repeat: int = 3,
    progress: Callable[[str], None] | None = None,
) -> BenchRun:
    """Run every case and assemble a :class:`BenchRun`."""
    run = BenchRun(tag=tag, params=params, machine=machine_info())
    for case in cases:
        if progress is not None:
            progress(case.name)
        run.results[case.name] = run_case(
            case, warmup=warmup, repeat=repeat
        )
    return run


def compare_runs(
    current: dict,
    baseline: dict,
    threshold: float = 3.0,
    speedup_floor: float = 2.0,
    min_gate_seconds: float = 1e-3,
) -> tuple[bool, list[str]]:
    """Gate ``current`` (dict form) against a ``baseline`` document.

    Returns ``(ok, report_lines)``. Failures: a baseline case missing
    from the current run, a case slower than ``threshold x`` its
    baseline best time, or a gated derived speedup below
    ``speedup_floor``. Cases whose baseline best time is under
    ``min_gate_seconds`` are reported but never fail the absolute
    gate — at microsecond scale, scheduler jitter alone dwarfs any
    real regression, and the relative speedup floors still cover the
    hot paths. Worker-scaling speedups
    (``speedup_workers_<b>_vs_<a>``) are additionally gated only when
    the current run could use at least ``b`` CPUs — a process pinned
    to one core cannot exhibit 4-worker parallelism, and pretending its
    ratio is a regression would make the gate machine-*dependent*.
    """
    ok = True
    lines: list[str] = []
    base_results = baseline.get("results", {})
    cur_results = current.get("results", {})
    for name, base in sorted(base_results.items()):
        cur = cur_results.get(name)
        if cur is None:
            ok = False
            lines.append(f"FAIL {name}: missing from current run")
            continue
        base_t, cur_t = base["seconds_min"], cur["seconds_min"]
        ratio = cur_t / base_t if base_t > 0 else float("inf")
        gated = base_t >= min_gate_seconds
        status = "ok"
        if gated and ratio > threshold:
            ok = False
            status = "FAIL"
        note = "" if gated else ", not gated: sub-ms baseline"
        lines.append(
            f"{status} {name}: {cur_t * 1e3:.2f} ms vs baseline "
            f"{base_t * 1e3:.2f} ms ({ratio:.2f}x, limit "
            f"{threshold:.1f}x{note})"
        )
    cpu_count = current.get("machine", {}).get("cpu_count") or 0
    for key, value in sorted(current.get("derived", {}).items()):
        gated = key in GATED_SPEEDUPS
        floor_note = f" (floor {speedup_floor:.1f}x)" if gated else ""
        workers = _WORKER_SPEEDUP.match(key)
        if gated and workers and cpu_count < int(workers.group(1)):
            gated = False
            floor_note = (
                f" (not gated: needs >= {workers.group(1)} CPUs, "
                f"machine has {cpu_count})"
            )
        status = "ok"
        if gated and value < speedup_floor:
            ok = False
            status = "FAIL"
        lines.append(f"{status} {key}: {value:.2f}x{floor_note}")
    return ok, lines
