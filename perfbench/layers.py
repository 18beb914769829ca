"""Per-layer metrics and the blocking-path budget of a traced pass.

Inputs are the spans ``tracer.py`` recorded in the serving process, the
client's own record of every request (same monotonic clock: Linux
``perf_counter`` is ``CLOCK_MONOTONIC``, shared across processes), and
the counters the program exports through ``status()``.

A span's self time is its duration minus the part of it that its child
spans cover. A read's blocking path runs: service call -> broker wait
(submitted until its batch's compute starts) -> the batch's compute,
following at each level the child that finished last among those that
ran in parallel -> the rest of the broker's dispatch of that batch
(ranking spans in it are charged to ranking). A read that no batch
computed is charged to the result cache only for a lookup that moved
the cache's hit counter. On HTTP the front end's share is the client
latency minus the service call. Every other part of a read's latency,
and the whole of a read whose service call was not found, is
``unaccounted``; the traced run's gate bounds that bucket.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict

from common import p50, percentile, read_json

#: the per-layer metrics, in report order
PER_LAYER = {
    "http.self_ms_p50": "ms", "http.non_2xx": "count",
    "broker.batches": "count", "broker.mean_batch": "requests",
    "broker.wait_ms_p50": "ms", "broker.errors": "count",
    "broker.shed": "count", "broker.deadline_expired": "count",
    "cache.hits": "count", "cache.misses": "count",
    "cache.hit_rate": "fraction",
    "snapshot.mutate_ms_p50": "ms", "snapshot.delta_swaps": "count",
    "snapshot.full_swaps": "count", "snapshot.delta_fallbacks": "count",
    "index.apply_delta_ms_p50": "ms", "index.save_s": "s",
    "index.load_s": "s", "index.file_mb": "MB",
    "cluster.dispatch_ms_p50": "ms", "cluster.shard_ms_p50": "ms",
    "cluster.straggler_ratio": "ratio", "cluster.shard_retries": "count",
    "cluster.fallback_shards": "count",
    "engine.fresh_columns": "count", "engine.memo_hit_rate": "fraction",
    "engine.columns_ms_per_fresh": "ms", "engine.transition_build_s": "s",
    "core.kernel_ms_per_col": "ms", "core.backward_ms_per_col": "ms",
    "core.horner_ms_per_col": "ms", "core.gemm_ms_per_col": "ms",
    "core.madds_per_col": "count", "core.spmm_calls": "count",
    "ranking.from_scores_us_p50": "us",
    "approx.column_ms_p50": "ms", "approx.column_ms_p99": "ms",
    "approx.walk_build_s": "s", "approx.walk_index_mb": "MB",
    "approx.samples_drawn": "count", "approx.support_truncations": "count",
    "graph.read_s": "s", "graph.copy_s": "s",
    "graph.copy_with_edits_ms_p50": "ms",
    "runtime.gc_pause_ms": "ms", "runtime.gc_gen2": "count",
}

LAYER_OF = {
    "serve": "repro.serve.broker",
    "cache": "repro.serve.cache",
    "snapshot": "repro.serve.snapshot",
    "index": "repro.index",
    "cluster": "repro.cluster",
    "engine": "repro.engine",
    "core": "repro.core",
    "ranking": "repro.engine.results",
    "approx": "repro.approx",
    "graph": "repro.graph",
}
BATCH_ROOTS = ("cluster.dispatch", "engine.columns")
#: the part of read latency that no measured span explains
UNACCOUNTED = "unaccounted"
SERVICE_SPANS = {
    False: ("serve.top_k", "serve.score"),
    True: ("serve.top_k_sync", "serve.score_sync"),
}


class Span:
    __slots__ = ("id", "name", "thread", "start", "end", "parent", "info",
                 "children")

    def __init__(self, row) -> None:
        (self.id, self.name, self.thread, self.start, self.end,
         self.parent, self.info) = row
        self.children: list[Span] = []

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        if self.name == "core.spmm":
            return "repro.core spmm " + (
                "Q^T" if self.info.get("kind") == "backward" else "Q"
            )
        return LAYER_OF[self.name.split(".")[0]]


class Trace:
    def __init__(self, path) -> None:
        document = read_json(path)
        self.spans = [Span(row) for row in document["spans"]]
        self.gc = document["gc"]
        by_id = {s.id: s for s in self.spans}
        for span in self.spans:
            if span.parent is not None and span.parent in by_id:
                by_id[span.parent].children.append(span)

    def named(self, name: str, window=None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (window is None or _inside(s, window))
        ]

    def before(self, name: str, instant: float) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.end <= instant]


def _inside(span: Span, window) -> bool:
    return window[0] <= span.start and span.end <= window[1]


def self_time(span: Span) -> float:
    """Duration minus the union of the children's intervals."""
    covered, cursor = 0.0, span.start
    for child in sorted(span.children, key=lambda c: c.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.dur - covered


def blocking(span: Span, out: dict) -> None:
    """Add the self times along ``span``'s blocking path to ``out``.

    Children that overlap in time ran in parallel; only the one that
    finished last blocked the parent.
    """
    chosen, best, horizon = [], None, float("-inf")
    for child in sorted(span.children, key=lambda c: c.start):
        if best is None or child.start >= horizon:
            if best is not None:
                chosen.append(best)
            best, horizon = child, child.end
        else:
            horizon = max(horizon, child.end)
            if child.end > best.end:
                best = child
    if best is not None:
        chosen.append(best)
    out[span.layer] += span.dur - sum(c.dur for c in chosen)
    for child in chosen:
        blocking(child, out)


class _ByStart:
    """Spans sorted by start, searchable by time."""

    def __init__(self, spans) -> None:
        self.spans = sorted(spans, key=lambda s: s.start)
        self.starts = [s.start for s in self.spans]

    def within(self, lo: float, hi: float):
        for i in range(bisect_left(self.starts, lo), len(self.spans)):
            span = self.spans[i]
            if span.start > hi:
                return
            if span.end <= hi:
                yield span


def _match(spans: _ByStart, query, lo: float, hi: float):
    """The first span about ``query`` that lies inside [lo, hi]."""
    for span in spans.within(lo, hi):
        if query is None or span.info.get("q") == query:
            return span
    return None


def read_budget(trace: Trace, reads: list[dict], http: bool) -> dict:
    """Blocking-path self time per layer, summed over ``reads``.

    ``reads`` are the client's records of answered reads: ``q``,
    ``start``, ``end``. Returns totals in seconds (the ``unaccounted``
    key included), the matched count, the confirmed cache hits and the
    per-read broker waits.
    """
    service = _ByStart(
        s for s in trace.spans if s.name in SERVICE_SPANS[http]
    )
    batches = _ByStart(
        s for s in trace.spans
        if s.name in BATCH_ROOTS and s.parent is None
    )
    renders = _ByStart(
        s for s in trace.spans
        if s.name == "ranking.from_scores" and s.parent is None
    )
    dispatches = _ByStart(
        s for s in trace.spans if s.name == "serve.dispatch"
    )
    hits = _ByStart(
        s for s in trace.spans if s.name == "cache.get" and s.info["hit"]
    )
    totals: dict = defaultdict(float)
    waits, matched, cache_hits = [], 0, 0
    for read in reads:
        latency = read["end"] - read["start"]
        call = _match(service, read["q"], read["start"], read["end"])
        if call is None:
            totals[UNACCOUNTED] += latency
            continue
        matched += 1
        outside = latency - call.dur
        totals["repro.serve.http" if http else UNACCOUNTED] += outside
        batch = next(
            (b for b in batches.within(call.start, call.end)
             if read["q"] in b.info.get("qs", ())),
            None,
        )
        if batch is None:
            hit = _match(hits, read["q"], call.start, call.end)
            cached = 0.0 if hit is None else hit.dur
            cache_hits += hit is not None
            totals["repro.serve.cache"] += cached
            totals[UNACCOUNTED] += call.dur - cached
            continue
        wait = batch.start - call.start
        waits.append(wait)
        dispatch = next(
            (d for d in dispatches.within(call.start, call.end)
             if read["q"] in d.info["qs"] and d.start <= batch.start
             and batch.end <= d.end),
            None,
        )
        done = batch.end if dispatch is None else dispatch.end
        rendering = sum(r.dur for r in renders.within(batch.end, done))
        totals["repro.serve.broker"] += wait + done - batch.end - rendering
        totals["repro.engine.results"] += rendering
        totals[UNACCOUNTED] += call.end - done
        budget: dict = defaultdict(float)
        blocking(batch, budget)
        for layer, seconds in budget.items():
            totals[layer] += seconds
    return {"totals": dict(totals), "matched": matched,
            "cache_hits": cache_hits, "waits": waits}


def busy_table(trace: Trace, window) -> dict:
    """Self time per layer over every span inside ``window`` (seconds),
    request roots excluded; parallel shards each count in full."""
    table: dict = defaultdict(float)
    for span in trace.spans:
        if span.name.startswith("serve.") or not _inside(span, window):
            continue
        if span.name == "core.spmm":
            table[span.layer] += span.dur
        else:
            table[span.layer] += self_time(span)
    return dict(table)


def _delta(after: dict, before: dict, *keys) -> float:
    for key in keys:
        after, before = after[key], before[key]
    return after - before


def layer_metrics(trace: Trace, window, *, setup_end: float,
                  counters: tuple, http_ops: list[dict] | None = None,
                  reads: list[dict], mutation_trace: Trace | None = None,
                  mutation_window=None, mutation_counters=None,
                  restart_trace: Trace | None = None,
                  index_file_mb: float = 0.0) -> tuple[dict, dict]:
    """Every per-layer metric of one traced pass (0 where a layer did no
    work on this workload), and the pass's :func:`read_budget`."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    before, after = counters
    # -- HTTP front end ------------------------------------------------
    if http_ops is not None:
        names = {"top_k": "serve.top_k_sync", "score": "serve.score_sync",
                 "mutate": "serve.mutate"}
        spans = {
            kind: _ByStart(trace.named(name))
            for kind, name in names.items()
        }
        gaps = []
        for op in http_ops:
            call = _match(spans[op["kind"]], op.get("q"), op["start"],
                          op["end"])
            if call is not None:
                gaps.append(op["end"] - op["start"] - call.dur)
        m["http.self_ms_p50"] = p50(gaps) * 1e3
        m["http.non_2xx"] = sum(
            1 for op in http_ops if not 200 <= op["status"] < 300
        )
    # -- broker and result cache -------------------------------------
    batches = _delta(after, before, "broker", "batches")
    m["broker.batches"] = batches
    m["broker.mean_batch"] = (
        _delta(after, before, "broker", "dispatched") / batches
        if batches else 0.0
    )
    for key in ("errors", "shed", "deadline_expired"):
        m[f"broker.{key}"] = _delta(after, before, "broker", key)
    budget = read_budget(trace, [r for r in reads if r["ok"]],
                         http_ops is not None)
    m["broker.wait_ms_p50"] = p50(budget["waits"]) * 1e3
    if after["cache"] is not None:
        hits = _delta(after, before, "cache", "hits")
        misses = _delta(after, before, "cache", "misses")
        m["cache.hits"], m["cache.misses"] = hits, misses
        m["cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    # -- writes: snapshot swaps, delta index surgery ------------------
    w_trace = mutation_trace or trace
    w_window = mutation_window or window
    mutate = [s.dur for s in w_trace.named("snapshot.mutate", w_window)]
    m["snapshot.mutate_ms_p50"] = p50(mutate) * 1e3
    w_before, w_after = mutation_counters or counters
    m["snapshot.delta_swaps"] = _delta(w_after, w_before, "delta", "swaps")
    m["snapshot.full_swaps"] = _delta(w_after, w_before, "delta",
                                      "full_swaps")
    m["snapshot.delta_fallbacks"] = _delta(w_after, w_before, "delta",
                                           "fallbacks")
    m["index.apply_delta_ms_p50"] = p50(
        [s.dur for s in w_trace.named("index.apply_delta", w_window)]
    ) * 1e3
    m["graph.copy_with_edits_ms_p50"] = p50(
        [s.dur for s in w_trace.named("graph.copy_with_edits", w_window)]
    ) * 1e3
    # -- set-up and restart ---------------------------------------------
    def setup_total(name):
        return sum(s.dur for s in trace.before(name, setup_end))

    m["index.save_s"] = setup_total("index.save")
    m["engine.transition_build_s"] = setup_total("engine.build_transition")
    m["approx.walk_build_s"] = setup_total("approx.walk_build")
    m["graph.read_s"] = setup_total("graph.read")
    m["graph.copy_s"] = setup_total("graph.copy")
    if restart_trace is not None:
        m["index.load_s"] = sum(s.dur for s in restart_trace.named(
            "index.load"))
    m["index.file_mb"] = index_file_mb
    # -- cluster ----------------------------------------------------------
    dispatches = trace.named("cluster.dispatch", window)
    m["cluster.dispatch_ms_p50"] = p50([s.dur for s in dispatches]) * 1e3
    m["cluster.shard_ms_p50"] = p50(
        [s.dur for s in trace.named("cluster.shard", window)]
    ) * 1e3
    ratios = []
    for dispatch in dispatches:
        shards = [c.dur for c in dispatch.children
                  if c.name == "cluster.shard"]
        if len(shards) >= 2:
            ratios.append(max(shards) / (sum(shards) / len(shards)))
    m["cluster.straggler_ratio"] = (
        sum(ratios) / len(ratios) if ratios else 0.0
    )
    if after["cluster"] is not None:
        m["cluster.shard_retries"] = _delta(after, before, "cluster",
                                            "shard_retries")
        m["cluster.fallback_shards"] = _delta(after, before, "cluster",
                                              "fallbacks")
    # -- engine and kernel ------------------------------------------------
    columns = trace.named("engine.columns", window)
    fresh = sum(s.info.get("fresh", 0) for s in columns)
    hits = sum(s.info.get("hits", 0) for s in columns)
    m["engine.fresh_columns"] = fresh
    m["engine.memo_hit_rate"] = hits / (hits + fresh) if hits + fresh else 0.0
    m["engine.columns_ms_per_fresh"] = (
        sum(s.dur for s in columns if s.info.get("fresh")) / fresh * 1e3
        if fresh else 0.0
    )
    kernels = trace.named("core.multi_source", window)
    spmm = trace.named("core.spmm", window)
    cols = sum(s.info["cols"] for s in kernels)
    if cols:
        kernel_s = sum(s.dur for s in kernels)
        backward = sum(s.dur for s in spmm if s.info["kind"] == "backward")
        horner = sum(s.dur for s in spmm if s.info["kind"] == "horner")
        m["core.kernel_ms_per_col"] = kernel_s / cols * 1e3
        m["core.backward_ms_per_col"] = backward / cols * 1e3
        m["core.horner_ms_per_col"] = horner / cols * 1e3
        m["core.gemm_ms_per_col"] = (kernel_s - backward - horner) / cols * 1e3
        m["core.madds_per_col"] = sum(s.info["madds"] for s in spmm) / cols
    m["core.spmm_calls"] = len(spmm)
    m["ranking.from_scores_us_p50"] = p50(
        [s.dur for s in trace.named("ranking.from_scores", window)]
    ) * 1e6
    # -- approx tier ------------------------------------------------------
    approx = [s.dur for s in trace.named("approx.column", window)]
    if approx:
        m["approx.column_ms_p50"] = p50(approx) * 1e3
        m["approx.column_ms_p99"] = percentile(approx, 99) * 1e3
    if after["approx"] is not None:
        m["approx.walk_index_mb"] = after["approx"]["index_bytes"] / 2**20
        for key in ("samples_drawn", "support_truncations"):
            m[f"approx.{key}"] = _delta(after, before, "approx",
                                        "estimator", key)
    # -- interpreter --------------------------------------------------------
    pauses = [e for e in trace.gc if window[0] <= e[0] <= window[1]]
    m["runtime.gc_pause_ms"] = sum(e[1] for e in pauses) * 1e3
    m["runtime.gc_gen2"] = sum(1 for e in pauses if e[2] == 2)
    return m, budget
