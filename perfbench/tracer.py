"""Spans recorded from outside the program, around calls into each layer.

:func:`install` replaces each traced function under the name its caller
actually looks up (a module global, a module alias or a class
attribute) with a wrapper that records one span: name, start, end,
parent and a few facts about the call. Spans stay in memory and are
written out once, by :meth:`Tracer.dump`, when the process ends.

Parents are the enclosing span on the same thread. Two cases need more:
coroutines interleave on one thread, so async spans are recorded as
roots; and the router runs each shard on a pool thread, so a shard's
parent is the router dispatch in progress (the broker dispatches one
batch at a time).
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import json
import threading
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.gc_events: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.dispatch_span: int | None = None
        self._gc_start = 0.0

    # -- span stack -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, span_id, name, start, end, parent, info) -> None:
        row = [span_id, name, threading.get_ident(), start, end, parent,
               info]
        with self._lock:
            self.spans.append(row)

    def wrap_sync(self, fn, name, describe=None, cross_thread=False,
                  publishes=False):
        """Wrap ``fn``; ``publishes`` makes the span the parent of
        ``cross_thread`` spans that start on other threads meanwhile."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None
            if parent is None and cross_thread:
                parent = tracer.dispatch_span
            span_id = next(tracer._ids)
            context = describe(args, kwargs) if describe else {}
            stack.append((span_id, context))
            if publishes:
                tracer.dispatch_span = span_id
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if publishes:
                    tracer.dispatch_span = None
                if "after" in context:
                    context.update(context.pop("after")())
                # the kernel's Q^T is only needed while its spmm calls run
                context.pop("qt", None)
                tracer.record(span_id, name, start, end, parent, context)

        return wrapper

    def wrap_async(self, fn, name, describe=None):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id = next(tracer._ids)
            context = describe(args, kwargs) if describe else {}
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.record(
                    span_id, name, start, perf_counter(), None, context
                )

        return wrapper

    # -- garbage collector pauses ---------------------------------------
    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_events.append(
                [self._gc_start, perf_counter() - self._gc_start,
                 info["generation"]]
            )

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def dump(self, path) -> None:
        with self._lock:
            document = {"spans": self.spans, "gc": self.gc_events}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)


# -- what each wrapper records about its call ---------------------------
def _query(position):
    def describe(args, kwargs):
        return {"q": _as_int(args[position])}
    return describe


def _as_int(value):
    try:
        return int(value)
    except (TypeError, ValueError):
        return str(value)


def _batch_info(args, kwargs):
    return {"qs": [_as_int(request.node) for request in args[1]]}


def _dispatch_info(args, kwargs):
    tasks = args[2] if len(args) > 2 else kwargs["tasks"]
    return {"qs": [_as_int(t["query"]) for t in tasks]}


def _columns_info(args, kwargs):
    engine, queries = args[0], args[1]
    before = (engine.stats.hits, engine.stats.misses)

    def after():
        return {
            "hits": engine.stats.hits - before[0],
            "fresh": engine.stats.misses - before[1],
        }

    return {"qs": [_as_int(q) for q in queries], "after": after}


def _cache_info(args, kwargs):
    """Which read the lookup serves, and whether the cache's own hit
    counter moved (the loop thread is the only caller)."""
    cache, key = args[0], args[1]
    before = cache.stats.hits
    return {
        "q": _as_int(key[4]),
        "after": lambda: {"hit": cache.stats.hits > before},
    }


def _kernel_info(args, kwargs):
    return {"cols": len(args[1]), "qt": kwargs.get("transition_t")}


def _spmm_info(tracer):
    def describe(args, kwargs):
        matrix, dense = args[0], args[1]
        stack = tracer._stack()
        qt = stack[-1][1].get("qt") if stack else None
        return {
            "kind": "backward" if matrix is qt else "horner",
            "madds": int(matrix.nnz) * int(dense.shape[1]),
        }
    return describe


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function; call once per process."""
    service = importlib.import_module("repro.serve.service")
    snapshot = importlib.import_module("repro.serve.snapshot")
    cache = importlib.import_module("repro.serve.cache")
    broker = importlib.import_module("repro.serve.broker")
    engine_mod = importlib.import_module("repro.engine.engine")
    kernel_mod = importlib.import_module("repro.core.multi_source")
    results = importlib.import_module("repro.engine.results")
    graph_io = importlib.import_module("repro.graph.io")
    digraph = importlib.import_module("repro.graph.digraph")
    artifacts = importlib.import_module("repro.index.artifacts")
    router = importlib.import_module("repro.cluster.router")
    thread_pool = importlib.import_module("repro.cluster.thread_pool")
    estimator = importlib.import_module("repro.approx.estimator")
    walks = importlib.import_module("repro.approx.walks")

    Service = service.ServingService
    Service.top_k = tracer.wrap_async(Service.top_k, "serve.top_k", _query(1))
    Service.score = tracer.wrap_async(Service.score, "serve.score", _query(2))
    Service.top_k_sync = tracer.wrap_sync(
        Service.top_k_sync, "serve.top_k_sync", _query(1))
    Service.score_sync = tracer.wrap_sync(
        Service.score_sync, "serve.score_sync", _query(2))
    Service.mutate = tracer.wrap_sync(Service.mutate, "serve.mutate")
    cache.ResultCache.get = tracer.wrap_sync(
        cache.ResultCache.get, "cache.get", _cache_info)
    Broker = broker.QueryBroker
    Broker._dispatch = tracer.wrap_async(
        Broker._dispatch, "serve.dispatch", _batch_info)
    snapshot.SnapshotManager.mutate = tracer.wrap_sync(
        snapshot.SnapshotManager.mutate, "snapshot.mutate")
    # the snapshot manager calls the name it imported, not the module's
    snapshot.apply_delta = tracer.wrap_sync(
        snapshot.apply_delta, "index.apply_delta")
    Index = artifacts.SimilarityIndex
    Index.save = tracer.wrap_sync(Index.save, "index.save")
    load = Index.load.__func__
    Index.load = classmethod(tracer.wrap_sync(load, "index.load"))

    Router = router.ShardRouter
    Router.compute_tasks = tracer.wrap_sync(
        Router.compute_tasks, "cluster.dispatch", _dispatch_info,
        publishes=True)
    Pool = thread_pool.ThreadWorkerPool
    Pool.shard_tasks = tracer.wrap_sync(
        Pool.shard_tasks, "cluster.shard", cross_thread=True)

    Engine = engine_mod.SimilarityEngine
    Engine.columns = tracer.wrap_sync(
        Engine.columns, "engine.columns", _columns_info)
    engine_mod.build_transition = tracer.wrap_sync(
        engine_mod.build_transition, "engine.build_transition")
    # the engine reaches the kernel through its module alias, and the
    # kernel reaches spmm through its own module global
    engine_mod._series_block = tracer.wrap_sync(
        engine_mod._series_block, "core.multi_source", _kernel_info)
    kernel_mod.spmm = tracer.wrap_sync(
        kernel_mod.spmm, "core.spmm", _spmm_info(tracer))

    Ranking = results.Ranking
    from_scores = Ranking.from_scores.__func__
    Ranking.from_scores = classmethod(
        tracer.wrap_sync(from_scores, "ranking.from_scores"))
    Estimator = estimator.ApproxEstimator
    Estimator.column = tracer.wrap_sync(Estimator.column, "approx.column")
    build = walks.WalkIndex.build.__func__
    walks.WalkIndex.build = classmethod(
        tracer.wrap_sync(build, "approx.walk_build"))

    graph_io.read_edge_list = tracer.wrap_sync(
        graph_io.read_edge_list, "graph.read")
    Graph = digraph.DiGraph
    Graph.copy = tracer.wrap_sync(Graph.copy, "graph.copy")
    Graph.copy_with_edits = tracer.wrap_sync(
        Graph.copy_with_edits, "graph.copy_with_edits")
    tracer.watch_gc()
