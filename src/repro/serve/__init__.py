"""Async query serving: coalesce, cache, and hot-swap over the engine.

The paper's regime is preprocess-once / serve-many; :mod:`repro.engine`
holds the preprocess-once half and this package is the serve-many
half — the online layer that turns independently arriving requests
into the batched workloads the blocked kernel (PR 2) is fast at:

* :class:`QueryBroker` — an asyncio micro-batch coalescer: requests
  queue, the dispatcher collects up to ``max_batch`` of them (waiting
  at most ``max_wait_ms`` past the first), and one blocked
  multi-source call answers the whole batch.
* :class:`ResultCache` — a bounded LRU of rendered answers keyed on
  ``(snapshot, config, query)``; a graph mutation changes the key, so
  stale answers age out instead of being served.
* :class:`SnapshotManager` / :class:`Snapshot` — graph mutations
  build a fresh engine off to the side and atomically swap it in;
  in-flight batches finish on the snapshot they read (zero failed
  requests across a swap). With ``index_path`` set, replacement
  engines warm from a persisted :class:`~repro.index.SimilarityIndex`
  when its fingerprint matches, and freshly built precomputation is
  persisted back — restarts memory-map instead of rebuilding.
* :class:`ServingService` — the facade wiring the three together,
  usable async-natively or from sync threads via a private
  background event loop. ``ServingService(graph, workers=K)`` scales
  out: batches are sharded across a :mod:`repro.cluster` pool of
  worker threads sharing the snapshot's engine.
* :func:`serve_http` / :class:`SimilarityHTTPServer` — a stdlib
  HTTP/JSON front end; ``python -m repro.serve`` is the CLI
  (``serve`` / ``warmup`` / ``status`` / ``smoke`` / ``chaos``).
* :mod:`repro.serve.guard` — the overload-protection layer threaded
  through all of the above: bounded-admission load shedding
  (:class:`Overloaded` → HTTP 429), per-request deadlines
  (:class:`DeadlineExceeded` → HTTP 504) that also bound a kernel
  call that hangs, and blue-green :class:`Canary` snapshot swaps
  with automatic promote/rollback. The scripted chaos drill
  (``python -m repro.serve chaos``, :mod:`repro.serve.chaos`)
  injects real faults — a raising and a blocking engine call, a
  flood, a bad canary — and proves the stack sheds instead of
  collapsing.

Quick taste::

    async with ServingService(graph, measure="gSR*",
                              max_batch=32, max_wait_ms=2.0) as svc:
        rankings = await asyncio.gather(
            *(svc.top_k(q, k=10) for q in queries)
        )
        assert svc.broker.stats.largest_batch > 1  # they coalesced
"""

from repro.serve.broker import BrokerStats, QueryBroker
from repro.serve.cache import CacheStats, ResultCache
from repro.serve.guard import Canary, DeadlineExceeded, Overloaded
from repro.serve.http import (
    SimilarityHTTPServer,
    ranking_to_dict,
    serve_http,
)
from repro.serve.service import ServingService
from repro.serve.snapshot import Snapshot, SnapshotManager

__all__ = [
    "BrokerStats",
    "CacheStats",
    "Canary",
    "DeadlineExceeded",
    "Overloaded",
    "QueryBroker",
    "ResultCache",
    "ServingService",
    "SimilarityHTTPServer",
    "Snapshot",
    "SnapshotManager",
    "ranking_to_dict",
    "serve_http",
]
