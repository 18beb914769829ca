"""Request tracing: per-request span timelines and the slow-query log.

A :class:`Trace` is one request's timeline: a short hex id plus a list
of :class:`Span` rows (``coalesce`` — time spent waiting for the
micro-batch to fill, ``dispatch``/``shard`` — router fan-out across
worker threads, ``compute`` — the blocked kernel walk and ranking,
``render`` — caching and resolving the answer). Spans are plain ``__slots__`` rows; recording
one is an attribute store and a list append, cheap enough for every
request on the hot path.

The :class:`Tracer` owns the knobs: it hands out traces (or ``None``
when tracing is disabled — callers guard with ``if trace is not
None``), keeps a bounded in-memory ring of recently finished traces
(``last()``, for tests and debugging), and feeds every trace slower
than ``slow_query_ms`` to the :class:`SlowQueryLog` — a bounded,
size-rotated JSON-lines file (or memory-only ring when no path is
configured) whose entries are one self-contained JSON object per line.

>>> from repro.obs import Tracer
>>> tracer = Tracer(slow_query_ms=0.0)   # everything is "slow"
>>> trace = tracer.start("top_k")
>>> with trace.span("compute", batch=4):
...     pass
>>> tracer.finish(trace)
>>> entry = tracer.slow_log.entries()[-1]
>>> entry["kind"], entry["spans"][0]["name"]
('top_k', 'compute')
"""

from __future__ import annotations

import json
import os
import secrets
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path

__all__ = ["SlowQueryLog", "Span", "Trace", "Tracer"]


class Span:
    """One named stage of a trace, in milliseconds since trace start.

    >>> from repro.obs import Span
    >>> span = Span("compute", 1.5, 20.0, {"batch": 8})
    >>> span.to_dict()["name"]
    'compute'
    """

    __slots__ = ("name", "start_ms", "duration_ms", "meta")

    def __init__(
        self,
        name: str,
        start_ms: float,
        duration_ms: float,
        meta: dict | None = None,
    ) -> None:
        self.name = name
        self.start_ms = start_ms
        self.duration_ms = duration_ms
        self.meta = meta

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "start_ms": round(self.start_ms, 3),
            "duration_ms": round(self.duration_ms, 3),
        }
        if self.meta:
            out.update(self.meta)
        return out

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, +{self.start_ms:.2f}ms, "
            f"{self.duration_ms:.2f}ms)"
        )


class Trace:
    """One request's id + span timeline.

    >>> from repro.obs import Trace
    >>> trace = Trace("deadbeefcafef00d", "score")
    >>> trace.add_span("render", 0.002)
    >>> trace.span_names()
    ['render']
    """

    __slots__ = ("trace_id", "kind", "started", "spans", "status")

    def __init__(self, trace_id: str, kind: str) -> None:
        self.trace_id = trace_id
        self.kind = kind
        self.started = time.perf_counter()
        self.spans: list[Span] = []
        self.status = "ok"

    def elapsed_ms(self) -> float:
        return (time.perf_counter() - self.started) * 1e3

    def add_span(
        self,
        name: str,
        duration_s: float,
        start_s: float | None = None,
        **meta,
    ) -> None:
        """Record a stage measured elsewhere (``duration_s`` seconds).

        ``start_s`` is the stage's absolute ``perf_counter`` start;
        when omitted the stage is assumed to end *now*.
        """
        if start_s is None:
            start_s = time.perf_counter() - duration_s
        self.spans.append(
            Span(
                name,
                (start_s - self.started) * 1e3,
                duration_s * 1e3,
                meta or None,
            )
        )

    @contextmanager
    def span(self, name: str, **meta):
        """Context manager timing one stage inline."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.add_span(
                name, time.perf_counter() - t0, start_s=t0, **meta
            )

    def span_names(self) -> list[str]:
        return [span.name for span in self.spans]

    def to_dict(self) -> dict:
        """The JSON shape written to the slow-query log."""
        return {
            "trace_id": self.trace_id,
            "kind": self.kind,
            "status": self.status,
            "duration_ms": round(self.elapsed_ms(), 3),
            "spans": [span.to_dict() for span in self.spans],
        }

    def __repr__(self) -> str:
        return (
            f"Trace({self.trace_id!r}, kind={self.kind!r}, "
            f"spans={self.span_names()})"
        )


class SlowQueryLog:
    """Bounded JSON-lines log of slow-request traces.

    Always keeps the last ``max_entries`` entries in memory
    (:meth:`entries`). With a ``path`` configured, each entry is also
    appended as one JSON object per line; when the file grows past
    ``max_bytes`` it is rotated once to ``<path>.1`` (the previous
    ``.1`` is replaced), so on-disk usage is bounded by roughly
    ``2 * max_bytes`` no matter how long the server runs.

    >>> from repro.obs import SlowQueryLog
    >>> log = SlowQueryLog(max_entries=2)
    >>> for n in range(3):
    ...     log.write({"trace_id": f"t{n}", "duration_ms": 9.0})
    >>> [e["trace_id"] for e in log.entries()]   # bounded ring
    ['t1', 't2']
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        max_entries: int = 256,
        max_bytes: int = 1_000_000,
    ) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.path = Path(path) if path is not None else None
        self.max_bytes = int(max_bytes)
        self._ring: deque[dict] = deque(maxlen=int(max_entries))
        self._lock = threading.Lock()
        self.written = 0
        self.rotations = 0

    def write(self, entry: dict) -> None:
        """Append one entry (adds a wall-clock ``ts`` when absent)."""
        entry = dict(entry)
        entry.setdefault("ts", round(time.time(), 3))
        line = json.dumps(entry, separators=(",", ":"))
        with self._lock:
            self._ring.append(entry)
            self.written += 1
            if self.path is None:
                return
            try:
                if (
                    self.path.exists()
                    and self.path.stat().st_size + len(line) + 1
                    > self.max_bytes
                ):
                    os.replace(
                        self.path,
                        self.path.with_name(self.path.name + ".1"),
                    )
                    self.rotations += 1
                with self.path.open("a") as handle:
                    handle.write(line + "\n")
            except OSError:
                # logging must never fail a request; the in-memory
                # ring still has the entry
                pass

    def entries(self) -> list[dict]:
        """The in-memory ring, oldest first."""
        with self._lock:
            return list(self._ring)

    def describe(self) -> dict:
        """JSON-ready counters for ``/status``."""
        with self._lock:
            return {
                "path": str(self.path) if self.path else None,
                "entries": len(self._ring),
                "written": self.written,
                "rotations": self.rotations,
                "max_bytes": self.max_bytes,
            }


class Tracer:
    """Hands out traces and routes finished ones to the slow log.

    Parameters
    ----------
    slow_query_ms:
        Finished traces at or above this total duration are written
        to the slow-query log. ``None`` disables the log (traces are
        still recorded in the recent-trace ring).
    slow_query_log:
        Optional :class:`SlowQueryLog` (defaults to a memory-only
        one).
    capacity:
        Size of the recent-trace ring returned by :meth:`last`.

    >>> from repro.obs import Tracer
    >>> tracer = Tracer(slow_query_ms=None)
    >>> trace = tracer.start("top_k")
    >>> tracer.finish(trace)
    >>> tracer.last()[-1].trace_id == trace.trace_id
    True
    """

    def __init__(
        self,
        slow_query_ms: float | None = 250.0,
        slow_query_log: SlowQueryLog | None = None,
        capacity: int = 64,
    ) -> None:
        self.slow_query_ms = slow_query_ms
        self.slow_log = slow_query_log or SlowQueryLog()
        self._recent: deque[Trace] = deque(maxlen=int(capacity))
        self._lock = threading.Lock()
        self.traces_started = 0
        self.slow_queries = 0

    def start(self, kind: str) -> Trace:
        """A fresh trace with a random 16-hex-digit id."""
        with self._lock:
            self.traces_started += 1
        return Trace(secrets.token_hex(8), kind)

    def finish(self, trace: Trace, status: str = "ok") -> None:
        """Close a trace: ring it, and log it when slow (or failed)."""
        trace.status = status
        duration_ms = trace.elapsed_ms()
        with self._lock:
            self._recent.append(trace)
        if self.slow_query_ms is not None and (
            duration_ms >= self.slow_query_ms or status != "ok"
        ):
            with self._lock:
                self.slow_queries += 1
            entry = trace.to_dict()
            entry["duration_ms"] = round(duration_ms, 3)
            entry["slow_query_ms"] = self.slow_query_ms
            self.slow_log.write(entry)

    def last(self) -> list[Trace]:
        """Recently finished traces, oldest first."""
        with self._lock:
            return list(self._recent)

    def describe(self) -> dict:
        """JSON-ready counters for ``/status``."""
        with self._lock:
            return {
                "traces_started": self.traces_started,
                "slow_queries": self.slow_queries,
                "slow_query_ms": self.slow_query_ms,
                "slow_log": self.slow_log.describe(),
            }
