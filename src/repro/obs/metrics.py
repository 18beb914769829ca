"""Zero-dependency metrics: counters, gauges, histograms, Prometheus text.

One :class:`MetricsRegistry` per process is the unit of exposition.
Three metric families cover the serving stack:

* :class:`Counter` — a monotonically increasing float, optionally
  labelled (``requests_total{kind="top_k"}``).
* :class:`Gauge` — a value that can go up and down (queue depth,
  chain depth, uptime).
* :class:`Histogram` — fixed-bucket latency/size distribution with
  cumulative ``_bucket{le=...}`` counts plus ``_sum`` / ``_count``.

:class:`LatencyStats` summarises a finished run's latencies instead
(percentiles and a log-bucketed histogram) for the smoke and chaos
reports and the cluster bench.

Two design points matter at serving rates:

* **Allocation-light hot path.** ``inc()`` / ``observe()`` are a
  lock, a float add, and (for histograms) one ``bisect`` — no string
  formatting, no dict churn. Label children are created once and
  cached; the text rendering cost is paid only at scrape time.
* **Pull-time collection.** Most serving counters already live in
  stats objects (:class:`~repro.serve.broker.BrokerStats`,
  :class:`~repro.engine.engine.EngineStats`, ...). Registering a
  *callback* metric (:meth:`MetricsRegistry.counter_fn` /
  :meth:`~MetricsRegistry.gauge_fn`) reads those on scrape instead of
  double-counting on the hot path.

>>> from repro.obs import MetricsRegistry
>>> registry = MetricsRegistry()
>>> requests = registry.counter(
...     "demo_requests_total", "Requests served.", labelnames=("kind",))
>>> requests.labels(kind="top_k").inc()
>>> requests.labels(kind="top_k").inc(2.0)
>>> print(registry.render(), end="")
# HELP demo_requests_total Requests served.
# TYPE demo_requests_total counter
demo_requests_total{kind="top_k"} 3.0
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "LatencyStats",
    "MetricsRegistry",
]

#: Default latency buckets in **seconds**, spanning sub-millisecond
#: kernel walks to multi-second swap builds (then ``+Inf``).
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Upper edges (ms) of :class:`LatencyStats`' log-spaced buckets; the
#: final implicit bucket is "slower than the last edge".
LATENCY_BUCKETS_MS = (
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
    128.0, 256.0, 512.0, 1024.0,
)

_NAME_OK = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(
        ch not in _NAME_OK for ch in name
    ):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


class _Child:
    """One labelled series of a :class:`Counter` or :class:`Gauge`."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def get(self) -> float:
        with self._lock:
            return self.value


class _Metric:
    """Shared plumbing: name, help text, cached label children."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
    ) -> None:
        self.name = _check_name(name)
        self.help = str(help_text)
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            _check_name(label)
        self._children: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def _child_factory(self):
        return _Child()

    def labels(self, **labels: str):
        """The child series for one label combination (cached)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        try:
            return self._children[key]
        except KeyError:
            with self._lock:
                return self._children.setdefault(
                    key, self._child_factory()
                )

    def _default_child(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labelled; use .labels(...)"
            )
        return self.labels()

    def _series(self) -> list[tuple[dict, object]]:
        with self._lock:
            items = list(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child)
            for key, child in items
        ]

    def samples(self) -> list[tuple[str, dict, float]]:
        """``(suffix, labels, value)`` rows for rendering/snapshots."""
        return [
            ("", labels, child.get())
            for labels, child in self._series()
        ]


class Counter(_Metric):
    """A monotonically increasing value.

    >>> from repro.obs.metrics import Counter
    >>> swaps = Counter("swaps_total", "Completed snapshot swaps.")
    >>> swaps.inc(); swaps.inc()
    >>> swaps.samples()
    [('', {}, 2.0)]
    """

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._default_child().inc(amount)


class Gauge(_Metric):
    """A value that can go up and down.

    >>> from repro.obs.metrics import Gauge
    >>> depth = Gauge("queue_depth", "Requests waiting.")
    >>> depth.set(7); depth.samples()
    [('', {}, 7.0)]
    """

    kind = "gauge"

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)


class _HistogramChild:
    __slots__ = ("_lock", "buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last = +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1

    def get(self):  # parity with _Child for _series()
        with self._lock:
            return list(self.counts), self.total, self.count


class Histogram(_Metric):
    """Fixed-bucket distribution with Prometheus cumulative buckets.

    Bucket bounds are upper edges in ascending order; an implicit
    ``+Inf`` bucket is always appended. ``observe`` costs one binary
    search plus three adds under a lock.

    >>> from repro.obs.metrics import Histogram
    >>> h = Histogram("wait_seconds", "Coalesce wait.",
    ...               buckets=(0.001, 0.01, 0.1))
    >>> h.observe(0.004); h.observe(0.05); h.observe(2.0)
    >>> [(s, v) for s, labels, v in h.samples() if s == "_count"]
    [('_count', 3.0)]
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                "buckets must be non-empty, ascending, distinct"
            )
        self.buckets = bounds

    def _child_factory(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def samples(self) -> list[tuple[str, dict, float]]:
        rows: list[tuple[str, dict, float]] = []
        for labels, child in self._series():
            counts, total, count = child.get()
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                rows.append(
                    ("_bucket",
                     dict(labels, le=_format_value(bound)),
                     float(cumulative))
                )
            rows.append(
                ("_bucket", dict(labels, le="+Inf"), float(count))
            )
            rows.append(("_sum", dict(labels), float(total)))
            rows.append(("_count", dict(labels), float(count)))
        return rows


@dataclass(frozen=True)
class LatencyStats:
    """Percentiles and a log-bucketed histogram of request latencies.

    >>> from repro.obs import LatencyStats
    >>> stats = LatencyStats.from_seconds([0.001, 0.002, 0.004, 0.1])
    >>> stats.count, stats.max_ms
    (4, 100.0)
    >>> stats.histogram["<2ms"], stats.histogram["<128ms"]
    (1, 1)
    """

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    histogram: dict

    @classmethod
    def from_seconds(cls, seconds: Sequence[float]) -> "LatencyStats":
        if not len(seconds):
            raise ValueError("no latency samples")
        ms = np.asarray(seconds, dtype=np.float64) * 1e3
        edges = np.asarray(LATENCY_BUCKETS_MS)
        counts = np.histogram(
            ms, bins=np.concatenate(([0.0], edges, [np.inf]))
        )[0]
        # numpy bins are half-open [a, b): label them accordingly
        histogram = {
            f"<{edge:g}ms": int(counts[i])
            for i, edge in enumerate(edges)
        }
        histogram[f">={edges[-1]:g}ms"] = int(counts[-1])
        return cls(
            count=int(ms.size),
            mean_ms=float(ms.mean()),
            p50_ms=float(np.percentile(ms, 50)),
            p95_ms=float(np.percentile(ms, 95)),
            p99_ms=float(np.percentile(ms, 99)),
            max_ms=float(ms.max()),
            histogram=histogram,
        )

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class _CallbackMetric:
    """A metric whose samples are read from a callable at scrape time.

    The callable returns either a plain number (one unlabelled
    sample) or an iterable of ``(labels_dict, value)`` pairs. A
    callback that raises contributes no samples for that scrape —
    scraping must never take the server down.
    """

    def __init__(
        self, name: str, help_text: str, kind: str, fn: Callable
    ) -> None:
        self.name = _check_name(name)
        self.help = str(help_text)
        self.kind = kind
        self.fn = fn

    def samples(self) -> list[tuple[str, dict, float]]:
        try:
            value = self.fn()
        except Exception:  # pragma: no cover - defensive by contract
            return []
        if isinstance(value, (int, float)):
            return [("", {}, float(value))]
        return [
            ("", dict(labels), float(sample))
            for labels, sample in value
        ]


class MetricsRegistry:
    """The per-process metric namespace and its text exposition.

    Examples
    --------
    Callback metrics read existing stats objects at scrape time:

    >>> from repro.obs import MetricsRegistry
    >>> registry = MetricsRegistry()
    >>> stats = {"served": 5}
    >>> _ = registry.counter_fn(
    ...     "served_total", "Requests served.",
    ...     lambda: stats["served"])
    >>> "served_total 5.0" in registry.render()
    True
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _register(self, metric):
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(
                    f"metric {metric.name!r} already registered"
                )
            self._metrics[metric.name] = metric
        return metric

    def counter(
        self, name: str, help_text: str,
        labelnames: Sequence[str] = (),
    ) -> Counter:
        """Register and return a hot-path :class:`Counter`."""
        return self._register(Counter(name, help_text, labelnames))

    def gauge(
        self, name: str, help_text: str,
        labelnames: Sequence[str] = (),
    ) -> Gauge:
        """Register and return a :class:`Gauge`."""
        return self._register(Gauge(name, help_text, labelnames))

    def histogram(
        self, name: str, help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Register and return a fixed-bucket :class:`Histogram`."""
        return self._register(
            Histogram(name, help_text, labelnames, buckets)
        )

    def counter_fn(
        self, name: str, help_text: str, fn: Callable
    ) -> None:
        """A counter-typed series read from ``fn`` at scrape time."""
        self._register(_CallbackMetric(name, help_text, "counter", fn))

    def gauge_fn(
        self, name: str, help_text: str, fn: Callable
    ) -> None:
        """A gauge-typed series read from ``fn`` at scrape time."""
        self._register(_CallbackMetric(name, help_text, "gauge", fn))

    def sample_value(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> float | None:
        """One rendered sample's value (scrape-side test helper)."""
        want = dict(labels or {})
        for metric_name, kind, help_text, rows in self._collect():
            for suffix, sample_labels, value in rows:
                if metric_name + suffix == name and (
                    sample_labels == want
                ):
                    return value
        return None

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def _collect(self):
        """``(name, kind, help, samples)`` per registered metric."""
        with self._lock:
            metrics = list(self._metrics.values())
        return [(m.name, m.kind, m.help, m.samples()) for m in metrics]

    def render(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for name, kind, help_text, rows in self._collect():
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for suffix, labels, value in rows:
                lines.append(
                    f"{name}{suffix}{_render_labels(labels)} "
                    f"{_format_value(value)}"
                )
        return "\n".join(lines) + "\n" if lines else ""
