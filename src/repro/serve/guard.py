"""`repro.serve.guard` — admission control and resilience primitives.

The serving stack's overload story lives here, as small,
independently testable pieces that the broker and the serving
service thread through their hot paths:

* :class:`Overloaded` / :class:`DeadlineExceeded` — the two explicit
  "no answer, by design" results. Every request submitted to the
  broker ends in exactly one of {answer, ``Overloaded``,
  ``DeadlineExceeded``, error} — nothing is ever silently dropped.
  A deadline also bounds a kernel call that hangs: the broker waits
  on a batch no longer than its earliest live deadline.
* :class:`Canary` — the decision state of one blue-green snapshot
  swap: a deterministic traffic splitter, per-side error / latency
  reservoirs, and a single-shot promote-or-rollback verdict driven
  by the observed error-rate and p95 deltas.
"""

from __future__ import annotations

import threading

__all__ = ["Canary", "DeadlineExceeded", "Overloaded"]


class Overloaded(RuntimeError):
    """The admission queue is full; the request was shed, not queued.

    Carries ``retry_after`` (seconds, derived from the broker's
    observed batch latency and current backlog) which the HTTP layer
    surfaces as ``429`` + a ``Retry-After`` header.

    >>> from repro.serve.guard import Overloaded
    >>> exc = Overloaded("queue full (depth 64)", retry_after=0.25)
    >>> exc.retry_after
    0.25
    >>> raise exc
    Traceback (most recent call last):
        ...
    repro.serve.guard.Overloaded: queue full (depth 64)
    """

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class DeadlineExceeded(RuntimeError):
    """A request's deadline expired before its answer was rendered.

    An expired member of a micro-batch is answered with this error
    *without* poisoning the batch: its healthy peers still compute
    and render normally. Surfaced as HTTP ``504``.

    >>> from repro.serve.guard import DeadlineExceeded
    >>> raise DeadlineExceeded("deadline of 5.0ms exceeded")
    Traceback (most recent call last):
        ...
    repro.serve.guard.DeadlineExceeded: deadline of 5.0ms exceeded
    """


class Canary:
    """Decision state of one blue-green snapshot swap.

    ``blue`` keeps serving while a configurable ``fraction`` of
    traffic is shifted to ``green`` via a deterministic accumulator
    (exactly ``fraction`` of :meth:`choose` calls return green — no
    RNG, so drills are reproducible). Each answered request is
    recorded per side; once green has ``min_requests`` observations,
    :meth:`decide` compares green's error rate and p95 latency
    against blue's and returns ``"rollback"`` when either delta
    exceeds its threshold, ``"promote"`` otherwise.
    :meth:`finalize` is single-shot: the first caller runs the
    promote / rollback callback, every later call is a no-op.

    >>> from repro.serve.guard import Canary
    >>> c = Canary("old-snap", "new-snap", fraction=0.25,
    ...            min_requests=4)
    >>> [c.choose() for _ in range(8)]
    ['green', 'blue', 'blue', 'green', 'blue', 'blue', 'blue', 'green']
    >>> for _ in range(4): c.record("green", True, 0.010)
    >>> for _ in range(4): c.record("blue", True, 0.010)
    >>> c.decide()
    'promote'
    >>> bad = Canary("old-snap", "new-snap", fraction=0.5,
    ...              min_requests=4, max_error_delta=0.10)
    >>> for _ in range(4): bad.record("green", False, 0.010)
    >>> for _ in range(4): bad.record("blue", True, 0.010)
    >>> bad.decide()
    'rollback'
    """

    #: per-side latency reservoir size (newest samples win)
    RESERVOIR = 512

    def __init__(
        self,
        blue,
        green,
        *,
        fraction: float = 0.1,
        min_requests: int = 20,
        max_error_delta: float = 0.10,
        max_p95_ratio: float = 3.0,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(
                f"fraction must be in (0, 1], got {fraction}"
            )
        self.blue = blue
        self.green = green
        self.fraction = float(fraction)
        self.min_requests = int(min_requests)
        self.max_error_delta = float(max_error_delta)
        self.max_p95_ratio = float(max_p95_ratio)
        #: finalize callbacks, set by the owner (the serving service):
        #: run exactly once, by whichever caller wins :meth:`finalize`
        self.on_promote = None
        self.on_rollback = None
        self.outcome: str | None = None
        self._acc = 1.0  # first green arrives after 1/fraction picks
        self._lock = threading.Lock()
        self._counts = {
            "blue": {"ok": 0, "errors": 0},
            "green": {"ok": 0, "errors": 0},
        }
        self._latencies = {"blue": [], "green": []}

    def choose(self) -> str:
        """Pick the side for the next batch: ``'blue'`` / ``'green'``."""
        with self._lock:
            if self.outcome is not None:
                return "blue" if self.outcome == "rollback" else "green"
            self._acc += self.fraction
            if self._acc >= 1.0:
                self._acc -= 1.0
                return "green"
            return "blue"

    def record(self, side: str, ok: bool, latency_s: float) -> None:
        """Account one answered request to ``side``."""
        with self._lock:
            counts = self._counts[side]
            if ok:
                counts["ok"] += 1
            else:
                counts["errors"] += 1
            reservoir = self._latencies[side]
            reservoir.append(float(latency_s))
            if len(reservoir) > self.RESERVOIR:
                del reservoir[: -self.RESERVOIR]

    def error_rate(self, side: str) -> float:
        """Observed error fraction of ``side`` (0.0 when unseen)."""
        with self._lock:
            counts = self._counts[side]
            total = counts["ok"] + counts["errors"]
            return counts["errors"] / total if total else 0.0

    def p95(self, side: str) -> float:
        """Observed p95 latency of ``side`` in seconds (0.0 unseen)."""
        with self._lock:
            reservoir = sorted(self._latencies[side])
            if not reservoir:
                return 0.0
            rank = max(0, int(0.95 * len(reservoir)) - 1)
            return reservoir[min(rank, len(reservoir) - 1)]

    def decide(self) -> str | None:
        """``'promote'`` / ``'rollback'`` once conclusive, else None."""
        with self._lock:
            if self.outcome is not None:
                return None
            counts = self._counts["green"]
            seen = counts["ok"] + counts["errors"]
            if seen < self.min_requests:
                return None
        green_err = self.error_rate("green")
        blue_err = self.error_rate("blue")
        if green_err - blue_err > self.max_error_delta:
            return "rollback"
        blue_p95 = self.p95("blue")
        green_p95 = self.p95("green")
        if (
            blue_p95 > 0.0
            and green_p95 > blue_p95 * self.max_p95_ratio
        ):
            return "rollback"
        return "promote"

    def finalize(self, outcome: str) -> bool:
        """Commit the verdict once; returns False for late callers."""
        if outcome not in ("promote", "rollback"):
            raise ValueError(f"unknown canary outcome {outcome!r}")
        with self._lock:
            if self.outcome is not None:
                return False
            self.outcome = outcome
            return True

    def describe(self) -> dict:
        """Status snapshot for ``/status`` and ``serve status``."""
        with self._lock:
            counts = {
                side: dict(c) for side, c in self._counts.items()
            }
            outcome = self.outcome
        return {
            "fraction": self.fraction,
            "min_requests": self.min_requests,
            "max_error_delta": self.max_error_delta,
            "max_p95_ratio": self.max_p95_ratio,
            "outcome": outcome,
            "counts": counts,
            "error_rate": {
                "blue": self.error_rate("blue"),
                "green": self.error_rate("green"),
            },
            "p95_ms": {
                "blue": self.p95("blue") * 1000.0,
                "green": self.p95("green") * 1000.0,
            },
        }
