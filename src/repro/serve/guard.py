"""`repro.serve.guard` — admission control and resilience primitives.

The serving stack's overload story lives here, as four small,
independently testable pieces that the broker / router / snapshot
manager thread through their hot paths:

* :class:`Overloaded` / :class:`DeadlineExceeded` — the two explicit
  "no answer, by design" results. Every request submitted to the
  broker ends in exactly one of {answer, ``Overloaded``,
  ``DeadlineExceeded``, error} — nothing is ever silently dropped.
* :class:`CircuitBreaker` — one worker's closed → open → half-open
  failure gate: after ``threshold`` *consecutive* failures the
  breaker opens, dispatch to that worker is refused for
  ``cooldown_s`` seconds, then a single half-open probe either
  restores it (success → closed) or re-opens it.
* :class:`BreakerBoard` — the per-worker breakers of one
  :class:`~repro.cluster.ShardRouter`, sharing a lock, a trip /
  restore counter pair, and an append-only transition log that the
  chaos drill uploads as a CI artifact.
* :class:`Canary` — the decision state of one blue-green snapshot
  swap: a deterministic traffic splitter, per-side error / latency
  reservoirs, and a single-shot promote-or-rollback verdict driven
  by the observed error-rate and p95 deltas.

Everything takes an injectable ``clock`` so tests never sleep:

>>> from repro.serve.guard import CircuitBreaker
>>> t = [0.0]
>>> b = CircuitBreaker(threshold=2, cooldown_s=5.0, clock=lambda: t[0])
>>> b.record_failure(); b.record_failure(); b.state
'open'
>>> b.allow()          # still cooling down
False
>>> t[0] = 6.0
>>> b.allow()          # cooldown elapsed: one half-open probe
True
>>> b.record_success(); b.state
'closed'
"""

from __future__ import annotations

import threading
import time

__all__ = [
    "BreakerBoard",
    "Canary",
    "CircuitBreaker",
    "DeadlineExceeded",
    "Overloaded",
]


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


#: Breaker states, also exported numerically (``repro_breaker_state``
#: gauge values): closed=0, half_open=1, open=2.
_STATE_VALUES = {"closed": 0, "half_open": 1, "open": 2}


class CircuitBreaker:
    """Closed → open → half-open failure gate for one worker.

    ``record_failure`` counts *consecutive* failures; at
    ``threshold`` the breaker opens and :meth:`allow` refuses
    dispatch for ``cooldown_s`` seconds. The first :meth:`allow`
    after the cooldown grants exactly one half-open probe; its
    outcome (``record_success`` / ``record_failure``) closes or
    re-opens the breaker. Not thread-safe on its own — the
    :class:`BreakerBoard` wraps calls in one shared lock.

    >>> t = [0.0]
    >>> b = CircuitBreaker(threshold=3, cooldown_s=2.0,
    ...                    clock=lambda: t[0])
    >>> b.state, b.allow()
    ('closed', True)
    >>> b.record_failure(); b.record_failure(); b.state
    'closed'
    >>> b.record_success(); b.failures   # success resets the streak
    0
    >>> for _ in range(3): b.record_failure()
    >>> b.state, b.allow()
    ('open', False)
    >>> t[0] = 2.5
    >>> b.allow(), b.state               # one half-open probe
    (True, 'half_open')
    >>> b.allow()                        # second caller must wait
    False
    >>> b.record_failure(); b.state      # probe failed: re-open
    'open'
    """

    __slots__ = ("threshold", "cooldown_s", "state", "failures",
                 "_clock", "_open_until", "_probing")

    def __init__(
        self,
        *,
        threshold: int = 5,
        cooldown_s: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(
                f"threshold must be >= 1, got {threshold}"
            )
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self.state = "closed"
        self.failures = 0
        self._clock = clock
        self._open_until = 0.0
        self._probing = False

    def allow(self) -> bool:
        """May a shard be dispatched to this worker right now?"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._clock() >= self._open_until:
                self.state = "half_open"
                self._probing = True
                return True
            return False
        # half_open: one probe in flight at a time
        if not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        """A dispatch succeeded: reset the streak, close the breaker."""
        self.failures = 0
        self.state = "closed"
        self._probing = False

    def record_failure(self) -> None:
        """A dispatch failed: extend the streak, maybe open."""
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.threshold:
            self.state = "open"
            self._open_until = self._clock() + self.cooldown_s
            self._probing = False

    @property
    def value(self) -> int:
        """Numeric state for the ``repro_breaker_state`` gauge."""
        return _STATE_VALUES[self.state]


class BreakerBoard:
    """The per-worker circuit breakers of one shard router.

    One shared lock makes the individual breakers thread-safe under
    the router's dispatch executor; ``trips`` / ``restores`` count
    closed→open and →closed transitions, and :attr:`transitions` is
    an append-only log of ``{"t", "worker", "from", "to"}`` rows —
    the chaos drill writes it out as the breaker-transition CI
    artifact.

    >>> t = [0.0]
    >>> board = BreakerBoard(2, threshold=1, cooldown_s=1.0,
    ...                      clock=lambda: t[0])
    >>> board.allow(0), board.allow(1)
    (True, True)
    >>> board.record_failure(0)   # threshold 1: trips immediately
    True
    >>> board.state(0), board.state(1), board.trips
    ('open', 'closed', 1)
    >>> t[0] = 1.5
    >>> board.allow(0)            # half-open probe
    True
    >>> board.record_success(0); board.state(0), board.restores
    ('closed', 1)
    >>> [(row["worker"], row["from"], row["to"])
    ...  for row in board.transitions]
    [(0, 'closed', 'open'), (0, 'open', 'half_open'), (0, 'half_open', 'closed')]
    """

    def __init__(
        self,
        workers: int,
        *,
        threshold: int = 5,
        cooldown_s: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers = [
            CircuitBreaker(
                threshold=threshold, cooldown_s=cooldown_s, clock=clock
            )
            for _ in range(workers)
        ]
        self.trips = 0
        self.restores = 0
        self.fallbacks = 0
        self.transitions: list[dict] = []

    def _log(self, worker: int, before: str, after: str) -> None:
        if before == after:
            return
        if after == "open":
            self.trips += 1
        elif after == "closed":
            self.restores += 1
        self.transitions.append(
            {
                "t": self._clock(),
                "worker": worker,
                "from": before,
                "to": after,
            }
        )

    def allow(self, worker: int) -> bool:
        """May a shard be dispatched to ``worker`` right now?"""
        with self._lock:
            breaker = self._breakers[worker]
            before = breaker.state
            verdict = breaker.allow()
            self._log(worker, before, breaker.state)
            return verdict

    def record_success(self, worker: int) -> None:
        """Worker answered a shard; close its breaker."""
        with self._lock:
            breaker = self._breakers[worker]
            before = breaker.state
            breaker.record_success()
            self._log(worker, before, breaker.state)

    def record_failure(self, worker: int) -> bool:
        """Worker failed a shard; returns True if the breaker opened."""
        with self._lock:
            breaker = self._breakers[worker]
            before = breaker.state
            breaker.record_failure()
            self._log(worker, before, breaker.state)
            return before != "open" and breaker.state == "open"

    def record_fallback(self) -> None:
        """A shard was served on the dispatch thread (breaker open)."""
        with self._lock:
            self.fallbacks += 1

    def state(self, worker: int) -> str:
        """Current state name of one worker's breaker."""
        with self._lock:
            return self._breakers[worker].state

    def states(self) -> dict[int, str]:
        """``{worker_index: state_name}`` for every breaker."""
        with self._lock:
            return {
                i: b.state for i, b in enumerate(self._breakers)
            }

    def values(self) -> list[tuple[int, int]]:
        """``(worker, numeric_state)`` pairs for the metrics gauge."""
        with self._lock:
            return [
                (i, b.value) for i, b in enumerate(self._breakers)
            ]

    def describe(self) -> dict:
        """Status snapshot for ``/status`` and ``serve status``."""
        with self._lock:
            return {
                "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
                "states": {
                    str(i): b.state
                    for i, b in enumerate(self._breakers)
                },
                "trips": self.trips,
                "restores": self.restores,
                "fallbacks": self.fallbacks,
                "transitions": len(self.transitions),
            }


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
        #: drill hook — when set, green-side batches call this before
        #: computing (raise to simulate a bad new generation)
        self.inject_green_fault = None
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
