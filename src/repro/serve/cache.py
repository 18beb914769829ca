"""A versioned, bounded LRU cache for fully-formed query answers.

The one serving cache: served reads skip the engine's column memo,
and this cache answers repeats with *rendered answers* (rankings,
pair scores) across snapshot swaps. Keys embed the serving snapshot's
sequence number and the full similarity configuration, so an answer
can never leak across a graph mutation or a config change: after a
swap the new keys simply miss, and the stale generation ages out of
the LRU bound instead of being scanned for and purged.

Thread-safe — the HTTP front end's handler threads, the broker's
event-loop thread, and mutation triggers all touch it concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

__all__ = ["CacheStats", "ResultCache"]


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache`.

    >>> from repro.serve import CacheStats
    >>> CacheStats(hits=3, misses=1).hit_rate
    0.75
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        return dict(self.__dict__, hit_rate=self.hit_rate)


class ResultCache:
    """Bounded LRU mapping of versioned query keys to answers.

    Parameters
    ----------
    max_entries:
        Upper bound on stored answers; the least recently used entry
        is evicted on overflow. Must be positive.

    Examples
    --------
    >>> from repro.serve import ResultCache
    >>> cache = ResultCache(max_entries=2)
    >>> cache.put(("seq0", "top_k", 7), "answer")
    >>> cache.get(("seq0", "top_k", 7))
    'answer'
    >>> cache.get(("seq1", "top_k", 7)) is None   # new snapshot: miss
    True
    >>> cache.put(("a",), 1); cache.put(("b",), 2)
    >>> len(cache), cache.stats.evictions          # bound enforced
    (2, 1)
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: Hashable):
        """The cached answer, or ``None`` (which is never a value)."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.stats.misses += 1
                return None
            self._data.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if value is None:
            raise ValueError("cannot cache None (the miss sentinel)")
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self.stats.evictions += 1
            self.stats.entries = len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.stats.entries = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data
