"""One compute thread per core: cap OpenBLAS while worker lanes run.

numpy and scipy each bundle an OpenBLAS that sizes its thread pool to
every core, so K lanes calling BLAS at once would ask for K × cores
threads, and OpenBLAS threads that finish a call spin-wait on cores
another lane's sparse products need. While a
:class:`~repro.cluster.ThreadWorkerPool` runs, every loaded OpenBLAS
is therefore capped at ``max(1, cores // lanes)`` threads.

The count is process-wide, so one :class:`BlasBudget` (``BLAS``)
serves every pool: overlapping pools get the smallest cap, no cap
raises the count an OpenBLAS had when the first pool started, and that
count comes back when the last pool stops. Without OpenBLAS every call
is a no-op:

>>> budget = BlasBudget(find=list)
>>> budget.acquire(lanes=2, cores=4)
2
>>> budget.threads() is None
True
>>> budget.release(2)
"""

from __future__ import annotations

import ctypes
import os
import threading
from types import SimpleNamespace

__all__ = ["BLAS", "BlasBudget", "loaded_openblas", "usable_cores"]

#: ``(get, set)`` thread-count symbols: the scipy-openblas wheels'
#: (numpy's 64-bit-integer build first), then plain OpenBLAS's
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_",
     "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def usable_cores() -> int:
    """The cores this process may run on (its CPU affinity)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def loaded_openblas() -> list:
    """Every OpenBLAS mapped into this process (``/proc/self/maps``),
    each as ``path``, ``get()`` and ``set(threads)``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({
                line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line
            })
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            handle = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(handle, get_name, None)
            set_ = getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                found.append(SimpleNamespace(path=path, get=get, set=set_))
                break
    return found


class BlasBudget:
    """The process's OpenBLAS thread caps, one per running pool.

    ``find`` lists the libraries to cap (:func:`loaded_openblas`).
    """

    def __init__(self, find=loaded_openblas) -> None:
        self._find = find
        self._lock = threading.Lock()
        self._caps: list[int] = []
        #: path -> (library, its thread count before the first cap)
        self._start: dict[str, tuple] = {}

    def acquire(self, lanes: int, cores: int | None = None) -> int:
        """Cap OpenBLAS for a pool of ``lanes``; returns the cap to
        hand back to :meth:`release`."""
        cap = max(1, (cores or usable_cores()) // lanes)
        with self._lock:
            for lib in self._find():
                self._start.setdefault(lib.path, (lib, lib.get()))
            self._caps.append(cap)
            self._apply(min(self._caps))
        return cap

    def release(self, cap: int) -> None:
        """Drop one pool's cap; the last one restores the start counts."""
        with self._lock:
            self._caps.remove(cap)
            self._apply(min(self._caps, default=None))
            if not self._caps:
                self._start.clear()

    def _apply(self, cap: int | None) -> None:
        # None: back to the start counts
        for lib, count in self._start.values():
            target = count if cap is None else min(cap, count)
            if lib.get() != target:
                lib.set(target)

    def threads(self) -> int | None:
        """Threads a BLAS call may use now (``None`` without OpenBLAS)."""
        with self._lock:
            libs = [lib for lib, _ in self._start.values()]
        return max((lib.get() for lib in libs or self._find()),
                   default=None)


#: the budget every :class:`~repro.cluster.ThreadWorkerPool` draws on
BLAS = BlasBudget()
