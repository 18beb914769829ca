"""Shared helpers of the serving benchmark: paths, statistics, run record.

Everything here is stdlib-only so that ``run.py`` can refuse to start
(with a clear message) in a directory that does not hold the program.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_FILE = BENCH_DIR / "results" / "runs.jsonl"

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def program_present() -> bool:
    """True when the checkout holds the ``repro`` sources to benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_source_tree() -> None:
    """Import ``repro`` from this checkout, never from an installed copy."""
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def p50(values) -> float:
    """Median, or 0.0 for an empty sample (a layer that did no work)."""
    return median(values) if values else 0.0


def counters(status: dict) -> dict:
    """The program's own counters (from ``status()`` or ``GET /status``)
    that the per-layer metrics read."""
    cluster = status["cluster"]
    return {
        "broker": status["broker"],
        "cache": status["cache"],
        "delta": status["snapshots"]["delta"],
        "approx": status["approx"],
        "cluster": None if cluster is None else {
            "shard_retries": cluster["shard_retries"],
            "fallbacks": cluster["breaker"].get("fallbacks", 0),
        },
    }


def write_json(path, document) -> None:
    Path(path).write_text(json.dumps(document))


def read_json(path):
    return json.loads(Path(path).read_text())


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def cpu_jiffies() -> dict | None:
    """Machine-wide CPU time so far (``/proc/stat``), to spot time the
    hypervisor gave to other guests (``steal``) during a run."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()[1:9]
    except OSError:
        return None
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq",
             "steal")
    return dict(zip(names, (int(f) for f in fields)))


def environment() -> dict:
    """Interpreter, library and machine facts recorded with every run."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }
