"""Benchmark support: timing, tables, memory accounting, perf tracking.

Two layers live here:

* :mod:`repro.bench.harness` — the *experiment* harness
  (:class:`ExperimentResult`, shape checks) that reproduces the
  paper's figures;
* :mod:`repro.bench.runner` — the *regression* harness behind
  ``python -m repro.bench``: named kernel cases, warmup/repeat timing,
  ``BENCH_<tag>.json`` output, and a compare gate for CI, plus the
  worker-scaling case (:mod:`repro.bench.cluster`) and the change-point
  gate over the committed BENCH series (:mod:`repro.bench.signal`).

The serving system is measured end to end by ``perfbench/run.py``,
not here.
"""

from repro.bench.harness import (
    ExperimentResult,
    format_table,
    timed,
)
from repro.bench.memory import measure_peak_memory
from repro.bench.runner import (
    BenchCase,
    BenchRun,
    CaseResult,
    compare_runs,
    default_suite,
    run_suite,
)

__all__ = [
    "BenchCase",
    "BenchRun",
    "CaseResult",
    "ExperimentResult",
    "compare_runs",
    "default_suite",
    "format_table",
    "measure_peak_memory",
    "run_suite",
    "timed",
]
