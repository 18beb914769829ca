"""Monte-Carlo walk-index tier — similarity beyond the exact kernels.

Every exact kernel in :mod:`repro.core` pays ``O(n)`` memory and time
per query column, which caps the engine/serve/cluster stack at roughly
``10^5`` nodes. This package trades a bounded estimation error for
per-query cost that scales with the *sample budget* instead:

* :class:`WalkIndex` — precomputed reverse random walks (``samples``
  per node, inverted into per-level endpoint buckets), persistable as
  optional segments of the ``.simidx`` container so restarts map it
  instead of resampling, and patched in place of a redraw when an
  edge edit touches some of its walks;
* :class:`ApproxEstimator` — combines walk-endpoint meeting counts
  with the engine's series-coefficient table into single-source
  columns;
* the ``epsilon -> samples`` policy (:func:`samples_for_epsilon`,
  :func:`approx_params`) shared by the engine, the index builder and
  the CLIs.

Selected via ``SimilarityConfig(mode="approx", epsilon=..., seed=...)``
— see :mod:`repro.engine` — rather than called directly.

Examples
--------
>>> from repro.approx import samples_for_epsilon, approx_params
>>> samples_for_epsilon(0.05)
64
>>> approx_params(truncation=10, epsilon=None)
(5, 64)
"""

from __future__ import annotations

import math

from repro.approx.estimator import ApproxEstimator, ApproxStats
from repro.approx.walks import WalkIndex

__all__ = [
    "ApproxEstimator",
    "ApproxStats",
    "DEFAULT_EPSILON",
    "DEFAULT_WALK_LENGTH",
    "WalkIndex",
    "approx_params",
    "samples_for_epsilon",
]

#: Default accuracy knob of ``mode="approx"`` when the configuration
#: names none — 64 walks per node per level, the budget the tuning
#: guide's precision@10 >= 0.9 numbers are measured at.
DEFAULT_EPSILON = 0.05

#: Default source-side walk depth. With the paper's ``c = 0.6`` and
#: geometric weights, series mass at levels ``alpha >= 6`` is under
#: half a percent of the total — not worth storing walks for.
DEFAULT_WALK_LENGTH = 5

_MIN_SAMPLES = 16
_MAX_SAMPLES = 512


def samples_for_epsilon(epsilon: float) -> int:
    """Walk samples per node per level for an accuracy target.

    The estimator's per-entry standard error shrinks as
    ``1 / sqrt(samples)``, so the budget scales as ``1 / epsilon``
    (clamped to ``[16, 512]`` — below 16 the empirical endpoint
    distribution is too coarse to rank with, above 512 the index
    stops fitting the "10x smaller than exact" promise).

    Examples
    --------
    >>> samples_for_epsilon(0.05)
    64
    >>> samples_for_epsilon(0.5)
    16
    >>> samples_for_epsilon(0.001)
    512
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(
            f"epsilon must lie in (0, 1), got {epsilon!r}"
        )
    return max(
        _MIN_SAMPLES, min(_MAX_SAMPLES, math.ceil(3.2 / epsilon))
    )


def approx_params(
    truncation: int, epsilon: float | None
) -> tuple[int, int]:
    """The ``(walk_length, samples)`` a configuration implies.

    The one place the engine, the index builder and the benchmarks
    all resolve their walk geometry, so an index built by any of them
    fingerprint-matches the others.

    Examples
    --------
    >>> approx_params(truncation=10, epsilon=0.05)
    (5, 64)
    >>> approx_params(truncation=2, epsilon=None)   # shallow series
    (2, 64)
    """
    walk_length = min(DEFAULT_WALK_LENGTH, int(truncation))
    samples = samples_for_epsilon(
        DEFAULT_EPSILON if epsilon is None else epsilon
    )
    return walk_length, samples
