"""Typed configuration for :class:`~repro.engine.engine.SimilarityEngine`.

A :class:`SimilarityConfig` pins everything about *how* similarity is
computed — measure, damping factor, truncation (explicit iteration
count or an accuracy target), weight scheme — so an engine's cached
artifacts and memoized results are unambiguous. All fields validate on
construction through :mod:`repro.validation`, giving every entry point
the same errors for the same mistakes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.convergence import iterations_for_accuracy
from repro.validation import (
    validate_damping,
    validate_epsilon,
    validate_iterations,
)

__all__ = [
    "COLUMN_POLICIES",
    "DTYPES",
    "MODES",
    "SimilarityConfig",
    "WEIGHT_SCHEMES",
]

#: Recognised values of :attr:`SimilarityConfig.weights`. ``"auto"``
#: defers to the measure's own scheme (geometric for ``gSR*``-family,
#: exponential for ``eSR*``-family, none for the baselines).
WEIGHT_SCHEMES = ("auto", "geometric", "exponential")

#: Recognised values of :attr:`SimilarityConfig.dtype`. ``float64`` is
#: the default; ``float32`` halves kernel memory traffic at ~1e-4
#: relative accuracy (well inside the paper's eps = 1e-3 regime).
DTYPES = ("float64", "float32")

#: Recognised values of :attr:`SimilarityConfig.column_policy`: the
#: bounded column memo evicts the least recently *served* column.
COLUMN_POLICIES = ("lru",)

#: Recognised values of :attr:`SimilarityConfig.mode`. ``"exact"``
#: (default) serves every column through the deterministic kernels;
#: ``"approx"`` routes single-source/top-k answers through the
#: Monte-Carlo walk-index tier (:mod:`repro.approx`), trading a small
#: bounded estimation error for per-query cost that no longer scales
#: with the full series walk.
MODES = ("exact", "approx")


@dataclass(frozen=True)
class SimilarityConfig:
    """How a :class:`SimilarityEngine` computes similarity.

    Parameters
    ----------
    measure:
        Registry name of the measure to serve (``"gSR*"``, ``"eSR*"``,
        ``"SR"``, ... — see :func:`repro.engine.available_measures`).
    c:
        Damping factor in ``(0, 1)``; the paper's default is 0.6.
    num_iterations:
        Truncation length ``K``. In ``mode="exact"`` this is mutually
        exclusive with ``epsilon``; when both are omitted the
        measure's default is used.
    epsilon:
        Accuracy target in ``(0, 1)``. In ``mode="exact"`` it is
        converted to an iteration count via the measure's error bound
        (Lemma 3 / Eq. (12)) and may not be combined with
        ``num_iterations``. In ``mode="approx"`` it is the estimator's
        accuracy knob — it sizes the walk sample budget
        (:func:`repro.approx.samples_for_epsilon`) and, when
        ``num_iterations`` is omitted, still resolves the truncation —
        so the two may be given together there (truncation from
        ``num_iterations``, sampling budget from ``epsilon``).
    weights:
        Length-weight scheme for the single-source series path.
        ``"auto"`` (default) uses the measure's own scheme; naming a
        scheme that disagrees with the measure is rejected when the
        engine is built, because mixed schemes would break the
        engine's matrix/column consistency guarantee.
    dtype:
        Arithmetic precision of the serving kernels — ``"float64"``
        (default) or ``"float32"`` (numpy dtype objects are accepted
        and normalised). Threaded through the transition-matrix
        builders and every kernel that supports it; measures without
        dtype support silently serve ``float64``.
    max_cached_columns:
        Upper bound on the engine's per-query column memo, filled by
        library reads (``single_source``, ``top_k``, ``columns()``, ...)
        and skipped by served ones. ``None`` (default) keeps every
        column ever computed. With a bound set, the memo evicts the
        least recently served column and counts evictions in
        ``EngineStats.column_evictions``.
    column_policy:
        Accepts only ``"lru"``, the memo's one eviction order. The
        field stays because existing callers pass it.
    mode:
        ``"exact"`` (default) or ``"approx"``. Approx mode serves
        single-source columns and top-k rankings from the
        precomputed reverse-random-walk index (:mod:`repro.approx`)
        instead of the exact series kernels; it requires a measure
        with single-source (series) support.
    seed:
        Random seed of the approx tier's walk sampling. Part of the
        index fingerprint in approx mode — two engines with the same
        seed (and epsilon) produce bit-identical estimates. Ignored
        in exact mode.

    Examples
    --------
    >>> from repro import SimilarityConfig
    >>> config = SimilarityConfig(measure="gSR*", c=0.8)
    >>> config.replace(dtype="float32").dtype
    'float32'
    >>> config.np_dtype
    dtype('float64')
    >>> SimilarityConfig(c=1.5)
    Traceback (most recent call last):
        ...
    ValueError: damping factor C must lie in (0, 1), got 1.5
    >>> SimilarityConfig(mode="approx", epsilon=0.05, seed=7).mode
    'approx'
    """

    measure: str = "gSR*"
    c: float = 0.6
    num_iterations: int | None = None
    epsilon: float | None = None
    weights: str = "auto"
    dtype: str = "float64"
    max_cached_columns: int | None = None
    column_policy: str = "lru"
    mode: str = "exact"
    seed: int = 0

    def __post_init__(self) -> None:
        validate_damping(self.c)
        try:
            canonical = np.dtype(self.dtype).name
        except TypeError:
            canonical = str(self.dtype)
        if canonical not in DTYPES:
            raise ValueError(
                f"dtype must be one of {DTYPES}, got {self.dtype!r}"
            )
        object.__setattr__(self, "dtype", canonical)
        if self.mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if (
            not isinstance(self.seed, int)
            or isinstance(self.seed, bool)
            or self.seed < 0
        ):
            raise ValueError(
                f"seed must be a non-negative int, got {self.seed!r}"
            )
        if (
            self.mode == "exact"
            and self.num_iterations is not None
            and self.epsilon is not None
        ):
            # in approx mode the two coexist: num_iterations pins the
            # truncation, epsilon sizes the Monte-Carlo sample budget
            raise ValueError("pass either num_iterations or epsilon")
        if self.num_iterations is not None:
            validate_iterations(self.num_iterations)
        if self.epsilon is not None:
            validate_epsilon(self.epsilon)
        if self.weights not in WEIGHT_SCHEMES:
            raise ValueError(
                f"weights must be one of {WEIGHT_SCHEMES}, "
                f"got {self.weights!r}"
            )
        if not isinstance(self.measure, str) or not self.measure:
            raise ValueError(
                f"measure must be a non-empty name, got {self.measure!r}"
            )
        if self.max_cached_columns is not None:
            if (
                not isinstance(self.max_cached_columns, int)
                or isinstance(self.max_cached_columns, bool)
                or self.max_cached_columns < 1
            ):
                raise ValueError(
                    "max_cached_columns must be a positive int or "
                    f"None, got {self.max_cached_columns!r}"
                )
        if self.column_policy not in COLUMN_POLICIES:
            raise ValueError(
                f"column_policy must be one of {COLUMN_POLICIES}, "
                f"got {self.column_policy!r}"
            )

    @property
    def np_dtype(self) -> np.dtype:
        """The configured precision as a numpy dtype object."""
        return np.dtype(self.dtype)

    def replace(self, **changes) -> "SimilarityConfig":
        """A copy with ``changes`` applied (re-validates)."""
        return replace(self, **changes)

    def resolved_weights(
        self, measure_scheme: str | None
    ) -> str | None:
        """The concrete weight-scheme name this config implies.

        ``"auto"`` defers to ``measure_scheme`` (the measure's own
        scheme, possibly ``None`` for non-SimRank* measures). Both the
        engine's series walk and the :mod:`repro.index` fingerprints
        resolve through here, so an explicit-but-agreeing ``weights``
        setting and ``"auto"`` produce matching artifacts.
        """
        if self.weights == "auto":
            return measure_scheme
        return self.weights

    def resolved_iterations(self, variant: str, default: int) -> int:
        """The concrete truncation length this configuration implies.

        ``variant`` (``"geometric"`` / ``"exponential"``) selects the
        error bound used to convert an ``epsilon`` target; ``default``
        is the measure's fallback when nothing was specified. An
        explicit ``num_iterations`` wins — relevant only in approx
        mode, where it may coexist with an ``epsilon`` whose job is
        the sampling budget.
        """
        if self.num_iterations is not None:
            return self.num_iterations
        if self.epsilon is not None:
            return iterations_for_accuracy(self.c, self.epsilon, variant)
        return default
