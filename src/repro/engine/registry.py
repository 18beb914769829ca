"""The pluggable measure registry behind :mod:`repro.measures`.

Every similarity measure is registered once, with metadata, via the
:func:`register_measure` decorator::

    @register_measure(
        "gSR*",
        label="SimRank* (geometric)",
        family="SimRank*",
        semantic=True,
        supports_single_source=True,
        uses=("transition",),
    )
    def _gsr(graph, c, num_iterations, **artifacts):
        ...

The registry replaces the former ad-hoc lambda dicts: the old
``MEASURES`` / ``SEMANTIC_MEASURES`` / ``TIMED_ALGORITHMS`` mappings in
:mod:`repro.measures` are now *views* over it, and
:class:`~repro.engine.engine.SimilarityEngine` dispatches through it,
using each spec's capability flags to decide how a measure may be
served (single-source series column vs. full matrix; which cached
artifacts its callable accepts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

__all__ = [
    "MeasureSpec",
    "MeasureView",
    "available_measures",
    "get_measure",
    "measure_names",
    "register_measure",
]

#: Artifact names a measure's callable may accept as keyword arguments.
#: ``"transition"`` — the cached backward transition matrix ``Q``;
#: ``"compressed"`` — the biclique-compressed :class:`CompressedGraph`;
#: ``"dtype"`` — the engine's configured arithmetic precision (a numpy
#: dtype; declared by measures whose kernels take a ``dtype=`` option).
KNOWN_ARTIFACTS = ("transition", "compressed", "dtype")


@dataclass(frozen=True)
class MeasureSpec:
    """One registered similarity measure plus its serving metadata.

    Attributes
    ----------
    name:
        Registry key — the paper's algorithm label (``"gSR*"``, ...).
    compute:
        ``compute(graph, c, num_iterations, **artifacts) -> ndarray``.
        The artifact keywords it accepts are listed in ``uses``.
    label:
        Human-readable display name.
    family:
        Measure family (``"SimRank*"``, ``"SimRank"``, ``"P-Rank"``,
        ``"RWR"``).
    semantic:
        Part of the Figure 6(a)-(c) semantic comparison.
    timed:
        Part of the Figure 6(e)-(h) efficiency comparison.
    supports_single_source:
        One column can be served by the ``O(L m)`` series walk of
        :func:`repro.core.queries.single_source` and agrees with this
        measure's full matrix. When false, the engine serves columns
        by slicing the (memoized) full matrix instead.
    symmetric:
        ``S = S^T`` holds for this measure.
    weight_scheme:
        Length-weight scheme underlying the measure (``"geometric"``,
        ``"exponential"``) or ``None`` for non-SimRank* measures.
    variant:
        How an ``epsilon`` accuracy target converts to an iteration
        count (:func:`repro.core.convergence.iterations_for_accuracy`).
    default_iterations:
        Iteration count used when the caller fixes neither
        ``num_iterations`` nor ``epsilon``.
    uses:
        Cached-artifact keywords ``compute`` accepts (subset of
        :data:`KNOWN_ARTIFACTS`).
    description:
        One-line summary for docs and CLIs.

    Examples
    --------
    >>> from repro import get_measure
    >>> spec = get_measure("gSR*")
    >>> spec.name, spec.family, spec.supports_single_source
    ('gSR*', 'SimRank*', True)
    """

    name: str
    compute: Callable
    label: str
    family: str
    semantic: bool = False
    timed: bool = False
    supports_single_source: bool = False
    symmetric: bool = True
    weight_scheme: str | None = None
    variant: str = "geometric"
    default_iterations: int = 5
    uses: tuple[str, ...] = ()
    description: str = ""


_REGISTRY: dict[str, MeasureSpec] = {}
_builtins_loaded = False


def register_measure(
    name: str,
    *,
    label: str,
    family: str,
    semantic: bool = False,
    timed: bool = False,
    supports_single_source: bool = False,
    symmetric: bool = True,
    weight_scheme: str | None = None,
    variant: str = "geometric",
    default_iterations: int = 5,
    uses: tuple[str, ...] = (),
    description: str = "",
) -> Callable:
    """Decorator registering ``fn`` as the measure called ``name``.

    Returns ``fn`` unchanged, so plain calls keep working. Registering
    a name twice is an error (measures are global, like entry
    points) — except for the *same* function re-registered by a module
    re-import, which is treated as idempotent.

    Examples
    --------
    A toy measure becomes engine-servable the moment it registers:

    >>> import numpy as np
    >>> from repro import DiGraph, SimilarityEngine, register_measure
    >>> @register_measure("doc-identity", label="Identity",
    ...                   family="demo", default_iterations=1)
    ... def identity_measure(graph, c, num_iterations):
    ...     return np.eye(graph.num_nodes)
    >>> engine = SimilarityEngine(
    ...     DiGraph(2, edges=[(0, 1)]), measure="doc-identity")
    >>> engine.score(0, 0)
    1.0
    """
    unknown = set(uses) - set(KNOWN_ARTIFACTS)
    if unknown:
        raise ValueError(
            f"unknown artifact(s) {sorted(unknown)}; "
            f"choose from {KNOWN_ARTIFACTS}"
        )
    if supports_single_source and weight_scheme is None:
        # the single-source fast path IS the weighted series walk;
        # without a scheme the engine would serve columns that
        # contradict the measure's own matrix
        raise ValueError(
            "supports_single_source=True requires a weight_scheme"
        )

    def decorator(fn: Callable) -> Callable:
        existing = _REGISTRY.get(name)
        if existing is not None:
            # Re-executing the defining module (a retried import after
            # a transient failure, importlib.reload in a REPL) hits
            # this guard with a fresh function object for the same
            # source definition; treat that as idempotent replacement
            # and only reject genuinely conflicting registrations.
            same_origin = (
                getattr(existing.compute, "__module__", None)
                == getattr(fn, "__module__", None)
                and getattr(existing.compute, "__qualname__", None)
                == getattr(fn, "__qualname__", None)
            )
            if not same_origin:
                raise ValueError(
                    f"measure {name!r} is already registered"
                )
        _REGISTRY[name] = MeasureSpec(
            name=name,
            compute=fn,
            label=label,
            family=family,
            semantic=semantic,
            timed=timed,
            supports_single_source=supports_single_source,
            symmetric=symmetric,
            weight_scheme=weight_scheme,
            variant=variant,
            default_iterations=default_iterations,
            uses=tuple(uses),
            description=description,
        )
        return fn

    return decorator


def _ensure_builtins() -> None:
    """Load :mod:`repro.measures`, whose import registers the built-ins."""
    global _builtins_loaded
    if not _builtins_loaded:
        import repro.measures  # noqa: F401

        # only after a successful import: a failed one should re-raise
        # on the next call, not leave a silently empty registry
        _builtins_loaded = True


def get_measure(name: str) -> MeasureSpec:
    """The spec registered under ``name`` (KeyError with choices if absent).

    >>> from repro import get_measure
    >>> get_measure("eSR*").weight_scheme
    'exponential'
    """
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown measure {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


def measure_names() -> list[str]:
    """All registered measure names, in registration order."""
    _ensure_builtins()
    return list(_REGISTRY)


class MeasureView(Mapping):
    """A live ``name -> compute`` mapping over the registry.

    Backs the historical ``MEASURES`` / ``SEMANTIC_MEASURES`` /
    ``TIMED_ALGORITHMS`` dicts in :mod:`repro.measures`. Being a view
    rather than a snapshot, measures registered at runtime through
    :func:`register_measure` appear here too (and therefore in the
    experiment sweeps that iterate these mappings).
    """

    __slots__ = ("_semantic", "_timed")

    def __init__(
        self,
        semantic: bool | None = None,
        timed: bool | None = None,
    ) -> None:
        self._semantic = semantic
        self._timed = timed

    def _specs(self) -> dict[str, MeasureSpec]:
        return available_measures(
            semantic=self._semantic, timed=self._timed
        )

    def __getitem__(self, name: str) -> Callable:
        spec = self._specs().get(name)
        if spec is None:
            raise KeyError(name)
        return spec.compute

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs())

    def __len__(self) -> int:
        return len(self._specs())

    def __repr__(self) -> str:
        return f"MeasureView({list(self._specs())})"


def available_measures(
    *,
    semantic: bool | None = None,
    timed: bool | None = None,
    family: str | None = None,
) -> dict[str, MeasureSpec]:
    """Registered specs, optionally filtered by metadata.

    Returned in registration order, which the experiment tables rely on
    for stable row ordering.

    >>> from repro import available_measures
    >>> measures = available_measures()
    >>> "gSR*" in measures and "SR" in measures
    True
    >>> all(s.family == "RWR"
    ...     for s in available_measures(family="RWR").values())
    True
    """
    _ensure_builtins()
    out = {}
    for name, spec in _REGISTRY.items():
        if semantic is not None and spec.semantic != semantic:
            continue
        if timed is not None and spec.timed != timed:
            continue
        if family is not None and spec.family != family:
            continue
        out[name] = spec
    return out
