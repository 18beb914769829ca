"""Seeded scale-free digraphs for the large-graph benchmark tier.

The approx tier (:mod:`repro.approx`) is motivated by graphs whose
in-degree distribution is heavy-tailed — a few hub nodes collect a
large share of all links, as in web and citation corpora. This module
generates such graphs at the 10^4–10^6 node scale where the exact
blocked kernels become the bottleneck: a vectorised variant of
preferential attachment (the *copying model*) in which each new node
either copies the endpoint of an existing edge (probability
``pa_bias`` — proportional to current in-degree, the rich-get-richer
step) or links to a uniformly random earlier node.

Unlike :func:`repro.datasets.citation.citation_network` (which scores
topical affinity against *every* earlier paper and is quadratic), this
generator works in doubling batches of nodes with the attachment pool
frozen at each batch boundary, so a million-node graph builds in
seconds and the result is still a DAG with power-law in-degrees. The
same seed always yields bit-identical edges.

>>> from repro.datasets import scale_free_graph
>>> graph = scale_free_graph(300, avg_out_degree=4.0, seed=7)
>>> graph.num_nodes
300
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph, _unique_sorted

__all__ = ["scale_free_graph"]


def scale_free_graph(
    num_nodes: int,
    avg_out_degree: float = 8.0,
    pa_bias: float = 0.5,
    seed: int = 0,
) -> DiGraph:
    """Generate a seeded preferential-attachment (copying-model) DAG.

    Nodes arrive in id order; node ``i`` emits ``Poisson(avg)`` edges
    to earlier nodes, each target drawn from the existing edge-tail
    pool with probability ``pa_bias`` (i.e. proportional to in-degree)
    and uniformly from the predecessors otherwise. Duplicate picks
    collapse, so the realised edge count is *about*
    ``num_nodes * avg_out_degree``.

    Parameters
    ----------
    num_nodes:
        Node count (>= 1).
    avg_out_degree:
        Mean out-edges per node (Poisson); the density knob.
    pa_bias:
        Probability in ``[0, 1)`` of the rich-get-richer copy step.
        Higher values give heavier in-degree tails; the copying
        model's power-law exponent is ``(2 - p) / (1 - p)``, so the
        default 0.5 reproduces the Barabasi-Albert ``gamma = 3``
        regime of real citation and web corpora (hub in-degree on
        the order of ``sqrt(n)``).
    seed:
        Generator seed; the same seed gives bit-identical edges.

    Examples
    --------
    >>> a = scale_free_graph(200, avg_out_degree=4.0, seed=1)
    >>> b = scale_free_graph(200, avg_out_degree=4.0, seed=1)
    >>> sorted(a.edges()) == sorted(b.edges())
    True
    >>> bool(a.in_degrees().max() > 4 * a.in_degrees().mean())
    True
    >>> scale_free_graph(0)
    Traceback (most recent call last):
        ...
    ValueError: num_nodes must be >= 1, got 0
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if not avg_out_degree > 0:
        raise ValueError(
            f"avg_out_degree must be > 0, got {avg_out_degree}"
        )
    if not 0 <= pa_bias < 1:
        raise ValueError(f"pa_bias must lie in [0, 1), got {pa_bias}")
    if num_nodes == 1:
        return DiGraph(num_nodes)
    rng = np.random.default_rng(seed)
    # sorted unique keys u * n + v per batch; the batches' heads are
    # disjoint ranges, so the concatenation is sorted and unique too
    key_chunks: list[np.ndarray] = [np.array([num_nodes], dtype=np.int64)]
    # Pool of edge tails so far: drawing uniformly from it is exactly
    # drawing nodes proportionally to in-degree.
    tail_chunks: list[np.ndarray] = [np.array([0], dtype=np.int64)]
    start = 2
    while start < num_nodes:
        end = min(num_nodes, 2 * start)
        outs = rng.poisson(avg_out_degree, size=end - start)
        total = int(outs.sum())
        if total:
            heads = np.repeat(np.arange(start, end, dtype=np.int64), outs)
            pool = np.concatenate(tail_chunks)
            copied = pool[rng.integers(0, pool.size, size=total)]
            uniform = rng.integers(0, start, size=total)
            targets = np.where(
                rng.random(total) < pa_bias, copied, uniform
            )
            keys = _unique_sorted(heads * num_nodes + targets)
            key_chunks.append(keys)
            tail_chunks.append(keys % num_nodes)
        start = end
    keys = np.concatenate(key_chunks)
    return DiGraph(
        num_nodes, edges=np.column_stack(np.divmod(keys, num_nodes))
    )
