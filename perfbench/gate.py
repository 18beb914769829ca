"""Correctness gate: served answers against the program's reference oracle.

The reference is ``repro.core.queries.single_source_reference``, the
per-query series walk the blocked kernel is tested against, evaluated
on the graph that was served (for http-mixed, the graph after every
write). Ties count: a served node whose reference score lies within
``TIE_TOL`` of the k-th best reference score is a match.
"""

from __future__ import annotations

import numpy as np

TIE_TOL = 1e-9


def reference_columns(graph, queries, c: float, num_terms: int) -> dict:
    """``{query: reference score column}`` on ``graph``."""
    from repro.core.queries import single_source_reference
    from repro.graph.matrices import backward_transition_matrix

    q = backward_transition_matrix(graph)
    qt = q.T.tocsr()
    return {
        int(query): single_source_reference(
            graph, int(query), c=c, num_terms=num_terms,
            transition=q, transition_t=qt,
        )
        for query in queries
    }


def precision_at_k(served_nodes, reference: np.ndarray, query: int,
                   k: int) -> float:
    """Share of the served top-k that belongs to the reference top-k.

    The query itself is excluded from both, as ``top_k`` excludes it by
    default. A served list shorter than ``k`` loses the missing places.
    """
    scores = np.array(reference, dtype=np.float64, copy=True)
    scores[query] = -np.inf
    kth = np.sort(scores)[::-1][k - 1]
    served = [int(v) for v in served_nodes][:k]
    if len(set(served)) != len(served):
        return 0.0
    hits = sum(
        1 for v in served
        if v != query and 0 <= v < scores.size
        and scores[v] >= kth - TIE_TOL
    )
    return hits / k


def well_formed(answer: dict, query: int, k: int, n: int) -> bool:
    """A top-k list: k distinct in-range nodes, not the query, scores
    in non-increasing order."""
    nodes, scores = answer["nodes"], answer["scores"]
    return (
        len(nodes) == k == len(scores)
        and len(set(nodes)) == k
        and all(0 <= v < n and v != query for v in nodes)
        and all(a >= b for a, b in zip(scores, scores[1:]))
    )


def mean_precision(answers: dict, columns: dict, k: int) -> float:
    """Mean precision@k over a check sample ``{query: answer}``."""
    values = [
        precision_at_k(answer["nodes"], columns[int(q)], int(q), k)
        for q, answer in answers.items()
    ]
    return sum(values) / len(values)


class Gate:
    """Collects named checks; the run is correct only if all hold."""

    def __init__(self) -> None:
        self.checks: dict[str, bool] = {}
        self.notes: list[str] = []

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks[name] = self.checks.get(name, True) and bool(passed)
        if not passed:
            self.notes.append(f"{name}: {detail}" if detail else name)
        return passed

    @property
    def passed(self) -> bool:
        return all(self.checks.values())
