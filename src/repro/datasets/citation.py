"""Citation networks with planted topics — the CitHepTh/CitPatent stand-in.

Papers arrive in timestamp order; paper ``i`` cites earlier papers
with probability proportional to
``(in_degree + 1)^pa_strength * (topic_similarity + base_rate)`` —
preferential attachment (heavy-tailed citation counts, like arXiv and
the patent corpus) modulated by topical affinity (papers cite their
own field). The result is a DAG, so symmetric in-link paths are rare
and the zero-SimRank phenomenon is as pervasive as the paper reports
for CitHepTh (95+% of pairs).

The planted topic mixtures double as relevance ground truth: the
paper's human experts judged "true" topical relatedness, which the
generator makes explicit and exactly recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.digraph import DiGraph

__all__ = ["CitationNetwork", "citation_network"]


@dataclass(frozen=True)
class CitationNetwork:
    """A generated citation DAG plus its latent ground truth.

    Attributes
    ----------
    graph:
        The citation DAG (edge ``i -> j`` = paper i cites paper j;
        node ids double as timestamps: larger id = newer paper).
    topics:
        ``(n, num_topics)`` row-stochastic topic mixtures.
    """

    graph: DiGraph
    topics: np.ndarray = field(repr=False)

    @property
    def citation_counts(self) -> np.ndarray:
        """Per-paper citation counts (in-degrees) — the paper's
        "#-citation" role proxy for CitHepTh."""
        return self.graph.in_degrees()


def citation_network(
    num_papers: int,
    avg_out_degree: float = 5.0,
    num_topics: int = 8,
    topic_concentration: float = 0.2,
    pa_strength: float = 0.5,
    base_rate: float = 0.01,
    homophily: float = 2.0,
    seed: int = 0,
) -> CitationNetwork:
    """Generate a topical preferential-attachment citation DAG.

    Parameters
    ----------
    num_papers:
        Number of nodes.
    avg_out_degree:
        Mean references per paper (Poisson); controls density
        ``|E|/|V|`` (Figure 5's knob).
    num_topics:
        Latent topic count.
    topic_concentration:
        Dirichlet concentration; small values give focused papers.
    pa_strength:
        Exponent on ``in_degree + 1`` (0 = no rich-get-richer).
    base_rate:
        Additive floor on topical affinity so cross-topic citations
        stay possible.
    homophily:
        Exponent sharpening topical preference (> 1 concentrates
        citations within fields).
    """
    if num_papers < 1:
        raise ValueError("need at least one paper")
    if num_topics < 1:
        raise ValueError("need at least one topic")
    rng = np.random.default_rng(seed)
    topics = rng.dirichlet(
        np.full(num_topics, topic_concentration), size=num_papers
    )
    in_deg = np.zeros(num_papers)
    edges = [np.empty((0, 2), dtype=np.int64)]
    for i in range(1, num_papers):
        k = min(int(rng.poisson(avg_out_degree)), i)
        if k == 0:
            continue
        affinity = (topics[:i] @ topics[i]) ** homophily + base_rate
        popularity = (in_deg[:i] + 1.0) ** pa_strength
        weights = affinity * popularity
        weights /= weights.sum()
        targets = rng.choice(i, size=k, replace=False, p=weights)
        edges.append(np.column_stack((np.full(k, i), targets)))
        in_deg[targets] += 1.0  # targets are distinct
    return CitationNetwork(
        graph=DiGraph(num_papers, edges=np.concatenate(edges)),
        topics=topics,
    )
