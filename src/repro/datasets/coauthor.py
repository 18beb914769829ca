"""Co-authorship networks with H-index ground truth — the DBLP stand-in.

An author-paper bipartite model: authors carry latent topic mixtures;
each paper is written by a lead author plus collaborators drawn with
probability proportional to topical affinity and past collaboration
(so communities form). The co-authorship graph is the one-mode
projection with every undirected edge stored as two opposing directed
edges — exactly how the paper treats the undirected DBLP graph, which
makes its Exp-1 observation testable (on symmetric graphs RWR matches
SimRank*, and P-Rank matches SimRank).

Per-paper citation counts (lognormal, scaled by author prominence)
yield each author's H-index — the role proxy used by Figures 6(b)/(c)
on DBLP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.digraph import DiGraph

__all__ = ["CoauthorNetwork", "coauthor_network", "h_index"]


def h_index(citations: np.ndarray) -> int:
    """The H-index of a list of per-paper citation counts.

    The largest ``h`` such that at least ``h`` papers have at least
    ``h`` citations each.

    >>> h_index(np.array([10, 8, 5, 4, 3]))
    4
    """
    ranked = np.sort(np.asarray(citations))[::-1]
    h = 0
    for position, count in enumerate(ranked, start=1):
        if count >= position:
            h = position
        else:
            break
    return h


@dataclass(frozen=True)
class CoauthorNetwork:
    """A generated co-authorship graph plus its ground truth.

    Attributes
    ----------
    graph:
        Symmetric digraph (undirected collaboration edges doubled).
    topics:
        ``(num_authors, num_topics)`` topic mixtures.
    h_indices:
        Per-author H-index from the underlying paper model.
    papers:
        Author-id tuples, one per generated paper.
    paper_citations:
        Citation count per generated paper.
    """

    graph: DiGraph
    topics: np.ndarray = field(repr=False)
    h_indices: np.ndarray = field(repr=False)
    papers: tuple[tuple[int, ...], ...] = field(repr=False)
    paper_citations: np.ndarray = field(repr=False)

    @property
    def num_undirected_edges(self) -> int:
        """Collaboration pairs (each stored as two directed edges)."""
        return self.graph.num_edges // 2


def coauthor_network(
    num_authors: int,
    papers_per_author: float = 2.0,
    num_topics: int = 8,
    topic_concentration: float = 0.2,
    mean_team_size: float = 2.8,
    seed: int = 0,
) -> CoauthorNetwork:
    """Generate a co-authorship network through an author-paper model.

    ``papers_per_author * num_authors`` papers are generated; each
    paper's team is a lead author (drawn by productivity) plus
    collaborators drawn by topical affinity and repeated-collaboration
    preference. Density rises with either knob.
    """
    if num_authors < 2:
        raise ValueError("need at least two authors")
    rng = np.random.default_rng(seed)
    topics = rng.dirichlet(
        np.full(num_topics, topic_concentration), size=num_authors
    )
    # Heavy-tailed productivity, as in real DBLP; prominence tracks
    # productivity (prolific authors attract citations), which couples
    # co-authors' H-indices the way real collaboration does.
    productivity = rng.pareto(2.0, size=num_authors) + 1.0
    productivity /= productivity.sum()
    prominence = (productivity * num_authors) ** 0.7

    num_papers = max(1, int(round(papers_per_author * num_authors)))
    # collaboration[u] accumulates u's past collaborations; repeated
    # co-authorship is preferred, clustering the projection.
    collaboration = np.zeros(num_authors)
    edges: list[tuple[int, int]] = []
    papers: list[tuple[int, ...]] = []
    paper_citations = np.zeros(num_papers)

    for p in range(num_papers):
        lead = int(rng.choice(num_authors, p=productivity))
        team_size = max(1, int(rng.poisson(mean_team_size - 1)) + 1)
        team = {lead}
        affinity = topics @ topics[lead] + 0.02
        while len(team) < min(team_size, num_authors):
            weights = affinity * (1.0 + 0.5 * collaboration)
            for t in team:
                weights[t] = 0.0
            weights /= weights.sum()
            member = int(rng.choice(num_authors, p=weights))
            team.add(member)
        members = tuple(sorted(team))
        papers.append(members)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                edges += [(u, v), (v, u)]
            collaboration[u] += len(members) - 1
        team_prominence = float(np.mean([prominence[a] for a in members]))
        paper_citations[p] = np.floor(
            rng.lognormal(mean=1.0, sigma=0.6) * team_prominence
        )

    h_indices = np.zeros(num_authors, dtype=np.int64)
    citations_by_author: list[list[float]] = [[] for _ in range(num_authors)]
    for p, members in enumerate(papers):
        for a in members:
            citations_by_author[a].append(paper_citations[p])
    for a in range(num_authors):
        if citations_by_author[a]:
            h_indices[a] = h_index(np.array(citations_by_author[a]))
    return CoauthorNetwork(
        graph=DiGraph(num_authors, edges=edges),
        topics=topics,
        h_indices=h_indices,
        papers=tuple(papers),
        paper_citations=paper_citations,
    )
