"""Related-paper search on a citation network.

Generates a topical citation DAG (the CitHepTh stand-in), issues a
related-paper query through one :class:`repro.SimilarityEngine` per
measure (SimRank*, SimRank, RWR — same serving API, different
registry entries), and scores each result list against the planted
topical ground truth — a miniature version of the paper's Exp-1.

Run:  python examples/citation_analysis.py
"""

import numpy as np

from repro import SimilarityEngine
from repro.analysis import query_ground_truth
from repro.analysis.ranking import ndcg_for_scores
from repro.datasets import citation_network


def main() -> None:
    net = citation_network(
        num_papers=600, avg_out_degree=8.0, num_topics=6, seed=3
    )
    graph = net.graph
    print(f"citation DAG: {graph.num_nodes} papers, "
          f"{graph.num_edges} citations")

    # pick a mid-generation, well-cited paper as the query
    query = int(np.argmax(net.citation_counts[200:400])) + 200
    truth = query_ground_truth(net.topics, query)
    truth[query] = 0.0

    engines = {
        name: SimilarityEngine(graph, measure=name, c=0.6,
                               num_iterations=10)
        for name in ("gSR*", "SR", "RWR")
    }

    # ask for the query column *before* any full matrix exists, so the
    # engine serves it by the O(L m) series walk — compared against
    # the full matrix below
    column = engines["gSR*"].single_source(query)
    assert engines["gSR*"].stats.column_computes == 1

    print(f"\nquery paper {query} "
          f"({net.citation_counts[query]} citations)")
    print(f"{'measure':10} {'NDCG@20':>8}  top-5 related papers")
    for name, engine in engines.items():
        # rank by row `query` of the score matrix: "how similar is
        # each candidate, seen from the query". For the symmetric
        # measures this equals engine.single_source(query); for the
        # asymmetric RWR the direction matters, so be explicit.
        pred = np.asarray(engine.matrix())[query].copy()
        pred[query] = -1.0
        quality = ndcg_for_scores(pred, truth, p=20)
        top = np.argsort(-pred)[:5]
        print(f"{name:10} {quality:8.3f}  {top.tolist()}")

    full = np.asarray(engines["gSR*"].matrix())[:, query]
    print(f"\nsingle-source column agrees with the full matrix: "
          f"max diff = {np.abs(column - full).max():.2e}")


if __name__ == "__main__":
    main()
