"""Graph generators: synthetic models and the paper's worked examples.

The synthetic generators stand in for GTgraph (the paper's synthetic
workload tool) and are controlled by the same knobs — node count and
edge count. All randomised generators take an integer ``seed`` and are
bit-for-bit reproducible.

Two hand-built graphs reproduce the paper's figures exactly:

* :func:`figure1_citation_graph` — the 11-node citation graph of
  Figure 1 (nodes ``a .. k``). The edge set is reconstructed from the
  paths, bicliques, and bigraph structure quoted in the text, and the
  reconstruction is validated by the paper's own numbers: the induced
  bigraph has 18 edges, contains the bicliques ``({b,d}, {c,g,i})`` and
  ``({e,j,k}, {h,i})``, and edge concentration shrinks it to 16 edges.
* :func:`family_tree` — the Figure 3 family tree used to motivate the
  binomial symmetry weights.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph, _unique_sorted

__all__ = [
    "citation_dag",
    "complete_digraph",
    "cycle_graph",
    "erdos_renyi",
    "family_tree",
    "figure1_citation_graph",
    "path_graph",
    "random_digraph",
    "rmat",
    "star_graph",
    "two_ray_path",
]

# Figure 1 edge set, reconstructed from the text (see module docstring).
_FIGURE1_EDGES = [
    ("a", "b"),
    ("a", "d"),
    ("a", "e"),
    ("b", "c"),
    ("b", "f"),
    ("b", "g"),
    ("b", "i"),
    ("d", "c"),
    ("d", "g"),
    ("d", "i"),
    ("e", "h"),
    ("e", "i"),
    ("f", "d"),
    ("h", "i"),
    ("j", "h"),
    ("j", "i"),
    ("k", "h"),
    ("k", "i"),
]


def figure1_citation_graph() -> DiGraph:
    """The 11-node citation graph of the paper's Figure 1.

    Nodes are labelled ``a .. k``; an edge ``u -> v`` means "paper u
    cites paper v" (so ``v`` has an in-link from ``u``).
    """
    graph = DiGraph.from_label_edges(_FIGURE1_EDGES)
    # Label 'c' .. 'k' appear as edge endpoints, so all 11 nodes exist.
    assert graph.num_nodes == 11 and graph.num_edges == 18
    return graph


def family_tree() -> DiGraph:
    """The Figure 3 family tree (edges point parent -> child).

    Used to illustrate that more symmetric in-link paths (Me–Cousin,
    common source Grandpa in the centre) deserve larger weights than
    less symmetric ones (Uncle–Son) or one-directional ones
    (Grandpa–Grandson).
    """
    return DiGraph.from_label_edges(
        [
            ("Grandpa", "Father"),
            ("Grandpa", "Uncle"),
            ("Father", "Me"),
            ("Uncle", "Cousin"),
            ("Me", "Son"),
            ("Son", "Grandson"),
        ]
    )


def path_graph(num_nodes: int) -> DiGraph:
    """Directed path ``0 -> 1 -> ... -> n-1``."""
    heads = np.arange(max(num_nodes - 1, 0))
    return DiGraph(num_nodes, edges=np.column_stack((heads, heads + 1)))


def two_ray_path(ray_length: int) -> DiGraph:
    """The paper's path example ``a_{-n} <- ... <- a_0 -> ... -> a_n``.

    Node ``0`` is the common root; nodes ``1 .. n`` form the right ray
    and ``n+1 .. 2n`` the left ray. Every in-link path between a left
    node and a right node at different depths is *dissymmetric*, so
    SimRank scores vanish for all ``|i| != |j|`` while SimRank* does
    not — the motivating example of Section 1.
    """
    if ray_length < 1:
        raise ValueError("ray_length must be >= 1")
    edges = [(0, 1), (0, ray_length + 1)]
    for i in range(1, ray_length):
        edges += [(i, i + 1), (ray_length + i, ray_length + i + 1)]
    return DiGraph(2 * ray_length + 1, edges=edges)


def star_graph(num_nodes: int, inward: bool = False) -> DiGraph:
    """Star with hub ``0``; edges hub->leaf, or leaf->hub if ``inward``."""
    leaves = np.arange(1, max(num_nodes, 1))
    hub = np.zeros_like(leaves)
    pair = (leaves, hub) if inward else (hub, leaves)
    return DiGraph(num_nodes, edges=np.column_stack(pair))


def cycle_graph(num_nodes: int) -> DiGraph:
    """Directed cycle ``0 -> 1 -> ... -> n-1 -> 0``."""
    if num_nodes < 1:
        raise ValueError("cycle needs at least one node")
    heads = np.arange(num_nodes)
    return DiGraph(
        num_nodes,
        edges=np.column_stack((heads, (heads + 1) % num_nodes)),
    )


def complete_digraph(num_nodes: int) -> DiGraph:
    """All ordered pairs ``u != v``."""
    mask = ~np.eye(num_nodes, dtype=bool)
    return DiGraph(num_nodes, edges=np.argwhere(mask))


def random_digraph(
    num_nodes: int, num_edges: int, seed: int = 0
) -> DiGraph:
    """Uniformly random simple digraph with exactly ``num_edges`` edges.

    This is the GTgraph "random" model: distinct directed edges drawn
    uniformly without self-loops.
    """
    max_edges = num_nodes * (num_nodes - 1)
    if num_edges > max_edges:
        raise ValueError(
            f"cannot place {num_edges} distinct edges in a "
            f"{num_nodes}-node simple digraph (max {max_edges})"
        )
    rng = np.random.default_rng(seed)
    # Rejection sampling is fast while the graph is sparse; fall back to
    # an explicit shuffle when the requested density is extreme.
    if num_edges <= max_edges // 2:
        chosen = np.empty(0, dtype=np.int64)  # sorted keys u * n + v
        while chosen.size < num_edges:
            need = num_edges - chosen.size
            us = rng.integers(0, num_nodes, size=2 * need + 8)
            vs = rng.integers(0, num_nodes, size=2 * need + 8)
            keys = (us * num_nodes + vs)[us != vs]
            # the draws a pair-by-pair loop would keep before stopping
            # at num_edges: first occurrences of unseen pairs, in order
            fresh = keys[_first_unseen(keys, chosen)][:need]
            chosen = np.sort(np.concatenate((chosen, fresh)))
        edges = np.column_stack(np.divmod(chosen, max(num_nodes, 1)))
    else:
        edges = np.argwhere(~np.eye(num_nodes, dtype=bool))
        rng.shuffle(edges)
        edges = edges[:num_edges]
    return DiGraph(num_nodes, edges=edges)


def erdos_renyi(num_nodes: int, edge_prob: float, seed: int = 0) -> DiGraph:
    """G(n, p) digraph: each ordered pair is an edge with prob ``p``."""
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.random((num_nodes, num_nodes)) < edge_prob
    np.fill_diagonal(mask, False)
    return DiGraph(num_nodes, edges=np.argwhere(mask))


def rmat(
    scale: int,
    num_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> DiGraph:
    """R-MAT generator (GTgraph's power-law model; web-graph stand-in).

    Recursively drops each edge into one of four quadrants of the
    adjacency matrix with probabilities ``(a, b, c, d)`` where
    ``d = 1 - a - b - c``. Produces skewed degree distributions and
    community structure — which is what makes web graphs compress well
    under edge concentration.

    Parameters
    ----------
    scale:
        ``n = 2 ** scale`` nodes.
    num_edges:
        Number of *distinct* edges to keep (duplicates and self-loops
        are dropped, so the result may have slightly fewer).
    """
    d = 1.0 - a - b - c
    if d < 0 or min(a, b, c) < 0:
        raise ValueError("quadrant probabilities must be a distribution")
    n = 1 << scale
    rng = np.random.default_rng(seed)
    chosen = np.empty(0, dtype=np.int64)  # sorted keys u * n + v
    attempts = 0
    max_attempts = 50 * num_edges + 1000
    probs = np.array([a, b, c, d])
    while chosen.size < num_edges and attempts < max_attempts:
        batch = num_edges - chosen.size
        quadrants = rng.choice(4, size=(batch, scale), p=probs)
        row_bits = (quadrants >> 1) & 1  # quadrant 2,3 -> lower half
        col_bits = quadrants & 1  # quadrant 1,3 -> right half
        powers = 1 << np.arange(scale - 1, -1, -1)
        us = (row_bits * powers).sum(axis=1)
        vs = (col_bits * powers).sum(axis=1)
        keys = (us * n + vs)[us != vs]
        chosen = _unique_sorted(np.concatenate((chosen, keys)))
        attempts += batch
    return DiGraph(n, edges=np.column_stack(np.divmod(chosen, n)))


def citation_dag(
    num_nodes: int,
    avg_out_degree: float,
    seed: int = 0,
    preferential: bool = True,
) -> DiGraph:
    """Growing citation DAG: node ``i`` cites earlier nodes ``j < i``.

    With ``preferential=True`` targets are drawn proportionally to
    ``in_degree + 1`` (rich-get-richer), giving the heavy-tailed
    citation-count distribution of real bibliographic graphs such as
    CitHepTh and CitPatent. Acyclicity guarantees the zero-SimRank
    phenomenon is plentiful, exactly as the paper reports (95+% of
    CitHepTh pairs).
    """
    if num_nodes < 1:
        raise ValueError("need at least one node")
    rng = np.random.default_rng(seed)
    in_deg = np.zeros(num_nodes, dtype=np.float64)
    edges = [np.empty((0, 2), dtype=np.int64)]
    for i in range(1, num_nodes):
        # Poisson out-degree keeps the average at avg_out_degree while
        # letting early (reference-poor) papers cite fewer works.
        k = min(int(rng.poisson(avg_out_degree)), i)
        if k == 0:
            continue
        if preferential:
            weights = in_deg[:i] + 1.0
            weights /= weights.sum()
            targets = rng.choice(i, size=k, replace=False, p=weights)
        else:
            targets = rng.choice(i, size=k, replace=False)
        edges.append(np.column_stack((np.full(k, i), targets)))
        in_deg[targets] += 1.0  # targets are distinct
    return DiGraph(num_nodes, edges=np.concatenate(edges))


def _first_unseen(keys: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each distinct
    key of ``keys`` that is absent from the sorted array ``seen``."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    pos = np.searchsorted(seen, ordered)
    hit = pos < seen.size
    hit[hit] = seen[pos[hit]] == ordered[hit]
    return np.sort(order[first & ~hit])
