"""Plain-text edge-list IO.

Format: one ``u v`` pair per line (whitespace separated, ``#`` comments
allowed). An optional header line ``# nodes: N`` pins the node count so
isolated trailing nodes survive a round-trip.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from repro.graph.digraph import DiGraph

__all__ = ["read_edge_list", "write_edge_list"]

_NODES_HEADER = "# nodes:"


def write_edge_list(graph: DiGraph, path: str | Path) -> None:
    """Write ``graph`` to ``path`` in edge-list format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{_NODES_HEADER} {graph.num_nodes}\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path: str | Path) -> DiGraph:
    """Read a graph written by :func:`write_edge_list`.

    Files without the ``# nodes:`` header infer the node count from the
    largest id seen. The whole file is parsed in one ``np.loadtxt``
    call; a file it rejects is read again line by line, which raises
    ``ValueError`` naming ``path:line`` of the first malformed line.
    """
    path = Path(path)
    try:
        num_nodes, edges = _parse_whole(path)
    except ValueError:
        num_nodes, edges = _parse_lines(path)
    return DiGraph.from_edges(edges, num_nodes=num_nodes)


def _parse_whole(path: Path) -> tuple[int | None, np.ndarray]:
    """``(header node count, (m, 2) edges)`` of a well-formed file.

    Raises ``ValueError`` on anything :func:`_parse_lines` might read
    differently: a ``#`` after data on a line (the line reader rejects
    such lines; ``np.loadtxt`` would drop the tail as a comment), a bad
    header, or rows that are not integer pairs.
    """
    text = path.read_text(encoding="utf-8")
    num_nodes = None
    start = 0
    while (mark := text.find("#", start)) >= 0:
        line_start = text.rfind("\n", 0, mark) + 1
        if text[line_start:mark].strip():
            raise ValueError("'#' after data")
        line_end = text.find("\n", mark)
        line = text[mark:] if line_end < 0 else text[mark:line_end]
        if line.startswith(_NODES_HEADER):
            num_nodes = int(line[len(_NODES_HEADER):])
        if line_end < 0:
            break
        start = line_end
    with warnings.catch_warnings():
        # a file of comments only is an edgeless graph, not a warning
        warnings.simplefilter("ignore", UserWarning)
        edges = np.loadtxt(
            path, dtype=np.int64, comments="#", ndmin=2, encoding="utf-8"
        )
    if edges.size == 0:
        return num_nodes, np.empty((0, 2), dtype=np.int64)
    if edges.shape[1] != 2:
        raise ValueError("rows are not 'u v' pairs")
    return num_nodes, edges


def _parse_lines(path: Path) -> tuple[int | None, list[tuple[int, int]]]:
    """The line-by-line reader: exact ``path:line`` error messages."""
    num_nodes: int | None = None
    edges: list[tuple[int, int]] = []
    with path.open("r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(_NODES_HEADER):
                num_nodes = int(line[len(_NODES_HEADER):])
                continue
            if line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{line_no}: expected 'u v', got {line!r}"
                )
            edges.append((int(parts[0]), int(parts[1])))
    return num_nodes, edges
