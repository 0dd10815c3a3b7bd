"""Significance networks over the top-ranked genes.

Nodes are exactly the top-K gene selection; an edge joins two top genes
whenever their pair was significant, coloured by the pair's single
winning pattern class (the class is taken from the screening result and
never recomputed).  The graph is simple: no self-loops, at most one edge
per pair.  `build_network` reads a ScreenResults as columns and makes a
GraphEdge only for the rows it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .manifest import atomic_open, cell, write_csv, write_json, write_records
from .screen import ScreenResults

__all__ = [
    "DependenceGraph",
    "GraphEdge",
    "EDGE_COLORS",
    "build_network",
    "hub_report",
    "export_graph",
]

# Parabolic/W/FullCross follow the published convention; the two classes
# that convention never needed a colour for get orange and purple.
EDGE_COLORS = {
    "Parabolic": "grey",
    "W": "blue",
    "FullCross": "green",
    "Checkerboard": "orange",
    "LShape": "purple",
    "Linear": "black",
}
_DEFAULT_COLOR = "black"


@dataclass(frozen=True)
class GraphEdge:
    gene_i: str
    gene_j: str
    bid_class: str
    z: float
    color: str


@dataclass
class DependenceGraph:
    """Simple undirected graph: gene -> max-z nodes plus coloured edges."""

    nodes: dict[str, float]
    edges: list[GraphEdge]


def build_network(
    results: ScreenResults,
    top_genes: Sequence[tuple[str, float]],
    class_filter: Iterable[str] | None = None,
) -> DependenceGraph:
    """Graph of significant pairs among the selected genes.

    top_genes is the (gene, max_z) ranking from top_k_genes; class_filter,
    when given, keeps only edges whose winning class is listed.  Each
    unordered pair takes its first row, and edges keep row order.
    """
    allowed = set(class_filter) if class_filter is not None else None
    nodes = {gene: float(z) for gene, z in top_genes}
    labels = [r.bid_class.label for r in results.table]
    in_top = np.array([gene in nodes for gene in results.gene_ids], dtype=bool)
    in_class = np.array(
        [allowed is None or label in allowed for label in labels], dtype=bool
    )
    i, j, k = results.i, results.j, results.k
    rows = np.flatnonzero(in_top[i] & in_top[j] & in_class[k] & (i != j))
    low = np.minimum(i[rows], j[rows]).astype(np.int64)
    high = np.maximum(i[rows], j[rows])
    _, first = np.unique(low * len(results.gene_ids) + high, return_index=True)
    rows = rows[np.sort(first)]
    genes, table = results.gene_ids, results.table
    edges = [
        GraphEdge(
            gene_i=genes[a],
            gene_j=genes[b],
            bid_class=labels[c],
            z=table[c].z,
            color=EDGE_COLORS.get(labels[c], _DEFAULT_COLOR),
        )
        for a, b, c in zip(i[rows].tolist(), j[rows].tolist(), k[rows].tolist())
    ]
    return DependenceGraph(nodes=nodes, edges=edges)


def hub_report(
    graph: DependenceGraph, min_degree: int = 1
) -> list[tuple[str, int, list[str]]]:
    """Genes of degree >= min_degree, highest degree first, ties by id.

    Each gene comes with its sorted neighbours; one pass over the edges
    lists them.
    """
    adjacent: dict[str, list[str]] = {gene: [] for gene in graph.nodes}
    for e in graph.edges:
        adjacent[e.gene_i].append(e.gene_j)
        adjacent[e.gene_j].append(e.gene_i)
    hubs = [
        (gene, len(near), sorted(near))
        for gene, near in adjacent.items()
        if len(near) >= min_degree
    ]
    hubs.sort(key=lambda item: (-item[1], item[0]))
    return hubs


def export_graph(
    graph: DependenceGraph, path, fmt: str = "csv_edge_list"
) -> list[Path]:
    """Write the graph deterministically as CSV, DOT, or JSON; return the paths written.

    csv_edge_list writes the edge table plus a '<path>.nodes.csv' sidecar
    carrying the node max-z attributes (the edge table alone cannot
    represent isolated nodes).
    """
    writers = {"csv_edge_list": _export_csv, "dot": _export_dot, "json": _export_json}
    if fmt not in writers:
        raise ValueError(f"unknown graph format {fmt!r}")
    return writers[fmt](graph, Path(path))


def _sorted_edges(graph: DependenceGraph) -> list[GraphEdge]:
    return sorted(graph.edges, key=lambda e: (e.gene_i, e.gene_j))


def _export_csv(graph: DependenceGraph, path: Path) -> list[Path]:
    write_records(_sorted_edges(graph), GraphEdge, path)
    nodes = path.with_name(path.name + ".nodes.csv")
    write_csv(nodes, ["gene", "max_z"], sorted(graph.nodes.items()))
    return [path, nodes]


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _export_dot(graph: DependenceGraph, path: Path) -> list[Path]:
    lines = ["graph dependence {"]
    for gene in sorted(graph.nodes):
        lines.append(f"  {_dot_quote(gene)} [max_z={cell(graph.nodes[gene])}];")
    for e in _sorted_edges(graph):
        lines.append(
            f"  {_dot_quote(e.gene_i)} -- {_dot_quote(e.gene_j)} "
            f"[color={e.color}, bid_class={_dot_quote(e.bid_class)}, z={cell(e.z)}];"
        )
    lines.append("}")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
    return [path]


def _export_json(graph: DependenceGraph, path: Path) -> list[Path]:
    payload = {
        "nodes": [
            {"gene": gene, "max_z": graph.nodes[gene]} for gene in sorted(graph.nodes)
        ],
        "edges": [
            {
                "gene_i": e.gene_i,
                "gene_j": e.gene_j,
                "bid_class": e.bid_class,
                "z": e.z,
                "color": e.color,
            }
            for e in _sorted_edges(graph)
        ],
    }
    write_json(payload, path)
    return [path]
