"""Significance networks over the top-ranked genes.

Nodes are exactly the top-K gene selection; an edge joins two top genes
whenever their pair was significant, coloured by the pair's single
winning pattern class (the class is taken from the screening result and
never recomputed).  The graph is simple: no self-loops, at most one edge
per pair.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

from .manifest import atomic_open, write_json, write_records
from .screen import PairResult

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

    def degree(self) -> dict[str, int]:
        deg = {g: 0 for g in self.nodes}
        for e in self.edges:
            deg[e.gene_i] += 1
            deg[e.gene_j] += 1
        return deg

    def neighbors(self, gene: str) -> list[str]:
        out = []
        for e in self.edges:
            if e.gene_i == gene:
                out.append(e.gene_j)
            elif e.gene_j == gene:
                out.append(e.gene_i)
        return sorted(out)


def build_network(
    results: Iterable[PairResult],
    top_genes: Sequence[tuple[str, float]],
    class_filter: Iterable[str] | None = None,
) -> DependenceGraph:
    """Graph of significant pairs among the selected genes.

    top_genes is the (gene, max_z) ranking from top_k_genes; class_filter,
    when given, keeps only edges whose winning class is listed.
    """
    allowed = set(class_filter) if class_filter is not None else None
    nodes = {gene: float(z) for gene, z in top_genes}
    edges: list[GraphEdge] = []
    seen: set[tuple[str, str]] = set()
    for row in results:
        if row.gene_i == row.gene_j:
            continue
        if row.gene_i not in nodes or row.gene_j not in nodes:
            continue
        label = row.result.bid_class.label
        if allowed is not None and label not in allowed:
            continue
        key = tuple(sorted((row.gene_i, row.gene_j)))
        if key in seen:
            continue
        seen.add(key)
        edges.append(
            GraphEdge(
                gene_i=row.gene_i,
                gene_j=row.gene_j,
                bid_class=label,
                z=row.result.z,
                color=EDGE_COLORS.get(label, _DEFAULT_COLOR),
            )
        )
    return DependenceGraph(nodes=nodes, edges=edges)


def hub_report(
    graph: DependenceGraph, min_degree: int = 1
) -> list[tuple[str, int, list[str]]]:
    """Genes of degree >= min_degree, highest degree first, ties by id."""
    deg = graph.degree()
    hubs = [
        (gene, d, graph.neighbors(gene))
        for gene, d in deg.items()
        if d >= min_degree
    ]
    hubs.sort(key=lambda item: (-item[1], item[0]))
    return hubs


def export_graph(graph: DependenceGraph, path, fmt: str = "csv_edge_list") -> None:
    """Write the graph deterministically as CSV, DOT, or JSON.

    csv_edge_list writes the edge table plus a '<path>.nodes.csv' sidecar
    carrying the node max-z attributes (the edge table alone cannot
    represent isolated nodes).
    """
    if fmt == "csv_edge_list":
        _export_csv(graph, path)
    elif fmt == "dot":
        _export_dot(graph, path)
    elif fmt == "json":
        _export_json(graph, path)
    else:
        raise ValueError(f"unknown graph format {fmt!r}")


def _sorted_edges(graph: DependenceGraph) -> list[GraphEdge]:
    return sorted(graph.edges, key=lambda e: (e.gene_i, e.gene_j))


def _export_csv(graph: DependenceGraph, path) -> None:
    write_records(_sorted_edges(graph), GraphEdge, path)
    with atomic_open(str(path) + ".nodes.csv") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gene", "max_z"])
        for gene in sorted(graph.nodes):
            writer.writerow([gene, f"{graph.nodes[gene]:.12g}"])


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _export_dot(graph: DependenceGraph, path) -> None:
    lines = ["graph dependence {"]
    for gene in sorted(graph.nodes):
        lines.append(f"  {_dot_quote(gene)} [max_z={graph.nodes[gene]:.12g}];")
    for e in _sorted_edges(graph):
        lines.append(
            f"  {_dot_quote(e.gene_i)} -- {_dot_quote(e.gene_j)} "
            f'[color={e.color}, bid_class={_dot_quote(e.bid_class)}, z={e.z:.12g}];'
        )
    lines.append("}")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _export_json(graph: DependenceGraph, path) -> None:
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

