import csv
import json
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from betscan.core import (
    all_bids,
    bid_class_of,
    binary_expansion,
    empirical_copula,
    max_bet,
)
from betscan.core.maxbet import BetResult
from betscan.network import (
    EDGE_COLORS,
    GraphEdge,
    build_network,
    export_graph,
    hub_report,
)
from betscan.preprocess import ExpressionMatrix
from betscan.screen import (
    ScreenConfig,
    precompute_bitplanes,
    screen_all_pairs,
    top_k_genes,
)

from ._oracles import (
    build_network_oracle,
    rows,
    screen_results,
    top_k_genes_oracle,
)
from ._synth import make_parabola


def screened_fixture(seed=0, pairs=8, n=64):
    rng = np.random.default_rng(seed)
    rows, genes = [], []
    for p in range(pairs):
        x, y = make_parabola(n, rng)
        rows.extend([x, y])
        genes.extend([f"P{p:02d}x", f"P{p:02d}y"])
    m = ExpressionMatrix(
        gene_ids=genes,
        sample_ids=[f"S{j}" for j in range(n)],
        values=np.array(rows),
    )
    planes = precompute_bitplanes(m, 2)
    results, _ = screen_all_pairs(planes, m.gene_ids, ScreenConfig())
    return results


def test_build_network_nodes_are_exactly_top_k():
    results = screened_fixture()
    top = top_k_genes(results, k=5)
    graph = build_network(results, top)
    assert set(graph.nodes) == {g for g, _ in top}
    for e in graph.edges:
        assert e.gene_i in graph.nodes and e.gene_j in graph.nodes


def test_parabola_dominated_run_is_mostly_grey():
    results = screened_fixture()
    graph = build_network(results, top_k_genes(results, k=200))
    assert graph.edges
    grey = sum(1 for e in graph.edges if e.color == "grey")
    assert grey / len(graph.edges) > 0.5
    for e in graph.edges:
        assert e.color == EDGE_COLORS[e.bid_class]


def test_class_filter_equals_recount_and_commutes():
    results = screened_fixture(seed=3)
    top = top_k_genes(results, k=200)
    filtered = build_network(results, top, class_filter={"Parabolic"})
    unfiltered = build_network(results, top)
    recount = [e for e in unfiltered.edges if e.bid_class == "Parabolic"]
    assert len(filtered.edges) == len(recount)
    assert {(e.gene_i, e.gene_j) for e in filtered.edges} == {
        (e.gene_i, e.gene_j) for e in recount
    }


def test_empty_results_give_empty_graph():
    graph = build_network(screen_results([]), [])
    assert graph.nodes == {}
    assert graph.edges == []


def test_edge_uniqueness():
    results = screened_fixture(seed=5)
    doubled = screen_results(rows(results) * 2)
    graph = build_network(doubled, top_k_genes(results, k=200))
    keys = [tuple(sorted((e.gene_i, e.gene_j))) for e in graph.edges]
    assert len(keys) == len(set(keys))


def test_hub_report_star():
    hub_rows = screen_results(
        [("HUB", f"LEAF{i}", _linear_result()) for i in range(10)]
    )
    top = top_k_genes(hub_rows, k=11)
    graph = build_network(hub_rows, top)
    report = hub_report(graph, min_degree=1)
    assert report[0][0] == "HUB"
    assert report[0][1] == 10
    assert report[0][2] == sorted(f"LEAF{i}" for i in range(10))
    assert hub_report(graph, min_degree=11) == []
    degrees = sum(d for _, d, _ in report)
    assert degrees == 2 * len(graph.edges)


def _linear_result():
    u = binary_expansion(empirical_copula(np.arange(1.0, 65.0)), 2)
    return max_bet(u, u, mode="exact").with_pair_adjustment(45)


def test_csv_round_trip_identical(tmp_path):
    results = screened_fixture(seed=7)
    graph = build_network(results, top_k_genes(results, k=200))
    path = tmp_path / "graph.csv"
    export_graph(graph, path, "csv_edge_list")
    with open(path, newline="") as fh:
        edges = [
            GraphEdge(**{**rec, "z": float(rec["z"])}) for rec in csv.DictReader(fh)
        ]
    with open(f"{path}.nodes.csv", newline="") as fh:
        nodes = {rec["gene"]: float(rec["max_z"]) for rec in csv.DictReader(fh)}
    assert nodes == graph.nodes
    assert edges == sorted(graph.edges, key=lambda e: (e.gene_i, e.gene_j))


def test_json_counts_match(tmp_path):
    results = screened_fixture(seed=9)
    graph = build_network(results, top_k_genes(results, k=200))
    path = tmp_path / "graph.json"
    export_graph(graph, path, "json")
    payload = json.loads(path.read_text())
    assert len(payload["nodes"]) == len(graph.nodes)
    assert len(payload["edges"]) == len(graph.edges)
    assert {rec["gene"]: rec["max_z"] for rec in payload["nodes"]} == graph.nodes


DOT_EDGE = re.compile(
    r'^\s{2}"[^"]+" -- "[^"]+" \[color=\w+, bid_class="[^"]+", z=[-+.eE0-9]+\];$'
)
DOT_NODE = re.compile(r'^\s{2}"[^"]+" \[max_z=[-+.eE0-9]+\];$')


def test_dot_grammar(tmp_path):
    results = screened_fixture(seed=11)
    graph = build_network(results, top_k_genes(results, k=200))
    path = tmp_path / "graph.dot"
    export_graph(graph, path, "dot")
    lines = path.read_text().splitlines()
    assert lines[0] == "graph dependence {"
    assert lines[-1] == "}"
    node_lines = [ln for ln in lines[1:-1] if DOT_NODE.match(ln)]
    edge_lines = [ln for ln in lines[1:-1] if DOT_EDGE.match(ln)]
    assert len(node_lines) == len(graph.nodes)
    assert len(edge_lines) == len(graph.edges)
    assert len(node_lines) + len(edge_lines) == len(lines) - 2


def test_exports_deterministic(tmp_path):
    results = screened_fixture(seed=13)
    graph = build_network(results, top_k_genes(results, k=200))
    for fmt, name in (("csv_edge_list", "g.csv"), ("dot", "g.dot"), ("json", "g.json")):
        p1 = tmp_path / ("a_" + name)
        p2 = tmp_path / ("b_" + name)
        export_graph(graph, p1, fmt)
        export_graph(graph, p2, fmt)
        assert p1.read_bytes() == p2.read_bytes()


def test_export_returns_the_paths_it_wrote(tmp_path):
    results = screened_fixture(seed=13)
    graph = build_network(results, top_k_genes(results, k=200))
    for fmt in ("csv_edge_list", "dot", "json"):
        (tmp_path / fmt).mkdir()
        written = export_graph(graph, tmp_path / fmt / "graph", fmt)
        assert sorted(written) == sorted((tmp_path / fmt).iterdir())
        assert len(written) == (2 if fmt == "csv_edge_list" else 1)


CLASS_LABELS = sorted({bid_class_of(b).label for b in all_bids(2, 2)})
GENE_POOL = [f"G{x}" for x in range(6)]
# a NaN z never ranks a gene, nor does -1.0 or below; 0.0 and -0.0 tie
Z_VALUES = [float("nan"), -3.0, -1.0, -0.5, -0.0, 0.0, 2.0]


def bet_result(bid, z):
    return BetResult(
        bid=bid,
        bid_class=bid_class_of(bid),
        s=0,
        n=64,
        z=z,
        p_raw=0.0,
        p_bid_adjusted=0.0,
        p_pair_adjusted=0.0,
        approximate=False,
        method="hypergeometric",
    )


def test_top_k_genes_takes_the_first_of_equal_maxima():
    linear = all_bids(2, 2)[0]
    pairs = [
        ("A", "B", -0.0),  # B's first row at its maximum, as gene_j
        ("A", "C", 5.0),
        ("B", "C", 0.0),
        ("D", "E", 0.0),
        ("E", "D", -0.0),
        ("G", "F", -0.0),  # G's, as gene_i
        ("H", "F", 5.0),
        ("G", "H", 0.0),
    ]
    results = screen_results([(a, b, bet_result(linear, z)) for a, b, z in pairs])
    expected = [
        ("A", 5.0), ("C", 5.0), ("F", 5.0), ("H", 5.0),
        ("B", -0.0), ("D", 0.0), ("E", 0.0), ("G", -0.0),
    ]
    assert repr(top_k_genes(results, 8)) == repr(expected)
    assert repr(top_k_genes_oracle(rows(results), 8)) == repr(expected)


@st.composite
def random_results(draw):
    """A ScreenResults with duplicate, reversed and self pairs and idle genes."""
    bids = all_bids(2, 2)
    table = [
        bet_result(bid, z)
        for bid, z in draw(
            st.lists(
                st.tuples(st.sampled_from(bids), st.sampled_from(Z_VALUES)),
                min_size=1,
                max_size=6,
            )
        )
    ]
    gene = st.sampled_from(GENE_POOL)
    pairs = draw(
        st.lists(st.tuples(gene, gene, st.sampled_from(table)), max_size=30)
    )
    # genes listed ahead of the rows' own, some of them in no row
    idle = draw(st.lists(st.sampled_from(GENE_POOL), unique=True))
    return screen_results(pairs, idle)


@settings(max_examples=300, deadline=None)
@given(
    results=random_results(),
    k=st.integers(1, len(GENE_POOL) + 1),
    class_filter=st.none() | st.sets(st.sampled_from(CLASS_LABELS)),
)
def test_columnar_readers_match_the_row_oracles(results, k, class_filter):
    pairs = rows(results)
    top = top_k_genes(results, k)
    # repr tells -0.0 from 0.0
    assert repr(top) == repr(top_k_genes_oracle(pairs, k))
    graph = build_network(results, top, class_filter)
    expected = build_network_oracle(pairs, top, class_filter)
    assert repr(graph.nodes) == repr(expected.nodes)
    assert repr(graph.edges) == repr(expected.edges)
    report = hub_report(graph, min_degree=0)
    assert [gene for gene, _, _ in report] == sorted(
        graph.nodes, key=lambda gene: (-len(report_neighbours(graph, gene)), gene)
    )
    for gene, degree, neighbours in report:
        assert neighbours == report_neighbours(graph, gene)
        assert degree == len(neighbours)


def report_neighbours(graph, gene):
    """gene's neighbours by scanning every edge."""
    return sorted(
        [e.gene_j for e in graph.edges if e.gene_i == gene]
        + [e.gene_i for e in graph.edges if e.gene_j == gene]
    )
