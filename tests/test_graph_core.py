"""Graph core: loading, cycle breaking, boundary extraction, graphlet counts."""

import os
import tempfile
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtrack.graph_core import (
    ILLICIT,
    LICIT,
    NODE_LABEL_CODES,
    UNKNOWN,
    GraphLoadError,
    Subgraph,
    break_cycles,
    build_graph,
    extract_boundary,
    graphlet_census,
    load_graph,
)
from revtrack.io_utils import read_edges_csv, read_nodes_csv
from oracles import graphlet_census_bruteforce, load_graph_rows, topological_order


# ---------------------------------------------------------------------------
# helpers / oracles


def make_graph(num_nodes, edges, dim=2):
    feats = np.zeros((num_nodes, dim))
    return build_graph(num_nodes, edges, feats)


def rand_background(rng, n, m):
    """Random simple directed graph as (graph, edge_list, out_adj dict)."""
    edges = set()
    m = min(m, n * (n - 1))
    while len(edges) < m:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((int(u), int(v)))
    adj = {u: set() for u in range(n)}
    for u, v in edges:
        adj[u].add(v)
    return make_graph(n, edges), sorted(edges), adj


def rand_subgraph(rng, adj, n_total, size, sg_id="s"):
    nodes = sorted(int(v) for v in rng.choice(n_total, size=size, replace=False))
    node_set = set(nodes)
    edges = [(u, v) for u in nodes for v in adj[u] if v in node_set]
    return Subgraph(id=sg_id, nodes=tuple(nodes), edges=tuple(edges))


def naive_boundary(edge_list, subgraph):
    """Quadratic boundary computation straight from the definitions.

    Scans the full background edge list instead of using adjacency; shares
    only the cycle-broken form with the implementation under test.
    """
    acyc = break_cycles(subgraph)
    nodes = set(acyc.nodes)
    sources = {v for v in acyc.nodes if not any(e[1] == v for e in acyc.edges)}
    sinks = {v for v in acyc.nodes if not any(e[0] == v for e in acyc.edges)}
    senders = {u for (u, w) in edge_list if w in sources and u not in nodes}
    receivers = {w for (u, w) in edge_list if u in sinks and w not in nodes}
    return sources, sinks, senders, receivers


REFERENCE_GRAPHLETS = {
    "edge": (2, [(0, 1)]),
    "path_3": (3, [(0, 1), (1, 2)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "path_4": (4, [(0, 1), (1, 2), (2, 3)]),
    "star_4": (4, [(0, 1), (0, 2), (0, 3)]),
    "cycle_4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "tailed_triangle": (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "diamond": (4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)]),
    "clique_4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
}


def isomorphism_census(subgraphs):
    """Classify every connected 2-4-node subset by explicit isomorphism test."""
    counts = {name: 0 for name in REFERENCE_GRAPHLETS}
    for sg in subgraphs:
        und = {v: set() for v in sg.nodes}
        for u, v in sg.edges:
            if u != v:
                und[u].add(v)
                und[v].add(u)
        for k in (2, 3, 4):
            for subset in combinations(sg.nodes, k):
                local = {
                    (i, j)
                    for i in range(k)
                    for j in range(i + 1, k)
                    if subset[j] in und[subset[i]]
                }
                name = _match_graphlet(k, local)
                if name is not None:
                    counts[name] += 1
    return counts


def _match_graphlet(k, local_edges):
    for name, (n, redges) in REFERENCE_GRAPHLETS.items():
        if n != k:
            continue
        for perm in permutations(range(k)):
            mapped = {tuple(sorted((perm[i], perm[j]))) for i, j in redges}
            if mapped == local_edges:
                return name
    return None


# ---------------------------------------------------------------------------
# load_graph


def test_load_graph_basic_degrees():
    graph, stats = load_graph(
        np.array([(0, 1), (1, 2)]), [0, 1, 2], [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]],
    )
    degs = [len(graph.out_neighbors(v)) for v in range(3)]
    assert degs == [1, 1, 0]
    assert stats == {"duplicate_edges": 0, "self_loops_dropped": 0}


def test_load_graph_collapses_duplicates():
    graph, stats = load_graph(np.array([(0, 1), (0, 1)]), [0, 1], [[0.0], [0.0]])
    assert graph.num_edges == 1
    assert stats["duplicate_edges"] == 1


def test_load_graph_dangling_endpoint():
    with pytest.raises(GraphLoadError, match="dangling endpoint 5 at edges row 1"):
        load_graph(np.array([(0, 1), (0, 5)]), [0, 1, 2], np.zeros((3, 1)))


def test_load_graph_drops_self_loops():
    graph, stats = load_graph(np.array([(0, 0), (0, 1)]), [0, 1], [[0.0], [0.0]])
    assert graph.num_edges == 1
    assert stats["self_loops_dropped"] == 1


def test_load_graph_densifies_sparse_ids():
    graph, _ = load_graph(
        np.array([(10, 30)]), [10, 30, 20], [[1.0], [2.0], [3.0]],
        [LICIT, ILLICIT, UNKNOWN],
    )
    assert graph.id_remap == {10: 0, 20: 1, 30: 2}
    assert list(graph.out_neighbors(0)) == [2]
    assert graph.features[2, 0] == 2.0
    assert list(graph.node_labels) == [LICIT, UNKNOWN, ILLICIT]


def _write_tables(root, edge_rows, node_rows, dim, label_column):
    """Write edge and node rows as the two CSV files; returns their paths."""
    edges_path, nodes_path = os.path.join(root, "edges.csv"), os.path.join(root, "nodes.csv")
    with open(edges_path, "w", encoding="utf-8") as fh:
        fh.write("src,dst\n" + "".join(f"{u},{v}\n" for u, v in edge_rows))
    header = ["id"] + [f"f_{i}" for i in range(dim)] + ["label"] * label_column
    with open(nodes_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for node_id, feats, label in node_rows:
            fields = [str(node_id)] + [repr(x) for x in feats]
            fh.write(",".join(fields + [label or ""] * label_column) + "\n")
    return edges_path, nodes_path


@st.composite
def _tables(draw):
    """Node and edge rows with dense or sparse (up to 2**62) ids, duplicate
    edges, self-loops, an optional dangling endpoint and any mix of labels."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        ids = draw(st.permutations(range(n)))
    else:
        ids = draw(st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n,
                            unique=True))
    dim = draw(st.integers(0, 3))
    labels = st.one_of(st.none(), st.sampled_from(sorted(NODE_LABEL_CODES)))
    node_rows = [
        (i, draw(st.lists(st.floats(allow_nan=False), min_size=dim, max_size=dim)),
         draw(labels))
        for i in ids
    ]
    edge_rows = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                              max_size=20))
    if draw(st.booleans()):
        stray = draw(st.permutations([ids[0], draw(st.integers(-(2**62), 2**62))]))
        edge_rows.insert(draw(st.integers(0, len(edge_rows))), tuple(stray))
    return edge_rows, node_rows, dim


@settings(max_examples=300, deadline=None)
@given(_tables(), st.booleans())
def test_array_loader_matches_row_reference(tables, label_column):
    edge_rows, node_rows, dim = tables
    if not label_column:
        node_rows = [(i, f, None) for i, f, _ in node_rows]
    try:
        want = load_graph_rows(edge_rows, node_rows)
    except GraphLoadError as exc:
        want = str(exc)
    with tempfile.TemporaryDirectory() as root:
        edges_path, nodes_path = _write_tables(root, edge_rows, node_rows, dim, label_column)
        try:
            got = load_graph(read_edges_csv(edges_path), *read_nodes_csv(nodes_path))
        except GraphLoadError as exc:
            got = str(exc)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    (g, stats), (r, want_stats) = got, want
    assert stats == want_stats
    for name in ("out_indptr", "out_indices", "in_indptr", "in_indices"):
        assert np.array_equal(getattr(g, name), getattr(r, name)), name
    assert g.features.shape == r.features.shape
    assert np.array_equal(g.features.view(np.int64), r.features.view(np.int64))
    assert (g.node_labels is None) == (r.node_labels is None)
    if r.node_labels is not None:
        assert np.array_equal(g.node_labels, r.node_labels)
    assert g.id_remap == r.id_remap


def test_transpose_consistency_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        m = int(rng.integers(1, 3 * n))
        graph, edge_list, _ = rand_background(rng, n, m)
        out_edges = set(map(tuple, graph.edge_list().tolist()))
        in_edges = {
            (int(u), v)
            for v in range(n)
            for u in graph.in_neighbors(v)
        }
        assert out_edges == set(edge_list) == in_edges


# ---------------------------------------------------------------------------
# break_cycles


def test_break_cycles_acyclic_unchanged():
    sg = Subgraph(id="x", nodes=(1, 2, 3), edges=((1, 2), (2, 3)))
    assert break_cycles(sg).edges == sg.edges


def test_break_cycles_removes_back_edge():
    # DFS from node 1 reaches 2; the edge 2->1 closes a cycle and is dropped.
    sg = Subgraph(id="x", nodes=(1, 2, 3), edges=((1, 2), (2, 1), (2, 3)))
    out = break_cycles(sg)
    assert set(out.edges) == {(1, 2), (2, 3)}
    assert out.nodes == sg.nodes


def test_break_cycles_three_cycle():
    sg = Subgraph(id="x", nodes=(0, 1, 2), edges=((0, 1), (1, 2), (2, 0)))
    # Every single-edge removal yields a DAG; the DFS rule picks the edge
    # closing the cycle back to the root.
    for drop in sg.edges:
        kept = [e for e in sg.edges if e != drop]
        assert topological_order(sg.nodes, kept) is not None
    out = break_cycles(sg)
    assert set(out.edges) == {(0, 1), (1, 2)}


def test_break_cycles_random_properties():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 14))
        graph, _, adj = rand_background(rng, n, int(rng.integers(1, 4 * n)))
        sg = rand_subgraph(rng, adj, n, int(rng.integers(2, n + 1)))
        out = break_cycles(sg)
        assert set(out.edges) <= set(sg.edges)
        assert out.nodes == sg.nodes
        assert topological_order(out.nodes, out.edges) is not None
        again = break_cycles(out)
        assert again.edges == out.edges
        assert break_cycles(sg).edges == out.edges


def test_topological_order_detects_cycles():
    assert topological_order((0, 1), ((0, 1), (1, 0))) is None
    assert topological_order((0, 1, 2), ((0, 1), (1, 2))) == [0, 1, 2]


# ---------------------------------------------------------------------------
# extract_boundary


def chain_graph():
    return make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def test_extract_boundary_chain():
    sg = Subgraph(id="mid", nodes=(1, 2, 3), edges=((1, 2), (2, 3)))
    b = extract_boundary(chain_graph(), sg)
    assert b.sources == {1}
    assert b.sinks == {3}
    assert b.senders == {0}
    assert b.receivers == {4}
    assert not b.has_empty_boundary


def test_extract_boundary_after_cycle_breaking():
    graph = make_graph(5, [(0, 1), (1, 2), (2, 1), (2, 3), (3, 4)])
    sg = Subgraph(id="cyc", nodes=(1, 2, 3), edges=((1, 2), (2, 1), (2, 3)))
    b = extract_boundary(graph, sg)
    assert b.sources == {1}
    assert b.sinks == {3}
    assert b.senders == {0}
    assert b.receivers == {4}


def test_extract_boundary_isolated_subgraph():
    graph = make_graph(4, [(0, 1), (2, 3)])
    sg = Subgraph(id="iso", nodes=(0, 1), edges=((0, 1),))
    b = extract_boundary(graph, sg)
    assert b.senders == frozenset()
    assert b.receivers == frozenset()
    assert b.has_empty_boundary


def test_extract_boundary_matches_naive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(80):
        n = int(rng.integers(4, 40))
        graph, edge_list, adj = rand_background(rng, n, int(rng.integers(2, 4 * n)))
        sg = rand_subgraph(rng, adj, n, int(rng.integers(2, min(n, 10) + 1)))
        b = extract_boundary(graph, sg)
        sources, sinks, senders, receivers = naive_boundary(edge_list, sg)
        assert b.sources == sources
        assert b.sinks == sinks
        assert b.senders == senders
        assert b.receivers == receivers


# ---------------------------------------------------------------------------
# graphlet_census


def test_census_triangle():
    sg = Subgraph(id="t", nodes=(0, 1, 2), edges=((0, 1), (1, 2), (2, 0)))
    hist = graphlet_census([sg])
    assert hist.counts["edge"] == 3
    assert hist.counts["triangle"] == 1
    assert sum(hist.counts.values()) == 4
    assert abs(sum(hist.frequencies.values()) - 1.0) < 1e-9


def test_census_directed_path():
    sg = Subgraph(id="p", nodes=(0, 1, 2), edges=((0, 1), (1, 2)))
    hist = graphlet_census([sg])
    assert hist.counts["edge"] == 2
    assert hist.counts["path_3"] == 1
    assert hist.total == 3


def test_census_antiparallel_edges_merge():
    sg = Subgraph(id="a", nodes=(0, 1), edges=((0, 1), (1, 0)))
    hist = graphlet_census([sg])
    assert hist.counts["edge"] == 1
    assert hist.total == 1


def test_census_empty_input():
    hist = graphlet_census([])
    assert hist.total == 0
    assert hist.frequencies == {}


def test_census_node_cap_skips():
    big = Subgraph(id="big", nodes=tuple(range(6)), edges=tuple((i, i + 1) for i in range(5)))
    hist = graphlet_census([big], node_cap=5)
    assert hist.skipped == 1
    assert hist.total == 0


def test_census_matches_isomorphism_oracle():
    rng = np.random.default_rng(31)
    sgs = []
    for i in range(40):
        n = int(rng.integers(2, 11))
        _, _, adj = rand_background(rng, n, int(rng.integers(1, n * (n - 1) // 2 + 1)))
        nodes = tuple(range(n))
        edges = tuple((u, v) for u in nodes for v in adj[u])
        if not edges:
            continue
        sgs.append(Subgraph(id=f"g{i}", nodes=nodes, edges=edges))
    fast = graphlet_census(sgs)
    brute = graphlet_census_bruteforce(sgs)
    oracle = isomorphism_census(sgs)
    assert fast.counts == brute.counts == oracle
