"""Graph core: loading, cycle breaking, boundary extraction, graphlet counts."""

import os
import tempfile
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtrack.graph_core import (
    GRAPHLET_TYPES,
    ILLICIT,
    LICIT,
    NODE_LABEL_CODES,
    UNKNOWN,
    GraphLoadError,
    Subgraph,
    boundary_table,
    break_cycles,
    build_graph,
    extract_boundary,
    graphlet_census,
    load_graph,
    unique_ints,
)
from revtrack.io_utils import read_edges_csv, read_nodes_csv
from revtrack import graph_core
from oracles import (
    extract_boundary_reference,
    graphlet_census_bruteforce,
    has_empty_boundary,
    in_neighbors,
    load_graph_rows,
    out_neighbors,
    topological_order,
)


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


@pytest.mark.parametrize("keys", [
    [], [7], [5, 5, 5, 5], [-3, 2**62, -3, 0, 2**62, 1],
    *(np.random.default_rng(seed).integers(-50, 50, size) for seed, size in
      [(0, 2), (1, 10), (2, 500), (3, 4000)]),
    np.random.default_rng(4).integers(0, 2**40, 3000),
], ids=["empty", "single", "all-equal", "extremes", "random-2", "random-10", "random-500",
        "random-4000", "wide-3000"])
def test_unique_ints_matches_numpy_unique(keys):
    keys = np.asarray(keys, dtype=np.int64)
    before = keys.copy()
    got, want = unique_ints(keys), np.unique(keys)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(keys, before)


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
    degs = [len(out_neighbors(graph, v)) for v in range(3)]
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
    assert graph.node_ids.tolist() == [10, 20, 30]
    assert list(out_neighbors(graph, 0)) == [2]
    assert graph.features[2, 0] == 2.0
    assert list(graph.node_labels) == [LICIT, UNKNOWN, ILLICIT]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_build_graph_rejects_non_finite_features(value):
    features = np.zeros((3, 2))
    features[1, 0] = value
    with pytest.raises(GraphLoadError, match="features must be finite"):
        build_graph(3, [(0, 1)], features)


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
    infinite = [(line_no, j, x) for line_no, (_, feats, _) in enumerate(node_rows, start=2)
                for j, x in enumerate(feats) if np.isinf(x)]
    with tempfile.TemporaryDirectory() as root:
        edges_path, nodes_path = _write_tables(root, edge_rows, node_rows, dim, label_column)
        if infinite:  # the reader rejects the first one, before the graph is built
            line_no, j, x = infinite[0]
            want = f"{nodes_path}:{line_no}: feature 'f_{j}' is {x}"
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
    assert (g.node_ids is None) == (r.node_ids is None)
    if r.node_ids is not None:
        assert np.array_equal(g.node_ids, r.node_ids)


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
            for u in in_neighbors(graph, v)
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
    assert not has_empty_boundary(b)


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
    assert has_empty_boundary(b)


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


@st.composite
def graph_and_subgraphs(draw):
    """A random background graph and random subgraphs of it: cycles,
    self-loops, repeated edges, edges the graph lacks, edgeless subgraphs."""
    n = draw(st.integers(1, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    graph = make_graph(n, [(u, v) for u, v in draw(st.lists(pair, max_size=40)) if u != v])
    subgraphs = []
    for i in range(draw(st.integers(0, 6))):
        nodes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        node = st.sampled_from(nodes)
        edges = draw(st.lists(st.tuples(node, node), max_size=12))
        subgraphs.append(Subgraph(id=f"s{i}", nodes=nodes, edges=edges + edges[:3]))
    return graph, subgraphs


def table_rows(table, i):
    return [frozenset(idx[ptr[i]:ptr[i + 1]].tolist()) for idx, ptr in table]


@settings(max_examples=200, deadline=None)
@given(graph_and_subgraphs())
def test_boundary_table_matches_reference(case):
    graph, subgraphs = case
    table = boundary_table(graph, subgraphs)
    for idx, ptr in table:
        assert ptr[0] == 0 and len(ptr) == len(subgraphs) + 1
        assert ptr[-1] == len(idx)
        for i in range(len(subgraphs)):
            assert np.all(np.diff(idx[ptr[i]:ptr[i + 1]]) > 0)
    for i, sg in enumerate(subgraphs):
        ref = extract_boundary_reference(graph, sg)
        assert table_rows(table, i) == [ref.sources, ref.sinks, ref.senders, ref.receivers]
        assert extract_boundary(graph, sg) == ref


def test_boundary_table_of_no_subgraphs():
    table = boundary_table(chain_graph(), [])
    for idx, ptr in table:
        assert idx.tolist() == [] and ptr.tolist() == [0]


def test_boundary_table_breaks_only_cyclic_subgraphs(monkeypatch):
    rng = np.random.default_rng(5)
    graph, _, adj = rand_background(rng, 30, 90)
    subgraphs = [rand_subgraph(rng, adj, 30, int(rng.integers(2, 9)), f"s{i}")
                 for i in range(60)]
    cyclic = [sg.id for sg in subgraphs if topological_order(sg.nodes, sg.edges) is None]
    assert 0 < len(cyclic) < len(subgraphs)
    broken = []
    monkeypatch.setattr(graph_core, "break_cycles",
                        lambda sg: broken.append(sg.id) or break_cycles(sg))
    table = boundary_table(graph, subgraphs)
    assert broken == cyclic
    for i, sg in enumerate(subgraphs):
        ref = extract_boundary_reference(graph, sg)
        assert table_rows(table, i) == [ref.sources, ref.sinks, ref.senders, ref.receivers]


@pytest.mark.parametrize("bad", [-1, 5, 99])
def test_boundary_rejects_node_ids_outside_the_graph(bad):
    graph = chain_graph()
    good = Subgraph(id="good", nodes=(1, 2), edges=((1, 2),))
    wrong = Subgraph(id="wrong", nodes=(bad, 2), edges=())
    for call in (lambda: boundary_table(graph, [good, wrong, good]),
                 lambda: extract_boundary(graph, wrong)):
        with pytest.raises(ValueError, match=f"subgraph 'wrong': node id {bad} "):
            call()


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


@st.composite
def _repeated_shapes(draw):
    """Subgraphs that repeat a few shapes, each copy under its own
    relabelling: increasing (node order kept) or any injection into
    [0, 10**6). Edge lists hold self-loops and antiparallel pairs."""
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 7))
        shapes.append((n, draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                   st.integers(0, n - 1)), max_size=15))))
    subgraphs = []
    for i in range(draw(st.integers(0, 8))):
        n, edges = draw(st.sampled_from(shapes))
        ids = draw(st.lists(st.integers(0, 10**6 - 1), min_size=n, max_size=n, unique=True))
        if draw(st.booleans()):
            ids.sort()
        subgraphs.append(Subgraph(id=f"s{i}", nodes=tuple(ids),
                                  edges=tuple((ids[u], ids[v]) for u, v in edges)))
    return subgraphs


@settings(max_examples=300, deadline=None)
@given(_repeated_shapes(), st.integers(1, 8))
def test_census_per_shape_matches_bruteforce(subgraphs, node_cap):
    hist = graphlet_census(subgraphs, node_cap=node_cap)
    kept = [sg for sg in subgraphs if sg.num_nodes <= node_cap]
    assert hist.counts == graphlet_census_bruteforce(kept).counts
    assert list(hist.counts) == list(GRAPHLET_TYPES)
    assert hist.skipped == len(subgraphs) - len(kept)


@pytest.mark.parametrize("copies", [1, 2, 7])
def test_census_of_copies_is_copies_times_one_census(copies):
    # a diamond with a tail and a loose pair: edges, paths, stars, triangles
    # and 4-node shapes all occur
    edges = ((0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (5, 6))
    one = graphlet_census_bruteforce([Subgraph(id="one", nodes=tuple(range(7)),
                                               edges=edges)]).counts
    # even copies keep node order, odd ones reverse it
    relabel = [(lambda v, i=i: 100 * i + (v if i % 2 == 0 else 6 - v)) for i in range(copies)]
    many = graphlet_census([
        Subgraph(id=f"c{i}", nodes=tuple(map(f, range(7))),
                 edges=tuple((f(u), f(v)) for u, v in edges))
        for i, f in enumerate(relabel)
    ])
    assert many.counts == {g: copies * c for g, c in one.items()}
    assert many.skipped == 0
