"""Directed background graph, subgraphs, boundary extraction, and graphlet counts.

The background graph is an immutable CSR-style structure holding one feature
vector per node and optional node labels. Subgraphs reference it by node id
and carry their own edge lists; all boundary logic (sources, sinks, senders,
receivers) is derived from those.
"""

import numbers
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

# Node label codes (synthetic graphs only; real data ships unlabeled nodes).
LICIT = 0
ILLICIT = 1
UNKNOWN = 2

NODE_LABEL_NAMES = {LICIT: "licit", ILLICIT: "illicit", UNKNOWN: "unknown"}
NODE_LABEL_CODES = {v: k for k, v in NODE_LABEL_NAMES.items()}


def is_number(value, kind=numbers.Integral):
    """True if ``value`` is a ``kind`` (a ``numbers`` class) and not a bool,
    which JSON's true and false load as and ``numbers`` counts as Integral."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_seed(seed):
    """Raise ValueError unless ``seed`` is an integer >= 0 (bools are not)."""
    if not (is_number(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


SUBGRAPH_LICIT = "licit"
SUBGRAPH_SUSPICIOUS = "suspicious"

# Connected undirected graphlets on 2..4 nodes, keyed by a canonical name.
# Classification key: (node count, edge count, sorted degree sequence).
GRAPHLET_TYPES = (
    "edge",
    "path_3",
    "triangle",
    "path_4",
    "star_4",
    "cycle_4",
    "tailed_triangle",
    "diamond",
    "clique_4",
)

_GRAPHLET_BY_SHAPE = {
    (2, 1): "edge",
    (3, 2): "path_3",
    (3, 3): "triangle",
    (4, 3, (1, 1, 2, 2)): "path_4",
    (4, 3, (1, 1, 1, 3)): "star_4",
    (4, 4, (2, 2, 2, 2)): "cycle_4",
    (4, 4, (1, 2, 2, 3)): "tailed_triangle",
    (4, 5, (2, 2, 3, 3)): "diamond",
    (4, 6): "clique_4",
}


class GraphLoadError(ValueError):
    """Raised when tabular graph input violates a structural precondition."""


@dataclass(frozen=True)
class BackgroundGraph:
    """Immutable directed graph in compressed adjacency form.

    Out- and in-adjacency are exact transposes; neighbor lists are sorted
    ascending. ``features`` is a (num_nodes, d) float array. ``node_labels``
    holds LICIT/ILLICIT/UNKNOWN codes when the graph is synthetic.
    """

    num_nodes: int
    out_indptr: np.ndarray
    out_indices: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray
    features: np.ndarray
    node_labels: np.ndarray | None = None
    # The ascending original node ids, one per row, when they were not 0..n-1.
    node_ids: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return int(self.out_indices.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def edge_list(self) -> np.ndarray:
        """All edges as an (m, 2) array of (src, dst) rows in ascending order."""
        src = np.repeat(np.arange(self.num_nodes), np.diff(self.out_indptr))
        return np.column_stack((src, self.out_indices))


@dataclass
class Subgraph:
    """A node set plus edge list referencing the background graph.

    Nodes are kept sorted and edges deduplicated/sorted so that equal
    subgraphs compare equal and serialize identically.
    """

    id: str
    nodes: tuple
    edges: tuple
    label: str | None = None

    def __post_init__(self):
        self.nodes = tuple(sorted(set(int(n) for n in self.nodes)))
        self.edges = tuple(sorted(set((int(u), int(v)) for u, v in self.edges)))
        if not self.nodes:
            raise ValueError(f"subgraph {self.id!r} has no nodes")
        node_set = set(self.nodes)
        for u, v in self.edges:
            if u not in node_set or v not in node_set:
                raise ValueError(
                    f"subgraph {self.id!r} edge ({u},{v}) has endpoint outside node set"
                )
        if self.label is not None and self.label not in (
            SUBGRAPH_LICIT,
            SUBGRAPH_SUSPICIOUS,
        ):
            raise ValueError(f"subgraph {self.id!r} has unknown label {self.label!r}")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class BoundarySets:
    """Sources/sinks of a cycle-broken subgraph plus its senders and receivers,
    as ``extract_boundary`` returns them (which ``bench/layers.py`` keeps alive)."""

    sources: frozenset
    sinks: frozenset
    senders: frozenset
    receivers: frozenset


@dataclass
class GraphletHistogram:
    """Counts of connected undirected 2-4-node graphlets, with frequencies."""

    counts: dict = field(default_factory=lambda: {g: 0 for g in GRAPHLET_TYPES})
    skipped: int = 0

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def frequencies(self) -> dict:
        total = self.total
        if total == 0:
            return {}
        return {g: self.counts[g] / total for g in GRAPHLET_TYPES}

    def to_json_dict(self) -> dict:
        return {
            "counts": {g: self.counts[g] for g in GRAPHLET_TYPES},
            "frequencies": self.frequencies,
            "total": self.total,
            "skipped_subgraphs": self.skipped,
        }


def build_graph(num_nodes, edges, features, node_labels=None, node_ids=None):
    """Assemble a BackgroundGraph from (src, dst) pairs of dense node ids.

    ``edges`` is an (m, 2) integer array or an iterable of pairs with
    endpoints in [0, num_nodes). Duplicates collapse to one edge; a
    self-loop or a feature that is nan or infinite is an error.
    ``node_ids``, if given, are the rows' original ids: ascending, int64.
    """
    features = np.array(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != num_nodes:
        raise GraphLoadError(f"features must be ({num_nodes}, d), got {features.shape}")
    if not np.isfinite(features).all():
        raise GraphLoadError("features must be finite, not nan or inf")
    if not isinstance(edges, np.ndarray):
        edges = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise GraphLoadError("edge endpoint outside [0, num_nodes)")
    # The distinct pairs in (src, dst) order, through one int64 key per pair:
    # dst is then the out-adjacency and a stable sort by dst the in-adjacency.
    src, dst = np.divmod(unique_ints(edges[:, 0] * num_nodes + edges[:, 1]), num_nodes)
    if np.any(src == dst):
        raise GraphLoadError("self-loops are not allowed in the background graph")
    out_indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=num_nodes))))
    in_indptr = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=num_nodes))))
    in_indices = src[np.argsort(dst, kind="stable")]

    arrays = [out_indptr, dst, in_indptr, in_indices, features]
    labels_arr = None
    if node_labels is not None:
        labels_arr = np.asarray(node_labels, dtype=np.int8)
        if labels_arr.shape != (num_nodes,):
            raise GraphLoadError("node_labels length must equal num_nodes")
        arrays.append(labels_arr)
    if node_ids is not None:
        arrays.append(node_ids)
    for arr in arrays:
        arr.setflags(write=False)
    return BackgroundGraph(num_nodes, out_indptr, dst, in_indptr, in_indices, features,
                           labels_arr, node_ids)


def unique_ints(keys):
    """``np.unique`` of a 1-d integer array, by a sort and a neighbour mask:
    numpy 2 takes a hash path for integer keys that is many times slower."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def id_rows(node_ids, ids):
    """(rows, held): the rows where ``ids`` sit in the ascending int64 array
    ``node_ids`` and its ids at those rows; an id is in ``node_ids`` iff held."""
    rows = node_ids.searchsorted(ids)
    return rows, node_ids.take(rows, mode="clip")


def segment_rows(lo, hi):
    """Indices of the row ranges ``lo[i]:hi[i]``, concatenated in order."""
    lengths = hi - lo
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths - lo, lengths)


def load_graph(edges, node_ids, features, node_labels=None):
    """Build a BackgroundGraph from the columns of an edge and a node table.

    ``edges`` is an (m, 2) array of original node ids, one row per edge
    row; ``node_ids``, ``features`` (n, d) and ``node_labels`` (n label
    codes, or None) are the node table's columns in row order. Node ids
    need not be dense: row i holds the i-th smallest id, and unless the ids
    are 0..n-1 the graph keeps them as ``node_ids``. Duplicate edges
    collapse to one; self-loops are dropped.

    Returns (graph, stats) where stats counts dropped duplicates/self-loops.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if not node_ids.size:
        raise GraphLoadError("no node rows")
    order = np.argsort(node_ids, kind="stable")
    ids = node_ids[order]
    if np.any(ids[1:] == ids[:-1]):
        raise GraphLoadError("duplicate node ids in node stream")
    num_nodes = len(ids)

    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    dense, held = id_rows(ids, edges)
    dangling = held != edges
    if dangling.any():
        row, col = divmod(int(np.argmax(dangling)), 2)
        raise GraphLoadError(f"dangling endpoint {edges[row, col]} at edges row {row}")
    loops = dense[:, 0] == dense[:, 1]
    kept = dense[~loops]

    labels = None if node_labels is None else np.asarray(node_labels)[order]
    graph = build_graph(num_nodes, kept, np.asarray(features)[order], labels,
                        None if ids[0] == 0 and ids[-1] == num_nodes - 1 else ids)
    stats = {"duplicate_edges": len(kept) - graph.num_edges,
             "self_loops_dropped": int(loops.sum())}
    return graph, stats


def break_cycles(subgraph: Subgraph) -> Subgraph:
    """Return an acyclic copy of ``subgraph`` with back edges removed.

    Runs iterative depth-first search rooted at unvisited nodes in ascending
    node-id order, exploring neighbors in ascending order, and deletes every
    edge that points at a node currently on the DFS stack. The result is a
    deterministic edge-subset of the input with the node set unchanged.
    """
    adj = {v: [] for v in subgraph.nodes}
    for u, v in subgraph.edges:
        adj[u].append(v)
    for v in adj:
        adj[v].sort()

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in subgraph.nodes}
    removed = set()

    for root in subgraph.nodes:
        if color[root] != WHITE:
            continue
        stack = [(root, 0)]
        color[root] = GRAY
        while stack:
            node, idx = stack[-1]
            nbrs = adj[node]
            if idx == len(nbrs):
                color[node] = BLACK
                stack.pop()
                continue
            stack[-1] = (node, idx + 1)
            nxt = nbrs[idx]
            if color[nxt] == GRAY:
                removed.add((node, nxt))
            elif color[nxt] == WHITE:
                color[nxt] = GRAY
                stack.append((nxt, 0))

    if not removed:
        return subgraph
    kept = tuple(e for e in subgraph.edges if e not in removed)
    return Subgraph(id=subgraph.id, nodes=subgraph.nodes, edges=kept, label=subgraph.label)


class BoundaryTable(NamedTuple):
    """The boundary sets of a list of subgraphs, as ragged int64 arrays.

    Each field is an ``(idx, ptr)`` pair: the set of subgraph ``i`` is
    ``idx[ptr[i]:ptr[i + 1]]``, node ids in ascending order, and ``ptr``
    has one entry more than there are subgraphs.
    """

    sources: tuple
    sinks: tuple
    senders: tuple
    receivers: tuple


def _ragged(owner, values, k):
    """``(values, ptr)`` of values already grouped by ascending owner."""
    return values, np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=k))))


def _outside_neighbors(indptr, indices, nodes, owner, member_keys, n, k):
    """Each owner's sorted neighbors of ``nodes`` (through one CSR side of
    the graph) that are not members of that owner's subgraph."""
    starts, ends = indptr[nodes], indptr[nodes + 1]
    keys = np.repeat(owner, ends - starts) * n + indices[segment_rows(starts, ends)]
    keys = unique_ints(keys[id_rows(member_keys, keys)[1] != keys])
    return _ragged(keys // n, keys % n, k)


def boundary_table(graph: BackgroundGraph, subgraphs) -> BoundaryTable:
    """Sources, sinks, senders and receivers of every subgraph in one pass.

    Each subgraph is cycle-broken first (``break_cycles``). Sources/sinks
    are nodes with zero in-/out-degree within the broken subgraph; senders
    are background nodes outside the subgraph pointing at a source,
    receivers are outside nodes pointed at by a sink. Empty sender or
    receiver sets are not an error.

    Node ``v`` of subgraph ``i`` is keyed ``i * num_nodes + v``, so keys
    ascend (subgraph nodes are sorted and unique) and every membership test
    is a ``searchsorted``. A Kahn peel over all subgraphs at once finds the
    cyclic ones, and only those go through ``break_cycles``. Raises
    ValueError naming the subgraph and node when a node id is outside
    [0, num_nodes).
    """
    subgraphs = list(subgraphs)
    n, k = graph.num_nodes, len(subgraphs)
    node_tuples = [sg.nodes for sg in subgraphs]
    edge_tuples = [sg.edges for sg in subgraphs]
    node_counts = np.fromiter(map(len, node_tuples), np.int64, k)
    edge_counts = np.fromiter(map(len, edge_tuples), np.int64, k)
    nodes = np.fromiter(chain.from_iterable(node_tuples), np.int64, int(node_counts.sum()))
    node_owner = np.repeat(np.arange(k), node_counts)
    bad = (nodes < 0) | (nodes >= n)
    if bad.any():
        pos = int(np.argmax(bad))
        raise ValueError(f"subgraph {subgraphs[node_owner[pos]].id!r}: node id {nodes[pos]} "
                         f"is not a node of the graph (num_nodes {n})")
    keys = node_owner * n + nodes
    ends = np.fromiter(chain.from_iterable(chain.from_iterable(edge_tuples)), np.int64,
                       2 * int(edge_counts.sum())).reshape(-1, 2)
    ends += np.repeat(np.arange(k) * n, edge_counts)[:, None]
    src, dst = np.searchsorted(keys, ends).T

    # Kahn peel: drop every edge whose source has no incoming edge left. What
    # survives is exactly the edges of the subgraphs that hold a cycle.
    live = np.arange(len(src))
    while live.size:
        kept = np.bincount(dst[live], minlength=len(keys))[src[live]] > 0
        if kept.all():
            break
        live = live[kept]
    keep = np.ones(len(src), dtype=bool)
    edge_ptr = np.concatenate(([0], np.cumsum(edge_counts)))
    for i in unique_ints(node_owner[src[live]]).tolist():
        sg = subgraphs[i]
        acyclic = set(break_cycles(sg).edges)
        keep[edge_ptr[i]:edge_ptr[i + 1]] = [e in acyclic for e in sg.edges]

    is_source = np.bincount(dst[keep], minlength=len(keys)) == 0
    is_sink = np.bincount(src[keep], minlength=len(keys)) == 0
    return BoundaryTable(
        sources=_ragged(node_owner[is_source], nodes[is_source], k),
        sinks=_ragged(node_owner[is_sink], nodes[is_sink], k),
        senders=_outside_neighbors(graph.in_indptr, graph.in_indices, nodes[is_source],
                                   node_owner[is_source], keys, n, k),
        receivers=_outside_neighbors(graph.out_indptr, graph.out_indices, nodes[is_sink],
                                     node_owner[is_sink], keys, n, k),
    )


def boundary_sides(graph: BackgroundGraph, subgraphs):
    """Each subgraph's (senders, receivers), ascending tuples of node ids."""
    table = boundary_table(graph, subgraphs)
    sides = []
    for idx, ptr in (table.senders, table.receivers):
        ids, bounds = idx.tolist(), ptr.tolist()
        sides.append([tuple(ids[a:b]) for a, b in zip(bounds, bounds[1:])])
    return list(zip(*sides))


def extract_boundary(graph: BackgroundGraph, subgraph: Subgraph) -> BoundarySets:
    """``boundary_table`` of one subgraph, as sets. No program code calls it;
    ``bench/layers.py`` traces it and ``bench/test_bench.py`` checks that
    trace, which keeps it alive."""
    table = boundary_table(graph, [subgraph])
    return BoundarySets(*(frozenset(idx.tolist()) for idx, _ in table))


def _classify_graphlet(k, edge_count, degrees):
    if k == 2:
        return "edge"
    if k == 3:
        return _GRAPHLET_BY_SHAPE[(3, edge_count)]
    if edge_count in (3, 4, 5):
        return _GRAPHLET_BY_SHAPE[(4, edge_count, tuple(sorted(degrees)))]
    return _GRAPHLET_BY_SHAPE[(4, edge_count)]


def _count_graphlets_one(nodes, adj, counts):
    """ESU-style enumeration of connected induced subgraphs of size 2..4.

    Each connected node subset appears exactly once in the enumeration tree:
    subsets are anchored at their minimum node and grown only through the
    exclusive neighborhood of newly added nodes.
    """

    def classify(subset):
        k = len(subset)
        deg = [0] * k
        edge_count = 0
        for i in range(k):
            for j in range(i + 1, k):
                if subset[j] in adj[subset[i]]:
                    edge_count += 1
                    deg[i] += 1
                    deg[j] += 1
        counts[_classify_graphlet(k, edge_count, deg)] += 1

    def extend(subset, extension, root, frontier_closed):
        for i, w in enumerate(extension):
            new_subset = subset + (w,)
            if len(new_subset) >= 2:
                classify(new_subset)
            if len(new_subset) == 4:
                continue
            closed = frontier_closed | set(extension[i + 1 :]) | {w}
            new_ext = extension[i + 1 :] + tuple(
                u for u in sorted(adj[w]) if u > root and u not in closed
            )
            extend(new_subset, new_ext, root, closed | set(new_ext))

    for v in nodes:
        ext = tuple(u for u in sorted(adj[v]) if u > v)
        extend((v,), ext, v, {v} | set(ext))


def graphlet_census(subgraphs, node_cap: int = 200) -> GraphletHistogram:
    """Count connected undirected 2-4-node graphlets over a batch of subgraphs.

    Directions are dropped and parallel edges merged before counting.
    Subgraphs larger than ``node_cap`` nodes are skipped (counted in the
    histogram's ``skipped`` field) to bound enumeration cost.

    Each distinct shape is enumerated once and its counts are added once
    per subgraph of that shape. A shape is the node count and the set of
    undirected, self-loop-free edges with each node replaced by its rank in
    the sorted ``sg.nodes``; ranks keep node order, so the enumeration of a
    shape walks the same tree as that of any subgraph it stands for.
    """
    hist = GraphletHistogram()
    shapes = Counter()
    for sg in subgraphs:
        if sg.num_nodes > node_cap:
            hist.skipped += 1
            continue
        rank = {v: i for i, v in enumerate(sg.nodes)}
        edges = frozenset(tuple(sorted((rank[u], rank[v]))) for u, v in sg.edges if u != v)
        shapes[sg.num_nodes, edges] += 1
    for (n, edges), copies in shapes.items():
        adj = [set() for _ in range(n)]
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        counts = dict.fromkeys(GRAPHLET_TYPES, 0)
        _count_graphlets_one(range(n), adj, counts)
        for g, c in counts.items():
            hist.counts[g] += copies * c
    return hist
