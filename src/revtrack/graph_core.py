"""Directed background graph, subgraphs, boundary extraction, and graphlet counts.

The background graph is an immutable CSR-style structure holding one feature
vector per node and optional node labels. Subgraphs reference it by node id
and carry their own edge lists; all boundary logic (sources, sinks, senders,
receivers) is derived from those.
"""

from dataclasses import dataclass, field

import numpy as np

# Node label codes (synthetic graphs only; real data ships unlabeled nodes).
LICIT = 0
ILLICIT = 1
UNKNOWN = 2

NODE_LABEL_NAMES = {LICIT: "licit", ILLICIT: "illicit", UNKNOWN: "unknown"}
NODE_LABEL_CODES = {v: k for k, v in NODE_LABEL_NAMES.items()}

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
    # Populated when input node ids were not dense 0..n-1 (original -> dense).
    id_remap: dict | None = None

    @property
    def num_edges(self) -> int:
        return int(self.out_indices.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[v] : self.out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[v] : self.in_indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.out_neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < len(nbrs) and nbrs[i] == v

    def edge_list(self) -> list:
        """All edges as (src, dst) pairs in ascending (src, dst) order."""
        out = []
        for u in range(self.num_nodes):
            out.extend((u, int(v)) for v in self.out_neighbors(u))
        return out


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

    def validate_against(self, graph: BackgroundGraph):
        """Check that every edge exists in the background graph."""
        for u, v in self.edges:
            if u >= graph.num_nodes or v >= graph.num_nodes:
                raise ValueError(
                    f"subgraph {self.id!r} references node outside graph: ({u},{v})"
                )
            if not graph.has_edge(u, v):
                raise ValueError(
                    f"subgraph {self.id!r} edge ({u},{v}) not present in background graph"
                )


@dataclass(frozen=True)
class BoundarySets:
    """Sources/sinks of a cycle-broken subgraph plus its senders and receivers."""

    sources: frozenset
    sinks: frozenset
    senders: frozenset
    receivers: frozenset

    @property
    def has_empty_boundary(self) -> bool:
        """True when either external side is empty; such subgraphs are skipped downstream."""
        return not self.senders or not self.receivers


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


def build_graph(num_nodes, edges, features, node_labels=None, id_remap=None):
    """Assemble a BackgroundGraph from a deduplicated edge list.

    ``edges`` is an iterable of (src, dst) pairs with dense endpoints in
    [0, num_nodes). Self-loops and duplicates must already be removed.
    """
    features = np.array(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != num_nodes:
        raise GraphLoadError(
            f"features must be ({num_nodes}, d), got {features.shape}"
        )
    edge_arr = np.array(sorted(set(edges)), dtype=np.int64).reshape(-1, 2)
    if edge_arr.size and (edge_arr.min() < 0 or edge_arr.max() >= num_nodes):
        raise GraphLoadError("edge endpoint outside [0, num_nodes)")
    if edge_arr.size and np.any(edge_arr[:, 0] == edge_arr[:, 1]):
        raise GraphLoadError("self-loops are not allowed in the background graph")

    out_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    in_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    if edge_arr.size:
        np.add.at(out_indptr[1:], edge_arr[:, 0], 1)
        np.add.at(in_indptr[1:], edge_arr[:, 1], 1)
    np.cumsum(out_indptr, out=out_indptr)
    np.cumsum(in_indptr, out=in_indptr)

    # Edge array is sorted by (src, dst): out_indices is just the dst column.
    out_indices = edge_arr[:, 1].copy() if edge_arr.size else np.zeros(0, dtype=np.int64)
    if edge_arr.size:
        order = np.lexsort((edge_arr[:, 0], edge_arr[:, 1]))
        in_indices = edge_arr[order, 0].copy()
    else:
        in_indices = np.zeros(0, dtype=np.int64)

    labels_arr = None
    if node_labels is not None:
        labels_arr = np.asarray(node_labels, dtype=np.int8)
        if labels_arr.shape != (num_nodes,):
            raise GraphLoadError("node_labels length must equal num_nodes")

    for arr in (out_indptr, out_indices, in_indptr, in_indices, features):
        arr.setflags(write=False)
    if labels_arr is not None:
        labels_arr.setflags(write=False)

    return BackgroundGraph(
        num_nodes=num_nodes,
        out_indptr=out_indptr,
        out_indices=out_indices,
        in_indptr=in_indptr,
        in_indices=in_indices,
        features=features,
        node_labels=labels_arr,
        id_remap=id_remap,
    )


def load_graph(edge_rows, node_rows):
    """Build a BackgroundGraph from tabular streams.

    ``edge_rows`` yields (src, dst) integer pairs; ``node_rows`` yields
    (id, features, label_or_None) triples. Node ids need not be dense: they
    are densified by ascending original id and the mapping is retained on
    the graph. Duplicate edges collapse to one; self-loops are dropped.

    Returns (graph, stats) where stats counts dropped duplicates/self-loops.
    """
    node_rows = list(node_rows)
    if not node_rows:
        raise GraphLoadError("no node rows")
    ids = [int(r[0]) for r in node_rows]
    if len(set(ids)) != len(ids):
        raise GraphLoadError("duplicate node ids in node stream")

    dim = len(node_rows[0][1])
    for r in node_rows:
        if len(r[1]) != dim:
            raise GraphLoadError(
                f"inconsistent feature dimension for node {r[0]}: "
                f"expected {dim}, got {len(r[1])}"
            )

    num_nodes = len(ids)
    dense = set(ids) == set(range(num_nodes))
    id_remap = None if dense else {orig: i for i, orig in enumerate(sorted(ids))}

    def to_dense(orig):
        return orig if id_remap is None else id_remap[orig]

    order = sorted(range(num_nodes), key=lambda i: ids[i])
    features = np.array([node_rows[i][1] for i in order], dtype=np.float64)
    labels = None
    if any(len(r) > 2 and r[2] is not None for r in node_rows):
        labels = np.full(num_nodes, UNKNOWN, dtype=np.int8)
        for i in order:
            row = node_rows[i]
            if len(row) > 2 and row[2] is not None:
                labels[to_dense(ids[i])] = NODE_LABEL_CODES[row[2]]

    valid = set(ids)
    edges = set()
    duplicates = 0
    self_loops = 0
    for row_no, (src, dst) in enumerate(edge_rows):
        src, dst = int(src), int(dst)
        for endpoint in (src, dst):
            if endpoint not in valid:
                raise GraphLoadError(
                    f"dangling endpoint {endpoint} at edges row {row_no}"
                )
        if src == dst:
            self_loops += 1
            continue
        e = (to_dense(src), to_dense(dst))
        if e in edges:
            duplicates += 1
        else:
            edges.add(e)

    graph = build_graph(num_nodes, edges, features, labels, id_remap)
    stats = {"duplicate_edges": duplicates, "self_loops_dropped": self_loops}
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


def extract_boundary(graph: BackgroundGraph, subgraph: Subgraph) -> BoundarySets:
    """Compute sources, sinks, senders, and receivers for one subgraph.

    The subgraph is cycle-broken first. Sources/sinks are nodes with zero
    in-/out-degree within the broken subgraph; senders are background nodes
    outside the subgraph pointing at a source, receivers are outside nodes
    pointed at by a sink. Empty sender or receiver sets are not an error
    (see BoundarySets.has_empty_boundary).
    """
    acyclic = break_cycles(subgraph)
    node_set = set(acyclic.nodes)
    indeg = {v: 0 for v in acyclic.nodes}
    outdeg = {v: 0 for v in acyclic.nodes}
    for u, v in acyclic.edges:
        outdeg[u] += 1
        indeg[v] += 1
    sources = frozenset(v for v in acyclic.nodes if indeg[v] == 0)
    sinks = frozenset(v for v in acyclic.nodes if outdeg[v] == 0)

    senders = set()
    for s in sources:
        for u in graph.in_neighbors(s):
            if int(u) not in node_set:
                senders.add(int(u))
    receivers = set()
    for t in sinks:
        for v in graph.out_neighbors(t):
            if int(v) not in node_set:
                receivers.add(int(v))

    return BoundarySets(
        sources=sources,
        sinks=sinks,
        senders=frozenset(senders),
        receivers=frozenset(receivers),
    )


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
    """
    hist = GraphletHistogram()
    for sg in subgraphs:
        if sg.num_nodes > node_cap:
            hist.skipped += 1
            continue
        adj = {v: set() for v in sg.nodes}
        for u, v in sg.edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        _count_graphlets_one(sg.nodes, adj, hist.counts)
    return hist
