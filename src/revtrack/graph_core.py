"""Directed background graph, subgraphs, boundary extraction, and graphlet counts.

The background graph is an immutable CSR-style structure holding one feature
vector per node and optional node labels. Subgraphs reference it by node id
and carry their own edge lists; all boundary logic (sources, sinks, senders,
receivers) is derived from those.
"""

from dataclasses import dataclass, field
from itertools import chain

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
    """Assemble a BackgroundGraph from (src, dst) pairs of dense node ids.

    ``edges`` is an (m, 2) integer array or an iterable of pairs with
    endpoints in [0, num_nodes). Duplicates collapse to one edge; a
    self-loop is an error.
    """
    features = np.array(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != num_nodes:
        raise GraphLoadError(f"features must be ({num_nodes}, d), got {features.shape}")
    if not isinstance(edges, np.ndarray):
        edges = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise GraphLoadError("edge endpoint outside [0, num_nodes)")
    # The distinct pairs in (src, dst) order, through one int64 key per pair:
    # dst is then the out-adjacency and a stable sort by dst the in-adjacency.
    src, dst = np.divmod(np.unique(edges[:, 0] * num_nodes + edges[:, 1]), num_nodes)
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
    for arr in arrays:
        arr.setflags(write=False)
    return BackgroundGraph(num_nodes, out_indptr, dst, in_indptr, in_indices, features,
                           labels_arr, id_remap)


def load_graph(edges, node_ids, features, node_labels=None):
    """Build a BackgroundGraph from the columns of an edge and a node table.

    ``edges`` is an (m, 2) array of original node ids, one row per edge
    row; ``node_ids``, ``features`` (n, d) and ``node_labels`` (n label
    codes, or None) are the node table's columns in row order. Node ids
    need not be dense: they are densified by ascending original id and the
    mapping is retained on the graph. Duplicate edges collapse to one;
    self-loops are dropped.

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
    id_remap = None
    if ids[0] != 0 or ids[-1] != num_nodes - 1:
        id_remap = dict(zip(ids.tolist(), range(num_nodes)))

    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    dense = np.searchsorted(ids, edges)
    dangling = ids[np.minimum(dense, num_nodes - 1)] != edges
    if dangling.any():
        row, col = divmod(int(np.argmax(dangling)), 2)
        raise GraphLoadError(f"dangling endpoint {edges[row, col]} at edges row {row}")
    loops = dense[:, 0] == dense[:, 1]
    kept = dense[~loops]

    labels = None if node_labels is None else np.asarray(node_labels)[order]
    graph = build_graph(num_nodes, kept, np.asarray(features)[order], labels, id_remap)
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
