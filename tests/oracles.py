"""Test-only oracles: brute-force and reference versions of program logic.

None of these run in the program itself; tests compare the program's
results against them.
"""

from itertools import combinations

from revtrack.graph_core import (
    ILLICIT,
    LICIT,
    SUBGRAPH_LICIT,
    SUBGRAPH_SUSPICIOUS,
    BackgroundGraph,
    GraphletHistogram,
    Subgraph,
    _classify_graphlet,
    extract_boundary,
)
from revtrack.rec_eval import build_rec_instance
from revtrack.synth_gen import SynthDataset


def graphlet_census_bruteforce(subgraphs) -> GraphletHistogram:
    """Exhaustive subset-enumeration census; independent check for small inputs."""
    hist = GraphletHistogram()
    for sg in subgraphs:
        adj = {v: set() for v in sg.nodes}
        for u, v in sg.edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        for k in (2, 3, 4):
            for subset in combinations(sg.nodes, k):
                if not _is_connected_subset(subset, adj):
                    continue
                deg = [sum(1 for w in subset if w in adj[u] and w != u) for u in subset]
                edge_count = sum(deg) // 2
                hist.counts[_classify_graphlet(k, edge_count, deg)] += 1
    return hist


def _is_connected_subset(subset, adj):
    subset_set = set(subset)
    seen = {subset[0]}
    frontier = [subset[0]]
    while frontier:
        u = frontier.pop()
        for w in adj[u]:
            if w in subset_set and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(subset)


def topological_order(nodes, edges):
    """Kahn topological sort; returns None if the edge set has a cycle."""
    indeg = {v: 0 for v in nodes}
    adj = {v: [] for v in nodes}
    for u, v in edges:
        adj[u].append(v)
        indeg[v] += 1
    ready = sorted(v for v in nodes if indeg[v] == 0)
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return order if len(order) == len(nodes) else None


def infer_label(graph: BackgroundGraph, subgraph: Subgraph):
    """Label a subgraph from its boundary node labels.

    Suspicious when all senders are illicit and all receivers licit; licit
    when both sides are entirely licit; None otherwise (mixed, unknown, or
    empty boundary).
    """
    if graph.node_labels is None:
        return None
    b = extract_boundary(graph, subgraph)
    if b.has_empty_boundary:
        return None
    sender_labels = {int(graph.node_labels[s]) for s in b.senders}
    receiver_labels = {int(graph.node_labels[r]) for r in b.receivers}
    if receiver_labels == {LICIT}:
        if sender_labels == {ILLICIT}:
            return SUBGRAPH_SUSPICIOUS
        if sender_labels == {LICIT}:
            return SUBGRAPH_LICIT
    return None


def plant_rec_instance(dataset: SynthDataset, n_plus, n_minus, seed):
    """Build one link-recommendation test instance from the dataset."""
    return build_rec_instance(dataset.subgraphs, n_plus, n_minus, seed, dataset.graph)
