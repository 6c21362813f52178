"""Test-only oracles: brute-force and reference versions of program logic.

None of these run in the program itself; tests compare the program's
results against them.
"""

import math
from itertools import combinations

import numpy as np

from revtrack.classifier import SRPair
from revtrack.graph_core import (
    ILLICIT,
    LICIT,
    NODE_LABEL_CODES,
    SUBGRAPH_LICIT,
    SUBGRAPH_SUSPICIOUS,
    UNKNOWN,
    BackgroundGraph,
    GraphletHistogram,
    GraphLoadError,
    Subgraph,
    _classify_graphlet,
    extract_boundary,
)
from revtrack.rec_eval import RecTestInstance, _instance_from_pools, boundary_pools
from revtrack.rev_filter import FilterConfig, FilterResult, keep_schedule
from revtrack.synth_gen import SynthDataset


def load_graph_rows(edge_rows, node_rows):
    """Row-at-a-time reference for ``graph_core.load_graph``.

    ``edge_rows`` yields (src, dst) pairs; ``node_rows`` yields
    (id, features, label name or None) triples. Deduplicates with a Python
    set and builds the CSR arrays with ``np.add.at`` and ``np.lexsort``.
    """
    node_rows = list(node_rows)
    if not node_rows:
        raise GraphLoadError("no node rows")
    ids = [int(r[0]) for r in node_rows]
    if len(set(ids)) != len(ids):
        raise GraphLoadError("duplicate node ids in node stream")
    num_nodes = len(ids)
    id_remap = None
    if set(ids) != set(range(num_nodes)):
        id_remap = {orig: i for i, orig in enumerate(sorted(ids))}

    def to_dense(orig):
        return orig if id_remap is None else id_remap[orig]

    order = sorted(range(num_nodes), key=lambda i: ids[i])
    features = np.array([node_rows[i][1] for i in order], dtype=np.float64)
    labels = None
    if any(r[2] is not None for r in node_rows):
        labels = np.full(num_nodes, UNKNOWN, dtype=np.int8)
        for i in order:
            if node_rows[i][2] is not None:
                labels[to_dense(ids[i])] = NODE_LABEL_CODES[node_rows[i][2]]

    valid = set(ids)
    edges = set()
    duplicates = self_loops = 0
    for row_no, (src, dst) in enumerate(edge_rows):
        src, dst = int(src), int(dst)
        for endpoint in (src, dst):
            if endpoint not in valid:
                raise GraphLoadError(f"dangling endpoint {endpoint} at edges row {row_no}")
        if src == dst:
            self_loops += 1
        elif (to_dense(src), to_dense(dst)) in edges:
            duplicates += 1
        else:
            edges.add((to_dense(src), to_dense(dst)))

    edge_arr = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    out_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    in_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(out_indptr[1:], edge_arr[:, 0], 1)
    np.add.at(in_indptr[1:], edge_arr[:, 1], 1)
    graph = BackgroundGraph(
        num_nodes=num_nodes,
        out_indptr=np.cumsum(out_indptr),
        out_indices=edge_arr[:, 1].copy(),
        in_indptr=np.cumsum(in_indptr),
        in_indices=edge_arr[np.lexsort((edge_arr[:, 0], edge_arr[:, 1])), 0],
        features=features,
        node_labels=labels,
        id_remap=id_remap,
    )
    return graph, {"duplicate_edges": duplicates, "self_loops_dropped": self_loops}


def has_edge(graph: BackgroundGraph, u: int, v: int) -> bool:
    nbrs = graph.out_neighbors(u)
    i = int(np.searchsorted(nbrs, v))
    return i < len(nbrs) and nbrs[i] == v


def validate_against(subgraph: Subgraph, graph: BackgroundGraph):
    """Check that every edge of ``subgraph`` exists in the background graph."""
    for u, v in subgraph.edges:
        if u >= graph.num_nodes or v >= graph.num_nodes:
            raise ValueError(
                f"subgraph {subgraph.id!r} references node outside graph: ({u},{v})"
            )
        if not has_edge(graph, u, v):
            raise ValueError(
                f"subgraph {subgraph.id!r} edge ({u},{v}) not present in background graph"
            )


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


def plant_rec_instance(dataset: SynthDataset, n_plus, n_minus, seed) -> RecTestInstance:
    """One link-recommendation test instance built from scratch; deterministic under seed."""
    plus_pool, minus_pool = boundary_pools(dataset.subgraphs, dataset.graph)
    return _instance_from_pools(plus_pool, minus_pool, n_plus, n_minus, seed)


def one_pass_topk_reference(instance: RecTestInstance, k, scorer):
    """Link-list reference for ``rec_eval.one_pass_topk``: one ``SRPair`` per
    link of S x R, scored in one list call, top k by a stable sort."""
    links = [
        (s, r) for s in instance.senders for r in instance.receivers
    ]
    scores = scorer([SRPair(senders=(s,), receivers=(r,)) for s, r in links])
    order = np.argsort(-np.asarray(scores), kind="stable")[:k]
    return [links[i] for i in order]


# ---------------------------------------------------------------------------
# scorers of SRPair lists


class ListScorer:
    """A scorer of SRPair lists, given the ``blocks`` method that
    ``rev_filter`` calls, as ``PairScorer`` has it.

    ``blocks(senders, receivers)`` returns a function that turns each block
    ``(a, b, c, d)`` into ``SRPair(senders[a:b], receivers[c:d])`` and scores
    the list with one call of the scorer, so the scorer sees the pairs it
    would see through the SRPair-list protocol. Wrap a function,
    ``ListScorer(fn)``, or subclass and define ``__call__``.
    """

    def __init__(self, score_pairs=None):
        self.score_pairs = score_pairs

    def __call__(self, srs):
        return self.score_pairs(srs)

    def blocks(self, senders, receivers):
        return lambda candidates: self([SRPair(senders=senders[a:b], receivers=receivers[c:d])
                                        for a, b, c, d in candidates])


# ---------------------------------------------------------------------------
# SRPair-entry bisection filter: the reference for ``rev_filter.rev_filter``
# under ``sorted_id``. Candidates are (SRPair, score or None) entries and
# every split re-derives its halves from the pair's sides.


def _halves(items, rule, rng):
    """Split a sorted id tuple into (lower, upper); upper empty iff singleton."""
    if len(items) <= 1:
        return tuple(items), ()
    items = list(items)
    if rule == "seeded_random":
        items = [items[i] for i in rng.permutation(len(items))]
    mid = (len(items) + 1) // 2
    return tuple(items[:mid]), tuple(items[mid:])


def split_pair(sr: SRPair, rule="sorted_id", rng=None):
    """Bisect both sides; sizes differ by at most one per side."""
    if rng is None:
        rng = np.random.default_rng(0)
    s1, s2 = _halves(sr.senders, rule, rng)
    r1, r2 = _halves(sr.receivers, rule, rng)
    return s1, s2, r1, r2


def expand_reference(candidates, rule="sorted_id", rng=None):
    """Replace every non-1-1 pair with its nonempty quadrant children.

    ``candidates`` is a list of (SRPair, score or None). Children appear in
    (S1,R1), (S1,R2), (S2,R1), (S2,R2) order in place of their parent, with
    score None; 1-1 pairs are carried through unchanged.
    """
    out = []
    for sr, score_val in candidates:
        if sr.is_one_one:
            out.append((sr, score_val))
            continue
        s1, s2, r1, r2 = split_pair(sr, rule, rng)
        for s_half in (s1, s2):
            if not s_half:
                continue
            for r_half in (r1, r2):
                if not r_half:
                    continue
                out.append((SRPair(senders=s_half, receivers=r_half), None))
    return out


def _score_all(pairs, scorer):
    """(scores, failures) of a list of SRPairs from one scorer call.

    If that call fails, each pair is scored alone, and a pair that still
    fails scores 0 (fail closed for that pair only).
    """
    try:
        return [float(s) for s in scorer(pairs)], 0
    except Exception:
        pass
    scores = []
    failures = 0
    for sr in pairs:
        try:
            (score_val,) = scorer([sr])
            scores.append(float(score_val))
        except Exception:
            scores.append(0.0)
            failures += 1
    return scores, failures


def filter_step_reference(candidates, keep_count, scorer):
    """Keep the top ``keep_count`` (SRPair, score) entries (stable on ties);
    lists within budget pass through unscored."""
    if keep_count < 1:
        raise ValueError("keep_count must be >= 1")
    if len(candidates) <= keep_count:
        return candidates, 0, 0
    scores, failures = _score_all([sr for sr, _ in candidates], scorer)
    order = np.argsort(-np.asarray(scores), kind="stable")[:keep_count]
    kept = [(candidates[i][0], scores[i]) for i in order]
    return kept, len(candidates), failures


def rev_filter_reference(initial: SRPair, config: FilterConfig, scorer) -> FilterResult:
    """``rev_filter`` on (SRPair, score) entries with a per-split rule and RNG;
    ``scorer`` maps a list of SRPairs to their scores."""
    if not initial.senders or not initial.receivers:
        raise ValueError("initial pair must have nonempty sender and receiver sets")
    rng = np.random.default_rng(config.seed)
    horizon = math.ceil(math.log2(max(len(initial.senders), len(initial.receivers), 1)))
    max_iterations = (
        math.ceil(math.log2(max(len(initial.senders), 1)))
        + math.ceil(math.log2(max(len(initial.receivers), 1)))
        + 1
    )

    candidates = [(initial, None)]
    iteration = 0
    calls = 0
    failures = 0
    while not all(sr.is_one_one for sr, _ in candidates):
        if iteration >= max_iterations:
            raise RuntimeError("bisection failed to terminate within its bound")
        candidates = expand_reference(candidates, config.split_rule, rng)
        keep = keep_schedule(config, iteration, horizon)
        iteration += 1
        candidates, made, failed = filter_step_reference(candidates, keep, scorer)
        calls += made
        failures += failed

    final_scores, failed = _score_all([sr for sr, _ in candidates], scorer)
    calls += len(candidates)
    failures += failed
    order = np.argsort(-np.asarray(final_scores), kind="stable")[: config.k]
    links = [(candidates[i][0], final_scores[i]) for i in order]
    return FilterResult(
        links=links,
        iterations=iteration,
        classifier_calls=calls,
        scorer_failures=failures,
    )
