"""Test-only oracles: brute-force and reference versions of program logic.

None of these run in the program itself; tests compare the program's
results against them.
"""

import math
from itertools import combinations

import numpy as np

from revtrack.classifier import LabeledPair, SRPair
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
    BoundarySets,
    Subgraph,
    _classify_graphlet,
    break_cycles,
    build_graph,
    segment_rows,
)
from revtrack.neural_core import (AdamState, MlpParams, ShapeError, batch_logits,
                                 mlp_forward)
from revtrack.rec_eval import RecTestInstance, _instance_from_pools, boundary_pools
from revtrack.rev_filter import (AugmentConfig, FilterConfig, FilterResult, keep_schedule,
                                 truncated_exp_pmf)
from revtrack.synth_gen import SCHEME_NAMES, GenerationError, SynthConfig, SynthDataset


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
    node_ids = None if id_remap is None else np.array(sorted(ids), dtype=np.int64)

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
        node_ids=node_ids,
    )
    return graph, {"duplicate_edges": duplicates, "self_loops_dropped": self_loops}


def _csv_body(path):
    """(header line, remaining text) of a CSV file."""
    with open(path, encoding="utf-8") as fh:
        return fh.readline().strip(), fh.read()


def _reject_first_bad_line(path, text, n_fields, has_label=False):
    """Raise naming the first line of ``text`` (line 2 of ``path`` on) with
    other than ``n_fields`` fields or an unknown label."""
    for line_no, line in enumerate(text.split("\n"), start=2):
        parts = line.split(",")
        if line and len(parts) != n_fields:
            raise GraphLoadError(
                f"{path}:{line_no}: expected {n_fields} fields, got {len(parts)}"
            )
        if line and has_label and parts[-1].rstrip() not in ("", *NODE_LABEL_CODES):
            raise GraphLoadError(f"{path}:{line_no}: unknown label {parts[-1].rstrip()!r}")


def _text_rows(path, text, dtype, n_fields):
    """The non-empty lines of ``text``, the body of ``path``, as a ``dtype``
    array. Ids parse as integers, never through float. A parse error names
    the file line of the first line that does not parse."""
    if not text.strip():
        return np.zeros(0, dtype)
    parse = lambda lines: np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                     ndmin=1)
    try:
        return parse(text.split("\n"))
    except ValueError as exc:
        _reject_first_bad_line(path, text, n_fields)
        for line_no, line in enumerate(text.split("\n"), start=2):
            try:
                if line.strip():
                    parse([line])
            except ValueError as line_exc:
                # numpy counts rows of its one-line input, not file lines
                reason = str(line_exc).split(" at row ")[0]
                raise GraphLoadError(f"{path}:{line_no}: {reason}") from None
        raise GraphLoadError(f"{path}: {exc}") from None


def read_edges_csv_text(path):
    """Whole-text reference for ``io_utils.read_edges_csv``: reads the body
    into one string and parses its list of lines."""
    header, text = _csv_body(path)
    if header != "src,dst":
        raise GraphLoadError(f"{path}: expected header 'src,dst', got {header!r}")
    return _text_rows(path, text, np.dtype([("edge", np.int64, (2,))]), 2)["edge"]


def read_nodes_csv_text(path):
    """Whole-text reference for ``io_utils.read_nodes_csv``, without its
    check for non-finite features."""
    header, text = _csv_body(path)
    header = header.split(",")
    if header[0] != "id":
        raise GraphLoadError(f"{path}: first column must be 'id'")
    has_label = header[-1] == "label"
    fields = [("id", np.int64), ("f", np.float64, (len(header) - 1 - has_label,))]
    fields += [("label", object)] * has_label
    rows = _text_rows(path, text, np.dtype(fields), len(header))
    names = np.char.rstrip(rows["label"].astype(str)) if has_label else np.array([""])
    if not (names != "").any():
        return rows["id"], rows["f"], None
    if not np.isin(names, ["", *NODE_LABEL_CODES]).all():
        _reject_first_bad_line(path, text, len(header), has_label=True)
    codes = np.select([names == n for n in NODE_LABEL_CODES], [*NODE_LABEL_CODES.values()],
                      UNKNOWN)
    return rows["id"], rows["f"], codes.astype(np.int8)


def out_neighbors(graph: BackgroundGraph, v: int) -> np.ndarray:
    return graph.out_indices[graph.out_indptr[v] : graph.out_indptr[v + 1]]


def in_neighbors(graph: BackgroundGraph, v: int) -> np.ndarray:
    return graph.in_indices[graph.in_indptr[v] : graph.in_indptr[v + 1]]


def has_empty_boundary(b: BoundarySets) -> bool:
    """True when either external side is empty; such subgraphs are skipped downstream."""
    return not b.senders or not b.receivers


def has_edge(graph: BackgroundGraph, u: int, v: int) -> bool:
    nbrs = out_neighbors(graph, u)
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


def extract_boundary_reference(graph: BackgroundGraph, subgraph: Subgraph) -> BoundarySets:
    """One-subgraph reference for ``graph_core.boundary_table``.

    The subgraph is cycle-broken first. Sources/sinks are nodes with zero
    in-/out-degree within the broken subgraph; senders are background nodes
    outside the subgraph pointing at a source, receivers are outside nodes
    pointed at by a sink.
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
        for u in in_neighbors(graph, s):
            if int(u) not in node_set:
                senders.add(int(u))
    receivers = set()
    for t in sinks:
        for v in out_neighbors(graph, t):
            if int(v) not in node_set:
                receivers.add(int(v))

    return BoundarySets(
        sources=sources,
        sinks=sinks,
        senders=frozenset(senders),
        receivers=frozenset(receivers),
    )


def make_pairs_reference(graph, subgraphs):
    """Subgraph-at-a-time reference for ``classifier.make_pairs``."""
    pairs = []
    stats = {"empty_boundary": 0, "unlabeled": 0}
    for sg in subgraphs:
        if sg.label is None:
            stats["unlabeled"] += 1
            continue
        b = extract_boundary_reference(graph, sg)
        if has_empty_boundary(b):
            stats["empty_boundary"] += 1
            continue
        sr = SRPair(senders=tuple(b.senders), receivers=tuple(b.receivers))
        pairs.append(
            LabeledPair(sr=sr, label=int(sg.label == SUBGRAPH_SUSPICIOUS), origin=sg.id)
        )
    return pairs, graph.features, stats


def boundary_pools_reference(subgraphs, graph):
    """Subgraph-at-a-time reference for ``rec_eval.boundary_pools``."""
    plus_pool, minus_pool = [], []
    for sg in subgraphs:
        if sg.label is None:
            continue
        b = extract_boundary_reference(graph, sg)
        if has_empty_boundary(b):
            continue
        senders = tuple(sorted(b.senders))
        receivers = tuple(sorted(b.receivers))
        if sg.label == SUBGRAPH_SUSPICIOUS:
            if len(senders) == 1 and len(receivers) == 1:
                plus_pool.append((senders, receivers))
        elif sg.label == SUBGRAPH_LICIT:
            minus_pool.append((senders, receivers))
    return plus_pool, minus_pool


def infer_label(graph: BackgroundGraph, subgraph: Subgraph):
    """Label a subgraph from its boundary node labels.

    Suspicious when all senders are illicit and all receivers licit; licit
    when both sides are entirely licit; None otherwise (mixed, unknown, or
    empty boundary).
    """
    if graph.node_labels is None:
        return None
    b = extract_boundary_reference(graph, subgraph)
    if has_empty_boundary(b):
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


def one_pass_topk_argsort_reference(instance: RecTestInstance, k, scorer):
    """``rec_eval.one_pass_topk`` by a stable ``argsort`` of the whole grid,
    keeping its first k links."""
    p = np.asarray(scorer.grid(instance.senders, instance.receivers))
    n_r = len(instance.receivers)
    return [(instance.senders[i // n_r], instance.receivers[i % n_r])
            for i in np.argsort(-p.ravel(), kind="stable")[:k].tolist()]


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


def expand_ranges_reference(candidates):
    """``rev_filter.expand`` as a loop over ``(s_lo, s_hi, r_lo, r_hi)``
    range tuples: each side splits at its ceiling half, and the nonempty
    children replace their parent, in a list, in (S1,R1), (S1,R2), (S2,R1),
    (S2,R2) order."""
    out = []
    for s_lo, s_hi, r_lo, r_hi in candidates:
        s_mid = (s_lo + s_hi + 1) // 2
        r_mid = (r_lo + r_hi + 1) // 2
        for a, b in ((s_lo, s_mid), (s_mid, s_hi)):
            if a < b:
                for c, d in ((r_lo, r_mid), (r_mid, r_hi)):
                    if c < d:
                        out.append((a, b, c, d))
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


def _score_unscored(candidates, scorer):
    """(entries, pairs scored, failures): the (SRPair, score) entries with each
    score None filled from one scorer call over those pairs, in order."""
    fresh = [i for i, (_, score_val) in enumerate(candidates) if score_val is None]
    if not fresh:
        return candidates, 0, 0
    scores, failures = _score_all([candidates[i][0] for i in fresh], scorer)
    filled = list(candidates)
    for i, score_val in zip(fresh, scores):
        filled[i] = (filled[i][0], score_val)
    return filled, len(fresh), failures


def _ranked(candidates):
    """The (SRPair, score) entries in descending score order, stable on ties."""
    order = np.argsort(-np.asarray([score_val for _, score_val in candidates]), kind="stable")
    return [candidates[i] for i in order]


def filter_step_reference(candidates, keep_count, scorer):
    """Keep the top ``keep_count`` (SRPair, score) entries (stable on ties),
    scoring only the entries whose score is None; lists within budget pass
    through unscored."""
    if keep_count < 1:
        raise ValueError("keep_count must be >= 1")
    if len(candidates) <= keep_count:
        return candidates, 0, 0
    scored, made, failures = _score_unscored(candidates, scorer)
    return _ranked(scored)[:keep_count], made, failures


def rev_filter_reference(initial: SRPair, config: FilterConfig, scorer) -> FilterResult:
    """``rev_filter`` on (SRPair, score) entries with a per-split rule and RNG;
    ``scorer`` maps a list of SRPairs to their scores. An entry is scored
    once: a 1-1 pair carries its score through ``expand_reference``, and
    the final links are ranked by the scores the rounds gave them."""
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

    # rank by the last scored round; only a last round within budget leaves
    # unscored entries, and scoring them is then their only scoring
    candidates, made, failed = _score_unscored(candidates, scorer)
    calls += made
    failures += failed
    return FilterResult(
        links=_ranked(candidates)[: config.k],
        iterations=iteration,
        classifier_calls=calls,
        scorer_failures=failures,
    )


class _Allocator:
    def __init__(self):
        self.next_id = 0

    def take(self):
        v = self.next_id
        self.next_id += 1
        return v

    def take_many(self, n):
        ids = list(range(self.next_id, self.next_id + n))
        self.next_id += n
        return ids


def _build_scheme_reference(rng, alloc, scheme, config):
    """Create one scheme; returns (subgraph_nodes, internal_edges,
    boundary_edges, senders, receivers, member_ids)."""
    lo, hi = config.chain_length_range

    if scheme == "nested_service":
        fan = int(rng.integers(config.fanin_range[0], config.fanin_range[1] + 1))
        senders = alloc.take_many(fan)
        hops = alloc.take_many(fan)
        service = alloc.take()
        receiver = alloc.take()
        internal = [(h, service) for h in hops]
        boundary = [(s, h) for s, h in zip(senders, hops)] + [(service, receiver)]
        nodes = hops + [service]
        return nodes, internal, boundary, senders, [receiver], nodes

    m = int(rng.integers(lo, hi + 1))
    chain = alloc.take_many(m)
    sender = alloc.take()
    receiver = alloc.take()
    internal = [(chain[i], chain[i + 1]) for i in range(m - 1)]
    if scheme == "peeling_chain":
        internal += [(chain[i], chain[-1]) for i in range(m - 2)]
    boundary = [(sender, chain[0]), (chain[-1], receiver)]
    return chain, internal, boundary, [sender], [receiver], chain


def generate_reference(config: SynthConfig) -> SynthDataset:
    """Dict-and-set reference for ``synth_gen.generate``: one id allocator,
    per-entity label and signature dicts, and Python loops over all entities
    to build the feature and label arrays. Draws the same random numbers in
    the same order, so the two give identical datasets."""
    rng = np.random.default_rng(config.seed)
    alloc = _Allocator()
    mix_probs = np.array([config.scheme_mix[s] for s in SCHEME_NAMES])

    labels = {}
    signatures = {}  # node -> signature vector
    risky_receivers = set()
    all_edges = set()
    subgraphs = []
    scheme_member_nodes = set()

    plan = [(True, i) for i in range(config.num_suspicious)] + [
        (False, i) for i in range(config.num_licit_subgraphs)
    ]
    for suspicious, idx in plan:
        scheme = SCHEME_NAMES[int(rng.choice(len(SCHEME_NAMES), p=mix_probs))]
        nodes, internal, boundary, senders, receivers, members = _build_scheme_reference(
            rng, alloc, scheme, config
        )
        sender_label = ILLICIT if suspicious else LICIT
        for s in senders:
            labels[s] = sender_label
        for r in receivers:
            labels[r] = LICIT
            if suspicious:
                risky_receivers.add(r)
        for v in members:
            labels[v] = UNKNOWN
        if config.scheme_signature_sigma > 0:
            z = rng.normal(
                scale=config.scheme_signature_sigma, size=config.feature_dim
            )
            for v in senders + receivers + members:
                signatures[v] = z
        all_edges.update(internal)
        all_edges.update(boundary)
        scheme_member_nodes.update(nodes)
        prefix = "sus" if suspicious else "lic"
        subgraphs.append(
            Subgraph(
                id=f"{prefix}-{idx:04d}",
                nodes=tuple(nodes),
                edges=tuple(internal),
                label=SUBGRAPH_SUSPICIOUS if suspicious else SUBGRAPH_LICIT,
            )
        )

    if alloc.next_id > config.num_entities:
        raise GenerationError(
            f"num_entities={config.num_entities} too small for the requested "
            f"subgraphs; requires at least {alloc.next_id}"
        )

    # Leftover entities form the licit/unknown background population.
    for v in range(alloc.next_id, config.num_entities):
        labels[v] = LICIT if rng.random() < 0.5 else UNKNOWN

    # Noise edges among non-member licit/unknown entities. Members are
    # excluded so no subgraph gains or loses a source, sink, sender, or
    # receiver; illicit entities are excluded by label.
    pool = np.array(
        sorted(
            v
            for v in range(config.num_entities)
            if v not in scheme_member_nodes and labels[v] != ILLICIT
        ),
        dtype=np.int64,
    )
    added = 0
    attempts = 0
    max_attempts = 20 * config.background_noise_edges + 100
    while added < config.background_noise_edges and attempts < max_attempts:
        attempts += 1
        if len(pool) < 2:
            break
        u, v = (int(x) for x in rng.choice(pool, size=2, replace=False))
        if (u, v) not in all_edges:
            all_edges.add((u, v))
            added += 1

    means = np.stack(
        [config.class_means[labels[v]] for v in range(config.num_entities)]
    )
    # Receivers of suspicious flows: licit-labeled services whose behavior
    # skews toward the illicit population.
    axis = config.class_means[ILLICIT] - config.class_means[LICIT]
    norm = float(np.linalg.norm(axis))
    if risky_receivers and config.risky_receiver_shift > 0 and norm > 0:
        shift = config.risky_receiver_shift * axis / norm
        for r in risky_receivers:
            means[r] = means[r] + shift
    sig = np.zeros((config.num_entities, config.feature_dim))
    for v, z in signatures.items():
        sig[v] = z
    noise = config.feature_noise_sigma * rng.standard_normal(
        (config.num_entities, config.feature_dim)
    )
    features = means + sig + noise
    label_arr = np.array([labels[v] for v in range(config.num_entities)], dtype=np.int8)

    graph = build_graph(config.num_entities, all_edges, features, label_arr)
    return SynthDataset(graph=graph, subgraphs=subgraphs)


# ---------------------------------------------------------------------------
# merge augmentation: the draws as rng.choice calls


def make_finetune_set_reference(pairs, config: AugmentConfig):
    """``rev_filter.make_finetune_set`` drawing each merge size with
    ``rng.choice(sizes, p=pmf)``, numpy's own weighted draw."""
    if not pairs:
        raise ValueError("cannot augment an empty pair list")
    lo, hi = config.merge_range
    pmf = truncated_exp_pmf(config.gamma, lo, hi)
    sizes = np.arange(lo, hi + 1)
    rng = np.random.default_rng(config.seed)
    n_out = config.num_outputs if config.num_outputs is not None else len(pairs)
    out = []
    for _ in range(n_out):
        n_merge = min(int(rng.choice(sizes, p=pmf)), len(pairs))
        chosen = rng.choice(len(pairs), size=n_merge, replace=False)
        senders, receivers = set(), set()
        label = 0
        origins = []
        for i in chosen:
            p = pairs[int(i)]
            senders.update(p.sr.senders)
            receivers.update(p.sr.receivers)
            label = max(label, p.label)
            origins.append(p.origin)
        out.append(
            LabeledPair(
                sr=SRPair(senders=tuple(senders), receivers=tuple(receivers)),
                label=label,
                origin="+".join(origins),
            )
        )
    return out


# ---------------------------------------------------------------------------
# neural_core references: out-of-place dense layers, the masked sigmoid, an
# allocating Adam and per-side block tables


def init_adam_reference(params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """``neural_core.init_adam`` with one ``zeros_like`` array per moment."""
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
    )


def adam_step_reference(state: AdamState, params, grads):
    """``neural_core.adam_step`` replacing each moment by a new array."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        m_hat = state.m[i] / (1 - b1**t)
        v_hat = state.v[i] / (1 - b2**t)
        out.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
    return out


def mlp_forward_reference(params, x, cache=None):
    """``neural_core.mlp_forward`` as plain out-of-place layers: each layer
    computes ``a @ w.T + b`` into a new array, caches (input,
    pre-activation) and applies its activation into another new array."""
    single = np.ndim(x) == 1
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if a.shape[1] != params.weights[0].shape[1]:
        raise ShapeError(f"input dim {a.shape[1]} != expected {params.weights[0].shape[1]}")
    for w, b, act in zip(params.weights, params.biases, params.activations):
        if act not in ("relu", "identity"):
            raise ValueError(f"unknown activation {act!r}")
        z = a @ w.T + b
        if cache is not None:
            cache.append((a, z))
        a = np.maximum(z, 0.0) if act == "relu" else z
    return a[0] if single else a


def sigmoid_reference(z):
    """``neural_core.sigmoid`` with each sign branch computed on its own
    masked subset of ``z``."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def encode_sides_reference(model, xs, xr):
    """``neural_core.encode_sides`` with one table per side: ds, a tuple of
    the sender and the receiver (n + 1, h) table ``[0; cumsum(phi(x))] @
    W_rho.T``, each from its own product; bp, the raw rows."""
    xs, xr = (np.asarray(x, dtype=np.float64) for x in (xs, xr))
    if model.arch == "bp":
        return xs, xr
    tables = []
    for side, x in (("sender", xs), ("receiver", xr)):
        u = mlp_forward(model.mlps[f"{side}_phi"], x)
        sums = np.zeros((len(u) + 1, u.shape[1]))
        np.cumsum(u, axis=0, out=sums[1:])
        tables.append(sums @ model.mlps[f"{side}_rho"].weights[0].T)
    return tuple(tables)


def block_logits_reference(model, encoded, blocks):
    """``neural_core.block_logits`` over ``encode_sides_reference``'s tables:
    one bounds check per side, and per side one difference of two table
    gathers written into its half of the (blocks, 2h) rho input."""
    b = np.asarray(blocks, dtype=np.int64).reshape(-1, 4)
    ds = model.arch == "ds"
    slices = ((encoded[0], b[:, 0], b[:, 1]), (encoded[1], b[:, 2], b[:, 3]))
    for table, lo, hi in slices:  # a ds table has a row more than its side
        if not ((0 <= lo) & (lo < hi) & (hi <= len(table) - ds)).all():
            raise ValueError("every block needs a nonempty slice of each side")
    if not ds:
        (us, ns), (ur, nr) = ((u[segment_rows(lo, hi)], hi - lo) for u, lo, hi in slices)
        return batch_logits(model, us, ur, ns, nr)
    k = encoded[0].shape[1]
    joint = np.empty((len(b), 2 * k))
    for half, (table, lo, hi), side in zip((joint[:, :k], joint[:, k:]), slices,
                                           ("sender", "receiver")):
        np.subtract(table[hi], table[lo], out=half)
        if model.config["pool"] == "mean":
            half /= (hi - lo)[:, None]
        half += model.mlps[f"{side}_rho"].biases[0]
    np.maximum(joint, 0.0, out=joint)
    return mlp_forward(model.mlps["logit"], mlp_forward(model.mlps["trunk"], joint))[:, 0]


def grid_logits_reference(model, xs, xr, chunk):
    """``neural_core.grid_logits`` with a ds block built as a 3-D broadcast
    outer sum ``z_s[lo:hi, None] + z_r[None]`` and run through the trunk's
    second layer by ``mlp_forward``; the same blocks, matmul shapes and per-block
    logit call."""
    xs = np.asarray(xs, dtype=np.float64)
    xr = np.asarray(xr, dtype=np.float64)
    if not len(xs) or not len(xr):
        raise ValueError("every pair needs nonempty sender and receiver sets")
    for x in (xs, xr):
        if x.shape[1] != model.config["feature_dim"]:
            raise ShapeError(f"input dim {x.shape[1]} != expected {model.config['feature_dim']}")
    n_s, n_r = len(xs), len(xr)
    if model.arch == "ds":
        trunk = model.mlps["trunk"]
        k = model.mlps["sender_rho"].weights[-1].shape[0]
        h_s, h_r = (mlp_forward(model.mlps[f"{side}_rho"],
                                mlp_forward(model.mlps[f"{side}_phi"], x))
                    for side, x in (("sender", xs), ("receiver", xr)))
        z_s = h_s @ trunk.weights[0][:, :k].T
        z_r = h_r @ trunk.weights[0][:, k:].T + trunk.biases[0]
        rest = MlpParams(trunk.weights[1:], trunk.biases[1:], trunk.activations[1:])

        def block(lo, hi):
            a = z_s[lo:hi, None] + z_r[None]
            np.maximum(a, 0.0, out=a)  # the first trunk layer's ReLU
            return mlp_forward(model.mlps["logit"],
                               mlp_forward(rest, a.reshape(-1, a.shape[-1])))[:, 0]
    else:
        def block(lo, hi):
            ones = np.ones((hi - lo) * n_r, dtype=np.int64)
            return batch_logits(model, xs[np.repeat(np.arange(lo, hi), n_r)],
                                xr[np.tile(np.arange(n_r), hi - lo)], ones, ones)
    out = np.empty((n_s, n_r))
    rows = max(1, chunk // n_r)
    for lo in range(0, n_s, rows):
        hi = min(lo + rows, n_s)
        out[lo:hi] = block(lo, hi).reshape(hi - lo, n_r)
    return out
