"""Link-recommendation benchmark: instance construction, HR@k, NDCG@k.

An instance merges the boundaries of a few labeled subgraphs into one
candidate sender set and receiver set; the suspicious subgraphs contribute
the ground-truth links. Instance difficulty is summarized by the density
n+ / (|S| * |R|).
"""

import math
from dataclasses import dataclass

import numpy as np

from .classifier import SRPair
from .graph_core import (
    SUBGRAPH_LICIT,
    SUBGRAPH_SUSPICIOUS,
    boundary_sides,
    extract_boundary,  # noqa: F401  (the benchmark's tracer wraps rec_eval.extract_boundary)
)
from .rev_filter import FilterConfig, check_k, rev_filter


@dataclass(frozen=True)
class RecTestInstance:
    senders: tuple
    receivers: tuple
    truth_links: frozenset  # {(sender, receiver)}
    n_plus: int
    n_minus: int

    @property
    def density(self) -> float:
        return self.n_plus / (len(self.senders) * len(self.receivers))

    @property
    def initial_pair(self) -> SRPair:
        return SRPair(senders=self.senders, receivers=self.receivers)


def boundary_pools(subgraphs, graph):
    """Split labeled subgraphs into the 1-1 suspicious pool and licit pool.

    Returns (plus_pool, minus_pool): plus entries are (senders, receivers)
    with singleton sides; minus entries are full boundary tuples. Subgraphs
    with an empty boundary side are dropped, as downstream stages cannot
    use them.
    """
    labeled = [sg for sg in subgraphs if sg.label is not None]
    plus_pool, minus_pool = [], []
    for sg, (senders, receivers) in zip(labeled, boundary_sides(graph, labeled)):
        if not senders or not receivers:
            continue
        if sg.label == SUBGRAPH_SUSPICIOUS:
            if len(senders) == 1 and len(receivers) == 1:
                plus_pool.append((senders, receivers))
        elif sg.label == SUBGRAPH_LICIT:
            minus_pool.append((senders, receivers))
    return plus_pool, minus_pool


def _instance_from_pools(plus_pool, minus_pool, n_plus, n_minus, seed):
    if len(plus_pool) < n_plus or len(minus_pool) < n_minus:
        raise ValueError(
            f"insufficient subgraph pools: need {n_plus} one-one suspicious "
            f"(have {len(plus_pool)}) and {n_minus} licit (have {len(minus_pool)})"
        )
    rng = np.random.default_rng(seed)
    plus_idx = rng.choice(len(plus_pool), size=n_plus, replace=False)
    senders, receivers, truth = set(), set(), set()
    for i in plus_idx:
        s_set, r_set = plus_pool[int(i)]
        senders.update(s_set)
        receivers.update(r_set)
        truth.add((s_set[0], r_set[0]))
    if n_minus:
        minus_idx = rng.choice(len(minus_pool), size=n_minus, replace=False)
        for i in minus_idx:
            s_set, r_set = minus_pool[int(i)]
            senders.update(s_set)
            receivers.update(r_set)
    if len(truth) < n_plus:
        raise ValueError("sampled suspicious subgraphs share a link; use more data")
    return RecTestInstance(
        senders=tuple(sorted(senders)),
        receivers=tuple(sorted(receivers)),
        truth_links=frozenset(truth),
        n_plus=n_plus,
        n_minus=n_minus,
    )


# ---------------------------------------------------------------------------
# metrics


def hit_ratio(recommended, truth, k) -> float:
    """Fraction of ground-truth links present in the top-k recommendations."""
    if not truth:
        raise ValueError("hit ratio undefined for empty truth set")
    check_k(k)
    top = list(recommended)[:k]
    return len(set(top) & set(truth)) / len(truth)


def ndcg(recommended, truth, k) -> float:
    """Binary-relevance NDCG@k with a log2 rank discount."""
    if not truth:
        raise ValueError("ndcg undefined for empty truth set")
    check_k(k)
    truth = set(truth)
    top = list(recommended)[:k]
    dcg = sum(
        1.0 / math.log2(rank + 1)
        for rank, link in enumerate(top, start=1)
        if link in truth
    )
    ideal = sum(1.0 / math.log2(rank + 1) for rank in range(1, min(len(truth), k) + 1))
    return dcg / ideal


# ---------------------------------------------------------------------------
# benchmark harness


@dataclass
class BenchmarkConfig:
    # full calls scorer.blocks(senders, receivers), as rev_filter does;
    # no-iter calls scorer.grid(senders, receivers) -> (|S|, |R|)
    # probabilities; PairScorer has both
    scorer: object
    variant: str = "full"          # full | no-iter
    alpha_keep: float = 1.5
    split_rule: str = "sorted_id"
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ("full", "no-iter"):
            raise ValueError(f"unknown benchmark variant {self.variant!r}")
        # reject bad filter settings before any instance is built
        FilterConfig(k=1, alpha_keep=self.alpha_keep, split_rule=self.split_rule)


def one_pass_topk(instance: RecTestInstance, k, scorer):
    """The k best 1-1 links of S x R from one ``scorer.grid`` call (no iterations).

    Ties keep sender-major link order (stable sort); no link list is built.
    """
    check_k(k)
    p = np.asarray(scorer.grid(instance.senders, instance.receivers))
    n_r = len(instance.receivers)
    return [(instance.senders[i // n_r], instance.receivers[i % n_r])
            for i in np.argsort(-p.ravel(), kind="stable")[:k].tolist()]


def recommend_links(instance: RecTestInstance, k, config: BenchmarkConfig, seed):
    """Ranked (sender, receiver) list for one instance under one variant."""
    if config.variant == "no-iter":
        return one_pass_topk(instance, k, config.scorer)
    result = rev_filter(
        instance.initial_pair,
        FilterConfig(k=k, alpha_keep=config.alpha_keep, split_rule=config.split_rule,
                     seed=seed),
        config.scorer,
    )
    return [(sr.senders[0], sr.receivers[0]) for sr, _ in result.links]


def check_benchmark(settings, n_instances):
    """Reject a run with no setting or with no instance per setting."""
    if not settings:
        raise ValueError("no benchmark setting given")
    if n_instances < 1:
        raise ValueError(f"need at least one instance per setting, got {n_instances}")


def run_benchmark(dataset, settings, n_instances, config: BenchmarkConfig):
    """Mean HR/NDCG (with standard errors) per (n+, n-, k) setting.

    ``dataset`` provides .graph and .subgraphs. Instance i of every setting
    uses seed config.seed + i, so tables are reproducible and instances are
    shared across variants run with the same seed.
    """
    check_benchmark(settings, n_instances)
    plus_pool, minus_pool = boundary_pools(dataset.subgraphs, dataset.graph)
    results = {}
    for n_plus, n_minus, k in settings:
        rows = []
        for i in range(n_instances):
            seed_i = config.seed + i
            instance = _instance_from_pools(
                plus_pool, minus_pool, n_plus, n_minus, seed_i
            )
            links = recommend_links(instance, k, config, seed_i)
            truth = instance.truth_links
            rows.append((hit_ratio(links, truth, k), ndcg(links, truth, k), instance.density))
        hrs, ndcgs, densities = (np.array(column) for column in zip(*rows))
        se = lambda a: float(a.std(ddof=1) / math.sqrt(len(a))) if len(a) > 1 else 0.0
        results[f"{n_plus}+{n_minus}@{k}"] = {
            "hr_mean": float(hrs.mean()),
            "hr_se": se(hrs),
            "ndcg_mean": float(ndcgs.mean()),
            "ndcg_se": se(ndcgs),
            "density_mean": float(densities.mean()),
        }
    return results


def parse_setting(text: str):
    """Parse "1+5@1" into (n_plus, n_minus, k); needs n+ >= 1, n- >= 0, k >= 1."""
    try:
        plus_part, k_part = text.split("@")
        n_plus, n_minus = plus_part.split("+")
        setting = int(n_plus), int(n_minus), int(k_part)
    except ValueError as exc:
        raise ValueError(f"bad setting {text!r}; expected like '1+5@1'") from exc
    if setting[0] < 1 or setting[1] < 0 or setting[2] < 1:
        raise ValueError(f"bad setting {text!r}; needs n+ >= 1, n- >= 0 and k >= 1")
    return setting
