"""Synthetic background graphs with planted laundering-style subgraphs.

Three scheme shapes are generated, for both the suspicious and the licit
class so that internal structure alone carries no label signal:

* peeling chain: a directed chain of intermediates where every intermediate
  also points at the chain end; one external sender feeds the head, the tail
  deposits at one external receiver.
* nested service: several external senders, each with a short path that
  merges on a single service node, which deposits at one external receiver.
* random path: a plain directed chain between one sender and one receiver.

Suspicious subgraphs have illicit senders and licit receivers; licit ones
have licit senders and receivers. Intermediates are unlabeled ("unknown").

Node features are drawn as class_mean(label) + role shift + scheme
signature + noise. Two structured components model real-world texture:

* risky-receiver shift: receivers of suspicious schemes are licit-labeled
  services whose feature mean is shifted toward the illicit mean, the way
  lax-due-diligence services that attract laundering deposits behave
  differently from ordinary exchanges. This is what makes the specific
  receiving end of a flow identifiable rather than just "this sender looks
  illicit".
* scheme signature: a per-scheme latent vector shared by every entity the
  scheme touches (both classes get one, so it does not leak the label),
  modeling correlated traces one flow of funds leaves at both ends.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .graph_core import (
    ILLICIT,
    LICIT,
    SUBGRAPH_LICIT,
    SUBGRAPH_SUSPICIOUS,
    UNKNOWN,
    BackgroundGraph,
    Subgraph,
    build_graph,
    extract_boundary,  # noqa: F401  (the benchmark's tracer wraps synth_gen.extract_boundary)
)

SCHEME_NAMES = ("peeling_chain", "nested_service", "random_path")


class GenerationError(ValueError):
    """Raised when the requested dataset cannot be generated."""


def default_class_means(feature_dim, separation=2.0):
    """Licit and illicit means a Euclidean distance ``separation`` apart."""
    offset = separation / (2.0 * math.sqrt(feature_dim))
    return {
        LICIT: np.full(feature_dim, -offset),
        ILLICIT: np.full(feature_dim, offset),
        UNKNOWN: np.zeros(feature_dim),
    }


@dataclass
class SynthConfig:
    num_entities: int = 5000
    feature_dim: int = 8
    class_means: dict | None = None  # label code -> vector; None = defaults
    feature_noise_sigma: float = 0.97
    scheme_signature_sigma: float = 0.25
    risky_receiver_shift: float = 2.0
    num_suspicious: int = 300
    num_licit_subgraphs: int = 300
    scheme_mix: dict = field(
        default_factory=lambda: {
            "peeling_chain": 0.25,
            "nested_service": 0.55,
            "random_path": 0.20,
        }
    )
    chain_length_range: tuple = (2, 5)
    fanin_range: tuple = (2, 5)
    background_noise_edges: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.class_means is None:
            self.class_means = default_class_means(self.feature_dim)
        else:
            self.class_means = {
                k: np.broadcast_to(
                    np.asarray(v, dtype=np.float64), (self.feature_dim,)
                ).copy()
                for k, v in self.class_means.items()
            }
        total = sum(self.scheme_mix.get(s, 0.0) for s in SCHEME_NAMES)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"scheme_mix must sum to 1, got {total}")
        for name, rng_ in (("chain_length_range", self.chain_length_range),
                           ("fanin_range", self.fanin_range)):
            lo, hi = rng_
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} must satisfy 1 <= lo <= hi, got {rng_}")
        if self.feature_noise_sigma < 0 or self.scheme_signature_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")

    def to_json_dict(self) -> dict:
        from .graph_core import NODE_LABEL_NAMES

        return {
            "num_entities": self.num_entities,
            "feature_dim": self.feature_dim,
            "class_means": {
                NODE_LABEL_NAMES[k]: list(map(float, v))
                for k, v in self.class_means.items()
            },
            "feature_noise_sigma": self.feature_noise_sigma,
            "scheme_signature_sigma": self.scheme_signature_sigma,
            "risky_receiver_shift": self.risky_receiver_shift,
            "num_suspicious": self.num_suspicious,
            "num_licit_subgraphs": self.num_licit_subgraphs,
            "scheme_mix": dict(self.scheme_mix),
            "chain_length_range": list(self.chain_length_range),
            "fanin_range": list(self.fanin_range),
            "background_noise_edges": self.background_noise_edges,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SynthConfig":
        from .graph_core import NODE_LABEL_CODES

        kwargs = dict(data)
        if kwargs.get("class_means") is not None:
            kwargs["class_means"] = {
                NODE_LABEL_CODES[k]: v for k, v in kwargs["class_means"].items()
            }
        for key in ("chain_length_range", "fanin_range"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass
class SynthDataset:
    graph: BackgroundGraph
    subgraphs: list
    config: SynthConfig | None = None


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


def _build_scheme(rng, alloc, scheme, config):
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


def generate(config: SynthConfig) -> SynthDataset:
    """Generate a dataset; deterministic for a given config (seed included)."""
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
        nodes, internal, boundary, senders, receivers, members = _build_scheme(
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
    return SynthDataset(graph=graph, subgraphs=subgraphs, config=config)
