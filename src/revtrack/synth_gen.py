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
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .graph_core import (
    ILLICIT,
    LICIT,
    NODE_LABEL_CODES,
    NODE_LABEL_NAMES,
    SUBGRAPH_LICIT,
    SUBGRAPH_SUSPICIOUS,
    UNKNOWN,
    BackgroundGraph,
    Subgraph,
    build_graph,
    extract_boundary,  # noqa: F401  (the benchmark's tracer wraps synth_gen.extract_boundary)
    is_number,
)

SCHEME_NAMES = ("peeling_chain", "nested_service", "random_path")
_RANGES = ("chain_length_range", "fanin_range")


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
    """Generator settings. Raises ValueError on a negative count or seed, a
    num_entities or feature_dim below 1, a negative or non-finite sigma or
    shift, a bool in any of these, a
    scheme_mix with an unknown name, a negative weight or a sum other than 1
    (a missing name weighs 0), class_means that do not give all three labels,
    or a range that is not two integers (not bools) 1 <= lo <= hi."""

    num_entities: int = 5000
    feature_dim: int = 8
    class_means: dict | None = None  # label code -> vector; None = defaults
    feature_noise_sigma: float = 0.97
    scheme_signature_sigma: float = 0.25
    risky_receiver_shift: float = 2.0
    num_suspicious: int = 300
    num_licit_subgraphs: int = 300
    scheme_mix: dict = field(default_factory=lambda: {
        "peeling_chain": 0.25, "nested_service": 0.55, "random_path": 0.20})
    chain_length_range: tuple = (2, 5)
    fanin_range: tuple = (2, 5)
    background_noise_edges: int = 500
    seed: int = 0

    def __post_init__(self):
        for name, lo in (("num_entities", 1), ("feature_dim", 1), ("num_suspicious", 0),
                         ("num_licit_subgraphs", 0), ("background_noise_edges", 0),
                         ("seed", 0)):
            value = getattr(self, name)
            if not is_number(value) or value < lo:
                raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")
        for name in ("feature_noise_sigma", "scheme_signature_sigma", "risky_receiver_shift"):
            value = getattr(self, name)
            if not (is_number(value, numbers.Real) and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.class_means is None:
            self.class_means = default_class_means(self.feature_dim)
        elif not (isinstance(self.class_means, dict)
                  and set(self.class_means) == set(NODE_LABEL_NAMES)):
            raise ValueError("class_means must give a vector for each label ("
                             + ", ".join(NODE_LABEL_NAMES.values()) + ")")
        else:
            self.class_means = {
                k: np.broadcast_to(
                    np.asarray(v, dtype=np.float64), (self.feature_dim,)
                ).copy()
                for k, v in self.class_means.items()
            }
        if not (isinstance(self.scheme_mix, dict) and set(self.scheme_mix) <= set(SCHEME_NAMES)):
            raise ValueError(f"scheme_mix must map some of {', '.join(SCHEME_NAMES)} "
                             f"to weights, got {self.scheme_mix!r}")
        if not all(isinstance(w, numbers.Real) and w >= 0 for w in self.scheme_mix.values()):
            raise ValueError(f"scheme_mix weights must be >= 0, got {self.scheme_mix}")
        total = sum(self.scheme_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"scheme_mix must sum to 1, got {total}")
        for name in _RANGES:
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(is_number(x) for x in pair)
                    and 1 <= pair[0] <= pair[1]):
                raise ValueError(f"{name} must satisfy 1 <= lo <= hi, got {pair}")

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["class_means"] = {NODE_LABEL_NAMES[k]: list(map(float, v))
                              for k, v in self.class_means.items()}
        out["scheme_mix"] = dict(self.scheme_mix)
        for key in _RANGES:
            out[key] = list(out[key])
        return out

    @classmethod
    def from_json_dict(cls, data) -> "SynthConfig":
        """The config ``to_json_dict`` wrote; a missing key takes its default.
        Raises ValueError unless ``data`` is an object of config keys."""
        if not isinstance(data, dict):
            raise ValueError(f"generator config must be a JSON object, got {data!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown generator config keys {sorted(unknown)}")
        kwargs = dict(data)
        if isinstance(kwargs.get("class_means"), dict):  # __post_init__ rejects unknown names
            kwargs["class_means"] = {NODE_LABEL_CODES.get(k, k): v
                                     for k, v in kwargs["class_means"].items()}
        for key in _RANGES:
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass
class SynthDataset:
    graph: BackgroundGraph
    subgraphs: list


def _build_scheme(rng, start, scheme, config):
    """Create one scheme from the ids ``start``, ``start + 1``, ...; returns
    (subgraph_nodes, internal_edges, boundary_edges, senders, receivers,
    next free id)."""
    if scheme == "nested_service":
        fan = int(rng.integers(config.fanin_range[0], config.fanin_range[1] + 1))
        senders = list(range(start, start + fan))
        hops = list(range(start + fan, start + 2 * fan))
        service, receiver = start + 2 * fan, start + 2 * fan + 1
        internal = [(h, service) for h in hops]
        boundary = list(zip(senders, hops)) + [(service, receiver)]
        return hops + [service], internal, boundary, senders, [receiver], receiver + 1

    lo, hi = config.chain_length_range
    m = int(rng.integers(lo, hi + 1))
    chain = list(range(start, start + m))
    sender, receiver = start + m, start + m + 1
    internal = [(chain[i], chain[i + 1]) for i in range(m - 1)]
    if scheme == "peeling_chain":
        internal += [(chain[i], chain[-1]) for i in range(m - 2)]
    boundary = [(sender, chain[0]), (chain[-1], receiver)]
    return chain, internal, boundary, [sender], [receiver], receiver + 1


def generate(config: SynthConfig) -> SynthDataset:
    """Generate a dataset; deterministic for a given config (seed included)."""
    rng = np.random.default_rng(config.seed)
    n, d = config.num_entities, config.feature_dim
    # rng.choice(len(SCHEME_NAMES), p=weights) searches this CDF for one
    # rng.random() draw; built once, it gives the same kinds and RNG state
    mix_cdf = np.array([config.scheme_mix.get(s, 0.0) for s in SCHEME_NAMES],
                       dtype=np.float64).cumsum()
    mix_cdf /= mix_cdf[-1]

    all_edges = set()
    subgraphs = []
    schemes = []  # (senders, receivers, nodes, suspicious, signature or None)
    next_id = 0
    plan = ([(True, i) for i in range(config.num_suspicious)]
            + [(False, i) for i in range(config.num_licit_subgraphs)])
    for suspicious, idx in plan:
        scheme = SCHEME_NAMES[int(mix_cdf.searchsorted(rng.random(), side="right"))]
        nodes, internal, boundary, senders, receivers, next_id = _build_scheme(
            rng, next_id, scheme, config
        )
        z = None
        if config.scheme_signature_sigma > 0:
            z = rng.normal(scale=config.scheme_signature_sigma, size=d)
        schemes.append((senders, receivers, nodes, suspicious, z))
        all_edges.update(internal)
        all_edges.update(boundary)
        subgraphs.append(Subgraph(
            id=f"{'sus' if suspicious else 'lic'}-{idx:04d}", nodes=tuple(nodes),
            edges=tuple(internal),
            label=SUBGRAPH_SUSPICIOUS if suspicious else SUBGRAPH_LICIT))

    if next_id > n:
        raise GenerationError(f"num_entities={n} too small for the requested "
                              f"subgraphs; requires at least {next_id}")

    # One array per entity attribute. Scheme intermediates stay UNKNOWN.
    labels = np.full(n, UNKNOWN, dtype=np.int8)
    member = np.zeros(n, dtype=bool)
    risky = np.zeros(n, dtype=bool)
    sig = np.zeros((n, d))
    for senders, receivers, nodes, suspicious, z in schemes:
        labels[senders] = ILLICIT if suspicious else LICIT
        labels[receivers] = LICIT
        member[nodes] = True
        risky[receivers] = suspicious
        if z is not None:
            sig[senders + receivers + nodes] = z
    # Leftover entities form the licit/unknown background population.
    labels[next_id:] = np.where(rng.random(n - next_id) < 0.5, LICIT, UNKNOWN)

    # Noise edges among non-member licit/unknown entities. Members are
    # excluded so no subgraph gains or loses a source, sink, sender, or
    # receiver; illicit entities are excluded by label.
    pool = np.flatnonzero(~member & (labels != ILLICIT))
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

    # Rows in label-code order, so the label column indexes the table.
    means = np.stack([config.class_means[c] for c in (LICIT, ILLICIT, UNKNOWN)])[labels]
    # Receivers of suspicious flows: licit-labeled services whose behavior
    # skews toward the illicit population.
    axis = config.class_means[ILLICIT] - config.class_means[LICIT]
    norm = float(np.linalg.norm(axis))
    if config.risky_receiver_shift > 0 and norm > 0:
        means[risky] += config.risky_receiver_shift * axis / norm
    noise = config.feature_noise_sigma * rng.standard_normal((n, d))
    features = means + sig + noise

    graph = build_graph(n, all_edges, features, labels)
    return SynthDataset(graph=graph, subgraphs=subgraphs)
