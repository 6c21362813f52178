"""Boundary-pair classification: dataset assembly, splits, training, metrics.

A labeled subgraph is reduced to the pair (sender set, receiver set) of its
boundary; the classifier never sees the subgraph interior. Node ids are
dense row indices into the graph's (num_nodes, d) feature array, which
every function here indexes directly.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import neural_core as nc
from .graph_core import (
    SUBGRAPH_SUSPICIOUS,
    boundary_sides,
    check_seed,
    extract_boundary,  # noqa: F401  (the benchmark's tracer wraps classifier.extract_boundary)
    is_number,
)


class TrainingError(RuntimeError):
    """Raised when optimization diverges."""


@dataclass(frozen=True, order=True)
class SRPair:
    """A (sender set, receiver set) pair; node ids, kept sorted."""

    senders: tuple
    receivers: tuple

    def __post_init__(self):
        object.__setattr__(self, "senders", tuple(sorted(self.senders)))
        object.__setattr__(self, "receivers", tuple(sorted(self.receivers)))

    @property
    def is_one_one(self) -> bool:
        """One sender and one receiver; only ``bench/workloads.py`` reads it."""
        return len(self.senders) == 1 and len(self.receivers) == 1


@dataclass
class LabeledPair:
    sr: SRPair
    label: int  # 0 licit, 1 suspicious
    origin: str = ""


@dataclass
class SplitSpec:
    seed: int = 0
    few_shot_fraction: float = 1.0

    def __post_init__(self):
        check_seed(self.seed)
        fraction = self.few_shot_fraction
        if not (is_number(fraction, numbers.Real) and 0.0 < fraction <= 1.0):
            raise ValueError("few_shot_fraction must be in (0, 1]")


@dataclass
class ClassifierMetrics:
    pr_auc: float
    f1: float
    threshold: float


@dataclass
class TrainConfig:
    hidden_dim: int = 64
    pool: str = "sum"  # ds pool or bp readout
    lr: float = 1e-3
    batch_size: int = 256
    epochs: int = 150
    patience: int = 20
    pos_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("hidden_dim", 1), ("batch_size", 1), ("epochs", 0), ("patience", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if not (is_number(value) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("lr", "pos_weight"):
            value = getattr(self, name)
            if not (is_number(value, numbers.Real) and 0.0 < value < math.inf):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


def make_pairs(graph, subgraphs):
    """Boundary pairs for every labeled subgraph with a nonempty boundary.

    Returns (pairs, graph.features, stats); stats counts skipped subgraphs.
    The features are ``graph.features`` itself; ``bench/workloads.py``
    reads them as ``fmap``, which keeps this return value alive.
    """
    labeled = [sg for sg in subgraphs if sg.label is not None]
    pairs = [
        LabeledPair(sr=SRPair(senders=s, receivers=r),
                    label=int(sg.label == SUBGRAPH_SUSPICIOUS), origin=sg.id)
        for sg, (s, r) in zip(labeled, boundary_sides(graph, labeled))
        if s and r
    ]
    stats = {"empty_boundary": len(labeled) - len(pairs),
             "unlabeled": len(subgraphs) - len(labeled)}
    return pairs, graph.features, stats


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def by_class(pairs):
    """The pairs of each class present, positives first, each in input order."""
    groups = ([p for p in pairs if p.label == 1], [p for p in pairs if p.label == 0])
    return [group for group in groups if group]


def deal(pairs, seed, min_sizes):
    """Stratified seeded hold-outs: (part 0, part 1, ..., rest).

    Each class of n pairs, positives first, is shuffled once by
    ``default_rng(seed)``; part i then takes the next round-half-up(0.1 n)
    pairs from the front, and at least one when n >= ``min_sizes[i]``.
    """
    rng = np.random.default_rng(seed)
    parts = [[] for _ in range(len(min_sizes) + 1)]
    for group in by_class(pairs):
        shuffled = [group[i] for i in rng.permutation(len(group))]
        n, start = len(group), 0
        for part, low in zip(parts, min_sizes):
            take = max(round_half_up(0.1 * n), int(n >= low))
            part.extend(shuffled[start:start + take])
            start += take
        parts[-1].extend(shuffled[start:])
    return parts


def split(pairs, spec: SplitSpec):
    """Stratified seeded split into (train, valid, test).

    ``deal`` holds out validation, at least one pair of a class of three or
    more, then test, at least one of a class of two or more. The few-shot
    fraction then keeps a prefix of each class of train, so smaller
    fractions are nested inside larger ones under the same seed.
    """
    if len(pairs) < 10:
        raise ValueError(f"need at least 10 pairs to split, got {len(pairs)}")
    if not any(p.label == 1 for p in pairs):
        raise ValueError("no positive pairs; cannot build a labeled split")
    valid, test, train = deal(pairs, spec.seed, (3, 2))
    if spec.few_shot_fraction < 1.0:
        train = few_shot_subsample(train, spec.few_shot_fraction)
    return train, valid, test


def few_shot_subsample(train, fraction):
    """Per-class prefix of size round-half-up(fraction * class size), min 1."""
    out = []
    for group in by_class(train):
        keep = min(len(group), max(1, round_half_up(fraction * len(group))))
        out.extend(group[:keep])
    return out


# ---------------------------------------------------------------------------
# metrics


def average_precision(scores, labels):
    """Step-interpolated average precision over the score-ranked list.

    Ties keep their input order (stable sort), so rankings are reproducible.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("average precision undefined without positives")
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    cum_pos = np.cumsum(ranked)
    precision_at = cum_pos / np.arange(1, len(ranked) + 1)
    return float((precision_at * ranked).sum() / n_pos)


def f1_at_threshold(scores, labels, threshold=0.5):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    preds = scores >= threshold
    tp = int(np.sum(preds & (labels == 1)))
    fp = int(np.sum(preds & (labels == 0)))
    fn = int(np.sum(~preds & (labels == 1)))
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


# ---------------------------------------------------------------------------
# scoring


# Pairs per kernel call, and 1-1 links per block of a one-pass grid. One
# call holds ~10 kB of activations per 1-1 pair (hidden_dim 64), so a large
# classify file or a grid of |S|*|R| links must not go to the kernel whole.
SCORE_CHUNK = 1024


def _feature_rows(features, ids):
    """Feature rows of the node ids ``ids``, the one gather that scoring and
    training use. Raises ValueError on an id that is not a feature row."""
    ids = np.array(ids, dtype=np.intp)
    if ((ids < 0) | (ids >= len(features))).any():
        raise ValueError(f"node ids must index the {len(features)} feature rows")
    return features[ids]


class PairScorer:
    """Scores SRPairs, candidate blocks of two node sets, or their 1-1 link
    grid against a fixed model.

    ``features`` is the graph's feature array; node ids index its rows.
    Calling the scorer on a list of pairs stacks their feature rows and
    scores them with one ``neural_core.batch_logits`` call per
    ``SCORE_CHUNK`` pairs; ``blocks`` encodes two node sets once and scores
    slices of them with ``neural_core.block_logits``, ``SCORE_CHUNK`` blocks
    per call; ``grid`` scores every sender-receiver link with
    ``neural_core.grid_logits`` in blocks of about ``SCORE_CHUNK`` links.
    Each of them gathers feature rows through ``_feature_rows``, so a node
    id that is not a row raises ValueError on every path.
    """

    def __init__(self, model, features):
        self.model = model
        self.features = features

    def __call__(self, srs) -> list:
        """Suspiciousness probabilities of the pairs ``srs``, in order."""
        out = []
        for i in range(0, len(srs), SCORE_CHUNK):
            s_ids, r_ids, ns, nr = _stack(srs[i:i + SCORE_CHUNK])
            xs, xr = (_feature_rows(self.features, ids) for ids in (s_ids, r_ids))
            out.extend(nc.sigmoid(nc.batch_logits(self.model, xs, xr, ns, nr)).tolist())
        return out

    def blocks(self, senders, receivers):
        """Scorer of candidate blocks over the node-id sequences ``senders``
        and ``receivers``, whose feature rows are gathered and encoded here,
        once (ds: into per-side prefix sums of rho's pre-activation, see
        ``neural_core.encode_sides``): it maps an (n, 4) array of ``(s_lo,
        s_hi, r_lo, r_hi)`` blocks to a float64 array of the probabilities of
        the pairs ``(senders[s_lo:s_hi], receivers[r_lo:r_hi])``, in order,
        as calling the scorer on those pairs does up to rounding order."""
        encoded = nc.encode_sides(self.model, _feature_rows(self.features, senders),
                                  _feature_rows(self.features, receivers))

        def score(candidates):
            return np.concatenate([
                nc.sigmoid(nc.block_logits(self.model, encoded, candidates[i:i + SCORE_CHUNK]))
                for i in range(0, len(candidates), SCORE_CHUNK)])

        return score

    def grid(self, senders, receivers):
        """(|senders|, |receivers|) array: entry (i, j) is the probability of
        the 1-1 link (senders[i], receivers[j])."""
        return nc.sigmoid(nc.grid_logits(self.model, _feature_rows(self.features, senders),
                                         _feature_rows(self.features, receivers), SCORE_CHUNK))

    def score(self, sr: SRPair) -> float:
        """Probability that the pair bounds a suspicious flow. No program code
        calls it; ``bench/layers.py`` traces it, which keeps it alive."""
        return self([sr])[0]


# ---------------------------------------------------------------------------
# training


def _stack(srs):
    """Sender ids, receiver ids and side sizes ``ns``, ``nr`` of the pairs
    ``srs``, stacked pair by pair as ``neural_core.batch_logits`` takes them."""
    return (np.array([n for sr in srs for n in sr.senders], dtype=np.intp),
            np.array([n for sr in srs for n in sr.receivers], dtype=np.intp),
            np.array([len(sr.senders) for sr in srs], dtype=np.int64),
            np.array([len(sr.receivers) for sr in srs], dtype=np.int64))


def _validation_metric(model, valid_pairs, features):
    """Validation PR-AUC when defined, otherwise negative mean loss."""
    labels = [p.label for p in valid_pairs]
    scores = PairScorer(model, features)([p.sr for p in valid_pairs])
    if 0 < sum(labels) < len(labels):
        return average_precision(scores, labels)
    return -float(np.sum(nc.bce_loss(scores, labels))) / max(len(valid_pairs), 1)


def train_model(model, train_pairs, valid_pairs, features, config: TrainConfig):
    """Adam/BCE training with early stopping on the validation metric.

    Trains ``model`` in place and returns (model, history), the model holding
    the weights of its best epoch, which are kept as in-memory copies.
    Deterministic for a fixed config: batch order comes from a seeded
    shuffle and gradients accumulate in batch index order. Raises
    ValueError on an empty training set or a node id that is not a feature
    row.
    """
    if not train_pairs:
        raise ValueError("empty training set")
    rng = np.random.default_rng(config.seed + 1)
    s_ids, r_ids, ns, nr = _stack([p.sr for p in train_pairs])
    xs, xr = _feature_rows(features, s_ids), _feature_rows(features, r_ids)
    s_end, r_end = np.cumsum(ns), np.cumsum(nr)
    labels = np.array([p.label for p in train_pairs], dtype=np.float64)

    params = nc.parameters(model)
    state = nc.init_adam(params, lr=config.lr)
    best_metric = -np.inf
    best_params = [p.copy() for p in params]
    best_epoch = -1
    history = []

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_pairs))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = nc.backward(
                model, xs[nc.segment_rows(s_end[batch] - ns[batch], s_end[batch])],
                xr[nc.segment_rows(r_end[batch] - nr[batch], r_end[batch])],
                ns[batch], nr[batch], labels[batch], config.pos_weight)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"loss became non-finite at epoch {epoch}; "
                    f"last finite epoch {epoch - 1}"
                )
            epoch_loss += loss * len(batch)
            nc.adam_step(state, params, grads)
        metric = (
            _validation_metric(model, valid_pairs, features)
            if valid_pairs
            else -epoch_loss / len(train_pairs)
        )
        history.append(
            {"epoch": epoch, "train_loss": epoch_loss / len(train_pairs),
             "valid_metric": metric}
        )
        # ties favor the longer-trained weights: the validation metric
        # saturates early on separable data while margins (and the
        # rarely-exercised feature channels) keep improving
        if metric >= best_metric:
            best_params = [p.copy() for p in params]
        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
        elif epoch - best_epoch >= config.patience:
            break
    for p, best in zip(params, best_params):
        p[...] = best
    nc.assert_finite(model)
    return model, history


def train(arch, train_pairs, valid_pairs, features, config: TrainConfig = None):
    """Train a fresh classifier of the given architecture ("ds" or "bp")."""
    config = config or TrainConfig()
    if len(by_class(train_pairs)) < 2:
        raise ValueError("training set must contain both classes")
    rng = np.random.default_rng(config.seed)
    if arch == "ds":
        model = nc.build_ds_model(rng, features.shape[1], config.hidden_dim, config.pool)
    elif arch == "bp":
        model = nc.build_bp_model(rng, features.shape[1], config.hidden_dim, config.pool)
    else:
        raise ValueError(f"unknown architecture {arch!r}")
    return train_model(model, train_pairs, valid_pairs, features, config)


def evaluate(model, test_pairs, features, threshold=0.5) -> ClassifierMetrics:
    """PR-AUC (average precision) and F1 at a fixed threshold on test pairs."""
    if not test_pairs:
        raise ValueError("empty test set")
    labels = [p.label for p in test_pairs]
    if len(set(labels)) < 2:
        raise ValueError("PR-AUC undefined on a single-class test set")
    scores = PairScorer(model, features)([p.sr for p in test_pairs])
    return ClassifierMetrics(
        pr_auc=average_precision(scores, labels),
        f1=f1_at_threshold(scores, labels, threshold),
        threshold=threshold,
    )
