"""Boundary-pair classification: dataset assembly, splits, training, metrics.

A labeled subgraph is reduced to the pair (sender set, receiver set) of its
boundary; the classifier never sees the subgraph interior. Node ids are
dense row indices into the graph's (num_nodes, d) feature array, which
every function here indexes directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import neural_core as nc
from .graph_core import (
    SUBGRAPH_SUSPICIOUS,
    boundary_sides,
    extract_boundary,  # noqa: F401  (the benchmark's tracer wraps classifier.extract_boundary)
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
        return len(self.senders) == 1 and len(self.receivers) == 1


@dataclass
class LabeledPair:
    sr: SRPair
    label: int  # 0 licit, 1 suspicious
    origin: str = ""


# shares of each class held out by ``split``; train takes the rest
VALID_FRAC = 0.1
TEST_FRAC = 0.1


@dataclass
class SplitSpec:
    seed: int = 0
    few_shot_fraction: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.few_shot_fraction <= 1.0:
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
        for name, low in (("hidden_dim", 1), ("batch_size", 1), ("epochs", 0), ("patience", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("lr", "pos_weight"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")


def make_pairs(graph, subgraphs):
    """Boundary pairs for every labeled subgraph with a nonempty boundary.

    Returns (pairs, graph.features, stats); stats counts skipped subgraphs.
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


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split(pairs, spec: SplitSpec):
    """Stratified seeded split into (train, valid, test).

    Each class is shuffled once; validation and test take rounded fractions
    (at least one element per split when the class has three or more
    members, prioritizing train, then test). The few-shot fraction then
    keeps a prefix of each class of train, so smaller fractions are nested
    inside larger ones under the same seed.
    """
    if len(pairs) < 10:
        raise ValueError(f"need at least 10 pairs to split, got {len(pairs)}")
    if not any(p.label == 1 for p in pairs):
        raise ValueError("no positive pairs; cannot build a labeled split")
    rng = np.random.default_rng(spec.seed)
    train, valid, test = [], [], []
    for label in (1, 0):
        group = [p for p in pairs if p.label == label]
        if not group:
            continue
        order = rng.permutation(len(group))
        shuffled = [group[i] for i in order]
        n = len(group)
        n_valid = _round_half_up(VALID_FRAC * n)
        n_test = _round_half_up(TEST_FRAC * n)
        if n >= 3:
            n_valid = max(n_valid, 1)
            n_test = max(n_test, 1)
            while n - n_valid - n_test < 1:
                if n_valid >= n_test and n_valid > 1:
                    n_valid -= 1
                else:
                    n_test -= 1
        elif n == 2:
            n_valid, n_test = 0, 1
        else:
            n_valid, n_test = 0, 0
        valid.extend(shuffled[:n_valid])
        test.extend(shuffled[n_valid : n_valid + n_test])
        train.extend(shuffled[n_valid + n_test :])
    if spec.few_shot_fraction < 1.0:
        train = few_shot_subsample(train, spec.few_shot_fraction)
    return train, valid, test


def few_shot_subsample(train, fraction):
    """Per-class prefix of size round-half-up(fraction * class size), min 1."""
    out = []
    for label in (1, 0):
        group = [p for p in train if p.label == label]
        if not group:
            continue
        keep = min(len(group), max(1, _round_half_up(fraction * len(group))))
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
    Each of them gathers feature rows through ``_rows``, so a node id that
    is not a row raises ValueError on every path.
    """

    def __init__(self, model, features):
        self.model = model
        self.features = features

    def __call__(self, srs) -> list:
        """Suspiciousness probabilities of the pairs ``srs``, in order."""
        out = []
        for i in range(0, len(srs), SCORE_CHUNK):
            part = srs[i:i + SCORE_CHUNK]
            out.extend(nc.sigmoid(nc.batch_logits(
                self.model, self._rows([n for sr in part for n in sr.senders]),
                self._rows([n for sr in part for n in sr.receivers]),
                [len(sr.senders) for sr in part], [len(sr.receivers) for sr in part],
            )).tolist())
        return out

    def _rows(self, ids):
        """Feature rows of the node ids ``ids``, the one gather every entry
        point uses. Raises ValueError on an id that is not a feature row."""
        ids = np.array(ids, dtype=np.intp)
        if ((ids < 0) | (ids >= len(self.features))).any():
            raise ValueError(f"node ids must index the {len(self.features)} feature rows")
        return self.features[ids]

    def blocks(self, senders, receivers):
        """Scorer of candidate blocks over the node-id sequences ``senders``
        and ``receivers``, whose feature rows are gathered and encoded here,
        once: it maps a list of ``(s_lo, s_hi, r_lo, r_hi)`` blocks to the
        probabilities of the pairs ``(senders[s_lo:s_hi], receivers[r_lo:r_hi])``,
        in order."""
        encoded = nc.encode_sides(self.model, self._rows(senders), self._rows(receivers))

        def score(candidates):
            out = []
            for i in range(0, len(candidates), SCORE_CHUNK):
                out.extend(nc.sigmoid(nc.block_logits(
                    self.model, encoded, candidates[i:i + SCORE_CHUNK])).tolist())
            return out

        return score

    def grid(self, senders, receivers):
        """(|senders|, |receivers|) array: entry (i, j) is the probability of
        the 1-1 link (senders[i], receivers[j])."""
        return nc.sigmoid(nc.grid_logits(self.model, self._rows(senders),
                                         self._rows(receivers), SCORE_CHUNK))

    def score(self, sr: SRPair) -> float:
        """Probability that the pair bounds a suspicious flow."""
        return self([sr])[0]


# ---------------------------------------------------------------------------
# training


def _as_batch(pairs, features):
    return [
        (features[list(p.sr.senders)], features[list(p.sr.receivers)], p.label)
        for p in pairs
    ]


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
    shuffle and gradients accumulate in batch index order.
    """
    if not train_pairs:
        raise ValueError("empty training set")
    rng = np.random.default_rng(config.seed + 1)
    train_batchable = _as_batch(train_pairs, features)

    state = nc.init_adam(nc.parameters(model), lr=config.lr)
    best_metric = -np.inf
    best_params = [p.copy() for p in nc.parameters(model)]
    best_epoch = -1
    history = []

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_batchable))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [train_batchable[i] for i in order[start : start + config.batch_size]]
            loss, grads = nc.backward(model, batch, pos_weight=config.pos_weight)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"loss became non-finite at epoch {epoch}; "
                    f"last finite epoch {epoch - 1}"
                )
            epoch_loss += loss * len(batch)
            nc.set_parameters(model, nc.adam_step(state, nc.parameters(model), grads))
        metric = (
            _validation_metric(model, valid_pairs, features)
            if valid_pairs
            else -epoch_loss / len(train_batchable)
        )
        history.append(
            {"epoch": epoch, "train_loss": epoch_loss / len(train_batchable),
             "valid_metric": metric}
        )
        # ties favor the longer-trained weights: the validation metric
        # saturates early on separable data while margins (and the
        # rarely-exercised feature channels) keep improving
        if metric >= best_metric:
            best_params = [p.copy() for p in nc.parameters(model)]
        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
        elif epoch - best_epoch >= config.patience:
            break
    nc.set_parameters(model, best_params)
    nc.assert_finite(model)
    return model, history


def train(arch, train_pairs, valid_pairs, features, config: TrainConfig = None):
    """Train a fresh classifier of the given architecture ("ds" or "bp")."""
    config = config or TrainConfig()
    if not any(p.label == 1 for p in train_pairs) or not any(
        p.label == 0 for p in train_pairs
    ):
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
