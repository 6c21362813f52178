"""Suspicious-link discovery by iterative quadrant splitting and pruning.

Starting from one (sender set, receiver set) pair, each round bisects both
sides of every candidate pair, replaces the pair by its nonempty quadrant
children, scores all candidates with a pretrained pair classifier in one
scorer call, and keeps only the best. Candidate products stay pairwise
disjoint subsets of the initial product, so every concrete (sender,
receiver) link is represented by exactly one candidate at all times. The
process ends when all survivors are 1-1 links.

Two robustness enhancements for sparse instances:

* fine-tuning on randomly merged training pairs, so the classifier sees
  set sizes like those produced by the early rounds;
* an over-retention schedule that keeps alpha_keep * k candidates at the
  start and decays linearly to k, reducing accidental eliminations.
"""

import copy
import logging
import math
from dataclasses import dataclass

import numpy as np

from .classifier import LabeledPair, SRPair, TrainConfig, train_model

logger = logging.getLogger(__name__)


@dataclass
class FilterConfig:
    k: int
    alpha_keep: float = 1.5
    split_rule: str = "sorted_id"  # or "seeded_random"
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.alpha_keep < 1.0:
            raise ValueError("alpha_keep must be >= 1")
        if self.split_rule not in ("sorted_id", "seeded_random"):
            raise ValueError(f"unknown split rule {self.split_rule!r}")


@dataclass
class FilterResult:
    links: list  # (SRPair, score), 1-1, ranked by score descending
    iterations: int
    classifier_calls: int
    scorer_failures: int


@dataclass
class AugmentConfig:
    gamma: float = 0.4
    merge_range: tuple = (1, 20)
    seed: int = 0
    num_outputs: int | None = None  # default: size of the input list

    def __post_init__(self):
        lo, hi = self.merge_range
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if lo < 1 or hi < lo:
            raise ValueError("merge_range must satisfy 1 <= lo <= hi")


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


def expand(candidates, rule="sorted_id", rng=None):
    """Replace every non-1-1 pair with its nonempty quadrant children.

    ``candidates`` is a list of (SRPair, score or None). Children appear in
    (S1,R1), (S1,R2), (S2,R1), (S2,R2) order in place of their parent, with
    score None; 1-1 pairs are carried through unchanged. The children's
    products partition the parent's product.
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


def _score_all(entries, scorer):
    """(scores, failures) of the entries' pairs from one scorer call.

    If that call fails, each pair is scored alone, and a pair that still
    fails scores 0 (fail closed for that pair only).
    """
    srs = [sr for sr, _ in entries]
    try:
        return [float(s) for s in scorer(srs)], 0
    except Exception as exc:
        logger.warning("scorer failed on %d pairs: %s; scoring them one by one",
                       len(srs), exc)
    scores = []
    failures = 0
    for sr in srs:
        try:
            (score_val,) = scorer([sr])
            scores.append(float(score_val))
        except Exception as exc:
            logger.warning("scorer failed on pair %s: %s", sr, exc)
            scores.append(0.0)
            failures += 1
    return scores, failures


def filter_step(candidates, keep_count, scorer):
    """Keep the top ``keep_count`` (SRPair, score) candidates (stable on ties).

    Lists already within budget pass through unscored. Returns
    (candidates, pairs_scored, failures); all candidates are scored in one
    scorer call.
    """
    if keep_count < 1:
        raise ValueError("keep_count must be >= 1")
    if len(candidates) <= keep_count:
        return candidates, 0, 0
    scores, failures = _score_all(candidates, scorer)
    order = np.argsort(-np.asarray(scores), kind="stable")[:keep_count]
    kept = [(candidates[i][0], scores[i]) for i in order]
    return kept, len(candidates), failures


def keep_schedule(config: FilterConfig, t: int, total: int) -> int:
    """Linear decay from round(alpha_keep * k) at t=0 to k at t=total.

    Rounds half to even; ``total`` is the expected iteration count
    ceil(log2(max(|S|, |R|))) of the initial pair.
    """
    if total <= 0:
        return config.k
    alpha = config.alpha_keep
    frac = min(max(t / total, 0.0), 1.0)
    return int(round(config.k * (alpha - (alpha - 1.0) * frac)))


def rev_filter(initial: SRPair, config: FilterConfig, scorer) -> FilterResult:
    """Iteratively bisect and prune until k ranked 1-1 links remain.

    ``scorer`` maps a list of SRPairs to a list of suspiciousness
    probabilities; each round and the final ranking make one call. If the
    initial product holds fewer than k links, all of them are returned.
    ``classifier_calls`` counts the pairs scored. A pair the scorer fails
    on, even when called alone, scores 0 (fail closed) and counts in
    ``scorer_failures``.
    """
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
        candidates = expand(candidates, config.split_rule, rng)
        keep = keep_schedule(config, iteration, horizon)
        iteration += 1
        candidates, made, failed = filter_step(candidates, keep, scorer)
        calls += made
        failures += failed

    final_scores, failed = _score_all(candidates, scorer)
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


# ---------------------------------------------------------------------------
# fine-tuning with merge augmentation


def truncated_exp_pmf(gamma, lo, hi):
    """P(n) proportional to gamma * exp(-gamma * n) on the integers [lo, hi]."""
    n = np.arange(lo, hi + 1)
    raw = gamma * np.exp(-gamma * n)
    return raw / raw.sum()


def make_finetune_set(pairs, config: AugmentConfig):
    """Randomly merged pairs, merge count following a truncated exponential.

    A merged pair unions the sender sets and receiver sets of its components
    and is suspicious iff any component is.
    """
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


def default_finetune_config(seed=0) -> TrainConfig:
    return TrainConfig(epochs=30, lr=1e-4, seed=seed)


def _holdout_split(pairs, valid_frac, seed):
    rng = np.random.default_rng(seed)
    train, valid = [], []
    for label in (1, 0):
        group = [p for p in pairs if p.label == label]
        if not group:
            continue
        order = rng.permutation(len(group))
        shuffled = [group[i] for i in order]
        n_valid = int(round(valid_frac * len(group)))
        if len(group) >= 2:
            n_valid = max(n_valid, 1)
        n_valid = min(n_valid, len(group) - 1)
        valid.extend(shuffled[:n_valid])
        train.extend(shuffled[n_valid:])
    return train, valid


def finetune(model, augmented_pairs, features, config: TrainConfig = None):
    """Continue training a copy of ``model`` on merged pairs.

    Returns (tuned, history); the input model is left unchanged. A
    stratified tenth of the augmented set is held out for early stopping.
    With epochs=0 the returned model equals the input.
    """
    config = config or default_finetune_config()
    start = copy.deepcopy(model)
    if config.epochs == 0:
        return start, []
    train_p, valid_p = _holdout_split(augmented_pairs, 0.1, config.seed)
    if not train_p:
        raise ValueError("augmented set too small to fine-tune")
    return train_model(start, train_p, valid_p, features, config)
