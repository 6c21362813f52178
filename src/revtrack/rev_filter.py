"""Suspicious-link discovery by iterative quadrant splitting and pruning.

Starting from one (sender set, receiver set) pair, each round bisects both
sides of every candidate block, replaces it by its nonempty quadrant
children, scores all candidates with a pretrained pair classifier in one
scorer call, and keeps only the best. Candidate blocks stay pairwise
disjoint, so every (sender, receiver) link of the initial product lies in
exactly one candidate at all times. The process ends when all survivors
are 1-1 links.

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

from .classifier import LabeledPair, SRPair, TrainConfig, by_class, train_model

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
        if not 1.0 <= self.alpha_keep < math.inf:
            raise ValueError(f"alpha_keep must be finite and >= 1, got {self.alpha_keep}")
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
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if lo < 1 or hi < lo:
            raise ValueError("merge_range must satisfy 1 <= lo <= hi")


def expand(candidates):
    """Replace every non-1-1 candidate with its nonempty quadrant children.

    A candidate ``(s_lo, s_hi, r_lo, r_hi)`` holds half-open slices of the
    side tuples that ``rev_filter`` fixes. Each side splits at its ceiling
    half ``(lo + hi + 1) // 2``; children replace their parent in (S1,R1),
    (S1,R2), (S2,R1), (S2,R2) order, empty ones dropped, so a 1-1 candidate
    is its own only child. The children's blocks partition the parent's.
    """
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


def _pairs(candidates, senders, receivers):
    """The SRPair of every candidate, built only for the returned links."""
    return [SRPair(senders=senders[a:b], receivers=receivers[c:d])
            for a, b, c, d in candidates]


def _score_all(candidates, score_blocks):
    """(scores, failures) of a list of candidate blocks from one
    ``score_blocks`` call.

    If that call fails, each block is scored alone, and a block that still
    fails scores 0 (fail closed for that block only).
    """
    try:
        return [float(s) for s in score_blocks(candidates)], 0
    except Exception as exc:
        logger.warning("scorer failed on %d blocks: %s; scoring them one by one",
                       len(candidates), exc)
    scores = []
    failures = 0
    for block in candidates:
        try:
            (score_val,) = score_blocks([block])
            scores.append(float(score_val))
        except Exception as exc:
            logger.warning("scorer failed on block %s: %s", block, exc)
            scores.append(0.0)
            failures += 1
    return scores, failures


def filter_step(candidates, keep_count, score_blocks):
    """Keep the top ``keep_count`` candidates by score (stable on ties).

    Lists already within budget pass through unscored. Otherwise every
    candidate is scored in one ``score_blocks`` call, and the kept
    candidates come back in score order without their scores. Returns
    (candidates, pairs_scored, failures).
    """
    if keep_count < 1:
        raise ValueError("keep_count must be >= 1")
    if len(candidates) <= keep_count:
        return candidates, 0, 0
    scores, failures = _score_all(candidates, score_blocks)
    order = np.argsort(-np.asarray(scores), kind="stable")[:keep_count]
    return [candidates[i] for i in order], len(candidates), failures


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

    The two sides are fixed once, as the initial sorted ids or, for
    ``seeded_random``, each side permuted once by ``default_rng(seed)``;
    candidates are blocks of their slices (see ``expand``). A slice of a
    uniform permutation is in uniform order, so each split is a uniform
    balanced one. ``scorer.blocks(senders, receivers)`` is called once, on
    the fixed sides (see ``PairScorer.blocks``); the function it returns maps
    a list of blocks to the probabilities of their pairs, and each round
    over budget and the final ranking call it once. If the initial product
    holds fewer than k links, all are returned. ``classifier_calls`` counts
    the pairs scored. A block that function fails on, even alone, scores 0
    and counts in ``scorer_failures``. Only the k returned links become
    SRPairs.
    """
    senders, receivers = initial.senders, initial.receivers
    if not senders or not receivers:
        raise ValueError("initial pair must have nonempty sender and receiver sets")
    if len(set(senders)) < len(senders) or len(set(receivers)) < len(receivers):
        raise ValueError("initial pair repeats a node id within a side")
    if config.split_rule == "seeded_random":
        rng = np.random.default_rng(config.seed)
        senders = tuple(senders[i] for i in rng.permutation(len(senders)))
        receivers = tuple(receivers[i] for i in rng.permutation(len(receivers)))
    score_blocks = scorer.blocks(senders, receivers)
    depths = [math.ceil(math.log2(len(side))) for side in (senders, receivers)]
    horizon, max_iterations = max(depths), sum(depths) + 1

    candidates = [(0, len(senders), 0, len(receivers))]
    iteration = calls = failures = 0
    while not all(b - a == 1 and d - c == 1 for a, b, c, d in candidates):
        if iteration >= max_iterations:
            raise RuntimeError("bisection failed to terminate within its bound")
        candidates = expand(candidates)
        keep = keep_schedule(config, iteration, horizon)
        iteration += 1
        candidates, made, failed = filter_step(candidates, keep, score_blocks)
        calls += made
        failures += failed

    final_scores, failed = _score_all(candidates, score_blocks)
    calls += len(candidates)
    failures += failed
    order = np.argsort(-np.asarray(final_scores), kind="stable")[: config.k].tolist()
    pairs = _pairs([candidates[i] for i in order], senders, receivers)
    return FilterResult(
        links=[(sr, final_scores[i]) for sr, i in zip(pairs, order)],
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


def _holdout_split(pairs, valid_frac, seed):
    """Stratified seeded (train, valid) split: valid takes round(valid_frac * n)
    (half to even) of each shuffled class of n, at least one when n >= 2."""
    rng = np.random.default_rng(seed)
    train, valid = [], []
    for group in by_class(pairs):
        shuffled = [group[i] for i in rng.permutation(len(group))]
        n_valid = max(int(round(valid_frac * len(group))), int(len(group) >= 2))
        valid.extend(shuffled[:n_valid])
        train.extend(shuffled[n_valid:])
    return train, valid


def finetune(model, augmented_pairs, features, config: TrainConfig):
    """Continue training a copy of ``model`` on merged pairs.

    Returns (tuned, history); the input model is left unchanged. A
    stratified tenth of the augmented set is held out for early stopping.
    With epochs=0 the returned model equals the input.
    """
    start = copy.deepcopy(model)
    if config.epochs == 0:
        return start, []
    train_p, valid_p = _holdout_split(augmented_pairs, 0.1, config.seed)
    if not train_p:
        raise ValueError("augmented set too small to fine-tune")
    return train_model(start, train_p, valid_p, features, config)
