"""Suspicious-link discovery by iterative quadrant splitting and pruning.

Starting from one (sender set, receiver set) pair, each round bisects both
sides of every candidate block, replaces it by its nonempty quadrant
children, scores the new candidates with a pretrained pair classifier in
one scorer call, and keeps only the best. Candidate blocks stay pairwise
disjoint, so every (sender, receiver) link of the initial product lies in
exactly one candidate at all times. The process ends when all survivors
are 1-1 links.

Two robustness enhancements for sparse instances:

* fine-tuning on randomly merged training pairs, so the classifier sees
  set sizes like those produced by the early rounds;
* an over-retention schedule that keeps alpha_keep * k candidates at the
  start and decays linearly to k, reducing accidental eliminations.
"""

import logging
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .classifier import LabeledPair, SRPair, TrainConfig, deal, train_model
from .graph_core import check_seed, is_number

logger = logging.getLogger(__name__)


def check_k(k):
    """Raise ValueError unless ``k`` is an integer >= 1 (bools are not)."""
    if not (is_number(k) and k >= 1):
        raise ValueError(f"k must be >= 1 and an integer, got {k!r}")


@dataclass
class FilterConfig:
    k: int
    alpha_keep: float = 1.5
    split_rule: str = "sorted_id"  # or "seeded_random"
    seed: int = 0

    def __post_init__(self):
        check_k(self.k)
        if not (is_number(self.alpha_keep, numbers.Real) and 1.0 <= self.alpha_keep < math.inf):
            raise ValueError(f"alpha_keep must be finite and >= 1, got {self.alpha_keep!r}")
        if self.split_rule not in ("sorted_id", "seeded_random"):
            raise ValueError(f"unknown split rule {self.split_rule!r}")
        check_seed(self.seed)


@dataclass
class FilterResult:
    links: list  # (SRPair, score), 1-1, ranked by score descending
    iterations: int
    classifier_calls: int
    scorer_failures: int


@dataclass
class AugmentConfig:
    """Merge augmentation settings. Raises ValueError on a gamma that is not a
    finite positive number (or is a bool), a merge_range that is not two
    integers 1 <= lo <= hi, a gamma so large that every merge-size weight
    underflows to 0, a num_outputs that is neither None nor an integer
    >= 1, or a seed that is not an integer >= 0 (bools are not integers
    here)."""

    gamma: float = 0.4
    merge_range: tuple = (1, 20)
    seed: int = 0
    num_outputs: int | None = None  # default: size of the input list

    def __post_init__(self):
        if not (is_number(self.gamma, numbers.Real) and 0.0 < self.gamma < math.inf):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma!r}")
        pair = self.merge_range
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and all(map(is_number, pair)) and 1 <= pair[0] <= pair[1]):
            raise ValueError(f"merge_range must be two integers 1 <= lo <= hi, got {pair!r}")
        if self.gamma * np.exp(-self.gamma * pair[0]) == 0.0:
            raise ValueError(f"gamma {self.gamma!r} is too large for merge_range {pair!r}: "
                             f"every merge-size weight gamma * exp(-gamma * n) underflows to 0")
        if self.num_outputs is not None and not (is_number(self.num_outputs)
                                                 and self.num_outputs >= 1):
            raise ValueError(f"num_outputs must be None or an integer >= 1, "
                             f"got {self.num_outputs!r}")
        check_seed(self.seed)


# The columns of ``expand``'s table [s_lo, s_hi, r_lo, r_hi, s_mid, r_mid]
# that bound each child, built once: an index list is converted on every use.
_QUADRANTS = np.array([(0, 4, 2, 5),    # (S1,R1): s_lo:s_mid, r_lo:r_mid
                       (0, 4, 5, 3),    # (S1,R2): s_lo:s_mid, r_mid:r_hi
                       (4, 1, 2, 5),    # (S2,R1): s_mid:s_hi, r_lo:r_mid
                       (4, 1, 5, 3)])   # (S2,R2): s_mid:s_hi, r_mid:r_hi


def expand(candidates):
    """Replace every non-1-1 candidate with its nonempty quadrant children.

    A candidate ``(s_lo, s_hi, r_lo, r_hi)`` holds half-open slices of the
    side tuples that ``rev_filter`` fixes. Each side splits at its ceiling
    half; children, as rows of an (n, 4) int64 array, replace their parent
    in (S1,R1), (S1,R2), (S2,R1), (S2,R2) order, empty ones dropped, so a
    1-1 candidate is its own only child. Their blocks partition the parent's.
    """
    c = np.asarray(candidates, dtype=np.int64).reshape(-1, 4)
    ends = np.concatenate([c, (c[:, ::2] + c[:, 1::2] + 1) // 2], axis=1)  # c, s_mid, r_mid
    children = ends[:, _QUADRANTS].reshape(-1, 4)  # parent-major
    return children[(children[:, 0] < children[:, 1]) & (children[:, 2] < children[:, 3])]


def _score_all(candidates, score_blocks):
    """(scores, failures) of an (n, 4) array of candidate blocks from one
    ``score_blocks`` call; the scores are a float64 array.

    If that call fails, each block is scored alone, and a block that still
    fails scores 0 (fail closed for that block only).
    """
    try:
        return np.asarray(score_blocks(candidates), dtype=np.float64), 0
    except Exception as exc:
        logger.warning("scorer failed on %d blocks: %s; scoring them one by one",
                       len(candidates), exc)
    scores = np.zeros(len(candidates))
    failures = 0
    for i in range(len(candidates)):
        try:
            (scores[i],) = score_blocks(candidates[i:i + 1])
        except Exception as exc:
            logger.warning("scorer failed on block %s: %s", tuple(candidates[i].tolist()), exc)
            failures += 1
    return scores, failures


def filter_step(candidates, keep_count, score_blocks, known=None):
    """Keep the top ``keep_count`` candidates by score (stable on ties).

    Lists already within budget pass through unscored, as the same object.
    Otherwise one ``score_blocks`` call scores them all, or only those whose
    entry of ``known`` (a float64 array of scores so far) is NaN. Returns
    (candidates, scores, pairs_scored, failures): the kept (n, 4) int64
    array and its scores, in score order, or the input and None if unscored.
    """
    if keep_count < 1:
        raise ValueError("keep_count must be >= 1")
    if len(candidates) <= keep_count:
        return candidates, None, 0, 0
    candidates = np.asarray(candidates, dtype=np.int64)
    if known is None:
        scores, failures = _score_all(candidates, score_blocks)
        made = len(candidates)
    else:
        scores, fresh = known.copy(), np.isnan(known)
        scores[fresh], failures = _score_all(candidates[fresh], score_blocks)
        made = int(np.count_nonzero(fresh))
    order = np.argsort(-scores, kind="stable")[:keep_count]
    return candidates[order], scores[order], made, failures


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
    balanced one. ``scorer.blocks(senders, receivers)``, called once on the
    fixed sides, returns a function from an (n, 4) int64 array of blocks to
    their pairs' probabilities. Each block is scored once: a round over
    budget calls that function on its unscored blocks, the links are ranked
    by the last round's scores, and only a final set no round scored gets a
    call of its own. ``classifier_calls`` counts the blocks scored. If the
    initial product holds fewer than k links, all are returned. A block that
    function fails on, even alone, scores 0 and counts in ``scorer_failures``.
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
    # a slice at depth t holds floor or ceil n / 2**t ids: no 1 x 1 block above this depth
    unit_depth = max(len(senders).bit_length(), len(receivers).bit_length()) - 1

    candidates = np.array([(0, len(senders), 0, len(receivers))], dtype=np.int64)
    scores = None  # the candidates' scores, in descending order, once a round scored them
    iteration = calls = failures = 0
    # only a 1 x 1 block is its own only child, so a split that adds none ends the loop
    while len(children := expand(candidates)) > len(candidates):
        if iteration >= max_iterations:
            raise RuntimeError("bisection failed to terminate within its bound")
        known = None
        if scores is not None and iteration >= unit_depth:  # a scored 1 x 1 keeps its score
            counts = np.where(candidates[:, 1::2] - candidates[:, ::2] > 1, 2, 1).prod(axis=1)
            known = np.repeat(np.where(counts == 1, scores, np.nan), counts)
        keep = keep_schedule(config, iteration, horizon)
        iteration += 1
        candidates, scores, made, failed = filter_step(children, keep, score_blocks, known)
        calls, failures = calls + made, failures + failed

    # once a round scores, every later one is over budget (keep never grows, a split adds blocks)
    if scores is None:
        scores, failed = _score_all(candidates, score_blocks)
        calls, failures = calls + len(candidates), failures + failed
        order = np.argsort(-scores, kind="stable")
        candidates, scores = candidates[order], scores[order]
    top = zip(candidates[:config.k].tolist(), scores[:config.k].tolist())
    return FilterResult(
        links=[(SRPair(senders=senders[a:b], receivers=receivers[c:d]), score)
               for (a, b, c, d), score in top],
        iterations=iteration, classifier_calls=calls, scorer_failures=failures)


# ---------------------------------------------------------------------------
# fine-tuning with merge augmentation


def truncated_exp_pmf(gamma, lo, hi):
    """P(n) proportional to gamma * exp(-gamma * n) on the integers [lo, hi]."""
    n = np.arange(lo, hi + 1)
    raw = gamma * np.exp(-gamma * n)
    return raw / raw.sum()


_LOW = 0xFFFFFFFF


def _merge_draws(rng, n, sizes, cdf, n_out):
    """Each of ``n_out`` merges' pair indices, in the order drawn, as the loop
    ``k = min(sizes[cdf.searchsorted(rng.random(), side="right")], n)``,
    ``rng.choice(n, k, replace=False)`` draws them from numpy's PCG64
    generator, computed in one pass over its raw 64-bit outputs; ``rng`` is
    left where that loop leaves it. ``sizes`` and ``cdf`` are lists; n < 2**32.

    The loop's draws, as numpy makes them and tests pin against it:

    * ``random()`` is (w >> 11) / 2**53 of the next whole output w;
    * a 32-bit draw is the low half of the next output, whose high half
      serves the next 32-bit draw, a ``random()`` between them or not;
    * an index below b > 1 is Lemire's floor(x b / 2**32) of a 32-bit draw
      x, drawn again while x b mod 2**32 < (2**32 - b) mod b; below 1 is 0;
    * ``choice`` picks k of n by Floyd's algorithm (for j = n - k, ..., n - 1,
      t below j + 1, or j if t is taken) and shuffles them (for i = k - 1,
      ..., 1, swap i with t below i + 1); for n > 10,000 and k > n // 50 it
      instead swaps each i = n - 1, ..., n - k of range(n) with t below
      i + 1 and takes the last k.
    """
    bitgen = rng.bit_generator
    start = bitgen.state
    words, used = [], 0
    spare = start["uinteger"] if start["has_uint32"] else None
    high = start["uinteger"]  # numpy keeps the last high half in its state

    def whole():
        nonlocal used
        if used == len(words):
            words.extend(bitgen.random_raw(512).tolist())
        used += 1
        return words[used - 1]

    def below(b):
        nonlocal spare, high
        if b == 1:
            return 0
        while True:
            if spare is None:
                x = whole()
                spare = high = x >> 32
                x &= _LOW
            else:
                x, spare = spare, None
            m = x * b
            if (m & _LOW) >= b or (m & _LOW) >= (_LOW + 1 - b) % b:
                return m >> 32

    draws = []
    for _ in range(n_out):
        k = min(sizes[bisect_right(cdf, (whole() >> 11) * 2.0**-53)], n)
        if n > 10_000 and k > n // 50:
            moved = {}  # the entries of range(n) that swaps have moved
            for i in range(n - 1, n - k - 1, -1):
                t = below(i + 1)
                moved[i], moved[t] = moved.get(t, t), moved.get(i, i)
            draws.append([moved.get(i, i) for i in range(n - k, n)])
            continue
        chosen, taken = [], set()
        for j in range(n - k, n):
            t = below(j + 1)
            t = j if t in taken else t
            taken.add(t)
            chosen.append(t)
        for i in range(k - 1, 0, -1):
            t = below(i + 1)
            chosen[i], chosen[t] = chosen[t], chosen[i]
        draws.append(chosen)
    # rewind past the words drawn ahead, so that the next draw takes the first unused one
    bitgen.state = start
    bitgen.random_raw(used)
    end = bitgen.state
    end["has_uint32"], end["uinteger"] = int(spare is not None), high
    bitgen.state = end
    return draws


def make_finetune_set(pairs, config: AugmentConfig):
    """Randomly merged pairs, merge count following a truncated exponential.

    A merged pair unions the sender sets and receiver sets of its components
    and is suspicious iff any component is. Per merge, the seeded generator
    draws a count as ``rng.choice(sizes, p=pmf)`` does, then the components
    as ``rng.choice(len(pairs), count, replace=False)`` does (count capped at
    the list length); ``_merge_draws`` makes all of these draws in one pass.
    """
    if not pairs:
        raise ValueError("cannot augment an empty pair list")
    lo, hi = config.merge_range
    # rng.choice(sizes, p=pmf) searches this CDF for one rng.random() draw
    cdf = truncated_exp_pmf(config.gamma, lo, hi).cumsum()
    cdf /= cdf[-1]
    rng = np.random.default_rng(config.seed)
    n_out = config.num_outputs if config.num_outputs is not None else len(pairs)
    out = []
    for chosen in _merge_draws(rng, len(pairs), list(range(lo, hi + 1)), cdf.tolist(), n_out):
        senders, receivers = set(), set()
        label = 0
        origins = []
        for i in chosen:
            p = pairs[i]
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


def finetune(model, augmented_pairs, features, config: TrainConfig):
    """Continue training a copy of ``model`` on merged pairs.

    Returns (tuned, history); the input model is left unchanged. ``deal``
    holds out a stratified tenth of the augmented set, at least one pair of
    a class of two or more, for early stopping.
    With epochs=0 the returned model equals the input.
    """
    start = model.copy()
    if config.epochs == 0:
        return start, []
    valid_p, train_p = deal(augmented_pairs, config.seed, (2,))
    if not train_p:
        raise ValueError("augmented set too small to fine-tune")
    return train_model(start, train_p, valid_p, features, config)
