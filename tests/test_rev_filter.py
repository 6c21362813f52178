"""Bisection filter: splitting, pruning, schedules, merge augmentation."""

import json
import math
import re
import zlib
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtrack import rev_filter as rf

from revtrack import classifier
from revtrack import neural_core as nc
from revtrack.classifier import (
    LabeledPair,
    PairScorer,
    SplitSpec,
    SRPair,
    TrainConfig,
    make_pairs,
    split,
    train,
)
from revtrack.rev_filter import (
    AugmentConfig,
    FilterConfig,
    expand,
    filter_step,
    finetune,
    keep_schedule,
    make_finetune_set,
    rev_filter,
    truncated_exp_pmf,
)
from revtrack.synth_gen import SynthConfig, generate
from oracles import (ListScorer, adam_step_reference, expand_ranges_reference,
                     init_adam_reference, make_finetune_set_reference,
                     mlp_forward_reference, rev_filter_reference)


class OracleScorer(ListScorer):
    """1.0 iff the pair's product contains a true link, else 0.0; ``calls``
    counts the pairs scored."""

    def __init__(self, truth):
        self.truth = set(truth)
        self.calls = 0

    def __call__(self, srs):
        self.calls += len(srs)
        return [1.0 if any(
            (s, r) in self.truth for s in sr.senders for r in sr.receivers
        ) else 0.0 for sr in srs]


class MaxScorer(ListScorer):
    """Max of fixed injective per-link base scores over the pair's product."""

    def __init__(self, base):
        self.base = base

    def __call__(self, srs):
        return [max(self.base[(s, r)] for s in sr.senders for r in sr.receivers)
                for sr in srs]


def blocks(candidates, senders, receivers):
    """(sender slice, receiver slice) of every range candidate."""
    return [(senders[a:b], receivers[c:d]) for a, b, c, d in candidates]


# ---------------------------------------------------------------------------
# splitting a candidate pair: expand


def test_split_pair_sorted_rule():
    out = expand([(0, 4, 0, 2)])
    assert blocks(out, (1, 2, 3, 4), (5, 6)) == [
        ((1, 2), (5,)), ((1, 2), (6,)), ((3, 4), (5,)), ((3, 4), (6,))
    ]


def test_split_pair_singleton_side():
    assert expand([(0, 1, 0, 2)]).tolist() == [[0, 1, 0, 1], [0, 1, 1, 2]]
    assert expand([(3, 4, 5, 7)]).tolist() == [[3, 4, 5, 6], [3, 4, 6, 7]]


def test_split_pair_odd_side():
    # the odd side's first half takes the ceiling
    assert expand([(2, 5, 0, 1)]).tolist() == [[2, 4, 0, 1], [4, 5, 0, 1]]
    assert expand([(0, 1, 3, 10)]).tolist() == [[0, 1, 3, 7], [0, 1, 7, 10]]


def test_expand_quadrants():
    out = expand([(0, 2, 0, 2)])
    assert blocks(out, (1, 2), (3, 4)) == [((1,), (3,)), ((1,), (4,)), ((2,), (3,)), ((2,), (4,))]


def test_expand_carries_one_one():
    assert expand([(3, 4, 7, 8)]).tolist() == [[3, 4, 7, 8]]
    # in place, between the children of its neighbours
    assert expand([(0, 2, 0, 1), (2, 3, 0, 1), (3, 5, 0, 1)]).tolist() == [
        [0, 1, 0, 1], [1, 2, 0, 1], [2, 3, 0, 1], [3, 4, 0, 1], [4, 5, 0, 1]
    ]


def test_expand_singleton_side_two_children():
    out = expand([(0, 1, 0, 2)])
    assert blocks(out, (1,), (3, 4)) == [((1,), (3,)), ((1,), (4,))]


def test_expand_children_partition_parent_exhaustive():
    for s_lo in (0, 3):
        for r_lo in (0, 5):
            for ns in range(1, 7):
                for nr in range(1, 7):
                    parent = (s_lo, s_lo + ns, r_lo, r_lo + nr)
                    children = expand([parent])
                    seen = set()
                    for a, b, c, d in children:
                        assert s_lo <= a < b <= s_lo + ns and r_lo <= c < d <= r_lo + nr
                        prod = {(s, r) for s in range(a, b) for r in range(c, d)}
                        assert not (prod & seen), "children products overlap"
                        seen |= prod
                    assert seen == {(s, r) for s in range(s_lo, s_lo + ns)
                                    for r in range(r_lo, r_lo + nr)}
                    assert len(children) == (1 + (ns > 1)) * (1 + (nr > 1))


side_slices = st.builds(lambda lo, n: (lo, lo + n), st.integers(0, 50), st.integers(1, 9))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(side_slices, side_slices).map(lambda sr: sr[0] + sr[1]),
                max_size=300))
def test_expand_matches_loop_reference(candidates):
    # empty lists, 1 x 1 blocks, odd and singleton sides, up to 300 blocks
    want = [list(block) for block in expand_ranges_reference(candidates)]
    for given_as in (candidates, np.array(candidates, dtype=np.int64).reshape(-1, 4)):
        got = expand(given_as)
        assert got.dtype == np.int64 and got.shape == (len(want), 4)
        assert got.tolist() == want


def first_round_pairs(split_rule, seed):
    """The pairs of rev_filter's first scorer call on an 8 x 6 instance."""
    batches = []

    def scorer(srs):
        batches.append(list(srs))
        return [0.5] * len(srs)

    initial = SRPair(senders=tuple(range(8)), receivers=tuple(range(20, 26)))
    rev_filter(initial, FilterConfig(k=1, alpha_keep=1.0, split_rule=split_rule, seed=seed),
               ListScorer(scorer))
    return batches[0]


def test_expand_seeded_random_deterministic():
    first = first_round_pairs("seeded_random", 5)
    assert first == first_round_pairs("seeded_random", 5)
    assert first != first_round_pairs("seeded_random", 6)
    assert first != first_round_pairs("sorted_id", 5)
    # balanced halves of both permuted sides, whose blocks partition the
    # initial product
    assert sorted((len(sr.senders), len(sr.receivers)) for sr in first) == [(4, 3)] * 4
    assert {sr.senders for sr in first} != {(0, 1, 2, 3), (4, 5, 6, 7)}
    assert {sr.receivers for sr in first} != {(20, 21, 22), (23, 24, 25)}
    links = [(s, r) for sr in first for s in sr.senders for r in sr.receivers]
    assert sorted(links) == [(s, r) for s in range(8) for r in range(20, 26)]


# ---------------------------------------------------------------------------
# filter_step / keep_schedule


SIDES = ((0, 1, 2), (100, 101, 102))
DIAGONAL = [(i, i + 1, i, i + 1) for i in range(3)]


def test_filter_step_stable_ties():
    table = {SRPair((0,), (100,)): 0.2, SRPair((1,), (101,)): 0.9, SRPair((2,), (102,)): 0.2}
    kept, calls, failures = filter_step(
        DIAGONAL, 2, ListScorer(lambda srs: [table[sr] for sr in srs]).blocks(*SIDES))
    # score order first, then list order among ties
    assert list(map(tuple, kept.tolist())) == [DIAGONAL[1], DIAGONAL[0]]
    assert calls == 3 and failures == 0


def test_filter_step_within_budget_unchanged():
    calls = []
    scorer = ListScorer(lambda srs: calls.extend(srs) or [1.0] * len(srs))
    kept, made, _ = filter_step(DIAGONAL, 5, scorer.blocks(*SIDES))
    assert kept is DIAGONAL
    assert made == 0 and calls == []


def test_filter_step_scorer_failure_scores_zero():
    bad = SRPair((1,), (101,))

    def flaky(srs):
        if bad in srs:
            raise RuntimeError("boom")
        return [0.5] * len(srs)

    kept, _, failures = filter_step(DIAGONAL, 2, ListScorer(flaky).blocks(*SIDES))
    assert failures == 1
    assert list(map(tuple, kept.tolist())) == [DIAGONAL[0], DIAGONAL[2]]


def test_keep_schedule_examples():
    cfg = FilterConfig(k=10, alpha_keep=1.5)
    assert keep_schedule(cfg, 0, 4) == 15
    assert keep_schedule(cfg, 2, 4) == 12  # 12.5 rounds half to even
    assert keep_schedule(cfg, 4, 4) == 10


def test_keep_schedule_alpha_one_constant():
    cfg = FilterConfig(k=7, alpha_keep=1.0)
    assert all(keep_schedule(cfg, t, 5) == 7 for t in range(6))


def test_keep_schedule_k1():
    cfg = FilterConfig(k=1, alpha_keep=2.0)
    assert keep_schedule(cfg, 3, 3) == 1


# ---------------------------------------------------------------------------
# rev_filter


def _assert_partition(candidates, initial: SRPair):
    """Blocks lie within the sides of ``initial`` and their products are
    disjoint; the sides repeat no id, so this holds for their node ids too."""
    ns, nr = len(initial.senders), len(initial.receivers)
    for i, (a, b, c, d) in enumerate(candidates):
        assert 0 <= a < b <= ns and 0 <= c < d <= nr
        for e, f, g, h in candidates[i + 1 :]:
            if a < f and e < b and c < h and g < d:
                raise AssertionError(f"overlapping candidate products: {a, b, c, d} "
                                     f"vs {e, f, g, h}")


@contextmanager
def partition_checked(initial):
    """Check every round's kept candidates against ``initial`` while
    rev_filter runs; yields the list of per-round kept counts."""
    rounds = []
    original = rf.filter_step

    def checked(candidates, keep_count, score_blocks):
        out = original(candidates, keep_count, score_blocks)
        _assert_partition(out[0], initial)
        rounds.append(len(out[0]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rf, "filter_step", checked)
        yield rounds


def test_rev_filter_bruteforce_two_by_two():
    initial = SRPair(senders=(0, 1), receivers=(10, 11))
    truth = {(0, 11)}
    res = rev_filter(initial, FilterConfig(k=1), OracleScorer(truth))
    assert len(res.links) == 1
    sr, score_val = res.links[0]
    assert (sr.senders, sr.receivers) == ((0,), (11,))
    assert score_val == 1.0


def test_rev_filter_already_one_one():
    initial = SRPair(senders=(5,), receivers=(9,))
    res = rev_filter(initial, FilterConfig(k=1), OracleScorer({(5, 9)}))
    assert res.iterations == 0
    assert res.links[0][0] == initial


def test_rev_filter_returns_all_when_product_small():
    initial = SRPair(senders=(0, 1), receivers=(10,))
    res = rev_filter(initial, FilterConfig(k=10), OracleScorer({(1, 10)}))
    assert len(res.links) == 2  # |S| * |R| = 2 < k


def test_rev_filter_oracle_completeness():
    rng = np.random.default_rng(99)
    for trial in range(50):
        ns = int(rng.integers(2, 24))
        nr = int(rng.integers(2, 20))
        senders = tuple(range(ns))
        receivers = tuple(range(1000, 1000 + nr))
        n_plus = int(rng.integers(1, min(4, ns * nr) + 1))
        links = {
            (int(senders[i]), int(receivers[j]))
            for i, j in zip(
                rng.choice(ns, n_plus, replace=True), rng.choice(nr, n_plus, replace=True)
            )
        }
        k = n_plus + int(rng.integers(0, 4))
        alpha = float(rng.choice([1.0, 1.5, 2.0]))
        rule = str(rng.choice(["sorted_id", "seeded_random"]))
        initial = SRPair(senders=senders, receivers=receivers)
        with partition_checked(initial) as rounds:
            res = rev_filter(
                initial,
                FilterConfig(k=k, alpha_keep=alpha, split_rule=rule, seed=trial),
                OracleScorer(links),
            )
        assert len(rounds) == res.iterations
        found = {(sr.senders[0], sr.receivers[0]) for sr, s in res.links if s == 1.0}
        assert found == links, f"trial {trial}: missed true links"


@settings(max_examples=60, deadline=None)
@given(
    ns=st.integers(1, 40),
    nr=st.integers(1, 40),
    k=st.integers(1, 25),
    alpha=st.floats(1.0, 3.0),
    rule=st.sampled_from(["sorted_id", "seeded_random"]),
    seed=st.integers(0, 2**16),
)
def test_rev_filter_property_partition_termination_links(ns, nr, k, alpha, rule, seed):
    initial = SRPair(senders=tuple(range(ns)), receivers=tuple(range(100, 100 + nr)))
    rng = np.random.default_rng(seed)
    table = {}

    def scorer(srs):
        return [table.setdefault(sr, float(rng.random())) for sr in srs]

    with partition_checked(initial) as rounds:
        res = rev_filter(
            initial, FilterConfig(k=k, alpha_keep=alpha, split_rule=rule, seed=seed),
            ListScorer(scorer)
        )
    assert len(rounds) == res.iterations
    assert res.iterations <= math.ceil(math.log2(max(ns, nr)))
    links = [(sr.senders, sr.receivers) for sr, _ in res.links]
    assert all(len(s) == 1 and len(r) == 1 for s, r in links)
    assert len(set(links)) == len(links) == min(k, ns * nr)
    scores = [score_val for _, score_val in res.links]
    assert scores == sorted(scores, reverse=True)


def test_rev_filter_termination_and_call_budget():
    ns, nr = 37, 23
    initial = SRPair(senders=tuple(range(ns)), receivers=tuple(range(100, 100 + nr)))
    cfg = FilterConfig(k=5, alpha_keep=1.5)
    scorer = OracleScorer({(0, 100)})
    res = rev_filter(initial, cfg, scorer)
    horizon = math.ceil(math.log2(max(ns, nr)))
    assert res.iterations <= horizon
    assert res.iterations <= math.ceil(math.log2(ns)) + math.ceil(math.log2(nr))
    budget = sum(4 * keep_schedule(cfg, t, horizon) for t in range(res.iterations))
    budget += keep_schedule(cfg, res.iterations - 1, horizon)
    assert res.classifier_calls <= budget
    assert res.classifier_calls == scorer.calls


def test_rev_filter_matches_one_pass_with_max_scorer():
    rng = np.random.default_rng(7)
    senders = tuple(range(8))
    receivers = tuple(range(50, 58))
    base = {}
    scores = rng.permutation(len(senders) * len(receivers))
    for i, s in enumerate(senders):
        for j, r in enumerate(receivers):
            base[(s, r)] = float(scores[i * len(receivers) + j])
    for k in (1, 3, 5, 8):
        res = rev_filter(
            SRPair(senders=senders, receivers=receivers),
            FilterConfig(k=k, alpha_keep=1.0),
            MaxScorer(base),
        )
        iterative = {(sr.senders[0], sr.receivers[0]) for sr, _ in res.links}
        one_pass = set(
            sorted(base, key=lambda link: -base[link])[:k]
        )
        assert iterative == one_pass


@pytest.mark.parametrize("initial", [SRPair((1, 1, 2), (5,)), SRPair((1, 2), (5, 6, 5))])
def test_rev_filter_rejects_repeated_ids(initial):
    with pytest.raises(ValueError, match="repeats a node id"):
        rev_filter(initial, FilterConfig(k=3), OracleScorer(set()))


@pytest.mark.parametrize("bad", [-1, 5])
def test_rev_filter_rejects_ids_outside_the_feature_rows(bad):
    scorer = PairScorer(nc.build_ds_model(np.random.default_rng(0), 3, 8), np.ones((5, 3)))
    with pytest.raises(ValueError, match="5 feature rows"):
        rev_filter(SRPair((bad, 4), (0, 1)), FilterConfig(k=2), scorer)


@pytest.mark.parametrize("alpha", [0.5, math.nan, math.inf, True, "2"])
def test_filter_config_rejects_bad_alpha_keep(alpha):
    with pytest.raises(ValueError, match="alpha_keep"):
        FilterConfig(k=3, alpha_keep=alpha)


# at 800 every merge-size weight gamma * exp(-gamma * n) underflows to 0
@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, True, "0.4", 800.0])
def test_augment_config_rejects_bad_gamma(gamma):
    with pytest.raises(ValueError, match="gamma"):
        AugmentConfig(gamma=gamma)


@pytest.mark.parametrize("field, value", [
    ("merge_range", (1.5, 3)), ("merge_range", (1, 2.5)), ("merge_range", (True, 3)),
    ("merge_range", (0, 3)), ("merge_range", (4, 3)), ("merge_range", (1, 2, 3)),
    ("merge_range", 3), ("merge_range", "12"),
    ("num_outputs", 0), ("num_outputs", -2), ("num_outputs", 2.5), ("num_outputs", True),
])
def test_augment_config_rejects_bad_range_and_output_count(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be .*, got {re.escape(repr(value))}$"):
        AugmentConfig(**{field: value})


def test_make_finetune_set_takes_the_smallest_merge_at_a_large_gamma():
    # 700 * exp(-700) is still a normal double; every larger size underflows
    pairs, _ = small_pairs()
    merged = rf.make_finetune_set(pairs, AugmentConfig(gamma=700.0, merge_range=(1, 3), seed=2))
    assert {(p.sr, p.label) for p in merged} <= {(p.sr, p.label) for p in pairs}


@pytest.mark.parametrize("k", [0, 2.5, True, "3"])
def test_filter_config_rejects_k_that_is_not_an_integer_from_one(k):
    shown = f"^k must be >= 1 and an integer, got {re.escape(repr(k))}$"
    with pytest.raises(ValueError, match=shown):
        FilterConfig(k=k)


@pytest.mark.parametrize("seed", [2.5, True, "3", -1])
def test_filter_config_rejects_a_seed_that_is_not_an_integer_from_zero(seed):
    shown = f"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=shown):
        FilterConfig(k=1, seed=seed)


@pytest.mark.parametrize("seed", [2.5, True, "3", -1])
def test_augment_config_rejects_a_seed_that_is_not_an_integer_from_zero(seed):
    shown = f"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=shown):
        AugmentConfig(seed=seed)


def test_augment_config_accepts_integer_ranges_and_counts():
    for merge_range, num_outputs in [([2, 2], 1), ((np.int64(1), np.int64(3)), np.int64(4))]:
        cfg = AugmentConfig(merge_range=merge_range, num_outputs=num_outputs)
        assert (cfg.merge_range, cfg.num_outputs) == (merge_range, num_outputs)


def table_scorer(seed, fail_link=None):
    """Seeded per-pair scores in eighths, so ties are common; a list that
    holds a pair whose product contains ``fail_link`` raises."""

    def scorer(srs):
        if fail_link is not None and any(
            fail_link[0] in sr.senders and fail_link[1] in sr.receivers for sr in srs
        ):
            raise RuntimeError("boom")
        return [zlib.crc32(repr((seed, sr)).encode()) % 8 / 8 for sr in srs]

    return scorer


node_sets = st.sets(st.integers(0, 10**6), min_size=1, max_size=40)


@settings(max_examples=100, deadline=None)
@given(senders=node_sets, receivers=node_sets, k=st.integers(1, 25),
       alpha=st.floats(1.0, 3.0), seed=st.integers(0, 2**16))
def test_rev_filter_matches_reference_sorted_id(senders, receivers, k, alpha, seed):
    initial = SRPair(senders=tuple(senders), receivers=tuple(receivers))
    cfg = FilterConfig(k=k, alpha_keep=alpha)
    got = rev_filter(initial, cfg, ListScorer(table_scorer(seed)))
    assert got == rev_filter_reference(initial, cfg, table_scorer(seed))
    assert got.scorer_failures == 0


@settings(max_examples=50, deadline=None)
@given(senders=node_sets, receivers=node_sets, k=st.integers(1, 25),
       alpha=st.floats(1.0, 3.0), seed=st.integers(0, 2**16),
       pick=st.tuples(st.integers(0, 39), st.integers(0, 39)))
def test_rev_filter_matches_reference_when_scorer_raises(senders, receivers, k, alpha, seed,
                                                         pick):
    initial = SRPair(senders=tuple(senders), receivers=tuple(receivers))
    link = (initial.senders[pick[0] % len(senders)],
            initial.receivers[pick[1] % len(receivers)])
    cfg = FilterConfig(k=k, alpha_keep=alpha)
    got = rev_filter(initial, cfg, ListScorer(table_scorer(seed, link)))
    assert got == rev_filter_reference(initial, cfg, table_scorer(seed, link))
    # the first scored list always holds the block containing the link
    assert got.scorer_failures >= 1


def test_rev_filter_matches_reference_with_trained_scorer(monkeypatch):
    # PairScorer.blocks takes a slice's rho pre-activation as a difference of
    # two rows of rho-projected prefix sums of phi (mean: divided after the
    # projection), the SRPair-list call pools first and projects after:
    # links and counts are exact, scores agree up to rounding order. With
    # 7-block chunks, the k = 40 rounds concatenate several chunks' scores.
    for pool in ("sum", "mean"):
        model, pairs, fmap = small_trained_model(pool)
        scorer = PairScorer(model, fmap)
        rng = np.random.default_rng(13)
        for n_merge, k, chunk in ((3, 1, None), (6, 5, None), (12, 10, None), (12, 40, 7)):
            for _ in range(4):
                chosen = [pairs[int(i)].sr
                          for i in rng.choice(len(pairs), n_merge, replace=False)]
                initial = SRPair(senders=tuple({s for sr in chosen for s in sr.senders}),
                                 receivers=tuple({r for sr in chosen for r in sr.receivers}))
                cfg = FilterConfig(k=k)
                with monkeypatch.context() as patched:
                    if chunk:
                        patched.setattr(classifier, "SCORE_CHUNK", chunk)
                        assert len(initial.senders) * len(initial.receivers) > 2 * k
                    got = rev_filter(initial, cfg, scorer)
                    want = rev_filter_reference(initial, cfg, scorer)
                assert [sr for sr, _ in got.links] == [sr for sr, _ in want.links]
                assert (got.iterations, got.classifier_calls, got.scorer_failures) == (
                    want.iterations, want.classifier_calls, want.scorer_failures)
                got_scores, want_scores = (np.array([s for _, s in r.links])
                                           for r in (got, want))
                assert np.all(np.abs(got_scores - want_scores)
                              <= 1e-12 * np.maximum(1.0, np.abs(want_scores)))
                assert got.scorer_failures == 0 and got.iterations >= 1


# ---------------------------------------------------------------------------
# merge augmentation


def fake_labeled(n_pos, n_neg):
    out = []
    for i in range(n_pos):
        out.append(LabeledPair(sr=SRPair((i,), (500 + i,)), label=1, origin=f"p{i}"))
    for i in range(n_neg):
        out.append(LabeledPair(sr=SRPair((100 + i,), (700 + i,)), label=0, origin=f"n{i}"))
    return out


def test_truncated_pmf_consecutive_ratio():
    pmf = truncated_exp_pmf(0.4, 1, 20)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert pmf[0] / pmf[1] == pytest.approx(math.exp(0.4), abs=1e-9)


def test_merge_label_any_suspicious():
    pairs = fake_labeled(1, 1)
    merged = make_finetune_set(pairs, AugmentConfig(merge_range=(2, 2), seed=0))
    for m in merged:
        assert m.label == 1
        assert set(m.sr.senders) == {0, 100}
        assert set(m.sr.receivers) == {500, 700}


# (senders, receivers, label) rows of a small labeled pair list
PAIR_ROWS = st.lists(
    st.tuples(st.sets(st.integers(0, 30), min_size=1, max_size=4),
              st.sets(st.integers(0, 30), min_size=1, max_size=4),
              st.integers(0, 1)),
    min_size=1, max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(PAIR_ROWS, st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_merge_label_and_sides_follow_components(rows, lo, extra, seed):
    pairs = [LabeledPair(sr=SRPair(tuple(s), tuple(r)), label=y, origin=f"c{i}")
             for i, (s, r, y) in enumerate(rows)]
    by_origin = {p.origin: p for p in pairs}
    cfg = AugmentConfig(merge_range=(lo, lo + extra), seed=seed, num_outputs=20)
    for m in make_finetune_set(pairs, cfg):
        parts = [by_origin[o] for o in m.origin.split("+")]
        assert len({p.origin for p in parts}) == len(parts)
        assert m.label == int(any(p.label == 1 for p in parts))
        assert set(m.sr.senders) == set().union(*(p.sr.senders for p in parts))
        assert set(m.sr.receivers) == set().union(*(p.sr.receivers for p in parts))


@contextmanager
def recorded_rngs():
    """Collect every generator ``np.random.default_rng`` makes in the block."""
    made, real = [], np.random.default_rng

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", recording)
        yield made


def draws_and_end_state(build, pairs, cfg):
    """(pair, label, origin) of each merged pair, and the end state of the one
    generator ``build`` makes."""
    with recorded_rngs() as made:
        merged = build(pairs, cfg)
    (rng,) = made
    return [(m.sr, m.label, m.origin) for m in merged], rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    PAIR_ROWS, st.sampled_from([0.4, 2.0]) | st.floats(1e-3, 10), st.integers(1, 8),
    st.sampled_from([0, 0, 30]) | st.integers(0, 20),
    st.none() | st.integers(1, 40), st.integers(0, 2**32 - 1),
)
def test_make_finetune_set_matches_choice_reference(rows, gamma, lo, extra, n_out, seed):
    # extra = 0 makes lo == hi; 30 puts hi past every list's length
    pairs = [LabeledPair(sr=SRPair(tuple(s), tuple(r)), label=y, origin=f"c{i}")
             for i, (s, r, y) in enumerate(rows)]
    cfg = AugmentConfig(gamma=gamma, merge_range=(lo, lo + extra), seed=seed,
                        num_outputs=n_out)
    assert (draws_and_end_state(make_finetune_set, pairs, cfg)
            == draws_and_end_state(make_finetune_set_reference, pairs, cfg))


@pytest.mark.parametrize("seed", [0, 1])
def test_make_finetune_set_matches_choice_reference_past_ten_thousand_pairs(seed):
    # of n > 10,000 pairs, numpy's choice draws more than n // 50 (200 here) by
    # shuffling range(n) and fewer by Floyd's algorithm; gamma near 0 draws
    # counts on both sides
    pairs = fake_labeled(5001, 5001)
    cfg = AugmentConfig(gamma=1e-3, merge_range=(190, 215), seed=seed, num_outputs=12)
    got = draws_and_end_state(make_finetune_set, pairs, cfg)
    counts = {len(origin.split("+")) for _, _, origin in got[0]}
    assert min(counts) <= 200 < max(counts)
    assert got == draws_and_end_state(make_finetune_set_reference, pairs, cfg)


class ScriptedBits:
    """A bit generator stand-in that hands out the given 64-bit outputs."""

    def __init__(self, words):
        self.words = words
        self.state = {"used": 0, "has_uint32": 0, "uinteger": 0}

    def random_raw(self, size):
        used = self.state["used"]
        self.state = dict(self.state, used=used + size)
        return np.array((self.words + [0] * size)[used:used + size], dtype=np.uint64)


def test_merge_draws_draw_again_on_a_lemire_rejection():
    # one merge of all 3 pairs: the size takes output 0; Floyd draws nothing
    # below 1, then 1 below 2 from output 1's low half (2**31); below 3, output
    # 1's high half, 0, is rejected ((2**32 - 3) mod 3 = 1 > 0) and output 2's
    # low half gives 2; the shuffle takes 1 below 3 (output 2's high half,
    # 2**31) and 0 below 2 (output 3's low half), and output 3's high half
    # stays for the next 32-bit draw
    words = [0, 2**31, (2**31 << 32) | 0xFFFFFFFF, 7 << 32]
    bits = ScriptedBits(words)
    draws = rf._merge_draws(SimpleNamespace(bit_generator=bits), 3, [3], [1.0], 1)
    assert draws == [[2, 0, 1]]  # [0, 1, 2], then swaps (2, 1) and (1, 0)
    assert bits.state == {"used": 4, "has_uint32": 1, "uinteger": 7}


def test_merge_one_passthrough():
    pairs = fake_labeled(2, 2)
    merged = make_finetune_set(pairs, AugmentConfig(merge_range=(1, 1), seed=3))
    assert len(merged) == len(pairs)
    originals = {(p.sr, p.label) for p in pairs}
    for m in merged:
        assert (m.sr, m.label) in originals


def test_merge_size_distribution():
    pairs = fake_labeled(20, 20)
    cfg = AugmentConfig(gamma=0.4, merge_range=(1, 20), seed=1, num_outputs=30000)
    merged = make_finetune_set(pairs, cfg)
    counts = np.zeros(20)
    for m in merged:
        counts[len(m.origin.split("+")) - 1] += 1
    empirical = counts / counts.sum()
    pmf = truncated_exp_pmf(0.4, 1, 20)
    assert np.max(np.abs(empirical - pmf)) < 0.02


def test_merge_deterministic():
    pairs = fake_labeled(5, 5)
    cfg = AugmentConfig(seed=11)
    a = make_finetune_set(pairs, cfg)
    b = make_finetune_set(pairs, cfg)
    assert [(p.sr, p.label) for p in a] == [(p.sr, p.label) for p in b]


# ---------------------------------------------------------------------------
# finetune


def small_pairs():
    ds = generate(
        SynthConfig(num_entities=2500, num_suspicious=30, num_licit_subgraphs=30, seed=2)
    )
    pairs, fmap, _ = make_pairs(ds.graph, ds.subgraphs)
    return pairs, fmap


def small_trained_model(pool="sum"):
    pairs, fmap = small_pairs()
    train_p, valid_p, _ = split(pairs, SplitSpec(seed=1))
    model, _ = train("ds", train_p, valid_p, fmap,
                     TrainConfig(hidden_dim=8, pool=pool, epochs=8, patience=4, seed=0))
    return model, pairs, fmap


@pytest.mark.parametrize("arch, pool", [("ds", "sum"), ("ds", "mean"), ("bp", "sum"),
                                        ("bp", "max")])
def test_train_finetune_checkpoints_match_out_of_place_layers(arch, pool, tmp_path,
                                                              monkeypatch):
    pairs, fmap = small_pairs()
    train_p, valid_p, _ = split(pairs, SplitSpec(seed=1))
    merged = make_finetune_set(train_p, AugmentConfig(seed=5))

    def chain(name):
        model, _ = train(arch, train_p, valid_p, fmap,
                         TrainConfig(hidden_dim=8, pool=pool, epochs=3, seed=0))
        tuned, _ = finetune(model, merged, fmap, TrainConfig(epochs=2, lr=1e-3, seed=7))
        paths = [tmp_path / f"{name}-{stage}.json" for stage in ("trained", "tuned")]
        for path, m in zip(paths, (model, tuned)):
            nc.save_checkpoint(str(path), m)
        return [path.read_bytes() for path in paths]

    got = chain("in-place")
    monkeypatch.setattr(nc, "mlp_forward", mlp_forward_reference)
    assert chain("reference") == got


@pytest.mark.parametrize("arch, pool", [("ds", "sum"), ("bp", "max")])
def test_train_finetune_checkpoints_match_choice_and_allocating_adam(arch, pool, tmp_path,
                                                                     monkeypatch):
    pairs, fmap = small_pairs()
    train_p, valid_p, _ = split(pairs, SplitSpec(seed=1))

    def chain(name):
        model, _ = train(arch, train_p, valid_p, fmap,
                         TrainConfig(hidden_dim=8, pool=pool, epochs=3, seed=0))
        merged = rf.make_finetune_set(train_p, AugmentConfig(seed=5))
        tuned, _ = finetune(model, merged, fmap, TrainConfig(epochs=2, lr=1e-3, seed=7))
        paths = [tmp_path / f"{name}-{stage}.json" for stage in ("trained", "tuned")]
        for path, m in zip(paths, (model, tuned)):
            nc.save_checkpoint(str(path), m)
        return [path.read_bytes() for path in paths]

    def adam_step_writing_reference(state, params, grads):
        for p, new in zip(params, adam_step_reference(state, params, grads)):
            p[...] = new

    got = chain("new")
    monkeypatch.setattr(rf, "make_finetune_set", make_finetune_set_reference)
    monkeypatch.setattr(nc, "init_adam", init_adam_reference)
    monkeypatch.setattr(nc, "adam_step", adam_step_writing_reference)
    assert chain("reference") == got


def test_finetune_zero_epochs_identity():
    model, pairs, fmap = small_trained_model()
    merged = make_finetune_set(pairs, AugmentConfig(seed=5))
    tuned, history = finetune(model, merged, fmap, TrainConfig(epochs=0, lr=1e-4))
    assert history == []
    assert json.dumps(nc.model_to_checkpoint(tuned)) == json.dumps(
        nc.model_to_checkpoint(model)
    )


def test_finetune_leaves_input_model_unchanged():
    model, pairs, fmap = small_trained_model()
    before = json.dumps(nc.model_to_checkpoint(model))
    merged = make_finetune_set(pairs, AugmentConfig(seed=5))
    tuned, history = finetune(model, merged, fmap, TrainConfig(epochs=3, lr=1e-3, seed=7))
    assert history and tuned is not model
    assert json.dumps(nc.model_to_checkpoint(tuned)) != before
    assert json.dumps(nc.model_to_checkpoint(model)) == before


def test_finetune_smoke_and_determinism():
    model, pairs, fmap = small_trained_model()
    merged = make_finetune_set(pairs, AugmentConfig(seed=5))
    cfg = TrainConfig(epochs=3, lr=1e-4, patience=3, seed=7)
    a, hist = finetune(model, merged, fmap, cfg)
    b, _ = finetune(model, merged, fmap, cfg)
    assert hist
    nc.assert_finite(a)
    assert json.dumps(nc.model_to_checkpoint(a)) == json.dumps(nc.model_to_checkpoint(b))
