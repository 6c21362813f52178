"""Bisection filter: splitting, pruning, schedules, merge augmentation."""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtrack import rev_filter as rf

from revtrack import neural_core as nc
from revtrack.classifier import (
    LabeledPair,
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
    split_pair,
    truncated_exp_pmf,
)
from revtrack.synth_gen import SynthConfig, generate


class OracleScorer:
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


class MaxScorer:
    """Max of fixed injective per-link base scores over the pair's product."""

    def __init__(self, base):
        self.base = base

    def __call__(self, srs):
        return [max(self.base[(s, r)] for s in sr.senders for r in sr.receivers)
                for sr in srs]


# ---------------------------------------------------------------------------
# split_pair / expand


def test_split_pair_sorted_rule():
    sr = SRPair(senders=(1, 2, 3, 4), receivers=(5, 6))
    s1, s2, r1, r2 = split_pair(sr)
    assert (s1, s2) == ((1, 2), (3, 4))
    assert (r1, r2) == ((5,), (6,))


def test_split_pair_singleton_side():
    s1, s2, r1, r2 = split_pair(SRPair(senders=(7,), receivers=(1, 2)))
    assert s1 == (7,) and s2 == ()
    assert r1 == (1,) and r2 == (2,)


def test_split_pair_odd_side():
    s1, s2, _, _ = split_pair(SRPair(senders=(1, 2, 3), receivers=(9,)))
    assert len(s1) == 2 and len(s2) == 1


def test_expand_quadrants():
    out = expand([(SRPair(senders=(1, 2), receivers=(3, 4)), None)])
    got = [(sr.senders, sr.receivers) for sr, _ in out]
    assert got == [((1,), (3,)), ((1,), (4,)), ((2,), (3,)), ((2,), (4,))]


def test_expand_carries_one_one():
    entries = [(SRPair(senders=(1,), receivers=(3,)), 0.7)]
    assert expand(entries) == entries


def test_expand_singleton_side_two_children():
    out = expand([(SRPair(senders=(1,), receivers=(3, 4)), None)])
    got = [(sr.senders, sr.receivers) for sr, _ in out]
    assert got == [((1,), (3,)), ((1,), (4,))]


def test_expand_children_partition_parent_exhaustive():
    for ns in range(1, 7):
        for nr in range(1, 7):
            if ns == 1 and nr == 1:
                continue
            parent = SRPair(senders=tuple(range(ns)), receivers=tuple(range(100, 100 + nr)))
            children = expand([(parent, None)])
            seen = set()
            for sr, _ in children:
                prod = {(s, r) for s in sr.senders for r in sr.receivers}
                assert not (prod & seen), "children products overlap"
                seen |= prod
            assert seen == {(s, r) for s in parent.senders for r in parent.receivers}


def test_expand_seeded_random_deterministic():
    clist = [(SRPair(senders=tuple(range(8)), receivers=tuple(range(20, 26))), None)]
    a = expand(clist, "seeded_random", np.random.default_rng(5))
    b = expand(clist, "seeded_random", np.random.default_rng(5))
    assert a == b


# ---------------------------------------------------------------------------
# filter_step / keep_schedule


def test_filter_step_stable_ties():
    pairs = [SRPair(senders=(i,), receivers=(100 + i,)) for i in range(3)]
    table = {pairs[0]: 0.9, pairs[1]: 0.2, pairs[2]: 0.9}
    clist = [(p, None) for p in pairs]
    kept, calls, failures = filter_step(clist, 2, lambda srs: [table[sr] for sr in srs])
    assert [e[0] for e in kept] == [pairs[0], pairs[2]]
    assert [e[1] for e in kept] == [0.9, 0.9]
    assert calls == 3 and failures == 0


def test_filter_step_within_budget_unchanged():
    clist = [(SRPair(senders=(1,), receivers=(2,)), None)]
    calls = []
    kept, made, _ = filter_step(clist, 5, lambda srs: calls.extend(srs) or [1.0] * len(srs))
    assert kept is clist
    assert made == 0 and calls == []


def test_filter_step_scorer_failure_scores_zero():
    pairs = [SRPair(senders=(i,), receivers=(100 + i,)) for i in range(3)]

    def flaky(srs):
        if pairs[1] in srs:
            raise RuntimeError("boom")
        return [0.5] * len(srs)

    kept, _, failures = filter_step([(p, None) for p in pairs], 2, flaky)
    assert failures == 1
    assert pairs[1] not in [e[0] for e in kept]


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


def _assert_partition(entries, initial: SRPair):
    all_s = set(initial.senders)
    all_r = set(initial.receivers)
    for i, (a, _) in enumerate(entries):
        assert set(a.senders) <= all_s and set(a.receivers) <= all_r
        for b, _ in entries[i + 1 :]:
            if set(a.senders) & set(b.senders) and set(a.receivers) & set(b.receivers):
                raise AssertionError(f"overlapping candidate products: {a} vs {b}")


@contextmanager
def partition_checked(initial):
    """Check every round's kept candidates against ``initial`` while
    rev_filter runs; yields the list of per-round kept counts."""
    rounds = []
    original = rf.filter_step

    def checked(candidates, keep_count, scorer):
        out = original(candidates, keep_count, scorer)
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
            initial, FilterConfig(k=k, alpha_keep=alpha, split_rule=rule, seed=seed), scorer
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


def small_trained_model():
    ds = generate(
        SynthConfig(num_entities=2500, num_suspicious=30, num_licit_subgraphs=30, seed=2)
    )
    pairs, fmap, _ = make_pairs(ds.graph, ds.subgraphs)
    train_p, valid_p, _ = split(pairs, SplitSpec(seed=1))
    model, _ = train("ds", train_p, valid_p, fmap,
                     TrainConfig(hidden_dim=8, epochs=8, patience=4, seed=0))
    return model, pairs, fmap


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
