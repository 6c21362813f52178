"""Classifier pipeline: pairs, splits, metrics, training determinism."""

import json
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from revtrack import classifier, io_utils
from revtrack import neural_core as nc
from revtrack import rev_filter as rf
from revtrack.classifier import (
    LabeledPair,
    PairScorer,
    SplitSpec,
    SRPair,
    TrainConfig,
    average_precision,
    deal,
    evaluate,
    f1_at_threshold,
    few_shot_subsample,
    make_pairs,
    split,
    train,
)
from revtrack.graph_core import Subgraph, build_graph
from revtrack.rec_eval import boundary_pools
from revtrack.synth_gen import SynthConfig, generate
from oracles import boundary_pools_reference, make_pairs_reference


def small_dataset(seed=11, n_sus=30, n_lic=30):
    cfg = SynthConfig(
        num_entities=2500,
        num_suspicious=n_sus,
        num_licit_subgraphs=n_lic,
        background_noise_edges=100,
        seed=seed,
    )
    return generate(cfg)


# ---------------------------------------------------------------------------
# pairs


def test_srpair_is_sorted_and_one_one():
    sr = SRPair(senders=(5, 1), receivers=(9,))
    assert sr.senders == (1, 5)
    assert not sr.is_one_one
    assert SRPair(senders=(3,), receivers=(4,)).is_one_one


def test_make_pairs_labels_and_cache():
    ds = small_dataset()
    pairs, fmap, stats = make_pairs(ds.graph, ds.subgraphs)
    assert len(pairs) == len(ds.subgraphs)
    assert stats == {"empty_boundary": 0, "unlabeled": 0}
    by_label = {0: 0, 1: 0}
    for p in pairs:
        by_label[p.label] += 1
        assert p.sr.senders and p.sr.receivers
    assert by_label[1] == 30 and by_label[0] == 30
    assert fmap is ds.graph.features


def test_make_pairs_skips_empty_boundary():
    graph = build_graph(3, [(0, 1)], np.zeros((3, 2)))
    isolated = Subgraph(id="i", nodes=(0, 1), edges=((0, 1),), label="licit")
    unlabeled = Subgraph(id="u", nodes=(0, 1), edges=((0, 1),))
    pairs, _, stats = make_pairs(graph, [isolated, unlabeled])
    assert pairs == []
    assert stats == {"empty_boundary": 1, "unlabeled": 1}


def assert_boundary_stages_match_reference(graph, subgraphs):
    pairs, features, stats = make_pairs(graph, subgraphs)
    ref_pairs, _, ref_stats = make_pairs_reference(graph, subgraphs)
    assert features is graph.features
    assert pairs == ref_pairs and stats == ref_stats
    assert boundary_pools(subgraphs, graph) == boundary_pools_reference(subgraphs, graph)


def test_boundary_stages_match_reference_on_c05_sized_data():
    ds = generate(SynthConfig(num_entities=40000, feature_dim=8, num_suspicious=2500,
                              num_licit_subgraphs=2500, background_noise_edges=4000,
                              seed=101))
    # unlabeled subgraphs and an empty boundary side must be skipped alike
    extra = [Subgraph(id="u", nodes=ds.subgraphs[0].nodes, edges=ds.subgraphs[0].edges),
             Subgraph(id="all", nodes=range(ds.graph.num_nodes), edges=(), label="licit")]
    assert_boundary_stages_match_reference(ds.graph, ds.subgraphs + extra)


def test_boundary_stages_match_reference_on_remapped_ids(tmp_path):
    ds = small_dataset(seed=5, n_sus=40, n_lic=40)
    io_utils.save_dataset(ds, str(tmp_path))
    n = ds.graph.num_nodes
    sparse = lambda v: 10**9 + (v * 7919) % 10007 * 3   # injective, not monotone
    assert n < 10007
    edges = io_utils.read_edges_csv(str(tmp_path / "edges.csv"))
    io_utils.write_edges_csv(str(tmp_path / "edges.csv"), np.vectorize(sparse)(edges))
    head, *rows = (tmp_path / "nodes.csv").read_text().splitlines()
    (tmp_path / "nodes.csv").write_text("\n".join(
        [head] + [f"{sparse(int(r.split(',', 1)[0]))},{r.split(',', 1)[1]}" for r in rows]))
    records = [json.loads(line) for line in (tmp_path / "subgraphs.jsonl").read_text().splitlines()]
    (tmp_path / "subgraphs.jsonl").write_text("".join(json.dumps({
        **r, "nodes": [sparse(v) for v in r["nodes"]],
        "edges": [[sparse(u), sparse(v)] for u, v in r["edges"]]}) + "\n" for r in records))
    graph, subgraphs = io_utils.load_dataset(str(tmp_path))
    assert graph.node_ids is not None and len(subgraphs) == 80
    assert_boundary_stages_match_reference(graph, subgraphs)


# ---------------------------------------------------------------------------
# split


def fake_pairs(n_pos, n_neg):
    out = []
    for i in range(n_pos):
        out.append(LabeledPair(sr=SRPair((i,), (1000 + i,)), label=1, origin=f"p{i}"))
    for i in range(n_neg):
        out.append(LabeledPair(sr=SRPair((i + 500,), (2000 + i,)), label=0, origin=f"n{i}"))
    return out


def test_split_stratified_80_10_10():
    pairs = fake_pairs(10, 90)
    train_p, valid_p, test_p = split(pairs, SplitSpec(seed=3))
    assert (len(train_p), len(valid_p), len(test_p)) == (80, 10, 10)
    assert sum(p.label for p in train_p) == 8
    assert sum(p.label for p in valid_p) == 1
    assert sum(p.label for p in test_p) == 1
    ids = lambda ps: {p.origin for p in ps}
    assert ids(train_p) | ids(valid_p) | ids(test_p) == ids(pairs)
    assert not (ids(train_p) & ids(valid_p)) and not (ids(valid_p) & ids(test_p))
    assert not (ids(train_p) & ids(test_p))


def test_split_deterministic():
    pairs = fake_pairs(10, 90)
    a = split(pairs, SplitSpec(seed=5))
    b = split(pairs, SplitSpec(seed=5))
    assert [[p.origin for p in part] for part in a] == [
        [p.origin for p in part] for part in b
    ]


def test_few_shot_rounding():
    pairs = fake_pairs(10, 90)
    train_p, _, _ = split(pairs, SplitSpec(seed=3))
    assert len(train_p) == 80 and sum(p.label for p in train_p) == 8
    sub = few_shot_subsample(train_p, 0.3)
    assert sum(p.label for p in sub) == 2  # round-half-up(0.3 * 8) = 2
    assert len(sub) == 24  # 2 positives + round-half-up(0.3 * 72) = 22


def test_few_shot_nesting():
    pairs = fake_pairs(20, 80)
    train_p, _, _ = split(pairs, SplitSpec(seed=9))
    small = {p.origin for p in few_shot_subsample(train_p, 0.1)}
    large = {p.origin for p in few_shot_subsample(train_p, 0.5)}
    assert small <= large


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(0, 60), st.integers(0, 2**32 - 1),
       st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4))
def test_split_nested_across_few_shot_fractions(n_pos, n_neg, seed, fractions):
    pairs = fake_pairs(n_pos, n_neg)
    assume(len(pairs) >= 10)
    fractions = sorted(fractions)
    parts = [split(pairs, SplitSpec(seed=seed, few_shot_fraction=f)) for f in fractions]
    origins = [[{p.origin for p in part} for part in split_parts] for split_parts in parts]
    for (small_train, small_valid, small_test), (large_train, large_valid, large_test) in zip(
        origins, origins[1:]
    ):
        assert small_train <= large_train
        assert (small_valid, small_test) == (large_valid, large_test)


def test_few_shot_full_fraction_identity():
    pairs = fake_pairs(10, 90)
    spec_full = SplitSpec(seed=3, few_shot_fraction=1.0)
    train_p, _, _ = split(pairs, spec_full)
    assert len(train_p) == 80


def test_split_minimum_size_and_positives():
    with pytest.raises(ValueError):
        split(fake_pairs(1, 3), SplitSpec())
    with pytest.raises(ValueError, match="no positive"):
        split(fake_pairs(0, 20), SplitSpec())


def test_per_class_split_sizes_follow_their_rules_for_every_class_size():
    # split, few_shot_subsample and the fine-tune deal all round half up: in exact
    # integers, round-half-up(n / 10) is (n + 5) // 10
    pos, neg = fake_pairs(2000, 0), fake_pairs(0, 9)
    for n in range(1, 2001):
        group = pos[:n]
        parts = split(group + neg[:max(0, 10 - n)], SplitSpec(seed=n))
        n_valid = max((n + 5) // 10, int(n >= 3))
        n_test = max((n + 5) // 10, int(n >= 2))
        assert [sum(p.label for p in part) for part in parts] == [
            n - n_valid - n_test, n_valid, n_test]
        assert n - n_valid - n_test >= 1
        n_held = max((n + 5) // 10, int(n >= 2))
        valid_p, train_p = deal(group, n, (2,))
        assert (len(train_p), len(valid_p)) == (n - n_held, n_held) and train_p
        for fraction, kept in ((0.25, (n + 2) // 4), (0.5, (n + 1) // 2)):
            assert len(few_shot_subsample(group, fraction)) == max(1, kept)


# ---------------------------------------------------------------------------
# metrics


def test_average_precision_hand_examples():
    assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0
    assert average_precision([0.9, 0.4, 0.1], [0, 1, 0]) == 0.5


def test_f1_hand_examples():
    assert f1_at_threshold([0.9, 0.8, 0.1], [1, 1, 0], 0.5) == 1.0
    assert f1_at_threshold([0.9, 0.4, 0.1], [0, 1, 0], 0.5) == 0.0


def ap_bruteforce(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(labels)
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits = sum(1 for j in order[:rank] if labels[j] == 1)
            total += hits / rank
    return total / n_pos


def test_average_precision_matches_bruteforce_all_patterns():
    for n in range(1, 9):
        scores = np.linspace(0.9, 0.1, n)
        for pattern in product((0, 1), repeat=n):
            if sum(pattern) == 0:
                continue
            assert average_precision(scores, pattern) == pytest.approx(
                ap_bruteforce(list(scores), list(pattern)), abs=1e-12
            )


def test_average_precision_requires_positive():
    with pytest.raises(ValueError):
        average_precision([0.4, 0.2], [0, 0])


# ---------------------------------------------------------------------------
# training / scoring


def trained_small(arch="ds", seed=0):
    ds = small_dataset(seed=21, n_sus=25, n_lic=25)
    pairs, fmap, _ = make_pairs(ds.graph, ds.subgraphs)
    train_p, valid_p, test_p = split(pairs, SplitSpec(seed=1))
    cfg = TrainConfig(hidden_dim=8, epochs=12, patience=5, seed=seed)
    model, history = train(arch, train_p, valid_p, fmap, cfg)
    return model, history, fmap, test_p


def test_train_smoke_and_checkpoint():
    model, history, fmap, test_p = trained_small()
    assert history
    ckpt = nc.model_to_checkpoint(model)
    assert ckpt["arch"] == "ds"
    metrics = evaluate(model, test_p, fmap)
    assert 0.0 <= metrics.pr_auc <= 1.0
    assert 0.0 <= metrics.f1 <= 1.0


def test_train_degenerate_two_pairs():
    ds = small_dataset(seed=33, n_sus=6, n_lic=6)
    pairs, fmap, _ = make_pairs(ds.graph, ds.subgraphs)
    tiny = [next(p for p in pairs if p.label == 1), next(p for p in pairs if p.label == 0)]
    cfg = TrainConfig(hidden_dim=4, epochs=2, patience=2, seed=0)
    model, _ = train("ds", tiny, [], fmap, cfg)
    assert nc.model_to_checkpoint(model)["weights"]


def test_train_deterministic_checkpoints():
    a, _, _, _ = trained_small(seed=4)
    b, _, _, _ = trained_small(seed=4)
    assert json.dumps(nc.model_to_checkpoint(a)) == json.dumps(nc.model_to_checkpoint(b))


def test_train_model_batches_hold_every_pair_once_per_epoch(monkeypatch):
    rng = np.random.default_rng(8)
    features = rng.normal(size=(40, 3))
    pairs = [LabeledPair(sr=SRPair(tuple(rng.choice(40, int(rng.integers(1, 6)), replace=False)),
                                   tuple(rng.choice(40, int(rng.integers(1, 6)), replace=False))),
                         label=i % 2) for i in range(23)]
    batches = []
    backward = nc.backward

    def record(model, xs, xr, ns, nr, y, pos_weight):
        batches.append((xs, xr, ns, nr, y))
        return backward(model, xs, xr, ns, nr, y, pos_weight)

    monkeypatch.setattr(nc, "backward", record)
    model = nc.build_ds_model(rng, 3, 4)
    classifier.train_model(model, pairs, [], features, TrainConfig(epochs=2, batch_size=5))
    expected = sorted((features[list(p.sr.senders)].tobytes(),
                       features[list(p.sr.receivers)].tobytes(), p.label) for p in pairs)
    assert len(batches) == 2 * 5
    for epoch in (batches[:5], batches[5:]):
        seen = [(s.tobytes(), r.tobytes(), label)
                for xs, xr, ns, nr, y in epoch
                for s, r, label in zip(np.split(xs, np.cumsum(ns)[:-1]),
                                       np.split(xr, np.cumsum(nr)[:-1]), y)]
        assert sorted(seen) == expected


def test_train_model_trains_in_place_and_keeps_best_epoch():
    ds = small_dataset(seed=21, n_sus=25, n_lic=25)
    pairs, fmap, _ = make_pairs(ds.graph, ds.subgraphs)
    train_p, valid_p, _ = split(pairs, SplitSpec(seed=1))
    model = nc.build_ds_model(np.random.default_rng(0), fmap.shape[1], hidden_dim=8)
    cfg = TrainConfig(hidden_dim=8, epochs=12, patience=12, lr=0.03)
    out, history = classifier.train_model(model, train_p, valid_p, fmap, cfg)
    metrics = [h["valid_metric"] for h in history]
    assert len(history) == 12 and metrics[-1] < max(metrics)  # peaks early
    assert out is model
    assert classifier._validation_metric(model, valid_p, fmap) == max(metrics)


@pytest.mark.parametrize("field, value", [
    ("hidden_dim", 2.5), ("hidden_dim", True), ("batch_size", 2.5), ("batch_size", True),
    ("epochs", 2.5), ("epochs", True), ("patience", 2.5), ("patience", False),
    ("lr", True), ("lr", "0.1"), ("pos_weight", True), ("pos_weight", 0.0),
])
def test_train_config_rejects_bools_fractions_and_strings(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be .*, got {re.escape(repr(value))}$"):
        TrainConfig(**{field: value})


BAD_SEEDS = [2.5, True, "3", -1]


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_train_config_rejects_a_seed_that_is_not_an_integer_from_zero(seed):
    shown = f"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=shown):
        TrainConfig(seed=seed)


@pytest.mark.parametrize("field, value", [
    *(("seed", seed) for seed in BAD_SEEDS),
    ("few_shot_fraction", True), ("few_shot_fraction", "0.5"), ("few_shot_fraction", None),
])
def test_split_spec_rejects_bad_seeds_and_fractions(field, value):
    shown = (f"^seed must be an integer >= 0, got {re.escape(repr(value))}$" if field == "seed"
             else r"^few_shot_fraction must be in \(0, 1\]$")
    with pytest.raises(ValueError, match=shown):
        SplitSpec(**{field: value})


def test_train_config_accepts_numpy_numbers():
    cfg = TrainConfig(hidden_dim=np.int64(4), epochs=np.int64(0), lr=np.float64(0.5))
    assert (cfg.hidden_dim, cfg.epochs, cfg.lr) == (4, 0, 0.5)


def test_train_requires_both_classes():
    ds = small_dataset(seed=33, n_sus=6, n_lic=6)
    pairs, fmap, _ = make_pairs(ds.graph, ds.subgraphs)
    pos_only = [p for p in pairs if p.label == 1]
    with pytest.raises(ValueError):
        train("ds", pos_only, [], fmap, TrainConfig(epochs=1))


def test_score_range_and_scorer_consistency():
    model, _, fmap, test_p = trained_small()
    scorer = PairScorer(model, fmap)
    for p in test_p[:8]:
        s1 = scorer.score(p.sr)
        xs = fmap[list(p.sr.senders)]
        xr = fmap[list(p.sr.receivers)]
        s3 = nc.sigmoid(nc.forward_logit(model, xs, xr))
        assert 0.0 < s1 < 1.0
        assert s1 == pytest.approx(s3, abs=1e-9)


def test_score_empty_side_errors():
    model, _, fmap, _ = trained_small()
    with pytest.raises(ValueError):
        PairScorer(model, fmap).score(SRPair(senders=(), receivers=(1,)))


@pytest.mark.parametrize("bad", [-1, 5])
def test_scorer_rejects_ids_outside_the_feature_table(bad):
    rng = np.random.default_rng(2)
    scorer = PairScorer(nc.build_ds_model(rng, 3, 4), rng.normal(size=(5, 3)))
    for call in (
        lambda: scorer([SRPair(senders=(0,), receivers=(1,)),
                        SRPair(senders=(bad,), receivers=(0,))]),
        lambda: scorer.score(SRPair(senders=(0,), receivers=(bad,))),
        lambda: scorer.grid([bad], [0]),
        lambda: scorer.grid([0], [1, bad]),
        lambda: scorer.blocks([0, bad], [1]),
        lambda: scorer.blocks([0], [bad]),
    ):
        with pytest.raises(ValueError, match="must index the 5 feature rows"):
            call()


@pytest.mark.parametrize("bad", [-1, 7])
def test_training_rejects_ids_outside_the_feature_table(bad):
    rng = np.random.default_rng(3)
    model, features = nc.build_ds_model(rng, 3, 4), rng.normal(size=(5, 3))
    pairs = [LabeledPair(SRPair((bad,), (0,)), 1)] + [
        LabeledPair(SRPair((i,), (i + 1,)), i % 2) for i in range(4)] * 5
    config = TrainConfig(epochs=1)
    for call in (lambda: classifier.train_model(model, pairs[:1], [], features, config),
                 lambda: rf.finetune(model, pairs, features, config)):
        with pytest.raises(ValueError, match="must index the 5 feature rows"):
            call()


def test_evaluate_single_class_errors():
    model, _, fmap, test_p = trained_small()
    pos_only = [p for p in test_p if p.label == 1]
    with pytest.raises(ValueError, match="single-class"):
        evaluate(model, pos_only, fmap)
