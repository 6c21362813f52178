"""Recommendation benchmark: instances, HR/NDCG, harness determinism."""

import math
import re
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtrack import neural_core as nc
from revtrack.classifier import PairScorer
from revtrack.rec_eval import (
    BenchmarkConfig,
    RecTestInstance,
    hit_ratio,
    ndcg,
    one_pass_topk,
    parse_setting,
    recommend_links,
    run_benchmark,
)
from revtrack.synth_gen import SynthConfig, generate
from oracles import (ListScorer, one_pass_topk_argsort_reference, one_pass_topk_reference,
                     plant_rec_instance)


class OracleScorer:
    def __init__(self, truth):
        self.truth = set(truth)

    def __call__(self, srs):
        return [1.0 if any(
            (s, r) in self.truth for s in sr.senders for r in sr.receivers
        ) else 0.0 for sr in srs]

    def grid(self, senders, receivers):
        return np.array([[float((s, r) in self.truth) for r in receivers] for s in senders])


def rec_dataset(seed=5, n_sus=40, n_lic=40):
    return generate(
        SynthConfig(
            num_entities=3000,
            num_suspicious=n_sus,
            num_licit_subgraphs=n_lic,
            background_noise_edges=100,
            seed=seed,
        )
    )


# ---------------------------------------------------------------------------
# instance construction


def test_degenerate_instance():
    ds = generate(
        SynthConfig(
            num_entities=200,
            num_suspicious=1,
            num_licit_subgraphs=0,
            scheme_mix={"peeling_chain": 1.0, "nested_service": 0.0, "random_path": 0.0},
            background_noise_edges=0,
            seed=3,
        )
    )
    inst = plant_rec_instance(ds, n_plus=1, n_minus=0, seed=0)
    assert len(inst.senders) == 1 and len(inst.receivers) == 1
    assert inst.truth_links == {(inst.senders[0], inst.receivers[0])}
    assert inst.density == 1.0


def test_insufficient_pool_errors():
    ds = rec_dataset(n_sus=2, n_lic=2)
    with pytest.raises(ValueError, match="insufficient"):
        plant_rec_instance(ds, n_plus=50, n_minus=0, seed=0)


def test_density_identity_and_truth_subset():
    ds = rec_dataset()
    for i in range(5):
        inst = plant_rec_instance(ds, 2, 6, seed=i)
        assert inst.density * len(inst.senders) * len(inst.receivers) == pytest.approx(
            inst.n_plus, abs=1e-9
        )
        links = set(inst.truth_links)
        assert len(links) == 2
        assert all(s in inst.senders and r in inst.receivers for s, r in links)


def test_instance_deterministic():
    ds = rec_dataset()
    a = plant_rec_instance(ds, 1, 5, seed=9)
    b = plant_rec_instance(ds, 1, 5, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# metrics


def test_hit_ratio_examples():
    assert hit_ratio([("a", "b")], {("a", "b")}, 1) == 1.0
    recommended = [("t1", "x"), ("n", "n"), ("t2", "x")]
    truth = {("t1", "x"), ("t2", "x")}
    assert hit_ratio(recommended, truth, 3) == 1.0
    assert hit_ratio([("t1", "x"), ("n", "n"), ("m", "m")], truth, 3) == 0.5


def test_ndcg_examples():
    assert ndcg([("a", "b")], {("a", "b")}, 1) == 1.0
    recommended = [("t1", "x"), ("n", "n"), ("t2", "x")]
    truth = {("t1", "x"), ("t2", "x")}
    value = ndcg(recommended, truth, 3)
    assert value == pytest.approx(0.91972, abs=1e-5)
    assert ndcg([("n", "n")], truth, 1) == 0.0


def test_metrics_reject_k_below_one():
    for metric, k in product((hit_ratio, ndcg), (0, 2.5, True)):
        with pytest.raises(ValueError, match=f"k must be >= 1 and an integer, got {k!r}"):
            metric([("a", "b")], {("a", "b")}, k)


def test_metric_errors_on_empty_truth():
    with pytest.raises(ValueError):
        hit_ratio([("a", "b")], set(), 1)
    with pytest.raises(ValueError):
        ndcg([("a", "b")], set(), 1)


def test_hr_equals_ndcg_at_k1_single_truth():
    truth = {("s", "r")}
    for rec in ([("s", "r")], [("x", "y")]):
        assert hit_ratio(rec, truth, 1) == ndcg(rec, truth, 1)


def hr_oracle(hits, truth_size, k):
    return sum(1 for rank in hits if rank <= k) / truth_size


def ndcg_oracle(hits, truth_size, k):
    dcg = 0.0
    for rank in hits:
        if rank <= k:
            dcg += 1.0 / math.log2(rank + 1)
    ideal = 0.0
    for rank in range(1, min(truth_size, k) + 1):
        ideal += 1.0 / math.log2(rank + 1)
    return dcg / ideal


def test_metrics_match_definition_all_patterns():
    # All hit-position patterns for lists up to length 6, truth up to 3.
    for length in range(0, 7):
        for truth_size in (1, 2, 3):
            truth = {("t", i) for i in range(truth_size)}
            fillers = [("f", i) for i in range(length)]
            for n_hits in range(0, min(truth_size, length) + 1):
                for hit_positions in combinations(range(1, length + 1), n_hits):
                    rec = list(fillers)
                    for j, pos in enumerate(hit_positions):
                        rec[pos - 1] = ("t", j)
                    for k in range(1, length + 1):
                        assert hit_ratio(rec, truth, k) == pytest.approx(
                            hr_oracle(hit_positions, truth_size, k), abs=1e-12
                        )
                        assert ndcg(rec, truth, k) == pytest.approx(
                            ndcg_oracle(hit_positions, truth_size, k), abs=1e-12
                        )


# ---------------------------------------------------------------------------
# harness


def test_one_pass_topk_with_oracle():
    ds = rec_dataset()
    inst = plant_rec_instance(ds, 2, 5, seed=1)
    links = one_pass_topk(inst, 2, OracleScorer(inst.truth_links))
    assert set(links) == set(inst.truth_links)


def instance_of(n_senders, n_receivers):
    """Senders are nodes 0..n_senders-1, receivers the next n_receivers."""
    return RecTestInstance(
        senders=tuple(range(n_senders)),
        receivers=tuple(range(n_senders, n_senders + n_receivers)),
        truth_links=frozenset({(0, n_senders)}), n_plus=1, n_minus=0,
    )


def test_one_pass_topk_rejects_k_below_one():
    inst = instance_of(2, 2)
    for k in (0, 2.5, True):
        with pytest.raises(ValueError, match=f"k must be >= 1 and an integer, got {k!r}"):
            one_pass_topk(inst, k, OracleScorer(inst.truth_links))


def dyadic_ds_model(rng, dim):
    """A ds model whose weights and biases are multiples of 1/8: on features
    that are multiples of 1/2 every sum is exact, whatever its order."""
    model = nc.build_ds_model(rng, dim, 8)
    for p in nc.parameters(model):
        p[...] = np.round(rng.normal(scale=0.5, size=p.shape) * 8) / 8
    return model


def test_one_pass_topk_ranks_ties_as_the_link_list_reference():
    rng = np.random.default_rng(17)
    inst = instance_of(9, 5)
    # senders 0-2, 3-5 and 6-8 are three triples of identical feature rows
    features = np.round(rng.normal(size=(14, 3)) * 2) / 2
    features[[1, 2]] = features[0]
    features[[4, 5]] = features[3]
    features[[7, 8]] = features[6]
    scorer = PairScorer(dyadic_ds_model(rng, 3), features)
    p = scorer.grid(inst.senders, inst.receivers)
    for first in (0, 3, 6):
        assert (p[first:first + 3] == p[first]).all()
    assert len(np.unique(p)) < p.size
    n_links = len(inst.senders) * len(inst.receivers)
    for k in (1, 4, 10, n_links, n_links + 5):
        assert one_pass_topk(inst, k, scorer) == one_pass_topk_reference(inst, k, scorer)


def test_one_pass_topk_ranks_as_the_link_list_reference():
    rng = np.random.default_rng(23)
    inst = instance_of(30, 17)
    scorer = PairScorer(nc.build_ds_model(rng, 4, 16), rng.normal(size=(47, 4)))
    assert one_pass_topk(inst, 510, scorer) == one_pass_topk_reference(inst, 510, scorer)


class GridStub:
    """A scorer whose ``grid`` returns a fixed array and counts its calls."""

    def __init__(self, p):
        self.p, self.calls = p, 0

    def grid(self, senders, receivers):
        self.calls += 1
        return self.p


SPECIAL = [np.nan, 0.0, -0.0, np.inf, -np.inf, 0.5, 1.0, 1e-300]


@settings(max_examples=300, deadline=None)
@given(
    n_s=st.integers(1, 40),
    n_r=st.integers(1, 40),
    palette=st.lists(st.sampled_from(SPECIAL), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_one_pass_topk_selects_as_a_full_stable_sort(n_s, n_r, palette, seed, data):
    # three values per grid give heavy ties; NaN, -0.0 against 0.0 and the
    # infinities are where a selection and a sort could disagree
    inst = instance_of(n_s, n_r)
    picks = np.random.default_rng(seed).integers(0, 3, size=(n_s, n_r))
    scorer = GridStub(np.array(palette)[picks])
    k = data.draw(st.integers(1, n_s * n_r + 5))
    assert one_pass_topk(inst, k, scorer) == one_pass_topk_argsort_reference(inst, k, scorer)


def test_one_pass_topk_rejects_a_repeated_id_before_scoring():
    for senders, receivers in (((1, 1, 2), (5,)), ((1, 2), (5, 6, 5))):
        inst = RecTestInstance(senders=senders, receivers=receivers,
                               truth_links=frozenset({(1, 5)}), n_plus=1, n_minus=0)
        scorer = GridStub(np.ones((len(senders), len(receivers))))
        for variant in ("no-iter", "full"):
            with pytest.raises(ValueError, match="initial pair repeats a node id within a side"):
                recommend_links(inst, 2, BenchmarkConfig(scorer=scorer, variant=variant), 0)
        assert scorer.calls == 0


def test_one_pass_topk_memory_stays_bounded():
    # 3,000 x 1,000 = 3M links: a list of 1-1 SRPairs alone would be ~0.3 GB
    rng = np.random.default_rng(5)
    inst = instance_of(3000, 1000)
    scorer = PairScorer(nc.build_ds_model(rng, 4, 64), rng.normal(size=(4000, 4)))
    tracemalloc.start()
    try:
        links = one_pass_topk(inst, 10, scorer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(links)) == 10
    assert peak < 128 * 2**20, f"tracemalloc peak {peak / 2**20:.0f} MB"


def test_run_benchmark_oracle_perfect_and_deterministic():
    ds = rec_dataset()

    class PoolOracle(ListScorer):
        """Scores against the truth of whichever instance is being run."""

        def __init__(self):
            self.truth = set()

        def __call__(self, srs):
            return [1.0 if any(
                (s, r) in self.truth for s in sr.senders for r in sr.receivers
            ) else 0.0 for sr in srs]

    # the harness builds instances internally, so wire the oracle per call
    from revtrack import rec_eval as re_mod

    oracle = PoolOracle()
    original = re_mod.recommend_links

    def patched(instance, k, config, seed):
        oracle.truth = set(instance.truth_links)
        return original(instance, k, config, seed)

    re_mod.recommend_links = patched
    try:
        cfg = BenchmarkConfig(scorer=oracle, variant="full", seed=100)
        table = run_benchmark(ds, [(1, 5, 1), (2, 10, 3)], 8, cfg)
        table2 = run_benchmark(ds, [(1, 5, 1), (2, 10, 3)], 8, cfg)
    finally:
        re_mod.recommend_links = original
    assert table == table2
    for setting, row in table.items():
        assert row["hr_mean"] == 1.0, setting
        assert row["ndcg_mean"] == 1.0, setting
        assert 0.0 < row["density_mean"] <= 1.0


def test_benchmark_variant_validation():
    for variant in ("bogus", "no-finetune", "keep1"):
        with pytest.raises(ValueError, match="unknown benchmark variant"):
            BenchmarkConfig(scorer=lambda srs: [0.5] * len(srs), variant=variant)
    with pytest.raises(ValueError, match="alpha_keep"):
        BenchmarkConfig(scorer=None, alpha_keep=math.nan)
    with pytest.raises(ValueError, match="unknown split rule"):
        BenchmarkConfig(scorer=None, split_rule="random")


@pytest.mark.parametrize("seed", [2.5, True, "3", -1])
def test_benchmark_config_rejects_a_seed_that_is_not_an_integer_from_zero(seed):
    shown = f"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=shown):
        BenchmarkConfig(scorer=None, seed=seed)


def test_parse_setting():
    assert parse_setting("1+5@1") == (1, 5, 1)
    assert parse_setting("10+10000@100") == (10, 10000, 100)
    with pytest.raises(ValueError):
        parse_setting("nope")
    for bad in ("1+5@0", "1+-5@1", "0+5@1", "1+5@-2"):
        with pytest.raises(ValueError, match="bad setting"):
            parse_setting(bad)
    assert parse_setting("1+0@1") == (1, 0, 1)
