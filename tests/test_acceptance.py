"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Heavy fixtures (datasets, trained models) are session-scoped and shared.
All seeds are fixed, so every outcome here is reproducible bit for bit.
"""

import json
import math
import os
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from revtrack import neural_core as nc
from revtrack.classifier import (
    PairScorer,
    SplitSpec,
    SRPair,
    TrainConfig,
    evaluate,
    make_pairs,
    split,
    train,
)
from revtrack.graph_core import (
    Subgraph,
    break_cycles,
    build_graph,
    extract_boundary,
    graphlet_census,
)
from revtrack.rec_eval import (
    BenchmarkConfig,
    hit_ratio,
    ndcg,
    run_benchmark,
)
from revtrack.rev_filter import (
    AugmentConfig,
    FilterConfig,
    finetune,
    make_finetune_set,
    rev_filter,
    truncated_exp_pmf,
)
from revtrack.synth_gen import SynthConfig, generate
from oracles import (
    ListScorer,
    graphlet_census_bruteforce,
    plant_rec_instance,
    topological_order,
)
import pairwise_reference as ref


def report(criterion, passed, detail):
    print(f"\n[{criterion}] {'PASS' if passed else 'FAIL'} {detail}", flush=True)
    return passed


# ---------------------------------------------------------------------------
# shared random-graph helpers


def rand_background(rng, n, m):
    m = min(m, n * (n - 1))
    edges = set()
    while len(edges) < m:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((int(u), int(v)))
    feats = np.zeros((n, 2))
    adj = {u: set() for u in range(n)}
    for u, v in edges:
        adj[u].add(v)
    return build_graph(n, edges, feats), sorted(edges), adj


def rand_subgraph(rng, adj, n_total, size, sg_id="s"):
    nodes = sorted(int(v) for v in rng.choice(n_total, size=size, replace=False))
    node_set = set(nodes)
    edges = [(u, v) for u in nodes for v in adj[u] if v in node_set]
    return Subgraph(id=sg_id, nodes=tuple(nodes), edges=tuple(edges))


# ---------------------------------------------------------------------------
# heavy fixtures


CLS_CONFIG = SynthConfig(
    num_entities=40000,
    feature_dim=8,
    num_suspicious=2500,
    num_licit_subgraphs=2500,
    background_noise_edges=4000,
    seed=101,
)

REC_CONFIG = SynthConfig(
    num_entities=140000,
    feature_dim=8,
    num_suspicious=8000,
    num_licit_subgraphs=8000,
    background_noise_edges=8000,
    seed=101,
)


@pytest.fixture(scope="session")
def cls_bundle():
    ds = generate(CLS_CONFIG)
    pairs, fmap, _ = make_pairs(ds.graph, ds.subgraphs)
    return ds, pairs, fmap


@pytest.fixture(scope="session")
def rec_bundle():
    """Dataset plus base and fine-tuned classifiers for the filter criteria."""
    timings = {}
    t0 = time.time()
    ds = generate(REC_CONFIG)
    pairs, fmap, _ = make_pairs(ds.graph, ds.subgraphs)
    train_p, valid_p, test_p = split(pairs, SplitSpec(seed=0))
    timings["data"] = time.time() - t0

    t0 = time.time()
    base, _ = train("ds", train_p, valid_p, fmap, TrainConfig(seed=0, patience=30))
    timings["train"] = time.time() - t0

    t0 = time.time()
    merged = make_finetune_set(
        train_p, AugmentConfig(seed=1, num_outputs=2 * len(train_p))
    )
    tuned, _ = finetune(
        base, merged, fmap, TrainConfig(epochs=60, lr=5e-4, seed=1, patience=20)
    )
    timings["finetune"] = time.time() - t0
    return ds, fmap, base, tuned, timings


# ---------------------------------------------------------------------------
# criterion 1: boundary-extraction oracle


def naive_boundary(edge_list, subgraph):
    acyc = break_cycles(subgraph)
    nodes = set(acyc.nodes)
    sources = {v for v in acyc.nodes if not any(e[1] == v for e in acyc.edges)}
    sinks = {v for v in acyc.nodes if not any(e[0] == v for e in acyc.edges)}
    senders = {u for (u, w) in edge_list if w in sources and u not in nodes}
    receivers = {w for (u, w) in edge_list if u in sinks and w not in nodes}
    return sources, sinks, senders, receivers


def test_c01_boundary_extraction_oracle():
    rng = np.random.default_rng(11)
    t0 = time.time()
    checked = 0
    for bg in range(4):
        n = int(rng.integers(1500, 2500))
        graph, edge_list, adj = rand_background(rng, n, 3 * n)
        for _ in range(250):
            sg = rand_subgraph(rng, adj, n, int(rng.integers(2, 13)))
            b = extract_boundary(graph, sg)
            sources, sinks, senders, receivers = naive_boundary(edge_list, sg)
            assert b.sources == sources
            assert b.sinks == sinks
            assert b.senders == senders
            assert b.receivers == receivers
            checked += 1
    elapsed = time.time() - t0
    assert report("C01", checked == 1000 and elapsed < 60,
                  f"{checked} subgraphs match the quadratic oracle in {elapsed:.1f}s (< 60s)")
    assert elapsed < 60


def test_c02_cycle_breaking():
    rng = np.random.default_rng(13)
    t0 = time.time()
    done = 0
    while done < 1000:
        n = int(rng.integers(3, 16))
        _, _, adj = rand_background(rng, n, 3 * n)
        # force at least one cycle through three random nodes
        a, b, c = (int(x) for x in rng.choice(n, size=3, replace=False))
        for u, v in ((a, b), (b, c), (c, a)):
            adj[u].add(v)
        nodes = tuple(range(n))
        edges = tuple((u, v) for u in nodes for v in adj[u])
        sg = Subgraph(id=f"c{done}", nodes=nodes, edges=edges)
        assert topological_order(sg.nodes, sg.edges) is None  # cyclic input
        out = break_cycles(sg)
        assert topological_order(out.nodes, out.edges) is not None
        assert set(out.edges) < set(sg.edges)
        assert break_cycles(out).edges == out.edges
        done += 1
    elapsed = time.time() - t0
    assert report("C02", elapsed < 30,
                  f"1000 cyclic subgraphs broken acyclic, idempotent, in {elapsed:.1f}s (< 30s)")


def test_c03_graphlet_oracle():
    rng = np.random.default_rng(17)
    t0 = time.time()
    for i in range(200):
        n = int(rng.integers(2, 11))
        _, _, adj = rand_background(rng, n, int(rng.integers(1, n * (n - 1) // 2 + 1)))
        nodes = tuple(range(n))
        edges = tuple((u, v) for u in nodes for v in adj[u])
        if not edges:
            continue
        sg = Subgraph(id=f"g{i}", nodes=nodes, edges=edges)
        fast = graphlet_census([sg])
        brute = graphlet_census_bruteforce([sg])
        assert fast.counts == brute.counts
    elapsed = time.time() - t0
    assert report("C03", True,
                  f"census equals exhaustive enumeration on 200 graphs ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4: neural correctness


def _mean_loss(model, batch):
    total = 0.0
    for xs, xr, y in batch:
        total += nc.bce_loss(nc.sigmoid(nc.forward_logit(model, xs, xr)), y)
    return total / len(batch)


def _fd_max_rel_error(model, batch, h=1e-4):
    _, grads = nc.backward(model, *ref.stack(batch))
    worst = 0.0
    for p, g in zip(nc.parameters(model), grads):
        flat_p, flat_g = p.ravel(), g.ravel()
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + h
            lp = _mean_loss(model, batch)
            flat_p[j] = orig - h
            lm = _mean_loss(model, batch)
            flat_p[j] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(flat_g[j]), 1e-6)
            worst = max(worst, abs(fd - flat_g[j]) / denom)
    return worst


def _random_model_and_batch(rng, arch):
    dim = int(rng.integers(2, 5))
    hidden = int(rng.integers(3, 6))
    if arch == "ds":
        model = nc.build_ds_model(rng, dim, hidden, pool=str(rng.choice(["sum", "mean"])))
    else:
        model = nc.build_bp_model(
            rng, dim, hidden,
            readout=str(rng.choice(["sum", "mean", "max"])),
            epsilon=float(rng.uniform(0, 0.5)),
        )
    for mlp in model.mlps.values():
        for b in mlp.biases:
            b += rng.uniform(0.05, 0.3, size=b.shape) * rng.choice([-1.0, 1.0], size=b.shape)
    batch = []
    for i in range(3):
        xs = rng.normal(size=(int(rng.integers(1, 4)), dim))
        xr = rng.normal(size=(int(rng.integers(1, 4)), dim))
        batch.append((xs, xr, i % 2))
    return model, batch


def test_c04_gradients_and_invariance():
    rng = np.random.default_rng(19)
    worst = 0.0
    for arch in ("ds", "bp"):
        for _ in range(20):
            model, batch = _random_model_and_batch(rng, arch)
            worst = max(worst, _fd_max_rel_error(model, batch))
    assert worst < 1e-4

    worst_perm = 0.0
    for arch in ("ds", "bp"):
        for _ in range(10):
            model, batch = _random_model_and_batch(rng, arch)
            xs, xr, _ = batch[0]
            base = nc.forward_logit(model, xs, xr)
            for _ in range(4):
                out = nc.forward_logit(
                    model, xs[rng.permutation(len(xs))], xr[rng.permutation(len(xr))]
                )
                worst_perm = max(worst_perm, abs(out - base))
    assert worst_perm < 1e-6
    assert report("C04", True,
                  f"max FD rel err {worst:.2e} (< 1e-4) over 20 configs/arch; "
                  f"max permutation drift {worst_perm:.2e} (< 1e-6)")


# ---------------------------------------------------------------------------
# criterion 5: classification analog


def test_c05_classification_analog(cls_bundle):
    ds, pairs, fmap = cls_bundle
    assert len(pairs) == 5000
    t0 = time.time()
    train_p, valid_p, test_p = split(pairs, SplitSpec(seed=0))
    model, _ = train("ds", train_p, valid_p, fmap, TrainConfig(seed=0, patience=30))
    metrics = evaluate(model, test_p, fmap)
    elapsed = time.time() - t0
    ok_main = metrics.pr_auc >= 0.95 and metrics.f1 >= 0.90 and elapsed < 300
    report("C05", ok_main,
           f"PR-AUC={metrics.pr_auc:.4f} (>= 0.95), F1={metrics.f1:.4f} (>= 0.90), "
           f"train+eval {elapsed:.0f}s (< 300s)")
    assert metrics.pr_auc >= 0.95
    assert metrics.f1 >= 0.90
    assert elapsed < 300

    means = []
    for p in (0.03, 0.1, 0.3, 1.0):
        prs = []
        for seed in (0, 1, 2):
            spec = SplitSpec(seed=seed, few_shot_fraction=p)
            tr, va, te = split(pairs, spec)
            m, _ = train("ds", tr, va, fmap,
                         TrainConfig(seed=seed, epochs=60, patience=15))
            prs.append(evaluate(m, te, fmap).pr_auc)
        means.append(float(np.mean(prs)))
    monotone = all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
    report("C05", monotone,
           f"few-shot mean PR-AUC {['%.4f' % m for m in means]} non-decreasing over p")
    assert monotone


# ---------------------------------------------------------------------------
# criterion 6: oracle completeness


class ContainsTruthScorer(ListScorer):
    def __init__(self, truth):
        self.truth = set(truth)

    def __call__(self, srs):
        return [1.0 if any(
            (s, r) in self.truth for s in sr.senders for r in sr.receivers
        ) else 0.0 for sr in srs]


@pytest.fixture(scope="session")
def oracle_dataset():
    return generate(
        SynthConfig(
            num_entities=8000,
            num_suspicious=120,
            num_licit_subgraphs=150,
            background_noise_edges=500,
            seed=7,
        )
    )


def test_c06_oracle_completeness(oracle_dataset):
    ds = oracle_dataset
    for n_plus, n_minus, k in ((1, 10, 1), (3, 100, 10)):
        for i in range(100):
            inst = plant_rec_instance(ds, n_plus, n_minus, seed=1000 + i)
            scorer = ContainsTruthScorer(inst.truth_links)
            result = rev_filter(inst.initial_pair, FilterConfig(k=k, seed=i), scorer)
            links = [(sr.senders[0], sr.receivers[0]) for sr, _ in result.links]
            hr = hit_ratio(links, inst.truth_links, k)
            assert hr == 1.0, f"setting {n_plus}+{n_minus}@{k}, seed {i}: HR={hr}"
    assert report("C06", True,
                  "oracle scorer HR == 1.0 exactly on 100 instances per setting "
                  "{1+10@1, 3+100@10}")


# ---------------------------------------------------------------------------
# criteria 7 and 8: trained filter analogs


def test_c07_trained_filter_analog(rec_bundle):
    ds, fmap, base, tuned, timings = rec_bundle
    t0 = time.time()
    table = run_benchmark(
        ds, [(1, 6, 5)], 64,
        BenchmarkConfig(scorer=PairScorer(tuned, fmap), variant="full", seed=500),
    )
    row = table["1+6@5"]
    elapsed = timings["train"] + timings["finetune"] + (time.time() - t0)
    ok = row["hr_mean"] >= 0.80 and 0.005 <= row["density_mean"] <= 0.02 and elapsed < 600
    report("C07", ok,
           f"HR={row['hr_mean']:.4f} (>= 0.80) at density {row['density_mean']:.3%} "
           f"(~1%), N=64; train+tune+bench {elapsed:.0f}s (< 600s)")
    assert 0.005 <= row["density_mean"] <= 0.02
    assert row["hr_mean"] >= 0.80
    assert elapsed < 600


def test_c08_ablation_ordering(rec_bundle):
    ds, fmap, base, tuned, _ = rec_bundle
    setting = [(1, 20, 10)]
    rows = {}
    # the no-finetune row is the full filter run with the base checkpoint
    for row, model, variant in (
        ("full", tuned, "full"),
        ("no-finetune", base, "full"),
        ("no-iter", tuned, "no-iter"),
    ):
        table = run_benchmark(
            ds, setting, 64,
            BenchmarkConfig(scorer=PairScorer(model, fmap), variant=variant, seed=500),
        )
        rows[row] = table["1+20@10"]
    density = rows["full"]["density_mean"]
    gap_ft = rows["full"]["hr_mean"] - rows["no-finetune"]["hr_mean"]
    gap_it = rows["full"]["hr_mean"] - rows["no-iter"]["hr_mean"]
    ok = density <= 0.002 and gap_ft >= 0.10 and gap_it >= 0.10
    report("C08", ok,
           f"density {density:.3%} (<= 0.2%); HR full={rows['full']['hr_mean']:.4f}, "
           f"no-finetune={rows['no-finetune']['hr_mean']:.4f} (gap {gap_ft:+.4f}, need >= +0.10), "
           f"no-iter={rows['no-iter']['hr_mean']:.4f} (gap {gap_it:+.4f}, need >= +0.10)")
    assert density <= 0.002
    assert gap_ft >= 0.10, f"fine-tuning ablation gap {gap_ft:+.4f} < +0.10"
    # Known-red clause: a one-pass ranking with the same consistent scorer
    # sees a superset of the information the bisection filter uses, so this
    # margin is not reachable under the synthetic feature model; see the
    # project notes for the full analysis.
    assert gap_it >= 0.10, f"no-iterations ablation gap {gap_it:+.4f} < +0.10"


# ---------------------------------------------------------------------------
# criterion 9: metric oracles


def test_c09_metric_oracles():
    def hr_oracle(hits, truth_size, k):
        return sum(1 for rank in hits if rank <= k) / truth_size

    def ndcg_oracle(hits, truth_size, k):
        dcg = sum(1.0 / math.log2(rank + 1) for rank in hits if rank <= k)
        ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(truth_size, k) + 1))
        return dcg / ideal

    checked = 0
    for length in range(0, 7):
        for truth_size in (1, 2, 3):
            truth = {("t", i) for i in range(truth_size)}
            for n_hits in range(0, min(truth_size, length) + 1):
                for hit_positions in combinations(range(1, length + 1), n_hits):
                    rec = [("f", i) for i in range(length)]
                    for j, pos in enumerate(hit_positions):
                        rec[pos - 1] = ("t", j)
                    for k in range(1, length + 1):
                        assert hit_ratio(rec, truth, k) == pytest.approx(
                            hr_oracle(hit_positions, truth_size, k), abs=1e-12
                        )
                        assert ndcg(rec, truth, k) == pytest.approx(
                            ndcg_oracle(hit_positions, truth_size, k), abs=1e-12
                        )
                        checked += 1
    worked = ndcg([("t", 0), ("f", 0), ("t", 1)], {("t", 0), ("t", 1)}, 3)
    assert abs(worked - 0.91972) < 1e-5
    assert report("C09", True,
                  f"{checked} metric cases match definitional computation; "
                  f"worked NDCG {worked:.5f} == 0.91972 +/- 1e-5")


def test_c10_augmentation_distribution():
    pairs = []
    from revtrack.classifier import LabeledPair

    for i in range(25):
        pairs.append(LabeledPair(sr=SRPair((i,), (100 + i,)), label=i % 2, origin=f"o{i}"))
    cfg = AugmentConfig(gamma=0.4, merge_range=(1, 20), seed=3, num_outputs=100000)
    merged = make_finetune_set(pairs, cfg)
    counts = np.zeros(20)
    for m in merged:
        counts[len(m.origin.split("+")) - 1] += 1
    empirical = counts / counts.sum()
    pmf = truncated_exp_pmf(0.4, 1, 20)
    dev = float(np.max(np.abs(empirical - pmf)))
    assert report("C10", dev < 0.01,
                  f"max |empirical - pmf| = {dev:.5f} (< 0.01) over 100k draws")
    assert dev < 0.01


# ---------------------------------------------------------------------------
# criterion 11: pipeline determinism


def _run_pipeline(workdir):
    import hashlib

    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps({
        "num_entities": 1200, "feature_dim": 6, "num_suspicious": 25,
        "num_licit_subgraphs": 25, "background_noise_edges": 60, "seed": 4,
    }))
    data = workdir / "data"
    model = workdir / "model.json"
    tuned = workdir / "tuned.json"
    links = workdir / "links.csv"
    results = workdir / "results.json"

    # the CLI runs in a child process, which must import the package under test
    src = os.path.dirname(os.path.dirname(nc.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "revtrack.cli", *args],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    run("generate", "--config", str(cfg_path), "--out-dir", str(data))
    run("train", "--arch", "ds", "--data-dir", str(data), "--split-seed", "0",
        "--out", str(model), "--hidden-dim", "8", "--epochs", "4", "--patience", "3")
    run("finetune", "--model", str(model), "--data-dir", str(data),
        "--merge-max", "6", "--out", str(tuned), "--epochs", "2")

    from revtrack.io_utils import load_dataset
    from revtrack.rec_eval import boundary_pools

    graph, subgraphs = load_dataset(data)
    plus_pool, minus_pool = boundary_pools(subgraphs, graph)
    s_ids = sorted({s for ss, _ in plus_pool + minus_pool for s in ss})[:8]
    r_ids = sorted({r for _, rr in plus_pool + minus_pool for r in rr})[:8]
    (workdir / "s.txt").write_text("".join(f"{v}\n" for v in s_ids))
    (workdir / "r.txt").write_text("".join(f"{v}\n" for v in r_ids))
    run("filter", "--model", str(tuned), "--data-dir", str(data),
        "--senders", str(workdir / "s.txt"), "--receivers", str(workdir / "r.txt"),
        "--k", "3", "--seed", "0", "--out", str(links))
    run("bench-rec", "--model", str(tuned), "--data-dir", str(data),
        "--settings", "1+3@1", "--n-instances", "4", "--seed", "11",
        "--out", str(results))

    digests = {}
    for path in (data / "edges.csv", data / "nodes.csv", data / "subgraphs.jsonl",
                 model, tuned, links, results):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_c11_pipeline_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    da = _run_pipeline(a)
    db = _run_pipeline(b)
    same = da == db
    assert report("C11", same,
                  "generate->train->finetune->filter->bench-rec twice: "
                  + ("all output digests identical" if same else f"MISMATCH {da} vs {db}"))
