"""The four benchmark workloads, their inputs and their output checks.

Each workload is a closed loop with one client. ``setup()`` draws a fixed
list of distinct queries from ``--seed``; the loop runs them round-robin
and ``op(j)`` runs query j to completion, returning (latency in seconds,
output ok). The program only sees the generated data. All calls go
through module attributes so that the tracer's wrappers are the ones
called.
"""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
if not (SRC / "revtrack" / "__init__.py").exists():
    sys.exit(f"error: no revtrack sources under {SRC}")

from revtrack import classifier, cli, io_utils, neural_core, rec_eval, synth_gen  # noqa: E402
import revtrack.rev_filter as rf  # noqa: E402

BUILD_DIR = ROOT / ".bench_build"
FIXTURE_DIR = BUILD_DIR / "fixture-v1"

# C05 of the acceptance suite, minus the seed, and a quarter of it.
C05 = dict(num_entities=40000, feature_dim=8, num_suspicious=2500,
           num_licit_subgraphs=2500, background_noise_edges=4000)
C05_QUARTER = dict(num_entities=10000, feature_dim=8, num_suspicious=625,
                   num_licit_subgraphs=625, background_noise_edges=1000)
FIXTURE_SEED = 101
K = 10
SMALL_MINUS, LARGE_MINUS = 20, 100   # 1+20@10 and 1+100@10
FILTER_QUERIES, ONE_PASS_QUERIES = 32, 32
TRAIN_JOBS, TRAIN_SHARDS = 8, 64
FIT_EPOCHS, FINETUNE_EPOCHS = 1, 1


# ---------------------------------------------------------------------------
# fixture: the analyst's graph and tuned model, fixed across seeds


def build_fixture():
    """Write the C05 dataset and a fine-tuned ds model under FIXTURE_DIR."""
    tmp = BUILD_DIR / f"fixture-tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    ds = synth_gen.generate(synth_gen.SynthConfig(**C05, seed=FIXTURE_SEED))
    io_utils.save_dataset(ds, str(tmp / "data"))
    pairs, fmap, _ = classifier.make_pairs(ds.graph, ds.subgraphs)
    train, valid, _ = classifier.split(pairs, classifier.SplitSpec(seed=0))
    base, _ = classifier.train("ds", train, valid, fmap,
                               classifier.TrainConfig(seed=0, epochs=12))
    merged = rf.make_finetune_set(
        train, rf.AugmentConfig(seed=1, num_outputs=2 * len(train)))
    tuned, _ = rf.finetune(base, merged, fmap,
                           classifier.TrainConfig(epochs=6, lr=5e-4, seed=1))
    neural_core.save_checkpoint(str(tmp / "tuned.json"), tuned)
    os.replace(tmp, FIXTURE_DIR)


def ensure_fixture():
    """Build the fixture once per checkout, in a child process so that its
    memory does not count towards this run's peak RSS."""
    if not FIXTURE_DIR.exists():
        BUILD_DIR.mkdir(exist_ok=True)
        subprocess.run([sys.executable, str(HERE / "run_bench.py"), "--build-fixture"],
                       check=True, stdout=subprocess.DEVNULL, timeout=900)


# ---------------------------------------------------------------------------
# inputs and checks


def sample_query(rng, plus_pool, minus_pool, n_minus):
    """A 1+n_minus instance: one 1-1 suspicious boundary merged with licit ones."""
    s_plus, r_plus = plus_pool[int(rng.integers(len(plus_pool)))]
    senders, receivers = set(s_plus), set(r_plus)
    for j in rng.choice(len(minus_pool), size=n_minus, replace=False):
        s, r = minus_pool[int(j)]
        senders.update(s)
        receivers.update(r)
    return rec_eval.RecTestInstance(
        senders=tuple(sorted(senders)), receivers=tuple(sorted(receivers)),
        truth_links=frozenset({(s_plus[0], r_plus[0])}), n_plus=1, n_minus=n_minus,
    )


def links_ok(links, query, k):
    """Distinct (sender, receiver) links inside S x R, exactly min(k, |S||R|)."""
    senders, receivers = set(query.senders), set(query.receivers)
    return (
        len(links) == min(k, len(senders) * len(receivers))
        and len(set(links)) == len(links)
        and all(s in senders and r in receivers for s, r in links)
    )


# ---------------------------------------------------------------------------
# workloads


class Workload:
    stages = 1   # operations per query; see run_bench.best_latencies

    def __init__(self, seed):
        self.seed = seed
        self.hr, self.ndcg = {}, {}   # query index -> quality of its links
        self.phi_misses = 0

    def score_links(self, j, links, query):
        self.hr[j] = rec_eval.hit_ratio(links, query.truth_links, K)
        self.ndcg[j] = rec_eval.ndcg(links, query.truth_links, K)

    def outcomes(self):
        """Quality and rate figures of the run (0 where not applicable)."""
        mean = lambda d: float(np.mean(list(d.values()))) if d else 0.0
        return {"hr_at_k": mean(self.hr), "ndcg_at_k": mean(self.ndcg)}


class Train(Workload):
    """Fit ds classifiers, evaluate them, then fine-tune them on merged pairs.

    The seed's 4,000 training pairs (and its validation and test pairs) are
    dealt into TRAIN_SHARDS disjoint shards of about 63 pairs, one batch
    each; the first TRAIN_JOBS shards are the jobs. A job has three stages,
    run as separate operations as `revtrack train`, `eval-cls` and
    `finetune` are three commands; each works on the model the stage before
    it left. Few, short jobs let every stage repeat often enough within a
    run for its fastest repetition to be the program's own cost.
    """

    stages = 3

    def setup(self):
        ds = synth_gen.generate(synth_gen.SynthConfig(**C05, seed=self.seed))
        pairs, self.fmap, _ = classifier.make_pairs(ds.graph, ds.subgraphs)
        train, valid, test = classifier.split(pairs, classifier.SplitSpec(seed=self.seed))
        self.jobs = [(train[i::TRAIN_SHARDS], valid[i::TRAIN_SHARDS], test[i::TRAIN_SHARDS])
                     for i in range(TRAIN_JOBS)]
        self.queries = [stage for _ in self.jobs
                        for stage in (self.fit, self.evaluate, self.finetune)]
        self.models, self.pr_auc = {}, {}
        self.work, self.best = {}, {}   # operation -> pair-epochs, fastest seconds

    def op(self, j):
        t0 = perf_counter()
        self.work[j], ok = self.queries[j](j // self.stages)
        latency = perf_counter() - t0
        self.best[j] = min(latency, self.best.get(j, latency))
        return latency, ok

    def fit(self, job):
        train, valid, _ = self.jobs[job]
        self.models[job], history = classifier.train(
            "ds", train, valid, self.fmap,
            classifier.TrainConfig(epochs=FIT_EPOCHS, seed=self.seed + job))
        return len(train) * len(history), True

    def evaluate(self, job):
        pr_auc = classifier.evaluate(self.models[job], self.jobs[job][2], self.fmap).pr_auc
        self.pr_auc[job] = pr_auc
        return 0, math.isfinite(pr_auc) and 0.0 <= pr_auc <= 1.0

    def finetune(self, job):
        seed = self.seed + job
        merged = rf.make_finetune_set(self.jobs[job][0], rf.AugmentConfig(seed=seed))
        _, history = rf.finetune(
            self.models[job], merged, self.fmap,
            classifier.TrainConfig(epochs=FINETUNE_EPOCHS, lr=1e-4, seed=seed))
        return len(merged) * len(history), True

    def outcomes(self):
        def rate(stage):   # pair-epochs per second over the stage's fastest runs
            ops = [j for j in self.best if j % self.stages == stage]
            return (sum(self.work[j] for j in ops) / sum(self.best[j] for j in ops)
                    if ops else 0.0)

        return {
            **super().outcomes(),
            "train_pairs_per_s": rate(0),
            "finetune_pairs_per_s": rate(2),
            "test_pr_auc": median(self.pr_auc.values()) if self.pr_auc else 0.0,
        }


class Filter(Workload):
    """rev_filter queries, 3:1 between 1+20@10 and 1+100@10, fresh scorer each."""

    n_queries = FILTER_QUERIES

    @staticmethod
    def n_minus(j):
        return LARGE_MINUS if j % 4 == 3 else SMALL_MINUS

    def setup(self):
        graph, subgraphs = io_utils.load_dataset(str(FIXTURE_DIR / "data"))
        self.model = neural_core.load_checkpoint(str(FIXTURE_DIR / "tuned.json"))
        _, self.fmap, _ = classifier.make_pairs(graph, subgraphs)
        plus, minus = rec_eval.boundary_pools(subgraphs, graph)
        rng = np.random.default_rng(self.seed)
        self.queries = [sample_query(rng, plus, minus, self.n_minus(j))
                        for j in range(self.n_queries)]

    def op(self, j):
        query = self.queries[j]
        t0 = perf_counter()
        scorer = classifier.PairScorer(self.model, self.fmap)
        result = rf.rev_filter(query.initial_pair, rf.FilterConfig(k=K), scorer)
        latency = perf_counter() - t0
        self.phi_misses += len(getattr(scorer, "_phi_cache", ()))
        links = [(sr.senders[0], sr.receivers[0]) for sr, _ in result.links
                 if sr.is_one_one]
        self.score_links(j, links, query)
        ok = (len(links) == len(result.links) and result.scorer_failures == 0
              and links_ok(links, query, K))
        return latency, ok


class OnePass(Filter):
    """The no-iter variant at 1+20@10, one scorer shared across the run."""

    n_queries = ONE_PASS_QUERIES

    @staticmethod
    def n_minus(j):
        return SMALL_MINUS

    def setup(self):
        super().setup()
        self.scorer = classifier.PairScorer(self.model, self.fmap)

    def op(self, j):
        query = self.queries[j]
        t0 = perf_counter()
        links = rec_eval.one_pass_topk(query, K, self.scorer)
        latency = perf_counter() - t0
        self.phi_misses = len(getattr(self.scorer, "_phi_cache", ()))
        self.score_links(j, links, query)
        return latency, links_ok(links, query, K)


class ColdCli(Workload):
    """In-process `revtrack generate`, `graphlets` and one cold `filter`
    on a quarter-C05 dataset: one query of three stages, one per command."""

    stages = 3

    def setup(self):
        self.work = BUILD_DIR / "cold-cli"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        config = dict(C05_QUARTER, seed=self.seed)
        ds = synth_gen.generate(synth_gen.SynthConfig.from_json_dict(config))
        plus, minus = rec_eval.boundary_pools(ds.subgraphs, ds.graph)
        self.query = sample_query(np.random.default_rng(self.seed), plus, minus,
                                  SMALL_MINUS)
        p = {name: str(self.work / name) for name in (
            "config.json", "senders.txt", "receivers.txt", "data", "graphlets.json",
            "links.csv")}
        with open(p["config.json"], "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        for name, ids in (("senders.txt", self.query.senders),
                          ("receivers.txt", self.query.receivers)):
            with open(p[name], "w", encoding="utf-8") as fh:
                fh.write("".join(f"{n}\n" for n in ids))
        self.paths = p
        self.argvs = self.queries = [
            ["generate", "--config", p["config.json"], "--out-dir", p["data"]],
            ["graphlets", "--subgraphs", os.path.join(p["data"], "subgraphs.jsonl"),
             "--out", p["graphlets.json"]],
            ["filter", "--model", str(FIXTURE_DIR / "tuned.json"), "--data-dir", p["data"],
             "--senders", p["senders.txt"], "--receivers", p["receivers.txt"],
             "--k", str(K), "--out", p["links.csv"]],
        ]

    def op(self, j):
        p = self.paths
        if j == 0:
            shutil.rmtree(p["data"], ignore_errors=True)
            for name in ("graphlets.json", "links.csv"):
                for path in (p[name], p[name] + ".manifest.json"):
                    if os.path.exists(path):
                        os.remove(path)
        t0 = perf_counter()
        code = cli.main(self.argvs[j])
        latency = perf_counter() - t0
        return latency, code == 0 and self.outputs_ok(j)

    def outputs_ok(self, j):
        """The files command j wrote parse; the links pass the link check."""
        p = self.paths
        manifest = [os.path.join(p["data"], "run_manifest.json"),
                    p["graphlets.json"] + ".manifest.json",
                    p["links.csv"] + ".manifest.json"][j]
        try:
            for path in [manifest] + ([p["graphlets.json"]] if j == 1 else []):
                with open(path, encoding="utf-8") as fh:
                    json.load(fh)
            if j < 2:
                return True
            with open(p["links.csv"], encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != ["rank", "sender", "receiver", "score"]:
                return False
            links = [(int(s), int(r)) for _, s, r, _ in rows[1:]]
            scores = [float(row[3]) for row in rows[1:]]
        except (OSError, ValueError, IndexError):
            return False
        self.score_links(j, links, self.query)
        return all(0.0 <= s <= 1.0 for s in scores) and links_ok(links, self.query, K)


WORKLOADS = {"train": Train, "filter": Filter, "one-pass": OnePass, "cold-cli": ColdCli}
