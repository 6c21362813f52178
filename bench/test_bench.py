"""Self-tests of the benchmark's own helpers (no workload is run)."""

import json
import types

import numpy as np
import pytest

import layers
import run_bench
import workloads
from tracing import Spans, Tracer, tail_percentile


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(range(1, 200), 95) is None
    assert tail_percentile(range(1, 201), 95) == 190
    assert tail_percentile(range(1, 21), 50) == 10
    assert tail_percentile(range(1, 20), 50) is None


def test_span_self_time_and_owner():
    # root [0, 10] > a [1, 4] > b [1, 2]; root > c [5, 6]
    sp = Spans(["root", "a", "b", "c"], [0, 1, 2, 3], [-1, 0, 1, 0],
               [0.0, 1.0, 1.0, 5.0], [10.0, 4.0, 2.0, 6.0], [0.0] * 4)
    assert sp.self_time.tolist() == [6.0, 2.0, 1.0, 1.0]
    assert sp.owner("a").tolist() == [-1, 1, 1, -1]
    assert sp.owner("root").tolist() == [0, 0, 0, 0]
    assert not sp.mask("missing").any()


def test_wrapped_calls_nest_and_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2

    class Box:
        def get(self, x):
            return x

    originals = (mod.inner, mod.outer, Box.get)
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner", lambda a, k: float(a[0]))
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(Box, "get", "get")
    assert mod.outer(3) == 8 and Box().get(5) == 5
    assert tracer.restore()
    assert (mod.inner, mod.outer, Box.get) == originals
    sp = tracer.spans()
    assert [sp.labels[i] for i in sp.name] == ["outer", "inner", "get"]
    assert sp.parent.tolist() == [-1, 0, -1]
    assert sp.value.tolist() == [0.0, 3.0, 0.0]


def test_layer_wrappers_restore_every_caller_name():
    from revtrack import cli, classifier, io_utils

    before = (cli.load_dataset, io_utils.load_dataset, classifier.extract_boundary,
              classifier.PairScorer.score, cli.main)
    tracer = Tracer()
    layers.install(tracer)
    assert cli.load_dataset is not before[0]
    assert classifier.extract_boundary is not before[2]
    assert tracer.restore()
    assert (cli.load_dataset, io_utils.load_dataset, classifier.extract_boundary,
            classifier.PairScorer.score, cli.main) == before


def test_seed_is_a_required_argument_and_fixes_the_inputs():
    with pytest.raises(SystemExit):
        run_bench.parse_args(["--workload", "filter", "--seconds", "1", "--trace", "0"])
    args = run_bench.parse_args(["--workload", "filter", "--seed", "7",
                                 "--seconds", "1", "--trace", "0"])
    assert args.seed == 7

    plus = [((i,), (100 + i,)) for i in range(30)]
    minus = [((200 + i, 300 + i), (400 + i,)) for i in range(30)]

    def stream(seed):
        rng = np.random.default_rng(seed)
        return [workloads.sample_query(rng, plus, minus, 5) for _ in range(4)]

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)
    q = stream(7)[0]
    (s, r), = q.truth_links
    assert s in q.senders and r in q.receivers and len(q.receivers) == 6


def test_best_latencies_sum_stages_and_skip_incomplete_queries():
    lat = [[3.0, 2.0], [1.0], [5.0, 4.0], [1.0], []]
    assert run_bench.best_latencies(lat) == [2.0, 1.0, 4.0, 1.0]
    assert run_bench.best_latencies(lat[:3], stages=3) == [7.0]
    assert run_bench.best_latencies(lat[3:] + [[1.0]], stages=3) == []


def test_links_ok():
    q = workloads.sample_query(np.random.default_rng(0), [((1,), (2,))],
                               [((3,), (4,))], 1)
    assert workloads.links_ok([(1, 2), (3, 4), (1, 4), (3, 2)], q, 10)
    assert not workloads.links_ok([(1, 2), (1, 2), (1, 4), (3, 2)], q, 10)
    assert not workloads.links_ok([(1, 2), (3, 4), (1, 4), (9, 2)], q, 10)
    assert not workloads.links_ok([(1, 2)], q, 10)


def test_benchmark_json_names_match_the_code():
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in layers.PER_LAYER]
    e2e = run_bench.end_to_end([1.0], [0.4])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in e2e.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_train_jobs_are_disjoint_one_batch_shards_of_both_classes():
    w = workloads.Train(3)
    w.setup()
    assert len(w.jobs) == workloads.TRAIN_JOBS
    assert len(w.queries) == w.stages * workloads.TRAIN_JOBS
    seen = set()
    for train, valid, test in w.jobs:
        ids = {id(p) for p in train + valid + test}
        assert not ids & seen
        seen |= ids
        assert len(train) <= workloads.classifier.TrainConfig().batch_size
        for part in (train, valid, test):
            assert {p.label for p in part} == {0, 1}
