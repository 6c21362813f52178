"""revtrack benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run_bench.py --workload filter --seed 3 --seconds 25 --trace 0

Run from the root of a checkout. With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` the loop runs once
untraced and once with every layer wrapped, and the per-layer metrics are
printed instead. Spans of
a traced run are written to ``.bench_build/trace_<workload>.npz``. See
README.md beside this file.
"""

import argparse
import json
import os
import platform
import resource
import sys
import traceback
from statistics import median
from time import perf_counter

import numpy as np

import layers
import workloads
from tracing import Tracer, tail_percentile

SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def machine_info():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "revtrack_threads": os.environ.get("REVTRACK_THREADS"),
    }


def closed_loop(workload, seconds):
    """Run the workload's queries round-robin until ``seconds`` have passed
    and every query has run at least once.

    Returns (latencies per query, attempted, failed).
    """
    n = len(workload.queries)
    latencies, attempted, failed = [[] for _ in range(n)], 0, 0
    start = perf_counter()
    while attempted < n or perf_counter() - start < seconds:
        j = attempted % n
        attempted += 1
        try:
            latency, ok = workload.op(j)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc()
            failed += 1
            continue
        latencies[j].append(latency)
        failed += not ok
    return latencies, attempted, failed


def best_latencies(latencies, stages=1):
    """Each query's fastest repetition.

    Other tenants of a shared host slow a process by half or more, for
    seconds to minutes at a time, and only ever add time; the fastest of a
    query's repetitions is the program's own cost for it. A query of several stages, each run
    as its own operation, costs the sum of its stages' fastest repetitions.
    A query with a stage that never completed is left out.
    """
    best = [min(reps) if reps else None for reps in latencies]
    groups = [best[i:i + stages] for i in range(0, len(best), stages)]
    return [sum(g) for g in groups if None not in g]


def end_to_end(setup_times, best):
    return {
        "query_p50_ms": (median(best) * 1e3, "ms"),
        "queries_per_s": (len(best) / sum(best), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (median(setup_times), "s"),
    }


def untraced_run(cls, seed, seconds):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        w = cls(seed)
        t0 = perf_counter()
        w.setup()
        setup_times.append(perf_counter() - t0)
    return (setup_times,) + closed_loop(w, seconds)


def traced_run(name, cls, seed, seconds):
    base = cls(seed)
    base.setup()
    lat_u, att_u, fail_u = closed_loop(base, seconds)
    tracer = Tracer()
    try:
        layers.install(tracer)
        w = cls(seed)
        w.setup()
        lat_t, att_t, fail_t = closed_loop(w, seconds)
    finally:
        restored = tracer.restore()
    sp = tracer.spans()
    sp.save(workloads.BUILD_DIR / f"trace_{name}.npz")
    attempted, failed = att_u + att_t, fail_u + fail_t + (not restored)
    p50_u = median(best_latencies(lat_u, cls.stages)) * 1e3
    overhead = median(best_latencies(lat_t, cls.stages)) * 1e3 - p50_u
    all_u = [x for reps in lat_u for x in reps]
    p95 = tail_percentile(all_u, 95)
    outcomes = {"train_pairs_per_s": 0.0, "finetune_pairs_per_s": 0.0,
                "test_pr_auc": 0.0, **base.outcomes()}
    metrics = {
        **layers.layer_metrics(sp, att_t, w.phi_misses),
        "failed_ratio": failed / attempted,
        "query_p95_ms": p95 * 1e3 if p95 is not None else 0.0,
        "query_samples": float(len(all_u)),
        **outcomes,
        "cli_chain_s": p50_u / 1e3 if name == "cold-cli" else 0.0,
        "trace.overhead_ms": overhead,
        "trace.overhead_share": overhead / p50_u,
        "trace.spans": float(len(sp)),
    }
    units = {m: (metrics[m], unit) for m, unit, _ in layers.PER_LAYER}
    return units, attempted, failed


def main(argv=None):
    args = parse_args(argv)
    workloads.ensure_fixture()
    print(json.dumps({"machine": machine_info()}), file=sys.stderr)
    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, attempted, failed = traced_run(args.workload, cls, args.seed, args.seconds)
    else:
        setup_times, latencies, attempted, failed = untraced_run(
            cls, args.seed, args.seconds)
        best = best_latencies(latencies, cls.stages)
        if not best:
            sys.exit("error: no query completed")
        metrics = end_to_end(setup_times, best)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    if sys.argv[1:] == ["--build-fixture"]:
        workloads.build_fixture()
    else:
        main()
