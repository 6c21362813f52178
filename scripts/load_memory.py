"""Peak memory of loading a dataset, measured on two checkouts side by side.

    python3 scripts/load_memory.py --parent ../parent --new . --out BENCH_stream_load.json

Runs ``bench/run_bench.py --trace 0`` from each checkout in alternating
pairs, the side that runs first switching every pair: ``--filter-pairs`` on
`filter`, ``--one-pass-pairs`` on `one-pass` and ``--spot-pairs`` each on
`train` and `cold-cli`, with seeds counting up from ``--seed``. Then times
`filter`'s setup seven times per fresh process, in ``--setup-pairs``
alternating pairs, and, in one fresh process per side, loads the benchmark
fixture's dataset three times with ``io_utils.load_dataset``, recording the
peak RSS after each load, the fastest of nine ``read_nodes_csv`` calls and
a digest of the loaded arrays (and of the `cold-cli` data the runs left
behind), so that the two sides' loads can be compared bit for bit. Writes
every run and, per workload and metric, each side's median and quartiles,
the pairs the new side won (ties count for neither) and the parent's
inter-quartile distance.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

METRICS = {"query_p50_ms": "lower", "queries_per_s": "higher", "peak_rss_mb": "lower",
           "setup_s": "lower"}

# Run in a fresh interpreter with one checkout's src on the path.
LOAD_PROBE = r"""
import hashlib, json, os, resource, sys
from time import perf_counter
from revtrack import io_utils

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

def digest(data_dir):
    graph, subgraphs = io_utils.load_dataset(data_dir)
    h = hashlib.sha256()
    for arr in (graph.out_indptr, graph.out_indices, graph.in_indptr, graph.in_indices,
                graph.features, graph.node_labels):
        if arr is not None:
            h.update(arr.tobytes())
    if hasattr(graph, "node_ids"):
        ids = None if graph.node_ids is None else graph.node_ids.tolist()
    else:  # a checkout older than node_ids: the keys of its id dict, ascending
        ids = None if graph.id_remap is None else list(graph.id_remap)
    h.update(repr(ids).encode())
    h.update(repr(subgraphs).encode())
    return h.hexdigest()

fixture, cold = sys.argv[1], sys.argv[2]
out = {"peak_rss_mb_after_load": [], "load_dataset_s": []}
for _ in range(3):
    t0 = perf_counter()
    loaded = io_utils.load_dataset(fixture)
    out["load_dataset_s"].append(perf_counter() - t0)
    out["peak_rss_mb_after_load"].append(rss_mb())
    del loaded
times = []
for _ in range(9):
    t0 = perf_counter()
    io_utils.read_nodes_csv(os.path.join(fixture, io_utils.NODES_FILE))
    times.append(perf_counter() - t0)
out["read_nodes_csv_best_ms"] = 1e3 * min(times)
out["digest_fixture"] = digest(fixture)
out["digest_cold_cli"] = digest(cold) if os.path.isdir(cold) else None
print(json.dumps(out))
"""

# Run from a checkout's root: Filter.setup (load, pairs, pools, queries)
# timed seven times in one fresh process.
SETUP_PROBE = r"""
import json, sys
from statistics import median
from time import perf_counter
sys.path.insert(0, "bench")
import workloads
times = []
for _ in range(7):
    w = workloads.Filter(int(sys.argv[1]))
    t0 = perf_counter()
    w.setup()
    times.append(perf_counter() - t0)
print(json.dumps({"median_s": median(times), "times_s": times}))
"""


def run_bench(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    row = {"attempted": line["attempted"], "failed": line["failed"]}
    row.update({m: line["metrics"][m]["value"] for m in METRICS})
    return row


def probe_loads(checkout):
    build = Path(checkout) / ".bench_build"
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, str(build / "fixture-v1" / "data"),
         str(build / "cold-cli" / "data")],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def stats(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "n": len(values)}


def summarize(runs):
    out = {}
    for metric, better in METRICS.items():
        by_pair = {}
        for r in runs:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r[metric]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (p["new"] - p["parent"]) > 0 for p in by_pair.values())
        parent = stats([p["parent"] for p in by_pair.values()])
        new = stats([p["new"] for p in by_pair.values()])
        out[metric] = {"parent": parent, "new": new, "better": better,
                       "new_wins_pairs": f"{wins}/{len(by_pair)}",
                       "median_change": new["median"] / parent["median"] - 1,
                       "parent_iqr": parent["q3"] - parent["q1"]}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--new", required=True, help="checkout of the change")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=61)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--filter-pairs", type=int, default=10)
    p.add_argument("--one-pass-pairs", type=int, default=5)
    p.add_argument("--spot-pairs", type=int, default=2)
    p.add_argument("--setup-pairs", type=int, default=6)
    args = p.parse_args(argv)

    sides = {"parent": args.parent, "new": args.new}
    plan = [("filter", args.filter_pairs), ("one-pass", args.one_pass_pairs),
            ("train", args.spot_pairs), ("cold-cli", args.spot_pairs)]
    end_to_end = {}
    for workload, n_pairs in plan:
        if not n_pairs:
            continue
        runs = []
        for pair in range(n_pairs):
            seed = args.seed + pair
            order = ("parent", "new") if pair % 2 == 0 else ("new", "parent")
            for side in order:
                row = run_bench(sides[side], workload, seed, args.seconds)
                runs.append({"pair": pair, "seed": seed, "side": side, **row})
                print(workload, pair, side, row, file=sys.stderr, flush=True)
        end_to_end[workload] = {"runs": runs, "summary": summarize(runs)}

    setups = []
    for pair in range(args.setup_pairs):
        order = ("parent", "new") if pair % 2 == 0 else ("new", "parent")
        for side in order:
            proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(args.seed + pair)],
                                  cwd=sides[side], capture_output=True, text=True, check=True)
            setups.append({"pair": pair, "side": side, **json.loads(proc.stdout)})
    loads = {side: probe_loads(path) for side, path in sides.items()}
    machine = json.loads(subprocess.run(
        [sys.executable, "-c", "import json, run_bench; print(json.dumps(run_bench.machine_info()))"],
        cwd=Path(args.new) / "bench", capture_output=True, text=True, check=True).stdout)
    parent_commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=args.parent,
                                   capture_output=True, text=True).stdout.strip() or None
    report = {
        "parent_commit": parent_commit,
        "machine_info": machine,
        "end_to_end": {
            "how": f"python3 bench/run_bench.py --workload W --seed S --seconds {args.seconds:g} "
                   f"--trace 0 from each checkout; pair i uses seed {args.seed} + i and "
                   "alternates which side runs first",
            **end_to_end},
        "filter_setup": {
            "how": "Filter(seed).setup() seven times per fresh process, from each checkout; "
                   f"pair i uses seed {args.seed} + i and alternates which side runs first",
            "runs": setups,
            "median_of_medians_s": {side: float(np.median(
                [r["median_s"] for r in setups if r["side"] == side] or [np.nan]))
                for side in sides}},
        "repeated_loads": {
            "how": "one fresh process per side: io_utils.load_dataset of the benchmark "
                   "fixture's data three times (peak RSS after each), then the fastest of "
                   "nine read_nodes_csv calls; digests hash every loaded array",
            **loads,
            "digests_equal": all(loads["parent"][k] == loads["new"][k]
                                 for k in ("digest_fixture", "digest_cold_cli"))},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for workload, block in end_to_end.items():
        for metric, s in block["summary"].items():
            print(f"{workload:9s} {metric:14s} parent {s['parent']['median']:9.3f} "
                  f"new {s['new']['median']:9.3f} wins {s['new_wins_pairs']}")


if __name__ == "__main__":
    main()
