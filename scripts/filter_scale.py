"""Time rev_filter on large 1+n@k instances of the benchmark fixture.

    python3 scripts/filter_scale.py --minus 400 1600 --instances 4 --reps 5 --out scale.json
    python3 scripts/filter_scale.py --minus 400 1600 --instances 4 --reps 5 \
        --out new.json --compare ../other-checkout/scale.json
    python3 scripts/filter_scale.py --minus 400 --k 300 --reps 1 --out k300.json

Run from the root of a checkout; the benchmark fixture (the C05 dataset and
its fine-tuned ds model) is built under .bench_build on first use, as
bench/run_bench.py builds it. Instance i of setting 1+n@k is drawn by the
benchmark's own sampler from ``default_rng(seed + i)``; ``--k`` defaults to
the benchmark's 10, and k >= 300 makes rounds of more than
``classifier.SCORE_CHUNK`` blocks. Each instance runs ``--reps`` times
under each split rule with a fresh scorer, as the benchmark's filter
workload does, and its time is the fastest repetition.
Prints one line per setting (median over instances) and writes every
instance's sizes, times, links, scores and counts to ``--out``.
``--compare OTHER.json`` then checks this run against another checkout's
``--out`` file: it prints both totals of classifier_calls, how many
instance-rules differ in each of links, iterations, classifier_calls and
scorer_failures, and the largest score difference where the links agree,
and exits 1 unless both hold the same instances with no field differing.
"""

import argparse
import json
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (puts this checkout's src on the path)
from revtrack import classifier, io_utils, neural_core, rec_eval  # noqa: E402
from revtrack import rev_filter as rf  # noqa: E402

SPLIT_RULES = ("sorted_id", "seeded_random")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--minus", type=int, nargs="+", required=True)
    p.add_argument("--instances", type=int, default=4)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=workloads.K, help="links per query")
    p.add_argument("--out", required=True)
    p.add_argument("--compare", metavar="OTHER.json",
                   help="another checkout's --out file to check this run against")
    args = p.parse_args(argv)

    workloads.ensure_fixture()
    graph, subgraphs = io_utils.load_dataset(str(workloads.FIXTURE_DIR / "data"))
    model = neural_core.load_checkpoint(str(workloads.FIXTURE_DIR / "tuned.json"))
    _, fmap, _ = classifier.make_pairs(graph, subgraphs)
    plus, minus = rec_eval.boundary_pools(subgraphs, graph)
    rows = []
    for n_minus in args.minus:
        for i in range(args.instances):
            query = workloads.sample_query(np.random.default_rng(args.seed + i),
                                           plus, minus, n_minus)
            for rule in SPLIT_RULES:
                times = []
                for _ in range(args.reps):
                    t0 = perf_counter()
                    result = rf.rev_filter(query.initial_pair,
                                           rf.FilterConfig(k=args.k, split_rule=rule),
                                           classifier.PairScorer(model, fmap))
                    times.append(perf_counter() - t0)
                rows.append({
                    "n_minus": n_minus, "instance": i, "split_rule": rule,
                    "senders": len(query.senders), "receivers": len(query.receivers),
                    "ms": min(times) * 1e3,
                    "links": [[sr.senders[0], sr.receivers[0]] for sr, _ in result.links],
                    "scores": [score for _, score in result.links],
                    "iterations": result.iterations,
                    "classifier_calls": result.classifier_calls,
                    "scorer_failures": result.scorer_failures,
                })
        mine = [r for r in rows if r["n_minus"] == n_minus]
        print(f"1+{n_minus}@{args.k}: median {median(r['ms'] for r in mine):.1f} ms "
              f"over {len(mine)} instance-rules, "
              f"|S|x|R| median {median(r['senders'] for r in mine):.0f}"
              f"x{median(r['receivers'] for r in mine):.0f}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
    if args.compare:
        compare(rows, args.compare)


FIELDS = ("links", "iterations", "classifier_calls", "scorer_failures")


def compare(rows, other_path):
    """Check ``rows`` against the rows of another run saved at ``other_path``.

    Prints both runs' total classifier_calls, how many instance-rules differ
    in each of FIELDS, and the largest absolute score difference over the
    instance-rules whose links agree. Exits 1 if the runs hold other
    instances or any field differs anywhere."""
    def by_instance(table):
        return {(r["n_minus"], r["instance"], r["split_rule"]): r for r in table}

    with open(other_path, encoding="utf-8") as fh:
        mine, other = by_instance(rows), by_instance(json.load(fh))
    if mine.keys() != other.keys():
        sys.exit(f"error: {other_path} holds other instances than this run")
    pairs = [(row, other[key]) for key, row in mine.items()]
    print(f"classifier_calls: {sum(a['classifier_calls'] for a, _ in pairs)} in this run, "
          f"{sum(b['classifier_calls'] for _, b in pairs)} in {other_path}")
    differ = {field: sum(a[field] != b[field] for a, b in pairs) for field in FIELDS}
    for field in FIELDS:
        print(f"{field}: {differ[field]} of {len(pairs)} instance-rules differ")
    worst = max([abs(x - y) for a, b in pairs if a["links"] == b["links"]
                 for x, y in zip(a["scores"], b["scores"])], default=0.0)
    print(f"largest score difference where the links agree: {worst:.3g}")
    if any(differ.values()):
        sys.exit(f"error: {', '.join(f for f in FIELDS if differ[f])} differ from {other_path}")


if __name__ == "__main__":
    main()
