"""Command-line entry point.

Subcommands: generate, graphlets, train, finetune, classify, eval-cls,
filter, bench-rec. Exit codes: 0 success, 1 validation/usage error,
2 runtime error (for filter, also when the scorer failed on any pair).
Diagnostics go to stderr; data goes only to the output path (or stdout
for eval-cls). Each ``cmd_*`` returns its exit code and what its run
manifest records: seeds and input paths (eval-cls: None, no manifest).
``main`` alone times the command, writes that manifest next to its output
(config hash, seeds, input digests, wall time) and maps errors to exit codes.
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time

from . import __version__
from .classifier import (
    PairScorer,
    SplitSpec,
    SRPair,
    TrainConfig,
    TrainingError,
    evaluate,
    make_pairs,
    split,
)
from . import classifier as classifier_mod
from .graph_core import (
    GraphLoadError,
    boundary_sides,
    extract_boundary,  # noqa: F401  (the benchmark's tracer wraps cli.extract_boundary)
    graphlet_census,
)
from .io_utils import (
    dense_node_ids,
    load_dataset,
    read_subgraphs_jsonl,
    save_dataset,
    write_manifest,
)
from .neural_core import load_checkpoint, save_checkpoint
from .rec_eval import BenchmarkConfig, check_benchmark, parse_setting, run_benchmark
from .rev_filter import AugmentConfig, FilterConfig, finetune as finetune_model
from .rev_filter import make_finetune_set, rev_filter
from .synth_gen import SynthConfig, SynthDataset, generate

SPLIT_RULES = {"sorted": "sorted_id", "random": "seeded_random"}


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _log(msg):
    print(msg, file=sys.stderr)


def _inject_config(argv, parser):
    """Expand --config file entries into argv; explicit flags win.

    The file's flags go before the command's own, and argparse keeps the
    last value of a flag, so an explicit flag wins however it is
    abbreviated. The generate command is excluded: there --config is the
    dataset recipe itself, not a bag of flag values.
    """
    if not argv or argv[0] not in parser.sub_map or argv[0] == "generate":
        return argv
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    try:
        path = finder.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:  # no value: the command's parser reports it
        return argv
    if not path:
        return argv
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    sub = parser.sub_map[argv[0]]
    valid = {opt for action in sub._actions for opt in action.option_strings}
    flags = []
    for key, value in data.items():
        flag = "--" + str(key).replace("_", "-")
        if flag not in valid:
            _log(f"warning: config key {key!r} does not match any flag; ignored")
            continue
        flags.extend([flag, str(value)])
    return argv[:1] + flags + argv[1:]


def _resolved_config(args, skip=("func", "config")):
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or callable(value):
            continue
        out[key] = value
    return out


def _config(cls, args, **named):
    """``cls`` with each field set from the flag of the same name, if the
    command has one, and from ``named`` for flags named otherwise."""
    fields = {f.name: getattr(args, f.name)
              for f in dataclasses.fields(cls) if hasattr(args, f.name)}
    return cls(**{**fields, **named})


def _load_pairs(data_dir):
    graph, subgraphs = load_dataset(data_dir)
    pairs, features, stats = make_pairs(graph, subgraphs)
    dropped = stats["empty_boundary"] + stats["unlabeled"]
    if dropped:
        _log(f"skipped {stats['empty_boundary']} empty-boundary and "
             f"{stats['unlabeled']} unlabeled subgraphs")
    return graph, pairs, features


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args):
    cfg_dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg_dict = json.load(fh)
    cfg = SynthConfig.from_json_dict(cfg_dict)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    dataset = generate(cfg)
    save_dataset(dataset, args.out_dir)
    _log(f"wrote dataset: {cfg.num_entities} entities, "
         f"{len(dataset.subgraphs)} subgraphs -> {args.out_dir}")
    return 0, {"manifest_path": os.path.join(args.out_dir, "run_manifest.json"),
               "config": cfg.to_json_dict(), "seeds": {"seed": cfg.seed},
               "input_paths": [args.config] if args.config else []}


def cmd_graphlets(args):
    if args.node_cap < 1:
        raise ValueError(f"node_cap must be an integer >= 1, got {args.node_cap}")
    subgraphs = read_subgraphs_jsonl(args.subgraphs)
    hist = graphlet_census(subgraphs, node_cap=args.node_cap)
    if hist.skipped:
        _log(f"skipped {hist.skipped} subgraphs over the {args.node_cap}-node cap")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(hist.to_json_dict(), fh, indent=2)
        fh.write("\n")
    return 0, {"seeds": {}, "input_paths": [args.subgraphs]}


def cmd_train(args):
    if args.arch == "ds" and args.pool == "max":
        raise ValueError("--pool max is a bp-only readout; ds pools are sum and mean")
    config = _config(TrainConfig, args)
    spec = SplitSpec(seed=args.split_seed, few_shot_fraction=args.few_shot)
    _, pairs, features = _load_pairs(args.data_dir)
    train_pairs, valid_pairs, _ = split(pairs, spec)
    model, history = classifier_mod.train(args.arch, train_pairs, valid_pairs, features, config)
    save_checkpoint(args.out, model)
    # train_model keeps the last of tied best epochs, so report that one
    best = max(reversed(history), key=lambda h: h["valid_metric"]) if history else None
    if best:
        _log(f"trained {args.arch} on {len(train_pairs)} pairs; "
             f"best valid metric {best['valid_metric']:.4f} at epoch {best['epoch']}")
    return 0, {"seeds": {"split_seed": args.split_seed, "train_seed": args.seed},
               "input_paths": _dataset_paths(args.data_dir)}


def cmd_finetune(args):
    augment = _config(AugmentConfig, args, merge_range=(args.merge_min, args.merge_max))
    config = _config(TrainConfig, args)
    spec = SplitSpec(seed=args.split_seed)
    model = load_checkpoint(args.model)
    _, pairs, features = _load_pairs(args.data_dir)
    train_pairs, _, _ = split(pairs, spec)
    merged = make_finetune_set(train_pairs, augment)
    tuned, history = finetune_model(model, merged, features, config)
    save_checkpoint(args.out, tuned)
    _log(f"fine-tuned on {len(merged)} merged pairs over {len(history)} epochs")
    return 0, {"seeds": {"split_seed": args.split_seed, "augment_seed": args.seed},
               "input_paths": _dataset_paths(args.data_dir) + [args.model]}


def _check_threshold(threshold):
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")


def cmd_classify(args):
    _check_threshold(args.threshold)
    model = load_checkpoint(args.model)
    graph, _ = load_dataset(args.data_dir, require_subgraphs=False)
    subgraphs = read_subgraphs_jsonl(args.subgraphs, graph)
    ids, srs = [], []
    for sg, (s, r) in zip(subgraphs, boundary_sides(graph, subgraphs)):
        if s and r:
            ids.append(sg.id)
            srs.append(SRPair(senders=s, receivers=r))
    skipped = len(subgraphs) - len(srs)
    scores = PairScorer(model, graph.features)(srs)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        rows = csv.writer(fh, lineterminator="\n")
        rows.writerow(["subgraph_id", "score", "label_pred"])
        rows.writerows([sg_id, repr(s), int(s >= args.threshold)] for sg_id, s in zip(ids, scores))
    if skipped:
        _log(f"skipped {skipped} subgraphs with empty boundary")
    return 0, {"seeds": {}, "input_paths": _dataset_paths(args.data_dir, subgraphs=False)
               + [args.subgraphs, args.model]}


def cmd_eval_cls(args):
    _check_threshold(args.threshold)
    spec = SplitSpec(seed=args.split_seed)
    _, pairs, features = _load_pairs(args.data_dir)
    model = load_checkpoint(args.model)
    _, _, test_pairs = split(pairs, spec)
    metrics = evaluate(model, test_pairs, features, threshold=args.threshold)
    print(json.dumps({
        "pr_auc": metrics.pr_auc,
        "f1": metrics.f1,
        "threshold": metrics.threshold,
        "n_test": len(test_pairs),
        "n_test_positive": sum(p.label for p in test_pairs),
    }, indent=2))
    return 0, None


def _read_id_file(path, graph):
    """Dense ids of a one-id-per-line file; unknown or repeated ids fail."""
    ids = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                ids.append(int(text))
            except ValueError:
                raise GraphLoadError(
                    f"{path}:{line_no}: node id {text} is not an integer") from None
    seen = set()
    for n in ids:
        if n in seen:
            raise GraphLoadError(f"{path}: duplicate node id {n}")
        seen.add(n)
    return dense_node_ids(ids, path, graph)


def cmd_filter(args):
    config = _config(FilterConfig, args, split_rule=SPLIT_RULES[args.split])
    model = load_checkpoint(args.model)
    graph, _ = load_dataset(args.data_dir, require_subgraphs=False)
    senders = _read_id_file(args.senders, graph)
    receivers = _read_id_file(args.receivers, graph)
    scorer = PairScorer(model, graph.features)
    result = rev_filter(SRPair(senders=tuple(senders), receivers=tuple(receivers)),
                        config, scorer)
    orig = range(graph.num_nodes) if graph.node_ids is None else graph.node_ids
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("rank,sender,receiver,score\n")
        for rank, (sr, score_val) in enumerate(result.links, start=1):
            fh.write(f"{rank},{orig[sr.senders[0]]},{orig[sr.receivers[0]]},{repr(score_val)}\n")
    _log(f"{result.iterations} iterations, {result.classifier_calls} classifier calls")
    if result.scorer_failures:
        _log(f"warning: scorer failed on {result.scorer_failures} pairs (scored 0)")
    return (2 if result.scorer_failures else 0), {
        "seeds": {"seed": args.seed},
        "input_paths": _dataset_paths(args.data_dir, subgraphs=False)
        + [args.model, args.senders, args.receivers]}


def cmd_bench_rec(args):
    settings = [parse_setting(s.strip()) for s in args.settings.split(",") if s.strip()]
    check_benchmark(settings, args.n_instances)
    config = _config(BenchmarkConfig, args, scorer=None, split_rule=SPLIT_RULES[args.split])
    model = load_checkpoint(args.model)
    graph, subgraphs = load_dataset(args.data_dir)
    config.scorer = PairScorer(model, graph.features)
    table = run_benchmark(
        SynthDataset(graph=graph, subgraphs=subgraphs), settings,
        args.n_instances, config,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({
            "variant": args.variant,
            "n_instances": args.n_instances,
            "settings": table,
        }, fh, indent=2)
        fh.write("\n")
    for setting, row in table.items():
        _log(f"{setting}: HR {row['hr_mean']:.4f} +/- {row['hr_se']:.4f}  "
             f"NDCG {row['ndcg_mean']:.4f}  density {row['density_mean']:.4%}")
    return 0, {"seeds": {"seed": args.seed},
               "input_paths": _dataset_paths(args.data_dir) + [args.model]}


def _dataset_paths(data_dir, subgraphs=True):
    names = ["edges.csv", "nodes.csv"] + (["subgraphs.jsonl"] if subgraphs else [])
    return [os.path.join(data_dir, n) for n in names]


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = _Parser(prog="revtrack", description=__doc__)
    parser.add_argument("--version", action="version", version=f"revtrack {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")

    parser.sub_map = {}

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file whose keys mirror the flags; "
                                        "explicit flags win")
        parser.sub_map[name] = p
        return p

    p = add("generate", cmd_generate, help="write a synthetic dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = add("graphlets", cmd_graphlets, help="2-4-node graphlet histogram")
    p.add_argument("--subgraphs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--node-cap", type=int, default=200)

    def add_training_flags(p, epochs, lr):
        p.add_argument("--epochs", type=int, default=epochs)
        p.add_argument("--lr", type=float, default=lr)
        p.add_argument("--batch-size", type=int, default=256)
        p.add_argument("--patience", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)

    p = add("train", cmd_train, help="train a boundary-pair classifier")
    p.add_argument("--arch", choices=("ds", "bp"), required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--few-shot", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--hidden-dim", type=int, default=64)
    p.add_argument("--pool", default="sum", choices=("sum", "mean", "max"))
    p.add_argument("--pos-weight", type=float, default=1.0)
    add_training_flags(p, epochs=150, lr=1e-3)

    p = add("finetune", cmd_finetune, help="fine-tune on randomly merged pairs")
    p.add_argument("--model", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=0.4)
    p.add_argument("--merge-min", type=int, default=1)
    p.add_argument("--merge-max", type=int, default=20)
    p.add_argument("--out", required=True)
    add_training_flags(p, epochs=30, lr=1e-4)

    p = add("classify", cmd_classify, help="score subgraphs from a file")
    p.add_argument("--model", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--subgraphs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=0.5)

    p = add("eval-cls", cmd_eval_cls, help="test-split metrics as JSON on stdout")
    p.add_argument("--model", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.5)

    p = add("filter", cmd_filter, help="discover suspicious sender-receiver links")
    p.add_argument("--model", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--senders", required=True, help="file with one node id per line")
    p.add_argument("--receivers", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha-keep", type=float, default=1.5)
    p.add_argument("--split", choices=("sorted", "random"), default="sorted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("bench-rec", cmd_bench_rec, help="recommendation benchmark table")
    p.add_argument("--model", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--settings", required=True, help='e.g. "1+5@1,1+100@3"')
    p.add_argument("--n-instances", type=int, default=256)
    p.add_argument("--variant", default="full", choices=("full", "no-iter"))
    p.add_argument("--alpha-keep", type=float, default=1.5)
    p.add_argument("--split", choices=("sorted", "random"), default="sorted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _inject_config(argv, parser)
    except (OSError, ValueError) as exc:  # ValueError includes JSONDecodeError
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        return 1
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return 1
    started = time.time()
    try:
        code, run = args.func(args)
        if run is not None:
            write_manifest(
                run.get("manifest_path") or args.out + ".manifest.json",
                command=args.subcommand.replace("-", "_"),
                config=run.get("config") or _resolved_config(args),
                seeds=run["seeds"], input_paths=run["input_paths"],
                wall_time=time.time() - started, tool_version=__version__)
        return code
    except ValueError as exc:  # GraphLoadError and GenerationError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
