"""Where the traced run wraps the program, and the per-layer metrics it derives.

Layers are the revtrack modules. Each public entry point is wrapped at
every name a caller resolves at call time: a name brought in with
``from m import f`` is wrapped in the importing module as well, under the
same span name. ``utils`` only holds the thread pool, which stays at one
thread, and is not wrapped.
"""

import os

import numpy as np

import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)
from revtrack import classifier, cli, graph_core, io_utils, neural_core, rec_eval, synth_gen
import revtrack.rev_filter as rf


def _arg(i, key):
    return lambda args, kwargs: args[i] if len(args) > i else kwargs[key]


def _rows(x):
    return 1.0 if np.ndim(x) == 1 else float(len(x))


def install(tracer):
    """Wrap every traced entry point; ``tracer.restore()`` undoes it."""
    w = tracer.wrap
    batch = _arg(1, "batch")
    sr = _arg(1, "sr")
    x = _arg(1, "x")
    path = _arg(0, "path")
    subgraphs = _arg(0, "subgraphs")

    for owner in (synth_gen, cli):
        w(owner, "generate", "synth_gen.generate")
    for owner in (io_utils, cli):
        for attr in ("save_dataset", "load_dataset", "write_manifest", "read_subgraphs_jsonl"):
            w(owner, attr, f"io_utils.{attr}")
    w(io_utils, "sha256_file", "io_utils.sha256_file",
      lambda a, k: float(os.path.getsize(path(a, k))))
    for owner in (graph_core, cli):
        w(owner, "graphlet_census", "graph_core.graphlet_census",
          lambda a, k: float(len(subgraphs(a, k))))
    for owner in (graph_core, classifier, rec_eval, synth_gen, cli):
        w(owner, "extract_boundary", "graph_core.extract_boundary")

    for owner in (classifier, cli):
        w(owner, "make_pairs", "classifier.make_pairs")
        w(owner, "evaluate", "classifier.evaluate")
    w(classifier, "train", "classifier.train")
    for owner in (classifier, rf):
        w(owner, "train_model", "classifier.train_model")
    w(classifier.PairScorer, "score", "classifier.PairScorer.score",
      lambda a, k: float(len(sr(a, k).senders) + len(sr(a, k).receivers)))

    w(neural_core, "backward", "neural_core.backward", lambda a, k: float(len(batch(a, k))))
    w(neural_core, "adam_step", "neural_core.adam_step")
    w(neural_core, "model_to_checkpoint", "neural_core.model_to_checkpoint")
    w(neural_core, "forward_logit", "neural_core.forward_logit")
    w(neural_core, "mlp_forward", "neural_core.mlp_forward", lambda a, k: _rows(x(a, k)))
    for owner in (neural_core, cli):
        w(owner, "load_checkpoint", "neural_core.load_checkpoint")

    for owner in (rf, rec_eval, cli):
        w(owner, "rev_filter", "rev_filter.rev_filter")
    w(rf, "expand", "rev_filter.expand")
    w(rf, "filter_step", "rev_filter.filter_step")
    for owner in (rf, cli):
        w(owner, "make_finetune_set", "rev_filter.make_finetune_set")
    w(rf, "finetune", "rev_filter.finetune")
    w(cli, "finetune_model", "rev_filter.finetune")

    w(rec_eval, "one_pass_topk", "rec_eval.one_pass_topk")
    w(rec_eval, "boundary_pools", "rec_eval.boundary_pools")

    w(cli, "main", "cli.main")
    for attr in ("cmd_generate", "cmd_graphlets", "cmd_filter"):
        w(cli, attr, f"cli.{attr}")


# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = [
    ("synth_gen.generate_s", "s", "lower"),
    ("io_utils.save_dataset_s", "s", "lower"),
    ("io_utils.load_dataset_s", "s", "lower"),
    ("io_utils.write_manifest_s", "s", "lower"),
    ("io_utils.bytes_hashed", "B", "lower"),
    ("graph_core.graphlet_census_s", "s", "lower"),
    ("graph_core.census_subgraphs", "count", "higher"),
    ("graph_core.extract_boundary_us", "us", "lower"),
    ("classifier.make_pairs_s", "s", "lower"),
    ("classifier.train_model_s", "s", "lower"),
    ("classifier.train_model_self_s", "s", "lower"),
    ("classifier.evaluate_s", "s", "lower"),
    ("classifier.score_us_per_call", "us", "lower"),
    ("classifier.score_calls_per_query", "count", "lower"),
    ("classifier.rows_per_score_call", "count", "higher"),
    ("classifier.phi_reuse_ratio", "ratio", "higher"),
    ("neural_core.backward_us_per_pair.train", "us", "lower"),
    ("neural_core.backward_us_per_pair.finetune", "us", "lower"),
    ("neural_core.adam_step_us", "us", "lower"),
    ("neural_core.forward_logit_calls", "count", "lower"),
    ("neural_core.forward_logit_us_per_call", "us", "lower"),
    ("neural_core.model_to_checkpoint_calls", "count", "lower"),
    ("neural_core.model_to_checkpoint_ms", "ms", "lower"),
    ("neural_core.mlp_forward_calls", "count", "lower"),
    ("neural_core.mlp_forward_rows_per_call", "count", "higher"),
    ("neural_core.load_checkpoint_s", "s", "lower"),
    ("rev_filter.query_ms", "ms", "lower"),
    ("rev_filter.self_ms_per_query", "ms", "lower"),
    ("rev_filter.expand_ms_per_query", "ms", "lower"),
    ("rev_filter.filter_step_ms_per_query", "ms", "lower"),
    ("rev_filter.rounds_per_query", "count", "lower"),
    ("rev_filter.calls_per_query", "count", "lower"),
    ("rev_filter.make_finetune_set_s", "s", "lower"),
    ("rev_filter.finetune_s", "s", "lower"),
    ("rec_eval.one_pass_topk_ms", "ms", "lower"),
    ("rec_eval.one_pass_self_ms", "ms", "lower"),
    ("rec_eval.boundary_pools_s", "s", "lower"),
    ("cli.generate_s", "s", "lower"),
    ("cli.graphlets_s", "s", "lower"),
    ("cli.filter_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    # workload outcomes, taken from the untraced loop of a traced run
    ("failed_ratio", "ratio", "lower"),
    ("query_p95_ms", "ms", "lower"),
    ("query_samples", "count", "higher"),
    ("train_pairs_per_s", "1/s", "higher"),
    ("finetune_pairs_per_s", "1/s", "higher"),
    ("test_pr_auc", "ratio", "higher"),
    ("hr_at_k", "ratio", "higher"),
    ("ndcg_at_k", "ratio", "higher"),
    ("cli_chain_s", "s", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


def layer_metrics(sp, n_ops, phi_misses):
    """Per-layer figures from the spans of ``n_ops`` traced operations.

    Per-call figures are means over the calls made; "per query" and call
    counts are per operation of the workload. A layer the workload does not
    use reads 0.
    """
    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    def mean_dur(name, scale=1.0):
        m = sp.mask(name)
        return ratio(sp.dur[m].sum() * scale, m.sum())

    def per_op(m):
        return ratio(m.sum(), n_ops)

    score = sp.mask("classifier.PairScorer.score")
    backward = sp.mask("neural_core.backward")
    in_finetune = sp.owner("rev_filter.finetune") >= 0
    validation = sp.mask("neural_core.forward_logit") & (sp.owner("neural_core.backward") < 0)
    mlp = sp.mask("neural_core.mlp_forward")
    queries = sp.mask("rev_filter.rev_filter")
    under_query = sp.owner("rev_filter.rev_filter") >= 0
    one_pass = sp.mask("rec_eval.one_pass_topk")
    under_one_pass = sp.owner("rec_eval.one_pass_topk") >= 0
    cli_spans = np.isin(sp.name, [i for i, n in enumerate(sp.labels) if n.startswith("cli.")])

    def backward_us(phase):
        m = backward & phase
        return ratio(sp.dur[m].sum() * 1e6, sp.value[m].sum())

    def self_ms(m, under):
        return ratio((sp.dur[m].sum() - sp.dur[score & under].sum()) * 1e3, m.sum())

    def per_query(name):
        return ratio(sp.dur[sp.mask(name)].sum() * 1e3, queries.sum())

    train_model = sp.mask("classifier.train_model")
    census = sp.mask("graph_core.graphlet_census")
    return {
        "synth_gen.generate_s": mean_dur("synth_gen.generate"),
        "io_utils.save_dataset_s": mean_dur("io_utils.save_dataset"),
        "io_utils.load_dataset_s": mean_dur("io_utils.load_dataset"),
        "io_utils.write_manifest_s": mean_dur("io_utils.write_manifest"),
        "io_utils.bytes_hashed": ratio(sp.value[sp.mask("io_utils.sha256_file")].sum(), n_ops),
        "graph_core.graphlet_census_s": mean_dur("graph_core.graphlet_census"),
        "graph_core.census_subgraphs": ratio(sp.value[census].sum(), census.sum()),
        "graph_core.extract_boundary_us": mean_dur("graph_core.extract_boundary", 1e6),
        "classifier.make_pairs_s": mean_dur("classifier.make_pairs"),
        "classifier.train_model_s": mean_dur("classifier.train_model"),
        "classifier.train_model_self_s": ratio(sp.self_time[train_model].sum(),
                                               train_model.sum()),
        "classifier.evaluate_s": mean_dur("classifier.evaluate"),
        "classifier.score_us_per_call": mean_dur("classifier.PairScorer.score", 1e6),
        "classifier.score_calls_per_query": per_op(score),
        "classifier.rows_per_score_call": ratio(sp.value[score].sum(), score.sum()),
        "classifier.phi_reuse_ratio": (1.0 - ratio(phi_misses, sp.value[score].sum())
                                       if phi_misses else 0.0),
        "neural_core.backward_us_per_pair.train": backward_us(~in_finetune),
        "neural_core.backward_us_per_pair.finetune": backward_us(in_finetune),
        "neural_core.adam_step_us": mean_dur("neural_core.adam_step", 1e6),
        "neural_core.forward_logit_calls": per_op(validation),
        "neural_core.forward_logit_us_per_call": ratio(sp.dur[validation].sum() * 1e6,
                                                       validation.sum()),
        "neural_core.model_to_checkpoint_calls": per_op(sp.mask("neural_core.model_to_checkpoint")),
        "neural_core.model_to_checkpoint_ms": mean_dur("neural_core.model_to_checkpoint", 1e3),
        "neural_core.mlp_forward_calls": per_op(mlp),
        "neural_core.mlp_forward_rows_per_call": ratio(sp.value[mlp].sum(), mlp.sum()),
        "neural_core.load_checkpoint_s": mean_dur("neural_core.load_checkpoint"),
        "rev_filter.query_ms": mean_dur("rev_filter.rev_filter", 1e3),
        "rev_filter.self_ms_per_query": self_ms(queries, under_query),
        "rev_filter.expand_ms_per_query": per_query("rev_filter.expand"),
        "rev_filter.filter_step_ms_per_query": per_query("rev_filter.filter_step"),
        "rev_filter.rounds_per_query": ratio(sp.mask("rev_filter.expand").sum(), queries.sum()),
        "rev_filter.calls_per_query": ratio((score & under_query).sum(), queries.sum()),
        "rev_filter.make_finetune_set_s": mean_dur("rev_filter.make_finetune_set"),
        "rev_filter.finetune_s": mean_dur("rev_filter.finetune"),
        "rec_eval.one_pass_topk_ms": mean_dur("rec_eval.one_pass_topk", 1e3),
        "rec_eval.one_pass_self_ms": self_ms(one_pass, under_one_pass),
        "rec_eval.boundary_pools_s": mean_dur("rec_eval.boundary_pools"),
        "cli.generate_s": mean_dur("cli.cmd_generate"),
        "cli.graphlets_s": mean_dur("cli.cmd_graphlets"),
        "cli.filter_s": mean_dur("cli.cmd_filter"),
        "cli.self_s": ratio(sp.self_time[cli_spans].sum(), n_ops) if cli_spans.any() else 0.0,
    }
