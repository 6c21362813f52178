"""CLI and file-format round trips, pipeline chaining, run manifests."""

import csv
import glob
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtrack import classifier, io_utils
from revtrack.cli import main
from revtrack.graph_core import ILLICIT, LICIT, UNKNOWN, Subgraph, build_graph
from revtrack.neural_core import load_checkpoint
from revtrack.synth_gen import SynthConfig, SynthDataset, generate
import oracles
from oracles import graphlet_census_bruteforce, validate_against


def tiny_config(seed=1):
    return {
        "num_entities": 1200,
        "feature_dim": 6,
        "num_suspicious": 25,
        "num_licit_subgraphs": 25,
        "background_noise_edges": 60,
        "seed": seed,
    }


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return str(path)


# ---------------------------------------------------------------------------
# io round trips


def test_dataset_roundtrip(tmp_path):
    ds = generate(SynthConfig(**tiny_config()))
    out = tmp_path / "data"
    io_utils.save_dataset(ds, out)
    graph, subgraphs = io_utils.load_dataset(out)
    assert graph.num_nodes == ds.graph.num_nodes
    assert np.array_equal(graph.edge_list(), ds.graph.edge_list())
    assert np.array_equal(graph.features, ds.graph.features)
    assert np.array_equal(graph.node_labels, ds.graph.node_labels)
    assert [(s.id, s.nodes, s.edges, s.label) for s in subgraphs] == [
        (s.id, s.nodes, s.edges, s.label) for s in ds.subgraphs
    ]


# Features where repr changes form (exponent, -0.0, 17 digits, subnormal)
# and labels that are mostly unknown; the expected bytes pin the file format.
PINNED_GRAPH = dict(
    edges=[(3, 0), (0, 2), (1, 2), (0, 1)],
    features=[[1e-05, 1e16], [-0.0, 0.1 + 0.2], [5e-324, 1.0], [-1.5, 123456789.123]],
    labels=[UNKNOWN, ILLICIT, UNKNOWN, LICIT],
)
PINNED_FILES = {
    "edges.csv": b"src,dst\n0,1\n0,2\n1,2\n3,0\n",
    "nodes.csv": (b"id,f_0,f_1,label\n0,1e-05,1e+16,unknown\n"
                  b"1,-0.0,0.30000000000000004,illicit\n2,5e-324,1.0,unknown\n"
                  b"3,-1.5,123456789.123,licit\n"),
    "subgraphs.jsonl": (b'{"id":"s0","label":"suspicious","nodes":[0,1,2],'
                        b'"edges":[[0,1],[1,2]]}\n'
                        b'{"id":"s1","label":null,"nodes":[3],"edges":[]}\n'),
}


def test_save_is_byte_deterministic(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    io_utils.save_dataset(generate(SynthConfig(**tiny_config())), a_dir)
    io_utils.save_dataset(generate(SynthConfig(**tiny_config())), b_dir)
    for name in ("edges.csv", "nodes.csv", "subgraphs.jsonl"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    graph = build_graph(4, PINNED_GRAPH["edges"], PINNED_GRAPH["features"],
                        PINNED_GRAPH["labels"])
    subgraphs = [Subgraph(id="s0", nodes=(0, 1, 2), edges=((0, 1), (1, 2)),
                          label="suspicious"),
                 Subgraph(id="s1", nodes=(3,), edges=())]
    pinned = tmp_path / "pinned"
    io_utils.save_dataset(SynthDataset(graph=graph, subgraphs=subgraphs), pinned)
    for name, expected in PINNED_FILES.items():
        assert (pinned / name).read_bytes() == expected, name
    loaded, loaded_subgraphs = io_utils.load_dataset(pinned)
    for name in ("out_indptr", "out_indices", "in_indptr", "in_indices", "node_labels"):
        assert np.array_equal(getattr(loaded, name), getattr(graph, name)), name
    assert loaded.features.view(np.int64).tolist() == graph.features.view(np.int64).tolist()
    assert loaded.node_ids is None
    assert loaded_subgraphs == subgraphs


def test_subgraph_file_with_sparse_ids(tmp_path):
    graph = build_graph(2, [(0, 1)], np.zeros((2, 2)), node_ids=np.array([10, 30]))
    # write with original sparse ids, read back densified
    sub_path = tmp_path / "subgraphs.jsonl"
    sub_path.write_text('{"id":"x","label":null,"nodes":[10,30],"edges":[[10,30]]}\n')
    (sg,) = io_utils.read_subgraphs_jsonl(sub_path, graph)
    assert sg.nodes == (0, 1)
    assert sg.edges == ((0, 1),)
    validate_against(sg, graph)


def test_save_dataset_keeps_sparse_node_ids(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    (first / "edges.csv").write_text("src,dst\n30,10\n10,20\n20,30\n")
    (first / "nodes.csv").write_text("id,f_0,label\n20,0.5,licit\n10,1.5,illicit\n30,-2.0,\n")
    (first / "subgraphs.jsonl").write_text(
        '{"id":"a","label":"suspicious","nodes":[10,20],"edges":[[10,20]]}\n'
        '{"id":"b","label":null,"nodes":[30],"edges":[]}\n')
    graph, subgraphs = io_utils.load_dataset(first)
    io_utils.save_dataset(SynthDataset(graph=graph, subgraphs=subgraphs), second)
    loaded, loaded_subgraphs = io_utils.load_dataset(second)
    assert loaded.node_ids.tolist() == graph.node_ids.tolist() == [10, 20, 30]
    for name in ("out_indptr", "out_indices", "in_indptr", "in_indices", "features",
                 "node_labels"):
        assert np.array_equal(getattr(loaded, name), getattr(graph, name)), name
    assert loaded_subgraphs == subgraphs


def test_nodes_csv_rejects_bad_label(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("id,f_0,label\n0,1.0,weird\n")
    with pytest.raises(io_utils.GraphLoadError, match="unknown label"):
        io_utils.read_nodes_csv(path)


@pytest.mark.parametrize("nodes, edges, message", [
    ("node,f_0\n0,1.0\n", "src,dst\n", "first column must be 'id'"),
    ("id,f_0\n0,1.0\n", "from,to\n", "expected header 'src,dst', got 'from,to'"),
    ("id,f_0,f_1\n0,0.0,1.0\n\n1,0.0\n", "src,dst\n", "nodes.csv:4: expected 3 fields, got 2"),
    ("id,f_0\n0,1.0\n1,1.0\n", "src,dst\n0,1\n0,1,1\n", "edges.csv:3: expected 2 fields, got 3"),
    ("id,f_0,label\n0,1.0,licit\n1,1.0,\n2,1.0,Licit\n", "src,dst\n",
     "nodes.csv:4: unknown label 'Licit'"),
    ("id,f_0\n0,1.0\n1,1.0\n", "src,dst\n0,1\n1,7\n", "dangling endpoint 7 at edges row 1"),
    ("id,f_0\n4,1.0\n4,2.0\n", "src,dst\n", "duplicate node ids"),
    ("id,f_0\n", "src,dst\n", "no node rows"),
    ("id,f_0\n0,1.0\n1.5,1.0\n", "src,dst\n", "could not convert string '1.5' to int64"),
    ("id,f_0\n0,1.0\n", "src,dst\n0,1e0\n", "could not convert string '1e0' to int64"),
    ("id,f_0\n0,1.0\n\n1.5,1.0\n", "src,dst\n",
     "nodes.csv:4: could not convert string '1.5' to int64"),
    *[(f"id,f_0,f_1\n0,1.0,2.0\n\n1,2.0,{v}\n2,0.0,0.0\n", "src,dst\n0,1\n",
       f"nodes.csv:4: feature 'f_1' is {v}\n") for v in ("nan", "inf", "-inf")],
], ids=["nodes-header", "edges-header", "ragged-node", "ragged-edge", "unknown-label", "dangling",
        "duplicate-id", "no-nodes", "float-node-id", "float-edge-end",
        "blank-line-before-bad-id", "nan-feature", "inf-feature", "minus-inf-feature"])
def test_bad_tables_exit_1_naming_the_defect(tmp_path, capsys, nodes, edges, message):
    (tmp_path / "nodes.csv").write_text(nodes)
    (tmp_path / "edges.csv").write_text(edges)
    rc = main(["eval-cls", "--model", str(tmp_path / "m.json"), "--data-dir", str(tmp_path)])
    assert rc == 1
    assert message in capsys.readouterr().err


FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "5e-324", "1e16", "0", "-7", " 2.5", "1.5e-3 "]))
NODE_DEFECTS = ["1.5", "", "abc", " ", "1,2", "licit", "Licit", "x"]
EDGE_DEFECTS = ["1e0", "", "0,1,2", "a", " "]


@st.composite
def _table(draw, node_table):
    """(header, rows) of a nodes or edges table with sparse and negative
    ids, edge-case floats, empty or padded labels and, sometimes, one
    defective field or line."""
    n = draw(st.integers(0, 6))
    ids = st.integers(-(2**62), 2**62).map(str)
    if node_table:
        dim = draw(st.integers(0, 3))
        label = draw(st.booleans())
        header = ["id"] + [f"f_{j}" for j in range(dim)] + ["label"] * label
        cells = [ids] + [FIELDS] * dim
        cells += [st.sampled_from(["", "licit", "illicit", "unknown", "licit "])] * label
    else:
        header, cells = ["src", "dst"], [ids, ids]
    rows = [[draw(c) for c in cells] for _ in range(n)]
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.sampled_from(NODE_DEFECTS if node_table else EDGE_DEFECTS))
    return header, [",".join(r) for r in rows]


def _csv_text(draw, header, lines):
    """The file text: empty or whitespace lines, CRLF and a missing final
    newline drawn; an empty body is sometimes whitespace."""
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "", "  "])))
    if not lines and draw(st.booleans()):
        lines = [" ", "\t"]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join([",".join(header)] + lines)
    return text + eol * draw(st.booleans())


def _outcome(read, path):
    try:
        return "rows", read(path)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_readers_match_the_whole_text_reference(data):
    with tempfile.TemporaryDirectory() as root:
        for name, node_table, read, reference in [
                ("nodes.csv", True, io_utils.read_nodes_csv, oracles.read_nodes_csv_text),
                ("edges.csv", False, io_utils.read_edges_csv, oracles.read_edges_csv_text)]:
            header, lines = data.draw(_table(node_table))
            path = os.path.join(root, name)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(_csv_text(data.draw, header, lines))
            (kind, got), (want_kind, want) = _outcome(read, path), _outcome(reference, path)
            if "rows" not in (kind, want_kind):
                assert (kind, got) == (want_kind, want)
                continue
            assert kind == want_kind == "rows", (kind, got, want_kind, want)
            # ids, features and label codes (or the edge array), compared bit for bit
            for col, want_col in zip(*((got, want) if node_table else ((got,), (want,)))):
                assert (col is None) == (want_col is None)
                if col is not None:
                    assert (col.dtype, col.shape) == (want_col.dtype, want_col.shape)
                    assert col.tobytes() == want_col.tobytes()


def test_good_tables_never_read_the_body_as_text(tmp_path, monkeypatch):
    ds = generate(SynthConfig(**tiny_config()))
    io_utils.save_dataset(ds, tmp_path / "data")
    calls = []
    read_body = io_utils._read_body
    monkeypatch.setattr(io_utils, "_read_body", lambda path: calls.append(path) or read_body(path))
    graph, _ = io_utils.load_dataset(tmp_path / "data")
    assert calls == []
    assert np.array_equal(graph.features, ds.graph.features)
    bad = tmp_path / "nodes.csv"
    bad.write_text("id,f_0\n0,1.0\n\n1.5,1.0\n")
    with pytest.raises(io_utils.GraphLoadError) as excinfo:
        io_utils.read_nodes_csv(bad)
    assert str(excinfo.value) == f"{bad}:4: could not convert string '1.5' to int64"
    assert calls == [bad]


@pytest.mark.parametrize("rows_before", [1, 20000], ids=["first-chunk", "past-first-chunk"])
def test_non_utf8_nodes_file_exits_1_with_the_decoder_message(tmp_path, capsys, rows_before):
    path = tmp_path / "nodes.csv"
    path.write_bytes(b"id,f_0\n" + b"".join(b"%d,1.0\n" % i for i in range(rows_before))
                     + b"99999,\xff1.0\n")
    (tmp_path / "edges.csv").write_text("src,dst\n")
    with pytest.raises(UnicodeDecodeError) as excinfo:
        oracles.read_nodes_csv_text(path)
    rc = main(["eval-cls", "--model", str(tmp_path / "m.json"), "--data-dir", str(tmp_path)])
    assert rc == 1
    assert f"error: {excinfo.value}\n" in capsys.readouterr().err


@pytest.mark.parametrize("node_ids, bad", [((10, 20, 30), 40), ((0, 1, 2), -1)],
                         ids=["remapped-unknown", "dense-negative"])
def test_load_dataset_rejects_subgraph_ids_outside_graph(tmp_path, node_ids, bad):
    a, b, _ = node_ids
    (tmp_path / "nodes.csv").write_text(
        "id,f_0\n" + "".join(f"{n},1.0\n" for n in node_ids))
    (tmp_path / "edges.csv").write_text(f"src,dst\n{a},{b}\n")
    (tmp_path / "subgraphs.jsonl").write_text(
        json.dumps({"id": "x", "label": "licit", "nodes": [a, bad], "edges": []}) + "\n")
    with pytest.raises(io_utils.GraphLoadError, match=f"subgraphs.jsonl:1: node id {bad} "):
        io_utils.load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# CLI basics


def test_missing_required_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["eval-cls"])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1


def test_no_subcommand_exits_1(capsys):
    assert main([]) == 1


def test_generate_and_manifest(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", tiny_config())
    out = tmp_path / "data"
    assert main(["generate", "--config", cfg, "--out-dir", str(out)]) == 0
    for name in ("edges.csv", "nodes.csv", "subgraphs.jsonl", "run_manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seeds"] == {"seed": 1}
    assert manifest["tool_version"]
    assert list(manifest["input_digests"]) == [cfg]


def test_generate_seed_flag_wins(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", tiny_config(seed=1))
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["generate", "--config", cfg, "--out-dir", str(out1), "--seed", "9"]) == 0
    assert main(["generate", "--config", cfg, "--out-dir", str(out2)]) == 0
    m1 = json.loads((out1 / "run_manifest.json").read_text())
    assert m1["seeds"]["seed"] == 9
    assert (out1 / "nodes.csv").read_bytes() != (out2 / "nodes.csv").read_bytes()


def test_graphlets_command(tmp_path):
    sub_path = tmp_path / "subgraphs.jsonl"
    io_utils.write_subgraphs_jsonl(
        sub_path,
        [Subgraph(id="t", nodes=(0, 1, 2), edges=((0, 1), (1, 2), (2, 0)))],
    )
    out = tmp_path / "hist.json"
    assert main(["graphlets", "--subgraphs", str(sub_path), "--out", str(out)]) == 0
    hist = json.loads(out.read_text())
    assert hist["counts"]["triangle"] == 1
    assert hist["counts"]["edge"] == 3
    assert os.path.exists(str(out) + ".manifest.json")


def test_graphlets_command_matches_bruteforce(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--config", write_json(tmp_path / "cfg.json", tiny_config()),
                 "--out-dir", str(data)]) == 0
    sub_path = data / "subgraphs.jsonl"
    out = tmp_path / "hist.json"
    assert main(["graphlets", "--subgraphs", str(sub_path), "--out", str(out)]) == 0
    subgraphs = io_utils.read_subgraphs_jsonl(sub_path)
    hist = json.loads(out.read_text())
    assert hist["counts"] == graphlet_census_bruteforce(subgraphs).counts
    assert hist["skipped_subgraphs"] == 0 < hist["total"]


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_graphlets_rejects_node_cap_below_1_before_reading(tmp_path, capsys, cap):
    out = tmp_path / "hist.json"
    rc = main(["graphlets", "--subgraphs", str(tmp_path / "missing.jsonl"),
               "--out", str(out), "--node-cap", cap])
    assert rc == 1
    assert f"error: node_cap must be an integer >= 1, got {cap}" in capsys.readouterr().err
    assert not out.exists()
    assert not os.path.exists(str(out) + ".manifest.json")


@settings(max_examples=200, deadline=None)
@given(st.text(), st.sampled_from([None, "licit", "suspicious"]),
       st.lists(st.integers(0, 2**62), min_size=1, max_size=6, unique=True),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8))
def test_subgraph_writer_matches_json_dumps(sg_id, label, nodes, edge_ranks):
    ids = ['"', "\\", "é", "\u2028", "\x00", sg_id]
    subgraphs = [
        Subgraph(id=i, nodes=tuple(nodes), label=label,
                 edges=tuple((nodes[u % len(nodes)], nodes[v % len(nodes)])
                             for u, v in edge_ranks))
        for i in ids
    ]
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "subgraphs.jsonl")
        io_utils.write_subgraphs_jsonl(path, subgraphs)
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == "".join(
        json.dumps({"id": sg.id, "label": sg.label, "nodes": list(sg.nodes),
                    "edges": [list(e) for e in sg.edges]}, separators=(",", ":")) + "\n"
        for sg in subgraphs).encode("utf-8")


def test_generation_error_exit_code(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", dict(tiny_config(), num_entities=5))
    rc = main(["generate", "--config", cfg, "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    assert "requires at least" in capsys.readouterr().err


@pytest.mark.parametrize("config, shown", [
    (dict(tiny_config(), feature_dim=0), "feature_dim must be an integer >= 1"),
    (dict(tiny_config(), num_entities=0), "num_entities must be an integer >= 1"),
    (dict(tiny_config(), num_suspicious=-3), "num_suspicious must be an integer >= 0"),
    (dict(tiny_config(), background_noise_edges=-5), "background_noise_edges must be"),
    (dict(tiny_config(), feature_noise_sigma=float("nan")), "feature_noise_sigma must be"),
    (dict(tiny_config(), bogus=1), "unknown generator config keys ['bogus']"),
    ([1], "generator config must be a JSON object"),
    (dict(tiny_config(), scheme_mix={"peeling_chain": 1.0, "zigzag": 0.0}), "scheme_mix must"),
    (dict(tiny_config(), scheme_mix={"peeling_chain": 1.5, "nested_service": -0.5}),
     "scheme_mix weights must be >= 0"),
    (dict(tiny_config(), class_means={"licit": 0.0, "illicit": 1.0}), "class_means must"),
    (dict(tiny_config(), class_means={"licit": 0, "illicit": 1, "unknown": 0, "other": 2}),
     "class_means must"),
    (dict(tiny_config(), fanin_range=3), "fanin_range must satisfy"),
    (dict(tiny_config(), seed=True), "seed must be an integer >= 0, got True"),
    (dict(tiny_config(), background_noise_edges=True), "background_noise_edges must be"),
    (dict(tiny_config(), feature_noise_sigma=False), "feature_noise_sigma must be"),
    (dict(tiny_config(), chain_length_range=[True, 3]), "chain_length_range must satisfy"),
], ids=["feature-dim-0", "no-entities", "negative-count", "negative-noise-edges",
        "nan-sigma", "unknown-key", "not-an-object", "unknown-scheme", "negative-weight",
        "missing-class-mean", "unknown-class-mean", "scalar-range", "bool-seed",
        "bool-noise-edges", "bool-sigma", "bool-range"])
def test_bad_generate_config_exits_1(tmp_path, capsys, config, shown):
    out_dir = tmp_path / "x"
    rc = main(["generate", "--config", write_json(tmp_path / "c.json", config),
               "--seed", "3", "--out-dir", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and shown in err
    assert not out_dir.exists()


@pytest.mark.parametrize("config, shown", [
    ({"merge_min": 0}, "merge_range must be two integers 1 <= lo <= hi, got (0, 20)"),
    ({"merge_min": 4, "merge_max": 3}, "merge_range must be two integers 1 <= lo <= hi"),
    ({"merge_min": 1.5}, "argument --merge-min: invalid int value: '1.5'"),
    ({"gamma": True}, "argument --gamma: invalid float value: 'True'"),
    ({"gamma": 0}, "gamma must be finite and positive, got 0.0"),
    ({"gamma": 800}, "gamma 800.0 is too large for merge_range (1, 20)"),
], ids=["zero-min", "min-above-max", "fractional-min", "bool-gamma", "zero-gamma",
        "underflowing-gamma"])
def test_bad_finetune_config_exits_1(tmp_path, capsys, config, shown):
    out = tmp_path / "tuned.json"
    argv = ["finetune", "--config", write_json(tmp_path / "c.json", config),
            "--model", str(tmp_path / "missing.json"), "--data-dir", str(tmp_path),
            "--out", str(out)]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects a value its flag's type cannot read
        rc = exc.code
    assert rc == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") and shown in line for line in err.splitlines())
    assert not out.exists()


# ---------------------------------------------------------------------------
# pipeline


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """generate -> train -> finetune chain shared by the CLI tests."""
    root = tmp_path_factory.mktemp("pipe")
    cfg = write_json(root / "cfg.json", tiny_config(seed=4))
    data = root / "data"
    model = root / "model.json"
    tuned = root / "tuned.json"
    assert main(["generate", "--config", cfg, "--out-dir", str(data)]) == 0
    assert main([
        "train", "--arch", "ds", "--data-dir", str(data), "--split-seed", "0",
        "--few-shot", "1.0", "--out", str(model),
        "--hidden-dim", "8", "--epochs", "4", "--patience", "3",
    ]) == 0
    assert main([
        "finetune", "--model", str(model), "--data-dir", str(data),
        "--gamma", "0.4", "--merge-min", "1", "--merge-max", "6",
        "--out", str(tuned), "--epochs", "2",
    ]) == 0
    return root, data, model, tuned


def test_pipeline_classify_eval_filter_bench(pipeline, capsys, tmp_path):
    root, data, model, tuned = pipeline

    scores_csv = tmp_path / "scores.csv"
    assert main([
        "classify", "--model", str(model), "--data-dir", str(data),
        "--subgraphs", str(data / "subgraphs.jsonl"), "--out", str(scores_csv),
    ]) == 0
    lines = scores_csv.read_text().strip().splitlines()
    assert lines[0] == "subgraph_id,score,label_pred"
    assert len(lines) == 51  # 50 subgraphs + header

    assert main([
        "eval-cls", "--model", str(model), "--data-dir", str(data),
        "--split-seed", "0",
    ]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert 0.0 <= metrics["pr_auc"] <= 1.0

    senders = tmp_path / "s.txt"
    receivers = tmp_path / "r.txt"
    graph, subgraphs = io_utils.load_dataset(data)
    from revtrack.rec_eval import boundary_pools

    plus_pool, minus_pool = boundary_pools(subgraphs, graph)
    s_ids = sorted({s for ss, _ in plus_pool + minus_pool for s in ss})[:8]
    r_ids = sorted({r for _, rr in plus_pool + minus_pool for r in rr})[:8]
    senders.write_text("".join(f"{s}\n" for s in s_ids))
    receivers.write_text("".join(f"{r}\n" for r in r_ids))
    links_csv = tmp_path / "links.csv"
    assert main([
        "filter", "--model", str(tuned), "--data-dir", str(data),
        "--senders", str(senders), "--receivers", str(receivers),
        "--k", "3", "--alpha-keep", "1.5", "--split", "sorted",
        "--seed", "0", "--out", str(links_csv),
    ]) == 0
    rows = links_csv.read_text().strip().splitlines()
    assert rows[0] == "rank,sender,receiver,score"
    assert len(rows) == 4

    results = tmp_path / "results.json"
    assert main([
        "bench-rec", "--model", str(tuned), "--data-dir", str(data),
        "--settings", "1+3@1,1+5@2", "--n-instances", "4",
        "--variant", "full", "--seed", "11", "--out", str(results),
    ]) == 0
    table = json.loads(results.read_text())
    assert set(table["settings"]) == {"1+3@1", "1+5@2"}
    for row in table["settings"].values():
        assert 0.0 <= row["hr_mean"] <= 1.0
    assert os.path.exists(str(results) + ".manifest.json")


@pytest.fixture(scope="module")
def runs(pipeline):
    """graphlets, classify, filter, bench-rec and eval-cls run next to the
    pipeline's outputs; returns the root and the files eval-cls found and left."""
    root, data, model, tuned = pipeline
    _, s_ids, r_ids = _boundary_ids(data)
    (root / "s.txt").write_text("".join(f"{s}\n" for s in s_ids))
    (root / "r.txt").write_text("".join(f"{r}\n" for r in r_ids))
    common = ["--data-dir", str(data)]
    for argv in (
        ["graphlets", "--subgraphs", str(data / "subgraphs.jsonl"),
         "--out", str(root / "graphlets.json")],
        ["classify", "--model", str(model), *common,
         "--subgraphs", str(data / "subgraphs.jsonl"), "--out", str(root / "scores.csv")],
        ["filter", "--model", str(tuned), *common, "--senders", str(root / "s.txt"),
         "--receivers", str(root / "r.txt"), "--k", "3", "--out", str(root / "links.csv")],
        ["bench-rec", "--model", str(tuned), *common, "--settings", "1+3@1",
         "--n-instances", "2", "--seed", "11", "--out", str(root / "results.json")],
    ):
        assert main(argv) == 0
    before = sorted(root.rglob("*"))
    assert main(["eval-cls", "--model", str(model), *common]) == 0
    return root, before, sorted(root.rglob("*"))


DATASET = {"data/edges.csv", "data/nodes.csv", "data/subgraphs.jsonl"}


# command -> (its manifest under the pipeline root, seeds, input paths under the root)
MANIFESTS = {
    "generate": ("data/run_manifest.json", {"seed": 4}, {"cfg.json"}),
    "graphlets": ("graphlets.json.manifest.json", {}, {"data/subgraphs.jsonl"}),
    "train": ("model.json.manifest.json", {"split_seed": 0, "train_seed": 0}, DATASET),
    "finetune": ("tuned.json.manifest.json", {"split_seed": 0, "augment_seed": 0},
                 DATASET | {"model.json"}),
    "classify": ("scores.csv.manifest.json", {}, DATASET | {"model.json"}),
    "filter": ("links.csv.manifest.json", {"seed": 0},
               {"data/edges.csv", "data/nodes.csv", "tuned.json", "s.txt", "r.txt"}),
    "bench_rec": ("results.json.manifest.json", {"seed": 11}, DATASET | {"tuned.json"}),
}


@pytest.mark.parametrize("command", sorted(MANIFESTS))
def test_every_mutating_command_writes_its_manifest(runs, command):
    root, _, _ = runs
    path, seeds, inputs = MANIFESTS[command]
    manifest = json.loads((root / path).read_text())
    assert manifest["command"] == command
    assert manifest["seeds"] == seeds
    assert set(manifest["input_digests"]) == {str(root / path) for path in inputs}
    assert manifest["wall_time"] >= 0.0


def test_eval_cls_writes_no_manifest(runs):
    _, before, after = runs
    assert after == before


def test_manifest_keeps_inputs_that_share_a_basename_apart(pipeline, tmp_path):
    _, data, _, tuned = pipeline
    _, s_ids, r_ids = _boundary_ids(data)
    senders, receivers = tmp_path / "q1" / "ids.txt", tmp_path / "q2" / "ids.txt"
    for path, ids in ((senders, s_ids), (receivers, r_ids)):
        path.parent.mkdir()
        path.write_text("".join(f"{i}\n" for i in ids))
    links_csv = tmp_path / "links.csv"
    assert main(["filter", "--model", str(tuned), "--data-dir", str(data),
                 "--senders", str(senders), "--receivers", str(receivers),
                 "--k", "3", "--out", str(links_csv)]) == 0
    digests = json.loads((tmp_path / "links.csv.manifest.json").read_text())["input_digests"]
    assert len(digests) == 5
    for path in (senders, receivers):
        assert digests[str(path)] == io_utils.sha256_file(path)


def _boundary_ids(data):
    graph, subgraphs = io_utils.load_dataset(data)
    from revtrack.rec_eval import boundary_pools

    plus_pool, minus_pool = boundary_pools(subgraphs, graph)
    s_ids = sorted({s for ss, _ in plus_pool + minus_pool for s in ss})[:8]
    r_ids = sorted({r for _, rr in plus_pool + minus_pool for r in rr})[:8]
    return graph.num_nodes, s_ids, r_ids


@pytest.mark.parametrize("defect", ["negative", "out-of-range", "duplicate", "non-integer"])
def test_filter_rejects_bad_sender_ids(pipeline, tmp_path, capsys, defect):
    _, data, _, tuned = pipeline
    num_nodes, s_ids, r_ids = _boundary_ids(data)
    bad = {"negative": -1, "out-of-range": num_nodes + 5, "duplicate": s_ids[0],
           "non-integer": "abc"}[defect]
    senders = tmp_path / "senders.txt"
    receivers = tmp_path / "receivers.txt"
    senders.write_text("".join(f"{s}\n" for s in [bad] + s_ids))
    receivers.write_text("".join(f"{r}\n" for r in r_ids))
    rc = main([
        "filter", "--model", str(tuned), "--data-dir", str(data),
        "--senders", str(senders), "--receivers", str(receivers),
        "--k", "3", "--out", str(tmp_path / "links.csv"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(senders) in err and f"node id {bad}" in err


def test_classify_quotes_subgraph_ids(pipeline, tmp_path):
    _, data, model, _ = pipeline

    def classify(sub_path, out):
        assert main(["classify", "--model", str(model), "--data-dir", str(data),
                     "--subgraphs", str(sub_path), "--out", str(out)]) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))

    records = [json.loads(line) for line in (data / "subgraphs.jsonl").read_text().splitlines()]
    by_id = {row[0]: row[1:] for row in classify(data / "subgraphs.jsonl", tmp_path / "a.csv")}
    odd = ['a,b"c', "two\nlines", "plain"]
    renamed = tmp_path / "renamed.jsonl"
    renamed.write_text("".join(json.dumps(dict(r, id=i)) + "\n" for r, i in zip(records, odd)))
    rows = classify(renamed, tmp_path / "b.csv")
    assert rows[0] == ["subgraph_id", "score", "label_pred"]
    assert rows[1:] == [[i, *by_id[r["id"]]] for r, i in zip(records, odd)]


@pytest.mark.parametrize("bad", [99999, -3])
def test_classify_rejects_subgraph_ids_outside_graph(pipeline, tmp_path, capsys, bad):
    _, data, model, _ = pipeline
    sub_path = tmp_path / "subgraphs.jsonl"
    sub_path.write_text(
        json.dumps({"id": "x", "label": None, "nodes": [0, 1, bad], "edges": []}) + "\n")
    rc = main([
        "classify", "--model", str(model), "--data-dir", str(data),
        "--subgraphs", str(sub_path), "--out", str(tmp_path / "scores.csv"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"subgraphs.jsonl:1: node id {bad} " in err


@pytest.mark.parametrize("record, shown", [
    ({"id": "x", "label": None, "edges": []}, "'nodes'"),
    ({"id": "x", "label": None, "nodes": [0, 3.7], "edges": []}, "node id 3.7 "),
    ({"id": "x", "label": None, "nodes": [0, True], "edges": []}, "node id True "),
    ({"id": "x", "label": None, "nodes": [0, 1], "edges": [[0, 1.0]]}, "node id 1.0 "),
    ({"id": "a", "label": None, "nodes": [0, 1], "edges": [[1, 3]]},
     "subgraph 'a' edge (1,3) has endpoint outside node set"),
    ({"id": "b", "label": "shady", "nodes": [0, 1], "edges": []},
     "subgraph 'b' has unknown label 'shady'"),
    ({"id": "c", "label": None, "nodes": [], "edges": []}, "subgraph 'c' has no nodes"),
], ids=["missing-key", "float-node", "bool-node", "float-edge-end", "edge-off-nodes",
        "unknown-label", "no-nodes"])
def test_classify_rejects_malformed_subgraph_records(pipeline, tmp_path, capsys, record, shown):
    _, data, model, _ = pipeline
    sub_path = tmp_path / "subgraphs.jsonl"
    good = {"id": "ok", "label": None, "nodes": [0, 1], "edges": [[0, 1]]}
    sub_path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
    rc = main([
        "classify", "--model", str(model), "--data-dir", str(data),
        "--subgraphs", str(sub_path), "--out", str(tmp_path / "scores.csv"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "subgraphs.jsonl:2: " in err and shown in err


def test_filter_exits_2_when_scorer_fails_on_a_pair(pipeline, tmp_path, capsys, monkeypatch):
    from revtrack import cli

    _, data, _, tuned = pipeline
    _, s_ids, r_ids = _boundary_ids(data)

    class FlakyScorer(cli.PairScorer):
        """Fails on every block whose product holds the link (s_ids[0], r_ids[0])."""

        def blocks(self, senders, receivers):
            score = super().blocks(senders, receivers)

            def flaky(candidates):
                if any(s_ids[0] in senders[a:b] and r_ids[0] in receivers[c:d]
                       for a, b, c, d in candidates):
                    raise RuntimeError("boom")
                return score(candidates)

            return flaky

    monkeypatch.setattr(cli, "PairScorer", FlakyScorer)
    senders, receivers = tmp_path / "s.txt", tmp_path / "r.txt"
    senders.write_text("".join(f"{s}\n" for s in s_ids))
    receivers.write_text("".join(f"{r}\n" for r in r_ids))
    links_csv = tmp_path / "links.csv"
    rc = main([
        "filter", "--model", str(tuned), "--data-dir", str(data),
        "--senders", str(senders), "--receivers", str(receivers),
        "--k", "3", "--out", str(links_csv),
    ])
    assert rc == 2
    assert "warning: scorer failed on" in capsys.readouterr().err
    assert len(links_csv.read_text().strip().splitlines()) == 4
    assert os.path.exists(str(links_csv) + ".manifest.json")


def sparse(v):
    """The node id renaming of ``test_boundary_stages_match_reference_on_remapped_ids``:
    injective below 10007, not monotone."""
    return 10**9 + (v * 7919) % 10007 * 3


@pytest.fixture(scope="module")
def sparse_data(pipeline):
    """The pipeline's dataset with every node id v renamed ``sparse(v)``."""
    root, data, _, _ = pipeline
    out = root / "sparse"
    out.mkdir()
    edges = io_utils.read_edges_csv(data / "edges.csv")
    io_utils.write_edges_csv(out / "edges.csv", np.vectorize(sparse)(edges))
    head, *rows = (data / "nodes.csv").read_text().splitlines()
    renamed = [f"{sparse(int(node_id))},{rest}" for node_id, rest in (r.split(",", 1) for r in rows)]
    (out / "nodes.csv").write_text("\n".join([head, *renamed]) + "\n")
    records = [json.loads(line) for line in (data / "subgraphs.jsonl").read_text().splitlines()]
    (out / "subgraphs.jsonl").write_text("".join(json.dumps({
        **r, "nodes": [sparse(v) for v in r["nodes"]],
        "edges": [[sparse(u), sparse(v)] for u, v in r["edges"]]}) + "\n" for r in records))
    return out


@pytest.mark.parametrize("split", ["sorted", "random"])
def test_sparse_ids_give_the_dense_run_in_original_ids(pipeline, sparse_data, tmp_path, split):
    _, data, model, tuned = pipeline
    # The filter bisects a side in ascending row order, which on the sparse
    # copy is ascending sparse id: the ids 9i and 9i + 4 keep their order
    # under ``sparse``, so both runs bisect the same node sequences.
    s_ids, r_ids = list(range(0, 72, 9)), list(range(4, 67, 9))
    assert sorted(s_ids, key=sparse) == s_ids and sorted(r_ids, key=sparse) == r_ids
    out = {}
    for name, data_dir, rename in (("dense", data, int), ("sparse", sparse_data, sparse)):
        senders, receivers = tmp_path / f"{name}-s.txt", tmp_path / f"{name}-r.txt"
        senders.write_text("".join(f"{rename(s)}\n" for s in s_ids))
        receivers.write_text("".join(f"{rename(r)}\n" for r in r_ids))
        links, scores = tmp_path / f"{name}-links.csv", tmp_path / f"{name}-scores.csv"
        assert main([
            "filter", "--model", str(tuned), "--data-dir", str(data_dir),
            "--senders", str(senders), "--receivers", str(receivers),
            "--k", "3", "--split", split, "--seed", "5", "--out", str(links),
        ]) == 0
        assert main([
            "classify", "--model", str(model), "--data-dir", str(data_dir),
            "--subgraphs", str(data_dir / "subgraphs.jsonl"), "--out", str(scores),
        ]) == 0
        out[name] = links.read_text(), [row.split(",") for row in scores.read_text().splitlines()]
    header, *rows = out["dense"][0].splitlines()
    renamed = [f"{rank},{sparse(int(s))},{sparse(int(r))},{score}"
               for rank, s, r, score in (row.split(",") for row in rows)]
    assert len(rows) == 3
    assert out["sparse"][0].splitlines() == [header] + renamed
    # A subgraph's senders come in ascending row order, which the renaming
    # permutes, so a pooled sum may round differently in its last bits.
    (head, *dense), (sparse_head, *sparse_rows) = out["dense"][1], out["sparse"][1]
    assert sparse_head == head and len(sparse_rows) == len(dense) == 50
    for (sg_id, score, pred), (sparse_id, sparse_score, sparse_pred) in zip(dense, sparse_rows):
        assert (sparse_id, sparse_pred) == (sg_id, pred)
        assert abs(float(sparse_score) - float(score)) <= 1e-12


@pytest.mark.parametrize("where", ["node", "edge", "senders"])
@pytest.mark.parametrize("ids", ["dense", "sparse"])
def test_id_beyond_int64_is_not_a_node(pipeline, sparse_data, tmp_path, capsys, ids, where):
    _, data, model, tuned = pipeline
    data_dir, rename = (data, int) if ids == "dense" else (sparse_data, sparse)
    a, b, huge = rename(0), rename(4), 2**70
    if where == "senders":
        senders, receivers = tmp_path / "s.txt", tmp_path / "r.txt"
        senders.write_text(f"{a}\n{huge}\n")
        receivers.write_text(f"{b}\n")
        argv = ["filter", "--model", str(tuned), "--senders", str(senders),
                "--receivers", str(receivers), "--k", "1"]
        shown = f"{senders}: node id {huge} is not a node of the graph"
    else:
        record = ({"id": "x", "label": None, "nodes": [a, huge], "edges": []} if where == "node"
                  else {"id": "x", "label": None, "nodes": [a, b], "edges": [[a, huge]]})
        sub_path = tmp_path / "subgraphs.jsonl"
        sub_path.write_text(json.dumps(record) + "\n")
        argv = ["classify", "--model", str(model), "--subgraphs", str(sub_path)]
        shown = f"subgraphs.jsonl:1: node id {huge} is not a node of the graph"
    assert main(argv + ["--data-dir", str(data_dir), "--out", str(tmp_path / "out.csv")]) == 1
    assert shown in capsys.readouterr().err


def test_train_rejects_max_pool_for_ds_before_loading(tmp_path, capsys):
    rc = main(["train", "--arch", "ds", "--pool", "max",
               "--data-dir", str(tmp_path / "missing"), "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "max is a bp-only readout" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--hidden-dim", "0", "hidden_dim"),
    ("--epochs", "-1", "epochs"),
    ("--batch-size", "0", "batch_size"),
    ("--pos-weight", "-1", "pos_weight"),
    ("--pos-weight", "inf", "pos_weight"),
    ("--lr", "0", "lr"),
    ("--lr", "nan", "lr"),
    ("--patience", "-4", "patience"),
])
def test_train_rejects_bad_settings_before_loading(tmp_path, capsys, flag, value, field):
    rc = main(["train", "--arch", "ds", "--data-dir", str(tmp_path / "missing"),
               "--out", str(tmp_path / "m.json"), flag, value])
    assert rc == 1
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command, flag, field", [
    ("finetune", "--gamma", "gamma"),
    ("finetune", "--lr", "lr"),
    ("filter", "--alpha-keep", "alpha_keep"),
    ("classify", "--threshold", "threshold"),
    ("eval-cls", "--threshold", "threshold"),
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_settings_exit_1_before_loading(tmp_path, capsys, command, flag, field,
                                                   value):
    missing = str(tmp_path / "missing")
    out = ["--out", str(tmp_path / "out")]
    argv = [command, "--model", missing, "--data-dir", missing, flag, value] + {
        "finetune": out,
        "filter": out + ["--senders", missing, "--receivers", missing, "--k", "3"],
        "classify": out + ["--subgraphs", missing],
        "eval-cls": [],  # prints to stdout: no --out
    }[command]
    assert main(argv) == 1
    assert f"error: {field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting", ["1+5@0", "1+-5@1", "0+5@1", "1+5"])
def test_bench_rec_rejects_bad_settings_before_loading(tmp_path, capsys, setting):
    rc = main(["bench-rec", "--model", str(tmp_path / "missing.json"),
               "--data-dir", str(tmp_path / "missing"), "--settings", f"1+3@1,{setting}",
               "--variant", "no-iter", "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert f"error: bad setting {setting!r}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("value", ["nan", "0.5"])
def test_bench_rec_rejects_bad_alpha_keep_before_loading(tmp_path, capsys, value):
    rc = main(["bench-rec", "--model", str(tmp_path / "missing.json"),
               "--data-dir", str(tmp_path / "missing"), "--settings", "1+3@1",
               "--alpha-keep", value, "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "error: alpha_keep must be finite and >= 1" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_bench_rec_rejects_zero_instances(tmp_path, capsys):
    results = tmp_path / "results.json"
    rc = main(["bench-rec", "--model", str(tmp_path / "missing.json"),
               "--data-dir", str(tmp_path / "missing"), "--settings", "1+3@1",
               "--n-instances", "0", "--out", str(results)])
    assert rc == 1
    assert "at least one instance" in capsys.readouterr().err
    assert not results.exists()


def test_bench_rec_rejects_empty_settings_before_loading(tmp_path, capsys):
    results = tmp_path / "results.json"
    rc = main(["bench-rec", "--model", str(tmp_path / "missing.json"),
               "--data-dir", str(tmp_path / "missing"), "--settings", ",",
               "--out", str(results)])
    assert rc == 1
    assert "error: no benchmark setting given" in capsys.readouterr().err
    assert not results.exists()


@pytest.mark.parametrize("edit, shown", [
    (lambda ckpt: ckpt["config"].update(pool="max"), "unknown ds pool 'max'"),
    (lambda ckpt: ckpt["weights"].pop("trunk.w0"), "lacks the entry 'trunk.w0'"),
    (None, "checkpoint must be a JSON object"),
    (lambda ckpt: ckpt["weights"].update({"logit.b0": [None]}),
     "entry 'logit.b0' holds a non-finite value"),
    (lambda ckpt: ckpt["weights"].update(
        {"trunk.w0": [float("nan")] * len(ckpt["weights"]["trunk.w0"])}),
     "entry 'trunk.w0' holds a non-finite value"),
], ids=["ds-max-pool", "missing-weight", "not-an-object", "null-weight", "nan-weight"])
def test_filter_rejects_malformed_checkpoint(pipeline, tmp_path, capsys, edit, shown):
    _, data, _, tuned = pipeline
    _, s_ids, r_ids = _boundary_ids(data)
    ckpt = json.loads(tuned.read_text())
    if edit is None:  # the file holds a JSON list
        ckpt = []
    else:
        edit(ckpt)
    senders, receivers = tmp_path / "s.txt", tmp_path / "r.txt"
    senders.write_text("".join(f"{s}\n" for s in s_ids))
    receivers.write_text("".join(f"{r}\n" for r in r_ids))
    links_csv = tmp_path / "links.csv"
    rc = main([
        "filter", "--model", write_json(tmp_path / "bad.json", ckpt), "--data-dir", str(data),
        "--senders", str(senders), "--receivers", str(receivers),
        "--k", "3", "--out", str(links_csv),
    ])
    assert rc == 1
    assert shown in capsys.readouterr().err
    assert not links_csv.exists()
    assert not os.path.exists(str(links_csv) + ".manifest.json")


def test_train_determinism_via_cli(pipeline, tmp_path):
    _, data, model, _ = pipeline
    again = tmp_path / "model2.json"
    assert main([
        "train", "--arch", "ds", "--data-dir", str(data), "--split-seed", "0",
        "--few-shot", "1.0", "--out", str(again),
        "--hidden-dim", "8", "--epochs", "4", "--patience", "3",
    ]) == 0
    assert again.read_bytes() == model.read_bytes()


def test_train_logs_the_saved_epoch_of_a_tie(pipeline, tmp_path, capsys, monkeypatch):
    # train_model keeps the weights of the last of tied best epochs
    _, data, model, _ = pipeline
    history = [{"epoch": e, "train_loss": 1.0, "valid_metric": m}
               for e, m in enumerate([0.5, 1.0, 0.75, 1.0, 1.0, 0.9])]
    trained = load_checkpoint(str(model))
    monkeypatch.setattr(classifier, "train", lambda *args: (trained, history))
    assert main([
        "train", "--arch", "ds", "--data-dir", str(data), "--out", str(tmp_path / "m.json"),
    ]) == 0
    assert "best valid metric 1.0000 at epoch 4" in capsys.readouterr().err


@pytest.mark.parametrize("data", [[1], "x", 3, None])
def test_config_file_must_hold_an_object(tmp_path, capsys, data):
    model = tmp_path / "m.json"
    rc = main(["train", "--config", write_json(tmp_path / "c.json", data),
               "--data-dir", str(tmp_path / "missing"), "--out", str(model)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file: ")
    assert "config must be a JSON object" in err
    assert not model.exists()


def test_config_file_flags_win(pipeline, tmp_path, capsys):
    _, data, model, _ = pipeline

    def eval_cls(*argv):
        assert main(["eval-cls", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    cfg = write_json(tmp_path / "eval.json",
                     {"model": str(model), "data-dir": str(data), "split-seed": 1})
    plain = ["--model", str(model), "--data-dir", str(data), "--split-seed"]
    seed_1, seed_0 = eval_cls(*plain, "1"), eval_cls(*plain, "0")
    assert seed_1 != seed_0  # the two split seeds give different test splits
    assert eval_cls("--config", cfg) == seed_1
    assert eval_cls("--config", cfg, "--split-seed", "0") == seed_0


@pytest.fixture
def train_configs(pipeline, monkeypatch):
    """The TrainConfig of every cli train run, which trains nothing."""
    _, _, model, _ = pipeline
    trained = load_checkpoint(str(model))
    seen = []
    monkeypatch.setattr(classifier, "train",
                        lambda arch, tr, va, features, config: seen.append(config) or (trained, []))
    return seen


def test_abbreviated_config_flag_is_read(pipeline, tmp_path, train_configs):
    _, data, _, _ = pipeline
    cfg = write_json(tmp_path / "c.json", {"epochs": 1, "seed": 5})
    assert main(["train", "--arch", "ds", "--conf", cfg, "--data-dir", str(data),
                 "--out", str(tmp_path / "m.json")]) == 0
    assert (train_configs[0].epochs, train_configs[0].seed) == (1, 5)


def test_abbreviated_flag_beats_config_file(pipeline, tmp_path, train_configs):
    _, data, _, _ = pipeline
    cfg = write_json(tmp_path / "c.json", {"data_dir": str(tmp_path / "missing"), "seed": 5})
    assert main(["train", "--arch", "ds", "--config", cfg, "--data", str(data),
                 "--se", "2", "--out", str(tmp_path / "m.json")]) == 0
    assert train_configs[0].seed == 2


def test_config_flag_without_value_exits_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--arch", "ds", "--data-dir", str(tmp_path), "--out",
              str(tmp_path / "m.json"), "--config"])
    assert exc.value.code == 1
    assert "argument --config: expected one argument" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# BLAS threads


def test_checkpoints_do_not_follow_the_blas_thread_count(tmp_path):
    # at 1,500 entities the products are large enough for OpenBLAS to split
    # them over threads; unpinned, the fine-tuned bytes on one thread differ
    # from those on two
    cfg = dict(tiny_config(seed=4), num_entities=1500, num_suspicious=40,
               num_licit_subgraphs=40, background_noise_edges=100)
    data = tmp_path / "data"
    assert main(["generate", "--config", write_json(tmp_path / "cfg.json", cfg),
                 "--out-dir", str(data)]) == 0
    src = os.path.dirname(os.path.dirname(classifier.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    chains = {}
    for threads in (None, "1", "2", "4"):
        run_env = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
        model, tuned = tmp_path / f"model-{threads}.json", tmp_path / f"tuned-{threads}.json"
        for args in (["train", "--arch", "ds", "--data-dir", str(data), "--split-seed", "0",
                      "--out", str(model), "--epochs", "4"],
                     ["finetune", "--model", str(model), "--data-dir", str(data),
                      "--out", str(tuned), "--epochs", "2"]):
            proc = subprocess.run([sys.executable, "-m", "revtrack.cli", *args],
                                  capture_output=True, text=True, env=run_env, timeout=300)
            assert proc.returncode == 0, proc.stderr
        chains[threads] = (model.read_bytes(), tuned.read_bytes())
    assert all(chain == chains[None] for chain in chains.values())


def test_blas_pin_skips_a_missing_library_or_setter(tmp_path, monkeypatch):
    import revtrack

    fake_numpy = tmp_path / "numpy"
    fake_numpy.mkdir()
    libs = tmp_path / "numpy.libs"
    libs.mkdir()
    (libs / "libscipy_openblas_not_a_library.so").write_text("not a library")
    # a loadable library without the setter
    real_libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for other in sorted(glob.glob(os.path.join(real_libs, "libquadmath*")))[:1]:
        os.symlink(other, libs / "libscipy_openblas_no_setter.so")
    monkeypatch.setattr(np, "__file__", str(fake_numpy / "__init__.py"))
    revtrack._pin_blas_threads()
