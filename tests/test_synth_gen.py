"""Synthetic dataset generator: scheme shapes, label soundness, determinism."""

import numpy as np
import pytest

from revtrack.graph_core import (
    ILLICIT,
    LICIT,
    UNKNOWN,
    break_cycles,
    extract_boundary,
)
from revtrack.synth_gen import (
    GenerationError,
    SynthConfig,
    default_class_means,
    generate,
)
from oracles import infer_label


def one_scheme_config(scheme, **overrides):
    mix = {"peeling_chain": 0.0, "nested_service": 0.0, "random_path": 0.0}
    mix[scheme] = 1.0
    base = dict(
        num_entities=400,
        num_suspicious=1,
        num_licit_subgraphs=0,
        scheme_mix=mix,
        background_noise_edges=0,
        seed=7,
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_peeling_chain_shape():
    cfg = one_scheme_config("peeling_chain", chain_length_range=(4, 4))
    ds = generate(cfg)
    sg = ds.subgraphs[0]
    assert sg.label == "suspicious"
    c1, c2, c3, c4 = sg.nodes
    assert set(sg.edges) == {(c1, c2), (c2, c3), (c3, c4), (c1, c4), (c2, c4)}
    b = extract_boundary(ds.graph, sg)
    assert b.sources == {c1}
    assert b.sinks == {c4}
    assert len(b.senders) == 1 and len(b.receivers) == 1
    (s,) = b.senders
    (r,) = b.receivers
    assert ds.graph.node_labels[s] == ILLICIT
    assert ds.graph.node_labels[r] == LICIT
    assert all(ds.graph.node_labels[c] == UNKNOWN for c in sg.nodes)


def test_nested_service_shape():
    cfg = one_scheme_config("nested_service", fanin_range=(2, 2))
    ds = generate(cfg)
    sg = ds.subgraphs[0]
    assert sg.num_nodes == 3  # two path hops plus the service node
    b = extract_boundary(ds.graph, sg)
    assert len(b.senders) == 2
    assert len(b.receivers) == 1
    assert len(b.sinks) == 1
    assert all(ds.graph.node_labels[s] == ILLICIT for s in b.senders)


def test_licit_random_path():
    cfg = one_scheme_config(
        "random_path", num_suspicious=0, num_licit_subgraphs=1, chain_length_range=(2, 2)
    )
    ds = generate(cfg)
    sg = ds.subgraphs[0]
    assert sg.label == "licit"
    b = extract_boundary(ds.graph, sg)
    assert all(ds.graph.node_labels[s] == LICIT for s in b.senders)
    assert all(ds.graph.node_labels[r] == LICIT for r in b.receivers)


def test_label_rule_soundness():
    cfg = SynthConfig(
        num_entities=3000,
        num_suspicious=60,
        num_licit_subgraphs=60,
        background_noise_edges=400,
        seed=13,
    )
    ds = generate(cfg)
    assert len(ds.subgraphs) == 120
    for sg in ds.subgraphs:
        assert infer_label(ds.graph, sg) == sg.label


def test_subgraphs_valid_against_graph():
    ds = generate(SynthConfig(num_entities=1500, num_suspicious=30,
                              num_licit_subgraphs=30, seed=3))
    for sg in ds.subgraphs:
        sg.validate_against(ds.graph)


def test_seed_determinism():
    cfg = dict(num_entities=800, num_suspicious=20, num_licit_subgraphs=20,
               background_noise_edges=100, seed=42)
    a = generate(SynthConfig(**cfg))
    b = generate(SynthConfig(**cfg))
    assert a.graph.edge_list() == b.graph.edge_list()
    assert np.array_equal(a.graph.features, b.graph.features)
    assert np.array_equal(a.graph.node_labels, b.graph.node_labels)
    assert [(s.id, s.nodes, s.edges, s.label) for s in a.subgraphs] == [
        (s.id, s.nodes, s.edges, s.label) for s in b.subgraphs
    ]


def test_different_seed_differs():
    base = dict(num_entities=800, num_suspicious=20, num_licit_subgraphs=20)
    a = generate(SynthConfig(seed=1, **base))
    b = generate(SynthConfig(seed=2, **base))
    assert not np.array_equal(a.graph.features, b.graph.features)


def test_entity_budget_error():
    with pytest.raises(GenerationError, match="requires at least"):
        generate(SynthConfig(num_entities=10, num_suspicious=50,
                             num_licit_subgraphs=0, seed=0))


def test_peeling_chain_single_source_sink():
    rng_seeds = [1, 2, 3, 4, 5]
    for seed in rng_seeds:
        cfg = one_scheme_config("peeling_chain", num_suspicious=10, seed=seed)
        ds = generate(cfg)
        for sg in ds.subgraphs:
            acyc = break_cycles(sg)
            b = extract_boundary(ds.graph, acyc)
            assert len(b.sources) == 1
            assert len(b.sinks) == 1


def test_zero_sigma_linear_separability():
    cfg = SynthConfig(
        num_entities=2000,
        num_suspicious=40,
        num_licit_subgraphs=40,
        feature_noise_sigma=0.0,
        scheme_signature_sigma=0.0,
        seed=5,
    )
    ds = generate(cfg)
    means = default_class_means(cfg.feature_dim)
    direction = means[ILLICIT] - means[LICIT]
    margins = {"suspicious": [], "licit": []}
    for sg in ds.subgraphs:
        b = extract_boundary(ds.graph, sg)
        sender_mean = np.mean([ds.graph.features[s] for s in b.senders], axis=0)
        margins[sg.label].append(float(direction @ sender_mean))
    assert min(margins["suspicious"]) > max(margins["licit"])


def test_scheme_mix_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        SynthConfig(scheme_mix={"peeling_chain": 0.5, "nested_service": 0.2,
                                "random_path": 0.2})


def test_config_json_roundtrip():
    cfg = SynthConfig(num_entities=123, seed=9, chain_length_range=(3, 4))
    data = cfg.to_json_dict()
    back = SynthConfig.from_json_dict(data)
    assert back.num_entities == 123
    assert back.chain_length_range == (3, 4)
    assert back.to_json_dict() == data
