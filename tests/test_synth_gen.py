"""Synthetic dataset generator: scheme shapes, label soundness, determinism."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revtrack.graph_core import (
    ILLICIT,
    LICIT,
    UNKNOWN,
    break_cycles,
    extract_boundary,
)
from revtrack.synth_gen import (
    SCHEME_NAMES,
    GenerationError,
    SynthConfig,
    default_class_means,
    generate,
)
from oracles import generate_reference, infer_label, validate_against


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


def assert_same_dataset(a, b):
    """Equal CSR arrays, labels and subgraphs, and bitwise-equal features."""
    for name in ("num_nodes", "out_indptr", "out_indices", "in_indptr", "in_indices",
                 "node_labels"):
        assert np.array_equal(getattr(a.graph, name), getattr(b.graph, name)), name
    assert a.graph.features.shape == b.graph.features.shape
    assert a.graph.features.tobytes() == b.graph.features.tobytes()
    assert [(s.id, s.nodes, s.edges, s.label) for s in a.subgraphs] == [
        (s.id, s.nodes, s.edges, s.label) for s in b.subgraphs
    ]


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
        validate_against(sg, ds.graph)


def test_seed_determinism():
    cfg = dict(num_entities=800, num_suspicious=20, num_licit_subgraphs=20,
               background_noise_edges=100, seed=42)
    assert_same_dataset(generate(SynthConfig(**cfg)), generate(SynthConfig(**cfg)))


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


def test_scheme_mix_missing_name_weighs_zero():
    explicit = one_scheme_config("nested_service", num_suspicious=6, num_licit_subgraphs=4)
    implicit = dataclasses.replace(explicit, scheme_mix={"nested_service": 1.0})
    assert_same_dataset(generate(implicit), generate(explicit))


def test_config_json_roundtrip():
    cfg = SynthConfig(
        num_entities=123, feature_dim=3,
        class_means={UNKNOWN: [0.0, 0.25, -0.25], LICIT: [0.5, -1.0, 2.0], ILLICIT: 1.5},
        feature_noise_sigma=0.5, scheme_signature_sigma=0.0, risky_receiver_shift=1.25,
        num_suspicious=7, num_licit_subgraphs=0,
        scheme_mix={"random_path": 0.5, "peeling_chain": 0.5},
        chain_length_range=(3, 4), fanin_range=(1, 1), background_noise_edges=0, seed=9,
    )
    data = cfg.to_json_dict()
    assert list(data) == [f.name for f in dataclasses.fields(SynthConfig)]
    defaults = SynthConfig().to_json_dict()
    assert [key for key in data if data[key] == defaults[key]] == []
    assert data["class_means"] == {"unknown": [0.0, 0.25, -0.25], "licit": [0.5, -1.0, 2.0],
                                   "illicit": [1.5, 1.5, 1.5]}
    back = SynthConfig.from_json_dict(json.loads(json.dumps(data)))
    assert back.chain_length_range == (3, 4) and back.fanin_range == (1, 1)
    assert back.scheme_mix == cfg.scheme_mix
    assert list(back.class_means) == [UNKNOWN, LICIT, ILLICIT]
    assert back.to_json_dict() == data


def test_config_rejects_bad_values():
    for bad in (dict(num_entities=0), dict(feature_dim=0), dict(num_suspicious=-3),
                dict(background_noise_edges=-5), dict(feature_noise_sigma=float("nan")),
                dict(scheme_signature_sigma=-0.1), dict(risky_receiver_shift="big"),
                dict(risky_receiver_shift=-1.0), dict(num_licit_subgraphs=2.5),
                dict(scheme_mix={"peeling_chain": 1.5, "random_path": -0.5}),
                dict(scheme_mix={"peeling_chain": 1.0, "zigzag": 0.0}),
                dict(class_means={LICIT: 0.0, ILLICIT: 1.0}),
                dict(fanin_range=(3, 2)), dict(chain_length_range=(0, 2))):
        with pytest.raises(ValueError):
            SynthConfig(**bad)


@st.composite
def small_configs(draw):
    """Small configs over every field, including budgets that are too small."""
    d = draw(st.integers(1, 4))
    mix = draw(st.sampled_from(SCHEME_NAMES + (None,)))
    mix = None if mix is None else {name: float(name == mix) for name in SCHEME_NAMES}
    vector = st.floats(-3, 3) | st.lists(st.floats(-3, 3), min_size=d, max_size=d)
    means = draw(st.none() | st.fixed_dictionaries(
        {LICIT: vector, ILLICIT: vector, UNKNOWN: vector}))

    def lo_hi(top):
        lo = draw(st.integers(1, top))
        return (lo, draw(st.integers(lo, top)))

    return SynthConfig(
        num_entities=draw(st.integers(1, 160)), feature_dim=d, class_means=means,
        feature_noise_sigma=draw(st.sampled_from([0.0, 0.97]) | st.floats(0, 2)),
        scheme_signature_sigma=draw(st.sampled_from([0.0, 0.25]) | st.floats(0, 2)),
        risky_receiver_shift=draw(st.sampled_from([0.0, 2.0]) | st.floats(0, 3)),
        num_suspicious=draw(st.integers(0, 8)), num_licit_subgraphs=draw(st.integers(0, 8)),
        **({} if mix is None else {"scheme_mix": mix}),
        chain_length_range=lo_hi(5), fanin_range=lo_hi(4),
        background_noise_edges=draw(st.integers(0, 60)), seed=draw(st.integers(0, 2**32 - 1)),
    )


def mixed_config(seed, **mix):
    return SynthConfig(num_entities=1000, num_suspicious=25, num_licit_subgraphs=25,
                       scheme_mix=mix, background_noise_edges=40, seed=seed)


@settings(max_examples=150, deadline=None)
@given(small_configs())
# a zero weight, first in the middle then last, and sums off 1 by less than 1e-9
@example(mixed_config(3, peeling_chain=0.5, nested_service=0.0, random_path=0.5))
@example(mixed_config(4, peeling_chain=0.3, nested_service=0.7, random_path=0.0))
@example(mixed_config(5, peeling_chain=0.25, nested_service=0.55, random_path=0.2 + 9e-10))
@example(mixed_config(6, peeling_chain=0.25, nested_service=0.55, random_path=0.2 - 9e-10))
def test_generate_matches_reference(cfg):
    try:
        expected = generate_reference(cfg)
    except GenerationError as exc:
        with pytest.raises(GenerationError, match=f"^{re.escape(str(exc))}$"):
            generate(cfg)
        return
    assert_same_dataset(generate(cfg), expected)
