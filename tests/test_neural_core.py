"""Neural kernel: forward math, exact gradients, Adam, checkpoints."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairwise_reference as ref
from revtrack import classifier
from revtrack import neural_core as nc
from revtrack.classifier import PairScorer, SRPair
from revtrack.rev_filter import expand
from oracles import (adam_step_reference, block_logits_reference, encode_sides_reference,
                     init_adam_reference, mlp_forward_reference, sigmoid_reference)


def identity_mlp(dim):
    return nc.MlpParams(
        weights=[np.eye(dim)], biases=[np.zeros(dim)], activations=["identity"]
    )


# ---------------------------------------------------------------------------
# mlp_forward


def test_mlp_identity():
    out = nc.mlp_forward(identity_mlp(2), np.array([1.0, 2.0]))
    assert np.allclose(out, [1.0, 2.0])


def test_mlp_relu_hand_computed():
    p = nc.MlpParams(
        weights=[np.array([[1.0, 1.0]])],
        biases=[np.array([0.5])],
        activations=["relu"],
    )
    out = nc.mlp_forward(p, np.array([1.0, -3.0]))
    assert out.shape == (1,)
    assert out[0] == 0.0  # relu(1 - 3 + 0.5) = relu(-1.5)


def test_mlp_wrong_dim():
    with pytest.raises(nc.ShapeError):
        nc.mlp_forward(identity_mlp(2), np.array([1.0, 2.0, 3.0]))


def bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def flat_backward(params, cache, d_out):
    (d_ws, d_bs), d_in = nc.mlp_backward(params, cache, d_out)
    return bits(*d_ws, *d_bs, d_in)


def test_in_place_layers_match_out_of_place_reference_bitwise():
    # the first layer's pre-activations hold exact zeros, nan and +-inf; the
    # cache keeps each ReLU's output, whose > 0 mask is its pre-activation's
    rng = np.random.default_rng(5)
    stack = nc.MlpParams(
        weights=[np.array([[1.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
                 rng.normal(size=(3, 4)), rng.normal(size=(1, 3))],
        biases=[np.zeros(4), rng.normal(size=3), np.zeros(1)],
        activations=["relu", "relu", "identity"])
    x = np.array([[1.0, 1.0], [0.0, 0.0], [np.inf, 0.0], [0.0, np.nan], [-np.inf, 2.0],
                  [3.0, -2.0]])
    d_out = rng.normal(size=(len(x), 1))
    got_cache, want_cache = [], []
    with np.errstate(invalid="ignore"):
        got = nc.mlp_forward(stack, x, got_cache)
        want = mlp_forward_reference(stack, x, want_cache)
        z = want_cache[0][1]
        assert (z == 0).any() and np.isnan(z).any() and np.isposinf(z).any()
        assert np.isneginf(z).any()
        assert bits(got) == bits(want)
        assert bits(*(a for a, _ in got_cache)) == bits(*(a for a, _ in want_cache))
        assert flat_backward(stack, got_cache, d_out) == flat_backward(stack, want_cache, d_out)
    # a product of -0.0 sums to +0.0 in the matmul, so -0.0 enters by hand
    z = np.array([[0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -1.5]])
    relu = nc.MlpParams([rng.normal(size=(7, 3))], [np.zeros(7)], ["relu"])
    a_prev, d_out = rng.normal(size=(1, 3)), rng.normal(size=(1, 7))
    assert flat_backward(relu, [(a_prev, np.maximum(z, 0.0))], d_out) == flat_backward(
        relu, [(a_prev, z)], d_out)


def test_unknown_activation_raises():
    stack = nc.MlpParams([np.eye(2)], [np.zeros(2)], ["tanh"])
    for forward in (nc.mlp_forward, mlp_forward_reference):
        with pytest.raises(ValueError, match="unknown activation 'tanh'"):
            forward(stack, np.ones(2))


# ---------------------------------------------------------------------------
# batch_logits: hand values, invariance, empty sets


def readout_ds(pool):
    """ds model with identity phi/rho/trunk and a logit that reads the
    pooled sender and receiver vectors (2-d each) as digits 1, 10, 100, 1000."""
    logit = nc.MlpParams(weights=[np.array([[1.0, 10.0, 100.0, 1000.0]])],
                         biases=[np.zeros(1)], activations=["identity"])
    mlps = {f"{side}_{part}": identity_mlp(2)
            for side in ("sender", "receiver") for part in ("phi", "rho")}
    return nc.Model({"arch": "ds", "feature_dim": 2, "hidden_dim": 2, "pool": pool},
                    {**mlps, "trunk": identity_mlp(4), "logit": logit})


def plain_bipartite(eps=0.0, readout="sum"):
    config = {"arch": "bp", "feature_dim": 1, "hidden_dim": 1, "readout": readout,
              "epsilon": eps}
    return nc.Model(config, {name: identity_mlp(1) for name in ("node_mlp", "head", "logit")})


def test_deepsets_sum_identity():
    # pooled senders [1, 2], pooled receivers [3, 0]
    out = nc.forward_logit(readout_ds("sum"), [[1.0, 0.0], [0.0, 2.0]], [[3.0, 0.0]])
    assert out == pytest.approx(1.0 + 20.0 + 300.0)


def test_deepsets_mean_identity():
    # pooled senders [0.5, 1], pooled receivers [1, 2]
    out = nc.forward_logit(readout_ds("mean"), [[1.0, 0.0], [0.0, 2.0]],
                           [[0.0, 4.0], [2.0, 0.0]])
    assert out == pytest.approx(0.5 + 10.0 + 100.0 + 2000.0)


def test_batch_segments_pool_each_pair_alone():
    # one call, three pairs of different sizes: rows never leak across pairs
    xs = np.array([[1.0, 0.0], [0.0, 2.0], [5.0, 5.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    xr = np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 1.0], [2.0, 2.0]])
    out = nc.batch_logits(readout_ds("sum"), xs, xr, [2, 1, 3], [1, 2, 1])
    assert out.tolist() == pytest.approx([321.0, 2055.0, 2233.0])


def test_deepsets_permutation_invariant():
    rng = np.random.default_rng(3)
    model = nc.build_ds_model(rng, feature_dim=3, hidden_dim=5)
    elems = rng.normal(size=(6, 3))
    other = rng.normal(size=(2, 3))
    base = nc.forward_logit(model, elems, other)
    for _ in range(5):
        perm = rng.permutation(6)
        assert abs(nc.forward_logit(model, elems[perm], other) - base) < 1e-6


def test_deepsets_empty_set_errors():
    with pytest.raises(ValueError):
        nc.forward_logit(readout_ds("sum"), np.zeros((0, 2)), [[1.0, 0.0]])
    with pytest.raises(ValueError):
        nc.batch_logits(readout_ds("sum"), np.ones((2, 2)), np.ones((2, 2)), [2, 0], [1, 1])


def test_bipartite_hand_computed():
    out = nc.forward_logit(plain_bipartite(), [[1.0]], [[2.0]])
    # sender state 1, receiver state 2 + 1 = 3, sum readout = 4
    assert out == pytest.approx(4.0)


def test_bipartite_two_senders():
    out = nc.forward_logit(plain_bipartite(), [[1.0], [1.0]], [[0.0]])
    # receiver 0 + 2 = 2, senders 1 and 1, sum = 4
    assert out == pytest.approx(4.0)


def test_bipartite_batch_hand_computed():
    # pair 0 as in test_bipartite_hand_computed; pair 1: senders 1, 1 and
    # receiver 0 + 2 = 2, so max readout 2 and sum readout 4
    xs, xr = np.array([[1.0], [1.0], [1.0]]), np.array([[2.0], [0.0]])
    assert nc.batch_logits(plain_bipartite(readout="max"), xs, xr, [1, 2], [1, 1]).tolist() \
        == pytest.approx([3.0, 2.0])
    assert nc.batch_logits(plain_bipartite(), xs, xr, [1, 2], [1, 1]).tolist() \
        == pytest.approx([4.0, 4.0])


def test_bipartite_permutation_invariant():
    rng = np.random.default_rng(5)
    model = nc.build_bp_model(rng, feature_dim=3, hidden_dim=6, epsilon=0.25)
    xs = rng.normal(size=(4, 3))
    xr = rng.normal(size=(3, 3))
    base = nc.forward_logit(model, xs, xr)
    for _ in range(5):
        out = nc.forward_logit(model, xs[rng.permutation(4)], xr[rng.permutation(3)])
        assert abs(out - base) < 1e-6


def test_bipartite_empty_side_errors():
    with pytest.raises(ValueError):
        nc.forward_logit(plain_bipartite(), np.zeros((0, 1)), [[1.0]])


# ---------------------------------------------------------------------------
# sigmoid against the masked two-branch reference


@settings(max_examples=60, deadline=None)
@given(z=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=64))
def test_sigmoid_matches_masked_reference_bitwise(z):
    z = np.array(z, dtype=np.float64)
    assert bits(nc.sigmoid(z)) == bits(sigmoid_reference(z))


def test_sigmoid_scalars_and_special_values_match_reference():
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 800.0, -800.0, 1.3]
    for z in special:
        got, want = nc.sigmoid(z), sigmoid_reference(z)
        assert type(got) is type(want) is float and bits(got) == bits(want)
    z = np.random.default_rng(83).normal(scale=40.0, size=(300, 7))
    z[0] = special[:7]
    assert bits(nc.sigmoid(z)) == bits(sigmoid_reference(z))


# ---------------------------------------------------------------------------
# bce_loss


def test_bce_values():
    assert abs(nc.bce_loss(0.5, 1) - 0.6931471805599453) < 1e-12
    assert abs(nc.bce_loss(0.9, 0) - 2.302585092994046) < 1e-9
    assert nc.bce_loss(1.0, 1) < 1e-6  # clamped, approaches 0


# ---------------------------------------------------------------------------
# backward


def mean_loss(model, batch):
    total = 0.0
    for xs, xr, y in batch:
        p = nc.sigmoid(nc.forward_logit(model, xs, xr))
        total += nc.bce_loss(p, y)
    return total / len(batch)


def fd_max_rel_error(model, batch, h=1e-4):
    _, grads = nc.backward(model, *ref.stack(batch))
    worst = 0.0
    for p, g in zip(nc.parameters(model), grads):
        flat_p, flat_g = p.ravel(), g.ravel()
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + h
            lp = mean_loss(model, batch)
            flat_p[j] = orig - h
            lm = mean_loss(model, batch)
            flat_p[j] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(flat_g[j]), 1e-6)
            worst = max(worst, abs(fd - flat_g[j]) / denom)
    return worst


def random_batch(rng, dim, n_pairs=3):
    batch = []
    for i in range(n_pairs):
        xs = rng.normal(size=(int(rng.integers(1, 4)), dim))
        xr = rng.normal(size=(int(rng.integers(1, 4)), dim))
        batch.append((xs, xr, i % 2))
    return batch


def jiggle_biases(model, rng):
    # Zero biases put relu preactivations exactly on the kink, where the
    # analytic subgradient and central differences legitimately disagree;
    # check gradients at a generic point instead.
    for mlp in model.mlps.values():
        for b in mlp.biases:
            b += rng.uniform(0.05, 0.3, size=b.shape) * rng.choice([-1.0, 1.0], size=b.shape)


def test_logistic_unit_gradient_hand():
    # z = w*x + b with w=0, b=0, x=1, y=1: dL/dw = (sigmoid(0) - 1) * 1 = -0.5
    p = nc.MlpParams(weights=[np.zeros((1, 1))], biases=[np.zeros(1)], activations=["identity"])
    cache = []
    z = nc.mlp_forward(p, np.array([1.0]), cache)
    d_logit = nc.sigmoid(z[0]) - 1.0
    (d_ws, d_bs), _ = nc.mlp_backward(p, cache, np.array([d_logit]))
    assert abs(d_ws[0][0, 0] - (-0.5)) < 1e-12
    assert abs(d_bs[0][0] - (-0.5)) < 1e-12


def test_gradient_matches_finite_differences_ds():
    rng = np.random.default_rng(17)
    for pool in ("sum", "mean"):
        for _ in range(3):
            model = nc.build_ds_model(rng, feature_dim=3, hidden_dim=4, pool=pool)
            jiggle_biases(model, rng)
            batch = random_batch(rng, 3)
            assert fd_max_rel_error(model, batch) < 1e-4


def test_gradient_matches_finite_differences_bp():
    rng = np.random.default_rng(19)
    for readout in ("sum", "mean", "max"):
        for _ in range(2):
            model = nc.build_bp_model(
                rng, feature_dim=3, hidden_dim=4, readout=readout, epsilon=0.3
            )
            jiggle_biases(model, rng)
            batch = random_batch(rng, 3)
            assert fd_max_rel_error(model, batch) < 1e-4


def test_saturated_gradient_small():
    rng = np.random.default_rng(23)
    model = nc.build_ds_model(rng, feature_dim=2, hidden_dim=3)
    # push the logit bias so p ~= 1 with label 1: gradient should vanish
    model.mlps["logit"].biases[0][0] = 30.0
    batch = [(np.ones((1, 2)), np.ones((1, 2)), 1)]
    _, grads = nc.backward(model, *ref.stack(batch))
    assert max(np.max(np.abs(g)) for g in grads) < 1e-6


# ---------------------------------------------------------------------------
# adam


def test_adam_first_step_magnitude():
    params = [np.zeros(1)]
    state = nc.init_adam(params, lr=1e-3)
    assert nc.adam_step(state, params, [np.ones(1)]) is None
    assert abs(abs(params[0][0]) - 1e-3) < 1e-8
    assert params[0][0] < 0
    assert state.step == 1


def test_adam_zero_gradient_no_move():
    params = [np.array([1.5, -2.0])]
    before = params[0].copy()
    state = nc.init_adam(params)
    nc.adam_step(state, params, [np.zeros(2)])
    assert np.array_equal(params[0], before)


def test_adam_monotone_descent_constant_gradient():
    params = [np.zeros(1)]
    state = nc.init_adam(params, lr=1e-3)
    prev = 0.0
    for _ in range(5):
        nc.adam_step(state, params, [np.ones(1)])
        assert params[0][0] < prev
        prev = params[0][0]


# gradient entries that stress the moment updates: signed zeros, subnormals
# and values whose square overflows
ADAM_GRADS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2e-308, 1e300, -1e300]) \
    | st.floats(-10, 10)


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       shapes=st.lists(st.sampled_from([(1,), (3,), (2, 3), (4, 1)]), min_size=1, max_size=4),
       steps=st.integers(5, 8), lr=st.sampled_from([1e-3, 1e-4, 0.5]),
       betas=st.sampled_from([(0.9, 0.999), (0.5, 0.9)]))
def test_adam_matches_allocating_reference_bitwise(data, shapes, steps, lr, betas):
    def arrays(elements):
        return [np.array(data.draw(st.lists(elements, min_size=int(np.prod(shape)),
                                            max_size=int(np.prod(shape)))),
                         dtype=np.float64).reshape(shape) for shape in shapes]

    params = arrays(st.floats(-5, 5))
    ref_params = [p.copy() for p in params]
    state = nc.init_adam(params, lr=lr, beta1=betas[0], beta2=betas[1])
    ref_state = init_adam_reference(params, lr=lr, beta1=betas[0], beta2=betas[1])
    for _ in range(steps):
        grads = arrays(ADAM_GRADS)
        before = bits(*grads)
        with np.errstate(over="ignore", invalid="ignore"):  # squares of 1e300
            assert nc.adam_step(state, params, grads) is None
            ref_params = adam_step_reference(ref_state, ref_params, grads)
        assert bits(*grads) == before  # gradients are not written
        assert bits(*params) == bits(*ref_params)
        assert bits(*state.m) == bits(*ref_state.m)
        assert bits(*state.v) == bits(*ref_state.v)
        assert state.step == ref_state.step


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_exact():
    rng = np.random.default_rng(29)
    for build in (
        lambda: nc.build_ds_model(rng, 4, 6, "mean"),
        lambda: nc.build_bp_model(rng, 4, 6, "max", 0.1),
    ):
        model = build()
        blob = json.dumps(nc.model_to_checkpoint(model))
        restored = nc.checkpoint_to_model(json.loads(blob))
        blob2 = json.dumps(nc.model_to_checkpoint(restored))
        assert blob == blob2
        for a, b in zip(nc.parameters(model), nc.parameters(restored)):
            assert np.array_equal(a, b)


def test_checkpoint_rejects_bad_version():
    rng = np.random.default_rng(31)
    ckpt = nc.model_to_checkpoint(nc.build_ds_model(rng, 2, 3))
    ckpt["version"] = 99
    with pytest.raises(ValueError):
        nc.checkpoint_to_model(ckpt)


# Checkpoints written by an earlier version of the model code, with the
# logits that version gave on the inputs below, both for the file as written
# and with the optional config keys removed (so the defaults apply).
FORMAT_CASES = {
    "checkpoint_ds_mean.json": (
        [([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]], [[-0.3, 0.8, 1.1]]),
         ([[1.0, 1.0, 1.0]], [[0.0, -2.0, 0.5], [2.0, 0.0, -1.0], [0.25, 0.5, 0.75]])],
        [0.5535584300881996, 0.5929977086348078],
        {"pool": "sum"},
        [0.5558410092868209, 1.2610043171767287],
    ),
    "checkpoint_bp_max.json": (
        [([[0.5, -1.0], [1.5, 0.25]], [[-0.3, 0.8]]),
         ([[1.0, 1.0]], [[0.0, -2.0], [2.0, 0.0], [0.25, 0.5]])],
        [1.250592794047455, 2.323044619936216],
        {"readout": "sum", "epsilon": 0.0},
        [2.3049012463056675, 5.2864490320105],
    ),
}


@pytest.mark.parametrize("name", sorted(FORMAT_CASES))
def test_checkpoint_file_format_is_pinned(name, tmp_path):
    inputs, logits, defaults, default_logits = FORMAT_CASES[name]
    path = Path(__file__).parent / "data" / name
    model = nc.load_checkpoint(path)
    out = [nc.forward_logit(model, xs, xr) for xs, xr in inputs]
    assert out == pytest.approx(logits, rel=1e-12)
    nc.save_checkpoint(tmp_path / name, model)
    assert (tmp_path / name).read_bytes() == path.read_bytes()

    ckpt = json.loads(path.read_text())
    for key in defaults:
        del ckpt["config"][key]
    legacy = nc.checkpoint_to_model(ckpt)
    assert {key: legacy.config[key] for key in defaults} == defaults
    out = [nc.forward_logit(legacy, xs, xr) for xs, xr in inputs]
    assert out == pytest.approx(default_logits, rel=1e-12)


def test_checkpoint_rejects_wrong_layer_sizes():
    rng = np.random.default_rng(31)
    for key in ("trunk.b0", "logit.w0"):
        ckpt = nc.model_to_checkpoint(nc.build_ds_model(rng, 2, 3))
        ckpt["weights"][key] = ckpt["weights"][key][:1]
        with pytest.raises(ValueError):
            nc.checkpoint_to_model(ckpt)


@pytest.mark.parametrize("arch, edit, shown", [
    ("ds", lambda ckpt: ckpt["config"].update(pool="max"), "unknown ds pool 'max'"),
    ("bp", lambda ckpt: ckpt["config"].update(readout="median"), "unknown bp readout 'median'"),
    ("ds", lambda ckpt: ckpt["weights"].pop("trunk.w0"), "lacks the entry 'trunk.w0'"),
    ("bp", lambda ckpt: ckpt.pop("config"), "lacks the entry 'config'"),
    ("ds", lambda ckpt: ckpt["config"].pop("hidden_dim"), "lacks the entry 'hidden_dim'"),
], ids=["ds-max-pool", "bp-median-readout", "missing-weight", "missing-config",
        "missing-hidden-dim"])
def test_checkpoint_load_rejects_bad_config_and_missing_entries(tmp_path, arch, edit, shown):
    build = nc.build_ds_model if arch == "ds" else nc.build_bp_model
    ckpt = nc.model_to_checkpoint(build(np.random.default_rng(3), 2, 3))
    edit(ckpt)
    (tmp_path / "m.json").write_text(json.dumps(ckpt))
    with pytest.raises(ValueError, match=shown):
        nc.load_checkpoint(tmp_path / "m.json")


@pytest.mark.parametrize("bad", [None, float("nan"), float("inf"), -float("inf")],
                         ids=["null", "nan", "inf", "-inf"])
def test_checkpoint_rejects_non_finite_weights(bad):
    ckpt = nc.model_to_checkpoint(nc.build_ds_model(np.random.default_rng(3), 2, 3))
    ckpt["weights"]["trunk.w0"][1] = bad
    with pytest.raises(ValueError, match="entry 'trunk.w0' holds a non-finite value"):
        nc.checkpoint_to_model(json.loads(json.dumps(ckpt)))


def test_checkpoint_rejects_wrong_json_shapes():
    good = nc.model_to_checkpoint(nc.build_ds_model(np.random.default_rng(3), 2, 3))
    for ckpt, shown in [
        ([], "checkpoint must be a JSON object"),
        ({**good, "weights": []}, "checkpoint weights must be a JSON object"),
        ({**good, "config": []}, "checkpoint config must be a JSON object"),
        ({**good, "config": {**good["config"], "hidden_dim": "4"}},
         "hidden_dim must be a positive integer, got '4'"),
        ({**good, "config": {**good["config"], "feature_dim": 0}},
         "feature_dim must be a positive integer, got 0"),
        ({**good, "arch": ["ds"]}, r"unknown arch \['ds'\]"),
    ]:
        with pytest.raises(ValueError, match=shown):
            nc.checkpoint_to_model(ckpt)


def test_models_reject_unknown_pools():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="unknown ds pool 'max'"):
        nc.build_ds_model(rng, 2, 3, "max")
    with pytest.raises(ValueError, match="unknown bp readout 'median'"):
        nc.build_bp_model(rng, 2, 3, "median")


def test_loss_decays_on_separable_toy_set():
    rng = np.random.default_rng(41)
    model = nc.build_ds_model(rng, feature_dim=2, hidden_dim=8)
    for mlp in model.mlps.values():
        for b in mlp.biases:
            b += rng.uniform(-0.1, 0.1, size=b.shape)
    batch = []
    for i in range(16):
        y = i % 2
        center = 1.5 if y else -1.5
        xs = center + 0.1 * rng.normal(size=(2, 2))
        xr = 0.1 * rng.normal(size=(1, 2))
        batch.append((xs, xr, y))
    stacked = ref.stack(batch)
    loss0, _ = nc.backward(model, *stacked)
    params = nc.parameters(model)
    state = nc.init_adam(params, lr=1e-3)
    for _ in range(200):
        loss, grads = nc.backward(model, *stacked)
        nc.adam_step(state, params, grads)
    final, _ = nc.backward(model, *stacked)
    assert final < 0.1 * loss0
    nc.assert_finite(model)


def test_scores_stay_in_unit_interval():
    rng = np.random.default_rng(37)
    model = nc.build_ds_model(rng, 3, 5)
    for _ in range(10):
        s = nc.sigmoid(nc.forward_logit(model, rng.normal(size=(2, 3)), rng.normal(size=(1, 3))))
        assert 0.0 < s < 1.0


# ---------------------------------------------------------------------------
# batched kernel against the per-pair reference

POOLS = [("ds", "sum"), ("ds", "mean"), ("bp", "sum"), ("bp", "mean"), ("bp", "max")]


def jiggled_model(rng, arch, pool, dim=3, hidden=8):
    if arch == "ds":
        model = nc.build_ds_model(rng, dim, hidden, pool=pool)
    else:
        model = nc.build_bp_model(rng, dim, hidden, readout=pool, epsilon=0.3)
    jiggle_biases(model, rng)
    return model


def assert_close(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b)))


@pytest.mark.parametrize("arch, pool", POOLS)
def test_kernel_matches_pairwise_reference(arch, pool, monkeypatch):
    rng = np.random.default_rng(61)
    model = jiggled_model(rng, arch, pool)
    features = rng.normal(size=(60, 3))
    srs = [SRPair(senders=tuple(rng.choice(60, int(rng.integers(1, 13)), replace=False)),
                  receivers=tuple(rng.choice(60, int(rng.integers(1, 13)), replace=False)))
           for _ in range(48)]
    batch = [(features[list(sr.senders)], features[list(sr.receivers)], i % 3 == 0)
             for i, sr in enumerate(srs)]
    loss, grads = nc.backward(model, *ref.stack(batch), pos_weight=2.5)
    ref_loss, ref_grads = ref.backward(model, batch, pos_weight=2.5)
    assert_close(loss, ref_loss)
    assert len(grads) == len(ref_grads) == len(nc.parameters(model))
    for g, rg in zip(grads, ref_grads):
        assert_close(g, rg)
    expected = [ref.score_pair(model, xs, xr) for xs, xr, _ in batch]
    assert_close(PairScorer(model, features)(srs), expected)
    monkeypatch.setattr(classifier, "SCORE_CHUNK", 7)  # 48 pairs, 7 kernel calls
    assert_close(PairScorer(model, features)(srs), expected)


@settings(max_examples=40, deadline=None)
@given(
    arch_pool=st.sampled_from(POOLS),
    sizes=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=64),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_property_invariance(arch_pool, sizes, seed):
    rng = np.random.default_rng(seed)
    model = jiggled_model(rng, *arch_pool)
    ns, nr = (np.array(side) for side in zip(*sizes))
    xs, xr = rng.normal(size=(ns.sum(), 3)), rng.normal(size=(nr.sum(), 3))
    logits = nc.batch_logits(model, xs, xr, ns, nr)

    def segments(n):  # row indices of each pair's rows
        return np.split(np.arange(n.sum()), np.cumsum(n)[:-1])

    s_rows, r_rows = segments(ns), segments(nr)
    shuffled = nc.batch_logits(model, xs[np.concatenate([rng.permutation(i) for i in s_rows])],
                               xr[np.concatenate([rng.permutation(i) for i in r_rows])], ns, nr)
    assert_close(shuffled, logits)
    order = rng.permutation(len(sizes))
    reordered = nc.batch_logits(model, xs[np.concatenate([s_rows[i] for i in order])],
                                xr[np.concatenate([r_rows[i] for i in order])],
                                ns[order], nr[order])
    assert_close(reordered, logits[order])
    alone = [nc.forward_logit(model, xs[i], xr[j]) for i, j in zip(s_rows, r_rows)]
    assert_close(alone, logits)



@pytest.mark.parametrize("arch, pool", POOLS)
def test_kernel_gradients_match_out_of_place_layers_bitwise(arch, pool, monkeypatch):
    # zero biases and zero feature rows put pre-activations exactly on the
    # ReLU kink in every layer those rows reach
    rng = np.random.default_rng(79)
    model = (nc.build_ds_model(rng, 3, 8, pool=pool) if arch == "ds"
             else nc.build_bp_model(rng, 3, 8, readout=pool, epsilon=0.3))
    features = rng.normal(size=(40, 3))
    features[:8] = 0.0
    batch = [(features[rng.choice(40, int(rng.integers(1, 6)), replace=False)],
              features[rng.choice(16, int(rng.integers(1, 6)), replace=False)], i % 2)
             for i in range(24)]
    stacked = ref.stack(batch)
    loss, grads = nc.backward(model, *stacked)
    monkeypatch.setattr(nc, "mlp_forward", mlp_forward_reference)
    ref_loss, ref_grads = nc.backward(model, *stacked)
    cache = {}  # the reference caches pre-activations
    nc.batch_logits(model, *stacked[:4], cache)
    assert any((z == 0).any() for entries in cache["mlps"].values() for _, z in entries)
    assert bits(loss, *grads) == bits(ref_loss, *ref_grads)


# ---------------------------------------------------------------------------
# candidate blocks of two fixed sides against the kernel on their pairs


@pytest.mark.parametrize("arch, pool", POOLS)
def test_blocks_match_pair_scoring(arch, pool, monkeypatch):
    rng = np.random.default_rng(73)
    model = jiggled_model(rng, arch, pool)
    features = rng.normal(size=(60, 3))
    ordered = (tuple(sorted(rng.choice(60, 23, replace=False).tolist())),
               tuple(sorted(rng.choice(60, 17, replace=False).tolist())))
    permuted = tuple(tuple(side[i] for i in rng.permutation(len(side))) for side in ordered)
    scorer = PairScorer(model, features)
    for senders, receivers in (ordered, permuted):
        candidates = [(0, len(senders), 0, len(receivers))]
        for _ in range(4):  # 4, 16, 64 and 256 blocks
            candidates = expand(candidates)
            expected = scorer([SRPair(senders=senders[a:b], receivers=receivers[c:d])
                               for a, b, c, d in candidates])
            assert_close(scorer.blocks(senders, receivers)(candidates), expected)
            with monkeypatch.context() as patched:
                patched.setattr(classifier, "SCORE_CHUNK", 7)
                assert_close(scorer.blocks(senders, receivers)(candidates), expected)
    encoded = nc.encode_sides(model, features[:4], features[:3])
    # hi = n + 1 indexes the last row of a ds prefix-sum table, yet no side row
    for bad in ((0, 0, 0, 1), (0, 1, 2, 1), (-1, 1, 0, 1), (0, 5, 0, 1), (0, 1, 0, 4)):
        with pytest.raises(ValueError, match="nonempty slice"):
            nc.block_logits(model, encoded, [(0, 1, 0, 1), bad])


@settings(max_examples=40, deadline=None)
@given(pool=st.sampled_from(["sum", "mean"]), n_s=st.integers(1, 4000),
       n_r=st.integers(1, 4000), seed=st.integers(0, 2**32 - 1))
def test_prefix_sum_blocks_match_kernel_on_gathered_pairs(pool, n_s, n_r, seed):
    rng = np.random.default_rng(seed)
    model = jiggled_model(rng, "ds", pool)
    xs, xr = rng.normal(size=(n_s, 3)), rng.normal(size=(n_r, 3))

    def slices(n, far_end):  # 30 random slices, then per flag the last row or the whole side
        lo = rng.integers(0, n, 30)
        hi = lo + 1 + (rng.random(30) * (n - lo)).astype(np.int64)
        return np.append(lo, np.where(far_end, n - 1, 0)), np.append(hi, [n] * len(far_end))

    (s_lo, s_hi), (r_lo, r_hi) = slices(n_s, [1, 1, 0, 0]), slices(n_r, [1, 0, 1, 0])
    blocks = np.column_stack([s_lo, s_hi, r_lo, r_hi])
    expected = nc.batch_logits(model, xs[nc.segment_rows(s_lo, s_hi)],
                               xr[nc.segment_rows(r_lo, r_hi)], s_hi - s_lo, r_hi - r_lo)
    encoded = nc.encode_sides(model, xs, xr)
    got = nc.block_logits(model, encoded, blocks)
    # A block's pool is the difference of two prefix-table rows, and row hi
    # sums hi phi rows, so its rounding grows with the slice end, as
    # encode_sides says: over 2,000 seeds at 4,000 x 3,000 sides the error
    # stayed below 2 eps (s_hi + r_hi), with short slices far along a side
    # the worst relative to their length.
    tol = 1e-12 + 4 * np.finfo(np.float64).eps * (s_hi + r_hi)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= tol * np.maximum(1.0, np.abs(expected)))
    for bad in ((n_s - 1, n_s + 1, 0, 1), (0, 1, 0, n_r + 1), (n_s, n_s, 0, 1)):
        with pytest.raises(ValueError, match="nonempty slice"):
            nc.block_logits(model, encoded, [(0, 1, 0, 1), bad])


@settings(max_examples=60, deadline=None)
@given(arch_pool=st.sampled_from(POOLS), n_s=st.integers(1, 300), n_r=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_table_blocks_match_per_side_reference_bitwise(arch_pool, n_s, n_r, seed):
    # ds sum and mean read the stacked table, bp its unchanged gather; the
    # per-element subtract, divide, bias add and ReLU are the reference's
    rng = np.random.default_rng(seed)
    model = jiggled_model(rng, *arch_pool, hidden=16)
    xs, xr = rng.normal(size=(n_s, 3)), rng.normal(size=(n_r, 3))

    def slices(n, last_row):  # 40 random slices, then per flag the last row or the whole side
        lo = rng.integers(0, n, 40)
        hi = lo + 1 + (rng.random(40) * (n - lo)).astype(np.int64)
        return np.append(lo, np.where(last_row, n - 1, 0)), np.append(hi, [n] * len(last_row))

    (s_lo, s_hi), (r_lo, r_hi) = slices(n_s, [1, 1, 0, 0]), slices(n_r, [1, 0, 1, 0])
    blocks = np.column_stack([s_lo, s_hi, r_lo, r_hi])
    got = nc.block_logits(model, nc.encode_sides(model, xs, xr), blocks)
    want = block_logits_reference(model, encode_sides_reference(model, xs, xr), blocks)
    assert got.shape == (len(blocks),)
    assert bits(got) == bits(want)


@pytest.mark.parametrize("arch, pool", [("ds", "sum"), ("ds", "mean"), ("bp", "sum")])
def test_a_block_slice_cannot_cross_into_the_other_side(arch, pool):
    # in the stacked ds table the sender rows end at row n_s, row n_s + 1 is
    # the receiver's zero row and n_s + 2 its first prefix sum, so only the
    # per-side limits stop a sender slice from reading receiver rows
    rng = np.random.default_rng(97)
    model = jiggled_model(rng, arch, pool)
    n_s, n_r = 5, 4
    encoded = nc.encode_sides(model, rng.normal(size=(n_s, 3)), rng.normal(size=(n_r, 3)))
    assert nc.block_logits(model, encoded, [(0, n_s, 0, n_r)]).shape == (1,)
    for bad in ((0, n_s + 1, 0, 1), (0, n_s + 2, 0, 1), (n_s, n_s + 1, 0, 1),
                (n_s + 1, n_s + 2, 0, 1), (0, 1, n_r, n_r + 1), (0, 1, 0, n_r + 1),
                (0, 1, n_r + 1, n_r + 2), (0, 1, 0, n_r + 2)):
        with pytest.raises(ValueError, match="nonempty slice"):
            nc.block_logits(model, encoded, [(0, 1, 0, 1), bad])


def test_mlp_forward_converts_other_inputs_as_the_reference_does():
    rng = np.random.default_rng(89)
    stack = nc.MlpParams(weights=[rng.normal(size=(4, 3)), rng.normal(size=(2, 4))],
                         biases=[rng.normal(size=4), rng.normal(size=2)],
                         activations=["relu", "identity"])
    x = rng.normal(size=(5, 3))
    for given_x in (x, x.tolist(), x[0], x[0].tolist(), rng.integers(-3, 4, size=(5, 3)),
                    x.astype(np.float32), x[:, ::-1]):
        got_cache, want_cache = [], []
        got = nc.mlp_forward(stack, given_x, got_cache)
        want = mlp_forward_reference(stack, given_x, want_cache)
        assert got.shape == want.shape and got.dtype == want.dtype == np.float64
        assert bits(got, got_cache[0][0]) == bits(want, want_cache[0][0])


# ---------------------------------------------------------------------------
# one-pass link grid against the kernel on the expanded 1-1 pairs


def expanded_kernel_logits(model, xs, xr):
    """``batch_logits`` on every (sender row, receiver row) pair, sender-major."""
    ones = np.ones(len(xs) * len(xr), dtype=np.int64)
    return nc.batch_logits(model, np.repeat(xs, len(xr), axis=0),
                           np.tile(xr, (len(xs), 1)), ones, ones).reshape(len(xs), len(xr))


@pytest.mark.parametrize("arch, pool", POOLS)
def test_grid_matches_kernel(arch, pool, monkeypatch):
    rng = np.random.default_rng(67)
    model = jiggled_model(rng, arch, pool)
    features = rng.normal(size=(40, 3))
    senders, receivers = rng.choice(40, 11, replace=False), rng.choice(40, 5, replace=False)
    expected = expanded_kernel_logits(model, features[senders], features[receivers])
    monkeypatch.setattr(classifier, "SCORE_CHUNK", 7)  # 5 links per block, 11 blocks
    block_links, mlp_forward = [], nc.mlp_forward

    def recording_mlp_forward(params, x, cache=None):
        if params is model.mlps["logit"]:
            block_links.append(len(x))
        return mlp_forward(params, x, cache)

    monkeypatch.setattr(nc, "mlp_forward", recording_mlp_forward)
    assert_close(nc.grid_logits(model, features[senders], features[receivers],
                                classifier.SCORE_CHUNK), expected)
    assert block_links == [5] * 11
    scorer = PairScorer(model, features)
    pairs = [SRPair(senders=(s,), receivers=(r,)) for s in senders for r in receivers]
    assert_close(scorer.grid(senders, receivers), np.reshape(scorer(pairs), expected.shape))
    assert_close(scorer.grid(senders, receivers), nc.sigmoid(expected))


@settings(max_examples=40, deadline=None)
@given(
    arch_pool=st.sampled_from(POOLS),
    n_s=st.integers(1, 30),
    n_r=st.integers(1, 30),
    chunk=st.integers(1, 1024),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_property_matches_kernel(arch_pool, n_s, n_r, chunk, seed):
    rng = np.random.default_rng(seed)
    model = jiggled_model(rng, *arch_pool)
    xs, xr = rng.normal(size=(n_s, 3)), rng.normal(size=(n_r, 3))
    assert_close(nc.grid_logits(model, xs, xr, chunk), expanded_kernel_logits(model, xs, xr))


@pytest.mark.parametrize("arch, pool", [("ds", "sum"), ("bp", "max")])
def test_grid_rejects_empty_side_and_wrong_dim(arch, pool):
    rng = np.random.default_rng(71)
    model = jiggled_model(rng, arch, pool)
    x = rng.normal(size=(4, 3))
    for xs, xr in ((x[:0], x), (x, x[:0])):
        with pytest.raises(ValueError, match="nonempty"):
            nc.grid_logits(model, xs, xr, 1024)
    for xs, xr in ((x[:, :2], x), (x, np.hstack([x, x]))):
        with pytest.raises(nc.ShapeError):
            nc.grid_logits(model, xs, xr, 1024)
    scorer = PairScorer(model, x)
    with pytest.raises(ValueError, match="nonempty"):
        scorer.grid([], [0, 1])
