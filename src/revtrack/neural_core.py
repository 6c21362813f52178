"""Minimal neural kernel: dense layers, set encoders, exact backprop, Adam.

Everything runs on float64 numpy arrays. Two binary classifiers are built
from these pieces: a Deep Sets model (one permutation-invariant encoder per
side, concatenated, then an MLP head) and a bipartite model (one GIN-style
message round on the fully connected sender->receiver digraph, pooled).

Both run through one batched kernel: ``batch_logits`` takes the stacked
sender rows and receiver rows of many pairs plus per-pair set sizes, and
pools each set with a segment reduction, so training, validation and
scoring evaluate many pairs per pass instead of one. ``batch_backward``
is its hand-written reverse pass; gradients are exact up to floating point
(see the finite-difference tests). Two forward passes score many pairs over
one sender set and one receiver set, encoding each node once (ds):
``grid_logits`` every 1-1 link, and ``block_logits`` candidate blocks of
slices of the two sides. ``encode_sides`` builds per side the prefix sums
of rho's pre-activation (rho's first layer is affine and commutes with a
sum pool), so a slice's rho input is the difference of two table rows plus
rho's bias, and no block runs rho's product. Dense layers add the bias and
apply the ReLU in place on each fresh matmul output.

A ``Model`` is its config (the dict a checkpoint records) plus its named
layer stacks, which ``layer_table`` lists once per architecture. Adam updates
the live arrays that ``parameters`` lists; training snapshots the best
epoch's weights in memory and copies them back. JSON appears only in
``save_checkpoint`` and ``load_checkpoint``.
"""

import json
from dataclasses import dataclass

import numpy as np

from .graph_core import segment_rows

PROB_CLAMP = 1e-7
CHECKPOINT_VERSION = 1


class ShapeError(ValueError):
    """Input dimension does not match the parameter shapes."""


# ---------------------------------------------------------------------------
# dense layers


@dataclass
class MlpParams:
    """Affine layer stack. weights[i] is (out, in), biases[i] is (out,)."""

    weights: list
    biases: list
    activations: list  # "relu" | "identity", one per layer


def init_mlp(rng, dims, activations):
    """Glorot-uniform weights, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights=weights, biases=biases, activations=list(activations))


def mlp_forward(params: MlpParams, x, cache=None):
    """Apply the layer stack to a vector or a row-matrix of inputs.

    Each layer adds its bias to, and applies its ReLU on, the fresh matmul
    output in place. A list ``cache`` receives each layer's (input,
    activation): a ReLU output is > 0 exactly where its pre-activation is,
    -0.0 and NaN included, which is all ``mlp_backward`` reads of it.
    """
    single = np.ndim(x) == 1
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if a.shape[1] != params.weights[0].shape[1]:
        raise ShapeError(
            f"input dim {a.shape[1]} != expected {params.weights[0].shape[1]}"
        )
    for w, b, act in zip(params.weights, params.biases, params.activations):
        z = a @ w.T
        z += b
        if act == "relu":
            np.maximum(z, 0.0, out=z)
        elif act != "identity":
            raise ValueError(f"unknown activation {act!r}")
        if cache is not None:
            cache.append((a, z))
        a = z
    return a[0] if single else a


def mlp_backward(params: MlpParams, cache, d_out):
    """Backprop through the stack; returns (grads, d_input).

    ``grads`` mirrors params as (d_weights list, d_biases list); ``d_out``
    is the gradient w.r.t. the stack output, shaped like it.
    """
    d_a = np.atleast_2d(d_out)
    d_ws = [None] * len(params.weights)
    d_bs = [None] * len(params.weights)
    for i in range(len(params.weights) - 1, -1, -1):
        a_prev, a = cache[i]
        d_z = d_a * (a > 0) if params.activations[i] == "relu" else d_a
        d_ws[i] = d_z.T @ a_prev
        d_bs[i] = d_z.sum(axis=0)
        d_a = d_z @ params.weights[i]
    return (d_ws, d_bs), d_a


# ---------------------------------------------------------------------------
# set pooling


def _segment_pool(kind, rows, lengths):
    """Pool each run of ``lengths[i]`` consecutive rows into one row."""
    starts = np.cumsum(lengths) - lengths
    if kind == "max":
        return np.maximum.reduceat(rows, starts, axis=0)
    pooled = np.add.reduceat(rows, starts, axis=0)
    return pooled / lengths[:, None] if kind == "mean" else pooled


def _segment_pool_backward(kind, rows, lengths, pooled, d_pooled):
    """Gradient w.r.t. ``rows`` of ``_segment_pool``; max feeds its argmax row."""
    if kind == "max":
        # first row of each segment that attains the max, per column; a NaN
        # counts as the max, as in argmax, so diverged weights still reach
        # the caller's non-finite-loss check
        hit = (rows == np.repeat(pooled, lengths, axis=0)) | np.isnan(rows)
        row_ids = np.where(hit, np.arange(len(rows))[:, None], len(rows))
        winners = np.minimum.reduceat(row_ids, np.cumsum(lengths) - lengths, axis=0)
        d_rows = np.zeros_like(rows)
        np.put_along_axis(d_rows, winners, d_pooled, axis=0)
        return d_rows
    if kind == "mean":
        d_pooled = d_pooled / lengths[:, None]
    return np.repeat(d_pooled, lengths, axis=0)


# ---------------------------------------------------------------------------
# loss


def sigmoid(z):
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) otherwise, so exp never
    overflows; both branches share e = exp(-|z|) and one division."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))  # -|z|, but a NaN keeps its own sign
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return out if out.ndim else float(out)


def bce_loss(p, y):
    """Binary cross-entropy with probabilities clamped away from {0, 1}."""
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(y, dtype=np.float64)
    val = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return float(val) if val.ndim == 0 else val


# ---------------------------------------------------------------------------
# classifier models


# config entries a checkpoint may omit, and what they default to
CONFIG_DEFAULTS = {"ds": {"pool": "sum"}, "bp": {"readout": "sum", "epsilon": 0.0}}
# the config entry naming each architecture's set pool, and its values
POOLS = {"ds": ("pool", ("sum", "mean")), "bp": ("readout", ("sum", "mean", "max"))}


@dataclass
class Model:
    """A classifier: its config and its layer stacks, named as in ``layer_table``.

    ``config`` holds arch, feature_dim and hidden_dim, then pool (ds) or
    readout and epsilon (bp); ``mlps`` maps names to ``MlpParams`` in
    parameter order. Raises ValueError on an unknown pool or readout
    (``layer_table`` rejects an unknown arch); layer shapes are not checked.
    """

    config: dict
    mlps: dict

    def __post_init__(self):
        key, allowed = POOLS[self.arch]
        if self.config[key] not in allowed:
            raise ValueError(f"unknown {self.arch} {key} {self.config[key]!r}; "
                             f"expected one of {', '.join(allowed)}")

    @property
    def arch(self):
        return self.config["arch"]

    def copy(self):
        """An independent copy: a new config dict and copies of every array."""
        return Model(dict(self.config), {
            name: MlpParams([w.copy() for w in mlp.weights], [b.copy() for b in mlp.biases],
                            list(mlp.activations))
            for name, mlp in self.mlps.items()})


def layer_table(config):
    """(name, widths, activations) of each layer stack of the config's arch.

    The one list of every architecture's layers, in parameter order, which
    is also the order in which their initial weights are drawn.
    """
    d, h = config["feature_dim"], config["hidden_dim"]
    tables = {
        "ds": [("sender_phi", [d, h, h], ["relu", "relu"]),
               ("sender_rho", [h, h], ["relu"]),
               ("receiver_phi", [d, h, h], ["relu", "relu"]),
               ("receiver_rho", [h, h], ["relu"]),
               ("trunk", [2 * h, h, h], ["relu", "relu"]),
               ("logit", [h, 1], ["identity"])],
        "bp": [("node_mlp", [d, h, h], ["relu", "relu"]),
               ("head", [h, h], ["relu"]),
               ("logit", [h, 1], ["identity"])],
    }
    if not isinstance(config["arch"], str) or config["arch"] not in tables:
        raise ValueError(f"unknown arch {config['arch']!r}")
    return tables[config["arch"]]


def _build(rng, config):
    return Model(config, {name: init_mlp(rng, dims, acts)
                          for name, dims, acts in layer_table(config)})


def build_ds_model(rng, feature_dim, hidden_dim=64, pool="sum"):
    return _build(rng, {"arch": "ds", "feature_dim": feature_dim,
                        "hidden_dim": hidden_dim, "pool": pool})


def build_bp_model(rng, feature_dim, hidden_dim=64, readout="sum", epsilon=0.0):
    return _build(rng, {"arch": "bp", "feature_dim": feature_dim,
                        "hidden_dim": hidden_dim, "readout": readout,
                        "epsilon": epsilon})


def batch_logits(model, xs, xr, ns, nr, cache=None):
    """Raw classifier outputs, before the sigmoid, for a batch of pairs.

    ``xs`` stacks the sender feature rows of every pair in batch order, pair
    i owning ``ns[i]`` consecutive rows; ``xr`` and ``nr`` do the same for
    the receivers. Every layer runs once over all rows (phi, node_mlp) or
    all pairs (rho, head, trunk, logit), and each set pool is a segment
    reduction, so a pair's logit does not depend on the rest of the batch
    up to floating-point summation order. A dict ``cache`` receives what
    ``batch_backward`` needs. Raises ValueError if a pair has an empty side.
    """
    ns = np.asarray(ns, dtype=np.int64)
    nr = np.asarray(nr, dtype=np.int64)
    if (ns < 1).any() or (nr < 1).any():
        raise ValueError("every pair needs nonempty sender and receiver sets")
    cfg = model.config
    saved = {"mlps": {name: [] for name in model.mlps}}
    run = lambda name, x: mlp_forward(model.mlps[name], x, saved["mlps"][name])
    if model.arch == "ds":
        embedded = []
        for side, x, lengths in (("sender", xs, ns), ("receiver", xr, nr)):
            u = run(f"{side}_phi", x)
            pooled = _segment_pool(cfg["pool"], u, lengths)
            saved[side] = (u, lengths, pooled)
            embedded.append(run(f"{side}_rho", pooled))
        out = run("logit", run("trunk", np.hstack(embedded)))[:, 0]
    else:
        # one GIN-style round: each receiver adds its pair's sender sum
        scale = 1.0 + cfg["epsilon"]
        s_sum = _segment_pool("sum", xs, ns)
        z_in = np.vstack([scale * xs, scale * xr + np.repeat(s_sum, nr, axis=0)])
        states = run("node_mlp", z_in)
        # regroup the rows pair by pair, each pair's senders before its receivers
        order = np.argsort(np.concatenate([np.repeat(np.arange(len(ns)), ns),
                                           np.repeat(np.arange(len(nr)), nr)]),
                           kind="stable")
        grouped = states[order]
        pooled = _segment_pool(cfg["readout"], grouped, ns + nr)
        saved["core"] = (order, grouped, ns + nr, pooled)
        out = run("logit", run("head", pooled))[:, 0]
    if cache is not None:
        cache.update(saved)
    return out


def encode_sides(model, xs, xr):
    """Per-side tables of a sender and a receiver feature-row set, for
    ``block_logits``. ds: each side's prefix sums of rho's pre-activation,
    ``[0; cumsum(phi(x))] @ W_rho.T``, an (n + 1, h) table whose row i is
    rho's linear map of the sum of phi over the first i rows. A linear map
    commutes with a sum, so a slice's sum pool, projected, is the
    difference of two rows, and rho's product runs once per side here
    instead of once per block. phi ends in a ReLU, so the sums of phi only
    grow, but projected rows can be negative: a difference's rounding
    error stays on the scale of machine epsilon times |W_rho| applied to
    the side's phi total, which bounds the sum of |W_rho phi| over its
    rows. bp: the raw rows, since a bp receiver's state depends on its
    pair's sender sum."""
    xs, xr = (np.asarray(x, dtype=np.float64) for x in (xs, xr))
    if model.arch == "bp":
        return xs, xr
    tables = []
    for side, x in (("sender", xs), ("receiver", xr)):
        u = mlp_forward(model.mlps[f"{side}_phi"], x)
        sums = np.zeros((len(u) + 1, u.shape[1]))
        np.cumsum(u, axis=0, out=sums[1:])
        tables.append(sums @ model.mlps[f"{side}_rho"].weights[0].T)
    return tuple(tables)


def block_logits(model, encoded, blocks):
    """Raw classifier outputs of candidate blocks over two fixed sides.

    ``encoded`` is ``encode_sides`` of the sides' feature rows; block i,
    ``(s_lo, s_hi, r_lo, r_hi)``, is the pair of sender rows
    ``s_lo:s_hi`` and receiver rows ``r_lo:r_hi``. ds: a slice's rho
    pre-activation is the difference of two rows of its side's table
    (divided by its length for ``mean``) plus rho's bias; both sides fill
    one (blocks, 2h) array, which takes rho's ReLU in place and goes
    through trunk and logit as in ``batch_logits``, so a block costs the
    same however many rows it holds. bp: each block's rows are gathered
    and go through ``batch_logits``. Either way a block scores as
    ``batch_logits`` scores its pair, up to rounding order. Raises
    ValueError unless every block holds a nonempty slice of each side.
    """
    b = np.asarray(blocks, dtype=np.int64).reshape(-1, 4)
    ds = model.arch == "ds"
    slices = ((encoded[0], b[:, 0], b[:, 1]), (encoded[1], b[:, 2], b[:, 3]))
    for table, lo, hi in slices:  # a ds table has a row more than its side
        if not ((0 <= lo) & (lo < hi) & (hi <= len(table) - ds)).all():
            raise ValueError("every block needs a nonempty slice of each side")
    if not ds:
        (us, ns), (ur, nr) = ((u[segment_rows(lo, hi)], hi - lo) for u, lo, hi in slices)
        return batch_logits(model, us, ur, ns, nr)
    k = encoded[0].shape[1]
    joint = np.empty((len(b), 2 * k))
    for half, (table, lo, hi), side in zip((joint[:, :k], joint[:, k:]), slices,
                                           ("sender", "receiver")):
        np.subtract(table[hi], table[lo], out=half)
        if model.config["pool"] == "mean":
            half /= (hi - lo)[:, None]
        half += model.mlps[f"{side}_rho"].biases[0]
    np.maximum(joint, 0.0, out=joint)
    return mlp_forward(model.mlps["logit"], mlp_forward(model.mlps["trunk"], joint))[:, 0]


def batch_backward(model, cache, d_logits):
    """Gradients, in parameters() order, of sum_i d_logits[i] * logit_i.

    ``cache`` comes from ``batch_logits`` on the same batch.
    """
    caches = cache["mlps"]
    grads = {}

    def back(name, d_out):
        grads[name], d_in = mlp_backward(model.mlps[name], caches[name], d_out)
        return d_in

    d_emb = back("logit", np.asarray(d_logits, dtype=np.float64)[:, None])
    if model.arch == "ds":
        d_joint = back("trunk", d_emb)
        k = model.mlps["sender_rho"].weights[-1].shape[0]
        for side, d_h in (("sender", d_joint[:, :k]), ("receiver", d_joint[:, k:])):
            u, lengths, pooled = cache[side]
            d_pooled = back(f"{side}_rho", d_h)
            back(f"{side}_phi", _segment_pool_backward(model.config["pool"], u, lengths,
                                                       pooled, d_pooled))
    else:
        order, grouped, lengths, pooled = cache["core"]
        d_pooled = back("head", d_emb)
        d_grouped = _segment_pool_backward(model.config["readout"], grouped, lengths,
                                           pooled, d_pooled)
        d_states = np.empty_like(d_grouped)
        d_states[order] = d_grouped
        back("node_mlp", d_states)
    flat = []
    for name in model.mlps:
        d_ws, d_bs = grads[name]
        for dw, db in zip(d_ws, d_bs):
            flat.extend([dw, db])
    return flat


def grid_logits(model, xs, xr, chunk):
    """(|S|, |R|) logits of every 1-1 link: entry (i, j) pairs sender row
    ``xs[i]`` with receiver row ``xr[j]``.

    ds: a one-row pool is the row itself, so phi and rho run once per side
    and the trunk's first layer splits into a sender and a receiver column
    block, ``W_s h_s + (W_r h_r + b)``, summed as an outer sum. bp: a
    receiver's state depends on its pair's sender sum, so each link runs
    through ``batch_logits`` as a unit-length pair. Either way the link
    grid goes through the rest of the network in blocks of whole sender
    rows, at most ``chunk`` links each (at least one row), so memory stays
    bounded. Raises ValueError on an empty side and ShapeError on a
    feature-dimension mismatch.
    """
    xs = np.asarray(xs, dtype=np.float64)
    xr = np.asarray(xr, dtype=np.float64)
    if not len(xs) or not len(xr):
        raise ValueError("every pair needs nonempty sender and receiver sets")
    for x in (xs, xr):
        if x.shape[1] != model.config["feature_dim"]:
            raise ShapeError(f"input dim {x.shape[1]} != expected {model.config['feature_dim']}")
    n_s, n_r = len(xs), len(xr)
    if model.arch == "ds":
        trunk = model.mlps["trunk"]
        k = model.mlps["sender_rho"].weights[-1].shape[0]
        h_s, h_r = (mlp_forward(model.mlps[f"{side}_rho"],
                                mlp_forward(model.mlps[f"{side}_phi"], x))
                    for side, x in (("sender", xs), ("receiver", xr)))
        z_s = h_s @ trunk.weights[0][:, :k].T
        z_r = h_r @ trunk.weights[0][:, k:].T + trunk.biases[0]
        rest = MlpParams(trunk.weights[1:], trunk.biases[1:], trunk.activations[1:])

        def block(lo, hi):
            a = z_s[lo:hi, None] + z_r[None]
            np.maximum(a, 0.0, out=a)  # the first trunk layer's ReLU
            return mlp_forward(model.mlps["logit"],
                               mlp_forward(rest, a.reshape(-1, a.shape[-1])))[:, 0]
    else:
        def block(lo, hi):
            ones = np.ones((hi - lo) * n_r, dtype=np.int64)
            return batch_logits(model, xs[np.repeat(np.arange(lo, hi), n_r)],
                                xr[np.tile(np.arange(n_r), hi - lo)], ones, ones)
    out = np.empty((n_s, n_r))
    rows = max(1, chunk // n_r)
    for lo in range(0, n_s, rows):
        hi = min(lo + rows, n_s)
        out[lo:hi] = block(lo, hi).reshape(hi - lo, n_r)
    return out


def forward_logit(model, sender_feats, receiver_feats):
    """Raw classifier output for one pair of feature-row sets. No program
    code calls it; ``bench/layers.py`` traces it, which keeps it alive."""
    xs = np.atleast_2d(np.asarray(sender_feats, dtype=np.float64))
    xr = np.atleast_2d(np.asarray(receiver_feats, dtype=np.float64))
    return float(batch_logits(model, xs, xr, [len(xs)], [len(xr)])[0])


def parameters(model):
    """Live parameter arrays in canonical order."""
    out = []
    for mlp in model.mlps.values():
        for w, b in zip(mlp.weights, mlp.biases):
            out.extend([w, b])
    return out


def backward(model, xs, xr, ns, nr, y, pos_weight=1.0):
    """Mean-BCE loss and its exact gradients over a batch of pairs.

    ``xs``, ``xr``, ``ns`` and ``nr`` stack the batch as ``batch_logits``
    takes it, and ``y`` holds the pairs' labels; one ``batch_logits``/
    ``batch_backward`` pass covers all of them, so results are bitwise
    reproducible. Returns (loss, grads) with grads in parameters() order.
    """
    y = np.asarray(y, dtype=np.float64)
    cache = {}
    p = sigmoid(batch_logits(model, xs, xr, ns, nr, cache))
    w = np.where(y == 1, pos_weight, 1.0)
    loss = float(np.sum(w * bce_loss(p, y)))
    d_logits = w * (np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP) - y) / len(y)
    return loss / len(y), batch_backward(model, cache, d_logits)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: list
    v: list
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Zero first and second moments shaped like ``params``, as float64 views
    of one zeroed buffer (one allocation, not one per array)."""
    buffer = np.zeros(2 * sum(p.size for p in params))
    moments, start = [], 0
    for p in list(params) * 2:
        moments.append(buffer[start:start + p.size].reshape(p.shape))
        start += p.size
    return AdamState(m=moments[:len(params)], v=moments[len(params):],
                     lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, params, grads):
    """Bias-corrected Adam update of ``params`` in place.

    The moments and parameters are updated in place, with the operations of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``p = p - (lr*m_hat) / (sqrt(v_hat) + eps)`` in that order, so every bit
    equals that out-of-place form's.
    """
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        step = m / (1 - b1**t)
        step *= state.lr
        denom = v / (1 - b2**t)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        p -= step


# ---------------------------------------------------------------------------
# checkpoints


def model_to_checkpoint(model) -> dict:
    weights = {}
    for name, mlp in model.mlps.items():
        for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            weights[f"{name}.w{i}"] = w.ravel().tolist()
            weights[f"{name}.b{i}"] = b.ravel().tolist()
    return {
        "version": CHECKPOINT_VERSION,
        "arch": model.arch,
        "config": dict(model.config),
        "weights": weights,
    }


def checkpoint_to_model(ckpt: dict):
    """The model a checkpoint dict records. Raises ValueError on a checkpoint,
    config or weights that is not an object, an unsupported version, a missing
    entry, a weight entry holding null, NaN or Infinity, a feature_dim or
    hidden_dim that is not a positive integer, or an unknown arch, pool or
    readout."""
    if not isinstance(ckpt, dict):
        raise ValueError(f"checkpoint must be a JSON object, got {type(ckpt).__name__}")
    if ckpt.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {ckpt.get('version')!r}")
    for key in ("config", "weights"):
        if not isinstance(ckpt.get(key, {}), dict):
            raise ValueError(f"checkpoint {key} must be a JSON object")
    try:
        config = {**ckpt["config"], "arch": ckpt["arch"]}
        weights = ckpt["weights"]
        for key in ("feature_dim", "hidden_dim"):
            if not (isinstance(config[key], int) and config[key] >= 1):
                raise ValueError(f"checkpoint {key} must be a positive integer, "
                                 f"got {config[key]!r}")

        def entry(key, *shape):
            values = np.asarray(weights[key], dtype=np.float64).reshape(shape)
            if not np.isfinite(values).all():
                raise ValueError(f"checkpoint entry {key!r} holds a non-finite value")
            return values

        mlps = {}
        for name, dims, acts in layer_table(config):
            mlps[name] = MlpParams(
                weights=[entry(f"{name}.w{i}", fan_out, fan_in)
                         for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:]))],
                biases=[entry(f"{name}.b{i}", fan_out) for i, fan_out in enumerate(dims[1:])],
                activations=acts,
            )
    except KeyError as exc:
        raise ValueError(f"checkpoint lacks the entry {exc.args[0]!r}") from None
    for key, value in CONFIG_DEFAULTS[config["arch"]].items():
        config.setdefault(key, value)
    return Model(config, mlps)


def save_checkpoint(path, model):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_checkpoint(model), fh)
        fh.write("\n")


def load_checkpoint(path):
    with open(path, encoding="utf-8") as fh:
        return checkpoint_to_model(json.load(fh))


def assert_finite(model):
    if not np.isfinite(np.concatenate(parameters(model), axis=None)).all():
        raise FloatingPointError("non-finite value in model parameters")
