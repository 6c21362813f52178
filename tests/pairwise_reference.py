"""Per-pair reference for the batched neural kernel.

The pair-at-a-time forward and reverse passes the classifier used before
``neural_core.batch_logits``: each pair is encoded on its own, each pool is
a plain ``sum``/``mean``/``max`` over the set's rows, and ``backward``
accumulates gradients pair by pair. ``tests/test_neural_core.py`` checks the
kernel against it.
"""

import numpy as np

from revtrack import neural_core as nc


def _pool(kind, rows):
    if kind == "sum":
        return rows.sum(axis=0)
    if kind == "mean":
        return rows.mean(axis=0)
    raise ValueError(f"unknown pool {kind!r}")


def deepsets_embed(model, side, elements, cache=None):
    """rho(pool(phi(e) for e in elements)) of one side's encoder; invariant
    to element order."""
    phi, rho = model.mlps[f"{side}_phi"], model.mlps[f"{side}_rho"]
    x = np.atleast_2d(np.asarray(elements, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("deepsets_embed requires a nonempty element set")
    phi_cache = [] if cache is not None else None
    u = nc.mlp_forward(phi, x, phi_cache)
    pooled = _pool(model.config["pool"], u)
    rho_cache = [] if cache is not None else None
    out = nc.mlp_forward(rho, pooled, rho_cache)
    if cache is not None:
        cache["phi"] = phi_cache
        cache["rho"] = rho_cache
        cache["n"] = x.shape[0]
    return out


def deepsets_backward(model, side, cache, d_out):
    rho_grads, d_pooled = nc.mlp_backward(model.mlps[f"{side}_rho"], cache["rho"], d_out)
    n = cache["n"]
    d_u = np.repeat(np.atleast_2d(d_pooled), n, axis=0)
    if model.config["pool"] == "mean":
        d_u = d_u / n
    phi_grads, _ = nc.mlp_backward(model.mlps[f"{side}_phi"], cache["phi"], d_u)
    return phi_grads, rho_grads


def bipartite_embed(model, senders, receivers, cache=None):
    epsilon, readout = model.config["epsilon"], model.config["readout"]
    xs = np.atleast_2d(np.asarray(senders, dtype=np.float64))
    xr = np.atleast_2d(np.asarray(receivers, dtype=np.float64))
    if xs.shape[0] == 0 or xr.shape[0] == 0:
        raise ValueError("bipartite_embed requires nonempty sender and receiver sets")
    s_sum = xs.sum(axis=0)
    z_in = np.vstack([(1.0 + epsilon) * xs, (1.0 + epsilon) * xr + s_sum])
    mlp_cache = [] if cache is not None else None
    states = nc.mlp_forward(model.mlps["node_mlp"], z_in, mlp_cache)
    if readout == "sum":
        pooled = states.sum(axis=0)
    elif readout == "mean":
        pooled = states.mean(axis=0)
    elif readout == "max":
        pooled = states.max(axis=0)
    else:
        raise ValueError(f"unknown readout {readout!r}")
    head_cache = [] if cache is not None else None
    out = nc.mlp_forward(model.mlps["head"], pooled, head_cache)
    if cache is not None:
        cache["node_mlp"] = mlp_cache
        cache["head"] = head_cache
        cache["states"] = states
        cache["counts"] = (xs.shape[0], xr.shape[0])
    return out


def bipartite_backward(model, cache, d_out):
    readout = model.config["readout"]
    head_grads, d_pooled = nc.mlp_backward(model.mlps["head"], cache["head"], d_out)
    states = cache["states"]
    n_total = states.shape[0]
    d_pooled = np.atleast_2d(d_pooled)
    if readout == "sum":
        d_states = np.repeat(d_pooled, n_total, axis=0)
    elif readout == "mean":
        d_states = np.repeat(d_pooled, n_total, axis=0) / n_total
    else:  # max: route each component to its argmax row
        d_states = np.zeros_like(states)
        winners = states.argmax(axis=0)
        d_states[winners, np.arange(states.shape[1])] = d_pooled[0]
    mlp_grads, _ = nc.mlp_backward(model.mlps["node_mlp"], cache["node_mlp"], d_states)
    return mlp_grads, head_grads


def forward_logit(model, sender_feats, receiver_feats, cache=None):
    """Raw classifier output before the sigmoid."""
    if model.arch == "ds":
        c_s = {} if cache is not None else None
        c_r = {} if cache is not None else None
        h_s = deepsets_embed(model, "sender", sender_feats, c_s)
        h_r = deepsets_embed(model, "receiver", receiver_feats, c_r)
        joint = np.concatenate([h_s, h_r])
        trunk_cache = [] if cache is not None else None
        h_pair = nc.mlp_forward(model.mlps["trunk"], joint, trunk_cache)
        logit_cache = [] if cache is not None else None
        out = nc.mlp_forward(model.mlps["logit"], h_pair, logit_cache)
        if cache is not None:
            cache.update(
                sender=c_s, receiver=c_r, trunk=trunk_cache, logit=logit_cache,
                split=h_s.shape[0],
            )
        return float(out[0])
    c_core = {} if cache is not None else None
    emb = bipartite_embed(model, sender_feats, receiver_feats, c_core)
    logit_cache = [] if cache is not None else None
    out = nc.mlp_forward(model.mlps["logit"], emb, logit_cache)
    if cache is not None:
        cache.update(core=c_core, logit=logit_cache)
    return float(out[0])


def score_pair(model, sender_feats, receiver_feats):
    return float(nc.sigmoid(forward_logit(model, sender_feats, receiver_feats)))


def _backward_one(model, cache, d_logit):
    """Gradient lists in parameters() order for one pair."""
    if model.arch == "ds":
        grads = {}
        (d_ws, d_bs), d_hpair = nc.mlp_backward(model.mlps["logit"], cache["logit"],
                                                np.array([d_logit]))
        grads["logit"] = (d_ws, d_bs)
        trunk_grads, d_joint = nc.mlp_backward(model.mlps["trunk"], cache["trunk"], d_hpair)
        grads["trunk"] = trunk_grads
        k = cache["split"]
        d_hs, d_hr = d_joint[0, :k], d_joint[0, k:]
        s_phi, s_rho = deepsets_backward(model, "sender", cache["sender"], d_hs)
        r_phi, r_rho = deepsets_backward(model, "receiver", cache["receiver"], d_hr)
        grads["sender_phi"] = s_phi
        grads["sender_rho"] = s_rho
        grads["receiver_phi"] = r_phi
        grads["receiver_rho"] = r_rho
    else:
        grads = {}
        (d_ws, d_bs), d_emb = nc.mlp_backward(model.mlps["logit"], cache["logit"],
                                              np.array([d_logit]))
        grads["logit"] = (d_ws, d_bs)
        mlp_grads, head_grads = bipartite_backward(model, cache["core"], d_emb)
        grads["node_mlp"] = mlp_grads
        grads["head"] = head_grads
    flat = []
    for name in model.mlps:
        d_ws, d_bs = grads[name]
        for dw, db in zip(d_ws, d_bs):
            flat.extend([dw, db])
    return flat


def backward(model, batch, pos_weight=1.0):
    """Mean-BCE loss and its exact gradients over a batch.

    ``batch`` is a list of (sender_feats, receiver_feats, label) triples.
    Gradients are accumulated in batch-index order so results are bitwise
    reproducible. Returns (loss, grads) with grads in parameters() order.
    """
    n = len(batch)
    totals = [np.zeros_like(p) for p in nc.parameters(model)]
    loss = 0.0
    for xs, xr, y in batch:
        cache = {}
        z = forward_logit(model, xs, xr, cache)
        p = nc.sigmoid(z)
        w = pos_weight if y == 1 else 1.0
        loss += w * nc.bce_loss(p, y)
        pc = min(max(p, nc.PROB_CLAMP), 1.0 - nc.PROB_CLAMP)
        d_logit = w * (pc - y) / n
        for acc, g in zip(totals, _backward_one(model, cache, d_logit)):
            acc += g
    return loss / n, totals
