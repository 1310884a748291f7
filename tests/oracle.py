"""Plain-numpy float64 reference of the model, written from its description
with no tape and nothing from trajlm, so the model's ops are checked
against code they do not share.  So far it covers one pre-norm layer and
the next-token loss."""

import math

import numpy as np

_erf = np.vectorize(math.erf)


def layer_norm(x, gain, bias, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gain + bias


def gelu(x):
    """The exact GELU, x Phi(x)."""
    return 0.5 * x * (1.0 + _erf(x / math.sqrt(2.0)))


def prenorm_layer(h, p, mask, n_heads, attn_keep=None, out_keep=None, ffn_keep=None):
    """One pre-norm transformer layer over h (T, d).

    p holds the layer's arrays under `model.param_manifest`'s names without
    the layer prefix: ln1_g, ln1_b, w_q, w_k, w_v, w_vx0, w_vx1, ..., gates
    (extras, heads), w_o, ln2_g, ln2_b, w_ff1, b_ff1, w_ff2 and b_ff2.  Each
    head's values are v plus gates[e, head] times value extra e; attention
    scores are scaled by 1/sqrt(d_head) and masked where mask (T, T) is
    False.  The *_keep arrays are inverted-dropout multipliers: per head on
    the attention probabilities (heads, T, T), on the output projection's
    output, and on the FFN's output (T, d); None is no dropout.
    """
    d_head = p["w_q"].shape[1] // n_heads
    extras = sorted(name for name in p if name.startswith("w_vx"))
    x = layer_norm(h, p["ln1_g"], p["ln1_b"])
    ctx = np.empty((h.shape[0], n_heads * d_head))
    for head in range(n_heads):
        cols = slice(head * d_head, (head + 1) * d_head)
        q, k, v = (x @ p[name][:, cols] for name in ("w_q", "w_k", "w_v"))
        for e, name in enumerate(extras):
            v = v + p["gates"][e, head] * (x @ p[name][:, cols])
        scores = np.where(mask, q @ k.T / math.sqrt(d_head), -np.inf)
        probs = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = probs / probs.sum(axis=1, keepdims=True)
        if attn_keep is not None:
            probs = probs * attn_keep[head]
        ctx[:, cols] = probs @ v
    attn = ctx @ p["w_o"]
    if out_keep is not None:
        attn = attn * out_keep
    h = h + attn
    ff = gelu(layer_norm(h, p["ln2_g"], p["ln2_b"]) @ p["w_ff1"] + p["b_ff1"]) @ p["w_ff2"] + p["b_ff2"]
    if ffn_keep is not None:
        ff = ff * ffn_keep
    return h + ff


def soft_ce_mae(logits, targets):
    """The mean soft cross-entropy and the mean weighted MAE of next-token
    targets, each scored over its own modality's token range.

    `targets` holds one (row, start, width, soft, mids, truth, weight) per
    target: row `row` of logits (T, V) predicts a token in [start, start +
    width), soft is the target distribution over that range, and mids (the
    range's bin midpoints), truth and weight (1 / the modality's standard
    deviation) belong to a continuous target; mids is None for a
    categorical one.  MAE is 0 without a continuous target.
    """
    ce, dev, n_mae = 0.0, 0.0, 0
    for row, start, width, soft, mids, truth, weight in targets:
        z = logits[row, start : start + width]
        z = z - z.max()
        logp = z - math.log(np.exp(z).sum())
        ce -= float(np.dot(soft, logp))
        if mids is not None:
            dev += weight * abs(float(np.dot(np.exp(logp), mids)) - truth)
            n_mae += 1
    return ce / len(targets), dev / n_mae if n_mae else 0.0
