"""Plain-numpy float64 reference of the model, written from its description
with no tape and nothing from trajlm, so the model's ops are checked
against code they do not share.  It covers the whole forward pass (the
six-component embedding, the pre-norm layers, the query injection and the
clamped head) and the next-token loss."""

import math

import numpy as np

def layer_norm(x, gain, bias, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gain + bias


def gelu(x):
    """GELU by its tanh approximation (Hendrycks & Gimpel 2016), the form
    the model runs in every precision."""
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


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


def sinusoid(values, dim):
    """Fixed features of scalar values over dim channels: channel 2i is
    sin(v / 10000^(2i / dim)) and channel 2i + 1 its cosine."""
    values = np.asarray(values, dtype=float)
    out = np.empty((len(values), dim))
    for i in range(dim // 2):
        angle = values / 10000.0 ** (2 * i / dim)
        out[:, 2 * i] = np.sin(angle)
        out[:, 2 * i + 1] = np.cos(angle)
    return out


def embedding(p, tokens, values, modalities, times, positions, age, sex_id, value_scales):
    """H0 (T, d), the sum of six components per position: the token's
    embedding; the sinusoid features of its value divided by its modality's
    scale, projected by cont_proj; its modality's embedding; the embeddings
    of its seven time features (times (T, 7)), one table each; the sinusoid
    features of its position over d channels; and one demographic row, the
    sinusoid features of age projected by age_proj plus the sex embedding."""
    cont_dim, d = p["cont_proj"].shape
    h = p["tok_embed"][tokens]
    h = h + sinusoid(values / value_scales[modalities], cont_dim) @ p["cont_proj"]
    h = h + p["mod_embed"][modalities]
    for k in range(7):
        h = h + p[f"time_embed_{k}"][times[:, k]]
    h = h + sinusoid(positions, d)
    return h + (sinusoid([age], cont_dim) @ p["age_proj"] + p["sex_embed"][sex_id])


def query_injection(h, p, modalities, times):
    """The last layer's output plus two MLPs (linear, GELU, linear),
    one over the queried modality's embedding (the qmod_* weights) and one
    over the sum of the queried time's seven embeddings (qtime_*)."""

    def mlp(x, name):
        return gelu(x @ p[f"{name}_w1"] + p[f"{name}_b1"]) @ p[f"{name}_w2"] + p[f"{name}_b2"]

    time = sum(p[f"time_embed_{k}"][times[:, k]] for k in range(7))
    return h + mlp(p["mod_embed"][modalities], "qmod") + mlp(time, "qtime")


def clamped_head(h, p, clamp):
    """Logits (T, V): C tanh(z / C) of the output projection z = h out_w + out_b."""
    return clamp * np.tanh((h @ p["out_w"] + p["out_b"]) / clamp)


def forward(p, n_heads, clamp, tokens, values, modalities, times, age, sex_id, value_scales, mask,
            query_modalities=None, query_times=None, positions=None):
    """Full-head logits (T, V) of the model with parameters p, held under
    `model.param_manifest`'s names, and no dropout.  modalities and times
    have T + 1 entries: position i is embedded with entry i and queries
    entry i + 1, unless query_modalities and query_times (T entries) name
    the queries.  positions defaults to 0 .. T - 1."""
    t = len(tokens)
    positions = np.arange(t) if positions is None else positions
    h = embedding(p, tokens, values, modalities[:t], times[:t], positions, age, sex_id, value_scales)
    l = 0
    while f"layer{l}.ln1_g" in p:
        prefix = f"layer{l}."
        h = prenorm_layer(h, {k[len(prefix):]: v for k, v in p.items() if k.startswith(prefix)}, mask, n_heads)
        l += 1
    q_mods = modalities[1:] if query_modalities is None else query_modalities
    q_times = times[1:] if query_times is None else query_times
    return clamped_head(query_injection(h, p, q_mods, q_times), p, clamp)


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
