"""Decoder-only transformer over measurement-stream tokens.

Six additive embedding components feed a pre-norm attention/FFN stack whose
attention heads carry gated auxiliary value projections.  After the last
layer, the next position's modality and time embeddings are injected through
small MLPs so a single context can answer arbitrary queries; output logits are
bounded by a smooth tanh clamp.  Each stage is one tape node (numerics'
`embed_block`, `attention_block` and `ffn_block` per layer, `query_block`,
`range_head`), so a forward pass records 2 * n_layers + 3 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import numerics as nm
from .corpus import TEMPORAL_VOCAB_SIZES, SEX_INDEX
from .numerics import Tensor
from .vocab import CONTINUOUS, Checked, Must, Vocabulary, declared

__all__ = [
    "ModelConfig",
    "Causal",
    "SplitContext",
    "ParallelV2",
    "build_mask",
    "param_manifest",
    "init_params",
    "param_count",
    "value_scale_table",
    "embed_inputs",
    "forward",
]


_EVEN = ("even", Must.each(lambda x: x % 2 == 0))
_TABLE_SIZES = (
    f"7 table sizes, each at least {TEMPORAL_VOCAB_SIZES}",
    Must.each(lambda sizes: len(sizes) == 7 and all(s >= need for s, need in zip(sizes, TEMPORAL_VOCAB_SIZES))),
)


@dataclass
class ModelConfig(Checked):
    vocab_size: int = declared(Must.positive, key=None)
    n_modalities: int = declared(Must.positive, key=None)
    d_model: int = declared(Must.positive, _EVEN, key="n_embd", default=768)
    n_layers: int = declared(Must.positive, default=14)
    n_heads: int = declared(Must.positive, default=2)
    d_head: int = declared(Must.positive, default=64)
    n_value_extras: int = declared(Must.non_negative, default=2)
    dropout: float = declared(Must.fraction, default=0.2)
    logit_clamp: float = declared(Must.finite_positive, default=50.0)
    cont_pe_dim: int = declared(Must.positive, _EVEN, key="continuous_pe_base_dim", default=512)
    max_seq_len: int = declared(Must.positive, key="max_seq_length", default=25_000)
    temporal_vocab_sizes: list[int] = declared(_TABLE_SIZES, key=None, factory=lambda: list(TEMPORAL_VOCAB_SIZES))

    @property
    def d_ff(self) -> int:
        return 4 * self.d_model

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


# --- attention masks ----------------------------------------------------------


@dataclass(frozen=True)
class Causal:
    pass


@dataclass(frozen=True)
class SplitContext:
    boundary: int


@dataclass(frozen=True)
class ParallelV2:
    """A causal context of n_ctx positions followed by n_targets probe/
    prediction slot pairs.

    ctx_lens, when given, holds one context length per target: target i's
    prediction slot then attends to the first ctx_lens[i] context positions
    only, so queries on nested prefixes of one context share a pass.
    """

    n_ctx: int
    n_targets: int
    ctx_lens: tuple[int, ...] | None = None


def build_mask(kind, t: int) -> np.ndarray:
    """Boolean T x T attention mask; row = query, column = key."""
    if isinstance(kind, Causal):
        return np.tril(np.ones((t, t), dtype=bool))
    if isinstance(kind, SplitContext):
        b = kind.boundary
        if b > t:
            raise ValueError(f"split boundary {b} exceeds length {t}")
        mask = np.tril(np.ones((t, t), dtype=bool))
        mask[:, :b] = True
        return mask
    if isinstance(kind, ParallelV2):
        n, k = kind.n_ctx, kind.n_targets
        if t != n + 2 * k:
            raise ValueError(f"parallel mask needs length {n + 2 * k}, got {t}")
        lens = (n,) * k if kind.ctx_lens is None else kind.ctx_lens
        if len(lens) != k or not all(0 < m <= n for m in lens):
            raise ValueError(f"parallel mask needs {k} context lengths in [1, {n}], got {lens}")
        mask = np.zeros((t, t), dtype=bool)
        mask[:n, :n] = np.tril(np.ones((n, n), dtype=bool))
        for i, m in enumerate(lens):
            f = n + 2 * i
            p = f + 1
            mask[f, f] = True
            mask[p, :m] = True
            mask[p, f] = True
            mask[p, p] = True
        return mask
    raise TypeError(f"unknown mask kind: {kind!r}")


# --- parameters ---------------------------------------------------------------


def param_manifest(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Stable (name, shape) listing of every learnable array."""
    c = config
    hd = c.n_heads * c.d_head
    out: list[tuple[str, tuple[int, ...]]] = [
        ("tok_embed", (c.vocab_size + 1, c.d_model)),
        ("cont_proj", (c.cont_pe_dim, c.d_model)),
        ("mod_embed", (c.n_modalities + 1, c.d_model)),
    ]
    for d, size in enumerate(c.temporal_vocab_sizes):
        out.append((f"time_embed_{d}", (size, c.d_model)))
    out += [
        ("age_proj", (c.cont_pe_dim, c.d_model)),
        ("sex_embed", (3, c.d_model)),
    ]
    for l in range(c.n_layers):
        out += [
            (f"layer{l}.ln1_g", (c.d_model,)),
            (f"layer{l}.ln1_b", (c.d_model,)),
            (f"layer{l}.w_q", (c.d_model, hd)),
            (f"layer{l}.w_k", (c.d_model, hd)),
            (f"layer{l}.w_v", (c.d_model, hd)),
        ]
        for e in range(c.n_value_extras):
            out.append((f"layer{l}.w_vx{e}", (c.d_model, hd)))
        out += [
            (f"layer{l}.gates", (max(c.n_value_extras, 1), c.n_heads)),
            (f"layer{l}.w_o", (hd, c.d_model)),
            (f"layer{l}.ln2_g", (c.d_model,)),
            (f"layer{l}.ln2_b", (c.d_model,)),
            (f"layer{l}.w_ff1", (c.d_model, c.d_ff)),
            (f"layer{l}.b_ff1", (c.d_ff,)),
            (f"layer{l}.w_ff2", (c.d_ff, c.d_model)),
            (f"layer{l}.b_ff2", (c.d_model,)),
        ]
    out += [
        ("qmod_w1", (c.d_model, c.d_model)),
        ("qmod_b1", (c.d_model,)),
        ("qmod_w2", (c.d_model, c.d_model)),
        ("qmod_b2", (c.d_model,)),
        ("qtime_w1", (c.d_model, c.d_model)),
        ("qtime_b1", (c.d_model,)),
        ("qtime_w2", (c.d_model, c.d_model)),
        ("qtime_b2", (c.d_model,)),
        ("out_w", (c.d_model, c.vocab_size)),
        ("out_b", (c.vocab_size,)),
    ]
    return out


def param_count(config: ModelConfig) -> int:
    return sum(int(np.prod(s)) for _, s in param_manifest(config))


_ZERO_INIT_SUFFIXES = ("_b", ".gates", "qmod_w2", "qmod_b2", "qtime_w2", "qtime_b2")


def _init_array(name: str, out: np.ndarray, rng: np.random.Generator) -> None:
    """Fill one zero-initialised parameter in place."""
    if name.endswith("ln1_g") or name.endswith("ln2_g"):
        out.fill(1.0)
    elif not (name.endswith(_ZERO_INIT_SUFFIXES) or name.endswith("out_b")):
        out[...] = rng.normal(0.0, 0.02, size=out.shape)


def init_params(config: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    """Fresh parameters, views of one flat vector (numerics.ParamStore);
    query-MLP output layers and gates start at zero so query injection and
    value extras begin as identities."""
    shapes = dict(param_manifest(config))
    params = nm.ParamStore(shapes, np.zeros(param_count(config), dtype)).params
    for name, p in params.items():
        _init_array(name, p.data, rng)
    return params


def value_scale_table(vocab: Vocabulary) -> np.ndarray:
    """Per-modality scale for the continuous value encoder (1.0 for categorical/pad)."""
    scales = np.ones(vocab.n_modalities + 1, dtype=np.float64)
    for m in vocab.modalities:
        if m.kind == CONTINUOUS and m.train_sd > 0:
            scales[m.id] = m.train_sd
    return scales


# --- forward pass ---------------------------------------------------------------


def embed_inputs(
    params: dict[str, Tensor],
    config: ModelConfig,
    tokens: np.ndarray,
    values: np.ndarray,
    modalities: np.ndarray,
    times: np.ndarray,
    age: float,
    sex: str,
    value_scales: np.ndarray,
    pos_ids: np.ndarray | None = None,
) -> Tensor:
    """Sum the six per-position embedding components into H0 (T x d_model)
    in one tape node (numerics.embed_block)."""
    t = len(tokens)
    dtype = params["tok_embed"].dtype
    if pos_ids is None:
        pos_ids = np.arange(t)
    scaled = np.asarray(values, dtype=np.float64) / value_scales[np.asarray(modalities[:t])]
    tables = [params["tok_embed"], params["mod_embed"], *(params[f"time_embed_{d}"] for d in range(7))]
    return nm.embed_block(
        tables, np.column_stack([tokens, modalities[:t], times[:t]]),
        scaled, params["cont_proj"],
        nm.sinusoid_features(pos_ids, config.d_model, dtype),
        nm.sinusoid_features(np.array([age]), config.cont_pe_dim, dtype), params["age_proj"],
        params["sex_embed"], SEX_INDEX[sex],
    )


def forward(
    params: dict[str, Tensor],
    config: ModelConfig,
    tokens: np.ndarray,
    values: np.ndarray,
    modalities: np.ndarray,
    times: np.ndarray,
    age: float,
    sex: str,
    mask: np.ndarray,
    value_scales: np.ndarray,
    query_modalities: np.ndarray | None = None,
    query_times: np.ndarray | None = None,
    pos_ids: np.ndarray | None = None,
    dropout_rng: np.random.Generator | None = None,
    head: tuple | None = None,
):
    """Run the full stack; logits[p] answers the query at stream slot p+1.

    modalities/times must be one entry longer than tokens; explicit
    query_modalities/query_times (length T) override that +1 alignment for
    evaluation modes that pack several independent queries into one pass.
    head=(rows, starts, widths) returns only those output-head entries:
    row i holds logits[rows[i], starts[i] : starts[i] + widths[i]], padded
    with 0 to the widest range (numerics.range_head; starts/widths None mean
    every column).  The default, every row at full width (T, V), serves only
    as the tests' reference.
    """
    t = len(tokens)
    if t == 0:
        raise ValueError("forward needs at least one token; the sequence is empty")
    if len(values) != t:
        raise ValueError(f"length mismatch between streams: {t} tokens vs {len(values)} values")
    if len(modalities) != t + 1 or len(times) != t + 1:
        raise ValueError(
            f"modalities/times must be one longer than tokens ({t + 1}), got "
            f"{len(modalities)}/{len(times)}"
        )
    if mask.shape != (t, t):
        raise ValueError(f"mask shape {mask.shape} does not match length {t}")

    c = config
    rate = c.dropout if dropout_rng is not None else 0.0

    h = embed_inputs(params, c, tokens, values, modalities, times, age, sex, value_scales, pos_ids)
    scale = 1.0 / math.sqrt(c.d_head)  # a Python float: keeps float32 scores float32

    for l in range(c.n_layers):
        p = f"layer{l}."
        projections = [params[p + n] for n in ("w_q", "w_k", "w_v", *(f"w_vx{e}" for e in range(c.n_value_extras)))]
        h = nm.attention_block(
            h, params[p + "ln1_g"], params[p + "ln1_b"], projections, params[p + "gates"], params[p + "w_o"],
            mask, c.n_heads, scale, rate, dropout_rng,
        )
        ffn = (params[p + n] for n in ("ln2_g", "ln2_b", "w_ff1", "b_ff1", "w_ff2", "b_ff2"))
        h = nm.ffn_block(h, *ffn, rate, dropout_rng)

    q_mods = np.asarray(modalities[1:]) if query_modalities is None else np.asarray(query_modalities)
    q_times = np.asarray(times[1:]) if query_times is None else np.asarray(query_times)
    if len(q_mods) != t or len(q_times) != t:
        raise ValueError("query streams must have one entry per token position")

    tables = [params["mod_embed"], *(params[f"time_embed_{d}"] for d in range(7))]
    mlps = [[params[f"{prefix}_{n}"] for n in ("w1", "b1", "w2", "b2")] for prefix in ("qmod", "qtime")]
    h = nm.query_block(h, tables, np.column_stack([q_mods, q_times]), *mlps)

    return nm.range_head(h, params["out_w"], params["out_b"], c.logit_clamp, *(head or (np.arange(t),)))
