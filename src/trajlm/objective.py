"""Training objective, optimizer, schedule, and the training loop.

The loss has three parts: Gaussian-smoothed cross-entropy over the target
modality's bin range, a z-normalized MAE between the expected decoded value
and the true value, and the same smoothed cross-entropy recomputed under the
split-context mask so future-visit positions are predicted from the full
first-visit history.  Each pass's weighted terms are one tape node
(`numerics.ntp_loss`), so a sequence's loss is the causal pass's node
(cross-entropy and MAE) plus, for a sequence with a visit boundary, the split
pass's node (cross-entropy only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .checkpoint import save_checkpoint
from .corpus import AugmentConfig, TokenSequence, assemble_sequence, augment
from .model import Causal, ModelConfig, SplitContext, forward, build_mask, init_params, value_scale_table
from .numerics import Tensor, backward
from .vocab import CONTINUOUS, Checked, InputError, Must, Vocabulary, declared

__all__ = [
    "LossConfig",
    "TrainConfig",
    "OptimizerState",
    "TrainingDiverged",
    "soft_target",
    "NTPTargets",
    "ntp_targets",
    "sequence_loss",
    "lr_at",
    "clip_gradients",
    "adamw_step",
    "train",
    "parse_config_file",
]


@dataclass
class LossConfig(Checked):
    sl_sigma: float = declared(Must.finite_positive, key="SL_sigma", default=0.01)
    soft_scale: float = declared(Must.finite_non_negative, key="soft_labels_scale", default=1.0)
    mae_scale: float = declared(Must.finite_non_negative, key="mae_loss_scale", default=1.0)
    split_scale: float = declared(Must.finite_non_negative, key="split_loss_scale", default=1.0)


@dataclass
class TrainConfig(Checked):
    epochs: int = declared(Must.at_least_1, default=18)
    batch_size: int = declared(Must.at_least_1, default=1)
    peak_lr: float = declared(Must.positive, Must.finite, key="lr", default=3e-4)
    min_lr: float = declared(Must.non_negative, Must.finite, default=3e-5)
    warmup_steps: int = declared(Must.non_negative, default=100)
    beta1: float = declared(Must.fraction, key="b1", default=0.9)
    beta2: float = declared(Must.fraction, key="b2", default=0.999)
    eps: float = declared(Must.positive, Must.finite, default=1e-8)
    weight_decay: float = declared(Must.non_negative, Must.finite, default=0.0)
    clip_norm: float = declared(Must.non_negative, key="grad_clip", default=0.1)
    seed: int = declared(Must.non_negative, default=42)
    val_fraction: float = declared(Must.fraction, default=0.2)


class TrainingDiverged(RuntimeError):
    pass


def soft_target(a: int, b: int, k: int, sigma: float) -> np.ndarray:
    """Gaussian-smoothed target distribution over bin range [a, b], centred on k."""
    if not a <= k <= b:
        raise ValueError(f"target bin {k} outside range [{a}, {b}]")
    i = np.arange(a, b + 1, dtype=np.float64)
    q = np.exp(-((i - k) ** 2) / (2.0 * sigma * sigma))
    return q / q.sum()


@dataclass(frozen=True)
class NTPTargets:
    """One pass's next-token targets, in stream order: logits row rows[i]
    predicts a token of the modality owning [starts[i], starts[i] + widths[i]).

    The (n, max width) arrays are zero beyond each target's width.
    """

    rows: np.ndarray
    starts: np.ndarray
    widths: np.ndarray
    soft: np.ndarray  # Gaussian-smoothed target distribution
    mids: np.ndarray  # bin midpoints of continuous targets, 0 for categorical
    truth: np.ndarray  # true value of continuous targets, 0 for categorical
    mae_weight: np.ndarray  # 1 / train_sd for continuous targets, 0 for categorical
    n_mae: int

    @property
    def head(self) -> tuple:
        """The `forward(..., head=...)` selection of exactly these entries."""
        return self.rows, self.starts, self.widths


def ntp_targets(seq: TokenSequence, vocab: Vocabulary, sigma: float, min_target: int = 0) -> NTPTargets:
    """Targets at positions >= min_target (logits row p predicts token p + 1),
    skipping pad targets."""
    j = np.arange(max(1, min_target), seq.length)
    tok = np.asarray(seq.tokens[j], dtype=np.int64)
    keep = tok < vocab.total_tokens
    j, tok = j[keep], tok[keep]
    specs = [vocab.modalities[m] for m in seq.modalities[j]]
    starts, widths, mids = vocab.head_ranges(seq.modalities[j])
    offset = tok - starts
    bad = np.flatnonzero((offset < 0) | (offset >= widths))
    if bad.size:
        i = bad[0]
        raise ValueError(f"target token {tok[i]} outside range [{starts[i]}, {starts[i] + widths[i] - 1}]")

    span = np.arange(widths.max(initial=0))
    valid = span < widths[:, None]
    q = np.where(valid, np.exp(-((span - offset[:, None]) ** 2) / (2.0 * sigma * sigma)), 0.0)
    q /= q.sum(axis=1, keepdims=True)
    cont = np.array([spec.kind == CONTINUOUS for spec in specs], dtype=bool)
    return NTPTargets(
        rows=j - 1,
        starts=starts,
        widths=widths,
        soft=q,
        mids=mids,
        truth=np.where(cont, np.asarray(seq.values[j], dtype=np.float64), 0.0),
        mae_weight=np.array([1.0 / spec.train_sd if c else 0.0 for spec, c in zip(specs, cont)]),
        n_mae=int(cont.sum()),
    )


def sequence_loss(
    params: dict[str, Tensor],
    config: ModelConfig,
    vocab: Vocabulary,
    seq: TokenSequence,
    age: float,
    sex: str,
    loss_config: LossConfig,
    dropout_rng: np.random.Generator | None = None,
):
    """Composite loss for one sequence: causal soft+MAE plus split-context soft.

    The split term runs a second forward pass under the split mask and scores
    only positions at or past the visit boundary.  Each pass computes only
    the output-head entries its targets are scored on (ntp_targets), and its
    weighted loss is one tape node.
    """
    scales = value_scale_table(vocab)
    sigma = loss_config.sl_sigma

    def pass_loss(mask, min_target, soft_scale, mae_scale):
        """(loss node, CE, MAE, target count) of the pass under `mask` that scores
        the targets at positions >= min_target; mae_scale=None scores no MAE."""
        targets = ntp_targets(seq, vocab, sigma, min_target)
        block = forward(
            params, config, seq.tokens, seq.values, seq.modalities, seq.times,
            age, sex, build_mask(mask, seq.length), scales, dropout_rng=dropout_rng, head=targets.head,
        )
        mae = None if mae_scale is None else (targets.mids, targets.truth, targets.mae_weight, targets.n_mae)
        return (*nm.ntp_loss(block, targets.widths, targets.soft, soft_scale, mae, mae_scale), len(targets.rows))

    total, soft, mae, n_soft = pass_loss(Causal(), 0, loss_config.soft_scale, loss_config.mae_scale)
    split, n_split = 0.0, 0
    boundary = seq.visit_boundary
    if 0 < boundary < seq.length:
        split_loss, split, _, n_split = pass_loss(SplitContext(boundary), boundary, loss_config.split_scale, None)
        total = nm.add(total, split_loss)

    parts = {"soft": soft, "mae": mae, "split": split, "n_targets": n_soft, "n_split_targets": n_split}
    return total, parts


def lr_at(step: int, total_steps: int, peak: float = 3e-4, minimum: float = 3e-5, warmup: int = 100) -> float:
    """Linear warmup to the peak, then cosine decay to the minimum at total_steps."""
    if step <= warmup:
        return peak * step / warmup if warmup > 0 else peak
    if total_steps <= warmup:
        return peak
    frac = (step - warmup) / (total_steps - warmup)
    return minimum + 0.5 * (peak - minimum) * (1.0 + math.cos(math.pi * min(frac, 1.0)))


# Elements per optimizer pass: the float64 squares of the norm and AdamW's
# two temporaries stay this size, not the size of the flat vector.
_CHUNK = 1 << 16


def _grad_slices(params: dict[str, Tensor]) -> tuple[nm.ParamStore, list[slice]]:
    """The store behind params and the slices of its flat gradient that hold
    this step's gradients, each at most _CHUNK long.

    The slices cover exactly the tensors whose `.grad` is set, so a tensor
    with `.grad` None adds nothing to the norm and keeps its data and AdamW
    moments.  A gradient set by hand rather than by backward is first copied
    into the tensor's slice.
    """
    store = nm.ParamStore.of(params)
    runs: list[list[int]] = []
    for p, a, b in zip(params.values(), store.bounds, store.bounds[1:]):
        if p.grad is None:
            continue
        home = store.grad_view(p)
        if p.grad is not home:
            if p.grad.shape != home.shape:
                raise ValueError(f"gradient of shape {p.grad.shape} for a parameter of shape {home.shape}")
            home[...] = p.grad
            p.grad = home
        if runs and runs[-1][1] == a:
            runs[-1][1] = b
        else:
            runs.append([a, b])
    return store, [slice(i, min(i + _CHUNK, b)) for a, b in runs for i in range(a, b, _CHUNK)]


def _raise_nonfinite(params: dict[str, Tensor]) -> None:
    """Name the first parameter whose gradient holds a NaN or an infinity."""
    for name, p in params.items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise FloatingPointError(f"non-finite gradient in parameter {name!r}")


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm.

    The norm is one float64 sum of squares over the flat gradient."""
    store, parts = _grad_slices(params)
    sq = 0.0
    for s in parts:
        sq += float(np.square(store.grad[s], dtype=np.float64).sum())
    if not math.isfinite(sq):
        _raise_nonfinite(params)  # else finite float64 squares overflowed
    norm = math.sqrt(sq)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for s in parts:
            store.grad[s] *= factor
    return norm


@dataclass
class OptimizerState:
    """AdamW moments: flat vectors in the layout of the parameters' store,
    allocated on the first step."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0


def adamw_step(
    params: dict[str, Tensor],
    state: OptimizerState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """Decoupled-weight-decay Adam update with bias correction, over the flat
    parameter, gradient and moment vectors; tensors without a gradient are
    left alone."""
    store, parts = _grad_slices(params)
    for s in parts:
        g = store.grad[s]
        if not (math.isfinite(g.min()) and math.isfinite(g.max())):  # min and max propagate NaN
            _raise_nonfinite(params)
    if state.m is None:
        state.m = np.zeros(store.data.shape, store.data.dtype)
        state.v = np.zeros(store.data.shape, store.data.dtype)
    elif state.m.shape != store.data.shape:
        raise ValueError(f"optimizer state holds {state.m.size} values, the parameters {store.data.size}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for s in parts:
        g, m, v, w = store.grad[s], state.m[s], state.v[s], store.data[s]
        # m += (1 - beta1) g;  v += (1 - beta2) g g;
        # w -= lr wd w;  w -= lr (m / bc1) / (sqrt(v / bc2) + eps)
        m *= beta1
        u = g * (1.0 - beta1)
        m += u
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=u)
        u *= g
        v += u
        np.divide(m, bc1, out=u)
        u *= lr
        r = v / bc2
        np.sqrt(r, out=r)
        r += eps
        u /= r
        if weight_decay:
            np.multiply(w, lr * weight_decay, out=r)
            w -= r
        w -= u


def _zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def _batch_gradients(params, model_config, vocab, loss_config, aug, batch, rng):
    """Accumulate the batch's mean gradient into the parameters.

    `batch` holds (sequence, age, sex) triples; a sequence that augmentation
    leaves shorter than 2 tokens is skipped.  The gradient is the sum over
    the n_used sequences kept, divided by n_used, the same mean the logged
    loss takes.  Returns the summed loss parts and n_used.
    """
    sums = {"loss": 0.0, "soft": 0.0, "mae": 0.0, "split": 0.0}
    n_used = 0
    for seq, age, sex in batch:
        aseq = augment(seq, aug, rng, vocab)
        if aseq.length < 2:
            continue
        loss, parts = sequence_loss(
            params, model_config, vocab, aseq, age, sex, loss_config,
            dropout_rng=rng if model_config.dropout > 0 else None,
        )
        backward(loss)
        n_used += 1
        sums["loss"] += float(loss.data)
        for key in ("soft", "mae", "split"):
            sums[key] += parts[key]
    if n_used > 1:
        store, parts = _grad_slices(params)
        for s in parts:
            store.grad[s] *= 1.0 / n_used
    return sums, n_used


def train(
    records,
    vocab: Vocabulary,
    model_config: ModelConfig,
    loss_config: LossConfig,
    train_config: TrainConfig,
    aug_config: AugmentConfig | None,
    out_path,
    vocab_sha256: str = "",
    meta: dict | None = None,
    progress=None,
):
    """Fit the model on a cohort; checkpoints the best-validation parameters.

    A val_fraction of the sequences, at least one, is held out for
    validation.  With val_fraction 0, or a single sequence, none is: every
    sequence trains, no validation loss is logged, each epoch is
    checkpointed and the returned best validation loss is NaN.
    Single-worker and strictly sequential in its RNG usage, so a fixed seed
    reproduces the checkpoint byte for byte.  Divergence (non-finite loss)
    aborts with the last good checkpoint already on disk.
    """
    if not records:
        raise ValueError("cohort is empty")
    aug = aug_config or AugmentConfig.disabled()
    rng = np.random.default_rng(train_config.seed)

    sequences = []
    for r in records:
        seq = assemble_sequence(r, vocab, model_config.max_seq_len)
        sequences.append((seq, r.age, r.sex))

    perm = rng.permutation(len(sequences))
    held_out = train_config.val_fraction > 0 and len(sequences) > 1
    n_val = max(1, int(round(train_config.val_fraction * len(sequences)))) if held_out else 0
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]
    if len(train_idx) == 0:
        train_idx = perm
        val_idx = perm[:0]

    params = init_params(model_config, rng, dtype=np.float32)
    state = OptimizerState()
    batches_per_epoch = math.ceil(len(train_idx) / train_config.batch_size)
    total_steps = max(1, train_config.epochs * batches_per_epoch)

    def validation_loss() -> float:
        losses = []
        for i in val_idx:
            seq, age, sex = sequences[i]
            if seq.length < 2:
                continue
            # keep only the float: a held loss would keep its whole tape
            # alive while the next sequence's forward is recorded
            losses.append(float(sequence_loss(params, model_config, vocab, seq, age, sex, loss_config)[0].data))
        return float(np.mean(losses)) if losses else math.nan

    best_val = math.inf if len(val_idx) else math.nan
    step = 0
    history = []
    saved_once = False

    def checkpoint_now(val_loss: float) -> None:
        nonlocal saved_once
        info = dict(meta or {})
        info.update({"seed": train_config.seed, "step": step, "val_loss": val_loss})
        save_checkpoint(out_path, params, model_config, vocab_sha256, info)
        saved_once = True

    for epoch in range(train_config.epochs):
        order = train_idx[rng.permutation(len(train_idx))]
        for b0 in range(0, len(order), train_config.batch_size):
            batch = [sequences[i] for i in order[b0 : b0 + train_config.batch_size]]
            step += 1
            lr = lr_at(step, total_steps, train_config.peak_lr, train_config.min_lr, train_config.warmup_steps)
            _zero_grads(params)
            sums, n_used = _batch_gradients(params, model_config, vocab, loss_config, aug, batch, rng)
            if n_used == 0:
                continue
            if not math.isfinite(sums["loss"]):
                if not saved_once:
                    checkpoint_now(math.inf)
                raise TrainingDiverged(f"non-finite loss at step {step}")
            norm = clip_gradients(params, train_config.clip_norm)
            adamw_step(
                params, state, lr,
                train_config.beta1, train_config.beta2, train_config.eps,
                train_config.weight_decay,
            )
            row = {"step": step, "lr": lr}
            row.update({key: total / n_used for key, total in sums.items()})
            row.update({"grad_norm": norm, "clipped": int(norm > train_config.clip_norm > 0), "val_loss": ""})
            history.append(row)
        val = validation_loss()
        if history and len(val_idx):
            history[-1]["val_loss"] = val
        if progress is not None:
            progress(epoch, step, val)
        if math.isnan(val) or val < best_val:
            if not math.isnan(val):
                best_val = val
            checkpoint_now(val)

    if not saved_once:
        checkpoint_now(math.nan)
    return params, history, best_val


class ConfigFile(dict):
    """A key=value config file's settings, each value a string; `where`
    maps each key to the "path:line" that sets it."""

    where: dict[str, str]


def parse_config_file(path) -> ConfigFile:
    """Read a flat key=value config file; '#' starts a comment.  A line
    without '=', or a key set twice, is an InputError naming the line."""
    out = ConfigFile()
    out.where = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line, where = line.split("#", 1)[0].strip(), f"{path}:{line_no}"
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{where}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise InputError(f"{where}: {key!r} is set again, after {out.where[key]}")
            out[key], out.where[key] = value, where
    return out
