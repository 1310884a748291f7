"""Dense tensors with reverse-mode automatic differentiation.

Minimal tape-based engine.  Every op computes its output array and a local
backward rule, then hands both to `_node`, which records the parents and the
rule only when some input requires grad; an op over untracked inputs returns
a bare tensor and keeps nothing alive.  A rule holds the op's inputs and the
arrays it needs, never its own output tensor, so the tape has no reference
cycles and a loss dropped without backward frees its tape at once.
Each tape node carries its creation sequence number, and `backward` replays
the rules newest first, a reverse topological order, freeing the tape as it
goes: each node drops its gradient, rule and parents once its rule has
run, so afterwards only leaves (the parameters) hold `.grad` and the tape
cannot be walked twice.  Data lives in contiguous numpy arrays
(float32 for training, float64 for correctness tests) and all reductions use
numpy's fixed evaluation order, so results are deterministic for identical
inputs.  Model parameters live in a `ParamStore`: one flat vector whose
slices are the tensors' data, and one flat gradient vector that a
parameter's first gradient write in a backward pass lands in.

Each stage of the model's forward pass is one node: `embed_block` (the six
additive input embeddings), `attention_block` and `ffn_block` (a pre-norm
sublayer each: layer norm through dropout and residual), `query_block` (the
query MLPs added to the last hidden state) and `range_head` (the selected
output-head entries, clamped).  A block's rule recomputes what it can rebuild
from arrays the tape holds anyway instead of keeping it: a sublayer rebuilds
layer norm (xhat, inv and the normalized output) from its input, which is
the parent node's output, and from that the attention projections (q, k, v
and the value extras, one matmul each) or the FFN's pre-activation (one
matmul); the gated values, each attention row block's probabilities and the
GELU are recomputed too, and the embedding rebuilds its continuous features
from the values.  So a sublayer's tape holds its output, the attention
output and the dropout masks.  Each rebuild runs the same operations in the
same order as the forward, as every rule runs those of the chain of single
ops it replaced, so outputs and gradients are that chain's bit for bit.
Both precisions run the same rules: the GELU is its tanh approximation and
a masked attention score is -1e30, in float64 as in float32.  Past 128 rows
the GELU rules work in row chunks, so the FFN's forward and backward hold
one (T, d_ff) array beside the pre-activation.  The next-token loss of a
pass is one node too (`ntp_loss`: soft cross-entropy and MAE over the
ragged block that `range_head` returned), and `add` joins two losses.

Importing this module sets the process's heap policy (`_keep_heap_mapped`):
every array below 32 MiB comes from a heap that is never trimmed, so each
pass reuses pages the previous pass faulted in.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import operator
import os
import platform
import weakref

import numpy as np

__all__ = [
    "Tensor",
    "ParamStore",
    "add",
    "sinusoid_features",
    "embed_block",
    "attention_block",
    "ffn_block",
    "query_block",
    "range_head",
    "ntp_loss",
    "backward",
    "grad_check",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# glibc's mallopt parameters (malloc.h) and the values set for them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20  # glibc's ceiling for its dynamic threshold on 64-bit
_TRIM_THRESHOLD = 1 << 30


def _keep_heap_mapped() -> bool:
    """Serve every allocation below 32 MiB from a heap that is never trimmed.

    glibc's default policy moves its mmap threshold with each large free and
    returns heap pages to the kernel once 128 KiB lie free at the top, so how
    often a pass faults its tape in depended on what the process happened to
    import.  Fixing both thresholds keeps the tape's freed pages mapped for
    the next pass.  Returns whether the policy was applied: not off glibc,
    not when the process was started with glibc's own `MALLOC_MMAP_THRESHOLD_`
    or `MALLOC_TRIM_THRESHOLD_`, and not when `mallopt` refuses a value.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    if "MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ:
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)) and bool(mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


_HEAP_POLICY = _keep_heap_mapped()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_store", "_slot", "_seq", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(parents)
        self._backward = backward
        self._store = None
        self._slot = 0  # a store tensor's place in its store
        self._seq = 0  # a tape node's place in creation order (`_node`)

    def __getstate__(self):
        # a pickled parameter leaves its store behind and owns a copy of its
        # data, so a params dict sent to a worker process is not sent twice
        state = {name: getattr(self, name) for name in self.__slots__ if name != "__weakref__"}
        return None, state | {"_store": None}

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


class ParamStore:
    """Parameter tensors that are views of one contiguous vector.

    `data` holds every tensor's values back to back in `params` order, and
    `bounds[i]:bounds[i + 1]` is tensor i's slice of it.  `grad` is the
    gradient vector in the same layout, allocated on the first gradient write
    into any of the tensors: from then on a tensor's first write in a
    backward pass lands in its own slice (`_accum`, `_grad_buffer`), also
    after a caller has set its `.grad` to None, so an optimizer can step the
    whole vector at once.  A tensor whose `.grad` is None has no gradient this
    pass, whatever its slice of `grad` holds.  So a `.grad` array kept across
    a later backward is overwritten by it; copy it to keep it.

    Each tensor holds its store, and the store holds its tensors only
    weakly, so dropping the last reference to a params dict frees the
    vectors at once, without waiting for the cyclic collector.  Reading
    `params` makes a fresh tensor for a slice whose tensor is gone: a view
    of the same values, requiring grad, with no gradient.
    """

    __slots__ = ("data", "grad", "bounds", "_names", "_shapes", "_tensors", "_grad_views")

    def __init__(self, shapes: dict[str, tuple], data: np.ndarray):
        bounds = [0]
        for shape in shapes.values():
            bounds.append(bounds[-1] + math.prod(shape))
        if data.shape != (bounds[-1],):
            raise ValueError(f"a store of {bounds[-1]} values needs a flat vector that long, got shape {data.shape}")
        self.data, self.grad, self.bounds, self._grad_views = data, None, bounds, []
        self._names, self._shapes = list(shapes), [tuple(shape) for shape in shapes.values()]
        self._tensors: list[weakref.ref | None] = [None] * len(self._names)

    def _adopt(self, i: int, t: Tensor) -> Tensor:
        """Make t the store's tensor i: its data becomes a view of slice i."""
        t.data, t._store, t._slot = self.data[self.bounds[i] : self.bounds[i + 1]].reshape(self._shapes[i]), self, i
        self._tensors[i] = weakref.ref(t)
        return t

    @property
    def params(self) -> dict[str, Tensor]:
        """The store's tensors by name, in order."""
        params = {}
        for i, (name, ref) in enumerate(zip(self._names, self._tensors)):
            t = ref() if ref is not None else None
            params[name] = t if t is not None else self._adopt(i, Tensor((), requires_grad=True))
        return params

    @staticmethod
    def find(params: dict[str, Tensor]) -> "ParamStore | None":
        """The store whose tensors are exactly params' values, in order, else None."""
        tensors = list(params.values())
        store = tensors[0]._store if tensors else None
        if store is None or len(store._names) != len(tensors):
            return None
        if any(t._store is not store or t._slot != i for i, t in enumerate(tensors)):
            return None
        return store

    @classmethod
    def of(cls, params: dict[str, Tensor]) -> "ParamStore":
        """The store behind params.  A dict of tensors outside any store (one
        built by hand) is copied into a new store the first time: each tensor
        keeps its identity and `.grad`, and its data becomes a view."""
        store = cls.find(params)
        if store is not None:
            return store
        taken = [name for name, p in params.items() if p._store is not None]
        if taken:
            raise ValueError(f"parameter {taken[0]!r} already belongs to another parameter store")
        tensors = list(params.values())
        data = np.concatenate([p.data.ravel() for p in tensors], dtype=np.result_type(*(p.data.dtype for p in tensors)))
        store = cls({name: p.data.shape for name, p in params.items()}, data)
        for i, p in enumerate(tensors):
            store._adopt(i, p)
        return store

    def grad_view(self, t: Tensor) -> np.ndarray:
        """t's own slice of `grad`, allocating `grad` on first use."""
        if self.grad is None:
            self.grad = np.zeros(self.data.shape, self.data.dtype)  # zeros, not zeros_like: untouched pages stay free
            self._grad_views = [
                self.grad[a:b].reshape(shape) for shape, a, b in zip(self._shapes, self.bounds, self.bounds[1:])
            ]
        return self._grad_views[t._slot]


# Creation sequence numbers of tape nodes.  A node is made after its
# parents, so creation order is a topological order of any tape.
_created = itertools.count(1)


def _node(data, parents: tuple, backward) -> Tensor:
    """An op's output: a tape node when any parent requires grad, else a bare tensor."""
    if any(p.requires_grad for p in parents):
        node = Tensor(data, True, parents, backward)
        node._seq = next(_created)
        return node
    return Tensor(data)


def _accum(x: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add g into x.grad, first summing it over the axes x was broadcast along.

    `owned` says the rule built g for this call and nothing else holds it,
    so a first write may keep g itself as x.grad instead of a copy."""
    if not x.requires_grad:
        return
    shape = x.data.shape
    if g.shape != shape:
        extra = g.ndim - len(shape)
        if extra > 0:
            g = g.sum(axis=tuple(range(extra)))
        axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
        if axes:
            g = g.sum(axis=axes, keepdims=True)
    if x.grad is not None:
        x.grad += g
    elif x._store is None:
        if owned and g.dtype == x.data.dtype:
            x.grad = g
        else:
            x.grad = np.array(g, dtype=x.data.dtype)  # a copy: g may be another node's grad
    else:
        x.grad = x._store.grad_view(x)
        x.grad[...] = g  # likewise a copy, into x's slice of the flat gradient


def _grad_buffer(x: Tensor) -> np.ndarray:
    """x.grad, zero-filled on first use, for ops that add into parts of it."""
    if x.grad is None:
        if x._store is None:
            x.grad = np.zeros_like(x.data)
        else:
            x.grad = x._store.grad_view(x)
            x.grad.fill(0)
    return x.grad


def _accum_at(x: Tensor, index, g: np.ndarray) -> None:
    """Scatter-add g into x.grad at index; repeated indices accumulate.

    An integer array of several row ids into a 2-d gradient scatters through
    one flat element index, which numpy runs several times faster than a
    scatter of whole rows; each element still receives its additions in id
    order, so the sums are bitwise the same.  A single id takes the row
    path."""
    if not x.requires_grad:
        return
    buf = _grad_buffer(x)
    if isinstance(index, np.ndarray) and index.size > 1 and buf.ndim == 2 and buf.flags.c_contiguous:
        d = buf.shape[1]
        flat = (index.reshape(-1, 1) * d + np.arange(d)).ravel()
        np.add.at(buf.reshape(-1), flat, g.ravel())
    else:
        np.add.at(buf, index, g)


def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return _node(a.data + b.data, (a, b), bw)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(sqrt(2/pi) (x + 0.044715 x^3)) in one buffer."""
    u = x * x
    u *= x  # x**3 is pow(), far slower in float32
    u *= 0.044715
    u += x
    u *= _SQRT_2_OVER_PI
    return np.tanh(u, out=u)


# Rows per chunk of the GELU rules on longer inputs: their temporaries are
# (_GELU_ROWS, n) arrays, so a (T, d_ff) input costs one (T, d_ff) output.
_GELU_ROWS = 128


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """GELU of x by its tanh approximation, 0.5 x (1 + tanh(sqrt(2/pi) (x +
    0.044715 x^3))) (Hendrycks & Gimpel 2016), and the array its derivative
    reuses: the tanh for an x of at most _GELU_ROWS rows, else None: a
    longer x runs in row chunks written into one output, and `_gelu_grad`
    recomputes each chunk's tanh."""
    if len(x) <= _GELU_ROWS:
        t = _gelu_tanh(x)
        return 0.5 * x * (1.0 + t), t
    y = np.empty_like(x)
    for r0 in range(0, len(x), _GELU_ROWS):
        rows = slice(r0, r0 + _GELU_ROWS)
        t = _gelu_tanh(x[rows])
        np.multiply(0.5 * x[rows], 1.0 + t, out=y[rows])
    return y, None


def _gelu_grad(x: np.ndarray, s: np.ndarray | None, g: np.ndarray) -> np.ndarray:
    """g times GELU's derivative at x, given `_gelu`'s second array s; the
    result overwrites s when it is the tanh, else g, chunk by chunk."""
    if s is not None:
        return _gelu_grad_tanh(x, s, g, out=s)
    for r0 in range(0, len(x), _GELU_ROWS):
        rows = slice(r0, r0 + _GELU_ROWS)
        _gelu_grad_tanh(x[rows], _gelu_tanh(x[rows]), g[rows], out=g[rows])
    return g


def _gelu_grad_tanh(x: np.ndarray, t: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """g (0.5 (1 + t) + 0.5 x (1 - t^2) dinner), t the tanh of x
    (overwritten), evaluated in that order in three buffers."""
    f = t * t
    np.subtract(1.0, f, out=f)
    h = x * 0.5
    h *= f
    np.multiply(x, 3 * 0.044715, out=f)
    f *= x
    f += 1.0
    f *= _SQRT_2_OVER_PI  # dinner
    h *= f
    del f
    t += 1.0
    t *= 0.5
    t += h
    del h
    return np.multiply(t, g, out=out)


def _id_columns(tables, ids) -> list[np.ndarray]:
    """ids (n, len(tables)) as one int64 column per table.  An id outside
    its table raises IndexError naming the column, its bad ids and the
    table's size."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] != len(tables):
        raise ValueError(f"lookups need one id column per table ({len(tables)}), got ids of shape {ids.shape}")
    sizes = np.array([table.data.shape[0] for table in tables], dtype=np.uint64)
    bad = ids.view(np.uint64) >= sizes  # a negative id wraps past every size
    if bad.any():
        j = int(bad.any(axis=0).argmax())
        raise IndexError(
            f"embedding index out of range in id column {j}: {np.unique(ids[bad[:, j], j]).tolist()} "
            f"vs table {sizes[j]}"
        )
    return list(ids.T)


def _lookup_sum(tables, cols) -> np.ndarray:
    """tables[0][cols[0]] + tables[1][cols[1]] + ..., summed left to right in place."""
    y = tables[0].data[cols[0]]
    for table, col in zip(tables[1:], cols[1:]):
        y += table.data[col]
    return y


def sinusoid_features(values: np.ndarray, dim: int, dtype=np.float64) -> np.ndarray:
    """Fixed sin/cos feature expansion of scalar values over `dim` channels."""
    v = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    half = dim // 2
    freqs = 1.0 / (10000.0 ** (2.0 * np.arange(half) / dim))
    ang = v * freqs
    out = np.empty((v.shape[0], dim), dtype=dtype)
    out[:, 0::2] = np.sin(ang)
    out[:, 1::2] = np.cos(ang)
    return out


def embed_block(
    tables, ids, cont_values: np.ndarray, cont_proj: Tensor, pos: np.ndarray,
    age_feat: np.ndarray, age_proj: Tensor, sex: Tensor, sex_id: int,
) -> Tensor:
    """The input embedding in one tape node, tables (tok, mod, time_0, ...)
    with one id column each: tok[ids[:, 0]] + cont_feat @ cont_proj +
    mod[ids[:, 1]] + sum_d time_d[ids[:, 2 + d]] + pos + (age_feat @ age_proj
    + sex[sex_id]), the time lookups summed left to right in their own buffer
    and the (1, d) demographic row before it is added to every position.
    cont_feat is `sinusoid_features` of the (T,) values `cont_values` over
    cont_proj's rows, in cont_proj's dtype.  The features are constants,
    multiplied into the gradient only for a projection that requires grad;
    the tape keeps the values, and backward rebuilds cont_feat from them.
    Forward and gradients are bitwise those of the op chain written out in
    that order.
    """
    tok, mod, *times = tables
    cols = _id_columns(tables, ids)
    sex_ids = np.array([sex_id])
    y = tok.data[cols[0]]
    y += sinusoid_features(cont_values, cont_proj.data.shape[0], cont_proj.dtype) @ cont_proj.data
    y += mod.data[cols[1]]
    y += _lookup_sum(times, cols[2:])
    y += pos
    demo = age_feat @ age_proj.data
    demo += sex.data[sex_ids]
    y += demo

    def bw(g):
        gd = g.sum(axis=0, keepdims=True)
        _accum_at(sex, sex_ids, gd)
        if age_proj.requires_grad:
            _accum(age_proj, age_feat.swapaxes(-1, -2) @ gd, owned=True)
        if cont_proj.requires_grad:
            cont_feat = sinusoid_features(cont_values, cont_proj.data.shape[0], cont_proj.dtype)
            _accum(cont_proj, cont_feat.swapaxes(-1, -2) @ g, owned=True)
        for table, col in zip(tables, cols):
            _accum_at(table, col, g)

    return _node(y, (*tables, cont_proj, age_proj, sex), bw)


def _ranges(rows, starts, widths, n_rows: int, n_cols: int):
    """Validated int64 (rows, starts, widths) for a ragged row/column-range selection."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    starts = np.zeros_like(rows) if starts is None else np.asarray(starts, dtype=np.int64).reshape(-1)
    widths = n_cols - starts if widths is None else np.asarray(widths, dtype=np.int64).reshape(-1)
    if not len(rows) == len(starts) == len(widths):
        raise ValueError(f"selection lengths differ: {len(rows)} rows, {len(starts)} starts, {len(widths)} widths")
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise IndexError(f"row index out of range: [{rows.min()}, {rows.max()}] vs {n_rows} rows")
    if rows.size and (starts.min() < 0 or widths.min() < 1 or (starts + widths).max() > n_cols):
        raise IndexError(f"column ranges must be non-empty and inside [0, {n_cols})")
    return rows, starts, widths


def range_head(h: Tensor, w: Tensor, b: Tensor, c: float, rows, starts=None, widths=None) -> Tensor:
    """Clamped output-head entries c * tanh(z[i, j] / c), where
    z[i, j] = h[rows[i]] . w[:, starts[i] + j] + b[starts[i] + j] for
    j < widths[i], zero-padded to max(widths) columns.

    Rows that share a (start, width) range share one matmul, so memory stays
    O(len(rows) x max(widths)) beyond the operands.  starts=None is column 0
    and widths=None runs to the last column, so (arange(T), None, None) is
    the full head.  The tape keeps t = tanh(z / c); the rule evaluates
    (g c)(1 - t^2) / c in that order, the chain rule through scaling by 1/c,
    tanh and scaling by c, before the grouped scatter.
    """
    hd, wd, bd = h.data, w.data, b.data
    rows, starts, widths = _ranges(rows, starts, widths, hd.shape[0], wd.shape[1])
    shape = (len(rows), int(widths.max(initial=0)))
    order = np.lexsort((widths, starts))
    cuts = np.flatnonzero(np.diff(starts[order]) | np.diff(widths[order])) + 1
    groups = [
        (idx, rows[idx], int(starts[idx[0]]), int(widths[idx[0]]))
        for idx in np.split(order, cuts)
        if idx.size
    ]
    blocks = [hd[r] @ wd[:, s : s + k] + bd[s : s + k] for _, r, s, k in groups]
    if len(blocks) == 1:  # one shared range: the stable sort left every row in place
        t = blocks[0]
    else:
        t = np.zeros(shape, dtype=np.result_type(hd, wd, bd))
        for (idx, _, _, k), blk in zip(groups, blocks):
            t[idx, :k] = blk
    t *= 1.0 / c
    np.tanh(t, out=t)

    def bw(g):
        u = g * c
        u *= 1.0 - t * t
        u *= 1.0 / c
        gsel = np.empty((shape[0], hd.shape[1]), dtype=hd.dtype) if h.requires_grad else None
        gw = _grad_buffer(w) if w.requires_grad else None
        gb = _grad_buffer(b) if b.requires_grad else None
        for idx, r, s, k in groups:
            gz = u[idx, :k]
            if gsel is not None:
                gsel[idx] = gz @ wd[:, s : s + k].T
            if gw is not None:
                gw[:, s : s + k] += hd[r].T @ gz
            if gb is not None:
                gb[s : s + k] += gz.sum(axis=0)
        if gsel is not None:
            _accum_at(h, rows, gsel)

    return _node(t * c, (h, w, b), bw)


# Padding for ntp_loss's ragged target block: exp(-1e4 - max) is exactly 0 in
# float32 and float64, so padded columns get probability 0 and a finite
# log-probability that a zero soft target multiplies to exactly 0.  Logits
# from `model.forward` lie within +-logit_clamp, far above it.
_PAD_LOGIT = -1e4


def ntp_loss(block: Tensor, widths, soft, soft_scale: float, mae=None, mae_scale=0.0):
    """The next-token loss of one pass as one node: returns (soft_scale * CE
    + mae_scale * MAE, CE, MAE), the last two as floats.

    `block` is the selection `range_head` returns: row i holds target i's
    logits in its first widths[i] columns, and the columns past them are
    scored as `_PAD_LOGIT`.  CE is the mean over targets of -sum(soft *
    log_softmax(row)), `soft` zero past each width.  `mae` is (mids, truth,
    weight, n_mae): MAE = sum(weight * |softmax(row) @ mids - truth|) /
    n_mae, 0 when n_mae is 0, with weight 0 for a target without a value;
    mae=None leaves the term out.  With no targets the loss is an untracked
    zero.

    The tape keeps the log-probabilities and probabilities.  Both directions
    run the numpy operations of the op chain this node replaced (log-softmax,
    product, sum, negation, scaling; softmax, product, row sum, difference,
    absolute value, product, sum, scaling; the two weights) in that chain's
    order, so they are its results bit for bit.
    """
    data, dtype = block.data, block.data.dtype
    widths = np.asarray(widths, dtype=np.int64).reshape(-1)
    n = len(widths)
    if data.ndim != 2 or data.shape[0] != n or (n and (widths.min() < 1 or widths.max() > data.shape[1])):
        raise ValueError(f"a block of shape {data.shape} cannot hold targets of widths {widths.tolist()}")
    if n == 0:
        return Tensor(np.array(0.0, dtype=dtype)), 0.0, 0.0
    padded = np.where(np.arange(data.shape[1]) < widths[:, None], data, _PAD_LOGIT)
    z = padded - padded.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    logp = z - np.log(total)
    soft = np.asarray(soft, dtype=dtype)
    ce = -(soft * logp).sum() * (1.0 / n)
    y = ce * soft_scale
    mae_term = n_mae = 0
    if mae is not None:
        mids, truth, weight, n_mae = mae
        mids, truth, weight = (np.asarray(x, dtype=dtype) for x in (mids, truth, weight))
        if n_mae:
            p = e / total
            dev = (p * mids).sum(axis=1) - truth
            mae_term = (np.abs(dev) * weight).sum() * (1.0 / n_mae)
        y = y + mae_term * mae_scale

    def bw(g):
        glogp = soft * -((g * soft_scale) * (1.0 / n))
        gblock = glogp - np.exp(logp) * glogp.sum(axis=-1, keepdims=True)
        if n_mae:
            gp = (weight * ((g * mae_scale) * (1.0 / n_mae)) * np.sign(dev))[:, None] * mids
            gblock += p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        _grad_buffer(block)[...] += gblock  # added into zeros: a -0.0 entry lands as +0.0

    return _node(y, (block,), bw), float(ce), float(mae_term)


# --- transformer sublayers ------------------------------------------------------


def _row_mean(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=-1, keepdims=True) by `ndarray.mean`'s own steps, so
    bitwise the same, without its Python-level dispatch."""
    s = np.add.reduce(x, axis=-1, keepdims=True)
    return np.true_divide(s, np.intp(x.shape[-1]), out=s, casting="unsafe")


def _normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Layer norm over the last axis before its gain and bias: xhat and the
    per-row 1 / sqrt(var + 1e-5) it was scaled by."""
    xc = x - _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(xc * xc) + 1e-5)
    xc *= inv
    return xc, inv


def _pre_norm(x: np.ndarray, gain: Tensor, bias: Tensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A sublayer's layer norm output xhat * gain + bias, and the xhat and
    inv it came from (`_normalize`)."""
    xhat, inv = _normalize(x)
    pre = xhat * gain.data
    pre += bias.data
    return pre, xhat, inv


def _layer_norm_grad(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: Tensor, bias: Tensor) -> np.ndarray:
    """Layer norm's backward from the gradient g of xhat * gain + bias:
    accumulates gain's and bias's gradients and returns the input's,
    inv * (gx - mean(gx) - xhat * mean(gx * xhat)) with gx = g * gain."""
    _accum(gain, g * xhat)
    _accum(bias, g)
    gx = g * gain.data
    m = _row_mean(gx * xhat)
    gx -= _row_mean(gx)
    gx -= xhat * m
    gx *= inv
    return gx


def _keep_mask(shape, dtype, rate: float, rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted dropout's multiplier, 0 or 1 / (1 - rate) per entry, from one
    rng.random(shape) draw; None, and no draw, when rate is 0 or rng is None."""
    if rate <= 0.0 or rng is None:
        return None
    return (rng.random(shape) >= rate).astype(dtype) / (1.0 - rate)


# Query rows per attention block: a block's scores and probabilities are
# (H, _ATTN_BLOCK, key extent), never (H, T, T) at once.
_ATTN_BLOCK = 128

# The score of a masked query-key pair: exp(-1e30 - max) is exactly 0 in
# float32 and float64, so a masked key gets probability 0, and a row that
# allows some key has a finite max.
_MASKED_SCORE = -1e30


def _attention_blocks(mask: np.ndarray, t_q: int, t_k: int) -> list[tuple[int, int, int]]:
    """The query row blocks (r0, r1, c1) of a boolean (t_q, t_k) mask: rows
    [r0, r1), at most _ATTN_BLOCK of them, attend to keys [0, c1), c1 one
    past the last column any of those rows allows, so the all-masked upper
    triangle of causal masks is skipped.  A row that allows no key raises
    ValueError."""
    if mask.shape != (t_q, t_k):
        raise ValueError(f"attention mask shape {mask.shape} does not match ({t_q}, {t_k})")
    empty = np.flatnonzero(~mask.any(axis=1))
    if empty.size:
        raise ValueError(f"attention mask rows allow no key: {empty[:5].tolist()}")
    extent = t_k - np.argmax(mask[:, ::-1], axis=1)
    return [
        (r0, min(r0 + _ATTN_BLOCK, t_q), int(extent[r0 : r0 + _ATTN_BLOCK].max()))
        for r0 in range(0, t_q, _ATTN_BLOCK)
    ]


def _by_head(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(0, 1)  # a strided (H, T, d) view; BLAS reads it in place


def _probs(qh: np.ndarray, kh: np.ndarray, mask: np.ndarray, block, scale: float) -> np.ndarray:
    """One row block's (H, r1 - r0, c1) probabilities softmax(q k^T * scale,
    masked).  Both directions of the attention call this, so backward's
    probabilities are forward's bit for bit."""
    r0, r1, c1 = block
    p = qh[:, r0:r1] @ kh[:, :c1].swapaxes(-1, -2)
    p *= scale
    np.copyto(p, _MASKED_SCORE, where=~mask[r0:r1, :c1])
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray, blocks, scale: float, keep) -> np.ndarray:
    """Masked attention over stacked heads, token-major: q (Tq, H, d), k
    (Tk, H, d) and v (Tk, H, dv) give (Tq, H, dv), per head
    (softmax(q k^T * scale, masked) * keep) @ v, keep the (H, Tq, Tk)
    dropout multiplier or None."""
    qh, kh, vh = _by_head(q), _by_head(k), _by_head(v)
    out = np.empty((q.shape[0], q.shape[1], v.shape[2]), dtype=q.dtype)
    oh = _by_head(out)
    for block in blocks:
        r0, r1, c1 = block
        p = _probs(qh, kh, mask, block, scale)
        if keep is not None:
            p *= keep[:, r0:r1, :c1]
        oh[:, r0:r1] = p @ vh[:, :c1]
    return out


def _attend_grads(g: np.ndarray, q, k, v, mask: np.ndarray, blocks, scale: float, keep):
    """The gradients of q, k and v through `_attend`, given its output's
    gradient g; each block's probabilities are recomputed."""
    qh, kh, vh, gh = _by_head(q), _by_head(k), _by_head(v), _by_head(g)
    gq, gk, gv = np.empty_like(q), np.zeros_like(k), np.zeros_like(v)
    for block in blocks:
        r0, r1, c1 = block
        p = _probs(qh, kh, mask, block, scale)
        go = gh[:, r0:r1]
        kept = p if keep is None else p * keep[:, r0:r1, :c1]
        _by_head(gv)[:, :c1] += kept.swapaxes(-1, -2) @ go
        del kept
        ds = go @ vh[:, :c1].swapaxes(-1, -2)
        if keep is not None:
            ds *= keep[:, r0:r1, :c1]
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        _by_head(gq)[:, r0:r1] = ds @ kh[:, :c1]
        _by_head(gk)[:, :c1] += (qh[:, r0:r1].swapaxes(-1, -2) @ ds).swapaxes(-1, -2)
    return gq, gk, gv


def _gated_values(heads: np.ndarray, gates: np.ndarray) -> np.ndarray:
    """v + vx0 * gates[0] + vx1 * gates[1] + ... per head, from the stacked
    (3 + E, T, H, d) projections q, k, v, vx0, ..."""
    v = heads[2]
    for e, vx in enumerate(heads[3:]):
        v = v + vx * gates[e].reshape(-1, 1)
    return v


def _project(pre: np.ndarray, weights, n_heads: int) -> np.ndarray:
    """pre @ w for each of `weights`, one matmul each in order into one
    stacked (3 + E, T, H, d_head) array: q, k, v, vx0, ...  Backward calls
    this too, so its projections are forward's bit for bit."""
    proj = np.empty((len(weights), pre.shape[0], weights[0].data.shape[1]), np.result_type(pre, *(w.data for w in weights)))
    for w, out in zip(weights, proj):
        np.matmul(pre, w.data, out=out)
    return proj.reshape(len(weights), pre.shape[0], n_heads, -1)


def attention_block(
    h: Tensor, gain: Tensor, bias: Tensor, weights, gates: Tensor, w_o: Tensor, mask, n_heads: int, scale: float,
    rate: float = 0.0, rng: np.random.Generator | None = None,
) -> Tensor:
    """A pre-norm attention sublayer in one tape node:
    h + dropout(attention(q, k, v) @ w_o, rate, rng).

    pre = xhat * gain + bias, xhat h's layer norm, is projected by each of
    `weights` (w_q, w_k, w_v, then the value extras w_vx0, ...; each
    (d, H d_head)) into stacked (3 + E, T, H d_head) projections
    (`_project`).  Extra e is added into the values scaled per head by
    gates[e].  Attention is masked by the boolean (T, T) `mask` (True where
    a query row may attend to a key column) and runs in query row blocks
    (`_attention_blocks`).  With dropout on, the draws are the attention
    keep mask, one rng.random((H, T, T)), then rng.random((T, d)) for w_o's
    output.

    The tape keeps the attention output and the dropout masks; h's data,
    the sublayer input, is the parent's output.  Backward rebuilds layer
    norm (xhat, inv and pre) from it, then the projections with forward's
    own matmuls, freed before the projections' gradients, which need pre
    alone; it recomputes the gated values and each block's probabilities.
    Forward and gradients are bitwise those of the op chain written out
    (layer norm, one matmul per projection, per-extra mul and add,
    attention, matmul, dropout, add), and the projections' input gradient
    is summed newest first, w_vx{E-1} ... w_v, w_k, w_q.
    """
    x = h.data
    t = x.shape[0]
    heads = _project(_pre_norm(x, gain, bias)[0], weights, n_heads)
    mask = np.asarray(mask, dtype=bool)
    blocks = _attention_blocks(mask, t, t)
    keep = _keep_mask((n_heads, t, t), heads.dtype, rate, rng)
    ctx = _attend(heads[0], heads[1], _gated_values(heads, gates.data), mask, blocks, scale, keep).reshape(t, -1)
    del heads
    y = ctx @ w_o.data
    drop = _keep_mask(y.shape, y.dtype, rate, rng)
    if drop is not None:
        y *= drop
    y += x

    def bw(g):
        pre, xhat, inv = _pre_norm(h.data, gain, bias)
        heads = _project(pre, weights, n_heads)
        go = g if drop is None else g * drop
        gctx = go @ w_o.data.swapaxes(-1, -2)
        _accum(w_o, ctx.swapaxes(-1, -2) @ go, owned=True)
        v = _gated_values(heads, gates.data)
        gq, gk, gv = _attend_grads(gctx.reshape(heads.shape[1:]), heads[0], heads[1], v, mask, blocks, scale, keep)
        grads = [gq, gk, gv]
        for e in range(len(weights) - 3):
            grads.append(gv * gates.data[e].reshape(-1, 1))
            if gates.requires_grad:
                _grad_buffer(gates)[e] += (gv * heads[3 + e]).sum(axis=(0,)).sum(axis=(1,))
        del v, heads
        gpre = None
        for w, gp in zip(reversed(weights), reversed(grads)):  # newest projection first
            gp = gp.reshape(t, -1)
            gx = gp @ w.data.swapaxes(-1, -2)
            if gpre is None:
                gpre = gx
            else:
                gpre += gx
            _accum(w, pre.swapaxes(-1, -2) @ gp, owned=True)
        del pre
        dx = _layer_norm_grad(gpre, xhat, inv, gain, bias)
        dx += g
        _accum(h, dx, owned=True)

    return _node(y, (h, gain, bias, *weights, gates, w_o), bw)


def _linear(x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """x @ w + b, the bias added in place."""
    y = x @ w.data
    y += b.data
    return y


def _mlp(x: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """gelu(x @ w1 + b1) @ w2 + b2, and the pre-activation x @ w1 + b1 that
    `_mlp_grads` needs."""
    a = _linear(x, w1, b1)
    return _linear(_gelu(a)[0], w2, b2), a


def _mlp_grads(g: np.ndarray, x: np.ndarray, a: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> np.ndarray:
    """Accumulate an `_mlp`'s parameter gradients from its output's gradient
    g and return its input's; the GELU is recomputed from a.  An a of
    several `_GELU_ROWS` chunks has no more than one array of its size alive
    beside it."""
    u, s = _gelu(a)
    _accum(w2, u.swapaxes(-1, -2) @ g, owned=True)
    _accum(b2, g)
    del u
    ga = _gelu_grad(a, s, g @ w2.data.swapaxes(-1, -2))
    del s
    gx = ga @ w1.data.swapaxes(-1, -2)
    _accum(w1, x.swapaxes(-1, -2) @ ga, owned=True)
    _accum(b1, ga)
    return gx


def ffn_block(
    h: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
    rate: float = 0.0, rng: np.random.Generator | None = None,
) -> Tensor:
    """A pre-norm feed-forward sublayer in one tape node:
    h + dropout(gelu((xhat * gain + bias) @ w1 + b1) @ w2 + b2), xhat h's
    layer norm.

    With dropout on, the draw is one rng.random((T, d)).  The tape keeps
    the dropout mask alone; h's data, the sublayer input, is the parent's
    output.  Backward rebuilds layer norm and the pre-activation from it and
    recomputes the GELU.  Forward and gradients are bitwise those of the op
    chain written out (layer norm, linear, gelu, linear, dropout, add).
    """
    x = h.data
    y = _mlp(_pre_norm(x, gain, bias)[0], w1, b1, w2, b2)[0]
    drop = _keep_mask(y.shape, y.dtype, rate, rng)
    if drop is not None:
        y *= drop
    y += x

    def bw(g):
        gy = g if drop is None else g * drop
        pre, xhat, inv = _pre_norm(h.data, gain, bias)
        gpre = _mlp_grads(gy, pre, _linear(pre, w1, b1), w1, b1, w2, b2)
        del gy, pre
        dx = _layer_norm_grad(gpre, xhat, inv, gain, bias)
        dx += g
        _accum(h, dx, owned=True)

    return _node(y, (h, gain, bias, w1, b1, w2, b2), bw)


def query_block(h: Tensor, tables, ids, mod_mlp, time_mlp) -> Tensor:
    """The query injection in one tape node, tables (mod, time_0, ...) with
    one id column each: (h + mlp(mod[ids[:, 0]])) + mlp(sum_d
    time_d[ids[:, 1 + d]]), each mlp gelu(x @ w1 + b1) @ w2 + b2 over its own
    (w1, b1, w2, b2).  The tape keeps each MLP's input and pre-activation,
    (T, d) arrays each; backward recomputes the GELU (in row chunks, as
    `ffn_block` does).  Forward and gradients are bitwise those
    of the op chain written out (lookups, linear, gelu, linear, adds).
    """
    mod, *times = tables
    mod_ids, *time_ids = _id_columns(tables, ids)
    xm, xt = mod.data[mod_ids], _lookup_sum(times, time_ids)
    ym, am = _mlp(xm, *mod_mlp)
    yt, at = _mlp(xt, *time_mlp)
    y = h.data + ym
    y += yt

    def bw(g):
        _accum(h, g)
        gt = _mlp_grads(g, xt, at, *time_mlp)
        for table, col in zip(times, time_ids):
            _accum_at(table, col, gt)
        _accum_at(mod, mod_ids, _mlp_grads(g, xm, am, *mod_mlp))

    return _node(y, (h, *tables, *mod_mlp, *time_mlp), bw)


def _tape(root: Tensor) -> list[Tensor]:
    """Every node with a rule that root depends on, root included, once each
    and in creation order."""
    nodes: list[Tensor] = []
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        if node._backward is None:
            continue
        nodes.append(node)
        for p in node._parents:
            if p._backward is not None and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    nodes.sort(key=operator.attrgetter("_seq"))
    return nodes


def _released(g) -> None:
    """The rule of a node whose tape `backward` has already walked."""
    raise ValueError("backward over a tape that was already used: its rules and gradients are freed")


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every requires_grad leaf.

    The tape is released as it is walked: once a node's rule has run, the
    node drops its gradient, its rule and its parents, so an intermediate
    gradient and every array a rule saved are freed as soon as the last rule
    that needs them has run.  Leaves (tensors without a rule) keep `.grad`.
    A released node's rule raises ValueError, so a second backward over the
    same tape fails instead of silently doing nothing.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    order = _tape(loss)
    loss.grad = np.ones_like(loss.data)
    while order:  # newest first: every node's consumers have run before it
        node = order.pop()
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._backward, node._parents = None, _released, ()


def grad_check(f, params: dict[str, Tensor], eps: float = 1e-5, max_coords: int = 200, seed: int = 0) -> float:
    """Max relative error between analytic gradients and central differences.

    Samples up to `max_coords` coordinates across all parameters; params must
    be float64 for the differences to resolve.
    """
    for p in params.values():
        p.zero_grad()
    loss = f()
    if not np.isfinite(loss.data):
        raise ValueError("non-finite loss in grad_check")
    backward(loss)

    coords = []
    for name, p in params.items():
        if not p.requires_grad:
            continue
        for flat in range(p.data.size):
            coords.append((name, flat))
    rng = np.random.default_rng(seed)
    if len(coords) > max_coords:
        pick = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in sorted(pick)]

    worst = 0.0
    for name, flat in coords:
        p = params[name]
        analytic = 0.0 if p.grad is None else float(p.grad.flat[flat])
        orig = float(p.data.flat[flat])
        p.data.flat[flat] = orig + eps
        hi = float(f().data)
        p.data.flat[flat] = orig - eps
        lo = float(f().data)
        p.data.flat[flat] = orig
        numeric = (hi - lo) / (2.0 * eps)
        err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
        worst = max(worst, err)
    return worst
