import gc
import math
import os
import pickle
import platform
import subprocess
import sys
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from trajlm import numerics as nm
from trajlm.model import Causal, ModelConfig, ParallelV2, SplitContext, build_mask, init_params

import oracle


SRC = str(Path(nm.__file__).resolve().parents[1])
GLIBC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def run_python(code, **env):
    """Run `code` in a fresh interpreter that imports trajlm from this tree; its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in GLIBC_VARS} | {"PYTHONPATH": SRC} | env
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def dot(a, b=None):
    """sum(a * b), or sum(a) when b is None, as one tape node: the scalar
    loss these tests put over the ops they check."""
    bd = np.ones_like(a.data) if b is None else b.data

    def bw(g):
        if a.requires_grad:
            nm._accum(a, g * bd)
        if b is not None and b.requires_grad:
            nm._accum(b, g * a.data)

    return nm._node((a.data * bd).sum(), (a,) if b is None else (a, b), bw)


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
    def test_applied_on_glibc(self):
        assert run_python("import trajlm.numerics as nm; print(nm._HEAP_POLICY)") == "True\n"
        if not any(v in os.environ for v in GLIBC_VARS):
            assert nm._HEAP_POLICY is True
            assert nm._keep_heap_mapped() is True  # setting it again is harmless

    @pytest.mark.parametrize("var", GLIBC_VARS)
    def test_glibc_variable_at_start_up_wins(self, var):
        assert run_python("import trajlm.numerics as nm; print(nm._HEAP_POLICY)", **{var: "131072"}) == "False\n"

    def mallopt_calls(self, monkeypatch, returns=1):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return returns

        for var in GLIBC_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(nm.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        return calls

    def test_off_glibc_mallopt_is_not_called(self, monkeypatch):
        calls = self.mallopt_calls(monkeypatch)
        monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("musl", "1.2"))
        assert nm._keep_heap_mapped() is False
        assert calls == []

    def test_refused_value_reports_not_applied(self, monkeypatch):
        calls = self.mallopt_calls(monkeypatch, returns=0)
        monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("glibc", "2.36"))
        assert nm._keep_heap_mapped() is False
        assert calls == [(-3, 32 << 20)]


def randt(rng, *shape, grad=True):
    return nm.Tensor(rng.normal(size=shape), requires_grad=True)


def probs(scores, mask=None):
    """Attention's softmax of (Tq, Tk) scores, through `numerics._probs`,
    masked where mask is False: scores @ identity are the scores exactly."""
    t_q, t_k = scores.shape
    mask = np.ones(scores.shape, dtype=bool) if mask is None else mask
    return nm._probs(scores[None], np.eye(t_k, dtype=scores.dtype)[None], mask, (0, t_q, t_k), 1.0)[0]


class TestForwardOps:
    def test_softmax_symmetry(self):
        y = probs(np.zeros((1, 3)))
        assert np.allclose(y, [1 / 3, 1 / 3, 1 / 3])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        y = probs(rng.normal(size=(10, 7)) * 30)
        assert np.all(np.abs(y.sum(axis=-1) - 1.0) < 1e-12)

    def test_gelu_zero(self):
        assert nm._gelu(np.array([0.0]))[0][0] == 0.0

    def test_tanh_clamp_at_50(self):
        z = nm.range_head(nm.Tensor(np.array([[1000.0]])), nm.Tensor(np.ones((1, 1))), nm.Tensor(np.zeros(1)), 50.0, [0])
        z = z.data[0]
        # 50*tanh(20) equals 50.0 to machine precision; saturation never exceeds the scale
        assert z[0] == 50.0 * math.tanh(20.0)
        assert abs(z[0] - 50.0) < 1e-12
        assert z[0] <= 50.0

    def test_masked_softmax_exact_zero_double(self):
        scores = np.array([[1.0, 2.0, 3.0]])
        y = probs(scores, np.array([[True, False, True]]))
        assert y[0, 1] == 0.0
        assert abs(y[0].sum() - 1.0) < 1e-15

    def test_layer_norm_row_stats(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 10, size=(6, 64))
        y, inv = nm._normalize(x)
        assert inv.shape == (6, 1)
        assert np.all(np.abs(y.mean(axis=-1)) < 1e-9)
        assert np.all(np.abs(y.var(axis=-1) - 1.0) < 1e-6)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 8))
        soft = np.full((5, 8), 1 / 8)
        a = nm.ntp_loss(nm.Tensor(x), np.full(5, 8), soft, 1.0)
        b = nm.ntp_loss(nm.Tensor(x.copy()), np.full(5, 8), soft, 1.0)
        assert np.array_equal(a[0].data, b[0].data) and a[1:] == b[1:]


class TestBackward:
    def test_sum_gives_ones(self):
        x = nm.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        nm.backward(dot(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_dot_gradient(self):
        x = nm.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        y = nm.Tensor(np.array([4.0, 5.0, 6.0]), requires_grad=True)
        nm.backward(dot(x, y))
        assert np.array_equal(x.grad, y.data)
        assert np.array_equal(y.grad, x.data)

    def test_non_scalar_loss_rejected(self):
        x = nm.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            nm.backward(x)

    def test_accumulation_over_reuse(self):
        x = nm.Tensor(np.array([2.0]), requires_grad=True)
        y = nm.add(mul_op(x, x), mul_op(x, x))  # 2x^2, dy/dx = 4x
        nm.backward(dot(y))
        assert np.allclose(x.grad, [8.0])

    def test_first_gradient_is_a_copy(self):
        """The first write stores a copy.  y's rule hands one array to both s
        and x; without the copy, s's rule adding s.grad into x.grad would
        double that shared array, and z would then receive 2, not 1."""
        x = nm.Tensor(np.array([1.0, -3.0]), requires_grad=True)
        z = nm.Tensor(np.array([0.5, 4.0]), requires_grad=True)
        s = nm.add(x, z)
        y = nm.add(s, x)
        nm.backward(dot(y))
        assert np.array_equal(x.grad, [2.0, 2.0])
        assert np.array_equal(z.grad, [1.0, 1.0])
        assert x.grad is not z.grad

    def test_owned_first_write_is_kept_not_copied(self):
        """A rule's own fresh array becomes the first gradient as is, unless
        its dtype differs or the tensor's gradient has a home in a store."""
        x = nm.Tensor(np.zeros(3), requires_grad=True)
        g = np.ones(3)
        nm._accum(x, g, owned=True)
        assert x.grad is g
        x32 = nm.Tensor(np.zeros(3, np.float32), requires_grad=True)
        nm._accum(x32, g, owned=True)
        assert x32.grad.dtype == np.float32 and not np.shares_memory(x32.grad, g)
        store = nm.ParamStore({"w": (3,)}, np.zeros(3))
        w = store.params["w"]
        nm._accum(w, g, owned=True)
        assert np.shares_memory(w.grad, store.grad) and not np.shares_memory(w.grad, g)
        assert np.array_equal(w.grad, g)

    def test_intermediates_drop_their_gradients(self):
        """After backward only leaves hold `.grad`; the walked nodes hold no
        gradient, rule or parents."""
        x = nm.Tensor(np.array([1.0, -3.0]), requires_grad=True)
        y = mul_op(x, x)
        loss = dot(y)
        nm.backward(loss)
        assert np.array_equal(x.grad, [2.0, -6.0])
        for node in (y, loss):
            assert node.grad is None and node._parents == ()

    def test_second_backward_over_a_used_tape_raises(self):
        x = nm.Tensor(np.array([1.0, -3.0]), requires_grad=True)
        y = mul_op(x, x)
        loss = dot(y)
        nm.backward(loss)
        with pytest.raises(ValueError, match="already used"):
            nm.backward(loss)
        with pytest.raises(ValueError, match="already used"):
            nm.backward(dot(y))  # a new loss over a walked node
        assert np.array_equal(x.grad, [2.0, -6.0])

    def test_scalar_leaf_is_its_own_loss(self):
        w = nm.Tensor(np.array(3.0), requires_grad=True)
        for _ in range(2):
            nm.backward(w)
            assert w.grad == 1.0


class _CountingArray(np.ndarray):
    """An array that counts the ufunc calls it takes part in, by ufunc."""

    calls: dict = {}

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountingArray.calls[ufunc.__name__] = _CountingArray.calls.get(ufunc.__name__, 0) + 1
        inputs = tuple(np.asarray(x) for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestParamStore:
    def store(self, rng, dtype=np.float64):
        shapes = {"table": (5, 3), "w": (3, 2), "b": (2,)}
        store = nm.ParamStore(shapes, rng.normal(size=sum(math.prod(s) for s in shapes.values())).astype(dtype))
        return store, store.params

    def test_tensors_view_the_flat_vector_in_order(self):
        store, params = self.store(np.random.default_rng(0))
        assert store.bounds == [0, 15, 21, 23]
        for p, a, b in zip(params.values(), store.bounds, store.bounds[1:]):
            assert np.shares_memory(p.data, store.data)
            assert np.array_equal(p.data.ravel(), store.data[a:b])
        assert store.grad is None  # allocated on the first gradient write

    def test_first_write_lands_in_the_flat_gradient_as_a_copy(self):
        """The store version of test_first_gradient_is_a_copy: y's rule hands
        one array to s and x, and x's first write must copy it into x's slice."""
        store, params = self.store(np.random.default_rng(1))
        x, z = params["b"], nm.Tensor(np.array([0.5, 4.0]), requires_grad=True)
        y = nm.add(nm.add(x, z), x)
        nm.backward(dot(y))
        assert x.grad is store.grad_view(x)
        assert np.shares_memory(x.grad, store.grad)
        assert np.array_equal(x.grad, [2.0, 2.0])
        assert np.array_equal(z.grad, [1.0, 1.0])

    def test_scatter_zero_fills_its_slice_after_grad_none(self):
        """`_grad_buffer` zero-fills a tensor's slice before a scatter, so what
        the slice held from an earlier pass never leaks into the gradient."""
        store, params = self.store(np.random.default_rng(2))
        table = params["table"]
        nm.backward(dot(embedding_op(table, [1, 1, 4])))
        table.grad = None
        store.grad_view(table)[...] = np.nan
        nm.backward(dot(embedding_op(table, [0, 2])))
        expected = np.zeros((5, 3))
        expected[[0, 2]] = 1.0
        assert np.array_equal(table.grad, expected)
        assert table.grad is store.grad_view(table)

    def test_untracked_parameter_gets_no_gradient(self):
        store, params = self.store(np.random.default_rng(3))
        params["w"].requires_grad = False
        x = nm.Tensor(np.ones((4, 3)))
        nm.backward(dot(linear_op(x, params["w"], params["b"])))
        assert params["w"].grad is None
        assert np.array_equal(params["b"].grad, [4.0, 4.0])

    @pytest.mark.parametrize("tracked", [True, False])
    def test_constant_operand_skips_its_product(self, tracked, monkeypatch):
        """`embed_block`'s backward multiplies a constant feature array into
        the gradient only for a projection that requires grad, rebuilding the
        continuous features only then, and the tracked projection's gradient
        is the same product as ever."""
        tables, ids, cont_values, cont_proj, pos, age_feat, age_proj, sex, sex_id = embed_operands(np.float64, seed=4)
        features, built = nm.sinusoid_features, []
        monkeypatch.setattr(nm, "sinusoid_features", lambda *a: built.append(features(*a).view(_CountingArray)) or built[-1])
        age_feat = age_feat.view(_CountingArray)
        cont_proj.requires_grad = age_proj.requires_grad = tracked
        _CountingArray.calls = {}
        y = nm.embed_block(tables, ids, cont_values, cont_proj, pos, age_feat, age_proj, sex, sex_id)
        g = np.random.default_rng(5).normal(size=y.shape)
        nm.backward(dot(y, nm.Tensor(g)))
        # the two forward products, and one backward product per tracked projection
        assert _CountingArray.calls.get("matmul") == (4 if tracked else 2)
        assert len(built) == (2 if tracked else 1)
        if tracked:
            assert np.array_equal(cont_proj.grad, features(cont_values, 4).T @ g)
            assert np.array_equal(age_proj.grad, np.asarray(age_feat).T @ g.sum(axis=0, keepdims=True))
        else:
            assert cont_proj.grad is None and age_proj.grad is None
        assert tables[0].grad is not None

    def test_hand_built_dict_is_copied_into_one_store(self):
        a = nm.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = nm.Tensor(np.ones((2, 2)), requires_grad=True)
        a.grad = np.array([0.5, 0.5])
        params = {"a": a, "b": b}
        store = nm.ParamStore.of(params)
        assert nm.ParamStore.of(params) is store and nm.ParamStore.find(dict(params)) is store
        assert store.params["a"] is a and np.array_equal(store.data, [1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        assert np.shares_memory(a.data, store.data) and np.shares_memory(b.data, store.data)
        assert np.array_equal(a.grad, [0.5, 0.5])  # kept as it was
        with pytest.raises(ValueError, match="'b' already belongs"):
            nm.ParamStore.of({"b": b})

    def test_pickled_parameters_leave_the_store_behind(self):
        """A params dict sent to a worker process carries each tensor's data
        once, not the flat vector besides, and unpickles as plain tensors."""
        store = nm.ParamStore({"w": (100, 50), "b": (50,)}, np.random.default_rng(5).normal(size=5050))
        params = store.params
        params["b"].grad = np.ones(50)
        blob = pickle.dumps(params)
        assert len(blob) < 1.2 * store.data.nbytes
        copies = pickle.loads(blob)
        for name, p in copies.items():
            assert p._store is None and p.requires_grad
            assert np.array_equal(p.data, params[name].data)
        assert np.array_equal(copies["b"].grad, np.ones(50)) and copies["w"].grad is None

    def test_dropped_params_free_their_vectors_without_the_collector(self):
        """Each tensor holds its store and the store holds its tensors
        weakly, so reference counting alone frees a dropped params dict's
        flat vectors: no cycle waits for the cyclic collector."""
        c = ModelConfig(vocab_size=9, n_modalities=2, d_model=8, n_layers=1, n_heads=2, d_head=4, cont_pe_dim=4, max_seq_len=16)
        gc.collect()
        gc.disable()
        try:
            params = init_params(c, np.random.default_rng(0))
            nm.backward(dot(params["tok_embed"]))
            store = nm.ParamStore.find(params)
            data, grad = weakref.ref(store.data), weakref.ref(store.grad)
            del store
            assert data() is not None and grad() is not None
            del params
            assert data() is None and grad() is None
        finally:
            gc.enable()

    def test_a_dropped_tensor_is_made_again(self):
        """Reading `params` after a tensor is gone makes a fresh view of its
        slice, which the store finds and writes gradients for."""
        store, params = self.store(np.random.default_rng(6))
        params["w"].grad = np.ones((3, 2))
        del params["w"]
        again = store.params
        w = again["w"]
        assert np.shares_memory(w.data, store.data) and w.requires_grad and w.grad is None
        assert again["table"] is params["table"] and nm.ParamStore.find(again) is store
        nm.backward(dot(w))
        assert w.grad is store.grad_view(w) and np.array_equal(w.grad, np.ones((3, 2)))

    def test_flat_vector_must_fit_the_shapes(self):
        with pytest.raises(ValueError, match="flat vector"):
            nm.ParamStore({"w": (2, 3)}, np.zeros(5))


def random_targets(widths, rng, continuous=None):
    """`numerics.ntp_loss` targets of the given widths: soft distributions,
    zero past each width, and the MAE tuple (mids, truth, weight, n_mae),
    weight 0 where `continuous` (default: every target) is False."""
    widths = np.asarray(widths)
    valid = np.arange(widths.max()) < widths[:, None]
    soft = np.where(valid, rng.random(valid.shape), 0.0)
    soft /= soft.sum(axis=1, keepdims=True)
    cont = np.ones(len(widths), dtype=bool) if continuous is None else np.asarray(continuous)
    mids = np.where(valid & cont[:, None], np.cumsum(rng.random(valid.shape), axis=1), 0.0)
    truth = np.where(cont, rng.normal(size=len(widths)) + 1.0, 0.0)
    weight = np.where(cont, 1.0 / rng.uniform(0.5, 2.0, size=len(widths)), 0.0)
    return soft, (mids, truth, weight, int(cont.sum()))


def loss_through_every_op(rng):
    """A scalar loss whose tape holds every op, and a weakref to the array of
    its first intermediate, upstream of all the others."""
    tables, ids, cont_values, cont_proj, pos, age_feat, age_proj, sex, sex_id = embed_operands(np.float64, seed=58)
    x = nm.embed_block(tables, ids, cont_values, cont_proj, pos, age_feat, age_proj, sex, sex_id)
    upstream = weakref.ref(x.data)
    d = x.shape[1]
    gain, bias = (nm.Tensor(rng.normal(size=d), requires_grad=True) for _ in range(2))
    projections = [nm.Tensor(rng.normal(size=(d, 4)), requires_grad=True) for _ in range(4)]
    gates, w_o = nm.Tensor(rng.normal(size=(1, 2)), requires_grad=True), nm.Tensor(rng.normal(size=(4, d)), requires_grad=True)
    causal = np.tril(np.ones((len(ids), len(ids)), dtype=bool))
    x = nm.attention_block(x, gain, bias, projections, gates, w_o, causal, 2, 0.7, 0.25, rng)
    mlp = [nm.Tensor(rng.normal(size=s), requires_grad=True) for s in ((d, d), (d,), (d, d), (d,))]
    x = nm.ffn_block(x, gain, bias, *mlp, 0.25, rng)
    x = nm.query_block(x, tables[1:], ids[:, 1:], mlp, mlp)
    w, b = nm.Tensor(rng.normal(size=(d, 8)), requires_grad=True), nm.Tensor(rng.normal(size=8), requires_grad=True)
    rows, starts, widths = [0, 1, 3], [0, 2, 4], [4, 3, 1]
    soft, mae = random_targets(widths, rng)
    full = nm.range_head(x, w, b, 2.0, np.arange(len(ids)))
    block = nm.range_head(x, w, b, 2.0, rows, starts, widths)
    loss = nm.add(
        nm.ntp_loss(gather_op(full, rows, starts, widths), widths, soft, 1.0, mae, 0.5)[0],
        nm.ntp_loss(block, widths, soft, 0.7)[0],
    )
    return loss, upstream


class TestTape:
    def test_dropped_loss_frees_its_tape(self):
        """No backward rule holds its own output, so the tape has no cycles:
        with the cyclic collector off, backward frees every node while the
        loss is still held, and dropping a loss without backward frees them
        too."""
        gc.disable()
        try:
            loss, upstream = loss_through_every_op(np.random.default_rng(30))
            assert loss.requires_grad and upstream() is not None
            nm.backward(loss)
            assert upstream() is None
            assert np.isfinite(float(loss.data))
            loss, upstream = loss_through_every_op(np.random.default_rng(30))
            assert upstream() is not None
            del loss
            assert upstream() is None
        finally:
            gc.enable()

    def test_untracked_inputs_record_no_tape(self):
        rng = np.random.default_rng(31)
        x = nm.Tensor(rng.normal(size=(4, 4)))
        row = nm.Tensor(rng.normal(size=4))
        gates = nm.Tensor(rng.normal(size=(1, 2)))
        outs = [
            nm.add(x, row),
            nm.embed_block([x, x, x], [[0, 1, 2], [3, 3, 0]], np.ones(2), x, np.ones((2, 4)), np.ones((1, 4)), x, x, 2),
            nm.attention_block(x, row, row, [x, x, x, x], gates, x, np.ones((4, 4), dtype=bool), 2, 0.7, 0.5, rng),
            nm.ffn_block(x, row, row, x, row, x, row, 0.5, rng),
            nm.query_block(x, [x, x], [[0, 1], [3, 3], [1, 1], [2, 0]], [x, row, x, row], [x, row, x, row]),
            nm.range_head(x, x, row, 3.0, [1, 2]),
            nm.ntp_loss(gather_op(x, [0, 2], [1, 0], [2, 4]), [2, 4], NTP_SOFT, 1.0, NTP_MAE, 1.0)[0],
        ]
        for y in outs:
            assert not y.requires_grad and y._parents == () and y._backward is None


# ntp_loss targets of widths 2 and 4, and of widths 2, 4 and 1 with the last categorical
NTP_SOFT, NTP_MAE = random_targets([2, 4], np.random.default_rng(9))
RAGGED_SOFT, RAGGED_MAE = random_targets([2, 4, 1], np.random.default_rng(10), [True, True, False])

# an ffn_block's gain, bias, w1, b1, w2 and b2 over inputs of width 4
FFN_CONSTANTS = [nm.Tensor(np.random.default_rng(8).normal(size=s)) for s in ((4,), (4,), (4, 6), (6,), (6, 4), (4,))]

# an output head over inputs of width 4 and 5 columns, a hidden state and a
# query MLP of width 4, and an embedding's constant features (3 positions)
HEAD_W, HEAD_B, QUERY_H, *QUERY_MLP = (
    nm.Tensor(np.random.default_rng(11).normal(size=s)) for s in ((4, 5), (5,), (3, 4), (4, 4), (4,), (4, 4), (4,))
)
EMBED_VALUES, EMBED_POS, EMBED_AGE = (np.random.default_rng(12).normal(size=s) for s in ((3,), (3, 4), (1, 2)))


class TestGradCheck:
    def test_quadratic_exact(self):
        w = nm.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        err = nm.grad_check(lambda: dot(w, w), {"w": w})
        assert err < 1e-9

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(3)
        w = nm.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        x = nm.Tensor(rng.normal(size=(5, 4)))
        onehot = np.zeros((5, 6))
        onehot[np.arange(5), rng.integers(0, 6, 5)] = 1.0

        def f():
            return nm.ntp_loss(matmul_op(x, w), np.full(5, 6), onehot, 1.0)[0]

        assert nm.grad_check(f, {"w": w}) < 1e-6

    def test_three_layer_mlp(self):
        rng = np.random.default_rng(4)
        params = {
            "w1": randt(rng, 4, 16),
            "b1": nm.Tensor(np.zeros(16), requires_grad=True),
            "w2": randt(rng, 16, 16),
            "b2": nm.Tensor(np.zeros(16), requires_grad=True),
            "w3": randt(rng, 16, 2),
        }
        x = nm.Tensor(rng.normal(size=(6, 4)))

        def f():
            h = gelu_op(linear_op(x, params["w1"], params["b1"]))
            h = nm.range_head(h, params["w2"], params["b2"], 1.0, np.arange(6))  # tanh
            return dot(matmul_op(h, params["w3"]), matmul_op(h, params["w3"]))

        assert nm.grad_check(f, params) < 1e-4

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: nm.range_head(x, HEAD_W, HEAD_B, 0.8, [1, 0, 1], [1, 0, 3], [2, 4, 1]),
            lambda x: nm.query_block(QUERY_H, [x, mul_op(x, x)], [[1, 0], [0, 1], [1, 1]], QUERY_MLP, QUERY_MLP),
            lambda x: nm.ntp_loss(gather_op(x, [1, 0], [1, 0], [2, 4]), [2, 4], NTP_SOFT, 1.3)[0],
            lambda x: nm.ntp_loss(gather_op(x, [1, 0], [1, 0], [2, 4]), [2, 4], NTP_SOFT, 1.3, NTP_MAE, 0.6)[0],
            lambda x: nm.add(x, nm.Tensor(np.array(0.1))),
            lambda x: nm.ffn_block(mul_op(x, x), *FFN_CONSTANTS, 0.5, np.random.default_rng(7)),
            lambda x: nm.embed_block(
                [x, mul_op(x, x), x], [[1, 0, 1], [0, 0, 1], [1, 1, 0]], EMBED_VALUES, x, EMBED_POS, EMBED_AGE, x,
                mul_op(x, x), 1,
            ),
            lambda x: nm.ntp_loss(
                gather_op(mul_op(x, x), [1, 0, 1], [1, 0, 3], [2, 4, 1]), [2, 4, 1], RAGGED_SOFT, 1.3, RAGGED_MAE, 0.6
            )[0],
        ],
    )
    def test_each_op(self, op):
        rng = np.random.default_rng(5)
        x = nm.Tensor(rng.normal(size=(2, 4)), requires_grad=True)

        def f():
            return dot(op(x), nm.Tensor(np.full(op(x).shape, 0.7)))

        assert nm.grad_check(f, {"x": x}) < 1e-6

    def test_embedding_scatter(self):
        rng = np.random.default_rng(6)
        table = nm.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = np.array([[0, 4, 2], [2, 2, 2], [2, 0, 4], [4, 2, 0]])
        proj, sex = nm.Tensor(np.ones((2, 3))), nm.Tensor(np.ones((1, 3)))
        zeros = np.zeros((4, 3))

        def f():
            # embed_block's three lookups into one table, repeated ids in each
            y = nm.embed_block([table] * 3, ids, zeros[:, 0], proj, zeros, zeros[:1, :2], proj, sex, 0)
            return dot(y, y)

        assert nm.grad_check(f, {"table": table}) < 1e-6

    def test_batched_matmul(self):
        """The reference chains' product, over stacked operands as attention's chain uses it."""
        rng = np.random.default_rng(7)
        a = nm.Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        b = nm.Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)

        def f():
            y = matmul_op(a, b)
            return dot(y, y)

        assert nm.grad_check(f, {"a": a, "b": b}) < 1e-6

    def test_broadcast_add(self):
        rng = np.random.default_rng(8)
        a = nm.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b = nm.Tensor(rng.normal(size=(1, 6)), requires_grad=True)
        c = nm.Tensor(rng.normal(size=(6,)), requires_grad=True)

        def f():
            y = nm.add(nm.add(a, b), c)
            return dot(y, y)

        assert nm.grad_check(f, {"a": a, "b": b, "c": c}) < 1e-6

    def test_nonfinite_loss_rejected(self):
        w = nm.Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError, match="non-finite"):
            nm.grad_check(lambda: nm.Tensor(np.array(np.nan)), {"w": w})


class TestPrecisionPolicy:
    def test_single_precision_mask_zero(self):
        scores = np.array([[0.5, 1.5]], dtype=np.float32)
        y = probs(scores, np.array([[True, False]]))
        assert y.dtype == np.float32
        assert y[0, 1] == 0.0

    def test_gelu_single_matches_double_within_tolerance(self):
        """One GELU rule in both precisions: float32 is float64 rounded, and
        both stay within the tanh approximation's error of the exact x Phi(x)."""
        x = np.linspace(-4, 4, 101)
        exact = np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
        double = nm._gelu(x)[0]
        single = nm._gelu(x.astype(np.float32))[0]
        assert np.max(np.abs(double - exact)) < 1e-3
        assert np.max(np.abs(single - double)) < 1e-6

    def test_gelu_single_is_the_closed_form_bitwise(self):
        """The float32 rules evaluate the tanh form and its derivative in the
        order of the closed form written out here, so every bit is kept."""
        rng = np.random.default_rng(40)
        x = (3.0 * rng.normal(size=(64, 48))).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        c = math.sqrt(2.0 / math.pi)
        t = np.tanh(c * (x + 0.044715 * (x * x * x)))
        dinner = c * (1.0 + 3 * 0.044715 * x * x)
        a = nm.Tensor(x, requires_grad=True)
        y = gelu_op(a)
        nm.backward(dot(y, nm.Tensor(g)))
        assert np.array_equal(y.data, 0.5 * x * (1.0 + t))
        assert a.grad.dtype == np.float32
        assert np.array_equal(a.grad, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner))

    def test_gelu_single_in_row_chunks_is_the_closed_form_bitwise(self):
        """Inputs of several `_GELU_ROWS`-row chunks, the last one short:
        every chunk runs the closed form's operations, so both rules stay
        bitwise the same as one pass over the whole array."""
        rng = np.random.default_rng(42)
        x = (3.0 * rng.normal(size=(2 * nm._GELU_ROWS + 37, 24))).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        c = math.sqrt(2.0 / math.pi)
        t = np.tanh(c * (x + 0.044715 * (x * x * x)))
        dinner = c * (1.0 + 3 * 0.044715 * x * x)
        y, s = nm._gelu(x)
        assert s is None  # each chunk's tanh is recomputed, not kept
        assert np.array_equal(y, 0.5 * x * (1.0 + t))
        want = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)
        assert np.array_equal(nm._gelu_grad(x, None, g), want)

    def test_gelu_single_keeps_only_its_output(self):
        """The float32 rules recompute tanh in backward, as the MLP blocks
        do: the tape holds y alone, and backward holds y's gradient and
        three buffers at most (the closed form evaluated directly holds six)."""
        x = nm.Tensor(np.random.default_rng(41).normal(size=(256, 512)).astype(np.float32), requires_grad=True)
        n = x.data.nbytes
        tracemalloc.start()
        try:
            y = gelu_op(x)
            held, _ = tracemalloc.get_traced_memory()
            loss = dot(y)
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            nm.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n <= held < 1.5 * n
        assert peak - start < 4.5 * n


class TestRangeHead:
    # rows 2 and 4 repeat row 2's range, rows 0 and 1 share (4, 2); widths
    # run from 1 to the full 9 columns
    ROWS = np.array([2, 0, 2, 1, 3, 4])
    STARTS = np.array([1, 4, 1, 4, 8, 0])
    WIDTHS = np.array([3, 2, 3, 2, 1, 9])

    def operands(self, seed=20):
        rng = np.random.default_rng(seed)
        return randt(rng, 5, 3), randt(rng, 3, 9), randt(rng, 9)

    def test_entries_and_zero_padding(self):
        h, w, b = self.operands()
        full = 2.0 * np.tanh((h.data @ w.data + b.data) / 2.0)
        z = nm.range_head(h, w, b, 2.0, self.ROWS, self.STARTS, self.WIDTHS).data
        assert z.shape == (6, 9)
        for i, (r, s, k) in enumerate(zip(self.ROWS, self.STARTS, self.WIDTHS)):
            assert np.allclose(z[i, :k], full[r, s : s + k], rtol=0, atol=1e-12)
            assert np.all(z[i, k:] == 0.0)

    def test_gradcheck(self):
        h, w, b = self.operands()
        weight = nm.Tensor(np.random.default_rng(21).normal(size=(6, 9)))

        def f():
            return dot(nm.range_head(h, w, b, 1.0, self.ROWS, self.STARTS, self.WIDTHS), weight)

        assert nm.grad_check(f, {"h": h, "w": w, "b": b}) < 1e-6

    def test_empty_selection(self):
        h, w, b = self.operands()
        z = nm.range_head(h, w, b, 1.0, np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))
        assert z.shape == (0, 0)

        def f():
            # the empty head adds nothing to a loss on h alone
            return nm.add(dot(nm.range_head(h, w, b, 1.0, [], [], [])), dot(h, h))

        assert nm.grad_check(f, {"h": h, "w": w, "b": b}) < 1e-6
        assert not np.any(w.grad) and not np.any(b.grad)

    def test_default_is_matmul_plus_bias_bitwise(self):
        """The full head that `model.forward` asks for by default, every row
        at every column, is the chain matmul, bias add and clamp bit for bit."""
        h, w, b = self.operands()
        ref = scale_op(tanh_op(scale_op(linear_op(h, w, b), 1.0 / 3.0)), 3.0)
        nm.backward(dot(ref, ref))
        grads = [p.grad.copy() for p in (h, w, b)]
        for p in (h, w, b):
            p.zero_grad()
        z = nm.range_head(h, w, b, 3.0, np.arange(5))
        nm.backward(dot(z, z))
        assert np.array_equal(z.data, ref.data)
        for p, g in zip((h, w, b), grads):
            assert np.array_equal(p.grad, g)

    def test_one_shared_range_keeps_row_order(self):
        h, w, b = self.operands()
        z = nm.range_head(h, w, b, 4.0, np.array([4, 0, 4]))
        assert np.allclose(z.data, 4.0 * np.tanh((h.data @ w.data + b.data)[[4, 0, 4]] / 4.0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows, starts, widths", [
        ([5], [0], [1]),
        ([0], [0], [0]),
        ([0], [8], [2]),
        ([0, 1], [0], [1, 1]),
    ])
    def test_bad_selection_rejected(self, rows, starts, widths):
        h, w, b = self.operands()
        with pytest.raises((IndexError, ValueError)):
            nm.range_head(h, w, b, 1.0, rows, starts, widths)


class TestNtpLoss:
    """`ntp_loss` against `oracle.soft_ce_mae`, which shares no code with
    numerics, over the padded head block and over the block `gather_op`
    selects from full logits rows."""

    # rows repeat, widths run from 1 to the widest (7) of a 12-token space,
    # and targets 3 and 6 are categorical
    ROWS = np.array([0, 2, 2, 5, 1, 3, 4])
    STARTS = np.array([0, 4, 1, 9, 5, 2, 5])
    WIDTHS = np.array([1, 3, 5, 2, 7, 4, 1])
    MIXED = np.array([True, True, True, False, True, True, False])

    def inputs(self, layout, continuous, seed=70):
        """The logits in the layout, the function from their tensor to the
        block ntp_loss scores, soft targets, the MAE tuple, and the oracle's
        (CE, MAE).  The head block's padding holds 30, above every logit, so
        a loss that read it would miss the oracle."""
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(6, 12)) * 3
        soft, mae = random_targets(self.WIDTHS, rng, continuous)
        mids, truth, weight, _ = mae
        targets = [
            (r, s, k, soft[i, :k], mids[i, :k] if continuous[i] else None, truth[i], weight[i])
            for i, (r, s, k) in enumerate(zip(self.ROWS, self.STARTS, self.WIDTHS))
        ]
        want = oracle.soft_ce_mae(logits, targets)
        if layout == "full":
            return logits, lambda x: gather_op(x, self.ROWS, self.STARTS, self.WIDTHS), soft, mae, want
        block = np.full((len(self.ROWS), self.WIDTHS.max()), 30.0)
        for i, (r, s, k) in enumerate(zip(self.ROWS, self.STARTS, self.WIDTHS)):
            block[i, :k] = logits[r, s : s + k]
        return block, lambda x: x, soft, mae, want

    @pytest.mark.parametrize("layout", ["full", "block"])
    @pytest.mark.parametrize(
        "continuous, mae_scale",
        [(MIXED, 1.7), (np.zeros(7, dtype=bool), 1.7), (MIXED, 0.0), (MIXED, None)],
        ids=["mixed", "n_mae-0", "mae-weight-0", "no-mae-term"],
    )
    def test_matches_the_oracle(self, layout, continuous, mae_scale):
        logits, select, soft, mae, (want_ce, want_mae) = self.inputs(layout, continuous)
        if mae_scale is None:
            mae, mae_scale, want_mae = None, 0.0, 0.0
        x = nm.Tensor(logits, requires_grad=True)
        loss, ce, mae_value = nm.ntp_loss(select(x), self.WIDTHS, soft, 0.8, mae, mae_scale)
        assert abs(ce - want_ce) <= 1e-12
        assert abs(mae_value - want_mae) <= 1e-12
        assert abs(float(loss.data) - (0.8 * want_ce + mae_scale * want_mae)) <= 1e-12

    @pytest.mark.parametrize("layout", ["full", "block"])
    def test_gradcheck(self, layout):
        """Padded block entries get exactly 0, analytic and numeric."""
        logits, select, soft, mae, _ = self.inputs(layout, self.MIXED)
        x = nm.Tensor(logits, requires_grad=True)

        def f():
            return nm.ntp_loss(select(x), self.WIDTHS, soft, 0.8, mae, 1.7)[0]

        assert nm.grad_check(f, {"x": x}) < 1e-6
        if layout == "block":
            assert np.all(x.grad[np.arange(x.shape[1]) >= self.WIDTHS[:, None]] == 0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_padded_column_gets_probability_exactly_zero(self, dtype):
        """A width-1 categorical row padded to 4 columns puts probability
        exactly 1 on its token, so its gradient is exactly 0, and a width-2
        row with equal logits puts exactly 1/2 on each bin, so its expected
        value is the truth 2 and the MAE exactly 0."""
        block = np.array([[5.0, 30.0, 30.0, 30.0], [0.0, 0.0, 30.0, 30.0], [1.0, -2.0, 0.5, 3.0]], dtype=dtype)
        x = nm.Tensor(block, requires_grad=True)
        widths = np.array([1, 2, 4])
        soft = np.array([[1.0, 0, 0, 0], [0.3, 0.7, 0, 0], [0.1, 0.2, 0.3, 0.4]])
        mids = np.array([[0.0, 0, 0, 0], [1.0, 3.0, 0, 0], [0, 0, 0, 0]])
        mae = (mids, np.array([0.0, 2.0, 0.0]), np.array([0.0, 0.5, 0.0]), 1)
        loss, ce, mae_value = nm.ntp_loss(x, widths, soft, 1.0, mae, 1.0)
        assert loss.dtype == dtype and math.isfinite(ce)
        assert mae_value == 0.0
        nm.backward(loss)
        assert np.all(x.grad[0] == 0.0)
        assert np.all(x.grad[1, 2:] == 0.0) and np.any(x.grad[1, :2] != 0.0)

    def test_no_targets_is_an_untracked_zero(self):
        x = nm.Tensor(np.ones((0, 0)), requires_grad=True)
        loss, ce, mae_value = nm.ntp_loss(x, [], np.zeros((0, 0)), 1.0, NTP_MAE, 1.0)
        assert float(loss.data) == 0.0 and not loss.requires_grad
        assert (ce, mae_value) == (0.0, 0.0)

    @pytest.mark.parametrize("shape, widths", [
        ((2, 4), [2, 0]),
        ((2, 4), [2, 5]),
        ((2, 4), [2, 4, 1]),
        ((3, 4), [2, 4]),
        ((4,), [4]),
    ])
    def test_widths_must_fit_the_block(self, shape, widths):
        with pytest.raises(ValueError, match="cannot hold"):
            nm.ntp_loss(nm.Tensor(np.zeros(shape)), widths, np.ones((len(widths), 4)), 1.0)


def gather_op(a, rows, starts, widths):
    """A ragged selection of full logits as one node, the reference route
    from full logits to the block `ntp_loss` scores: row i holds a[rows[i],
    starts[i] : starts[i] + widths[i]], zero past the width as `range_head`
    pads it."""
    widths = np.asarray(widths)
    span = np.arange(widths.max(initial=0))
    valid = span < widths[:, None]
    r = np.broadcast_to(np.asarray(rows)[:, None], valid.shape)[valid]
    c = (np.asarray(starts)[:, None] + span)[valid]
    block = np.zeros(valid.shape, dtype=a.data.dtype)
    block[valid] = a.data[r, c]
    return nm._node(block, (a,), lambda g: nm._accum_at(a, (r, c), g[valid]))


def scale_op(a, c):
    """The scaling op that the head's clamp and attention absorbed, kept
    here as their reference chains' link."""
    return nm._node(a.data * c, (a,), lambda g: nm._accum(a, g * c))


def mul_op(a, b):
    """The elementwise product op the attention block absorbed."""

    def bw(g):
        if a.requires_grad:
            nm._accum(a, g * b.data)
        if b.requires_grad:
            nm._accum(b, g * a.data)

    return nm._node(a.data * b.data, (a, b), bw)


def matmul_op(a, b):
    """The matrix product op the stage nodes absorbed, over 2-d or stacked
    3-d operands; an untracked operand gets no product."""

    def bw(g):
        if a.requires_grad:
            nm._accum(a, g @ np.swapaxes(b.data, -1, -2), owned=True)
        if b.requires_grad:
            nm._accum(b, np.swapaxes(a.data, -1, -2) @ g, owned=True)

    return nm._node(a.data @ b.data, (a, b), bw)


def linear_op(x, w, b):
    """x @ w + b as the chain the MLPs and the head absorbed."""
    return nm.add(matmul_op(x, w), b)


def embedding_op(table, ids):
    """The table lookup op the stage nodes absorbed."""
    ids = np.asarray(ids, dtype=np.int64)
    return nm._node(table.data[ids], (table,), lambda g: nm._accum_at(table, ids, g))


def gelu_op(a):
    """The GELU op the MLPs absorbed, on numerics' GELU rules; the rule
    recomputes the tanh, so the tape keeps only the output."""
    x = a.data
    return nm._node(nm._gelu(x)[0], (a,), lambda g: nm._accum(a, nm._gelu_grad(x, nm._gelu_tanh(x), g), owned=True))


def softmax_op(a):
    """The softmax op over the last axis that attention absorbed."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        nm._accum(a, y * (g - dot))

    return nm._node(y, (a,), bw)


def tanh_op(a):
    """The tanh op the head's clamp replaced, kept here as its reference."""
    y = np.tanh(a.data)
    return nm._node(y, (a,), lambda g: nm._accum(a, g * (1.0 - y * y)))


# ids with repeats in every column, so the scatters accumulate
TABLE_IDS = np.array([[0, 3, 1], [2, 3, 0], [2, 1, 1], [0, 0, 4], [2, 3, 0]])

# embed_block over five positions: token and modality ids, then three time
# tables' (TABLE_IDS); leaves tok, mod, three time tables, cont_proj,
# age_proj and sex (its row 2 read), all of width 6
EMBED_IDS = np.column_stack([[4, 0, 4, 2, 1], [1, 3, 3, 0, 1], TABLE_IDS])
EMBED_SHAPES = [(5, 6), (4, 6), (3, 6), (4, 6), (5, 6), (4, 6), (4, 6), (3, 6)]
CONT_VALUES, POS, AGE_FEAT = (np.random.default_rng(56).normal(size=s) for s in ((5,), (5, 6), (1, 4)))


def embed_node(tok, mod, t0, t1, t2, cont_proj, age_proj, sex):
    dt = tok.dtype
    return nm.embed_block(
        [tok, mod, t0, t1, t2], EMBED_IDS, CONT_VALUES, cont_proj, POS.astype(dt), AGE_FEAT.astype(dt),
        age_proj, sex, 2,
    )


def embed_chain(tok, mod, t0, t1, t2, cont_proj, age_proj, sex):
    """The op chain `embed_block` replaced, in `model.embed_inputs`' old order."""
    dt, ids = tok.dtype, EMBED_IDS
    h = nm.add(embedding_op(tok, ids[:, 0]), matmul_op(nm.Tensor(nm.sinusoid_features(CONT_VALUES, 4, dt)), cont_proj))
    h = nm.add(h, embedding_op(mod, ids[:, 1]))
    times = nm.add(nm.add(embedding_op(t0, ids[:, 2]), embedding_op(t1, ids[:, 3])), embedding_op(t2, ids[:, 4]))
    h = nm.add(nm.add(h, times), nm.Tensor(POS.astype(dt)))
    demo = nm.add(matmul_op(nm.Tensor(AGE_FEAT.astype(dt)), age_proj), embedding_op(sex, [2]))
    return nm.add(h, demo)


def embed_operands(dtype, seed):
    """Fresh tracked leaves for `embed_block`, as its arguments."""
    rng = np.random.default_rng(seed)
    leaves = [nm.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in EMBED_SHAPES]
    return (
        leaves[:5], EMBED_IDS, CONT_VALUES, leaves[5], POS.astype(dtype), AGE_FEAT.astype(dtype),
        leaves[6], leaves[7], 2,
    )


# query_block over five positions: modality ids, then three time tables';
# leaves h, mod, three time tables and two MLPs (w1, b1, w2, b2) of width 6
QUERY_IDS = np.column_stack([[2, 0, 3, 3, 1], TABLE_IDS])
QUERY_SHAPES = [(5, 6), (4, 6), (3, 6), (4, 6), (5, 6)] + 2 * [(6, 6), (6,), (6, 6), (6,)]


def query_node(h, mod, t0, t1, t2, *mlps):
    return nm.query_block(h, [mod, t0, t1, t2], QUERY_IDS, mlps[:4], mlps[4:])


def query_chain(h, mod, t0, t1, t2, *mlps):
    """The op chain `query_block` replaced, in `model.forward`'s old order."""

    def mlp(x, w1, b1, w2, b2):
        return linear_op(gelu_op(linear_op(x, w1, b1)), w2, b2)

    q_mod = mlp(embedding_op(mod, QUERY_IDS[:, 0]), *mlps[:4])
    times = nm.add(
        nm.add(embedding_op(t0, QUERY_IDS[:, 1]), embedding_op(t1, QUERY_IDS[:, 2])), embedding_op(t2, QUERY_IDS[:, 3])
    )
    return nm.add(nm.add(h, q_mod), mlp(times, *mlps[4:]))


# (stage node, the chain it replaces, operand shapes), keyed by the fused
# single-node op whose chain each stage node took over: `linear` (the query
# MLPs' layers) in query_block, `embedding_sum` (the time lookups, with the
# other lookups and feature products) in embed_block, and `clamp` in the
# full-width range_head
FUSED = {
    "linear": (query_node, query_chain, QUERY_SHAPES),
    "embedding_sum": (embed_node, embed_chain, EMBED_SHAPES),
    "clamp": (
        lambda h, w, b: nm.range_head(h, w, b, 5.0, np.arange(7)),
        lambda h, w, b: scale_op(tanh_op(scale_op(linear_op(h, w, b), 1.0 / 5.0)), 5.0),
        [(7, 5), (5, 9), (9,)],
    ),
}


class TestFusedOps:
    """Each stage node against the chain of ops it replaces."""

    def operands(self, shapes, dtype, seed=50):
        rng = np.random.default_rng(seed)
        # spread over decades so a changed rounding order would show
        return [(rng.normal(size=s) * 10.0 ** rng.uniform(-2, 2, size=s)).astype(dtype) for s in shapes]

    def run(self, build, arrays, weights):
        leaves = [nm.Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = build(*leaves)
        nm.backward(dot(out, nm.Tensor(weights)))
        return [out.data] + [p.grad for p in leaves]

    @pytest.mark.parametrize("name", FUSED)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_the_chain(self, name, dtype):
        op, chain, shapes = FUSED[name]
        arrays = self.operands(shapes, dtype)
        weights = self.operands([op(*map(nm.Tensor, arrays)).shape], dtype, seed=51)[0]
        got = self.run(op, arrays, weights)
        want = self.run(chain, arrays, weights)
        for g, w in zip(got, want):
            assert g.dtype == dtype
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("name", FUSED)
    def test_gradcheck(self, name):
        op, _, shapes = FUSED[name]
        rng = np.random.default_rng(52)
        params = {str(i): nm.Tensor(rng.normal(size=s), requires_grad=True) for i, s in enumerate(shapes)}

        def f():
            y = op(*params.values())
            return dot(y, y)

        assert nm.grad_check(f, params) < 1e-6

    def test_embedding_sum_needs_one_id_column_per_table(self):
        """The id checks of the deleted `embedding_sum`, now run by every
        stage node's lookups: one id column per table, each checked against
        its table (here `query_block`'s)."""
        h, *leaves = (nm.Tensor(a) for a in self.operands(QUERY_SHAPES, np.float64))
        tables, mlps = leaves[:4], (leaves[4:8], leaves[8:])
        with pytest.raises(ValueError, match="one id column per table"):
            nm.query_block(h, tables, TABLE_IDS, *mlps)
        with pytest.raises(IndexError, match="out of range"):
            nm.query_block(h, tables, [[0, 0, 0, 5]], *mlps)

    @pytest.mark.parametrize("bad, column, listed", [(7, 2, r"\[7\]"), (-1, 1, r"\[-1\]")])
    def test_embedding_sum_names_a_bad_id_in_any_column(self, bad, column, listed):
        """`embed_block` keeps `embedding_sum`'s message, naming a bad id's
        column and its table's size; a negative id is caught, not wrapped."""
        tables, ids, *rest = embed_operands(np.float64, seed=57)
        ids = ids.copy()
        ids[1:3, column] = bad
        size = tables[column].shape[0]
        with pytest.raises(IndexError, match=rf"column {column}: {listed} vs table {size}"):
            nm.embed_block(tables, ids, *rest)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_flat_scatter_is_add_at_over_rows_bitwise(self, dtype):
        """A scatter of many row ids through one flat index adds into each
        element in the order np.add.at over rows does, onto the gradient
        already there."""
        rng = np.random.default_rng(53)
        ids = rng.integers(0, 9, size=50)
        g = self.operands([(50, 16)], dtype, seed=54)[0]
        x = nm.Tensor(np.zeros((9, 16), dtype), requires_grad=True)
        x.grad = self.operands([(9, 16)], dtype, seed=55)[0]
        want = x.grad.copy()
        np.add.at(want, ids, g)
        nm._accum_at(x, ids, g)
        assert np.array_equal(x.grad, want)


def layer_norm_op(a, gain, bias):
    """The layer norm op the blocks absorbed, kept here as their reference."""
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv

    def bw(g):
        nm._accum(gain, g * xhat)
        nm._accum(bias, g)
        gx = g * gain.data
        nm._accum(a, inv * (gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))

    return nm._node(xhat * gain.data + bias.data, (a, gain, bias), bw)


def reshape_op(a, shape):
    return nm._node(a.data.reshape(shape), (a,), lambda g: nm._accum(a, g.reshape(a.data.shape)))


def dropout_op(a, rate, rng):
    """Inverted dropout as the op the blocks absorbed: identity at rate 0 or without an rng."""
    if rate <= 0.0 or rng is None:
        return a
    keep = (rng.random(a.data.shape) >= rate).astype(a.data.dtype) / (1.0 - rate)
    return nm._node(a.data * keep, (a,), lambda g: nm._accum(a, g * keep))


def attend(q, k, v, mask, scale, rate=0.0, rng=None):
    """`attention_block`'s row-blocked attention core as one node over
    token-major q, k and v, with its keep-mask draw."""
    mask = np.asarray(mask, dtype=bool)
    blocks = nm._attention_blocks(mask, q.shape[0], k.shape[0])
    keep = nm._keep_mask((q.shape[1], q.shape[0], k.shape[0]), q.dtype, rate, rng)
    out = nm._attend(q.data, k.data, v.data, mask, blocks, scale, keep)

    def bw(g):
        for x, gx in zip((q, k, v), nm._attend_grads(g, q.data, k.data, v.data, mask, blocks, scale, keep)):
            nm._accum(x, gx, owned=True)

    return nm._node(out, (q, k, v), bw)


def chained_attention(q, k, v, mask, scale, rate=0.0, rng=None):
    """The op chain the attention core replaces, built from the existing ops
    over head-major leaves: q and v (H, T, d), and k already transposed to
    (H, d, Tk)."""
    dtype = q.data.dtype
    mask_add = np.where(mask, np.array(0.0, dtype=dtype), np.array(nm._MASKED_SCORE, dtype=dtype))
    scores = nm.add(scale_op(matmul_op(q, k), scale), nm.Tensor(mask_add))
    return matmul_op(dropout_op(softmax_op(scores), rate, rng), v)


def fused(q, k, v, weights, mask, scale, rate, rng):
    """Output and q, k, v gradients of sum(attend(q, k, v) * weights),
    every array token-major (T, H, d)."""
    q, k, v = (nm.Tensor(x, requires_grad=True) for x in (q, k, v))
    out = attend(q, k, v, mask, scale, rate, rng)
    nm.backward(dot(out, nm.Tensor(weights)))
    return [out.data, q.grad, k.grad, v.grad]


def chained(q, k, v, weights, mask, scale, rate, rng):
    """`fused` through chained_attention: the token-major inputs are
    transposed to head-major leaves, and the output and gradients back."""
    by_head = (1, 0, 2)
    qh, vh = (nm.Tensor(np.ascontiguousarray(x.transpose(by_head)), requires_grad=True) for x in (q, v))
    kt = nm.Tensor(np.ascontiguousarray(k.transpose(1, 2, 0)), requires_grad=True)
    out = chained_attention(qh, kt, vh, mask, scale, rate, rng)
    nm.backward(dot(out, nm.Tensor(weights.transpose(by_head))))
    return [out.data.transpose(by_head), qh.grad.transpose(by_head), kt.grad.transpose(2, 0, 1), vh.grad.transpose(by_head)]


MASKS = [Causal(), SplitContext(97), ParallelV2(260, 20), ParallelV2(260, 20, tuple(range(5, 260, 13)))]


class TestAttention:
    """The row-blocked attention core of `attention_block` against the chain
    of single ops."""

    def run(self, fn, mask, dtype, rate, seed=0, heads=2, d=8):
        rng = np.random.default_rng(seed)
        t = mask.shape[0]
        q, k, v, weights = (rng.normal(size=(t, heads, d)).astype(dtype) for _ in range(4))
        return fn(q, k, v, weights, mask, 1.0 / math.sqrt(d), rate, np.random.default_rng(seed + 1))

    @pytest.mark.parametrize("kind", MASKS, ids=["causal", "split", "parallel", "parallel-prefixes"])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_op_chain_over_several_blocks(self, kind, rate, dtype, tol):
        mask = build_mask(kind, 300)
        assert mask.shape[0] > 2 * nm._ATTN_BLOCK
        got = self.run(fused, mask, dtype, rate)
        want = self.run(chained, mask, dtype, rate)
        for g, w in zip(got, want):
            assert g.dtype == dtype
            assert np.max(np.abs(g - w)) <= tol * np.max(np.abs(w))

    @pytest.mark.parametrize("kind", [Causal(), SplitContext(9), ParallelV2(20, 5)])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_one_block_is_bitwise_in_double(self, kind, rate):
        mask = build_mask(kind, 30)
        got = self.run(fused, mask, np.float64, rate)
        want = self.run(chained, mask, np.float64, rate)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("kind", [Causal(), SplitContext(4), ParallelV2(7, 3, (2, 7, 5))])
    def test_gradcheck_over_small_blocks(self, kind, monkeypatch):
        monkeypatch.setattr(nm, "_ATTN_BLOCK", 3)
        mask = build_mask(kind, 13)
        rng = np.random.default_rng(4)
        q, k, v = (randt(rng, 13, 2, 3) for _ in range(3))
        weights = nm.Tensor(rng.normal(size=(13, 2, 3)))

        def f():
            return dot(attend(q, k, v, mask, 0.7), weights)

        assert nm.grad_check(f, {"q": q, "k": k, "v": v}, max_coords=234) < 1e-6

    def test_dropout_draws_where_dropout_does(self):
        """A layer draws the attention keep mask (H, T, T), then w_o's
        dropout (T, d), then the FFN's (T, d): the draws of the op chain."""
        mask = build_mask(Causal(), 10)
        p = layer_params(np.random.default_rng(7))
        h = nm.Tensor(np.ones((10, 4)))
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        layer(h, p, mask, 0.2, rng)
        ref.random((2, 10, 10))
        ref.random((10, 4))
        ref.random((10, 4))
        assert rng.random() == ref.random()
        layer(h, p, mask, 0.2, None)  # no rng: no dropout, no draw
        layer(h, p, mask, 0.0, rng)  # rate 0: no draw
        assert rng.random() == ref.random()

    def test_single_precision_stays_single(self):
        p = layer_params(np.random.default_rng(9), dtype=np.float32)
        h = nm.Tensor(np.ones((5, 4), dtype=np.float32), requires_grad=True)
        out = layer(h, p, build_mask(Causal(), 5), 0.1, np.random.default_rng(1))
        nm.backward(dot(out))
        assert out.dtype == np.float32
        assert {str(x.grad.dtype) for x in (h, *p.values())} == {"float32"}

    def test_row_without_keys_rejected(self):
        mask = build_mask(Causal(), 4)
        mask[2] = False
        with pytest.raises(ValueError, match="allow no key: \\[2\\]"):
            layer(nm.Tensor(np.zeros((4, 4))), layer_params(np.random.default_rng(10)), mask)

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError, match="mask shape"):
            layer(nm.Tensor(np.zeros((4, 4))), layer_params(np.random.default_rng(10)), np.ones((4, 3), dtype=bool))


EXTRAS = 2
PROJECTIONS = ("w_q", "w_k", "w_v", *(f"w_vx{e}" for e in range(EXTRAS)))
N_HEADS = 2


def layer_params(rng, d=4, d_head=2, d_ff=8, dtype=np.float64):
    """Leaves for one pre-norm layer (two heads, two value extras), named as
    in `model.param_manifest`: weight matrices N(0, 1/fan_in), so activations
    keep unit scale and the softmax does not saturate; gains near 1; gates
    and biases N(0, 1)."""
    hd = N_HEADS * d_head
    shapes = {"ln1_g": (d,), "ln1_b": (d,), **{n: (d, hd) for n in PROJECTIONS}, "gates": (EXTRAS, N_HEADS)}
    shapes |= {"w_o": (hd, d), "ln2_g": (d,), "ln2_b": (d,), "w_ff1": (d, d_ff), "b_ff1": (d_ff,)}
    shapes |= {"w_ff2": (d_ff, d), "b_ff2": (d,)}
    params = {}
    for name, shape in shapes.items():
        x = rng.normal(size=shape)
        if name.startswith("w_"):
            x /= math.sqrt(shape[0])
        elif name.endswith("_g"):
            x += 1.0
        params[name] = nm.Tensor(x.astype(dtype), requires_grad=True)
    return params


def attention_args(p):
    return p["ln1_g"], p["ln1_b"], [p[n] for n in PROJECTIONS], p["gates"], p["w_o"]


def ffn_args(p):
    return p["ln2_g"], p["ln2_b"], p["w_ff1"], p["b_ff1"], p["w_ff2"], p["b_ff2"]


def scale_of(p):
    return 1.0 / math.sqrt(p["w_q"].shape[1] // N_HEADS)


def layer(h, p, mask, rate=0.0, rng=None):
    """One pre-norm layer as `model.forward` runs it: two block nodes."""
    h = nm.attention_block(h, *attention_args(p), mask, N_HEADS, scale_of(p), rate, rng)
    return nm.ffn_block(h, *ffn_args(p), rate, rng)


def chained_layer(h, p, mask, rate=0.0, rng=None):
    """The same layer as the chain of single ops the blocks replace."""
    t, hd = h.shape[0], p["w_q"].shape[1]

    def heads(x):
        return reshape_op(x, (t, N_HEADS, hd // N_HEADS))

    pre = layer_norm_op(h, p["ln1_g"], p["ln1_b"])
    q, k, v = (heads(matmul_op(pre, p[n])) for n in PROJECTIONS[:3])
    for e in range(EXTRAS):
        vx = heads(matmul_op(pre, p[f"w_vx{e}"]))
        v = nm.add(v, mul_op(vx, reshape_op(embedding_op(p["gates"], [e]), (N_HEADS, 1))))
    ctx = reshape_op(attend(q, k, v, mask, scale_of(p), rate, rng), (t, hd))
    h = nm.add(h, dropout_op(matmul_op(ctx, p["w_o"]), rate, rng))
    pre = layer_norm_op(h, p["ln2_g"], p["ln2_b"])
    ff = linear_op(gelu_op(linear_op(pre, p["w_ff1"], p["b_ff1"])), p["w_ff2"], p["b_ff2"])
    return nm.add(h, dropout_op(ff, rate, rng))


def transpose_op(a, axes):
    """A contiguous transpose as one node, the chain's link between
    token-major projections and chained_attention's head-major operands."""
    undo = np.argsort(axes)
    return nm._node(np.ascontiguousarray(a.data.transpose(axes)), (a,), lambda g: nm._accum(a, g.transpose(undo)))


def chained_attention_sublayer(h, p, mask, rate=0.0, rng=None):
    """The attention sublayer as the chain of single ops, attention included
    (chained_attention over head-major q, v and transposed k)."""
    t, hd = h.shape[0], p["w_q"].shape[1]
    pre = layer_norm_op(h, p["ln1_g"], p["ln1_b"])
    q, k, v = (reshape_op(matmul_op(pre, p[n]), (t, N_HEADS, hd // N_HEADS)) for n in PROJECTIONS[:3])
    for e in range(EXTRAS):
        vx = reshape_op(matmul_op(pre, p[f"w_vx{e}"]), (t, N_HEADS, hd // N_HEADS))
        v = nm.add(v, mul_op(vx, reshape_op(embedding_op(p["gates"], [e]), (N_HEADS, 1))))
    out = chained_attention(transpose_op(q, (1, 0, 2)), transpose_op(k, (1, 2, 0)), transpose_op(v, (1, 0, 2)),
                            mask, scale_of(p), rate, rng)
    ctx = reshape_op(transpose_op(out, (1, 0, 2)), (t, hd))
    return nm.add(h, dropout_op(matmul_op(ctx, p["w_o"]), rate, rng))


BLOCK_MASKS = [Causal(), SplitContext(4), ParallelV2(7, 3, (2, 7, 5))]


class TestBlocks:
    """`attention_block` and `ffn_block`: one tape node per sublayer."""

    def run(self, build, dtype, kind, t=300, rate=0.3):
        """The layer's output, and the gradients of sum(out * weights) for the
        input and every parameter, in a fixed order."""
        rng = np.random.default_rng(60)
        p = layer_params(rng, d=8, d_head=3, d_ff=16, dtype=dtype)
        h = nm.Tensor(rng.normal(size=(t, 8)).astype(dtype), requires_grad=True)
        weights = nm.Tensor(rng.normal(size=(t, 8)).astype(dtype))
        out = build(h, p, build_mask(kind, t), rate, np.random.default_rng(61))
        nm.backward(dot(out, weights))
        return [out.data, h.grad] + [p[n].grad for n in p]

    @pytest.mark.parametrize("kind", MASKS[:3], ids=["causal", "split", "parallel"])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_the_op_chain(self, kind, rate, dtype):
        """Forward and every gradient are the chain's bit for bit over three
        row blocks, dropout on or off: the same operations in the same order,
        the projections' input gradient summed newest first."""
        got = self.run(layer, dtype, kind, rate=rate)
        want = self.run(chained_layer, dtype, kind, rate=rate)
        for g, w in zip(got, want):
            assert g.dtype == dtype
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("kind", [Causal(), SplitContext(40), ParallelV2(80, 20, tuple(range(4, 84, 4)))],
                             ids=["causal", "split", "parallel"])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_attention_block_is_the_written_out_chain_bitwise(self, kind, rate, dtype):
        """In one row block attention_block's output and gradients, the
        projections' included, are the written-out chain's bit for bit,
        attention's softmax and dropout included: backward rebuilds q, k, v
        and the value extras by forward's own matmuls."""
        def sublayer(h, p, mask, rate, rng):
            return nm.attention_block(h, *attention_args(p), mask, N_HEADS, scale_of(p), rate, rng)

        t = 120
        assert t <= nm._ATTN_BLOCK
        got = self.run(sublayer, dtype, kind, t, rate)
        want = self.run(chained_attention_sublayer, dtype, kind, t, rate)
        got, want = ([x for x in run if x is not None] for run in (got, want))  # the FFN's parameters get none
        assert len(got) == len(want) == 2 + 2 + len(PROJECTIONS) + 2
        for g, w in zip(got, want):
            assert g.dtype == dtype
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("kind", BLOCK_MASKS, ids=["causal", "split", "parallel"])
    def test_attention_block_gradcheck(self, kind, monkeypatch):
        monkeypatch.setattr(nm, "_ATTN_BLOCK", 3)  # five row blocks
        mask = build_mask(kind, 13)
        rng = np.random.default_rng(62)
        p = layer_params(rng)
        h = randt(rng, 13, 4)
        weights = nm.Tensor(rng.normal(size=(13, 4)))
        params = {"h": h} | {n: p[n] for n in ("ln1_g", "ln1_b", *PROJECTIONS, "gates", "w_o")}

        def f():
            out = nm.attention_block(h, *attention_args(p), mask, N_HEADS, 0.7, 0.3, np.random.default_rng(63))
            return dot(out, weights)

        assert nm.grad_check(f, params, max_coords=200) < 1e-6

    def test_ffn_block_gradcheck(self):
        rng = np.random.default_rng(64)
        p = layer_params(rng)
        h = randt(rng, 13, 4)
        weights = nm.Tensor(rng.normal(size=(13, 4)))
        params = {"h": h} | {n: p[n] for n in ("ln2_g", "ln2_b", "w_ff1", "b_ff1", "w_ff2", "b_ff2")}

        def f():
            return dot(nm.ffn_block(h, *ffn_args(p), 0.3, np.random.default_rng(65)), weights)

        assert nm.grad_check(f, params, max_coords=200) < 1e-6

    def test_ffn_backward_holds_one_hidden_array_beside_the_pre_activation(self):
        """ffn_block's rule rebuilds the (T, d_ff) pre-activation and runs the
        single-precision GELU rules in row chunks, writing the GELU's gradient
        into the gradient it scales: above the live tape, its backward peaks
        below three (T, d_ff) arrays (the parent's kept pre-activation plus
        whole-array GELU rules peaked above five)."""
        t, d, d_ff = 2048, 64, 256
        p = layer_params(np.random.default_rng(68), d=d, d_head=32, d_ff=d_ff, dtype=np.float32)
        h = nm.Tensor(np.random.default_rng(69).normal(size=(t, d)).astype(np.float32), requires_grad=True)
        g = np.ones((t, d), dtype=np.float32)
        tracemalloc.start()
        try:
            out = nm.ffn_block(h, *ffn_args(p))
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert h.grad.shape == (t, d)
        assert peak <= 3 * t * d_ff * 4

    @pytest.mark.parametrize("kind", MASKS[:3], ids=["causal", "split", "parallel"])
    def test_matches_plain_numpy_reference_layer(self, kind):
        """The two blocks against `oracle.prenorm_layer`, which shares no code
        with numerics, over three row blocks with dropout on."""
        rng = np.random.default_rng(66)
        p = layer_params(rng, d=8, d_head=3, d_ff=16)
        t, rate = 300, 0.3
        h = rng.normal(size=(t, 8))
        mask = build_mask(kind, t)
        draws = np.random.default_rng(67)
        keeps = [(draws.random(shape) >= rate) / (1.0 - rate) for shape in ((N_HEADS, t, t), (t, 8), (t, 8))]
        arrays = {name: x.data for name, x in p.items()}
        want = oracle.prenorm_layer(h, arrays, mask, N_HEADS, *keeps)
        got = layer(nm.Tensor(h), p, mask, rate, np.random.default_rng(67)).data
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
