from __future__ import annotations

import gc
import hashlib
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from setpose.data import GenConfig, generate_dataset, read_dataset, write_dataset
from setpose.errors import (
    ConfigError,
    FormatError,
    KeyMismatch,
    NonFinite,
    NonFiniteLoss,
    ShapeError,
    SpentGraph,
    write_npy,
)
from setpose.nn_core import (
    ParamStore,
    Tensor,
    adamw_step,
    concatenate,
    forward_backward,
    glorot_uniform,
    init_optim_state,
    layer_norm,
    linear,
    load_checkpoint,
    log_softmax,
    mlp2,
    multi_head_attention,
    no_grad,
    save_checkpoint,
)
from setpose.nn_core.optim import BETA1, BETA2, EPS
from setpose.rng import PortableRng

from gradcheck import max_relative_error, numeric_gradient

LAYER_TOL = 1e-6


def rand(rng: PortableRng, *shape, lo=-2.0, hi=2.0) -> np.ndarray:
    n = int(np.prod(shape))
    return np.array(rng.uniform_list(n, lo, hi)).reshape(shape)


def fd_check(build_loss, params: ParamStore, tol: float = LAYER_TOL):
    """Analytic grads vs central differences for every parameter scalar."""
    loss, grads = forward_backward(build_loss, params)
    for name, tensor in params.items():
        numeric = numeric_gradient(lambda: build_loss(params).item(), tensor.data)
        err = max_relative_error(grads[name], numeric)
        assert err < tol, f"{name}: rel err {err}"


# -- scalar sanity -----------------------------------------------------------

def test_square_gradient_exact():
    p = ParamStore()
    theta = p.add("theta", np.array(3.0))
    loss, grads = forward_backward(lambda ps: ps["theta"] * ps["theta"], p)
    assert loss == 9.0
    assert grads["theta"] == 6.0


def attention_weights(z: Tensor) -> Tensor:
    """Softmax of scores z (1, R, T) through one attention head with identity
    projections and zero biases. With the T x T identity as memory, k and v
    are the identity, so queries z * sqrt(T) give the scores z (up to the
    rounding of the scale) and the output is the weight matrix."""
    t = z.shape[-1]
    eye, zero = Tensor(np.eye(t)), Tensor(np.zeros(t))
    return multi_head_attention(z * np.sqrt(t), Tensor(np.eye(t)[None]),
                                eye, zero, eye, eye, zero, eye, zero, n_heads=1)


def test_softmax_sum_has_zero_gradient():
    p = ParamStore()
    p.add("z", np.array([[[0.3, -1.2, 2.0, 0.0]]]))
    loss, grads = forward_backward(lambda ps: attention_weights(ps["z"]).sum(), p)
    assert abs(loss - 1.0) < 1e-12
    assert np.abs(grads["z"]).max() < 1e-12


def test_non_finite_loss_raises():
    p = ParamStore()
    p.add("x", np.array(0.0))
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteLoss):
        forward_backward(lambda ps: ps["x"].log(), p)  # log(0) = -inf


def test_non_finite_gradient_names_first_parameter():
    p = ParamStore()
    p.add("a", np.array(2.0))
    p.add("b", np.array(0.0))
    p.add("c", np.array(0.0))
    before = {name: t.data.copy() for name, t in p.items()}
    # finite loss, but d sqrt(x)/dx = inf at x = 0 for both b and c
    graph = lambda ps: ps["a"] * ps["a"] + ps["b"].sqrt() + ps["c"].sqrt()
    with np.errstate(divide="ignore"), pytest.raises(NonFinite, match="'b'"):
        forward_backward(graph, p)
    assert all(np.array_equal(t.data, before[name]) for name, t in p.items())


def test_forward_backward_hands_over_gradients_without_aliasing():
    p = ParamStore()
    p.add("w", np.array([1.5, -2.0]))
    p.add("unused", np.zeros(2))
    loss_fn = lambda ps: (ps["w"] * ps["w"] * ps["w"]).sum()
    _, first = forward_backward(loss_fn, p)
    kept = {name: g.copy() for name, g in first.items()}
    assert all(t.grad is None for _, t in p.items())
    p["w"].data = p["w"].data * 3.0
    _, second = forward_backward(loss_fn, p)
    assert all(first[name].tobytes() == kept[name].tobytes() for name in first)
    assert not np.array_equal(second["w"], first["w"])
    assert not np.shares_memory(first["w"], second["w"])


def test_tensor_keeps_a_floating_dtype_and_lifts_constants_to_it():
    x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    y = (x * 0.5 + np.ones(2) - np.asarray(1.0)).sum()  # scalar, float64 array, 0-d
    y.backward()
    assert y.data.dtype == x.grad.dtype == np.float32
    assert Tensor([1, 2]).data.dtype == Tensor(np.array(True)).data.dtype == np.float64


# -- no-grad mode ------------------------------------------------------------------

def test_no_grad_ops_build_no_graph():
    p = ParamStore()
    w = p.add("w", np.array([1.5, -2.0]))
    with no_grad():
        y = (w * w).exp().sum()
    assert not y.requires_grad and y._parents == () and y._backward is None
    assert y.data == np.exp(2.25) + np.exp(4.0)
    assert (w * w).requires_grad  # the flag is back on after the block


def test_no_grad_restores_flag_after_exception_and_nests():
    p = ParamStore()
    w = p.add("w", np.array(3.0))
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside")
    assert (w * w).requires_grad
    with no_grad():
        with no_grad():
            pass
        assert not (w * w).requires_grad


def test_params_added_under_no_grad_still_require_grad():
    with no_grad():
        p = ParamStore()
        w = p.add("w", np.array([1.0, 2.0]))
        assert w.requires_grad
    loss, grads = forward_backward(lambda ps: (ps["w"] * ps["w"]).sum(), p)
    assert loss == 5.0 and np.array_equal(grads["w"], [2.0, 4.0])


# -- per-layer finite-difference checks ----------------------------------------

def test_linear_gradients():
    rng = PortableRng(60)
    p = ParamStore()
    p.add("w", rand(rng, 5, 4))
    p.add("b", rand(rng, 4))
    p.add("x", rand(rng, 3, 5))
    fd_check(lambda ps: (linear(ps["x"], ps["w"], ps["b"]) * 0.3).sum(), p)


def test_linear_gradients_wrt_input():
    rng = PortableRng(61)
    p = ParamStore()
    p.add("x", rand(rng, 2, 7, 5))
    w = Tensor(rand(rng, 5, 4))
    b = Tensor(rand(rng, 4))
    fd_check(lambda ps: (linear(ps["x"], w, b) ** 2.0).sum(), p)


def test_layer_norm_gradients():
    rng = PortableRng(62)
    p = ParamStore()
    p.add("x", rand(rng, 4, 6))
    p.add("g", rand(rng, 6, lo=0.5, hi=1.5))
    p.add("beta", rand(rng, 6))
    fd_check(lambda ps: (layer_norm(ps["x"], ps["g"], ps["beta"]) * 0.7).sum(), p)


def test_layer_norm_statistics():
    rng = PortableRng(63)
    x = Tensor(rand(rng, 10, 16, lo=-5, hi=5))
    ones = Tensor(np.ones(16))
    zeros = Tensor(np.zeros(16))
    y = layer_norm(x, ones, zeros, eps=1e-12).data
    assert np.abs(y.mean(axis=-1)).max() < 1e-10
    assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-8


def test_softmax_rows_sum_to_one_and_stable():
    rng = PortableRng(64)
    z = Tensor(rand(rng, 1, 5, 7, lo=-30, hi=30))
    s = attention_weights(z).data
    assert np.all(s > 0) and np.all(s < 1)
    assert np.abs(s.sum(axis=-1) - 1.0).max() < 1e-12
    big = attention_weights(Tensor(np.array([[[1000.0, 0.0], [-1000.0, 0.0]]]))).data
    assert np.isfinite(big).all()
    assert abs(big[0, 0, 0] - 1.0) < 1e-12 and abs(big[0, 1, 1] - 1.0) < 1e-12


def test_softmax_shift_invariance():
    rng = PortableRng(65)
    z = rand(rng, 1, 3, 5)
    a = attention_weights(Tensor(z)).data
    b = attention_weights(Tensor(z + 123.456)).data
    assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


def test_softmax_gradients():
    rng = PortableRng(66)
    p = ParamStore()
    p.add("z", rand(rng, 1, 3, 5))
    w = Tensor(rand(rng, 1, 3, 5))
    fd_check(lambda ps: (attention_weights(ps["z"]) * w).sum(), p)


# -- fused layers and the shared-weight matmul backward ------------------------------

def composed_layer_norm(x, gamma, beta, eps=1e-5):
    inv_d = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * inv_d
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_d
    return centered / (var + eps).sqrt() * gamma + beta


def composed_linear(x, w, b):
    return x @ w + b


def composed_mlp2(x, w1, b1, w2, b2):
    return (x @ w1 + b1).relu() @ w2 + b2


def closed_form_softmax(x):
    """Last-axis softmax as one node with the closed-form backward."""
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, _parents=(x,))
    if out.requires_grad:
        out._backward = lambda g: x._accum(y * (g - (g * y).sum(axis=-1, keepdims=True)))
    return out


def composed_attention(queries, memory, wq, bq, wk, wv, bv, wo, bo, n_heads):
    """multi_head_attention from Tensor-op linears, reshape/transpose head
    split and merge, and closed_form_softmax."""
    b, tq, d = queries.shape
    d_head = d // n_heads

    def split(x):
        return x.reshape((b, x.shape[1], n_heads, d_head)).transpose((0, 2, 1, 3))

    q, k, v = split(queries @ wq + bq), split(memory @ wk), split(memory @ wv + bv)
    scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(d_head))
    heads = closed_form_softmax(scores) @ v
    return heads.transpose((0, 2, 1, 3)).reshape((b, tq, d)) @ wo + bo


def assert_close(actual, expected, rtol):
    """Max-norm relative agreement: max |a - e| <= rtol * max |e|."""
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


def leaf(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def grads_of(op, arrays, weight):
    """Forward value and input gradients of sum(op(*leaves) * weight)."""
    leaves = [leaf(a) for a in arrays]
    out = op(*leaves)
    (out * weight).sum().backward()
    return out.data, [t.grad for t in leaves]


@pytest.mark.parametrize("transposed", [False, True])
def test_fused_layer_norm_matches_composition(transposed):
    rng = PortableRng(69)
    x = rand(rng, 2, 6, 5).transpose(0, 2, 1) if transposed else rand(rng, 2, 5, 6)
    arrays = [x, rand(rng, 6, lo=0.5, hi=1.5), rand(rng, 6)]
    weight = rand(rng, 2, 5, 6)
    fused, fused_grads = grads_of(layer_norm, arrays, weight)
    ref, ref_grads = grads_of(composed_layer_norm, arrays, weight)
    assert fused.tobytes() == ref.tobytes()
    for got, want in zip(fused_grads, ref_grads):
        assert_close(got, want, rtol=1e-12)


ATTENTION_WEIGHTS = ("wq", "bq", "wk", "wv", "bv", "wo", "bo")


def attention_weight_arrays(rng: PortableRng, d: int) -> list[np.ndarray]:
    """wq, bq, wk, wv, bv, wo, bo for model width d."""
    return [rand(rng, d, d, lo=-0.7, hi=0.7) if name.startswith("w")
            else rand(rng, d, lo=-0.2, hi=0.2) for name in ATTENTION_WEIGHTS]


@pytest.mark.parametrize("self_attention", [False, True], ids=["cross", "self"])
def test_fused_attention_matches_composition(self_attention):
    rng = PortableRng(70)
    queries = rand(rng, 2, 3, 6)
    memory = [] if self_attention else [rand(rng, 2, 5, 6)]
    arrays = [queries, *memory, *attention_weight_arrays(rng, 6)]
    weight = rand(rng, 2, 3, 6)

    def bind(op):  # self-attention hands one Tensor over as both inputs
        if self_attention:
            return lambda x, *ws: op(x, x, *ws, n_heads=2)
        return lambda *ts: op(*ts, n_heads=2)
    fused, fused_grads = grads_of(bind(multi_head_attention), arrays, weight)
    ref, ref_grads = grads_of(bind(composed_attention), arrays, weight)
    assert fused.tobytes() == ref.tobytes()
    assert len(fused_grads) == 8 + len(memory)
    assert all(got.tobytes() == want.tobytes() for got, want in zip(fused_grads, ref_grads))


@pytest.mark.parametrize("x_shape", [(4, 5), (2, 3, 5)])
def test_fused_linear_and_mlp2_match_composition(x_shape):
    rng = PortableRng(78)
    x = rand(rng, *x_shape)
    lin = [x, rand(rng, 5, 4), rand(rng, 4)]
    mlp = [x, rand(rng, 5, 8), rand(rng, 8), rand(rng, 8, 3), rand(rng, 3)]
    for fused_op, ref_op, arrays, n_out in ((linear, composed_linear, lin, 4),
                                            (mlp2, composed_mlp2, mlp, 3)):
        weight = rand(rng, *x_shape[:-1], n_out)
        fused, fused_grads = grads_of(fused_op, arrays, weight)
        ref, ref_grads = grads_of(ref_op, arrays, weight)
        assert fused.tobytes() == ref.tobytes()
        assert all(got.tobytes() == want.tobytes()
                   for got, want in zip(fused_grads, ref_grads))


def test_mlp2_relu_exactly_at_zero_routes_a_zero_gradient():
    rng = PortableRng(80)
    w1, b1 = rand(rng, 4, 5, lo=0.1, hi=1.0), rand(rng, 5, lo=0.1, hi=1.0)
    w1[:, 2] = 0.0
    b1[2] = 0.0  # hidden unit 2 is exactly 0 for every input, the rest are > 0
    arrays = [rand(rng, 3, 4, lo=0.1, hi=1.0), w1, b1, rand(rng, 5, 2), rand(rng, 2)]
    _, (_, gw1, gb1, gw2, _) = grads_of(mlp2, arrays, rand(rng, 3, 2))
    assert gb1[2] == 0.0 and not gw1[:, 2].any() and not gw2[2].any()
    assert np.all(gb1[[0, 1, 3, 4]] != 0.0)


def test_fused_layers_build_no_graph_under_no_grad():
    rng = PortableRng(81)
    x, w, b = leaf(rand(rng, 2, 3, 4)), leaf(rand(rng, 4, 4)), leaf(rand(rng, 4))
    with no_grad():
        outs = [linear(x, w, b), mlp2(x, w, b, w, b), layer_norm(x, b, b),
                multi_head_attention(x, x, w, b, w, w, b, w, b, n_heads=2)]
    for out in outs:
        assert not out.requires_grad and out._parents == () and out._backward is None


def test_stacked_times_2d_matmul_gradients():
    rng = PortableRng(71)
    p = ParamStore()
    p.add("x", rand(rng, 3, 4, 5))
    p.add("w", rand(rng, 5, 2))
    c = rand(rng, 3, 4, 2)
    fd_check(lambda ps: ((ps["x"] @ ps["w"]) * c).sum(), p)
    # against one np.matmul per batch entry, also for a non-contiguous x
    for x in (p["x"].data, rand(rng, 4, 3, 5).transpose(1, 0, 2)):
        w = p["w"].data
        _, (gx, gw) = grads_of(lambda a, b: a @ b, [x, w], c)
        assert_close(gx, np.stack([np.matmul(c[b], w.T) for b in range(3)]), rtol=1e-12)
        assert_close(gw, sum(np.matmul(x[b].T, c[b]) for b in range(3)), rtol=1e-12)


def test_first_gradient_takes_the_layout_of_data():
    rng = PortableRng(72)
    data = rand(rng, 5, 4).T  # a transposed, non-contiguous view
    a, b = rand(rng, 4, 5), rand(rng, 4, 5)
    x = leaf(data)
    ((x * a) + (x * b)).sum().backward()  # two contributions to x.grad
    assert x.grad.strides == np.empty_like(data).strides
    ref = np.zeros_like(data)
    ref += a
    ref += b
    assert x.grad.tobytes() == ref.tobytes()


def test_backward_of_a_non_scalar_raises_shape_error():
    x = leaf(np.ones(3))
    with pytest.raises(ShapeError, match="scalar"):
        (x * 2.0).backward()


def test_backward_frees_each_interior_node_and_leaves_keep_their_gradients():
    """With the cyclic collector off, only reference counting can free the
    graph: an interior node's array (saved by its own exp closure too) dies
    inside backward(), while the caller still holds the root."""
    x = leaf(np.array([0.5, -1.0, 2.0]))
    mid = x * 2.0
    hidden = mid.exp()
    saved = weakref.ref(hidden.data)
    loss = (hidden * x).sum()
    del hidden
    gc.disable()
    try:
        loss.backward()
        freed = saved() is None
    finally:
        gc.enable()
    assert freed
    assert mid.grad is None and loss.grad is None  # interior gradients dropped too
    e = np.exp(2.0 * x.data)
    assert_close(x.grad, 2.0 * e * x.data + e, rtol=1e-15)


@pytest.mark.parametrize("second_root", [lambda loss, mid: loss,
                                         lambda loss, mid: (mid * 3.0).sum()],
                         ids=["same-root", "shared-node"])
def test_a_second_backward_through_a_spent_graph_raises_and_changes_no_gradient(
        second_root):
    x, w = leaf(np.array([1.0, 2.0])), leaf(np.array([3.0, -4.0]))
    mid = x * w
    loss = (mid * x).sum()
    loss.backward()
    before = [x.grad.copy(), w.grad.copy()]
    with pytest.raises(SpentGraph, match="already backwarded"):
        second_root(loss, mid).backward()
    assert [x.grad.tobytes(), w.grad.tobytes()] == [g.tobytes() for g in before]


def test_log_softmax_gradients():
    rng = PortableRng(67)
    p = ParamStore()
    p.add("z", rand(rng, 4, 3))
    fd_check(lambda ps: (log_softmax(ps["z"])[np.arange(4), [0, 2, 1, 1]] * -1.0).sum(), p)


def test_sigmoid_gradients():
    rng = PortableRng(68)
    p = ParamStore()
    p.add("x", rand(rng, 6, lo=-4, hi=4))
    fd_check(lambda ps: (ps["x"].sigmoid() ** 3.0).sum(), p)


def test_abs_gradients():
    rng = PortableRng(69)
    p = ParamStore()
    p.add("x", rand(rng, 8))
    t = rand(rng, 8)
    fd_check(lambda ps: (ps["x"] - t).abs().sum() * (1.0 / 8), p)


def test_mlp_gradients():
    rng = PortableRng(70)
    p = ParamStore()
    p.add("w1", rand(rng, 5, 8))
    p.add("b1", rand(rng, 8))
    p.add("w2", rand(rng, 8, 2))
    p.add("b2", rand(rng, 2))
    p.add("x", rand(rng, 2, 4, 5))
    fd_check(lambda ps: (mlp2(ps["x"], ps["w1"], ps["b1"], ps["w2"], ps["b2"])
                         ** 2.0).sum(), p)


def _attention_params(rng: PortableRng, p: ParamStore, d: int):
    for name, array in zip(ATTENTION_WEIGHTS, attention_weight_arrays(rng, d)):
        p.add(name, array)


def _mha(ps, queries, memory, n_heads):
    return multi_head_attention(queries, memory, *(ps[name] for name in ATTENTION_WEIGHTS),
                                n_heads)


@pytest.mark.parametrize("self_attention", [False, True], ids=["cross", "self"])
def test_attention_gradients_of_every_parent(self_attention):
    rng = PortableRng(79)
    p = ParamStore()
    p.add("queries", rand(rng, 2, 3, 4))
    if not self_attention:
        p.add("memory", rand(rng, 2, 5, 4))
    _attention_params(rng, p, 4)
    memory = "queries" if self_attention else "memory"
    fd_check(lambda ps: (_mha(ps, ps["queries"], ps[memory], n_heads=2) ** 2.0).sum(), p)


def test_attention_gradients():
    rng = PortableRng(71)
    p = ParamStore()
    d = 6
    _attention_params(rng, p, d)
    q = Tensor(rand(rng, 2, 3, d))
    kv = Tensor(rand(rng, 2, 5, d))
    fd_check(lambda ps: (_mha(ps, q, kv, n_heads=2) ** 2.0).sum(), p)


def test_attention_gradients_wrt_inputs():
    rng = PortableRng(72)
    p = ParamStore()
    d = 4
    p.add("q", rand(rng, 1, 3, d))
    p.add("kv", rand(rng, 1, 4, d))
    weights = ParamStore()
    _attention_params(rng, weights, d)
    fd_check(lambda ps: (_mha(weights, ps["q"], ps["kv"], n_heads=2) * 0.5).sum(), p)


def test_attention_single_kv_position_ignores_query():
    rng = PortableRng(74)
    p = ParamStore()
    d = 4
    _attention_params(rng, p, d)
    kv = Tensor(rand(rng, 1, 1, d))
    out1 = _mha(p, Tensor(rand(rng, 1, 3, d)), kv, n_heads=2).data
    out2 = _mha(p, Tensor(rand(rng, 1, 3, d)), kv, n_heads=2).data
    # softmax over one key is identically 1: output = Wo(Wv v + bv) + bo
    expected = (kv.data @ p["wv"].data + p["bv"].data) @ p["wo"].data + p["bo"].data
    assert np.allclose(out1, np.broadcast_to(expected, out1.shape), rtol=1e-12)
    assert np.allclose(out1, out2, rtol=1e-12)


def test_attention_two_position_hand_computed():
    # d_model = 1, one head: identity projections, zero biases
    p = ParamStore()
    for name in ATTENTION_WEIGHTS:
        p.add(name, np.array([[1.0]]) if name.startswith("w") else np.array([0.0]))
    q = Tensor(np.array([[[0.5]]]))          # single query
    k = Tensor(np.array([[[1.0], [-1.0]]]))  # two keys = values
    out = _mha(p, q, k, n_heads=1).data
    # scores = [0.5, -0.5]; w = softmax -> (e/(e+1/e) strutture)
    w0 = np.exp(0.5) / (np.exp(0.5) + np.exp(-0.5))
    expected = w0 * 1.0 + (1.0 - w0) * -1.0
    assert abs(out[0, 0, 0] - expected) < 1e-14


def test_attention_shape_errors():
    p = ParamStore()
    _attention_params(PortableRng(75), p, 6)
    x = Tensor(np.zeros((1, 2, 6)))
    with pytest.raises(ShapeError):
        _mha(p, x, x, n_heads=4)  # 6 % 4 != 0
    with pytest.raises(ShapeError):
        _mha(p, Tensor(np.zeros((2, 6))), x, n_heads=2)  # no batch axis
    with pytest.raises(ShapeError):
        _mha(p, x, Tensor(np.zeros((2, 2, 6))), n_heads=2)  # batch sizes differ


def test_getitem_concat_stack_gradients():
    rng = PortableRng(76)
    p = ParamStore()
    p.add("a", rand(rng, 4, 3))
    p.add("b", rand(rng, 2, 3))

    def loss(ps):
        cat = concatenate([ps["a"], ps["b"]], axis=0)       # (6, 3)
        picked = cat[[1, 4, 1]]                             # reuse row 1
        return (picked * picked).sum() + cat[0, 2] * 3.0

    fd_check(loss, p)


def test_broadcast_gradients():
    rng = PortableRng(77)
    p = ParamStore()
    p.add("q", rand(rng, 3, 2))

    def loss(ps):
        tiled = ps["q"].broadcast_to((5, 3, 2))
        return (tiled * tiled * 0.5).sum()

    fd_check(loss, p)


# -- AdamW ---------------------------------------------------------------------

def make_store(**arrays) -> ParamStore:
    p = ParamStore()
    for k, v in arrays.items():
        p.add(k, np.asarray(v, dtype=np.float64))
    return p


def test_adamw_zero_gradient_is_noop():
    p = make_store(w=[1.0, -2.0, 3.5])
    before = p["w"].data.copy()
    state = init_optim_state(p)
    adamw_step(p, {"w": np.zeros(3)}, state, lr=lambda _: 0.1)
    assert np.array_equal(p["w"].data, before)
    assert state.t == 1


def test_adamw_first_step_hand_recurrence():
    p = make_store(w=[1.0])
    state = init_optim_state(p)
    assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-8)
    adamw_step(p, {"w": np.array([1.0])}, state, lr=lambda _: 0.1, weight_decay=0.0)
    # m=0.1, v=0.001, m_hat=1, v_hat=1 -> step = 0.1/(1+1e-8)
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
    assert abs(p["w"].data[0] - expected) < 1e-15
    assert abs(p["w"].data[0] - 0.9) < 1e-8


def test_adamw_pure_decay():
    p = make_store(w=[2.0])
    state = init_optim_state(p)
    lr, wd = 0.05, 0.1
    val = 2.0
    for _ in range(5):
        adamw_step(p, {"w": np.zeros(1)}, state, lr=lambda _: lr, weight_decay=wd)
        val = val - lr * wd * val
        assert abs(p["w"].data[0] - val) < 1e-12


def test_adamw_deterministic_bitwise():
    def run():
        rng = PortableRng(80)
        p = make_store(a=rand(rng, 3, 3), b=rand(rng, 3))
        state = init_optim_state(p)
        for step in range(10):
            grads = {"a": rand(rng, 3, 3), "b": rand(rng, 3)}
            adamw_step(p, grads, state, lr=lambda _: 1e-2, weight_decay=1e-4)
        return p["a"].data.copy(), p["b"].data.copy()

    a1, b1 = run()
    a2, b2 = run()
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_adamw_per_group_lr():
    p = make_store(**{"backbone.w": [1.0], "head.w": [1.0]})
    state = init_optim_state(p)
    lr = lambda name: 0.01 if name.startswith("backbone.") else 0.1
    adamw_step(p, {"backbone.w": np.array([1.0]), "head.w": np.array([1.0])},
               state, lr=lr)
    db = 1.0 - p["backbone.w"].data[0]
    dh = 1.0 - p["head.w"].data[0]
    assert abs(dh / db - 10.0) < 1e-6


def test_adamw_key_mismatch():
    p = make_store(w=[1.0])
    state = init_optim_state(p)
    with pytest.raises(KeyMismatch):
        adamw_step(p, {"v": np.zeros(1)}, state, lr=lambda _: 0.1)


def test_adamw_gradient_shape_mismatch_raises_shape_error():
    p = make_store(a=[1.0, 2.0], w=[1.0, 2.0])
    state = init_optim_state(p)
    with pytest.raises(ShapeError, match="'w'"):
        adamw_step(p, {"a": np.ones(2), "w": np.zeros((2, 1))}, state, lr=lambda _: 0.1)
    # nothing moved, not even the parameter sorted before the bad one
    assert np.array_equal(p["a"].data, [1.0, 2.0])
    assert state.t == 0 and not state.m["a"].any()


# -- ParamStore & checkpoint ------------------------------------------------------

def test_param_store_contract():
    p = ParamStore()
    p.add("b", np.zeros(2))
    p.add("a", np.zeros((3, 4)))
    assert p.names() == ["a", "b"]
    assert sum(t.data.size for _, t in p.items()) == 14
    with pytest.raises(ConfigError):
        p.add("a", np.zeros(1))


def test_checkpoint_round_trip(tmp_path):
    """Bitwise, in both dtypes a checkpoint stores."""
    rng = PortableRng(81)
    extra = {"model": {"embed_dim": 16}}
    for dtype in (np.float32, np.float64):
        p = ParamStore()
        for name, shape in (("enc.w", (4, 5)), ("enc.b", (5,)), ("scalar", ())):
            p.add(name, rand(rng, *shape).astype(dtype))
        save_checkpoint(tmp_path / "ck", p, optimizer_step=42, extra=extra)
        loaded, step, extra2 = load_checkpoint(tmp_path / "ck")
        assert step == 42 and extra2 == extra
        assert loaded.names() == p.names()
        for name, tensor in p.items():
            assert loaded[name].data.dtype == dtype
            assert loaded[name].data.shape == tensor.data.shape
            assert loaded[name].data.tobytes() == tensor.data.tobytes()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_checkpoint_is_a_manifest_and_one_flat_array_in_layout_order(tmp_path):
    """The manifest's digest, from errors.write_npy, is the file's SHA-256."""
    save_checkpoint(tmp_path / "ck", make_store(**{"enc.w": [[1.0, 2.0]], "enc.b": [3.0]}),
                    optimizer_step=7)
    assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == ["manifest.json",
                                                                   "params.npy"]
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    assert manifest == {"format_version": 4, "dtype": "float64", "optimizer_step": 7,
                        "extra": {}, "layout": [["enc.b", [1]], ["enc.w", [1, 2]]],
                        "params_sha256": _sha256(tmp_path / "ck" / "params.npy")}
    flat = np.load(tmp_path / "ck" / "params.npy", allow_pickle=False)
    assert flat.dtype == np.float64 and flat.tolist() == [3.0, 1.0, 2.0]


def test_save_checkpoint_rejects_mixed_or_unsupported_dtypes(tmp_path):
    """load_checkpoint accepts one float32 or float64 dtype, so save refuses
    anything else before it writes."""
    for name, dtypes in (("mixed", (np.float64, np.float32)), ("half", (np.float16,))):
        p = ParamStore()
        for i, dtype in enumerate(dtypes):
            p.add(f"p{i}", np.zeros(2, dtype=dtype))
        with pytest.raises(ConfigError, match="float16" if name == "half" else "float32"):
            save_checkpoint(tmp_path / name, p)
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("kwargs", [
    {"optimizer_step": 1.5}, {"optimizer_step": True}, {"optimizer_step": -1},
    {"extra": {"x": np.float32(1)}}, {"extra": {"x": float("nan")}},
    {"extra": {1: "a", "b": 2}}, {"extra": [1]},
    {"extra": {"epoch": {1: "a"}}}, {"extra": {"size": (32, 32)}},
], ids=["float-step", "bool-step", "negative-step", "numpy-scalar-extra", "nan-extra",
        "mixed-key-extra", "list-extra", "int-key-extra", "tuple-extra"])
def test_save_checkpoint_rejects_what_load_would_refuse_before_it_writes(tmp_path, kwargs):
    """The checkpoint already at the path still loads, and a save to a new
    directory creates nothing. An extra that JSON would change (int keys
    become strings, tuples lists) is refused, as load could not return it."""
    save_checkpoint(tmp_path / "ck", make_store(w=[1.0]), optimizer_step=2)
    with pytest.raises(ConfigError):
        save_checkpoint(tmp_path / "ck", make_store(w=[5.0]), **kwargs)
    with pytest.raises(ConfigError):
        save_checkpoint(tmp_path / "new" / "ck", make_store(w=[5.0]), **kwargs)
    loaded, step, _ = load_checkpoint(tmp_path / "ck")
    assert step == 2 and loaded["w"].data.tolist() == [1.0]
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]


def _store(kind: str):
    """(name, save, load) of one store kind: save(path, k) writes version k
    of it, load(path) returns (k, every array's bytes) of what it reads."""
    if kind == "checkpoint":
        def save(path, k):
            save_checkpoint(path, make_store(w=np.arange(6.0).reshape(2, 3) / (k + 7), b=[k]),
                            optimizer_step=k)

        def load(path):
            params, step, _ = load_checkpoint(path)
            return step, [(name, t.data.tobytes()) for name, t in params.items()]
        return "ck", save, load

    def save(path, k):
        cfg = GenConfig(seed=k, n_samples=3)
        write_dataset(generate_dataset(cfg), path, gen_config=cfg)

    def load(path):
        samples, meta = read_dataset(path)
        return meta["gen_config"]["seed"], [
            (s.image.tobytes(), [(h.side, h.uvd.joints.tobytes(), h.xyz.joints.tobytes())
                                 for h in s.hands]) for s in samples]
    return "ds", save, load


def _fail_on_last_file(monkeypatch):
    """Makes errors.write_store's last .npy write (params.npy, hands.npy)
    leave a cut header and raise, after any file before it was written whole."""
    def write_npy_but_not_the_last(path, *args):
        if path.name in ("params.npy", "hands.npy"):
            path.write_bytes(b"\x93NUMPY")
            raise OSError("no space left on device")
        return write_npy(path, *args)

    monkeypatch.setattr("setpose.errors.write_npy", write_npy_but_not_the_last)


@pytest.mark.parametrize("kind", ["checkpoint", "dataset"])
def test_a_save_that_raises_keeps_the_previous_checkpoint(tmp_path, monkeypatch, kind):
    """The second save of a store to a path fails in its last .npy file:
    the first store still reads back bitwise and no other directory is
    left. A later save replaces it whole."""
    name, save, load = _store(kind)
    save(tmp_path / name, 3)
    first = load(tmp_path / name)
    _fail_on_last_file(monkeypatch)
    with pytest.raises(OSError, match="no space"):
        save(tmp_path / name, 4)
    monkeypatch.undo()
    assert load(tmp_path / name) == first
    assert [p.name for p in tmp_path.iterdir()] == [name]

    save(tmp_path / name, 5)
    assert load(tmp_path / name)[0] == 5
    assert [p.name for p in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize("kind", ["checkpoint", "dataset"])
def test_a_save_to_a_fresh_path_that_raises_leaves_nothing(tmp_path, monkeypatch, kind):
    """Neither the path nor a temporary sibling of it is left."""
    name, save, _ = _store(kind)
    _fail_on_last_file(monkeypatch)
    with pytest.raises(OSError, match="no space"):
        save(tmp_path / name, 4)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["checkpoint", "dataset"])
def test_a_save_recovers_a_store_killed_between_its_renames(tmp_path, monkeypatch, kind):
    """Such a write leaves the path missing, the old store in <sibling>/old
    and the complete new one in <sibling>/new (built here by hand). The
    next save renames that new store onto the path before it writes, so a
    save that then raises leaves it readable and no sibling behind."""
    name, save, load = _store(kind)
    save(tmp_path / name, 3)
    save(tmp_path / "v4", 4)
    sibling = tmp_path / f".{name}.k1ll3d_x"
    sibling.mkdir()
    (tmp_path / name).rename(sibling / "old")
    (tmp_path / "v4").rename(sibling / "new")
    _fail_on_last_file(monkeypatch)
    with pytest.raises(OSError, match="no space"):
        save(tmp_path / name, 5)
    monkeypatch.undo()
    assert load(tmp_path / name)[0] == 4
    assert [p.name for p in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize("kind", ["checkpoint", "dataset"])
@pytest.mark.parametrize("first", [True, False], ids=["first-write", "overwrite"])
def test_a_save_deletes_the_siblings_of_writes_killed_before_their_renames(
        tmp_path, monkeypatch, kind, first):
    """Such a write leaves the path as it was and a cut store in
    <sibling>/new (built here by hand). A save that then raises leaves the
    path as it was too, but no sibling of it; the sibling of another store
    (".<name>.v2.<random>", the path <name>.v2's) stays."""
    name, save, load = _store(kind)
    if not first:
        save(tmp_path / name, 3)
    for tag in ("abcd1234", "x_9"):
        (tmp_path / f".{name}.{tag}" / "new").mkdir(parents=True)
        (tmp_path / f".{name}.{tag}" / "new" / "params.npy").write_bytes(b"\x93NUMPY")
    (tmp_path / f".{name}.v2.abcd1234" / "new").mkdir(parents=True)
    _fail_on_last_file(monkeypatch)
    with pytest.raises(OSError, match="no space"):
        save(tmp_path / name, 4)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [f".{name}.v2.abcd1234"] + ([] if first else [name]))
    if not first:
        assert load(tmp_path / name)[0] == 3


def _rehash(ck: Path) -> None:
    """Give manifest.json the SHA-256 of params.npy as it now is, so that a
    check other than the SHA-256 one has to catch an edit."""
    manifest = json.loads((ck / "manifest.json").read_text())
    manifest["params_sha256"] = _sha256(ck / "params.npy")
    (ck / "manifest.json").write_text(json.dumps(manifest))


def test_checkpoint_bad_magic(tmp_path):
    """params.npy that is not a .npy file."""
    save_checkpoint(tmp_path / "ck", make_store(w=[1.0, 2.0]))
    blob = (tmp_path / "ck" / "params.npy").read_bytes()
    (tmp_path / "ck" / "params.npy").write_bytes(b"XXXX" + blob[4:])
    _rehash(tmp_path / "ck")
    with pytest.raises(FormatError, match="params.npy: .*magic"):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_unknown_version(tmp_path):
    p = make_store(w=[1.0])
    save_checkpoint(tmp_path / "ck", p)
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    manifest["format_version"] = 99
    (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "ck")


def test_version_1_checkpoint_raises_format_error_naming_the_version(tmp_path):
    """The layout before params.npz: a parameter table in the manifest and a
    PSTO blob in params.bin."""
    (tmp_path / "ck").mkdir()
    manifest = {"format_version": 1, "optimizer_step": 0, "extra": {},
                "params": [{"name": "w", "shape": [1], "dtype": "float64", "offset": 8}]}
    (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "ck" / "params.bin").write_bytes(b"PSTO\x01\x00\x00\x00" + bytes(8))
    with pytest.raises(FormatError, match="unsupported format version 1 "):
        load_checkpoint(tmp_path / "ck")


def test_version_3_checkpoint_raises_format_error_naming_the_version(tmp_path, monkeypatch):
    """The layout before params.npy: a zip params.npz from np.savez with one
    member per parameter. Its manifest refuses it before any array is read."""
    (tmp_path / "ck").mkdir()
    manifest = {"format_version": 3, "dtype": "float64", "optimizer_step": 0, "extra": {}}
    (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                              sort_keys=True))
    np.savez(tmp_path / "ck" / "params.npz", w=np.arange(6.0).reshape(2, 3), b=[0.5])

    def no_read(*args, **kwargs):
        raise AssertionError("an array was read")

    monkeypatch.setattr(np.lib.format, "read_array", no_read)
    with pytest.raises(FormatError, match="manifest.json: unsupported format version 3 "):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_truncated_blob(tmp_path):
    p = make_store(w=np.arange(16.0))
    save_checkpoint(tmp_path / "ck", p)
    blob = (tmp_path / "ck" / "params.npy").read_bytes()
    (tmp_path / "ck" / "params.npy").write_bytes(blob[:-8])
    with pytest.raises(FormatError, match="params.npy: SHA-256"):
        load_checkpoint(tmp_path / "ck")


def _corrupt(ck: Path, case: str) -> None:
    """Edit the checkpoint of make_store(a=[1.0, 2.0], b=[[3.0, 4.0]]). A
    params.npy edit other than flipped_byte and no_archive is rehashed."""
    manifest_path, arrays = ck / "manifest.json", ck / "params.npy"
    manifest = json.loads(manifest_path.read_text())
    raw = arrays.read_bytes()
    if case == "not_an_object":
        manifest = [manifest]
    elif case == "bad_optimizer_step":
        manifest["optimizer_step"] = "x"
    elif case == "negative_optimizer_step":
        manifest["optimizer_step"] = -3
    elif case == "unknown_dtype":
        manifest["dtype"] = "float16"
    elif case == "manifest_missing_keys":
        del manifest["optimizer_step"], manifest["extra"]
    elif case == "missing_layout":
        del manifest["layout"]
    elif case == "missing_digest":
        del manifest["params_sha256"]
    elif case == "duplicate_name":
        manifest["layout"] = [["a", [2]], ["a", [1, 2]]]
    elif case == "layout_not_a_list":
        manifest["layout"] = {"a": [2], "b": [1, 2]}
    elif case == "layout_entry_not_a_pair":
        manifest["layout"] = [["a", [2], 0], ["b", [1, 2]]]
    elif case == "layout_name_not_a_string":
        manifest["layout"] = [[0, [2]], ["b", [1, 2]]]
    elif case == "layout_negative_dim":
        manifest["layout"] = [["a", [2]], ["b", [-1, -2]]]
    elif case == "layout_bool_dim":
        manifest["layout"] = [["a", [2]], ["b", [True, 2]]]
    elif case == "layout_total_differs":
        manifest["layout"] = [["a", [2]], ["b", [1, 3]]]
    elif case == "flipped_byte":  # the last payload byte of a = [1.0, 2.0]
        raw = bytearray(raw)
        raw[raw.index(np.array([1.0, 2.0]).tobytes()) + 15] ^= 0x01
        arrays.write_bytes(bytes(raw))
    elif case == "no_archive":
        arrays.unlink()
    else:
        if case == "member_header_does_not_parse":  # a header length 64 short
            arrays.write_bytes(raw[:8] + bytes([raw[8] - 64]) + raw[9:])
        elif case == "member_trailing_bytes":
            arrays.write_bytes(raw + bytes(8))
        elif case == "cut_short":
            arrays.write_bytes(raw[:-8])
        elif case == "object_member":
            np.save(arrays, np.array([None] * 4, dtype=object))
        elif case == "member_dtype_not_manifest":  # float32 under a float64 manifest
            np.save(arrays, np.load(arrays).astype(np.float32))
        manifest["params_sha256"] = _sha256(arrays)
    manifest_path.write_text(json.dumps(manifest))


# case -> the file its FormatError names; the member_* and object_member
# cases edit the one array params.npy holds
CORRUPT_CHECKPOINT_CASES = {
    "not_an_object": "manifest.json", "bad_optimizer_step": "manifest.json",
    "negative_optimizer_step": "manifest.json", "unknown_dtype": "manifest.json",
    "manifest_missing_keys": "manifest.json", "missing_layout": "manifest.json",
    "missing_digest": "manifest.json", "duplicate_name": "manifest.json",
    "layout_not_a_list": "manifest.json", "layout_entry_not_a_pair": "manifest.json",
    "layout_name_not_a_string": "manifest.json", "layout_negative_dim": "manifest.json",
    "layout_bool_dim": "manifest.json", "layout_total_differs": "manifest.json",
    "flipped_byte": "params.npy", "no_archive": "params.npy",
    "member_header_does_not_parse": "params.npy", "member_trailing_bytes": "params.npy",
    "cut_short": "params.npy", "object_member": "params.npy",
    "member_dtype_not_manifest": "params.npy"}


@pytest.mark.parametrize("case", CORRUPT_CHECKPOINT_CASES)
def test_corrupt_checkpoint_raises_format_error(tmp_path, case):
    save_checkpoint(tmp_path / "ck", make_store(a=[1.0, 2.0], b=[[3.0, 4.0]]))
    _corrupt(tmp_path / "ck", case)
    with pytest.raises(FormatError, match=CORRUPT_CHECKPOINT_CASES[case]):
        load_checkpoint(tmp_path / "ck")


def test_missing_checkpoint_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError, match="no checkpoint at"):
        load_checkpoint(tmp_path / "ck")


def test_every_flipped_bit_of_params_npy_raises_format_error(tmp_path):
    """One flipped bit anywhere in params.npy, header or payload, fails the
    SHA-256 that manifest.json records."""
    p = make_store(**{"enc.w": np.arange(20.0).reshape(4, 5), "enc.b": np.arange(5.0) / 3})
    save_checkpoint(tmp_path / "ck", p)
    arrays = tmp_path / "ck" / "params.npy"
    raw = arrays.read_bytes()
    for i in range(len(raw)):
        flipped = bytearray(raw)
        flipped[i] ^= 1 << (i % 8)
        arrays.write_bytes(bytes(flipped))
        with pytest.raises(FormatError, match="params.npy: SHA-256"):
            load_checkpoint(tmp_path / "ck")


def test_changed_shape_in_a_large_member_header_raises_format_error(tmp_path):
    """numpy stops reading at the end of the array its header describes, so
    a shrunk shape under a matching digest would read short without the
    check for bytes after the array."""
    save_checkpoint(tmp_path / "ck", make_store(w=np.arange(20000.0).reshape(400, 50)))
    arrays = tmp_path / "ck" / "params.npy"
    raw = arrays.read_bytes()
    assert raw.count(b"(20000,)") == 1
    arrays.write_bytes(raw.replace(b"(20000,)", b"(16000,)"))
    _rehash(tmp_path / "ck")
    with pytest.raises(FormatError, match="params.npy: bytes after the array"):
        load_checkpoint(tmp_path / "ck")


def test_glorot_limits_and_determinism():
    w1 = glorot_uniform(82, 30, 50)
    w2 = glorot_uniform(82, 30, 50)
    assert np.array_equal(w1, w2)
    limit = (6.0 / 80.0) ** 0.5
    assert np.abs(w1).max() <= limit
    assert w1.shape == (30, 50)
