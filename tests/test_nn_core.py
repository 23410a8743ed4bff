from __future__ import annotations

import json

import numpy as np
import pytest

from setpose.errors import (
    ConfigError,
    FormatError,
    KeyMismatch,
    NonFinite,
    NonFiniteLoss,
    ShapeError,
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
    max_relative_error,
    mlp2,
    multi_head_attention,
    no_grad,
    numeric_gradient,
    save_checkpoint,
    softmax,
    stack,
)
from setpose.rng import PortableRng

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


def test_softmax_sum_has_zero_gradient():
    p = ParamStore()
    p.add("z", np.array([0.3, -1.2, 2.0, 0.0]))
    loss, grads = forward_backward(lambda ps: softmax(ps["z"]).sum(), p)
    assert abs(loss - 1.0) < 1e-12
    assert np.abs(grads["z"]).max() < 1e-12


def test_non_finite_loss_raises():
    p = ParamStore()
    p.add("x", np.array(0.0))
    with pytest.raises(NonFiniteLoss):
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
    x = Tensor(rand(rng, 3, 5))
    fd_check(lambda ps: (linear(x, ps["w"], ps["b"]) * 0.3).sum(), p)


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
    z = Tensor(rand(rng, 5, 7, lo=-30, hi=30))
    s = softmax(z).data
    assert np.all(s > 0) and np.all(s < 1)
    assert np.abs(s.sum(axis=-1) - 1.0).max() < 1e-12
    big = softmax(Tensor(np.array([1000.0, 0.0]))).data
    assert np.isfinite(big).all()
    assert abs(big[0] - 1.0) < 1e-12


def test_softmax_shift_invariance():
    rng = PortableRng(65)
    z = rand(rng, 3, 5)
    a = softmax(Tensor(z)).data
    b = softmax(Tensor(z + 123.456)).data
    assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


def test_softmax_gradients():
    rng = PortableRng(66)
    p = ParamStore()
    p.add("z", rand(rng, 3, 5))
    w = Tensor(rand(rng, 3, 5))
    fd_check(lambda ps: (softmax(ps["z"]) * w).sum(), p)


# -- fused layer_norm / softmax and the shared-weight matmul backward ---------------

def composed_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gamma + beta


def composed_softmax(x, axis=-1):
    e = (x - x.data.max(axis=axis, keepdims=True)).exp()
    return e / e.sum(axis=axis, keepdims=True)


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


@pytest.mark.parametrize("transposed, axis", [(False, -1), (True, -1), (False, 0)])
def test_fused_softmax_matches_composition(transposed, axis):
    rng = PortableRng(70)
    z = rand(rng, 3, 7, 4, lo=-6, hi=6)
    z = z.transpose(0, 2, 1) if transposed else z
    weight = rand(rng, *z.shape)
    fused, (fused_grad,) = grads_of(lambda t: softmax(t, axis=axis), [z], weight)
    ref, (ref_grad,) = grads_of(lambda t: composed_softmax(t, axis=axis), [z], weight)
    assert fused.tobytes() == ref.tobytes()
    assert_close(fused_grad, ref_grad, rtol=1e-12)


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
    fd_check(lambda ps: (ps["x"] - t).abs().mean(), p)


def test_mlp_gradients():
    rng = PortableRng(70)
    p = ParamStore()
    p.add("w1", rand(rng, 5, 8))
    p.add("b1", rand(rng, 8))
    p.add("w2", rand(rng, 8, 2))
    p.add("b2", rand(rng, 2))
    x = Tensor(rand(rng, 4, 5))
    fd_check(lambda ps: (mlp2(x, ps["w1"], ps["b1"], ps["w2"], ps["b2"]) ** 2.0).sum(), p)


def _attention_params(rng: PortableRng, p: ParamStore, d: int):
    for name in ("wq", "wk", "wv", "wo"):
        p.add(name, rand(rng, d, d, lo=-0.7, hi=0.7))
        p.add(name.replace("w", "b"), rand(rng, d, lo=-0.2, hi=0.2))


def _mha(ps, q, k, v, n_heads):
    return multi_head_attention(
        q, k, v,
        ps["wq"], ps["bq"], ps["wk"], ps["bk"],
        ps["wv"], ps["bv"], ps["wo"], ps["bo"], n_heads)


def test_attention_gradients():
    rng = PortableRng(71)
    p = ParamStore()
    d = 6
    _attention_params(rng, p, d)
    q = Tensor(rand(rng, 2, 3, d))
    kv = Tensor(rand(rng, 2, 5, d))
    fd_check(lambda ps: (_mha(ps, q, kv, kv, n_heads=2) ** 2.0).sum(), p)


def test_attention_gradients_wrt_inputs():
    rng = PortableRng(72)
    p = ParamStore()
    d = 4
    p.add("q", rand(rng, 1, 3, d))
    p.add("kv", rand(rng, 1, 4, d))
    weights = ParamStore()
    _attention_params(rng, weights, d)
    fd_check(lambda ps: (_mha(weights, ps["q"], ps["kv"], ps["kv"], n_heads=2)
                         * 0.5).sum(), p)


def test_attention_single_kv_position_ignores_query():
    rng = PortableRng(74)
    p = ParamStore()
    d = 4
    _attention_params(rng, p, d)
    kv = Tensor(rand(rng, 1, 1, d))
    out1 = _mha(p, Tensor(rand(rng, 1, 3, d)), kv, kv, n_heads=2).data
    out2 = _mha(p, Tensor(rand(rng, 1, 3, d)), kv, kv, n_heads=2).data
    # softmax over one key is identically 1: output = Wo(Wv v + bv) + bo
    expected = (kv.data @ p["wv"].data + p["bv"].data) @ p["wo"].data + p["bo"].data
    assert np.allclose(out1, np.broadcast_to(expected, out1.shape), rtol=1e-12)
    assert np.allclose(out1, out2, rtol=1e-12)


def test_attention_two_position_hand_computed():
    # d_model = 1, one head: identity projections, zero biases
    p = ParamStore()
    for name in ("wq", "wk", "wv", "wo"):
        p.add(name, np.array([[1.0]]))
        p.add(name.replace("w", "b"), np.array([0.0]))
    q = Tensor(np.array([[[0.5]]]))          # single query
    k = Tensor(np.array([[[1.0], [-1.0]]]))  # two keys = values
    out = _mha(p, q, k, k, n_heads=1).data
    # scores = [0.5, -0.5]; w = softmax -> (e/(e+1/e) strutture)
    w0 = np.exp(0.5) / (np.exp(0.5) + np.exp(-0.5))
    expected = w0 * 1.0 + (1.0 - w0) * -1.0
    assert abs(out[0, 0, 0] - expected) < 1e-14


def test_attention_shape_errors():
    p = ParamStore()
    _attention_params(PortableRng(75), p, 6)
    x = Tensor(np.zeros((1, 2, 6)))
    with pytest.raises(ShapeError):
        _mha(p, x, x, x, n_heads=4)  # 6 % 4 != 0
    with pytest.raises(ShapeError):
        _mha(p, Tensor(np.zeros((2, 6))), x, x, n_heads=2)  # no batch axis


def test_getitem_concat_stack_gradients():
    rng = PortableRng(76)
    p = ParamStore()
    p.add("a", rand(rng, 4, 3))
    p.add("b", rand(rng, 2, 3))

    def loss(ps):
        cat = concatenate([ps["a"], ps["b"]], axis=0)       # (6, 3)
        picked = stack([cat[1], cat[4], cat[1]], axis=0)    # reuse row 1
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
    adamw_step(p, {"w": np.zeros(3)}, state, lr=0.1)
    assert np.array_equal(p["w"].data, before)
    assert state.t == 1


def test_adamw_first_step_hand_recurrence():
    p = make_store(w=[1.0])
    state = init_optim_state(p)
    adamw_step(p, {"w": np.array([1.0])}, state, lr=0.1,
               beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0)
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
        adamw_step(p, {"w": np.zeros(1)}, state, lr=lr, weight_decay=wd)
        val = val - lr * wd * val
        assert abs(p["w"].data[0] - val) < 1e-12


def test_adamw_deterministic_bitwise():
    def run():
        rng = PortableRng(80)
        p = make_store(a=rand(rng, 3, 3), b=rand(rng, 3))
        state = init_optim_state(p)
        for step in range(10):
            grads = {"a": rand(rng, 3, 3), "b": rand(rng, 3)}
            adamw_step(p, grads, state, lr=1e-2, weight_decay=1e-4)
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
        adamw_step(p, {"v": np.zeros(1)}, state, lr=0.1)


def test_adamw_gradient_shape_mismatch_raises_shape_error():
    p = make_store(a=[1.0, 2.0], w=[1.0, 2.0])
    state = init_optim_state(p)
    with pytest.raises(ShapeError, match="'w'"):
        adamw_step(p, {"a": np.ones(2), "w": np.zeros((2, 1))}, state, lr=0.1)
    # nothing moved, not even the parameter sorted before the bad one
    assert np.array_equal(p["a"].data, [1.0, 2.0])
    assert state.t == 0 and not state.m["a"].any()


# -- ParamStore & checkpoint ------------------------------------------------------

def test_param_store_contract():
    p = ParamStore()
    p.add("b", np.zeros(2))
    p.add("a", np.zeros((3, 4)))
    assert p.names() == ["a", "b"]
    assert p.n_scalars() == 14
    with pytest.raises(ConfigError):
        p.add("a", np.zeros(1))


def test_checkpoint_round_trip(tmp_path):
    rng = PortableRng(81)
    p = make_store(**{"enc.w": rand(rng, 4, 5), "enc.b": rand(rng, 5),
                      "scalar": rand(rng, 1)})
    extra = {"model": {"embed_dim": 16}}
    save_checkpoint(tmp_path / "ck", p, optimizer_step=42, extra=extra)
    loaded, step, extra2 = load_checkpoint(tmp_path / "ck")
    assert step == 42 and extra2 == extra
    assert loaded.names() == p.names()
    for name, tensor in p.items():
        assert np.array_equal(loaded[name].data, tensor.data)


def test_checkpoint_bad_magic(tmp_path):
    p = make_store(w=[1.0, 2.0])
    save_checkpoint(tmp_path / "ck", p)
    blob = (tmp_path / "ck" / "params.bin").read_bytes()
    (tmp_path / "ck" / "params.bin").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_unknown_version(tmp_path):
    p = make_store(w=[1.0])
    save_checkpoint(tmp_path / "ck", p)
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    manifest["format_version"] = 99
    (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_truncated_blob(tmp_path):
    p = make_store(w=np.arange(16.0))
    save_checkpoint(tmp_path / "ck", p)
    blob = (tmp_path / "ck" / "params.bin").read_bytes()
    (tmp_path / "ck" / "params.bin").write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "ck")


def _corrupt(manifest: dict, blob: bytes, case: str):
    first, second = manifest["params"]
    if case == "offset_0":  # the first weight would be read from the magic
        first["offset"] = 0
    elif case == "negative_offset":
        first["offset"] = -8
    elif case == "no_offset":
        del first["offset"]
    elif case == "negative_shape":
        first["shape"] = [-2]
    elif case == "out_of_order":
        first["offset"], second["offset"] = second["offset"], first["offset"]
    elif case == "no_params_table":
        del manifest["params"]
    elif case == "not_an_object":
        manifest = [manifest]
    elif case == "trailing_bytes":
        blob += bytes(8)
    elif case == "bad_optimizer_step":
        manifest["optimizer_step"] = "x"
    return manifest, blob


@pytest.mark.parametrize("case", [
    "offset_0", "negative_offset", "no_offset", "negative_shape", "out_of_order",
    "no_params_table", "not_an_object", "trailing_bytes", "bad_optimizer_step"])
def test_corrupt_checkpoint_raises_format_error(tmp_path, case):
    save_checkpoint(tmp_path / "ck", make_store(a=[1.0, 2.0], b=[[3.0, 4.0]]))
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    blob = (tmp_path / "ck" / "params.bin").read_bytes()
    manifest, blob = _corrupt(manifest, blob, case)
    (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "ck" / "params.bin").write_bytes(blob)
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "ck")


def test_glorot_limits_and_determinism():
    w1 = glorot_uniform(82, 30, 50)
    w2 = glorot_uniform(82, 30, 50)
    assert np.array_equal(w1, w2)
    limit = (6.0 / 80.0) ** 0.5
    assert np.abs(w1).max() <= limit
    assert w1.shape == (30, 50)
