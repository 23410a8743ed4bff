"""Standard differentiable layers over Tensors.

All layers are pure functions of (inputs, explicit weight tensors); the
caller owns the parameters. Shapes follow the (batch, tokens, features)
convention.

`linear`, `layer_norm`, `mlp2` and `multi_head_attention` are each one
graph node with a closed-form backward. Each forward writes its arithmetic
into buffers it allocates itself (`y = x @ w; y += b`, `np.exp(s, out=s)`)
instead of one fresh array per elementwise step, which keeps large
temporaries off the heap; inference and training run the same code. Every
buffer keeps its operands' dtype (scalar factors are Python floats, which
never promote an array). What each backward keeps, beyond its operands:

    linear                nothing
    layer_norm            xh = (x - mean) / s and s
    mlp2                  h, the ReLU output
    multi_head_attention  the q, k and v head views of the projections,
                          the attention weights a and the merged heads

An in-place ufunc rounds each element exactly as the out-of-place one
does, and every reduction runs over an array of the same values and memory
layout, so each forward is bitwise the Tensor-op composition it replaces.
The backward evaluates the same numpy expressions that composition's
backward would, so gradients are bitwise equal too, up to the order in
which the consumers of one input add their contributions to its gradient
(attention's q, k and v projections of a shared input add in that order).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..rng import counter_uniform
from .tensor import Tensor, _shared_weight_grads, _unbroadcast


def glorot_uniform(key: int, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform +-sqrt(6/(fan_in+fan_out)) init of shape (fan_in, fan_out).

    Counter-based: row-major element i is counter_uniform's value i under
    `key`, a pure function of (key, i) with no generator state to thread.
    """
    limit = (6.0 / (fan_in + fan_out)) ** 0.5
    return counter_uniform(key, fan_in * fan_out, -limit, limit).reshape(fan_in, fan_out)


def _accum_linear(x: Tensor, w: Tensor, b: Tensor | None, g: np.ndarray) -> None:
    """Route the gradient g of x @ w (+ b if any) to each operand needing it."""
    gx, gw = _shared_weight_grads(x.data, w.data, g, x.requires_grad, w.requires_grad)
    if x.requires_grad:
        x._accum(gx)
    if w.requires_grad:
        w._accum(gw)
    if b is not None and b.requires_grad:
        b._accum(_unbroadcast(g, b.data.shape))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with a 2-D weight w, as one graph node."""
    y = np.matmul(x.data, w.data)
    y += b.data
    out = Tensor(y, _parents=(x, w, b))
    if out.requires_grad:
        out._backward = lambda g: _accum_linear(x, w, b, g)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    One graph node. With s = sqrt(var + eps), xh = (x - mean) / s and
    dxh = g * gamma, the closed-form backward over the last axis is

        dx     = (dxh - mean(dxh) - xh * mean(dxh * xh)) / s
        dgamma = sum of g * xh,  dbeta = sum of g  (over the broadcast axes)

    The forward evaluates the same numpy expressions, in the same order, as
    the Tensor-op composition mean / subtract / square-mean / sqrt / divide
    / affine, so its values are bitwise those of that composition.
    """
    inv_d = 1.0 / x.data.shape[-1]
    xh = x.data - x.data.sum(axis=-1, keepdims=True) * inv_d
    s = np.sqrt((xh * xh).sum(axis=-1, keepdims=True) * inv_d + eps)
    xh /= s
    y = xh * gamma.data
    y += beta.data
    out = Tensor(y, _parents=(x, gamma, beta))
    if out.requires_grad:
        def bw(g):
            if x.requires_grad:
                dxh = g * gamma.data
                x._accum((dxh - dxh.sum(axis=-1, keepdims=True) * inv_d
                          - xh * ((dxh * xh).sum(axis=-1, keepdims=True) * inv_d)) / s)
            if gamma.requires_grad:
                gamma._accum(_unbroadcast(g * xh, gamma.data.shape))
            if beta.requires_grad:
                beta._accum(_unbroadcast(g, beta.data.shape))
        out._backward = bw
    return out


def mlp2(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 as one graph node.

    The backward masks with h > 0 on the ReLU output h, which equals the
    pre-activation mask, so a unit exactly at 0 passes a zero gradient.
    """
    h = np.matmul(x.data, w1.data)
    h += b1.data
    np.maximum(h, 0.0, out=h)
    y = np.matmul(h, w2.data)
    y += b2.data
    out = Tensor(y, _parents=(x, w1, b1, w2, b2))
    if out.requires_grad:
        def bw(g):
            first = x.requires_grad or w1.requires_grad or b1.requires_grad
            gh, gw2 = _shared_weight_grads(h, w2.data, g, first, w2.requires_grad)
            if w2.requires_grad:
                w2._accum(gw2)
            if b2.requires_grad:
                b2._accum(_unbroadcast(g, b2.data.shape))
            if first:
                gh *= h > 0
                _accum_linear(x, w1, b1, gh)
        out._backward = bw
    return out


def multi_head_attention(
    queries: Tensor,
    memory: Tensor,
    wq: Tensor, bq: Tensor,
    wk: Tensor,
    wv: Tensor, bv: Tensor,
    wo: Tensor, bo: Tensor,
    n_heads: int,
) -> Tensor:
    """Multi-head attention of queries (B, Tq, D) over memory (B, Tk, D), as
    one graph node; the output has the query shape.

    q = queries @ wq + bq, k = memory @ wk (a key bias would shift each
    softmax row by a constant) and v = memory @ wv + bv, each split into
    n_heads views (B, heads, T, D / heads) of its buffer. Per head,
    softmax(q k^T / sqrt(d_head)) v: the score buffer is scaled, max-shifted,
    exponentiated and normalised in place and kept as the weights a. The
    heads are merged into (B, Tq, D) and passed through wo, bo. With
    ga = g v^T, the softmax backward is a * (ga - sum(ga * a)) over Tk; the
    shift is a constant, so the closed form is exact.
    """
    if not queries.data.ndim == memory.data.ndim == 3:
        raise ShapeError("attention inputs must be (batch, tokens, features)")
    b, tq, d_model = queries.shape
    if d_model % n_heads != 0:
        raise ShapeError(f"embed dim {d_model} not divisible by {n_heads} heads")
    if memory.shape[0] != b or memory.shape[-1] != d_model:
        raise ShapeError(f"memory {memory.shape} does not fit queries {queries.shape}")
    d_head = d_model // n_heads

    def split(x: np.ndarray) -> np.ndarray:  # (B, T, D) -> (B, heads, T, d_head)
        return x.reshape(b, x.shape[1], n_heads, d_head).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:  # (B, heads, T, d_head) -> (B, T, D)
        # always a C-ordered copy: the bias-gradient sums round by layout
        return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(b, x.shape[2], d_model)

    def project(x: Tensor, w: Tensor, bias: Tensor | None) -> np.ndarray:
        y = np.matmul(x.data, w.data)
        if bias is not None:
            y += bias.data
        return split(y)

    q, k, v = project(queries, wq, bq), project(memory, wk, None), project(memory, wv, bv)
    scale = float(1.0 / np.sqrt(d_head))
    a = np.matmul(q, np.swapaxes(k, -1, -2))
    a *= scale
    a -= a.max(axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    merged = merge(np.matmul(a, v))
    y = np.matmul(merged, wo.data)
    y += bo.data
    out = Tensor(y, _parents=(queries, memory, wq, bq, wk, wv, bv, wo, bo))
    if out.requires_grad:
        def bw(g):  # every input gradient; _accum_linear routes what is needed
            gm, gwo = _shared_weight_grads(merged, wo.data, g, True, wo.requires_grad)
            if wo.requires_grad:
                wo._accum(gwo)
            if bo.requires_grad:
                bo._accum(_unbroadcast(g, bo.data.shape))
            gh = split(gm)
            ga = np.matmul(gh, np.swapaxes(v, -1, -2))
            gs = a * (ga - (ga * a).sum(axis=-1, keepdims=True))
            gs *= scale
            _accum_linear(queries, wq, bq, merge(np.matmul(gs, k)))
            _accum_linear(memory, wk, None, merge(
                np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), gs), -1, -2)))
            _accum_linear(memory, wv, bv, merge(np.matmul(np.swapaxes(a, -1, -2), gh)))
        out._backward = bw
    return out
