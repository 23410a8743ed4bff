"""Standard differentiable layers built from Tensor ops.

All layers are pure functions of (inputs, explicit weight tensors); the
caller owns the parameters. Shapes follow the (batch, tokens, features)
convention.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..rng import counter_uniform
from .tensor import Tensor, _unbroadcast, softmax


def glorot_uniform(key: int, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform +-sqrt(6/(fan_in+fan_out)) init of shape (fan_in, fan_out).

    Counter-based: row-major element i is counter_uniform's value i under
    `key`, a pure function of (key, i) with no generator state to thread.
    """
    limit = (6.0 / (fan_in + fan_out)) ** 0.5
    return counter_uniform(key, fan_in * fan_out, -limit, limit).reshape(fan_in, fan_out)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return x @ w + b


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
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * inv_d
    s = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_d + eps)
    xh = centered / s
    out = Tensor(xh * gamma.data + beta.data, _parents=(x, gamma, beta))
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
    """Two-layer perceptron with ReLU hidden activation."""
    return linear(x, w1, b1).relu() @ w2 + b2


def multi_head_attention(
    queries: Tensor,
    keys: Tensor,
    values: Tensor,
    wq: Tensor, bq: Tensor,
    wk: Tensor, bk: Tensor,
    wv: Tensor, bv: Tensor,
    wo: Tensor, bo: Tensor,
    n_heads: int,
) -> Tensor:
    """Scaled dot-product attention over n_heads subspaces.

    queries: (B, Tq, D), keys/values: (B, Tk, D). Per head:
    softmax(Q K^T / sqrt(d_head)) V; heads are concatenated and passed
    through the output projection. Output shape equals the query shape.
    """
    if not queries.data.ndim == keys.data.ndim == values.data.ndim == 3:
        raise ShapeError("attention inputs must be (batch, tokens, features)")
    d_model = queries.shape[-1]
    if d_model % n_heads != 0:
        raise ShapeError(f"embed dim {d_model} not divisible by {n_heads} heads")
    if keys.shape[-1] != d_model or values.shape[-1] != d_model:
        raise ShapeError("queries/keys/values feature dims must match")
    d_head = d_model // n_heads
    b, tq = queries.shape[0], queries.shape[1]
    tk = keys.shape[1]

    def split_heads(t: Tensor, tlen: int) -> Tensor:
        return t.reshape((b, tlen, n_heads, d_head)).transpose((0, 2, 1, 3))

    q = split_heads(linear(queries, wq, bq), tq)
    k = split_heads(linear(keys, wk, bk), tk)
    v = split_heads(linear(values, wv, bv), tk)

    scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(d_head))
    attn = softmax(scores, axis=-1)  # (b, heads, tq, tk)
    mixed = attn @ v
    merged = mixed.transpose((0, 2, 1, 3)).reshape((b, tq, d_model))
    return linear(merged, wo, bo)
