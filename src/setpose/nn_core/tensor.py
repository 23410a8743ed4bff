"""Reverse-mode autodiff over numpy floating arrays.

A Tensor wraps an ndarray plus a closure that routes the upstream gradient
to its parents; backward() walks the graph in reverse topological order.
Gradients are exact partial derivatives (up to float rounding) - there is
no approximation anywhere, which is what the finite-difference checks in
the test-suite pin down.

A closure captures its operands and plain ndarrays, never the Tensor it is
stored on, so graphs are acyclic and reference counting frees them. backward()
frees a graph node by node: an interior node that has routed its gradient
drops that gradient, its closure (with the arrays it saved) and its parents,
so it dies unless the caller holds it; leaves keep their .grad. A graph is
backwarded once: a second backward() through it raises SpentGraph.

Inside `with no_grad():` (a process-global flag, so threads started in the
block see it) op results get no parents and no closure: no graph is built
and values are bitwise the same. Leaves made with requires_grad=True, such
as parameters, keep the flag.

A Tensor keeps a floating input's dtype (anything else becomes float64),
and op results, gradients and AdamW moments take their operands' dtype.
_lift gives a constant the Tensor's dtype, since numpy 2 promotes float32
times a 0-d float64 array to float64. build_model's parameters are float32.

Broadcasting in binary ops is supported; gradients are summed back down to
each operand's shape. matmul follows numpy semantics for stacked matrices
(leading batch dimensions), with batch-broadcast gradients reduced the
same way.

A Tensor owns its first gradient: _accum copies it into a fresh
np.empty_like(data) and adds only from the second contribution on, which
saves a zero fill and an add per node. The buffer takes data's memory
layout, not the incoming gradient's (as np.array(g) would): numpy's
pairwise sums and the BLAS transpose flags depend on that layout, so
gradients round as they would in a zero-filled buffer of data's layout.

When a stacked operand meets a shared 2-D weight, (..., K) @ (K, N), the
backward (`_shared_weight_grads`, also called by `linear`, `mlp2` and
`multi_head_attention`) folds the batch axes into GEMM rows: two 2-D
products give the input gradient and the weight gradient, in place of one
GEMM per batch entry, a (B, K, N) temporary and a sum over the batch. The
forward stays one stacked np.matmul: a single 2-D forward GEMM would change
the rows each BLAS call sees, and with them the rounding of an image's
output depending on its batch, which breaks the bitwise match between a
batched forward and single-image forwards.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import ConfigError, KeyMismatch, NonFinite, NonFiniteLoss, ShapeError, SpentGraph

_grad_enabled = True


@contextmanager
def no_grad():
    """Build no autodiff graph inside the block; restores the flag on exit."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _spent(g: np.ndarray) -> None:
    """The backward of a node that backward() has freed; never called."""


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` (inverse of broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _shared_weight_grads(a: np.ndarray, w: np.ndarray, g: np.ndarray,
                         need_a: bool, need_w: bool):
    """Gradients (of a, of w) of a (..., K) @ w (K, N) at upstream g, each
    one 2-D GEMM over all batch rows; None where not needed."""
    k, n = w.shape
    g2 = g.reshape(-1, n)
    return ((g2 @ w.T).reshape(a.shape) if need_a else None,
            a.reshape(-1, k).T @ g2 if need_w else None)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or (
            _grad_enabled and any(p.requires_grad for p in _parents))
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # -- graph plumbing ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar output, got shape {self.shape}")
        order: list[Tensor] = []  # topological order of the graph
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:  # iterative DFS; graphs can exceed the recursion limit
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            if node._backward is _spent:
                raise SpentGraph("backward() through a graph already backwarded")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while order:  # reverse topological order; free each node once spent
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _spent, ()

    def _lift(self, x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=self.data.dtype))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        out = Tensor(self.data + other.data, _parents=(self, other))
        if out.requires_grad:
            def bw(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(g, other.data.shape))
            out._backward = bw
        return out

    def __mul__(self, other):
        other = self._lift(other)
        out = Tensor(self.data * other.data, _parents=(self, other))
        if out.requires_grad:
            def bw(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g * other.data, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(g * self.data, other.data.shape))
            out._backward = bw
        return out

    def __truediv__(self, other):
        other = self._lift(other)
        out = Tensor(self.data / other.data, _parents=(self, other))
        if out.requires_grad:
            def bw(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g / other.data, self.data.shape))
                if other.requires_grad:
                    other._accum(
                        _unbroadcast(-g * self.data / (other.data * other.data),
                                     other.data.shape))
            out._backward = bw
        return out

    def __neg__(self):
        out = Tensor(-self.data, _parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: self._accum(-g)
        return out

    def __sub__(self, other):
        return self + (-self._lift(other))

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, exponent: float):
        out = Tensor(self.data ** exponent, _parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: self._accum(
                g * exponent * self.data ** (exponent - 1))
        return out

    def __matmul__(self, other):
        other = self._lift(other)
        out = Tensor(np.matmul(self.data, other.data), _parents=(self, other))
        if out.requires_grad and other.data.ndim == 2 and self.data.ndim > 2:
            def bw(g):
                ga, gw = _shared_weight_grads(self.data, other.data, g,
                                              self.requires_grad, other.requires_grad)
                if self.requires_grad:
                    self._accum(ga)
                if other.requires_grad:
                    other._accum(gw)
            out._backward = bw
        elif out.requires_grad:
            def bw(g):
                if self.requires_grad:
                    ga = np.matmul(g, np.swapaxes(other.data, -1, -2))
                    self._accum(_unbroadcast(ga, self.data.shape))
                if other.requires_grad:
                    gb = np.matmul(np.swapaxes(self.data, -1, -2), g)
                    other._accum(_unbroadcast(gb, other.data.shape))
            out._backward = bw
        return out

    # -- elementwise nonlinearities -----------------------------------------

    def exp(self):
        y = np.exp(self.data)
        out = Tensor(y, _parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: self._accum(g * y)
        return out

    def log(self):
        out = Tensor(np.log(self.data), _parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: self._accum(g / self.data)
        return out

    def sqrt(self):
        y = np.sqrt(self.data)
        out = Tensor(y, _parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: self._accum(g * 0.5 / y)
        return out

    def abs(self):
        # subgradient 0 at exactly 0
        out = Tensor(np.abs(self.data), _parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: self._accum(g * np.sign(self.data))
        return out

    def sigmoid(self):
        # stable two-branch evaluation, no overflow for large |x|
        x = self.data
        e = np.exp(-np.abs(x))
        y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        out = Tensor(y, _parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: self._accum(g * y * (1.0 - y))
        return out

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), _parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: self._accum(g * (self.data > 0))
        return out

    # -- reductions & shape ops ---------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), _parents=(self,))
        if out.requires_grad:
            def bw(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accum(np.broadcast_to(g, self.data.shape).copy())
            out._backward = bw
        return out

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), _parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: self._accum(g.reshape(self.data.shape))
        return out

    def transpose(self, axes: tuple[int, ...]):
        out = Tensor(self.data.transpose(axes), _parents=(self,))
        if out.requires_grad:
            inv = np.argsort(axes)
            out._backward = lambda g: self._accum(g.transpose(inv))
        return out

    def broadcast_to(self, shape: tuple[int, ...]):
        out = Tensor(np.broadcast_to(self.data, shape).copy(), _parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: self._accum(_unbroadcast(g, self.data.shape))
        return out

    def __getitem__(self, idx):
        out = Tensor(self.data[idx], _parents=(self,))
        if out.requires_grad:
            def bw(g):
                buf = np.zeros_like(self.data)
                np.add.at(buf, idx, g)
                self._accum(buf)
            out._backward = bw
        return out

    def item(self) -> float:
        return float(self.data)


def concatenate(tensors: list[Tensor], axis: int = 0) -> Tensor:
    parents = tuple(tensors)
    out = Tensor(np.concatenate([t.data for t in parents], axis=axis),
                 _parents=parents)
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in parents]
        offsets = np.cumsum([0] + sizes)

        def bw(g):
            for t, lo, hi in zip(parents, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(lo, hi)
                    t._accum(g[tuple(sl)])
        out._backward = bw
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.data.max(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


class ParamStore:
    """Named trainable tensors with deterministic (sorted-name) iteration."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(array), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def copy(self) -> "ParamStore":
        dup = ParamStore()
        for name, tensor in self.items():
            dup.add(name, tensor.data)  # add copies
        return dup


Gradients = dict  # name -> ndarray, same keys/shapes as the ParamStore


def forward_backward(graph_fn, params: ParamStore, *inputs) -> tuple[float, Gradients]:
    """Evaluate a scalar-valued graph and return (loss, exact gradients).

    graph_fn(params, *inputs) must build the computation with Tensor ops
    and return a scalar Tensor. Parameters never touched by the graph get
    zero gradients (their true partials). A non-finite loss raises
    NonFiniteLoss; a non-finite gradient raises NonFinite naming the first
    such parameter in sorted-name order.
    """
    params.zero_grad()
    loss = graph_fn(params, *inputs)
    if not np.isfinite(loss.data):
        raise NonFiniteLoss(f"loss is {float(loss.data)}")
    loss.backward()
    # each t.grad is a buffer its Tensor owns (see _accum): hand it over and
    # drop the Tensor's reference, so no parameter aliases the result
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for name, t in params.items()}
    params.zero_grad()
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFinite(f"gradient of {name!r} is not finite")
    return float(loss.data), grads


def check_keys_match(params: ParamStore, keyed: dict, what: str) -> None:
    if set(keyed) != set(params.names()):
        missing = set(params.names()) - set(keyed)
        extra = set(keyed) - set(params.names())
        raise KeyMismatch(f"{what}: missing={sorted(missing)} extra={sorted(extra)}")
