"""Reverse-mode autodiff over numpy float64 arrays.

A Tensor wraps an ndarray plus a closure that routes the upstream gradient
to its parents; backward() walks the graph in reverse topological order.
Gradients are exact partial derivatives (up to float rounding) - there is
no approximation anywhere, which is what the finite-difference checks in
the test-suite pin down.

A closure captures its operands and plain ndarrays, never the Tensor it is
stored on, so graphs are acyclic and reference counting frees each one as
soon as its last Tensor is dropped. Inside `with no_grad():` (a process-
global flag, so threads started in the block see it) op results get no
parents and no closure: no graph is built and values are bitwise the same.
Leaves made with requires_grad=True, such as parameters, keep the flag.

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
backward folds the batch axes into GEMM rows: two 2-D products give the
input gradient and the weight gradient, in place of one GEMM per batch
entry, a (B, K, N) temporary and a sum over the batch. The forward stays
one stacked np.matmul: a single 2-D forward GEMM would change the rows each
BLAS call sees, and with them the rounding of an image's output depending
on its batch, which breaks the bitwise match between a batched forward and
single-image forwards.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import ConfigError, KeyMismatch, NonFinite, NonFiniteLoss, ShapeError

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


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` (inverse of broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
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
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))

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

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rtruediv__(self, other):
        return self._lift(other) / self

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
            def bw(g):  # shared 2-D weight: two 2-D GEMMs over all batch rows
                k, n = other.data.shape
                g2 = g.reshape(-1, n)
                if self.requires_grad:
                    self._accum((g2 @ other.data.T).reshape(self.data.shape))
                if other.requires_grad:
                    other._accum(self.data.reshape(-1, k).T @ g2)
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
        y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                     np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
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

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in np.atleast_1d(axis)])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

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


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    expanded = []
    for t in tensors:
        shape = list(t.data.shape)
        shape.insert(axis if axis >= 0 else axis + t.data.ndim + 1, 1)
        expanded.append(t.reshape(tuple(shape)))
    return concatenate(expanded, axis=axis)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax as one graph node; the shift is a constant, so
    the closed-form backward dx = y * (g - sum(g * y)) is exact."""
    e = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, _parents=(x,))
    if out.requires_grad:
        out._backward = lambda g: x._accum(y * (g - (g * y).sum(axis=axis, keepdims=True)))
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
        t = Tensor(np.array(array, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def n_scalars(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def copy(self) -> "ParamStore":
        dup = ParamStore()
        for name in self.names():
            dup.add(name, self._params[name].data.copy())
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
    grads = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in params.items()
    }
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFinite(f"gradient of {name!r} is not finite")
    return float(loss.data), grads


def check_keys_match(params: ParamStore, keyed: dict, what: str) -> None:
    if set(keyed) != set(params.names()):
        missing = set(params.names()) - set(keyed)
        extra = set(keyed) - set(params.names())
        raise KeyMismatch(f"{what}: missing={sorted(missing)} extra={sorted(extra)}")
