"""Spans around the library's public functions, for the traced run.

Nothing in src/ knows about tracing: every span comes from a wrapper that
this module puts in place of a setpose function (in each module namespace
that binds it) or of a Tensor method, and takes out again when the
`Patcher` is closed. Spans are kept in memory as [name, start, end,
parent index]; a span's self time is its duration minus the durations of
its direct children.

Two instrument sets exist because op-level wrappers run thousands of times
per training step and would inflate the block spans they sit in:

  * `install_layer_spans`: model blocks, matching, optimizer, checkpoint,
    data and train/eval functions, and Tensor.backward
  * `install_op_spans`: forward of every Tensor op kind plus the backward
    closure each op returns, and a count of PortableRng draws

Both also time the cyclic garbage collector, which frees autodiff graphs.
"""

from __future__ import annotations

import functools
import gc
import importlib
import math
import sys
import time
from dataclasses import dataclass, field

from setpose.nn_core import tensor
from setpose.rng import PortableRng

# (module, attribute, span name) for every function timed by the layer pass.
LAYER_FUNCTIONS = (
    ("setpose.train_eval", "train", "train_eval.train"),
    ("setpose.train_eval", "evaluate", "train_eval.evaluate"),
    ("setpose.train_eval", "predict", "train_eval.predict"),
    ("setpose.train_eval", "score_predictions", "train_eval.score_predictions"),
    ("setpose.train_eval", "scale_stats_from_samples", "train_eval.scale_stats_from_samples"),
    ("setpose.model", "build_model", "model.build_model"),
    ("setpose.model", "forward_batch", "model.forward_batch"),
    ("setpose.model", "decode_predictions", "model.decode_predictions"),
    ("setpose.matching", "build_cost_matrix", "matching.build_cost_matrix"),
    ("setpose.matching", "hungarian", "matching.hungarian"),
    ("setpose.matching", "set_loss", "matching.set_loss"),
    ("setpose.nn_core.tensor", "forward_backward", "nn_core.forward_backward"),
    ("setpose.nn_core.optim", "init_optim_state", "nn_core.init_optim_state"),
    ("setpose.nn_core.optim", "adamw_step", "nn_core.adamw_step"),
    ("setpose.nn_core.checkpoint", "save_checkpoint", "nn_core.save_checkpoint"),
    ("setpose.data", "augment", "data.augment"),
    ("setpose.data", "generate_dataset", "data.generate_dataset"),
    ("setpose.data", "generate_sample", "data.generate_sample"),
    ("setpose.data", "render_scene", "data.render_scene"),
    ("setpose.data", "write_dataset", "data.write_dataset"),
    ("setpose.data", "read_dataset", "data.read_dataset"),
    ("setpose.hand_model", "rescale_depth", "hand_model.rescale_depth"),
)

# nn_core.layers functions that model.py calls; wrapped in the model
# namespace only, so the linear calls inside attention and MLP count toward
# the enclosing block.
BLOCK_LAYERS = ("linear", "layer_norm", "mlp2", "multi_head_attention")
BLOCKS = ("patch_embed", "enc_attn", "enc_ffn", "dec_self_attn", "dec_cross_attn",
          "dec_ffn", "layer_norm", "heads")

# Tensor method -> op kind. Composite methods (__sub__, __rsub__,
# __rtruediv__, mean) are left alone: the primitives they call are counted.
OP_METHODS = {
    "__add__": "add", "__radd__": "add", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "truediv", "__neg__": "neg", "__pow__": "pow",
    "__matmul__": "matmul", "exp": "exp", "log": "log", "sqrt": "sqrt",
    "abs": "abs", "sigmoid": "sigmoid", "relu": "relu", "sum": "sum",
    "reshape": "reshape", "transpose": "transpose", "broadcast_to": "broadcast_to",
    "__getitem__": "getitem",
}
OP_KINDS = tuple(dict.fromkeys(OP_METHODS.values())) + ("concatenate",)


class Tracer:
    """Records nested spans; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []

    def enter(self, name: str) -> int:
        # A collection (itself a span) may start while the record is
        # allocated, so the index and the start time are taken afterwards.
        record = [name, math.nan, math.nan, self._open[-1] if self._open else -1]
        self.spans.append(record)
        idx = len(self.spans) - 1
        self._open.append(idx)
        record[1] = self.clock()
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0  # inclusive seconds
    self_time: float = 0.0
    durations: list = field(default_factory=list)


def summarize(spans: list[list]) -> dict[str, SpanStats]:
    """Per span name: calls, inclusive and self time, per-call durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, SpanStats] = {}
    for (name, start, end, _), child_time in zip(spans, child):
        st = out.setdefault(name, SpanStats())
        dur = end - start
        st.calls += 1
        st.total += dur
        st.self_time += dur - child_time
        st.durations.append(dur)
    return out


def root_time(spans: list[list]) -> float:
    """Time covered by spans; equals the sum of every span's self time."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0..100); nan for no values."""
    if not values:
        return math.nan
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Patcher:
    """Swaps attributes in and puts every original back on close()."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def add_gc_callback(self, callback) -> None:
        gc.callbacks.append(callback)
        self._undo.append(lambda: gc.callbacks.remove(callback))

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def setpose_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "setpose" or name.startswith("setpose."))]


def patch_everywhere(patcher: Patcher, func, replacement) -> None:
    """Replace `func` in every setpose module namespace that binds it."""
    for mod in setpose_modules():
        for attr, value in list(vars(mod).items()):
            if value is func:
                patcher.set(mod, attr, replacement)


def snapshot_bindings() -> dict:
    """Identity of every function-valued binding the instruments may touch."""
    snap = {}
    for mod in setpose_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                snap[(mod.__name__, attr)] = value
    for cls in (tensor.Tensor, PortableRng):
        for attr, value in vars(cls).items():
            snap[(cls.__qualname__, attr)] = value
    snap[("gc", "callbacks")] = tuple(gc.callbacks)
    return snap


def spanned(tracer: Tracer, name, fn):
    """Wrap `fn` in a span; `name` is a string or a function of the call's
    positional arguments that returns one."""
    name_of = name if callable(name) else (lambda args: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(name_of(args))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
    return wrapper


@dataclass(frozen=True)
class BlockShapes:
    """Names the model block behind a layer call from its argument shapes."""

    n_tokens: int
    n_queries: int
    patch_dim: int

    def __post_init__(self):
        if self.n_tokens == self.n_queries:
            raise ValueError("token and query counts must differ to tell "
                             "encoder from decoder calls apart")

    @classmethod
    def from_config(cls, cfg) -> "BlockShapes":
        return cls(n_tokens=cfg.n_tokens, n_queries=cfg.n_queries,
                   patch_dim=cfg.patch_size * cfg.patch_size * 3)

    def block_of(self, layer: str, args: tuple) -> str:
        if layer == "layer_norm":
            return "layer_norm"
        if layer == "linear":
            return "patch_embed" if args[0].shape[-1] == self.patch_dim else "other"
        if layer == "multi_head_attention":
            tq, tk = args[0].shape[-2], args[1].shape[-2]
            return {(self.n_tokens, self.n_tokens): "enc_attn",
                    (self.n_queries, self.n_queries): "dec_self_attn",
                    (self.n_queries, self.n_tokens): "dec_cross_attn"}.get((tq, tk), "other")
        if layer == "mlp2":
            x, w1 = args[0], args[1]
            if w1.shape[-1] != 4 * x.shape[-1]:
                return "heads"  # the FFN hidden width is 4x, the heads' is 1x
            return {self.n_tokens: "enc_ffn", self.n_queries: "dec_ffn"}.get(
                x.shape[-2], "other")
        return "other"


def install_gc_spans(patcher: Patcher, tracer: Tracer) -> None:
    """Time cyclic garbage collections as `python.gc` spans, so their
    pauses are not charged to whichever function allocated last."""
    open_spans = []

    def on_gc(phase, info):
        if phase == "start":
            open_spans.append(tracer.enter("python.gc"))
        elif open_spans:
            tracer.exit(open_spans.pop())
    patcher.add_gc_callback(on_gc)


def install_layer_spans(patcher: Patcher, tracer: Tracer, shapes: BlockShapes | None) -> None:
    install_gc_spans(patcher, tracer)
    for module, attr, name in LAYER_FUNCTIONS:
        func = getattr(importlib.import_module(module), attr)
        patch_everywhere(patcher, func, spanned(tracer, name, func))
    patcher.set(tensor.Tensor, "backward",
                spanned(tracer, "nn_core.backward", tensor.Tensor.backward))
    if shapes is not None:
        model = importlib.import_module("setpose.model")
        for layer in BLOCK_LAYERS:
            patcher.set(model, layer, spanned(
                tracer, lambda args, layer=layer: "model." + shapes.block_of(layer, args),
                getattr(model, layer)))


def _op_spanned(tracer: Tracer, kind: str, fn):
    fwd_name, bwd_name = f"nn_core.op.{kind}.fwd", f"nn_core.op.{kind}.bwd"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(fwd_name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if out._backward is not None:
            out._backward = spanned(tracer, bwd_name, out._backward)
        return out
    return wrapper


class DrawCounter:
    def __init__(self):
        self.draws = 0


def install_op_spans(patcher: Patcher, tracer: Tracer, counter: DrawCounter) -> None:
    install_gc_spans(patcher, tracer)
    for attr, kind in OP_METHODS.items():
        patcher.set(tensor.Tensor, attr,
                    _op_spanned(tracer, kind, tensor.Tensor.__dict__[attr]))
    patch_everywhere(patcher, tensor.concatenate,
                     _op_spanned(tracer, "concatenate", tensor.concatenate))
    install_draw_counter(patcher, counter)


def install_draw_counter(patcher: Patcher, counter: DrawCounter) -> None:
    next_u64 = PortableRng.next_u64

    def counted(self):
        counter.draws += 1
        return next_u64(self)
    patcher.set(PortableRng, "next_u64", counted)
