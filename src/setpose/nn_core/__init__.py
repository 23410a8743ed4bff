"""Minimal differentiable-computation substrate: tensors with exact
reverse-mode gradients, standard layers, AdamW, and checkpoint I/O."""

from .tensor import (
    Gradients,
    ParamStore,
    Tensor,
    concatenate,
    forward_backward,
    log_softmax,
    no_grad,
)
from .layers import (
    glorot_uniform,
    layer_norm,
    linear,
    mlp2,
    multi_head_attention,
)
from .optim import OptimState, adamw_step, init_optim_state
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Gradients",
    "OptimState",
    "ParamStore",
    "Tensor",
    "adamw_step",
    "concatenate",
    "forward_backward",
    "glorot_uniform",
    "init_optim_state",
    "layer_norm",
    "linear",
    "load_checkpoint",
    "log_softmax",
    "mlp2",
    "multi_head_attention",
    "no_grad",
    "save_checkpoint",
]
