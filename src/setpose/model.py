"""Set-prediction network for two-hand pose: patch backbone, transformer
encoder-decoder over learned queries, and two shared MLP heads.

Architecture (pre-LN residual blocks, FFN hidden width = 4 * embed_dim):

    tokens  = linear(patches)                    backbone.patch_embed.{w,b}
    x       = tokens + sinusoidal2d              (fixed, not learned)
    encoder layer i (x N):                       enc{i}.*
        x = x + MHA(LN1(x))                      ln1.{g,b}, attn.{wq,bq,wk,wv,bv,wo,bo}
        x = x + FFN(LN2(x))                      ln2.{g,b}, ffn.{w1,b1,w2,b2}
    memory  = LN(x)                              enc_norm.{g,b}
    decoder input: learned queries               queries.embed (n_queries, D)
    decoder layer i (x N):                       dec{i}.*
        x = x + MHA_self(LN1(x))                 ln1, self_attn.*
        x = x + MHA_cross(LN2(x), memory)        ln2, cross_attn.*
        x = x + FFN(LN3(x))                      ln3, ffn.*
    x       = LN(x)                              dec_norm.{g,b}
    class_logits = MLP(x)   -> (n_queries, 3)    head_cls.{w1,b1,w2,b2}   (D -> D -> 3)
    joints_norm  = sigmoid(MLP(x)) -> (n_queries, 63)  head_joints.*      (D -> D -> 63)

joints_norm layout: 21 joints x (u, v, d), row-major; values in (0, 1) by
the sigmoid. Class logit columns follow matching.{CLASS_LEFT,CLASS_RIGHT,
CLASS_NO_HAND}.

Depth decoding supports two parametrizations:
  * absolute:       d_j = z_min + d_norm_j * (z_max - z_min), every joint
  * root_relative:  wrist depth from its absolute channel, other joints
                    d_j = d_wrist + (2 * d_norm_j - 1) * delta
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, ShapeError, check_config_keys
from .geometry import CameraIntrinsics, HandSide, JointSetUVD, N_JOINTS, WRIST
from .matching import class_index, class_probabilities
from .nn_core.layers import glorot_uniform, layer_norm, linear, mlp2, multi_head_attention
from .nn_core.tensor import ParamStore, Tensor
from .rng import derive_seed

N_JOINT_VALUES = N_JOINTS * 3  # 63
PARAM_DTYPE = np.float32  # of every parameter, activation and gradient

# Depths decoded below this floor (mm) are clamped so downstream
# unprojection stays total; only reachable in root_relative mode when
# z_min < delta.
DEPTH_FLOOR = 1e-3


class DepthMode(Enum):
    ABSOLUTE_PER_JOINT = "absolute"
    ROOT_PLUS_RELATIVE = "root_relative"


@dataclass(frozen=True)
class ModelConfig:
    image_size: tuple[int, int] = (32, 32)  # (H, W)
    patch_size: int = 8
    embed_dim: int = 64
    n_heads: int = 4
    n_encoder_layers: int = 6
    n_decoder_layers: int = 6
    n_queries: int = 4
    depth_mode: DepthMode = DepthMode.ABSOLUTE_PER_JOINT
    depth_range: tuple[float, float] = (100.0, 1500.0)
    rel_depth_half_range: float = 150.0

    def __post_init__(self):
        object.__setattr__(self, "image_size", tuple(self.image_size))
        object.__setattr__(self, "depth_range", tuple(self.depth_range))
        if isinstance(self.depth_mode, str):
            try:
                object.__setattr__(self, "depth_mode", DepthMode(self.depth_mode))
            except ValueError:
                raise ConfigError(f"unknown depth_mode {self.depth_mode!r}, expected one "
                                  f"of {[m.value for m in DepthMode]}") from None
        h, w = self.image_size
        if h % self.patch_size or w % self.patch_size:
            raise ConfigError(f"image {h}x{w} not divisible by patch {self.patch_size}")
        if self.n_queries < 2:
            raise ConfigError("need n_queries >= 2 (two hands)")
        if self.embed_dim % self.n_heads:
            raise ConfigError("embed_dim must be divisible by n_heads")
        if self.embed_dim % 4:
            raise ConfigError("embed_dim must be divisible by 4 (2D sin/cos encoding)")
        z_min, z_max = self.depth_range
        if not (z_min > 0 and z_max > z_min):
            raise ConfigError(f"bad depth range {self.depth_range}")
        if self.rel_depth_half_range <= 0:
            raise ConfigError("rel_depth_half_range must be > 0")
        if self.n_encoder_layers < 1 or self.n_decoder_layers < 1:
            raise ConfigError("need at least one encoder and one decoder layer")

    @property
    def grid(self) -> tuple[int, int]:
        return (self.image_size[0] // self.patch_size,
                self.image_size[1] // self.patch_size)

    @property
    def n_tokens(self) -> int:
        gh, gw = self.grid
        return gh * gw

    def to_dict(self) -> dict:
        return {**asdict(self), "depth_mode": self.depth_mode.value}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**check_config_keys(cls, d))


@dataclass(frozen=True)
class BatchDetections:
    """Model output; the tensors keep the training graph alive."""

    class_logits: Tensor  # (B, n_queries, 3)
    joints_norm: Tensor   # (B, n_queries, 63)


# -- parameters ------------------------------------------------------------------

def _add_weight(params: ParamStore, seed: int, name: str,
                fan_in: int, fan_out: int) -> None:
    """Glorot weight keyed by (seed, name): the first 8 bytes of the name's
    SHA-256, never Python's salted hash(), so keys agree across processes."""
    name_hash = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
    key = derive_seed(seed, 0x6D6F64, name_hash)  # model init stream
    params.add(name, glorot_uniform(key, fan_in, fan_out).astype(PARAM_DTYPE))


def _add_linear(params: ParamStore, seed: int, name: str,
                fan_in: int, fan_out: int) -> None:
    _add_weight(params, seed, f"{name}.w", fan_in, fan_out)
    params.add(f"{name}.b", np.zeros(fan_out, PARAM_DTYPE))


def _add_layer_norm(params: ParamStore, name: str, dim: int) -> None:
    params.add(f"{name}.g", np.ones(dim, PARAM_DTYPE))
    params.add(f"{name}.b", np.zeros(dim, PARAM_DTYPE))


def _add_attention(params: ParamStore, seed: int, name: str, dim: int) -> None:
    for proj in ("q", "k", "v", "o"):
        _add_weight(params, seed, f"{name}.w{proj}", dim, dim)
        if proj != "k":  # no key bias: see multi_head_attention
            params.add(f"{name}.b{proj}", np.zeros(dim, PARAM_DTYPE))


def _add_ffn(params: ParamStore, seed: int, name: str, dim: int) -> None:
    hidden = 4 * dim
    _add_linear(params, seed, f"{name}.l1", dim, hidden)
    _add_linear(params, seed, f"{name}.l2", hidden, dim)


def build_model(config: ModelConfig, seed: int) -> ParamStore:
    """Deterministic initialization: weights are uniform
    +-sqrt(6/(fan_in+fan_out)), counter-based on (seed, parameter name,
    element index), so a weight does not depend on which other layers exist
    or on their creation order; biases zero, layer-norm affine at identity."""
    d = config.embed_dim
    params = ParamStore()
    _add_linear(params, seed, "backbone.patch_embed",
                config.patch_size * config.patch_size * 3, d)
    for i in range(config.n_encoder_layers):
        _add_layer_norm(params, f"enc{i}.ln1", d)
        _add_attention(params, seed, f"enc{i}.attn", d)
        _add_layer_norm(params, f"enc{i}.ln2", d)
        _add_ffn(params, seed, f"enc{i}.ffn", d)
    _add_layer_norm(params, "enc_norm", d)
    _add_weight(params, seed, "queries.embed", config.n_queries, d)
    for i in range(config.n_decoder_layers):
        _add_layer_norm(params, f"dec{i}.ln1", d)
        _add_attention(params, seed, f"dec{i}.self_attn", d)
        _add_layer_norm(params, f"dec{i}.ln2", d)
        _add_attention(params, seed, f"dec{i}.cross_attn", d)
        _add_layer_norm(params, f"dec{i}.ln3", d)
        _add_ffn(params, seed, f"dec{i}.ffn", d)
    _add_layer_norm(params, "dec_norm", d)
    _add_linear(params, seed, "head_cls.l1", d, d)
    _add_linear(params, seed, "head_cls.l2", d, 3)
    _add_linear(params, seed, "head_joints.l1", d, d)
    _add_linear(params, seed, "head_joints.l2", d, N_JOINT_VALUES)
    return params


def is_backbone_param(name: str) -> bool:
    return name.startswith("backbone.")


# -- forward pass ------------------------------------------------------------------

def position_encoding(config: ModelConfig) -> np.ndarray:
    """Fixed 2D sinusoidal encodings, (n_tokens, embed_dim).

    First half of the features encodes the patch row, second half the
    column; each half is interleaved sin/cos over geometrically spaced
    frequencies (base 10000), matching the usual transformer recipe.
    """
    gh, gw = config.grid
    d = config.embed_dim
    half = d // 2
    n_freq = half // 2
    freqs = 1.0 / (10000.0 ** (np.arange(n_freq) / n_freq))
    rows, cols = np.meshgrid(np.arange(gh), np.arange(gw), indexing="ij")
    out = np.empty((gh, gw, d))
    for offset, coord in ((0, rows), (half, cols)):
        angles = coord[..., None] * freqs  # (gh, gw, n_freq)
        out[..., offset:offset + half:2] = np.sin(angles)
        out[..., offset + 1:offset + half:2] = np.cos(angles)
    return out.reshape(gh * gw, d)


def patch_tokens(images: np.ndarray, config: ModelConfig) -> np.ndarray:
    """(B, H, W, 3) -> (B, n_tokens, patch_size^2 * 3), row-major patches."""
    if images.ndim != 4:
        raise ShapeError(f"expected (B, H, W, 3) images, got {images.shape}")
    b, h, w, c = images.shape
    if (h, w) != config.image_size or c != 3:
        raise ShapeError(f"expected (B, {config.image_size[0]}, "
                         f"{config.image_size[1]}, 3), got {images.shape}")
    ps = config.patch_size
    gh, gw = config.grid
    x = images.reshape(b, gh, ps, gw, ps, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)  # (B, gh, gw, ps, ps, c)
    return np.ascontiguousarray(x.reshape(b, gh * gw, ps * ps * c))


def _attention_block(params: ParamStore, name: str, q: Tensor, kv: Tensor,
                     n_heads: int) -> Tensor:
    return multi_head_attention(
        q, kv,
        params[f"{name}.wq"], params[f"{name}.bq"],
        params[f"{name}.wk"],
        params[f"{name}.wv"], params[f"{name}.bv"],
        params[f"{name}.wo"], params[f"{name}.bo"],
        n_heads)


def _ln(params: ParamStore, name: str, x: Tensor) -> Tensor:
    return layer_norm(x, params[f"{name}.g"], params[f"{name}.b"])


def _ffn(params: ParamStore, name: str, x: Tensor) -> Tensor:
    return mlp2(x, params[f"{name}.l1.w"], params[f"{name}.l1.b"],
                params[f"{name}.l2.w"], params[f"{name}.l2.b"])


def forward_from_tokens(
    params: ParamStore,
    tokens: np.ndarray,
    posenc: np.ndarray,
    config: ModelConfig,
) -> BatchDetections:
    """Run the network, in the parameters' dtype, on pre-extracted patch
    tokens (testing seam for the token-permutation equivariance property)."""
    n_batch = tokens.shape[0]
    dtype = params["backbone.patch_embed.w"].data.dtype
    x = linear(Tensor(tokens.astype(dtype, copy=False)), params["backbone.patch_embed.w"],
               params["backbone.patch_embed.b"])
    x = x + Tensor(posenc.astype(dtype, copy=False))
    for i in range(config.n_encoder_layers):
        h = _ln(params, f"enc{i}.ln1", x)
        x = x + _attention_block(params, f"enc{i}.attn", h, h, config.n_heads)
        x = x + _ffn(params, f"enc{i}.ffn", _ln(params, f"enc{i}.ln2", x))
    memory = _ln(params, "enc_norm", x)

    q = params["queries.embed"].broadcast_to(
        (n_batch, config.n_queries, config.embed_dim))
    for i in range(config.n_decoder_layers):
        h = _ln(params, f"dec{i}.ln1", q)
        q = q + _attention_block(params, f"dec{i}.self_attn", h, h, config.n_heads)
        q = q + _attention_block(params, f"dec{i}.cross_attn",
                                 _ln(params, f"dec{i}.ln2", q), memory,
                                 config.n_heads)
        q = q + _ffn(params, f"dec{i}.ffn", _ln(params, f"dec{i}.ln3", q))
    q = _ln(params, "dec_norm", q)

    class_logits = mlp2(q, params["head_cls.l1.w"], params["head_cls.l1.b"],
                        params["head_cls.l2.w"], params["head_cls.l2.b"])
    joints_norm = mlp2(q, params["head_joints.l1.w"], params["head_joints.l1.b"],
                       params["head_joints.l2.w"], params["head_joints.l2.b"]).sigmoid()
    return BatchDetections(class_logits=class_logits, joints_norm=joints_norm)


def forward_batch(params: ParamStore, images: np.ndarray,
                  config: ModelConfig) -> BatchDetections:
    tokens = patch_tokens(images, config)
    return forward_from_tokens(params, tokens, position_encoding(config), config)


# -- decoding ------------------------------------------------------------------

def decode_depth(d_norm: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Normalized depth channels (21,) -> millimeters per the config mode."""
    z_min, z_max = config.depth_range
    if config.depth_mode is DepthMode.ABSOLUTE_PER_JOINT:
        d = z_min + d_norm * (z_max - z_min)
    else:
        wrist_d = z_min + d_norm[WRIST] * (z_max - z_min)
        d = wrist_d + (2.0 * d_norm - 1.0) * config.rel_depth_half_range
        d[WRIST] = wrist_d
    return np.maximum(d, DEPTH_FLOOR)


def encode_depth(d: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Millimeters (..., 21) -> normalized channels; inverse of decode_depth."""
    z_min, z_max = config.depth_range
    if config.depth_mode is DepthMode.ABSOLUTE_PER_JOINT:
        return (d - z_min) / (z_max - z_min)
    out = ((d - d[..., WRIST, None]) / config.rel_depth_half_range + 1.0) / 2.0
    out[..., WRIST] = (d[..., WRIST] - z_min) / (z_max - z_min)
    return out


def encode_targets(uvd: np.ndarray, config: ModelConfig) -> np.ndarray:
    """GT poses (..., 21, 3) UVD -> (..., 63) normalized supervision
    targets (clipped to [0, 1])."""
    if uvd.shape[-2:] != (N_JOINTS, 3):
        raise ShapeError(f"need (..., {N_JOINTS}, 3) UVD joints, got {uvd.shape}")
    h, w = config.image_size
    out = np.empty(uvd.shape)
    out[..., 0] = uvd[..., 0] / w
    out[..., 1] = uvd[..., 1] / h
    out[..., 2] = encode_depth(uvd[..., 2], config)
    return np.clip(out.reshape(uvd.shape[:-2] + (N_JOINT_VALUES,)), 0.0, 1.0)


@dataclass(frozen=True)
class DecodedHand:
    uvd: JointSetUVD
    confidence: float
    query_index: int


def decode_predictions(
    class_logits: np.ndarray,
    joints_norm: np.ndarray,
    config: ModelConfig,
    cam: CameraIntrinsics,
) -> dict[HandSide, DecodedHand]:
    """Per side, the maximum-probability query of one image's
    class_logits (n_queries, 3) and joints_norm (n_queries, 63),
    un-normalized to UVD.

    A prediction is always produced for both sides (the metric needs a
    pose per present hand); confidence reports the side's probability at
    the selected query. Ties pick the lowest query index.
    """
    probs = class_probabilities(np.asarray(class_logits, dtype=np.float64))
    out = {}
    for side in HandSide:
        q = int(np.argmax(probs[:, class_index(side)]))
        vals = joints_norm[q].reshape(N_JOINTS, 3).astype(np.float64)
        uvd = np.empty((N_JOINTS, 3))
        uvd[:, 0] = vals[:, 0] * cam.width
        uvd[:, 1] = vals[:, 1] * cam.height
        uvd[:, 2] = decode_depth(vals[:, 2], config)
        out[side] = DecodedHand(uvd=JointSetUVD(uvd),
                                confidence=float(probs[q, class_index(side)]),
                                query_index=q)
    return out
