"""Set-prediction pipeline for global 3D two-hand pose estimation on
deterministic synthetic scenes: camera geometry, hand-scale depth
rescaling, bipartite-matching training, and a desk-scale transformer
detector with exact reverse-mode gradients."""

__version__ = "0.1.0"

from .geometry import (
    CameraIntrinsics,
    HandSide,
    JointSet3D,
    JointSetUVD,
    hflip_uvd,
    mpjpe,
    uvd_to_xyz,
    xyz_to_uvd,
)
from .hand_model import (
    BONES,
    ScaleStats,
    compute_mean_scale,
    hand_scale,
    rescale_depth,
)
from .matching import Assignment, LossBreakdown, hungarian, set_loss
from .rng import PortableRng, derive_seed

__all__ = [
    "Assignment",
    "BONES",
    "CameraIntrinsics",
    "HandSide",
    "JointSet3D",
    "JointSetUVD",
    "LossBreakdown",
    "PortableRng",
    "ScaleStats",
    "compute_mean_scale",
    "derive_seed",
    "hand_scale",
    "hflip_uvd",
    "hungarian",
    "mpjpe",
    "rescale_depth",
    "set_loss",
    "uvd_to_xyz",
    "xyz_to_uvd",
]
