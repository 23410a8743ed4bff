"""Pinhole camera geometry and the pose metric.

Conventions (OpenCV-style):
  * camera frame: x right, y down, z forward; units are millimeters
  * image frame: u right, v down, in pixels; (u, v) are continuous
    sub-pixel coordinates, not pixel indices
  * UVD: (u px, v px, d mm) per joint, d measured along the optical axis

Forward / inverse projection for intrinsics (fx, fy, cx, cy):

    u = fx * x / z + cx        x = (u - cx) * d / fx
    v = fy * y / z + cy        y = (v - cy) * d / fy
    d = z                      z = d

All functions are pure; joint arrays inside the pose types are read-only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from .errors import (ConfigError, NonPositiveDepth, ShapeError, check_config_keys,
                     check_numbers)

N_JOINTS = 21
WRIST = 0  # joint index of the skeleton root


class HandSide(Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def code(self) -> int:
        """0 left, 1 right: the side's class logit column, image channel and
        slot on axis 1 of every (N, 2) hand array."""
        return 0 if self is HandSide.LEFT else 1


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: float
    height: float

    def __post_init__(self):
        check_numbers(self, reals=tuple(f.name for f in fields(self)))
        if not (self.fx > 0 and self.fy > 0):
            raise ConfigError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ConfigError(
                f"principal point ({self.cx}, {self.cy}) outside image "
                f"{self.width}x{self.height}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CameraIntrinsics":
        return cls(**check_config_keys(cls, d))


def _as_joint_array(joints) -> np.ndarray:
    arr = np.array(joints, dtype=np.float64, copy=True)
    if arr.shape != (N_JOINTS, 3):
        raise ShapeError(f"expected ({N_JOINTS}, 3) joints, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class JointSetUVD:
    """21 joints as (u px, v px, d mm) rows.

    Depth positivity is a property of camera-visible poses and is enforced
    at the conversion boundary (uvd_to_xyz), not at construction: decoded
    network outputs are built through this type before any clamping.
    """

    joints: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "joints", _as_joint_array(self.joints))

    @property
    def u(self) -> np.ndarray:
        return self.joints[:, 0]

    @property
    def v(self) -> np.ndarray:
        return self.joints[:, 1]

    @property
    def d(self) -> np.ndarray:
        return self.joints[:, 2]


@dataclass(frozen=True)
class JointSet3D:
    """21 joints as (x, y, z) mm rows in the camera frame.

    z > 0 is required only where a camera actually observes the pose
    (xyz_to_uvd); canonical/template poses may sit at the origin.
    """

    joints: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "joints", _as_joint_array(self.joints))


def uvd_to_xyz(pose: JointSetUVD, cam: CameraIntrinsics) -> JointSet3D:
    """Unproject image-plus-depth joints to metric camera space."""
    d = pose.d
    if np.any(d <= 0):
        raise NonPositiveDepth(f"uvd_to_xyz requires d > 0, min d = {d.min()}")
    x = (pose.u - cam.cx) * d / cam.fx
    y = (pose.v - cam.cy) * d / cam.fy
    return JointSet3D(np.stack([x, y, d], axis=1))


def xyz_to_uvd(pose: JointSet3D, cam: CameraIntrinsics) -> JointSetUVD:
    """Project metric camera-space joints to image-plus-depth."""
    z = pose.joints[:, 2]
    if np.any(z <= 0):
        raise NonPositiveDepth(f"xyz_to_uvd requires z > 0, min z = {z.min()}")
    u = cam.fx * pose.joints[:, 0] / z + cam.cx
    v = cam.fy * pose.joints[:, 1] / z + cam.cy
    return JointSetUVD(np.stack([u, v, z], axis=1))


def mpjpe(pred: JointSet3D, gt: JointSet3D) -> float:
    """Mean per-joint position error in mm.

    Global metric: plain Euclidean distances, no root alignment, no
    Procrustes, no depth alignment.
    """
    return float(np.mean(np.linalg.norm(pred.joints - gt.joints, axis=1)))

