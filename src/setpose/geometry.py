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

Pose types hold read-only (..., 21, 3) joints, one hand being (21, 3). All
functions are pure and broadcast over the leading axes, bitwise per hand.
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
    # C order, so that each hand's reductions run in the order of its own call
    arr = np.array(joints, dtype=np.float64, order="C")
    if arr.shape[-2:] != (N_JOINTS, 3):
        raise ShapeError(f"expected (..., {N_JOINTS}, 3) joints, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class JointSetUVD:
    """Hands of 21 joints as (u px, v px, d mm) rows, shape (..., 21, 3).

    Depth positivity is a property of camera-visible poses and is enforced
    at the conversion boundary (uvd_to_xyz), not at construction: decoded
    network outputs are built through this type before any clamping.
    """

    joints: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "joints", _as_joint_array(self.joints))


@dataclass(frozen=True)
class JointSet3D:
    """Hands of 21 joints as (x, y, z) mm rows in the camera frame, (..., 21, 3).

    z > 0 is required only where a camera actually observes the pose
    (xyz_to_uvd); canonical/template poses may sit at the origin.
    """

    joints: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "joints", _as_joint_array(self.joints))


def first_hand(bad: np.ndarray) -> tuple[int, ...]:
    """Index over the leading axes (() for one hand) of the first hand that
    bad, one flag per hand, marks; a failed check names it and its value."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))


def uvd_to_xyz(pose: JointSetUVD, cam: CameraIntrinsics) -> JointSet3D:
    """Unproject image-plus-depth joints to metric camera space."""
    u, v, d = pose.joints[..., 0], pose.joints[..., 1], pose.joints[..., 2]
    if np.any(d <= 0):
        hand = first_hand(np.any(d <= 0, axis=-1))
        raise NonPositiveDepth(f"uvd_to_xyz requires d > 0; the hand at index {hand} "
                               f"has min d = {d[hand].min()}")
    x = (u - cam.cx) * d / cam.fx
    y = (v - cam.cy) * d / cam.fy
    return JointSet3D(np.stack([x, y, d], axis=-1))


def xyz_to_uvd(pose: JointSet3D, cam: CameraIntrinsics) -> JointSetUVD:
    """Project metric camera-space joints to image-plus-depth."""
    x, y, z = pose.joints[..., 0], pose.joints[..., 1], pose.joints[..., 2]
    if np.any(z <= 0):
        hand = first_hand(np.any(z <= 0, axis=-1))
        raise NonPositiveDepth(f"xyz_to_uvd requires z > 0; the hand at index {hand} "
                               f"has min z = {z[hand].min()}")
    u = cam.fx * x / z + cam.cx
    v = cam.fy * y / z + cam.cy
    return JointSetUVD(np.stack([u, v, z], axis=-1))


def mpjpe(pred: JointSet3D, gt: JointSet3D) -> np.ndarray:
    """Mean per-joint position error in mm per hand, shape (...) of (..., 21, 3) poses.

    Global metric: plain Euclidean distances, no root alignment, no
    Procrustes, no depth alignment.
    """
    return np.mean(np.linalg.norm(pred.joints - gt.joints, axis=-1), axis=-1)
