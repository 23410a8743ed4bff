from __future__ import annotations

import numpy as np
import pytest

from setpose.geometry import CameraIntrinsics, JointSet3D, JointSetUVD, N_JOINTS
from setpose.rng import PortableRng


@pytest.fixture
def cam() -> CameraIntrinsics:
    return CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                            width=640.0, height=480.0)


class AlwaysFlip:
    """An rng whose every bernoulli draw comes out True."""

    def bernoulli(self, p: float) -> bool:
        return True


def random_uvd(rng: PortableRng, cam: CameraIntrinsics,
               d_lo: float = 1.0, d_hi: float = 1e5) -> JointSetUVD:
    """Random pose with all joints inside the image and positive depth."""
    joints = np.empty((N_JOINTS, 3))
    for j in range(N_JOINTS):
        joints[j, 0] = rng.uniform(0.0, cam.width)
        joints[j, 1] = rng.uniform(0.0, cam.height)
        joints[j, 2] = rng.uniform(d_lo, d_hi)
    return JointSetUVD(joints)


def random_xyz(rng: PortableRng, z_lo: float = 1.0, z_hi: float = 1e5) -> JointSet3D:
    joints = np.empty((N_JOINTS, 3))
    for j in range(N_JOINTS):
        joints[j, 0] = rng.uniform(-500.0, 500.0)
        joints[j, 1] = rng.uniform(-500.0, 500.0)
        joints[j, 2] = rng.uniform(z_lo, z_hi)
    return JointSet3D(joints)


def rotation_matrix(rng: PortableRng) -> np.ndarray:
    """Random rotation composed from Euler angles (z then y then x)."""
    ax, ay, az = (rng.uniform(-np.pi, np.pi) for _ in range(3))
    cx_, sx = np.cos(ax), np.sin(ax)
    cy_, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx_, -sx], [0, sx, cx_]])
    ry = np.array([[cy_, 0, sy], [0, 1, 0], [-sy, 0, cy_]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx
