from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from setpose.data import HANDS_DTYPE, augment
from setpose.errors import ConfigError, NonPositiveDepth
from setpose.geometry import (
    CameraIntrinsics,
    JointSet3D,
    JointSetUVD,
    N_JOINTS,
    mpjpe,
    uvd_to_xyz,
    xyz_to_uvd,
)
from setpose.rng import PortableRng

from conftest import AlwaysFlip, random_uvd, random_xyz, rotation_matrix


def uniform_pose_uvd(u, v, d) -> JointSetUVD:
    return JointSetUVD(np.tile([u, v, d], (N_JOINTS, 1)))


def uniform_pose_xyz(x, y, z) -> JointSet3D:
    return JointSet3D(np.tile([x, y, z], (N_JOINTS, 1)))


# -- pinhole conversion ------------------------------------------------------

def test_principal_point_ray(cam):
    out = uvd_to_xyz(uniform_pose_uvd(cam.cx, cam.cy, 1000.0), cam)
    assert np.array_equal(out.joints, np.tile([0.0, 0.0, 1000.0], (N_JOINTS, 1)))


def test_uvd_to_xyz_hand_computed(cam):
    # oracle: x = (420-320)*2000/500 = 400, y = (340-240)*2000/500 = 400
    out = uvd_to_xyz(uniform_pose_uvd(420.0, 340.0, 2000.0), cam)
    assert np.array_equal(out.joints, np.tile([400.0, 400.0, 2000.0], (N_JOINTS, 1)))


def test_xyz_to_uvd_optical_axis(cam):
    out = xyz_to_uvd(uniform_pose_xyz(0.0, 0.0, 500.0), cam)
    assert np.array_equal(out.joints, np.tile([cam.cx, cam.cy, 500.0], (N_JOINTS, 1)))


def test_xyz_to_uvd_hand_computed(cam):
    # oracle: u = 500*400/2000 + 320 = 420, v = 500*400/2000 + 240 = 340
    out = xyz_to_uvd(uniform_pose_xyz(400.0, 400.0, 2000.0), cam)
    assert np.array_equal(out.joints, np.tile([420.0, 340.0, 2000.0], (N_JOINTS, 1)))


def test_round_trip_uvd(cam):
    rng = PortableRng(11)
    for _ in range(100):
        pose = random_uvd(rng, cam)
        back = xyz_to_uvd(uvd_to_xyz(pose, cam), cam)
        err = np.abs(back.joints - pose.joints) / np.maximum(np.abs(pose.joints), 1.0)
        assert err.max() < 1e-9


def test_round_trip_xyz(cam):
    rng = PortableRng(12)
    for _ in range(100):
        pose = random_xyz(rng)
        back = uvd_to_xyz(xyz_to_uvd(pose, cam), cam)
        err = np.abs(back.joints - pose.joints) / np.maximum(np.abs(pose.joints), 1.0)
        assert err.max() < 1e-9


def test_depth_homogeneity_exact_power_of_two(cam):
    rng = PortableRng(13)
    pose = random_uvd(rng, cam)
    scaled = JointSetUVD(pose.joints * [1.0, 1.0, 4.0])
    a = uvd_to_xyz(pose, cam).joints
    b = uvd_to_xyz(scaled, cam).joints
    # power-of-two depth scaling is exact in binary floating point
    assert np.array_equal(b, 4.0 * a)


def test_depth_homogeneity_general_k(cam):
    rng = PortableRng(14)
    for _ in range(20):
        pose = random_uvd(rng, cam)
        k = rng.uniform(0.1, 7.0)
        scaled = JointSetUVD(pose.joints * [1.0, 1.0, k])
        a = uvd_to_xyz(pose, cam).joints
        b = uvd_to_xyz(scaled, cam).joints
        assert np.allclose(b, k * a, rtol=1e-14, atol=0.0)


def test_non_positive_depth_raises(cam):
    bad = np.tile([100.0, 100.0, 10.0], (N_JOINTS, 1))
    bad[7, 2] = 0.0
    with pytest.raises(NonPositiveDepth):
        uvd_to_xyz(JointSetUVD(bad), cam)
    bad[7, 2] = -3.0
    with pytest.raises(NonPositiveDepth):
        xyz_to_uvd(JointSet3D(bad), cam)


def test_intrinsics_validation():
    with pytest.raises(ConfigError):
        CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10)
    with pytest.raises(ConfigError):
        CameraIntrinsics(fx=1.0, fy=1.0, cx=11.0, cy=0.0, width=10, height=10)
    with pytest.raises(ConfigError, match="width"):  # cx <= width would hold
        CameraIntrinsics(fx=1.0, fy=1.0, cx=5.0, cy=5.0, width=float("inf"), height=10)


def test_intrinsics_from_dict_rejects_unknown_and_missing_keys(cam):
    assert CameraIntrinsics.from_dict(cam.to_dict()) == cam
    with pytest.raises(ConfigError, match="skew"):
        CameraIntrinsics.from_dict({**cam.to_dict(), "skew": 0.0})
    with pytest.raises(ConfigError, match="fy"):
        CameraIntrinsics.from_dict({k: v for k, v in cam.to_dict().items() if k != "fy"})
    with pytest.raises(ConfigError):
        CameraIntrinsics.from_dict([1.0, 1.0, 0.0, 0.0, 10.0, 10.0])


# -- mpjpe ---------------------------------------------------------------------

def test_mpjpe_identity(cam):
    pose = random_xyz(PortableRng(15))
    assert mpjpe(pose, pose) == 0.0


def test_mpjpe_3_4_5():
    rng = PortableRng(16)
    gt = random_xyz(rng)
    pred = JointSet3D(gt.joints + [3.0, 0.0, 4.0])
    assert mpjpe(pred, gt) == 5.0


def test_mpjpe_single_joint_offset():
    gt = uniform_pose_xyz(10.0, 20.0, 30.0)
    pred = gt.joints.copy()
    pred[4, 2] += 21.0
    assert mpjpe(JointSet3D(pred), gt) == 1.0


def test_mpjpe_symmetric_nonnegative():
    rng = PortableRng(17)
    a, b = random_xyz(rng), random_xyz(rng)
    assert mpjpe(a, b) == mpjpe(b, a) > 0.0


def test_mpjpe_rigid_invariance():
    rng = PortableRng(18)
    for _ in range(10):
        a, b = random_xyz(rng), random_xyz(rng)
        r = rotation_matrix(rng)
        t = np.array([rng.uniform(-100, 100) for _ in range(3)])
        ra = JointSet3D(a.joints @ r.T + t)
        rb = JointSet3D(b.joints @ r.T + t)
        base = mpjpe(a, b)
        assert abs(mpjpe(ra, rb) - base) / base < 1e-9


def test_mpjpe_translation_is_raw_distance():
    # the metric is global: no root alignment can hide a pure translation
    gt = random_xyz(PortableRng(19))
    shifted = JointSet3D(gt.joints + [0.0, 0.0, 10.0])
    assert mpjpe(shifted, gt) == 10.0


@st.composite
def cameras_and_poses(draw) -> tuple[CameraIntrinsics, JointSetUVD]:
    """Random intrinsics and a pose with every joint inside the image at a
    positive depth."""
    width, height = draw(st.floats(8.0, 4096.0)), draw(st.floats(8.0, 4096.0))
    cam = CameraIntrinsics(fx=draw(st.floats(1.0, 1e4)), fy=draw(st.floats(1.0, 1e4)),
                           cx=draw(st.floats(0.0, width)), cy=draw(st.floats(0.0, height)),
                           width=width, height=height)
    u = draw(arrays(np.float64, N_JOINTS, elements=st.floats(0.0, width)))
    v = draw(arrays(np.float64, N_JOINTS, elements=st.floats(0.0, height)))
    d = draw(arrays(np.float64, N_JOINTS, elements=st.floats(1e-2, 1e6)))
    return cam, JointSetUVD(np.stack([u, v, d], axis=1))


@settings(derandomize=True, database=None, deadline=None)
@given(cameras_and_poses())
def test_round_trip_uvd_property(cam_and_pose):
    cam, pose = cam_and_pose
    back = xyz_to_uvd(uvd_to_xyz(pose, cam), cam)
    assert np.array_equal(back.d, pose.d)
    # u - cx cancels, so (u, v) come back within 1e-12 of the image size,
    # which is rtol 1e-12 for every pixel coordinate away from 0
    assert np.abs(back.u - pose.u).max() <= 1e-12 * cam.width
    assert np.abs(back.v - pose.v).max() <= 1e-12 * cam.height


# -- horizontal flip -----------------------------------------------------------

def test_hflip_involution(cam):
    rng = PortableRng(20)
    images, hands = np.zeros((1, 1, int(cam.width), 3), np.float32), np.zeros((1, 2), HANDS_DTYPE)
    for _ in range(50):
        pose = random_uvd(rng, cam)
        hands[0, 0] = (True, pose.joints, 1.0)
        hands[0, 1] = (False, 0.0, 0.0)
        augment(images, hands, AlwaysFlip())
        augment(images, hands, AlwaysFlip())
        assert hands["present"].tolist() == [[True, False]]
        # u suffers two float subtractions; v and d are untouched bitwise
        assert np.abs(hands["uvd"][0, 0, :, 0] - pose.u).max() < 1e-9
        assert np.array_equal(hands["uvd"][0, 0, :, 1:], pose.joints[:, 1:])


def test_hflip_preserves_v_d_exactly(cam):
    pose = random_uvd(PortableRng(21), cam)
    images, hands = np.zeros((1, 1, int(cam.width), 3), np.float32), np.zeros((1, 2), HANDS_DTYPE)
    hands[0, 1] = (True, pose.joints, 1.0)
    augment(images, hands, AlwaysFlip())
    assert hands["present"].tolist() == [[True, False]]
    assert np.array_equal(hands["uvd"][0, 0, :, 1:], pose.joints[:, 1:])
