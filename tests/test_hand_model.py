from __future__ import annotations

import json
import math

import numpy as np
import pytest

from setpose.errors import (ConfigError, DegeneratePose, EmptySide, FormatError,
                            NonPositiveDepth, NonPositiveScale)
from setpose.geometry import (HandSide, JointSet3D, JointSetUVD, N_JOINTS, mpjpe, uvd_to_xyz,
                              xyz_to_uvd)
from setpose.hand_model import (
    BONES,
    ScaleStats,
    compute_mean_scale,
    hand_scale,
    rescale_depth,
)
from setpose.rng import PortableRng

from conftest import random_uvd


def constant_bone_pose(length: float, z0: float = 500.0) -> JointSet3D:
    """Pose whose 20 bones all measure `length`: each child sits `length`
    beyond its parent along +x (fingers overlap; only edge lengths matter)."""
    joints = np.zeros((N_JOINTS, 3))
    joints[:, 2] = z0
    for parent, child in BONES:
        joints[child] = joints[parent] + [length, 0.0, 0.0]
    return JointSet3D(joints)


# -- topology ------------------------------------------------------------------

def test_default_topology_shape():
    assert len(BONES) == 20
    # every joint but the wrist is the child of exactly one bone
    assert sorted(c for _, c in BONES) == list(range(1, N_JOINTS))
    # five finger roots chain off the wrist
    wrist_children = sorted(c for p, c in BONES if p == 0)
    assert wrist_children == [1, 5, 9, 13, 17]


# -- hand_scale ----------------------------------------------------------------

def test_hand_scale_constant_bones():
    assert hand_scale(constant_bone_pose(40.0)) == 40.0


def test_hand_scale_homogeneity_exact():
    pose = constant_bone_pose(37.5)
    doubled = JointSet3D(pose.joints * 2.0)
    assert hand_scale(doubled) == 2.0 * hand_scale(pose)


def test_hand_scale_degenerate():
    with pytest.raises(DegeneratePose):
        hand_scale(JointSet3D(np.ones((N_JOINTS, 3))))


# -- compute_mean_scale ----------------------------------------------------------

def test_mean_scale_singleton():
    stats = compute_mean_scale([
        (HandSide.LEFT, constant_bone_pose(40.0)),
        (HandSide.RIGHT, constant_bone_pose(25.0)),
    ])
    assert stats.mean_scale_left == 40.0 and stats.n_left == 1
    assert stats.mean_scale_right == 25.0 and stats.n_right == 1


def test_mean_scale_two_point():
    stats = compute_mean_scale([
        (HandSide.LEFT, constant_bone_pose(30.0)),
        (HandSide.LEFT, constant_bone_pose(50.0)),
        (HandSide.RIGHT, constant_bone_pose(10.0)),
    ])
    assert stats.mean_scale_left == 40.0
    assert stats.n_left == 2


def test_mean_scale_second_pass_oracle(cam):
    rng = PortableRng(30)
    poses = []
    for i in range(100):
        side = HandSide.LEFT if i % 2 else HandSide.RIGHT
        poses.append((side, uvd_to_xyz(random_uvd(rng, cam, 100.0, 2000.0), cam)))
    stats = compute_mean_scale(poses)
    # independent second pass: recompute each scale and average with fsum
    per_side = {HandSide.LEFT: [], HandSide.RIGHT: []}
    for side, pose in poses:
        per_side[side].append(hand_scale(pose))
    assert stats.mean_scale_left == math.fsum(per_side[HandSide.LEFT]) / 50
    assert stats.mean_scale_right == math.fsum(per_side[HandSide.RIGHT]) / 50


def test_mean_scale_permutation_invariant(cam):
    rng = PortableRng(31)
    poses = []
    for i in range(30):
        side = HandSide.LEFT if i % 3 else HandSide.RIGHT
        poses.append((side, uvd_to_xyz(random_uvd(rng, cam, 100.0, 2000.0), cam)))
    a = compute_mean_scale(poses)
    b = compute_mean_scale(poses[::-1])
    assert a == b  # fsum makes the mean bitwise order-independent


def test_mean_scale_empty_side():
    with pytest.raises(EmptySide):
        compute_mean_scale([(HandSide.LEFT, constant_bone_pose(40.0))])


# -- rescale_depth ----------------------------------------------------------------

def test_rescale_fixed_point(cam):
    pose = xyz_to_uvd(constant_bone_pose(40.0), cam)
    out = rescale_depth(pose, cam, hand_scale(uvd_to_xyz(pose, cam)))
    # k == 1.0 exactly, d * 1.0 is bitwise identity
    assert np.array_equal(out.joints, pose.joints)


def test_rescale_half_depth_when_double_scale(cam):
    pose = xyz_to_uvd(constant_bone_pose(40.0, z0=800.0), cam)
    target = hand_scale(uvd_to_xyz(pose, cam))
    doubled = JointSetUVD(pose.joints * [1.0, 1.0, 2.0])  # 3D scale doubles too
    out = rescale_depth(doubled, cam, target)
    assert np.array_equal(out.joints[:, 2], pose.joints[:, 2])  # *2 then *0.5 is exact
    assert np.array_equal(out.joints[:, :2], doubled.joints[:, :2])


def test_rescale_reaches_target(cam):
    rng = PortableRng(32)
    for _ in range(50):
        pose = random_uvd(rng, cam, 100.0, 2000.0)
        out = rescale_depth(pose, cam, 40.0)
        got = hand_scale(uvd_to_xyz(out, cam))
        assert abs(got - 40.0) / 40.0 < 1e-9
        assert np.array_equal(out.joints[:, :2], pose.joints[:, :2])


def test_rescale_idempotent(cam):
    rng = PortableRng(33)
    pose = random_uvd(rng, cam, 100.0, 2000.0)
    once = rescale_depth(pose, cam, 55.0)
    twice = rescale_depth(once, cam, 55.0)
    d_once, d_twice = once.joints[:, 2], twice.joints[:, 2]
    assert np.abs(d_twice - d_once).max() / np.abs(d_once).max() < 1e-12
    assert np.array_equal(twice.joints[:, :2], once.joints[:, :2])


def test_rescale_scales_3d_pose_uniformly(cam):
    rng = PortableRng(34)
    pose = random_uvd(rng, cam, 100.0, 2000.0)
    before = uvd_to_xyz(pose, cam)
    target = 47.0
    k = target / hand_scale(before)
    after = uvd_to_xyz(rescale_depth(pose, cam, target), cam)
    assert np.allclose(after.joints, k * before.joints, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("target", [math.inf, math.nan])
def test_rescale_rejects_a_non_finite_target(cam, target):
    pose = xyz_to_uvd(constant_bone_pose(40.0), cam)
    with pytest.raises(NonPositiveScale):
        rescale_depth(pose, cam, target)


def test_rescale_errors(cam):
    pose = xyz_to_uvd(constant_bone_pose(40.0), cam)
    with pytest.raises(NonPositiveScale):
        rescale_depth(pose, cam, 0.0)
    degenerate = JointSetUVD(np.tile([320.0, 240.0, 500.0], (N_JOINTS, 1)))
    with pytest.raises(DegeneratePose):
        rescale_depth(degenerate, cam, 40.0)


@pytest.mark.parametrize("pick", [np.s_[:, 1], np.s_[::-2],
                                  np.s_[[3, 0, 7, 7, 24], [1, 0, 1, 0, 1]],
                                  np.s_[[[5], [2], [9]], ::-1]],
                         ids=["column", "strided", "fancy", "fancy-reversed"])
def test_stacked_calls_equal_the_single_hand_calls_bitwise(cam, pick):
    """Each hand of a (..., 21, 3) call equals its own (21, 3) call byte for
    byte, on stacks taken from 50 poses in (25, 2) slots by slices and
    fancy indices that are not contiguous; rescaling copies (u, v) bitwise."""
    rng = PortableRng(35)
    slots = np.stack([random_uvd(rng, cam, 100.0, 2000.0).joints
                      for _ in range(50)]).reshape(25, 2, N_JOINTS, 3)
    gt_slots = slots * [1.0, 1.0, 1.03] + 0.5
    targets = np.array([rng.uniform(20.0, 60.0) for _ in range(50)]).reshape(25, 2)
    stack, target = slots[pick], targets[pick]
    uvd = JointSetUVD(stack)
    xyz, gt = uvd_to_xyz(uvd, cam), uvd_to_xyz(JointSetUVD(gt_slots[pick]), cam)
    batch = {"uvd_to_xyz": xyz.joints, "xyz_to_uvd": xyz_to_uvd(xyz, cam).joints,
             "hand_scale": hand_scale(xyz), "mpjpe": mpjpe(xyz, gt),
             "rescale_depth": rescale_depth(uvd, cam, target).joints}
    assert (np.ascontiguousarray(batch["rescale_depth"][..., :2]).tobytes()
            == np.ascontiguousarray(stack[..., :2]).tobytes())
    for idx in np.ndindex(target.shape):
        one = JointSetUVD(stack[idx])
        one_xyz, one_gt = uvd_to_xyz(one, cam), JointSet3D(gt.joints[idx])
        single = {"uvd_to_xyz": one_xyz.joints, "xyz_to_uvd": xyz_to_uvd(one_xyz, cam).joints,
                  "hand_scale": hand_scale(one_xyz), "mpjpe": mpjpe(one_xyz, one_gt),
                  "rescale_depth": rescale_depth(one, cam, float(target[idx])).joints}
        for name, want in single.items():
            assert np.asarray(batch[name][idx]).tobytes() == np.asarray(want).tobytes(), (name, idx)


def test_a_stack_with_one_bad_hand_raises_the_single_hand_errors(cam):
    """The checks hold over the whole stack: one degenerate hand, one
    non-positive target or one non-positive depth raises, naming that
    hand's index over the leading axes and its value."""
    good = xyz_to_uvd(constant_bone_pose(40.0), cam).joints
    stack = np.stack([good, good, np.tile([320.0, 240.0, 500.0], (N_JOINTS, 1))])
    with pytest.raises(DegeneratePose, match=r"index \(2,\) has scale 0\.0 mm"):
        rescale_depth(JointSetUVD(stack), cam, 40.0)
    with pytest.raises(NonPositiveScale, match=r"index \(1,\) has 0\.0$"):
        rescale_depth(JointSetUVD(stack[:2]), cam, np.array([40.0, 0.0]))
    with pytest.raises(NonPositiveScale, match=r"index \(0,\) has -1\.0$"):
        rescale_depth(JointSetUVD(stack[:2]), cam, -1.0)
    stack[1, 4, 2] = -1.0
    stack[2, 0, 2] = -2.0
    with pytest.raises(NonPositiveDepth, match=r"index \(1,\) has min d = -1\.0$"):
        uvd_to_xyz(JointSetUVD(stack), cam)
    with pytest.raises(NonPositiveDepth, match=r"index \(0, 1\) has min z = -1\.0$"):
        xyz_to_uvd(JointSet3D(stack[None]), cam)
    with pytest.raises(NonPositiveDepth, match=r"index \(\) has min d = -2\.0$"):
        uvd_to_xyz(JointSetUVD(stack[2]), cam)


# -- ScaleStats ----------------------------------------------------------------

def test_scale_stats_json_round_trip():
    stats = ScaleStats(mean_scale_left=40.25, mean_scale_right=41.5,
                       n_left=100, n_right=90)
    again = ScaleStats.from_json(stats.to_json())
    assert again == stats
    payload = json.loads(stats.to_json())
    assert set(payload) == {"mean_scale_left", "mean_scale_right", "n_left", "n_right"}

    with pytest.raises(FormatError):
        ScaleStats.from_json('{"mean_scale_left": 40.25,')
    with pytest.raises(ConfigError, match="n_right"):  # missing key
        ScaleStats.from_json(json.dumps({k: v for k, v in payload.items() if k != "n_right"}))
    with pytest.raises(ConfigError, match="mean_scale_both"):  # unknown key
        ScaleStats.from_json(json.dumps({**payload, "mean_scale_both": 41.0}))
    with pytest.raises(ConfigError):  # not an object
        ScaleStats.from_json("[40.25, 41.5, 100, 90]")
    with pytest.raises(ConfigError, match="mean_scale_left"):  # non-positive mean, n > 0
        ScaleStats.from_json(json.dumps({**payload, "mean_scale_left": 0.0}))
    with pytest.raises(ConfigError, match="n_left"):  # a count that is a string
        ScaleStats.from_json(json.dumps({**payload, "n_left": "3"}))
    with pytest.raises(ConfigError, match="negative count"):
        ScaleStats.from_json(json.dumps({**payload, "n_right": -1}))


@pytest.mark.parametrize("side", [HandSide.LEFT, HandSide.RIGHT])
def test_scale_stats_of_a_side_without_hands_raise_empty_side(side):
    """A side with no hands has no mean; the other side's stays readable."""
    counts = {"n_left": 0, "n_right": 5} if side is HandSide.LEFT else {"n_left": 5,
                                                                         "n_right": 0}
    stats = ScaleStats(mean_scale_left=41.0, mean_scale_right=42.0, **counts)
    with pytest.raises(EmptySide, match=f"no {side.value}-hand samples"):
        stats.mean_for(side)
    other = HandSide.RIGHT if side is HandSide.LEFT else HandSide.LEFT
    assert stats.mean_for(other) == (42.0 if other is HandSide.RIGHT else 41.0)


@pytest.mark.parametrize("mean", ["Infinity", "-Infinity", "NaN"])
def test_scale_stats_reject_a_non_finite_mean_of_a_non_empty_side(mean):
    text = ('{"mean_scale_left": 40.25, "mean_scale_right": %s, "n_left": 100, "n_right": 90}'
            % mean)
    with pytest.raises(ConfigError, match="mean_scale_right"):
        ScaleStats.from_json(text)
    empty_right = text.replace('"n_right": 90', '"n_right": 0')
    assert ScaleStats.from_json(empty_right).n_right == 0  # an empty side's mean is unused


def test_scale_stats_mean_for_uses_the_sides_own_mean():
    stats = ScaleStats(mean_scale_left=30.0, mean_scale_right=50.0,
                       n_left=1, n_right=3)
    assert stats.mean_for(HandSide.LEFT) == 30.0
    assert stats.mean_for(HandSide.RIGHT) == 50.0
    no_right = ScaleStats(mean_scale_left=30.0, mean_scale_right=0.0, n_left=1, n_right=0)
    with pytest.raises(EmptySide):
        no_right.mean_for(HandSide.RIGHT)
    with pytest.raises(ConfigError, match="mean_scale_right"):
        ScaleStats(mean_scale_left=30.0, mean_scale_right=-1.0, n_left=1, n_right=2)
