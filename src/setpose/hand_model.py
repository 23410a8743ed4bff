"""The hand skeleton and template, the hand-scale statistic, and depth rescaling.

The skeleton is one fixed constant, BONES: the 20 (parent, child) joint
pairs of the 21-joint hand, a tree rooted at the wrist. TEMPLATES holds the
canonical right hand of the FINGERS table and its mirror, the left. The
scale of a hand is defined as the mean Euclidean length of those 20 bones.
This statistic is rotation/translation invariant and exactly linear under
uniform scaling, which makes the depth-rescaling factor exact: multiplying
every UVD depth by k multiplies the unprojected 3D pose by k coordinate-wise, so

    rescale to target:  k = target_scale / hand_scale(unprojected pose)

leaves every (u, v) untouched while the reconstructed 3D hand attains
exactly the target scale, for each hand of geometry's (..., 21, 3) poses.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegeneratePose,
    EmptySide,
    FormatError,
    NonPositiveScale,
    check_config_keys,
    check_numbers,
)
from .geometry import (
    N_JOINTS,
    CameraIntrinsics,
    HandSide,
    JointSet3D,
    JointSetUVD,
    first_hand,
    uvd_to_xyz,
)

# Below this mean bone length (mm) a pose carries no scale information.
DEGENERATE_SCALE = 1e-6


# The 20 (parent, child) bones of the 21-joint skeleton, a tree rooted at
# the wrist (joint 0). Fingers are four-joint chains attached to the wrist,
# ordered thumb (1-4), index (5-8), middle (9-12), ring (13-16), pinky
# (17-20), proximal to distal.
BONES = tuple((j - 1 if (j - 1) % 4 else 0, j) for j in range(1, N_JOINTS))
_PARENTS = np.array([p for p, _ in BONES], dtype=np.intp)
_CHILDREN = np.array([c for _, c in BONES], dtype=np.intp)

# The canonical right hand, finger by finger in joint order: in-plane fan
# angle (degrees from +y toward +x) and bone lengths (mm), proximal to distal.
FINGERS = {
    "thumb": (-40.0, (45.0, 35.0, 28.0, 25.0)),
    "index": (-15.0, (90.0, 40.0, 25.0, 22.0)),
    "middle": (0.0, (85.0, 45.0, 28.0, 24.0)),
    "ring": (15.0, (80.0, 42.0, 26.0, 23.0)),
    "pinky": (35.0, (75.0, 32.0, 20.0, 20.0)),
}


def template_hand() -> JointSet3D:
    """Canonical right hand, wrist at the origin, fingers fanned in the
    x-y plane; bone j of a finger extends its chain along the finger's
    fixed direction by the tabulated length."""
    joints = np.zeros((N_JOINTS, 3))
    for finger, (angle, lengths) in enumerate(FINGERS.values()):
        a = math.radians(angle)
        bones = np.outer(lengths, [math.sin(a), math.cos(a), 0.0])
        joints[1 + 4 * finger:5 + 4 * finger] = np.cumsum(bones, axis=0)
    return JointSet3D(joints)


# Each side's template, built once; a left hand mirrors the right across x = 0.
_RIGHT = template_hand()
TEMPLATES = {HandSide.RIGHT: _RIGHT, HandSide.LEFT: JointSet3D(_RIGHT.joints * [-1, 1, 1])}


def hand_scale(pose: JointSet3D) -> np.ndarray:
    """Mean bone length (mm) over the 20 BONES per hand, shape (...) of (..., 21, 3)."""
    # contiguous, so that each hand's mean sums its bones in one order
    deltas = np.ascontiguousarray(pose.joints[..., _CHILDREN, :] - pose.joints[..., _PARENTS, :])
    scale = np.mean(np.linalg.norm(deltas, axis=-1), axis=-1)
    if np.any(scale < DEGENERATE_SCALE):
        hand = first_hand(scale < DEGENERATE_SCALE)
        raise DegeneratePose(f"the hand at index {hand} has scale {scale[hand]} mm, "
                             f"below {DEGENERATE_SCALE}")
    return scale


@dataclass(frozen=True)
class ScaleStats:
    """Per-side mean hand scale over a training set."""

    mean_scale_left: float
    mean_scale_right: float
    n_left: int
    n_right: int

    def __post_init__(self):
        check_numbers(self, ints=("n_left", "n_right"),
                      reals=("mean_scale_left", "mean_scale_right"), finite=False)
        if min(self.n_left, self.n_right) < 0:
            raise ConfigError(f"a negative count in {self}")
        if self.n_left > 0 and not 0 < self.mean_scale_left < math.inf:
            raise ConfigError("mean_scale_left must be finite and > 0 when n_left > 0")
        if self.n_right > 0 and not 0 < self.mean_scale_right < math.inf:
            raise ConfigError("mean_scale_right must be finite and > 0 when n_right > 0")

    def mean_for(self, side: HandSide) -> float:
        """Target scale for one side: that side's own training mean."""
        if getattr(self, f"n_{side.value}") == 0:
            raise EmptySide(f"no {side.value}-hand samples in scale stats")
        return getattr(self, f"mean_scale_{side.value}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScaleStats":
        """Raises FormatError for invalid JSON and ConfigError for unknown
        or missing keys, a mean that is not a number, a count that is not a
        non-negative int, or a non-positive or non-finite mean of a non-empty
        side."""
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise FormatError(f"scale stats: invalid JSON: {e}") from e
        return cls(**check_config_keys(cls, d))


def compute_mean_scale(poses: list[tuple[HandSide, JointSet3D]]) -> ScaleStats:
    """Arithmetic mean of hand_scale per side, one hand_scale call a side.

    Uses exactly-rounded summation (math.fsum) so the result is bitwise
    independent of the input ordering.
    """
    scales = []
    for side in HandSide:
        joints = [pose.joints for s, pose in poses if s is side]
        if not joints:
            raise EmptySide(f"no {side.value}-hand poses supplied")
        scales.append(hand_scale(JointSet3D(joints)).tolist())
    left, right = scales
    return ScaleStats(mean_scale_left=math.fsum(left) / len(left),
                      mean_scale_right=math.fsum(right) / len(right),
                      n_left=len(left), n_right=len(right))


def rescale_depth(pose: JointSetUVD, cam: CameraIntrinsics,
                  target_scale: float | np.ndarray) -> JointSetUVD:
    """Multiply each hand's depths so that, unprojected, it attains its
    target_scale, one for all hands or one per hand (shape (...)).

    (u, v) columns are copied bitwise; by depth-homogeneity of the pinhole
    unprojection the resulting 3D pose is exactly k times the original one
    with k = target_scale / current scale, so reprojection is unchanged.
    """
    target = np.broadcast_to(np.asarray(target_scale, dtype=np.float64), pose.joints.shape[:-2])
    ok = (0 < target) & (target < math.inf)
    if not np.all(ok):
        hand = first_hand(~ok)
        raise NonPositiveScale(f"target_scale must be finite and > 0; the hand at index "
                               f"{hand} has {target[hand]}")
    out = pose.joints.copy()
    out[..., 2] *= np.expand_dims(target / hand_scale(uvd_to_xyz(pose, cam)), -1)
    return JointSetUVD(out)
