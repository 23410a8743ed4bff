"""Deterministic synthetic two-hands scene generator and dataset I/O.

Scenes are built from hand_model's TEMPLATES (the canonical right hand
and its mirror across x=0, the left), uniformly scaled, rotated, and
placed so that every joint projects inside the image and every depth
stays inside the configured range. All randomness flows through PortableRng with one
stream per (seed, sample index), so generation is bit-reproducible and
order-independent across samples.

Rendering: the 20 BONES of the hand skeleton (hand_model) as anti-aliased
segments plus Gaussian blobs (zero-length segments) at the 21 joints,
drawn onto one canvas per hand as the maximum of all 41, evaluated in
one vectorized pass and each set to 0 outside its own window (_WINDOW
pixels beyond its bounding box). The left-hand canvas lands in channel 0,
the right-hand canvas in channel 1, and their maximum in channel 2; this
side-coded palette is what lets a desk-scale backbone learn hand
classification. Pixel (row r, col c) samples the continuous image point
(u=c, v=r); images are float32 in [0, 1].

Horizontal flip augmentation (augment) works on a training batch's
arrays, the stacked images and their packed hand slots, in place: a
flipped row mirrors its image columns (discrete index W-1-c), swaps the
left/right channels and the two hand slots, so the side coding stays
consistent with the swapped labels, and maps u through the continuous
mirror u' = W - u. The half-pixel gap between the discrete and continuous
mirrors is accepted; it is sub-pixel and irrelevant at this scale.

On-disk layout (format_version 6), committed by errors.write_store:

    meta.json       format version, generator-config echo, intrinsics, count,
                    and the SHA-256 of each .npy file
    images.npy      every image in one little-endian float32 array of
                    shape (N, H, W, 3), in numpy's .npy format
    hands.npy       (N, 2) HANDS_DTYPE slots (pack_hands): sample i's hand
                    of side s, its uvd and xyz joints, in slot [i, s.code]
                    (0 left, 1 right); present False (and zeros) where that
                    side has no hand. A batch's rows are its ground truth.

meta.json holds one camera for the whole dataset, so write_dataset raises
ConfigError naming the first sample whose camera differs from sample 0's;
a SceneSample's image is always of its camera's size.
errors.read_manifest and errors.read_npy check each file.
A slot's index is its side, so hands.npy cannot hold two hands of a side.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ConfigError, FormatError, check_config_keys, check_numbers,
                     read_manifest, read_npy, write_store)
from .geometry import (
    CameraIntrinsics,
    HandSide,
    JointSet3D,
    JointSetUVD,
    N_JOINTS,
    xyz_to_uvd,
)
from .hand_model import BONES, TEMPLATES
from .rng import PortableRng

DATASET_FORMAT_VERSION = 6
IMAGES_NAME = "images.npy"
HANDS_NAME = "hands.npy"
HANDS_DTYPE = np.dtype([("present", "?"), ("uvd", "<f8", (N_JOINTS, 3)),
                        ("xyz", "<f8", (N_JOINTS, 3))])

_PLACEMENT_ATTEMPTS = 200


def default_intrinsics(image_size: tuple[int, int] = (32, 32),
                       focal: float = 24.0) -> CameraIntrinsics:
    h, w = image_size
    return CameraIntrinsics(fx=focal, fy=focal, cx=w / 2.0, cy=h / 2.0,
                            width=float(w), height=float(h))


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    n_samples: int = 100
    image_size: tuple[int, int] = (32, 32)
    intrinsics: CameraIntrinsics = field(default_factory=default_intrinsics)
    depth_range: tuple[float, float] = (500.0, 1200.0)
    rotation_jitter_deg: float = 20.0
    subject_scale_factor: float = 1.0
    scale_jitter: tuple[float, float] = (0.85, 1.15)
    hand_presence_prob: float = 0.9

    def __post_init__(self):
        object.__setattr__(self, "image_size", tuple(self.image_size))
        object.__setattr__(self, "depth_range", tuple(self.depth_range))
        object.__setattr__(self, "scale_jitter", tuple(self.scale_jitter))
        if isinstance(self.intrinsics, dict):
            object.__setattr__(self, "intrinsics",
                               CameraIntrinsics.from_dict(self.intrinsics))
        check_numbers(self, ints=("seed", "n_samples", "image_size"),
                      reals=("depth_range", "rotation_jitter_deg", "subject_scale_factor",
                             "scale_jitter", "hand_presence_prob"))
        h, w = self.image_size
        if (self.intrinsics.width, self.intrinsics.height) != (float(w), float(h)):
            raise ConfigError("intrinsics width/height must match image_size")
        if self.n_samples < 0:
            raise ConfigError("n_samples must be >= 0")
        if not (0.0 < self.depth_range[0] < self.depth_range[1]):
            raise ConfigError(f"bad depth range {self.depth_range}")
        if not (0.0 < self.scale_jitter[0] <= self.scale_jitter[1]):
            raise ConfigError(f"bad scale jitter {self.scale_jitter}")
        if not 0.0 <= self.hand_presence_prob <= 1.0:
            raise ConfigError("hand_presence_prob must be in [0, 1]")
        if self.subject_scale_factor <= 0:
            raise ConfigError("subject_scale_factor must be > 0")

    def to_dict(self) -> dict:
        return {**asdict(self), "image_size": list(self.image_size),
                "depth_range": list(self.depth_range), "scale_jitter": list(self.scale_jitter)}

    @classmethod
    def from_dict(cls, d: dict) -> "GenConfig":
        return cls(**check_config_keys(cls, d))


@dataclass(frozen=True)
class HandAnnotation:
    side: HandSide
    uvd: JointSetUVD
    xyz: JointSet3D

    def __post_init__(self):
        if not isinstance(self.xyz, JointSet3D):
            raise ConfigError(f"a hand's xyz must be a JointSet3D, got {self.xyz!r}")


@dataclass(frozen=True)
class SceneSample:
    image: np.ndarray  # (H, W, 3) float32 in [0, 1], H and W the camera's
    hands: tuple[HandAnnotation, ...]  # at most one per side; kept left, then right
    camera: CameraIntrinsics

    def __post_init__(self):
        img = np.asarray(self.image, dtype=np.float32)
        shape = (self.camera.height, self.camera.width, 3)
        if img.shape != shape:
            raise ConfigError(f"a {img.shape} image, but its camera's images are "
                              f"({shape[0]:g}, {shape[1]:g}, 3)")
        img.setflags(write=False)
        object.__setattr__(self, "image", img)
        hands = tuple(sorted(self.hands, key=lambda h: h.side.code))
        if len({h.side for h in hands}) != len(hands):
            raise ConfigError("at most one hand per side")
        object.__setattr__(self, "hands", hands)


def _rotation(rng: PortableRng, jitter_deg: float) -> np.ndarray:
    ax, ay, az = (math.radians(rng.uniform(-jitter_deg, jitter_deg))
                  for _ in range(3))
    cx, sx = math.cos(ax), math.sin(ax)
    cy, sy = math.cos(ay), math.sin(ay)
    cz, sz = math.cos(az), math.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def _place_hand(rng: PortableRng, cfg: GenConfig,
                side: HandSide) -> tuple[JointSetUVD, JointSet3D]:
    """Scale/rotate/translate one hand so all joints project in view and
    all depths stay in range.

    The wrist position is drawn uniformly inside a conservative margin
    computed from the rotated hand's extent, so acceptance does not
    depend on where the hand landed (keeps the scale-jitter distribution
    unbiased); the explicit bounds check after projection is a safety
    net that essentially never fires.
    """
    cam = cfg.intrinsics
    h, w = cfg.image_size
    d_lo, d_hi = cfg.depth_range
    uvd_lo, uvd_hi = np.array([0.5, 0.5, d_lo]), np.array([w - 0.5, h - 0.5, d_hi])
    shape = TEMPLATES[side]
    for _ in range(_PLACEMENT_ATTEMPTS):
        jitter = rng.uniform(*cfg.scale_jitter)
        scale = cfg.subject_scale_factor * jitter
        rot = _rotation(rng, cfg.rotation_jitter_deg)
        local = (rot @ (scale * shape.joints).T).T  # wrist stays at origin
        dz_min, dz_max = local[:, 2].min(), local[:, 2].max()
        depth_lo = d_lo - dz_min
        depth_hi = d_hi - dz_max
        if depth_lo >= depth_hi:
            continue
        d = rng.uniform(depth_lo, depth_hi)
        z_nearest = d + dz_min
        margin_u = (cam.fx * np.abs(local[:, 0]).max()
                    + max(cam.cx, w - cam.cx) * max(abs(dz_min), abs(dz_max))
                    ) / z_nearest + 1.0
        margin_v = (cam.fy * np.abs(local[:, 1]).max()
                    + max(cam.cy, h - cam.cy) * max(abs(dz_min), abs(dz_max))
                    ) / z_nearest + 1.0
        if margin_u >= w / 2 or margin_v >= h / 2:
            continue
        u_w = rng.uniform(margin_u, w - margin_u)
        v_w = rng.uniform(margin_v, h - margin_v)
        wrist = np.array([(u_w - cam.cx) * d / cam.fx,
                          (v_w - cam.cy) * d / cam.fy, d])
        xyz = JointSet3D(local + wrist)
        uvd = xyz_to_uvd(xyz, cam)
        if np.all((uvd.joints >= uvd_lo) & (uvd.joints <= uvd_hi)):
            return uvd, xyz
    raise ConfigError(
        f"could not place a {side.value} hand after {_PLACEMENT_ATTEMPTS} "
        f"attempts; depth range / image size / scale are incompatible")


# -- rendering ------------------------------------------------------------------

_SEGMENT_SIGMA = 0.6
_BLOB_SIGMA = 1.0
_WINDOW = 3  # pixels beyond the primitive's bounding box
# The 41 primitives of a hand: its BONES, then a zero-length segment per joint.
_FROM = np.array([p for p, _ in BONES] + list(range(N_JOINTS)))
_TO = np.array([c for _, c in BONES] + list(range(N_JOINTS)))
_DENOM = np.array([2.0 * _SEGMENT_SIGMA ** 2] * len(BONES)
                  + [2.0 * _BLOB_SIGMA ** 2] * N_JOINTS)[:, None, None]


def _render_hand_canvas(size: tuple[int, int], uvd: JointSetUVD) -> np.ndarray:
    """Max over the 41 primitives of exp(-dist^2 / (2 sigma^2)), dist being a
    pixel's distance to the segment pq; each primitive is 0 outside its
    window (its bounding box grown by _WINDOW pixels, clipped to the canvas)."""
    h, w = size
    p, q = uvd.joints[_FROM, :2], uvd.joints[_TO, :2]
    seg = q - p
    # a dot, not su*su + sv*sv, which can round otherwise; t = 0 at p == q
    len2 = seg[:, None, :] @ seg[:, :, None]  # (41, 1, 1)
    len2[len2 == 0.0] = np.inf
    lo = np.maximum(np.floor(np.minimum(p, q)) - _WINDOW, 0)
    hi = np.minimum(np.ceil(np.maximum(p, q)) + _WINDOW, [w - 1, h - 1])
    (c0, r0), (c1, r1) = lo.min(axis=0).astype(int), hi.max(axis=0).astype(int)
    cc, rr = np.arange(c0, c1 + 1), np.arange(r0, r1 + 1)[:, None]
    (pu, pv), (su, sv) = p.T[:, :, None, None], seg.T[:, :, None, None]
    (lo_c, lo_r), (hi_c, hi_r) = lo.T[:, :, None, None], hi.T[:, :, None, None]
    t = np.clip(((cc - pu) * su + (rr - pv) * sv) / len2, 0.0, 1.0)
    dx = cc - (pu + t * su)
    dy = rr - (pv + t * sv)
    inside = ((cc >= lo_c) & (cc <= hi_c)) & ((rr >= lo_r) & (rr <= hi_r))
    canvas = np.zeros(size, dtype=np.float64)
    canvas[rr, cc] = np.exp(-(dx * dx + dy * dy) / _DENOM, out=np.zeros_like(dx),
                            where=inside).max(axis=0)
    return canvas


def render_scene(cfg: GenConfig, hands: list[HandAnnotation]) -> np.ndarray:
    """Compose per-side canvases into the (H, W, 3) float32 image."""
    size = cfg.image_size
    image = np.zeros(size + (3,), dtype=np.float64)
    for hand in hands:
        canvas = _render_hand_canvas(size, hand.uvd)
        for c in (hand.side.code, 2):
            np.maximum(image[:, :, c], canvas, out=image[:, :, c])
    return image.astype(np.float32)


def generate_sample(cfg: GenConfig, index: int) -> SceneSample:
    """Sample `index` of the dataset; draws only from its own RNG stream."""
    rng = PortableRng(cfg.seed, stream=index + 1)
    present = {side: rng.bernoulli(cfg.hand_presence_prob) for side in HandSide}
    hands = []
    for side in HandSide:  # fixed order: left, then right
        if not present[side]:
            continue
        uvd, xyz = _place_hand(rng, cfg, side)
        hands.append(HandAnnotation(side=side, uvd=uvd, xyz=xyz))
    image = render_scene(cfg, hands)
    return SceneSample(image=image, hands=tuple(hands), camera=cfg.intrinsics)


def generate_dataset(cfg: GenConfig) -> list[SceneSample]:
    return [generate_sample(cfg, i) for i in range(cfg.n_samples)]


# -- augmentation ------------------------------------------------------------------

def augment(images: np.ndarray, hands: np.ndarray, rng: PortableRng) -> None:
    """Flips each row of a training batch in place with probability 0.5, one
    rng.bernoulli(0.5) draw per image in batch order: images (B, H, W, 3) and
    the samples' (B, 2) HANDS_DTYPE slots, u mapped to W - u with W =
    images.shape[2] (see the module docstring). An empty slot holds u = W
    after a flip; nothing reads it. xyz moves with its slot unmirrored: a
    batch supervises in UVD only."""
    flip = np.array([rng.bernoulli(0.5) for _ in range(len(images))], dtype=bool)
    images[flip] = images[flip][:, :, ::-1][..., [1, 0, 2]]
    hands[flip] = hands[flip][:, ::-1]
    hands["uvd"][flip, ..., 0] = images.shape[2] - hands["uvd"][flip, ..., 0]


# -- dataset I/O ------------------------------------------------------------------

def pack_hands(samples: list[SceneSample]) -> np.ndarray:
    """The (N, 2) HANDS_DTYPE slots of samples: sample i's hand of side s in
    slot [i, s.code], present False (and zeros) where the side has no hand.
    The rows of hands.npy and the ground-truth layout of a training step."""
    hands = np.zeros((len(samples), 2), dtype=HANDS_DTYPE)
    for i, sample in enumerate(samples):
        for hand in sample.hands:
            hands[i, hand.side.code] = (True, hand.uvd.joints, hand.xyz.joints)
    return hands


def one_camera(samples: list[SceneSample], holder: str) -> CameraIntrinsics:
    """Sample 0's camera; raises ConfigError naming the first sample with another."""
    for i, sample in enumerate(samples):
        if sample.camera != samples[0].camera:
            raise ConfigError(f"sample {i} has camera {sample.camera}, but {holder} one "
                              f"camera for all samples, sample 0's {samples[0].camera}")
    return samples[0].camera


def write_dataset(samples: list[SceneSample], path: str | Path,
                  gen_config: GenConfig | None = None) -> None:
    if samples:
        cam = one_camera(samples, "meta.json holds")
    elif gen_config is not None:
        cam = gen_config.intrinsics
    else:
        raise ConfigError("cannot infer intrinsics for an empty dataset")
    shape = (int(cam.height), int(cam.width), 3)
    meta = {"format_version": DATASET_FORMAT_VERSION, "n_samples": len(samples),
            "intrinsics": cam.to_dict(),
            "gen_config": gen_config.to_dict() if gen_config is not None else None}
    write_store(path, "meta.json", meta, {
        IMAGES_NAME: ([s.image for s in samples], "<f4", (len(samples), *shape)),
        HANDS_NAME: ([pack_hands(samples)], HANDS_DTYPE, (len(samples), 2))})


def read_dataset(path: str | Path) -> tuple[list[SceneSample], dict]:
    path = Path(path)
    meta_path = path / "meta.json"
    meta = read_manifest(meta_path, "dataset", DATASET_FORMAT_VERSION,
                         ("intrinsics", "n_samples", "images_sha256", "hands_sha256"))
    n_samples = meta["n_samples"]
    if type(n_samples) is not int or n_samples < 0:
        raise FormatError(f"{meta_path}: n_samples must be a non-negative int, got {n_samples!r}")
    cam = CameraIntrinsics.from_dict(meta["intrinsics"])
    if not (float(cam.height).is_integer() and float(cam.width).is_integer()):
        raise FormatError(f"{meta_path}: image height and width must be whole numbers, "
                          f"got {cam.height} x {cam.width}")
    images = read_npy(path / IMAGES_NAME, meta["images_sha256"], np.dtype("<f4"),
                      (n_samples, int(cam.height), int(cam.width), 3), "meta.json")
    hands = read_npy(path / HANDS_NAME, meta["hands_sha256"], HANDS_DTYPE,
                     (n_samples, 2), "meta.json")
    present = hands["present"].tolist()
    samples = []
    for i, image in enumerate(images):
        annotations = [HandAnnotation(side=side, uvd=JointSetUVD(hands["uvd"][i, side.code]),
                                      xyz=JointSet3D(hands["xyz"][i, side.code]))
                       for side in HandSide if present[i][side.code]]
        samples.append(SceneSample(image=image, hands=annotations, camera=cam))
    return samples, meta
