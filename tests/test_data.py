from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.recfunctions import repack_fields

from setpose.data import (
    DATASET_FORMAT_VERSION,
    HANDS_DTYPE,
    GenConfig,
    HandAnnotation,
    SceneSample,
    _render_hand_canvas,
    augment,
    default_intrinsics,
    generate_dataset,
    generate_sample,
    pack_hands,
    read_dataset,
    write_dataset,
)
from setpose.errors import ConfigError, FormatError
from setpose.geometry import CameraIntrinsics, HandSide, JointSetUVD, N_JOINTS, xyz_to_uvd
from setpose.hand_model import BONES, FINGERS, hand_scale, template_hand
from setpose.rng import PortableRng

from conftest import AlwaysFlip

TEMPLATE_MEAN_BONE = sum(sum(lengths) for _, lengths in FINGERS.values()) / 20.0  # 40.5


def small_cfg(**kw) -> GenConfig:
    return GenConfig(**{"seed": 123, "n_samples": 8, **kw})


# -- template ------------------------------------------------------------------

def test_template_constants_mean():
    # oracle: sum the 20 tabulated bone lengths and divide by 20
    assert TEMPLATE_MEAN_BONE == 40.5


def test_template_scale_matches_edge_sum_oracle():
    template = template_hand()
    # independent per-edge summation
    total = math.fsum(
        math.dist(template.joints[p], template.joints[c])
        for p, c in BONES)
    oracle = total / 20.0
    assert abs(oracle - TEMPLATE_MEAN_BONE) < 1e-9
    assert abs(hand_scale(template) - oracle) < 1e-12


def test_template_repeatable_and_rooted():
    a = template_hand()
    b = template_hand()
    assert np.array_equal(a.joints, b.joints)
    assert np.array_equal(a.joints[0], np.zeros(3))


def test_template_mirror_preserves_scale():
    template = template_hand()
    mirrored = template.joints.copy()
    mirrored[:, 0] = -mirrored[:, 0]
    from setpose.geometry import JointSet3D
    assert hand_scale(JointSet3D(mirrored)) == hand_scale(template)


# -- generation ------------------------------------------------------------------

def test_generation_bitwise_deterministic():
    cfg = small_cfg()
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    assert len(a) == len(b) == 8
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image)
        assert len(sa.hands) == len(sb.hands)
        for ha, hb in zip(sa.hands, sb.hands):
            assert ha.side == hb.side
            assert np.array_equal(ha.uvd.joints, hb.uvd.joints)
            assert np.array_equal(ha.xyz.joints, hb.xyz.joints)


def test_generation_order_independent_per_sample():
    cfg = small_cfg()
    full = generate_dataset(cfg)
    lone = generate_sample(cfg, 5)
    assert np.array_equal(full[5].image, lone.image)


def test_generated_hands_are_consistent_and_in_bounds():
    cfg = small_cfg(n_samples=40)
    for sample in generate_dataset(cfg):
        for hand in sample.hands:
            back = xyz_to_uvd(hand.xyz, sample.camera)
            rel = np.abs(back.joints - hand.uvd.joints) / np.maximum(
                np.abs(hand.uvd.joints), 1.0)
            assert rel.max() < 1e-9
            u, v, d = np.moveaxis(hand.uvd.joints, -1, 0)
            assert np.all(d >= cfg.depth_range[0]) and np.all(d <= cfg.depth_range[1])
            assert np.all(u >= 0.0) and np.all(u <= 32.0)
            assert np.all(v >= 0.0) and np.all(v <= 32.0)
        assert sample.image.dtype == np.float32
        assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0


def test_presence_rate():
    cfg = small_cfg(n_samples=500)
    present = sum(len(s.hands) for s in generate_dataset(cfg))
    # 1000 Bernoulli(0.9) draws: 900 +- 3*sqrt(1000*0.09) ~ [871, 929]
    assert 860 < present < 940


def test_side_channels_code_the_sides():
    cfg = small_cfg(n_samples=30)
    for sample in generate_dataset(cfg):
        sides = {h.side for h in sample.hands}
        left_energy = float(sample.image[:, :, 0].sum())
        right_energy = float(sample.image[:, :, 1].sum())
        assert (left_energy > 1.0) == (HandSide.LEFT in sides)
        assert (right_energy > 1.0) == (HandSide.RIGHT in sides)
        both = np.maximum(sample.image[:, :, 0], sample.image[:, :, 1])
        assert np.array_equal(sample.image[:, :, 2], both)


def test_monte_carlo_scale_mean():
    cfg = small_cfg(n_samples=1000, seed=77)
    scales = [hand_scale(h.xyz) for s in generate_dataset(cfg) for h in s.hands]
    n = len(scales)
    mean = math.fsum(scales) / n
    # jitter U(0.85, 1.15): E[scale] = 40.5, sd = 40.5*0.3/sqrt(12)
    sd = 40.5 * 0.3 / math.sqrt(12.0)
    assert abs(mean - TEMPLATE_MEAN_BONE) < 3.0 * sd / math.sqrt(n)


def test_scale_shifted_split_ratio():
    base = small_cfg(n_samples=400, seed=5)
    shifted = small_cfg(n_samples=400, seed=6, subject_scale_factor=1.3)
    mean = lambda ds: np.mean([hand_scale(h.xyz) for s in ds for h in s.hands])
    ratio = mean(generate_dataset(shifted)) / mean(generate_dataset(base))
    assert abs(ratio - 1.3) < 0.03 * 1.3


def test_gen_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(depth_range=(0.0, 100.0))
    with pytest.raises(ConfigError):
        small_cfg(scale_jitter=(1.2, 0.8))
    with pytest.raises(ConfigError):
        small_cfg(hand_presence_prob=1.5)
    with pytest.raises(ConfigError):
        GenConfig(image_size=(64, 64))  # default intrinsics are 32x32
    with pytest.raises(ConfigError, match="n_samples"):
        GenConfig.from_dict({"n_samples": "4"})
    with pytest.raises(ConfigError, match="hand_presence_prob"):
        small_cfg(hand_presence_prob=float("nan"))
    with pytest.raises(ConfigError, match="n_samples must be >= 0"):
        small_cfg(n_samples=-1)
    for factor in (0.0, -1.3):
        with pytest.raises(ConfigError, match="subject_scale_factor must be > 0"):
            small_cfg(subject_scale_factor=factor)
    # every tuple field is a pair
    for name, value in (("image_size", (32, 32, 3)), ("depth_range", (500.0,)),
                        ("scale_jitter", (0.9,))):
        with pytest.raises(ConfigError, match=f"{name} must be a pair"):
            small_cfg(**{name: value})


def test_a_hand_that_cannot_be_placed_raises_config_error():
    """A 1 mm depth range holds no rotated hand, so every attempt fails."""
    cfg = small_cfg(n_samples=1, depth_range=(500.0, 501.0), hand_presence_prob=1.0)
    with pytest.raises(ConfigError, match="could not place a .* hand after 200 attempts"):
        generate_dataset(cfg)


def test_gen_config_dict_round_trip():
    cfg = small_cfg(subject_scale_factor=1.3)
    assert GenConfig.from_dict(cfg.to_dict()) == cfg


def test_gen_config_unknown_keys_raise_config_error():
    with pytest.raises(ConfigError, match="blur"):
        GenConfig.from_dict({**small_cfg().to_dict(), "blur": 2})
    intrinsics = {**small_cfg().intrinsics.to_dict(), "skew": 0.0}
    with pytest.raises(ConfigError, match="skew"):
        GenConfig.from_dict({**small_cfg().to_dict(), "intrinsics": intrinsics})


# -- augmentation ------------------------------------------------------------------

def sample_with_both_hands(seed: int = 3) -> SceneSample:
    cfg = small_cfg(seed=seed, n_samples=40, hand_presence_prob=1.0)
    for sample in generate_dataset(cfg):
        if len(sample.hands) == 2:
            return sample
    raise AssertionError("no two-hand sample found")


def batch_of(samples: list[SceneSample]) -> tuple[np.ndarray, np.ndarray]:
    """A training batch's arrays: the stacked images and the packed hands."""
    return np.stack([s.image for s in samples]), pack_hands(samples)


def test_hflip_swaps_sides_and_mirrors_columns_with_channel_swap():
    """Each flipped row equals a per-sample reference flip: columns mirrored,
    channels 0 and 1 swapped, the hand of side k in slot 1 - k with
    u' = W - u and v, d and xyz bitwise unchanged; an empty slot then holds
    u = W and zeros. Every other row is untouched."""
    samples = generate_dataset(small_cfg(seed=3, n_samples=16, hand_presence_prob=0.5))
    assert {len(s.hands) for s in samples} == {0, 1, 2}
    images, hands = batch_of(samples)
    augment(images, hands, PortableRng(7))
    replay = PortableRng(7)
    flipped = [replay.bernoulli(0.5) for _ in samples]
    assert 0 < sum(flipped) < len(samples)
    w = int(samples[0].camera.width)
    for sample, image, row, flip in zip(samples, images, hands, flipped):
        if not flip:
            assert image.tobytes() == sample.image.tobytes()
            assert row.tobytes() == pack_hands([sample])[0].tobytes()
            continue
        for c in range(w):
            assert np.array_equal(image[:, c, 0], sample.image[:, w - 1 - c, 1])
            assert np.array_equal(image[:, c, 1], sample.image[:, w - 1 - c, 0])
            assert np.array_equal(image[:, c, 2], sample.image[:, w - 1 - c, 2])
        slots = {1 - hand.side.code: hand for hand in sample.hands}
        assert row["present"].tolist() == [k in slots for k in (0, 1)]
        for k in (0, 1):
            if k in slots:
                uvd, xyz = slots[k].uvd.joints, slots[k].xyz.joints
                assert np.array_equal(row[k]["uvd"][:, 0], w - uvd[:, 0])
                assert row[k]["uvd"][:, 1:].tobytes() == uvd[:, 1:].tobytes()
                assert row[k]["xyz"].tobytes() == xyz.tobytes()
            else:
                assert np.all(row[k]["uvd"][:, 0] == w)
                assert not row[k]["uvd"][:, 1:].any() and not row[k]["xyz"].any()


def test_hflip_double_flip_restores_image_and_uvd():
    """Two augment calls with rngs of one seed flip the same rows twice:
    images and everything but u come back bitwise, u within 1e-9."""
    samples = generate_dataset(small_cfg(seed=8, n_samples=16))
    images, hands = batch_of(samples)
    first = images.copy()
    augment(images, hands, PortableRng(11))
    assert images.tobytes() != first.tobytes()
    augment(images, hands, PortableRng(11))
    original = pack_hands(samples)
    assert images.tobytes() == first.tobytes()
    assert np.abs(hands["uvd"][..., 0] - original["uvd"][..., 0]).max() < 1e-9
    assert hands["uvd"][..., 1:].tobytes() == original["uvd"][..., 1:].tobytes()
    assert np.array_equal(hands["present"], original["present"])
    assert hands["xyz"].tobytes() == original["xyz"].tobytes()


def test_hflip_hand_computed():
    """A left hand at u = 420 in a 1280-wide batch becomes a right hand at
    u = 860."""
    images, hands = np.zeros((1, 1, 1280, 3), np.float32), np.zeros((1, 2), HANDS_DTYPE)
    hands[0, 0] = (True, np.tile([420.0, 340.0, 2000.0], (N_JOINTS, 1)), 1.0)
    augment(images, hands, AlwaysFlip())
    assert hands["present"].tolist() == [[False, True]]
    assert np.array_equal(hands["uvd"][0, 1], np.tile([860.0, 340.0, 2000.0], (N_JOINTS, 1)))


def test_hflip_mirror_axis_fixed_point():
    images, hands = np.zeros((1, 1, 1280, 3), np.float32), np.zeros((1, 2), HANDS_DTYPE)
    hands["uvd"][0, 0] = np.tile([640.0, 100.0, 500.0], (N_JOINTS, 1))
    augment(images, hands, AlwaysFlip())
    assert np.all(hands["uvd"][0, 1, :, 0] == 640.0)


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(1, 4096),
       arrays(np.float64, (2, N_JOINTS, 3), elements=st.floats(0.0, 1.0)))
def test_hflip_twice_property(width, unit):
    """Any width and any joints with u in [0, W]: one flip swaps the slots,
    two restore v and d bitwise and u to within an ulp of W."""
    images, hands = np.zeros((1, 1, width, 3), np.float32), np.zeros((1, 2), HANDS_DTYPE)
    hands["present"][0, 0] = True
    hands["uvd"][0] = unit * [width, 1e3, 1e6]
    original = hands.copy()
    augment(images, hands, AlwaysFlip())
    assert hands["present"].tolist() == [[False, True]]
    augment(images, hands, AlwaysFlip())
    assert hands["uvd"][..., 1:].tobytes() == original["uvd"][..., 1:].tobytes()
    # W - (W - u) rounds twice, so u comes back within an ulp of W, not bitwise
    assert np.abs(hands["uvd"][..., 0] - original["uvd"][..., 0]).max() <= 2 * np.spacing(
        float(width))


def test_augment_makes_one_draw_per_image_in_batch_order():
    samples = generate_dataset(small_cfg(n_samples=8, hand_presence_prob=1.0))
    images, hands = batch_of(samples)
    rng, replay = PortableRng(5), PortableRng(5)
    augment(images, hands, rng)
    expected = [replay.bernoulli(0.5) for _ in samples]
    assert 0 < sum(expected) < len(samples)
    assert [not np.array_equal(i, s.image) for i, s in zip(images, samples)] == expected
    assert rng.next_u64() == replay.next_u64()


def test_augment_flip_rate():
    images, hands = np.zeros((400, 1, 2, 3), np.float32), np.zeros((400, 2), HANDS_DTYPE)
    hands["present"][:, 0] = True
    augment(images, hands, PortableRng(1000))
    flips = int(hands["present"][:, 1].sum())
    assert 160 < flips < 240


# -- rendering ------------------------------------------------------------------

def _reference_canvas(size: tuple[int, int], uvd: JointSetUVD) -> np.ndarray:
    """The renderer as one call per primitive: each of the 20 bones (sigma
    0.6), then a blob (a zero-length segment, sigma 1.0) at each joint,
    max-composited within 3 pixels of the primitive's bounding box."""
    canvas = np.zeros(size)
    h, w = size
    pts = uvd.joints[:, :2]
    primitives = ([(pts[a], pts[b], 0.6) for a, b in BONES]
                  + [(pt, pt, 1.0) for pt in pts])
    for p, q, sigma in primitives:
        (pu, pv), (qu, qv) = p.tolist(), q.tolist()
        lo_c = max(math.floor(min(pu, qu)) - 3, 0)
        hi_c = min(math.ceil(max(pu, qu)) + 3, w - 1)
        lo_r = max(math.floor(min(pv, qv)) - 3, 0)
        hi_r = min(math.ceil(max(pv, qv)) + 3, h - 1)
        if lo_c > hi_c or lo_r > hi_r:
            continue
        cc = np.arange(lo_c, hi_c + 1)
        rr = np.arange(lo_r, hi_r + 1)[:, None]
        seg = q - p
        seg_len2 = seg @ seg
        if seg_len2 == 0.0:
            dx, dy = cc - pu, rr - pv
        else:
            su, sv = seg.tolist()
            t = np.clip(((cc - pu) * su + (rr - pv) * sv) / seg_len2, 0.0, 1.0)
            dx = cc - (pu + t * su)
            dy = rr - (pv + t * sv)
        val = np.exp(-(dx * dx + dy * dy) / (2.0 * sigma ** 2))
        region = canvas[lo_r:hi_r + 1, lo_c:hi_c + 1]
        np.maximum(region, val, out=region)
    return canvas


def _generated_hands(size: tuple[int, int], focal: float, n_hands: int):
    cfg = GenConfig(seed=size[0] + int(focal), n_samples=n_hands, image_size=size,
                    intrinsics=default_intrinsics(size, focal))
    hands = []
    for i in range(n_hands):
        hands += generate_sample(cfg, i).hands
        if len(hands) >= n_hands:
            return hands
    raise AssertionError("too few hands")


@pytest.mark.parametrize("size, focal, n_hands", [
    ((32, 32), 24.0, 200), ((48, 48), 36.0, 200), ((48, 48), 72.0, 40)])
def test_renderer_is_bitwise_equal_to_one_call_per_primitive(size, focal, n_hands):
    for hand in _generated_hands(size, focal, n_hands):
        assert (_render_hand_canvas(size, hand.uvd).tobytes()
                == _reference_canvas(size, hand.uvd).tobytes())


def test_renderer_clips_windows_at_the_border_and_draws_zero_length_bones():
    """A hand pushed against the left and bottom edges, so the windows of
    the primitives there are cut, and one with joints 1 and 2 coincident,
    so bone (1, 2) has length 0."""
    size = (32, 32)
    joints = _generated_hands(size, 24.0, 1)[0].uvd.joints.copy()
    pushed = joints.copy()
    pushed[:, 0] += 0.5 - pushed[:, 0].min()
    pushed[:, 1] += size[0] - 0.5 - pushed[:, 1].max()
    coincident = joints.copy()
    coincident[2] = coincident[1]
    assert (1, 2) in BONES
    for uvd in (JointSetUVD(pushed), JointSetUVD(coincident)):
        assert _render_hand_canvas(size, uvd).tobytes() == _reference_canvas(size, uvd).tobytes()
    at_edges = _render_hand_canvas(size, JointSetUVD(pushed))
    assert at_edges[:, 0].any() and at_edges[-1, :].any()


@pytest.mark.parametrize("u, v", [(9.3, 6.6), (1.2, 14.8)], ids=["inside", "clipped"])
def test_zero_length_segment_draws_a_gaussian_blob_in_its_window(u, v):
    """All 21 joints at (u, v): within 3 pixels of the point's bounding box,
    clipped to the canvas, every pixel is exactly the Gaussian (the blob's
    sigma 1.0) of its distance to (u, v); outside it the canvas stays 0."""
    sigma = 1.0
    canvas = _render_hand_canvas((16, 20), JointSetUVD(np.tile([u, v, 700.0], (21, 1))))
    rr, cc = np.mgrid[0:16, 0:20]
    window = ((cc >= math.floor(u) - 3) & (cc <= math.ceil(u) + 3)
              & (rr >= math.floor(v) - 3) & (rr <= math.ceil(v) + 3))
    gauss = np.exp(-((cc - u) ** 2 + (rr - v) ** 2) / (2.0 * sigma ** 2))
    assert np.array_equal(canvas[window], gauss[window])
    assert np.all(canvas[~window] == 0.0)


# -- dataset I/O ------------------------------------------------------------------

def _assert_same_samples(written, read):
    """Bitwise equal images, cameras and hands, hands in the same order."""
    assert len(written) == len(read)
    for a, b in zip(written, read):
        assert np.array_equal(a.image, b.image) and a.camera == b.camera
        assert [h.side for h in a.hands] == [h.side for h in b.hands]
        for ha, hb in zip(a.hands, b.hands):
            assert np.array_equal(ha.uvd.joints, hb.uvd.joints)
            assert np.array_equal(ha.xyz.joints, hb.xyz.joints)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rehash(ds):
    """Give meta.json the SHA-256 of each array file as it now is, so that a
    check other than the SHA-256 one has to catch an edit."""
    meta = json.loads((ds / "meta.json").read_text())
    meta.update(images_sha256=_sha256(ds / "images.npy"),
                hands_sha256=_sha256(ds / "hands.npy"))
    (ds / "meta.json").write_text(json.dumps(meta))


def one_hand_sample(side: HandSide) -> SceneSample:
    cfg = small_cfg(hand_presence_prob=1.0)
    hand = next(h for h in generate_sample(cfg, 0).hands if h.side is side)
    return SceneSample(image=np.zeros((32, 32, 3)), hands=(hand,), camera=cfg.intrinsics)


def test_pack_hands_puts_a_right_only_sample_in_slot_1():
    right = one_hand_sample(HandSide.RIGHT)
    hands = pack_hands([right])
    assert hands.dtype == HANDS_DTYPE and hands.shape == (1, 2)
    assert HANDS_DTYPE.itemsize == 1009
    assert hands["present"].tolist() == [[False, True]]
    assert np.array_equal(hands["uvd"][0, 1], right.hands[0].uvd.joints)
    assert np.array_equal(hands["xyz"][0, 1], right.hands[0].xyz.joints)
    assert not hands["uvd"][0, 0].any() and not hands["xyz"][0, 0].any()


def test_a_hand_without_xyz_raises_config_error():
    hand = one_hand_sample(HandSide.LEFT).hands[0]
    with pytest.raises(ConfigError, match="xyz must be a JointSet3D, got None"):
        HandAnnotation(side=hand.side, uvd=hand.uvd, xyz=None)


def test_pack_hands_side_codes_are_the_class_columns():
    """Training reads a slot's index as its class logit column: slot k holds
    the hand whose HandSide.code is k."""
    samples = [one_hand_sample(HandSide.LEFT), one_hand_sample(HandSide.RIGHT),
               generate_sample(small_cfg(hand_presence_prob=1.0), 1)]
    hands = pack_hands(samples)
    for i, sample in enumerate(samples):
        by_side = {h.side: h for h in sample.hands}
        assert hands["present"][i].tolist() == [side in by_side for side in HandSide]
        for side, hand in by_side.items():
            assert np.array_equal(hands["uvd"][i, side.code], hand.uvd.joints)
    assert [side.code for side in HandSide] == [0, 1]
    assert pack_hands([]).shape == (0, 2)


def test_a_right_first_scene_sample_holds_its_hands_left_first(tmp_path):
    source = sample_with_both_hands()
    left, right = source.hands
    assert (left.side, right.side) == (HandSide.LEFT, HandSide.RIGHT)
    swapped = SceneSample(image=source.image, hands=(right, left), camera=source.camera)
    assert swapped.hands[0] is left and swapped.hands[1] is right
    write_dataset([swapped], tmp_path / "ds")
    _assert_same_samples([source], read_dataset(tmp_path / "ds")[0])
    with pytest.raises(ConfigError, match="one hand per side"):
        SceneSample(image=source.image, hands=(right, right), camera=source.camera)


def test_round_trip_bitwise(tmp_path):
    """Generated samples, one built with its right hand first, and ones with
    one hand or none."""
    cfg = small_cfg(n_samples=4, hand_presence_prob=1.0)
    generated = generate_dataset(cfg)
    image, both, camera = generated[0].image, generated[0].hands, generated[0].camera
    assert [h.side for h in both] == [HandSide.LEFT, HandSide.RIGHT]
    samples = generated + [SceneSample(image=image, hands=hands, camera=camera)
                           for hands in (both[::-1], both[:1], both[1:], ())]
    write_dataset(samples, tmp_path / "ds", gen_config=cfg)
    loaded, meta = read_dataset(tmp_path / "ds")
    assert meta["format_version"] == DATASET_FORMAT_VERSION == 6
    images = np.load(tmp_path / "ds" / "images.npy")
    assert images.dtype == np.dtype("<f4") and images.shape == (8, 32, 32, 3)
    hands = np.load(tmp_path / "ds" / "hands.npy")
    assert hands.dtype == HANDS_DTYPE and hands.shape == (8, 2)
    assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == [
        "hands.npy", "images.npy", "meta.json"]
    assert meta["gen_config"]["subject_scale_factor"] == 1.0
    _assert_same_samples(samples, loaded)
    assert [[h.side for h in s.hands] for s in loaded[-4:]] == [
        [HandSide.LEFT, HandSide.RIGHT], [HandSide.LEFT], [HandSide.RIGHT], []]


def test_round_trip_of_an_empty_dataset(tmp_path):
    cfg = small_cfg(n_samples=0)
    write_dataset([], tmp_path / "ds", gen_config=cfg)
    loaded, meta = read_dataset(tmp_path / "ds")
    assert loaded == [] and meta["n_samples"] == 0
    assert GenConfig.from_dict(meta["gen_config"]) == cfg
    assert np.load(tmp_path / "ds" / "hands.npy").shape == (0, 2)


def test_an_empty_dataset_without_a_config_raises_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot infer intrinsics"):
        write_dataset([], tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_a_missing_dataset_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError, match="no dataset at"):
        read_dataset(tmp_path / "ds")


def test_write_dataset_rejects_frames_with_different_cameras(tmp_path):
    """meta.json holds one camera, so reading back would give the third frame
    the first frame's intrinsics."""
    near = generate_dataset(small_cfg(n_samples=1))[0]
    wide = CameraIntrinsics(fx=18.0, fy=18.0, cx=15.0, cy=17.0, width=32.0, height=32.0)
    far = generate_dataset(small_cfg(n_samples=1, intrinsics=wide))[0]
    with pytest.raises(ConfigError, match="sample 2 "):
        write_dataset([near, near, far], tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_write_dataset_rejects_an_image_not_of_the_camera_size():
    """The SceneSample refuses it when built, so write_dataset never sees one."""
    sample = generate_dataset(small_cfg(n_samples=1))[0]
    with pytest.raises(ConfigError, match=r"a \(16, 32, 3\) image, but its camera's "
                                          r"images are \(32, 32, 3\)"):
        SceneSample(image=sample.image[:16], hands=sample.hands, camera=sample.camera)


def test_truncated_image_raises_named_format_error(tmp_path):
    cfg = small_cfg(n_samples=2)
    write_dataset(generate_dataset(cfg), tmp_path / "ds", gen_config=cfg)
    victim = tmp_path / "ds" / "images.npy"
    victim.write_bytes(victim.read_bytes()[:-10])
    _rehash(tmp_path / "ds")
    with pytest.raises(FormatError) as err:
        read_dataset(tmp_path / "ds")
    assert "images.npy" in str(err.value) and "SHA-256" not in str(err.value)


@pytest.mark.parametrize("edit", [
    lambda raw: raw + bytes(4),
    lambda raw: raw[:8] + bytes([raw[8] - 4]) + raw[9:],  # data would start 4 bytes early
    lambda raw: raw[:8] + bytes([raw[8] - 64]) + raw[9:],  # cuts the header's dict
], ids=["trailing-bytes", "short-header-length", "cut-header"])
def test_images_file_its_header_does_not_describe_raises_format_error(tmp_path, edit):
    cfg = small_cfg(n_samples=2)
    write_dataset(generate_dataset(cfg), tmp_path / "ds", gen_config=cfg)
    victim = tmp_path / "ds" / "images.npy"
    victim.write_bytes(edit(victim.read_bytes()))
    _rehash(tmp_path / "ds")
    with pytest.raises(FormatError) as err:
        read_dataset(tmp_path / "ds")
    assert "images.npy" in str(err.value) and "SHA-256" not in str(err.value)


@pytest.mark.parametrize("images", [
    lambda a: a[:2],  # one image fewer than meta.json's n_samples
    lambda a: np.concatenate([a, a[:1]]),
    lambda a: a.astype(np.float64),
    lambda a: a.astype(">f4"),
    lambda a: a[:, :16],
    lambda a: np.array([None] * 3, dtype=object),  # a pickle, never loaded
], ids=["fewer", "more", "float64", "big-endian", "wrong-size", "pickled"])
def test_images_that_do_not_fit_meta_raise_format_error_naming_the_file(tmp_path, images):
    cfg = small_cfg(n_samples=3)
    write_dataset(generate_dataset(cfg), tmp_path / "ds", gen_config=cfg)
    victim = tmp_path / "ds" / "images.npy"
    np.save(victim, images(np.load(victim)))
    _rehash(tmp_path / "ds")
    with pytest.raises(FormatError) as err:
        read_dataset(tmp_path / "ds")
    assert "images.npy" in str(err.value) and "SHA-256" not in str(err.value)


def test_version_1_dataset_raises_format_error_naming_the_version(tmp_path):
    """The layout before images.npy: one images/<id>.imgf file per image."""
    ds = tmp_path / "ds"
    (ds / "images").mkdir(parents=True)
    (ds / "images" / "000000.imgf").write_bytes(b"IMGF" + bytes(16))
    meta = {"format_version": 1, "n_samples": 1,
            "intrinsics": small_cfg().intrinsics.to_dict(), "gen_config": None}
    (ds / "meta.json").write_text(json.dumps(meta))
    (ds / "samples.jsonl").write_text(
        json.dumps({"id": 0, "image": "images/000000.imgf", "hands": []}) + "\n")
    with pytest.raises(FormatError, match="meta.json: unsupported format version 1 "):
        read_dataset(ds)


def _older_dataset(ds, version: int, del_keys: tuple[str, ...]):
    cfg = small_cfg(n_samples=1)
    write_dataset(generate_dataset(cfg), ds, gen_config=cfg)
    meta = json.loads((ds / "meta.json").read_text())
    for key in del_keys:
        del meta[key]
    meta["format_version"] = version
    (ds / "meta.json").write_text(json.dumps(meta))
    (ds / "hands.npy").unlink()
    (ds / "samples.jsonl").write_text(json.dumps({"id": 0, "hands": []}) + "\n")


def test_version_2_dataset_raises_format_error_naming_the_version(tmp_path):
    """The layout before meta.json recorded the SHA-256 of images.npy."""
    _older_dataset(tmp_path / "ds", 2, ("images_sha256", "hands_sha256"))
    with pytest.raises(FormatError, match="meta.json: unsupported format version 2 "):
        read_dataset(tmp_path / "ds")


def test_version_3_dataset_raises_format_error_naming_the_version(tmp_path):
    """The layout before hands.npy: one samples.jsonl object per sample."""
    _older_dataset(tmp_path / "ds", 3, ("hands_sha256",))
    with pytest.raises(FormatError, match="meta.json: unsupported format version 3 "):
        read_dataset(tmp_path / "ds")


def test_version_4_dataset_raises_format_error_naming_the_version(tmp_path):
    """The layout whose hands.npy held a side code per slot, -1 in an empty
    one, with the hands in sample order."""
    ds = tmp_path / "ds"
    cfg = small_cfg(n_samples=1)
    write_dataset(generate_dataset(cfg), ds, gen_config=cfg)
    old = np.zeros((1, 2), [("side", "i1"), ("uvd", "<f8", (21, 3)),
                            ("xyz", "<f8", (21, 3)), ("has_xyz", "?")])
    old["side"] = -1
    np.save(ds / "hands.npy", old)
    meta = json.loads((ds / "meta.json").read_text())
    meta["format_version"] = 4
    (ds / "meta.json").write_text(json.dumps(meta))
    _rehash(ds)
    with pytest.raises(FormatError, match="meta.json: unsupported format version 4 "):
        read_dataset(ds)


def test_version_5_dataset_raises_format_error_naming_the_version(tmp_path):
    """The layout whose hands.npy held a has_xyz flag per slot, False for a
    flipped hand."""
    ds = tmp_path / "ds"
    cfg = small_cfg(n_samples=1)
    write_dataset(generate_dataset(cfg), ds, gen_config=cfg)
    np.save(ds / "hands.npy", np.zeros((1, 2), [("present", "?"), ("uvd", "<f8", (21, 3)),
                                                ("xyz", "<f8", (21, 3)), ("has_xyz", "?")]))
    meta = json.loads((ds / "meta.json").read_text())
    meta["format_version"] = 5
    (ds / "meta.json").write_text(json.dumps(meta))
    _rehash(ds)
    with pytest.raises(FormatError, match="meta.json: unsupported format version 5 "):
        read_dataset(ds)


def test_a_flipped_pixel_bit_raises_format_error_naming_images(tmp_path):
    cfg = small_cfg(n_samples=2)
    write_dataset(generate_dataset(cfg), tmp_path / "ds", gen_config=cfg)
    victim = tmp_path / "ds" / "images.npy"
    raw = bytearray(victim.read_bytes())
    raw[-100] ^= 0x01  # the low mantissa bit of a pixel of the second image
    victim.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="images.npy: SHA-256"):
        read_dataset(tmp_path / "ds")


def test_every_flipped_byte_of_hands_raises_format_error(tmp_path):
    """Header, present flags, joints and empty-slot padding alike."""
    ds = tmp_path / "ds"
    cfg = small_cfg(n_samples=1, hand_presence_prob=0.5, seed=0)
    samples = generate_dataset(cfg)
    assert len(samples[0].hands) == 1  # slot 1 is empty
    write_dataset(samples, ds, gen_config=cfg)
    victim = ds / "hands.npy"
    raw = victim.read_bytes()
    for i in range(len(raw)):
        flipped = bytearray(raw)
        flipped[i] ^= 0xFF
        victim.write_bytes(bytes(flipped))
        with pytest.raises(FormatError, match="hands.npy: SHA-256"):
            read_dataset(ds)


def test_unknown_intrinsics_key_in_dataset_raises_config_error(tmp_path):
    cfg = small_cfg(n_samples=1)
    write_dataset(generate_dataset(cfg), tmp_path / "ds", gen_config=cfg)
    written = json.loads((tmp_path / "ds" / "meta.json").read_text())
    # an unknown key, and a known one that is not a number
    for key, value in (("skew", 0.0), ("fx", "24")):
        meta = json.loads(json.dumps(written))
        meta["intrinsics"][key] = value
        (tmp_path / "ds" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match=key):
            read_dataset(tmp_path / "ds")


def test_unknown_dataset_version_rejected_before_load(tmp_path):
    cfg = small_cfg(n_samples=2)
    write_dataset(generate_dataset(cfg), tmp_path / "ds", gen_config=cfg)
    meta = json.loads((tmp_path / "ds" / "meta.json").read_text())
    meta["format_version"] = DATASET_FORMAT_VERSION + 1
    (tmp_path / "ds" / "meta.json").write_text(json.dumps(meta))
    # also corrupt the arrays: proves they are never touched
    (tmp_path / "ds" / "images.npy").write_bytes(b"junk")
    (tmp_path / "ds" / "hands.npy").write_bytes(b"junk")
    with pytest.raises(FormatError) as err:
        read_dataset(tmp_path / "ds")
    assert "meta.json" in str(err.value)


def _without(hands, name):
    return repack_fields(hands[[n for n in hands.dtype.names if n != name]])


def _short_uvd(hands):
    """hands with a (20, 3) uvd field."""
    names = hands.dtype.names
    out = np.zeros(hands.shape, [(n, "<f8", (20, 3)) if n == "uvd" else (n, hands.dtype[n])
                                 for n in names])
    for n in names:
        out[n] = hands[n][..., :20, :] if n == "uvd" else hands[n]
    return out


@pytest.mark.parametrize("where, what, corrupt", [
    ("meta.json", "object", lambda f: f.update(meta=[])),
    ("meta.json", "intrinsics", lambda f: f["meta"].pop("intrinsics")),
    ("meta.json", "n_samples", lambda f: f["meta"].pop("n_samples")),
    ("meta.json", "images_sha256", lambda f: f["meta"].pop("images_sha256")),
    ("meta.json", "hands_sha256", lambda f: f["meta"].pop("hands_sha256")),
    ("meta.json", "non-negative int", lambda f: f["meta"].update(n_samples="2")),
    ("meta.json", "invalid JSON", lambda f: f.update(meta="{not json")),
    ("meta.json", "whole numbers", lambda f: f["meta"]["intrinsics"].update(height=32.5)),
    ("meta.json", "whole numbers", lambda f: f["meta"]["intrinsics"].update(width=32.5)),
    ("hands.npy: holds", "shape (2, 0)", lambda f: f.update(hands=f["hands"][:, :0])),
    ("hands.npy: holds", "shape (1, 2)", lambda f: f.update(hands=f["hands"][:1])),
    ("hands.npy: holds", "shape (3, 2)",
     lambda f: f.update(hands=np.concatenate([f["hands"], f["hands"][:1]]))),
    ("hands.npy: holds", "meta.json promises",
     lambda f: f.update(hands=_without(f["hands"], "present"))),
    ("hands.npy: holds", "meta.json promises",
     lambda f: f.update(hands=_without(f["hands"], "uvd"))),
    ("hands.npy: holds", "meta.json promises",
     lambda f: f.update(hands=_without(f["hands"], "xyz"))),
    ("hands.npy: holds", "(20, 3)", lambda f: f.update(hands=_short_uvd(f["hands"]))),
    ("hands.npy: holds", ">f8",
     lambda f: f.update(hands=f["hands"].astype(f["hands"].dtype.newbyteorder(">")))),
    ("hands.npy", "allow_pickle",
     lambda f: f.update(hands=np.array([None] * 2, dtype=object))),
], ids=["meta-not-object", "meta-intrinsics", "meta-n_samples", "meta-sha256",
        "meta-hands-sha256", "meta-n_samples-str", "not-json",
        "meta-fractional-height", "meta-fractional-width",
        "no-hands", "fewer-rows", "more-rows", "no-present", "no-uvd", "no-xyz",
        "short-uvd", "big-endian", "pickled"])
def test_malformed_dataset_raises_format_error_naming_the_file(tmp_path, where, what,
                                                                corrupt):
    """The hands.npy edits come with a matching SHA-256 in meta.json, so
    the check that fires is the one for the edit."""
    cfg = small_cfg(n_samples=2, hand_presence_prob=1.0)
    ds = tmp_path / "ds"
    write_dataset(generate_dataset(cfg), ds, gen_config=cfg)
    files = {"meta": json.loads((ds / "meta.json").read_text()),
             "hands": np.load(ds / "hands.npy")}
    corrupt(files)
    np.save(ds / "hands.npy", files["hands"])
    meta = files["meta"]
    if isinstance(meta, dict) and "hands_sha256" in meta:
        meta["hands_sha256"] = _sha256(ds / "hands.npy")
    (ds / "meta.json").write_text(meta if isinstance(meta, str) else json.dumps(meta))
    with pytest.raises(FormatError) as err:
        read_dataset(ds)
    assert where in str(err.value) and what in str(err.value)
