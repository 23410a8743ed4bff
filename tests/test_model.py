from __future__ import annotations

import gc
import hashlib
from collections import Counter

import numpy as np
import pytest

from setpose.errors import ConfigError, ShapeError
from setpose.geometry import HandSide, JointSetUVD, N_JOINTS
from setpose.matching import build_cost_matrix, hungarian, set_loss
from setpose.model import (
    BatchDetections,
    DepthMode,
    ModelConfig,
    build_model,
    decode_predictions,
    encode_targets,
    forward_batch,
    forward_from_tokens,
    patch_tokens,
    position_encoding,
)
from setpose.nn_core import (
    ParamStore,
    Tensor,
    forward_backward,
    load_checkpoint,
    no_grad,
    save_checkpoint,
)
from setpose.rng import PortableRng

TINY = ModelConfig(image_size=(32, 32), patch_size=8, embed_dim=16, n_heads=2,
                   n_encoder_layers=1, n_decoder_layers=1, n_queries=3,
                   depth_range=(500.0, 1200.0))


def random_image(rng: PortableRng, cfg: ModelConfig) -> np.ndarray:
    h, w = cfg.image_size
    return np.array(rng.uniform_list(h * w * 3, 0.0, 1.0)).reshape(h, w, 3)


def float64_copy(params: ParamStore) -> ParamStore:
    """The float32 model's parameters as float64, for checks that need
    exact arithmetic (finite differences, tight tolerances)."""
    dup = ParamStore()
    for name, tensor in params.items():
        dup.add(name, tensor.data.astype(np.float64))
    return dup


# -- config validation ---------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ModelConfig(image_size=(30, 32))  # not divisible by patch
    with pytest.raises(ConfigError):
        ModelConfig(n_queries=1)
    with pytest.raises(ConfigError):
        ModelConfig(depth_range=(0.0, 100.0))
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=30, n_heads=2)  # not divisible by 4
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=24, n_heads=5)
    with pytest.raises(ConfigError, match="embed_dim"):
        ModelConfig(embed_dim="64")
    with pytest.raises(ConfigError, match="rel_depth_half_range"):
        ModelConfig(rel_depth_half_range=float("inf"))
    with pytest.raises(ConfigError, match="rel_depth_half_range must be > 0"):
        ModelConfig(rel_depth_half_range=0.0)
    for layers in ({"n_encoder_layers": 0}, {"n_decoder_layers": 0}):
        with pytest.raises(ConfigError, match="one encoder and one decoder layer"):
            ModelConfig(**layers)
    with pytest.raises(ConfigError, match="image_size"):
        ModelConfig.from_dict({**TINY.to_dict(), "image_size": [32.0, 32]})
    # every tuple field is a pair
    with pytest.raises(ConfigError, match="depth_range must be a pair"):
        ModelConfig(depth_range=(1.0, 2.0, 3.0))
    with pytest.raises(ConfigError, match="image_size must be a pair"):
        ModelConfig(image_size=(32,))


def test_config_round_trips_through_dict():
    cfg = ModelConfig(image_size=(48, 48), depth_mode=DepthMode.ROOT_PLUS_RELATIVE)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_config_unknown_key_or_depth_mode_raises_config_error():
    with pytest.raises(ConfigError, match="foo"):
        ModelConfig.from_dict({**TINY.to_dict(), "foo": 1})
    with pytest.raises(ConfigError, match="bogus"):
        ModelConfig(depth_mode="bogus")
    with pytest.raises(ConfigError, match="bogus"):
        ModelConfig.from_dict({**TINY.to_dict(), "depth_mode": "bogus"})


# -- build_model ----------------------------------------------------------------

def test_build_model_deterministic():
    a = build_model(TINY, seed=7)
    b = build_model(TINY, seed=7)
    assert a.names() == b.names()
    for name, tensor in a.items():
        assert np.array_equal(tensor.data, b[name].data)
    c = build_model(TINY, seed=8)
    assert any(not np.array_equal(tensor.data, c[name].data)
               for name, tensor in a.items())


def test_build_model_golden_digest():
    """Pins the counter-based init of every parameter, across processes."""
    params = build_model(TINY, seed=0)
    h = hashlib.sha256()
    for name, tensor in params.items():
        h.update(name.encode())
        h.update(tensor.data.tobytes())
    assert h.hexdigest() == "cacd2c04128aea94ae6097b843f706e60c3e08b683dcbcf75e3901e3a8cfb589"
    assert params["enc0.attn.wq"].data.reshape(-1)[:4].tolist() == [
        0.30208268761634827, -0.07716565579175949, 0.06553179025650024, -0.26180300116539]


def test_build_model_weights_do_not_depend_on_other_layers():
    """A weight is a function of (seed, name, index): adding an encoder layer
    leaves every parameter both models share bitwise equal."""
    one = build_model(TINY, seed=3)
    two = build_model(ModelConfig(**{**TINY.to_dict(), "n_encoder_layers": 2}), seed=3)
    extra = set(two.names()) - set(one.names())
    assert extra and all(name.startswith("enc1.") for name in extra)
    for name, tensor in one.items():
        assert tensor.data.tobytes() == two[name].data.tobytes(), name


def n_scalars(params: ParamStore) -> int:
    return sum(t.data.size for _, t in params.items())


def test_param_count_grows_with_embed_dim():
    small = n_scalars(build_model(TINY, seed=0))
    bigger = n_scalars(build_model(ModelConfig(**{**TINY.to_dict(), "embed_dim": 32}), seed=0))
    assert bigger > small


def test_param_count_matches_hand_tally():
    # independent shape arithmetic from the architecture inventory
    d = TINY.embed_dim
    p = TINY.patch_size
    q = TINY.n_queries
    attn = 4 * d * d + 3 * d  # no key bias
    ln = 2 * d
    ffn = d * 4 * d + 4 * d + 4 * d * d + d
    enc_layer = ln + attn + ln + ffn
    dec_layer = ln + attn + ln + attn + ln + ffn
    expected = (
        (p * p * 3) * d + d                       # patch embed
        + TINY.n_encoder_layers * enc_layer + ln  # encoder + final norm
        + q * d                                   # learned queries
        + TINY.n_decoder_layers * dec_layer + ln  # decoder + final norm
        + (d * d + d) + (d * 3 + 3)               # class head MLP
        + (d * d + d) + (d * 63 + 63)             # joints head MLP
    )
    assert n_scalars(build_model(TINY, seed=1)) == expected


# -- forward ----------------------------------------------------------------

def test_forward_contract():
    params = build_model(TINY, seed=2)
    img = random_image(PortableRng(90), TINY)
    det = forward_batch(params, img[None], TINY)
    assert isinstance(det, BatchDetections)
    assert det.class_logits.shape == (1, 3, 3)
    assert det.joints_norm.shape == (1, 3, 63)
    assert np.all(det.joints_norm.data > 0.0)
    assert np.all(det.joints_norm.data < 1.0)


def test_forward_deterministic_and_input_sensitive():
    params = build_model(TINY, seed=3)
    rng = PortableRng(91)
    img1 = random_image(rng, TINY)
    img2 = random_image(rng, TINY)
    a = forward_batch(params, img1[None], TINY)
    b = forward_batch(params, img1[None], TINY)
    assert np.array_equal(a.class_logits.data, b.class_logits.data)
    assert np.array_equal(a.joints_norm.data, b.joints_norm.data)
    c = forward_batch(params, img2[None], TINY)
    assert not np.array_equal(a.joints_norm.data, c.joints_norm.data)


def test_forward_batch_matches_single():
    """Each row of a batched forward is bitwise the image's own forward: the
    batch size must not change the rounding of any image's output."""
    params = build_model(TINY, seed=4)
    rng = PortableRng(92)
    for n_batch in (2, 3, 5):
        imgs = np.stack([random_image(rng, TINY) for _ in range(n_batch)])
        with no_grad():
            batch = forward_batch(params, imgs, TINY)
            for i in range(n_batch):
                single = forward_batch(params, imgs[i][None], TINY)
                assert single.class_logits.data[0].tobytes() == \
                    batch.class_logits.data[i].tobytes(), (n_batch, i)
                assert single.joints_norm.data[0].tobytes() == \
                    batch.joints_norm.data[i].tobytes(), (n_batch, i)


def test_token_permutation_equivariance():
    """Exact up to summation order: to 1e-9 on a float64 copy of the
    parameters, and to float32 rounding on the float32 model itself."""
    rng = PortableRng(93)
    img = random_image(rng, TINY)[None]
    tokens = patch_tokens(img, TINY)
    posenc = position_encoding(TINY)
    perm = list(range(TINY.n_tokens))
    PortableRng(94).shuffle(perm)
    single = build_model(TINY, seed=5)
    for params, rtol, atol in ((float64_copy(single), 1e-9, 1e-12), (single, 1e-5, 1e-6)):
        base = forward_from_tokens(params, tokens, posenc, TINY)
        permuted = forward_from_tokens(params, tokens[:, perm], posenc[perm], TINY)
        assert base.joints_norm.data.dtype == params["queries.embed"].data.dtype
        assert np.allclose(base.class_logits.data, permuted.class_logits.data,
                           rtol=rtol, atol=atol)
        assert np.allclose(base.joints_norm.data, permuted.joints_norm.data,
                           rtol=rtol, atol=atol)


def test_position_encoding_is_a_fresh_array_per_call():
    """A caller writing into its encodings changes no other caller's."""
    first = position_encoding(TINY)
    expected = first.copy()
    first[:] = 0.0
    assert np.array_equal(position_encoding(TINY), expected)


def test_forward_shape_errors():
    params = build_model(TINY, seed=6)
    with pytest.raises(ShapeError):
        forward_batch(params, np.zeros((1, 16, 32, 3)), TINY)
    with pytest.raises(ShapeError):
        forward_batch(params, np.zeros((1, 32, 32, 1)), TINY)
    with pytest.raises(ShapeError):  # one image without its batch axis
        forward_batch(params, np.zeros((32, 32, 3)), TINY)


# -- decode ----------------------------------------------------------------

LEFT, RIGHT = HandSide.LEFT.code, HandSide.RIGHT.code


def decode_one(logits: np.ndarray, joints: np.ndarray, cfg: ModelConfig):
    """decode_predictions of one image: its query (2,), uvd (2, 21, 3) and
    confidence (2,), indexed by HandSide.code."""
    query, uvd, confidence = decode_predictions(logits[None], joints[None], cfg)
    return query[0], uvd[0], confidence[0]


def test_decode_absolute_depth_endpoints():
    joints = np.zeros((3, 63))
    joints[0].reshape(21, 3)[:, 2] = 0.0
    joints[1].reshape(21, 3)[:, 2] = 1.0
    logits = np.zeros((3, 3))
    logits[0, LEFT] = 10.0
    logits[1, RIGHT] = 10.0
    _, uvd, _ = decode_one(logits, joints, TINY)
    assert np.all(uvd[LEFT, :, 2] == 500.0)
    assert np.all(uvd[RIGHT, :, 2] == 1200.0)


def test_decode_root_relative_zero_offset():
    cfg = ModelConfig(**{**TINY.to_dict(), "depth_mode": "root_relative"})
    joints = np.zeros((3, 63))
    vals = joints[2].reshape(21, 3)
    vals[:, 2] = 0.5          # all relative channels at midpoint -> wrist depth
    vals[0, 2] = 0.25         # wrist absolute channel
    logits = np.zeros((3, 3))
    logits[2, LEFT] = 9.0
    _, uvd, _ = decode_one(logits, joints, cfg)
    wrist_d = 500.0 + 0.25 * 700.0
    assert np.allclose(uvd[LEFT, :, 2], wrist_d, rtol=0, atol=1e-12)


def test_decode_selects_argmax_query_brute_force():
    rng = PortableRng(95)
    logits = np.array(rng.uniform_list(9, -3.0, 3.0)).reshape(3, 3)
    joints = np.array(rng.uniform_list(3 * 63, 0.0, 1.0)).reshape(3, 63)
    query, _, confidence = decode_one(logits, joints, TINY)

    def softmax(z):
        e = np.exp(z - z.max())
        return e / e.sum()

    probs = np.stack([softmax(z) for z in logits])
    for col in (LEFT, RIGHT):
        best, best_p = 0, -1.0
        for q in range(3):
            if probs[q, col] > best_p:
                best, best_p = q, probs[q, col]
        assert query[col] == best
        assert abs(confidence[col] - best_p) < 1e-12


def test_decode_invariant_under_monotone_logit_transform():
    rng = PortableRng(96)
    logits = np.array(rng.uniform_list(9, -2.0, 2.0)).reshape(3, 3)
    joints = np.full((3, 63), 0.5)
    a, _, _ = decode_one(logits, joints, TINY)
    b, _, _ = decode_one(3.0 * logits + 11.0, joints, TINY)
    assert a.tolist() == b.tolist()


def test_decode_tie_prefers_lowest_query():
    logits = np.zeros((3, 3))  # uniform probabilities everywhere
    joints = np.full((3, 63), 0.5)
    query, _, _ = decode_one(logits, joints, TINY)
    assert query.tolist() == [0, 0]


def test_decoded_depth_envelope():
    rng = PortableRng(97)
    for cfg in (TINY, ModelConfig(**{**TINY.to_dict(), "depth_mode": "root_relative"})):
        joints = np.array(rng.uniform_list(3 * 63, 0.0, 1.0)).reshape(3, 63)
        _, uvd, _ = decode_one(np.zeros((3, 3)), joints, cfg)
        z_min, z_max = cfg.depth_range
        delta = cfg.rel_depth_half_range
        d = uvd[..., 2]
        assert np.all(d >= min(z_min - delta, z_min) - 1e-12)
        assert np.all(d <= z_max + delta + 1e-12)
        assert np.all(d > 0)


def test_each_row_of_a_batched_decode_is_bitwise_the_image_decoded_alone():
    """Five float32 images: u scales by the width and v by the height of
    the config's image_size, square or not, in both depth modes."""
    rng = PortableRng(94)
    logits = np.array(rng.uniform_list(5 * 3 * 3, -3.0, 3.0), np.float32).reshape(5, 3, 3)
    joints = np.array(rng.uniform_list(5 * 3 * 63, 0.0, 1.0), np.float32).reshape(5, 3, 63)
    for cfg in [ModelConfig(**{**TINY.to_dict(), "image_size": size, "depth_mode": mode})
                for size in ((32, 32), (24, 40)) for mode in ("absolute", "root_relative")]:
        h, w = cfg.image_size
        query, uvd, confidence = decode_predictions(logits, joints, cfg)
        assert query.shape == confidence.shape == (5, 2) and uvd.shape == (5, 2, 21, 3)
        for i in range(5):
            alone = decode_predictions(logits[i:i + 1], joints[i:i + 1], cfg)
            for batched, single in zip((query, uvd, confidence), alone):
                assert batched[i].tobytes() == single[0].tobytes()
            for k in (LEFT, RIGHT):
                vals = joints[i, query[i, k]].reshape(21, 3).astype(np.float64)
                assert np.array_equal(uvd[i, k, :, 0], vals[:, 0] * w)
                assert np.array_equal(uvd[i, k, :, 1], vals[:, 1] * h)


def test_encode_decode_depth_round_trip():
    """decode_predictions inverts encode_targets at a non-square image_size
    (H 24, W 40), in both depth modes."""
    rng = PortableRng(98)
    for mode in ("absolute", "root_relative"):
        cfg = ModelConfig(**{**TINY.to_dict(), "image_size": (24, 40), "depth_mode": mode})
        joints = np.empty((N_JOINTS, 3))
        joints[:, 0] = [rng.uniform(0, 40) for _ in range(N_JOINTS)]
        joints[:, 1] = [rng.uniform(0, 24) for _ in range(N_JOINTS)]
        wrist_d = rng.uniform(600.0, 1000.0)
        joints[:, 2] = [wrist_d + rng.uniform(-60, 60) for _ in range(N_JOINTS)]
        joints[0, 2] = wrist_d
        pose = JointSetUVD(joints)
        targets = np.zeros((1, cfg.n_queries, 63))
        targets[0, 0] = encode_targets(pose.joints, cfg)
        # uniform logits: both sides select query 0, which holds the pose
        _, uvd, _ = decode_predictions(np.zeros((1, cfg.n_queries, 3)), targets, cfg)
        for side in (LEFT, RIGHT):
            assert np.allclose(uvd[0, side, :, 0], pose.joints[:, 0], rtol=1e-12)
            assert np.allclose(uvd[0, side, :, 1], pose.joints[:, 1], rtol=1e-12)
            assert np.allclose(uvd[0, side, :, 2], pose.joints[:, 2], rtol=1e-10)


def test_encode_targets_of_a_batch_is_bitwise_the_per_pose_encoding():
    rng = PortableRng(97)
    n = 3 * 2 * N_JOINTS
    poses = np.stack([np.array(rng.uniform_list(n, 0.0, 32.0)),
                      np.array(rng.uniform_list(n, 0.0, 32.0)),
                      np.array(rng.uniform_list(n, 600.0, 1000.0))], axis=-1)
    poses = poses.reshape(3, 2, N_JOINTS, 3)
    for mode in ("absolute", "root_relative"):
        cfg = ModelConfig(**{**TINY.to_dict(), "depth_mode": mode})
        batch = encode_targets(poses, cfg)
        assert batch.shape == (3, 2, 63)
        for b, k in np.ndindex(3, 2):
            assert np.array_equal(batch[b, k], encode_targets(poses[b, k], cfg))
    with pytest.raises(ShapeError):
        encode_targets(poses[..., :2], TINY)


# -- gradients through the full model (sampled; full sweep in acceptance) -------

def test_set_loss_through_forward_gradcheck_sampled():
    params = float64_copy(build_model(TINY, seed=11))  # float32 is too coarse for FD
    rng = PortableRng(99)
    imgs = np.stack([random_image(rng, TINY) for _ in range(2)])
    gts = packed_gts(rng, [HandSide.LEFT, HandSide.RIGHT], [])  # image 1 holds no hand

    det0 = forward_batch(params, imgs, TINY)
    costs = build_cost_matrix(det0.class_logits.data, det0.joints_norm.data, *gts)
    query = hungarian(costs)  # frozen: the loss is piecewise in the matching

    def loss_fn(ps: ParamStore) -> Tensor:
        det = forward_batch(ps, imgs, TINY)
        return set_loss(det.class_logits, det.joints_norm, *gts, query).total

    _, grads = forward_backward(loss_fn, params)

    # spot-check a deterministic sample of parameter entries per tensor
    check_rng = PortableRng(100)
    worst = 0.0
    for name, tensor in params.items():
        flat = tensor.data.ravel()
        n_pick = min(2, flat.size)
        for _ in range(n_pick):
            i = check_rng.next_u64() % flat.size
            orig = flat[i]
            h = 1e-5 * max(1.0, abs(orig))
            flat[i] = orig + h
            f_plus = loss_fn(params).item()
            flat[i] = orig - h
            f_minus = loss_fn(params).item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2 * h)
            analytic = grads[name].ravel()[i]
            if abs(analytic) < 1e-8:
                continue
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
            worst = max(worst, err)
    assert worst < 1e-3, f"worst sampled rel err {worst}"


def packed_gts(rng: PortableRng, *images) -> tuple[np.ndarray, np.ndarray]:
    """The packed (B, 2) present flags and (B, 2, 63) normalized joints of
    one image per list of sides, each hand in the slot of its HandSide.code;
    empty slots hold False and zeros."""
    present = np.zeros((len(images), 2), dtype=bool)
    gt_joints = np.zeros((len(images), 2, 63))
    for b, sides in enumerate(images):
        for side in sides:
            present[b, side.code] = True
            gt_joints[b, side.code] = rng.uniform_list(63, 0.05, 0.95)
    return present, gt_joints


def default_batch(n_images: int = 16):
    """Random float32 images at the default config, and the packed ground
    truth of images holding 0, 1 and 2 hands in turn."""
    rng = PortableRng(105)
    imgs = np.stack([random_image(rng, ModelConfig()) for _ in range(n_images)])
    gts = packed_gts(rng, *(list(HandSide)[:b % 3] for b in range(n_images)))
    return imgs.astype(np.float32), gts


def test_default_step_runs_in_float32():
    """build_model's dtype flows through the forward pass, the set loss
    (its Python-scalar and float64 constants are lifted to float32) and
    every gradient."""
    cfg = ModelConfig()
    params = build_model(cfg, seed=16)
    imgs, gts = default_batch()
    dtypes = {}

    def loss_fn(ps: ParamStore) -> Tensor:
        det = forward_batch(ps, imgs, cfg)
        costs = build_cost_matrix(det.class_logits.data, det.joints_norm.data, *gts)
        total = set_loss(det.class_logits, det.joints_norm, *gts, hungarian(costs)).total
        dtypes.update(logits=det.class_logits.data.dtype, joints=det.joints_norm.data.dtype,
                      loss=total.data.dtype)
        return total

    _, grads = forward_backward(loss_fn, params)
    assert dtypes == {"logits": np.float32, "joints": np.float32, "loss": np.float32}
    assert sorted(grads) == params.names()
    assert all(g.dtype == np.float32 for g in grads.values())


def test_float32_step_agrees_with_its_float64_copy():
    """One default-config step: the loss and every parameter's gradient
    (max norm) agree to 1e-3 relative. Both use one matching, since the
    loss is piecewise in it."""
    cfg = ModelConfig()
    single = build_model(cfg, seed=17)
    double = float64_copy(single)
    imgs, gts = default_batch()
    with no_grad():
        det = forward_batch(double, imgs, cfg)
    query = hungarian(build_cost_matrix(det.class_logits.data, det.joints_norm.data, *gts))

    def loss_fn(ps: ParamStore) -> Tensor:
        det = forward_batch(ps, imgs, cfg)
        return set_loss(det.class_logits, det.joints_norm, *gts, query).total

    loss32, grads32 = forward_backward(loss_fn, single)
    loss64, grads64 = forward_backward(loss_fn, double)
    assert abs(loss32 - loss64) <= 1e-3 * abs(loss64)
    for name, g in grads64.items():
        assert np.abs(grads32[name] - g).max() <= 1e-3 * np.abs(g).max(), name


# -- graph lifetime and no-grad inference ----------------------------------------

def test_forward_and_backward_leave_no_cyclic_garbage():
    """Graphs are acyclic, so reference counting alone frees them."""
    params = build_model(TINY, seed=12)
    rng = PortableRng(101)
    imgs = np.stack([random_image(rng, TINY) for _ in range(2)])
    gts = packed_gts(rng, [HandSide.LEFT], [])
    query = np.array([[1, 0], [0, 1]])  # image 0's hand; image 1 holds none

    def loss_fn(ps: ParamStore) -> Tensor:
        det = forward_batch(ps, imgs, TINY)
        return set_loss(det.class_logits, det.joints_norm, *gts, query).total

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        det = forward_batch(params, imgs, TINY)
        del det
        assert gc.collect() == 0
        forward_backward(loss_fn, params)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def graph_census(root: Tensor) -> Counter:
    """Count the nodes behind root by the function that made them, read off
    each node's backward closure (e.g. 'Tensor.reshape', 'linear')."""
    census, seen, stack = Counter(), set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        census[node._backward.__qualname__.split(".<locals>")[0]] += 1
        stack.extend(node._parents)
    return census


def test_training_graph_has_one_node_per_attention_block():
    params = build_model(TINY, seed=15)
    rng = PortableRng(104)
    imgs = np.stack([random_image(rng, TINY) for _ in range(2)])
    gts = packed_gts(rng, [HandSide.LEFT], [])
    det = forward_batch(params, imgs, TINY)
    costs = build_cost_matrix(det.class_logits.data, det.joints_norm.data, *gts)
    loss = set_loss(det.class_logits, det.joints_norm, *gts, hungarian(costs)).total
    census = graph_census(loss)
    assert census["multi_head_attention"] == TINY.n_encoder_layers + 2 * TINY.n_decoder_layers
    assert census["Tensor.reshape"] == census["Tensor.transpose"] == 0
    assert census["linear"] == 1  # the patch embedding; attention projects inside its node


def test_no_grad_forward_is_bitwise_equal_and_builds_no_graph():
    params = build_model(TINY, seed=13)
    rng = PortableRng(102)
    imgs = np.stack([random_image(rng, TINY) for _ in range(2)])
    with_graph = forward_batch(params, imgs, TINY)
    with no_grad():
        without = forward_batch(params, imgs, TINY)
    assert with_graph.class_logits.requires_grad
    for a, b in ((with_graph.class_logits, without.class_logits),
                 (with_graph.joints_norm, without.joints_norm)):
        assert a.data.tobytes() == b.data.tobytes()
        assert not b.requires_grad
        assert b._parents == () and b._backward is None


def test_float32_batch_is_bitwise_the_float64_batch():
    """A float64 batch of float32 values casts exactly to the parameters'
    float32, so it gives bitwise the float32 batch's outputs."""
    params = build_model(TINY, seed=14)
    rng = PortableRng(103)
    imgs = np.stack([random_image(rng, TINY) for _ in range(2)]).astype(np.float32)
    with no_grad():
        single = forward_batch(params, imgs, TINY)
        double = forward_batch(params, imgs.astype(np.float64), TINY)
    assert single.class_logits.data.tobytes() == double.class_logits.data.tobytes()
    assert single.joints_norm.data.tobytes() == double.joints_norm.data.tobytes()


def test_default_model_checkpoint_round_trip_is_bitwise(tmp_path):
    params = build_model(ModelConfig(), 3)
    save_checkpoint(tmp_path / "ck", params)
    loaded, _, _ = load_checkpoint(tmp_path / "ck")
    assert loaded.names() == params.names()
    for name, tensor in params.items():
        assert loaded[name].data.tobytes() == tensor.data.tobytes(), name
