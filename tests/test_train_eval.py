from __future__ import annotations

import dataclasses
import hashlib
import math
import weakref

import numpy as np
import pytest

from setpose import train_eval
from setpose.data import (GenConfig, HandAnnotation, SceneSample, generate_dataset,
                          read_dataset, write_dataset)
from setpose.errors import (ConfigError, EmptySide, MissingScaleStats, NonFinite,
                            NonFiniteLoss, NonPositiveDepth)
from setpose.geometry import CameraIntrinsics, HandSide, JointSetUVD, uvd_to_xyz
from setpose.hand_model import ScaleStats
from setpose.matching import set_loss
from setpose.model import BatchDetections, DepthMode, ModelConfig, build_model, forward_batch
from setpose.nn_core import load_checkpoint

TINY = ModelConfig(image_size=(32, 32), patch_size=8, embed_dim=16, n_heads=2,
                   n_encoder_layers=1, n_decoder_layers=1, n_queries=3,
                   depth_range=(500.0, 1200.0))


def tiny_train_cfg(**kw) -> train_eval.TrainConfig:
    return train_eval.TrainConfig(**{"lr_transformer": 1e-2, "lr_backbone": 1e-2,
                                     "batch_size": 4, "total_epochs": 4,
                                     "lr_drop_epoch": 3, "seed": 0, **kw})


def test_evaluate_is_repeatable():
    params = build_model(TINY, seed=1)
    samples = generate_dataset(GenConfig(seed=5, n_samples=6))
    stats = train_eval.scale_stats_from_samples(samples)
    for kw in ({}, {"rescale": True, "scale_stats": stats}):
        a = train_eval.evaluate(params, TINY, samples, **kw)
        b = train_eval.evaluate(params, TINY, samples, **kw)
        assert a.records and a.records == b.records
        assert a.to_json() == b.to_json()


def mixed_cameras() -> list[SceneSample]:
    near = generate_dataset(GenConfig(seed=6, n_samples=1))[0]
    wide = CameraIntrinsics(fx=18.0, fy=18.0, cx=15.0, cy=17.0, width=32.0, height=32.0)
    far = generate_dataset(GenConfig(seed=7, n_samples=1, intrinsics=wide))[0]
    return [near, near, far, far]


def test_scoring_refuses_samples_with_different_cameras_naming_the_first():
    """An evaluation has one camera, as a dataset does."""
    samples = mixed_cameras()
    with pytest.raises(ConfigError, match="sample 2 has camera .*one camera"):
        train_eval.score_predictions(side_predictions(len(samples)), samples)
    with pytest.raises(ConfigError, match="sample 2 has camera .*one camera"):
        train_eval.evaluate(build_model(TINY, seed=2), TINY, samples)


@pytest.mark.parametrize("bad, match", [
    (lambda: [], "evaluation set is empty"),
    (mixed_cameras, "sample 2 has camera .*one camera"),
], ids=["empty", "mixed-cameras"])
def test_a_bad_evaluation_set_is_refused_before_any_forward_pass(monkeypatch, bad, match):
    """evaluate refuses before predict; train refuses a bad validation set
    before its first step."""
    calls = {"predict": 0, "forward_batch": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(train_eval, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(train_eval, name, counted)
    with pytest.raises(ConfigError, match=match):
        train_eval.evaluate(build_model(TINY, seed=2), TINY, bad())
    with pytest.raises(ConfigError, match=match):
        train_eval.train(TINY, tiny_train_cfg(), generate_dataset(GenConfig(seed=1, n_samples=4)),
                         val_samples=bad())
    assert calls == {"predict": 0, "forward_batch": 0}


def test_a_bad_pose_is_named_by_its_record_position():
    """score_predictions unprojects the present hands as one stack, so a
    geometry error's index is the position of the hand's record."""
    samples = generate_dataset(GenConfig(seed=5, n_samples=4))
    preds = side_predictions(len(samples))
    present = [(i, h.side) for i, s in enumerate(samples) for h in s.hands]
    assert len(present) > 3
    index, side = present[3]
    at = next(k for k, p in enumerate(preds) if (p.index, p.side) == (index, side))
    bad = preds[at].uvd.joints.copy()
    bad[7, 2] = -5.0
    preds[at] = dataclasses.replace(preds[at], uvd=JointSetUVD(bad))
    with pytest.raises(NonPositiveDepth, match=r"index \(3,\) has min d = -5\.0$"):
        train_eval.score_predictions(preds, samples)


def test_rescaling_needs_stats_only_for_the_sides_with_a_present_hand():
    """Stats without right hands rescale a set without right hands, and
    raise EmptySide once a right hand is present."""
    samples = generate_dataset(GenConfig(seed=5, n_samples=8))
    lefts = [dataclasses.replace(s, hands=tuple(h for h in s.hands if h.side is HandSide.LEFT))
             for s in samples]
    assert any(s.hands for s in lefts) and any(h.side is HandSide.RIGHT
                                               for s in samples for h in s.hands)
    no_right = ScaleStats(mean_scale_left=40.0, mean_scale_right=0.0, n_left=3, n_right=0)
    report = train_eval.score_predictions(side_predictions(len(lefts)), lefts,
                                          rescale=True, scale_stats=no_right)
    assert report.n_frames_left > 0 and report.n_frames_right == 0
    with pytest.raises(EmptySide, match="no right-hand samples"):
        train_eval.score_predictions(side_predictions(len(samples)), samples,
                                     rescale=True, scale_stats=no_right)


@pytest.mark.parametrize("n_samples", [1, 8])
@pytest.mark.parametrize("rescale", [False, True])
def test_scoring_unprojects_rescales_and_scores_all_hands_in_one_call_each(
        monkeypatch, n_samples, rescale):
    samples = generate_dataset(GenConfig(seed=5, n_samples=n_samples))
    stats = train_eval.scale_stats_from_samples(generate_dataset(GenConfig(seed=6,
                                                                           n_samples=8)))
    calls = {"uvd_to_xyz": 0, "mpjpe": 0, "rescale_depth": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(train_eval, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(train_eval, name, counted)
    report = train_eval.score_predictions(side_predictions(n_samples), samples,
                                          rescale=rescale, scale_stats=stats)
    assert len(report.records) == sum(len(s.hands) for s in samples)
    assert calls == {"uvd_to_xyz": 1, "mpjpe": 1, "rescale_depth": int(rescale)}


def test_the_eval_workloads_own_checks_pass():
    """The benchmark's eval check and its per-hand recomputation
    (final_check) agree with the array scoring path on a small set."""
    from perfbench.workloads import EvalWorkload  # the repository root is on pythonpath

    workload = EvalWorkload(n_frames=8, n_stats=8)
    workload.setup(seed=3)
    out = workload.execute(workdir=None)
    assert workload.check(out, workdir=None).failed == 0
    assert workload.final_check() == (8, 0)


def test_oracle_predictions_score_zero_with_rescaling_off_and_on():
    """Predictions equal to the ground-truth uvd, one hand per side, plus a
    frame without hands whose predictions are flagged absent."""
    source = next(s for s in generate_dataset(GenConfig(seed=5, n_samples=8))
                  if len(s.hands) == 2)
    cam = source.camera
    # xyz is the exact unprojection of uvd, so the oracle error is exactly 0
    hands = tuple(HandAnnotation(h.side, h.uvd, uvd_to_xyz(h.uvd, cam)) for h in source.hands)
    samples = [SceneSample(source.image, hands, cam), SceneSample(source.image, (), cam)]
    preds = [train_eval.SidePrediction(index=i, side=h.side, uvd=h.uvd, confidence=1.0,
                                       predicted_present=i == 0)
             for i in (0, 1) for h in hands]
    stats = train_eval.scale_stats_from_samples(samples)
    off = train_eval.score_predictions(preds, samples)
    on = train_eval.score_predictions(preds, samples, rescale=True, scale_stats=stats)
    assert off.mpjpe_left == off.mpjpe_right == 0.0
    assert [r.error_mm for r in off.records] == [0.0, 0.0]
    assert max(on.mpjpe_left, on.mpjpe_right) < 1e-9
    assert (off.rescaling_applied, on.rescaling_applied) == (False, True)
    for report in (off, on):
        assert (report.n_frames_left, report.n_frames_right) == (1, 1)
        assert [r.side for r in report.records] == [HandSide.LEFT, HandSide.RIGHT]
        assert report.cls_accuracy == 1.0


def side_predictions(n_frames: int) -> list[train_eval.SidePrediction]:
    """Both sides of n_frames frames in index then side order, as predict
    returns them, each at one in-view pose with bones of non-zero length."""
    uvd = JointSetUVD(np.column_stack([np.linspace(8.0, 24.0, 21), np.full(21, 16.0),
                                       np.full(21, 800.0)]))
    return [train_eval.SidePrediction(index=i, side=side, uvd=uvd, confidence=0.5,
                                      predicted_present=True)
            for i in range(n_frames) for side in HandSide]


@pytest.mark.parametrize("reorder", [
    lambda p: p[:-1],
    lambda p: [p[1], p[0]] + p[2:],
    lambda p: p[2:] + p[:2],
    lambda p: p + side_predictions(3)[4:],
    lambda p: [dataclasses.replace(x, index=x.index + 1) for x in p],
], ids=["missing-side", "right-first", "frame-order", "extra-frame", "shifted-index"])
def test_score_predictions_rejects_preds_not_in_predict_order(reorder):
    samples = generate_dataset(GenConfig(seed=5, n_samples=2))
    assert train_eval.score_predictions(side_predictions(2), samples).records
    with pytest.raises(ConfigError, match="index then side order"):
        train_eval.score_predictions(reorder(side_predictions(2)), samples)


@pytest.mark.parametrize("n_samples, kw, error, match", [
    (0, {}, ConfigError, "evaluation set is empty"),
    (2, {"rescale": True}, MissingScaleStats, "without scale statistics"),
], ids=["empty", "no-scale-stats"])
def test_score_predictions_raises_typed_errors(n_samples, kw, error, match):
    samples = generate_dataset(GenConfig(seed=5, n_samples=n_samples))
    with pytest.raises(error, match=match):
        train_eval.score_predictions(side_predictions(len(samples)), samples, **kw)


def test_evaluate_on_an_empty_sample_list_raises_config_error():
    with pytest.raises(ConfigError, match="evaluation set is empty"):
        train_eval.evaluate(build_model(TINY, seed=1), TINY, [])


def test_evaluate_without_scale_stats_raises_before_any_forward_pass(monkeypatch):
    calls = []
    monkeypatch.setattr(train_eval, "forward_batch", lambda *args: calls.append(args))
    samples = generate_dataset(GenConfig(seed=5, n_samples=2))
    with pytest.raises(MissingScaleStats):
        train_eval.evaluate(build_model(TINY, seed=1), TINY, samples, rescale=True)
    assert calls == []


def test_predict_builds_no_graph_and_keeps_index_then_side_order(monkeypatch):
    seen = []

    def recording(params, images, cfg):
        out = forward_batch(params, images, cfg)
        seen.append((len(images),
                     out.class_logits.requires_grad or out.joints_norm.requires_grad))
        return out

    monkeypatch.setattr(train_eval, "forward_batch", recording)
    monkeypatch.setattr(train_eval, "PREDICT_BATCH", 2)
    params = build_model(TINY, seed=3)
    samples = generate_dataset(GenConfig(seed=8, n_samples=5))
    preds = train_eval.predict(params, TINY, samples)
    assert seen == [(2, False), (2, False), (1, False)]
    assert [(p.index, p.side) for p in preds] == [
        (i, side) for i in range(5) for side in (HandSide.LEFT, HandSide.RIGHT)]
    alone = [p for s in samples for p in train_eval.predict(params, TINY, [s])]
    assert [(p.uvd.joints.tobytes(), p.confidence, p.predicted_present) for p in preds] == [
        (p.uvd.joints.tobytes(), p.confidence, p.predicted_present) for p in alone]


def test_best_checkpoint_records_the_winning_epoch(tmp_path, monkeypatch):
    # scripted validation scores, so the winner is a middle epoch whatever the init
    scripted = iter([(30.0, 32.0), (21.0, 23.0), (25.0, 24.0), (40.0, 41.0)])

    def scripted_evaluate(params, model_cfg, samples, **kw):
        left, right = next(scripted)
        return train_eval.EvalReport(mpjpe_left=left, mpjpe_right=right, n_frames_left=1,
                                     n_frames_right=1, rescaling_applied=False,
                                     cls_accuracy=0.0, records=())

    monkeypatch.setattr(train_eval, "evaluate", scripted_evaluate)
    train_set = generate_dataset(GenConfig(seed=1, n_samples=8))
    val_set = generate_dataset(GenConfig(seed=2, n_samples=4))
    cfg = tiny_train_cfg()
    params, log = train_eval.train(TINY, cfg, train_set, val_set, checkpoint_dir=tmp_path)
    winner = int(np.argmin([report.mean_mpjpe() for report in log.validation]))
    assert winner != cfg.total_epochs - 1  # otherwise the test could not tell
    best, _, extra = load_checkpoint(tmp_path / "best")
    assert extra == {"model_config": TINY.to_dict(), "epoch": winner}
    epoch_params, _, _ = load_checkpoint(tmp_path / f"epoch_{winner:04d}")
    for name, t in best.items():
        assert t.data.tobytes() == epoch_params[name].data.tobytes()
        assert t.data.tobytes() == params[name].data.tobytes()


def test_validation_keeps_each_epochs_report_and_returns_the_winners_params():
    train_set = generate_dataset(GenConfig(seed=1, n_samples=8))
    val_set = generate_dataset(GenConfig(seed=2, n_samples=4))
    cfg = tiny_train_cfg()
    params, log = train_eval.train(TINY, cfg, train_set, val_set)
    assert len(log.validation) == cfg.total_epochs
    winner = int(np.argmin([report.mean_mpjpe() for report in log.validation]))
    again = train_eval.evaluate(params, TINY, val_set)
    assert again.records and records_digest(again) == records_digest(log.validation[winner])
    assert again == log.validation[winner]
    _, unvalidated = train_eval.train(TINY, cfg, train_set)
    assert unvalidated.validation == []


def test_train_raises_on_non_finite_gradient_before_the_update(monkeypatch):
    calls = []
    snapshot = {}

    def poisoned(ps, images, cfg):
        det = forward_batch(ps, images, cfg)
        calls.append(None)
        if len(calls) == 2:
            snapshot.update((name, t.data.copy()) for name, t in ps.items())
            snapshot["store"] = ps
            # adds 0 to the logits, but d sqrt(x)/dx is inf at 0: the loss
            # stays finite and the queries.embed gradient becomes nan
            zero = (ps["queries.embed"] * 0.0).sum().sqrt()
            det = BatchDetections(det.class_logits + zero, det.joints_norm)
        return det

    monkeypatch.setattr(train_eval, "forward_batch", poisoned)
    train_set = generate_dataset(GenConfig(seed=1, n_samples=8))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFinite, match=r"'queries\.embed'.* at step 2$"):
            train_eval.train(TINY, tiny_train_cfg(), train_set)
    store = snapshot.pop("store")
    for name, t in store.items():
        assert t.data.tobytes() == snapshot[name].tobytes(), name


def test_train_raises_non_finite_loss_naming_its_step(monkeypatch):
    calls = []

    def poisoned(*args, **kw):
        losses = set_loss(*args, **kw)
        calls.append(None)
        if len(calls) == 2:
            losses = dataclasses.replace(losses, total=losses.total * math.nan)
        return losses

    monkeypatch.setattr(train_eval, "set_loss", poisoned)
    train_set = generate_dataset(GenConfig(seed=1, n_samples=8))
    with pytest.raises(NonFiniteLoss, match="non-finite loss at step 2$") as err:
        train_eval.train(TINY, tiny_train_cfg(), train_set)
    assert err.value.step == 2 and len(calls) == 2


def test_no_gradient_of_a_step_is_alive_during_the_next_forward(monkeypatch):
    """train lets go of each step's gradients once AdamW has used them."""
    grads_of_step, alive_at_forward = [], []
    fb, forward = train_eval.forward_backward, train_eval.forward_batch

    def recording_forward_backward(loss_fn, params):
        loss, grads = fb(loss_fn, params)
        grads_of_step.append([weakref.ref(g) for g in grads.values()])
        return loss, grads

    def counting_forward(ps, images, cfg):
        alive_at_forward.append(sum(ref() is not None for refs in grads_of_step
                                    for ref in refs))
        return forward(ps, images, cfg)

    monkeypatch.setattr(train_eval, "forward_backward", recording_forward_backward)
    monkeypatch.setattr(train_eval, "forward_batch", counting_forward)
    samples = generate_dataset(GenConfig(seed=1, n_samples=8))
    train_eval.train(TINY, tiny_train_cfg(total_epochs=2, lr_drop_epoch=1), samples)
    assert alive_at_forward == [0, 0, 0, 0]


def test_train_on_an_empty_training_set_raises_config_error():
    with pytest.raises(ConfigError, match="training set is empty"):
        train_eval.train(TINY, tiny_train_cfg(), [])


# (total, cls_loss, l1_loss) per step of the seeded run below: 10 scenes
# holding 0, 1 and 2 hands, batch 4 (the last batch of each epoch has 2).
GOLDEN_STEP_LOSSES = [
    (1.8534345626831055, 1.0288714170455933, 0.1649126410484314),
    (1.8166508674621582, 0.8405678868293762, 0.1952165961265564),
    (1.9388554096221924, 1.2917007207870483, 0.12943093478679657),
    (1.7306897640228271, 0.854791522026062, 0.17517966032028198),
    (1.5996291637420654, 0.850915253162384, 0.14974279701709747),
    (1.283214807510376, 0.6536698341369629, 0.1259090006351471),
]


# SHA-256 over the trained parameters (sorted names, raw bytes), then the
# (steps, 3) float64 array of the step losses above, bit for bit.
GOLDEN_TRAIN_DIGEST = "729b291ffab06835ffd0111ef44a6d493e675a89d93cc92c05d1fd1a8557425d"


def test_seeded_training_reproduces_golden_step_losses():
    samples = generate_dataset(GenConfig(seed=4, n_samples=10, hand_presence_prob=0.5))
    assert {len(s.hands) for s in samples} == {0, 1, 2}
    params, log = train_eval.train(TINY, tiny_train_cfg(total_epochs=2, lr_drop_epoch=1),
                                   samples)
    got = [(s.total, s.cls_loss, s.l1_loss) for s in log.steps]
    assert len(got) == len(GOLDEN_STEP_LOSSES)
    for step, (row, golden) in enumerate(zip(got, GOLDEN_STEP_LOSSES), start=1):
        assert np.allclose(row, golden, rtol=1e-12, atol=0), step
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(name.encode())
        h.update(t.data.tobytes())
    h.update(np.array(got).tobytes())
    assert h.hexdigest() == GOLDEN_TRAIN_DIGEST


def test_training_on_a_read_dataset_matches_training_on_its_samples(tmp_path):
    """The path from disk to the loss: hands.npy's slots train bitwise like
    the samples they were written from."""
    samples = generate_dataset(GenConfig(seed=4, n_samples=10, hand_presence_prob=0.5))
    write_dataset(samples, tmp_path / "ds")
    cfg = tiny_train_cfg(total_epochs=2, lr_drop_epoch=1)
    runs = [train_eval.train(TINY, cfg, s) for s in (samples, read_dataset(tmp_path / "ds")[0])]
    (params, log), (read_params, read_log) = runs
    assert [dataclasses.astuple(s) for s in log.steps] == [
        dataclasses.astuple(s) for s in read_log.steps]
    for name, t in params.items():
        assert t.data.tobytes() == read_params[name].data.tobytes(), name


def test_train_packs_once_and_augments_each_batch_in_one_call(monkeypatch):
    """No sample is built inside the loop: train packs the training set's
    hands once and flips each step's arrays in one augment call."""
    calls = []
    pack, augment, post_init = (train_eval.pack_hands, train_eval.augment,
                                SceneSample.__post_init__)
    monkeypatch.setattr(train_eval, "pack_hands",
                        lambda samples: calls.append("pack") or pack(samples))
    monkeypatch.setattr(train_eval, "augment", lambda images, hands, rng: calls.append(
        ("augment", images.shape[0], hands.shape)) or augment(images, hands, rng))
    samples = generate_dataset(GenConfig(seed=1, n_samples=6))
    monkeypatch.setattr(SceneSample, "__post_init__",
                        lambda self: calls.append("sample") or post_init(self))
    train_eval.train(TINY, tiny_train_cfg(total_epochs=2, lr_drop_epoch=1), samples)
    assert calls == ["pack"] + [("augment", b, (b, 2)) for b in (4, 2, 4, 2)]


def records_digest(*reports: train_eval.EvalReport) -> str:
    h = hashlib.sha256()
    for report in reports:
        for r in report.records:
            h.update(f"{r.index} {r.side.value}".encode())
            h.update(np.array([r.error_mm, r.confidence]).tobytes())
    return h.hexdigest()


# SHA-256 of evaluate's records (index, side, error_mm, confidence), rescaling
# off then on, per depth mode, for the seeded model and scenes below.
GOLDEN_EVAL_DIGESTS = {
    DepthMode.ABSOLUTE_PER_JOINT:
        "8605bedeb79eb68161a950d962518c3f56336dfd34fea0e8e360a83dc1e29d4a",
    DepthMode.ROOT_PLUS_RELATIVE:
        "8e88109f3ed330f59e3456164380b9a106f904eac26540f71bdb77912382c291",
}


@pytest.mark.parametrize("mode", list(DepthMode), ids=lambda m: m.value)
def test_evaluate_reproduces_golden_records(mode):
    samples = generate_dataset(GenConfig(seed=5, n_samples=12, hand_presence_prob=0.7))
    assert {len(s.hands) for s in samples} == {0, 1, 2}
    stats = train_eval.scale_stats_from_samples(generate_dataset(GenConfig(seed=6,
                                                                           n_samples=16)))
    cfg = dataclasses.replace(TINY, depth_mode=mode)
    params = build_model(cfg, seed=1)
    off = train_eval.evaluate(params, cfg, samples)
    on = train_eval.evaluate(params, cfg, samples, rescale=True, scale_stats=stats)
    assert len(off.records) == len(on.records) == sum(len(s.hands) for s in samples)
    assert records_digest(off, on) == GOLDEN_EVAL_DIGESTS[mode]


def test_training_overfits_eight_samples():
    """The float32 model learns: 80 epochs of one 8-sample batch take the
    loss well below the first step's, in both of its terms."""
    samples = generate_dataset(GenConfig(seed=6, n_samples=8))
    _, log = train_eval.train(
        TINY, tiny_train_cfg(batch_size=8, total_epochs=80, lr_drop_epoch=79), samples)
    first, last = log.steps[0], log.steps[-1]  # one step per epoch
    assert last.total < 0.35 * first.total
    assert last.cls_loss < 0.1 * first.cls_loss and last.l1_loss < 0.7 * first.l1_loss


def test_train_config_dict_round_trip():
    cfg = tiny_train_cfg(seed=9)
    assert train_eval.TrainConfig.from_dict(cfg.to_dict()) == cfg
    assert set(cfg.to_dict()) == {f.name for f in dataclasses.fields(cfg)}


@pytest.mark.parametrize("factor", [0.0, -10.0])
def test_train_config_rejects_a_non_positive_lr_drop_factor(factor):
    # lr_at divides by it from the drop epoch on
    with pytest.raises(ConfigError, match="lr_drop_factor"):
        tiny_train_cfg(lr_drop_factor=factor)


@pytest.mark.parametrize("field, make", [
    ("lam_cls", lambda: tiny_train_cfg(lam_cls=math.nan)),
    ("batch_size", lambda: tiny_train_cfg(batch_size=2.5)),
    ("lr_transformer", lambda: train_eval.TrainConfig.from_dict({"lr_transformer": "0.1"})),
], ids=["nan", "fractional-int", "str"])
def test_train_config_rejects_a_field_that_is_not_a_finite_number(field, make):
    with pytest.raises(ConfigError, match=field):
        make()


@pytest.mark.parametrize("kw, match", [
    ({"lr_drop_epoch": 0}, "0 < lr_drop_epoch < total_epochs"),
    ({"lr_drop_epoch": 4}, "0 < lr_drop_epoch < total_epochs"),
    ({"weight_decay": -1e-4}, "weight_decay must be >= 0"),
    ({"lam_cls": -1.0}, "lam_cls must be >= 0"),
    ({"lam_l1": -5.0}, "lam_l1 must be >= 0"),
    ({"w_noobj": -0.1}, "w_noobj must be >= 0"),
    ({"batch_size": 0}, "batch_size must be >= 1"),
], ids=["drop-at-0", "drop-at-end", "weight_decay", "lam_cls", "lam_l1", "w_noobj",
        "batch_size"])
def test_train_config_rejects_an_out_of_range_value(kw, match):
    with pytest.raises(ConfigError, match=match):
        tiny_train_cfg(**kw)


def test_train_config_unknown_key_raises_config_error():
    # "deterministic" is a key of old config dicts; the field no longer exists
    with pytest.raises(ConfigError, match="deterministic"):
        train_eval.TrainConfig.from_dict({**tiny_train_cfg().to_dict(), "deterministic": True})


def test_scaled_gen_config_rejects_a_changed_aspect_ratio():
    with pytest.raises(ConfigError, match="aspect ratio"):
        train_eval.scaled_gen_config(GenConfig(), (32, 48), seed=0, n_samples=1)


def test_smoke_ablation_scores_one_prediction_per_variant_off_and_on(monkeypatch):
    """One forward pass per variant, at that variant's ModelConfig: its
    predictions are scored with rescaling off and on, keyed in
    ABLATION_VARIANTS order."""
    calls, stats = [], []
    predict, scale_stats = train_eval.predict, train_eval.scale_stats_from_samples
    monkeypatch.setattr(train_eval, "predict", lambda params, cfg, samples: calls.append(
        (cfg, samples, predict(params, cfg, samples))) or calls[-1][2])
    monkeypatch.setattr(train_eval, "scale_stats_from_samples",
                        lambda samples: stats.append(scale_stats(samples)) or stats[-1])
    reports = train_eval.ablate(TINY, tiny_train_cfg(total_epochs=2, lr_drop_epoch=1),
                                GenConfig(seed=5, n_samples=8), n_test=6)
    assert list(reports) == list(train_eval.ABLATION_VARIANTS) == [
        "small_relative", "small_absolute", "large_absolute"]
    assert len(calls) == len(stats) == 3
    for (label, (size, mode)), (cfg, samples, preds), variant_stats in zip(
            train_eval.ABLATION_VARIANTS.items(), calls, stats):
        assert cfg == dataclasses.replace(TINY, image_size=size, depth_mode=mode)
        assert {s.camera.width for s in samples} == {size[1]} and len(samples) == 6
        off, on = reports[label]
        assert off == train_eval.score_predictions(preds, samples)
        assert on == train_eval.score_predictions(preds, samples, rescale=True,
                                                  scale_stats=variant_stats)
        values = [off.mpjpe_left, off.mpjpe_right, on.mpjpe_left, on.mpjpe_right]
        assert all(math.isfinite(v) for v in values)
