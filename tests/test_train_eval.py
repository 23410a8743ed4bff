from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from setpose import train_eval
from setpose.data import (GenConfig, HandAnnotation, SceneSample, generate_dataset,
                          read_dataset, write_dataset)
from setpose.errors import ConfigError, NonFinite
from setpose.geometry import CameraIntrinsics, HandSide, uvd_to_xyz
from setpose.model import BatchDetections, DepthMode, ModelConfig, build_model, forward_batch
from setpose.nn_core import load_checkpoint

TINY = ModelConfig(image_size=(32, 32), patch_size=8, embed_dim=16, n_heads=2,
                   n_encoder_layers=1, n_decoder_layers=1, n_queries=3,
                   depth_range=(500.0, 1200.0))


def tiny_train_cfg(**kw) -> train_eval.TrainConfig:
    return train_eval.TrainConfig(**{"lr_transformer": 1e-2, "lr_backbone": 1e-2,
                                     "batch_size": 4, "total_epochs": 4,
                                     "lr_drop_epoch": 3, "seed": 0, **kw})


def record_tuples(report: train_eval.EvalReport) -> list[tuple]:
    return [(r.side, r.error_mm, r.confidence) for r in report.records]


def test_evaluate_is_repeatable():
    params = build_model(TINY, seed=1)
    samples = generate_dataset(GenConfig(seed=5, n_samples=6))
    stats = train_eval.scale_stats_from_samples(samples)
    for kw in ({}, {"rescale": True, "scale_stats": stats}):
        a = train_eval.evaluate(params, TINY, samples, **kw)
        b = train_eval.evaluate(params, TINY, samples, **kw)
        assert a.records and a.records == b.records
        assert a.to_json() == b.to_json()


def test_scoring_uses_each_frames_own_camera():
    """A two-frame set with different intrinsics scores like each frame alone."""
    near = generate_dataset(GenConfig(seed=6, n_samples=1))[0]
    wide = CameraIntrinsics(fx=18.0, fy=18.0, cx=15.0, cy=17.0, width=32.0, height=32.0)
    far = generate_dataset(GenConfig(seed=7, n_samples=1, intrinsics=wide))[0]
    assert near.camera != far.camera and near.hands and far.hands
    params = build_model(TINY, seed=2)
    stats = train_eval.scale_stats_from_samples([near, far])
    for kw in ({}, {"rescale": True, "scale_stats": stats}):
        both = train_eval.evaluate(params, TINY, [near, far], **kw)
        alone = [train_eval.evaluate(params, TINY, [s], **kw) for s in (near, far)]
        expected = record_tuples(alone[0]) + record_tuples(alone[1])
        assert record_tuples(both) == expected


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


def test_predict_builds_no_graph_and_keeps_index_then_side_order(monkeypatch):
    seen = []

    def recording(params, images, cfg):
        out = forward_batch(params, images, cfg)
        seen.append((len(images),
                     out.class_logits.requires_grad or out.joints_norm.requires_grad))
        return out

    monkeypatch.setattr(train_eval, "forward_batch", recording)
    params = build_model(TINY, seed=3)
    samples = generate_dataset(GenConfig(seed=8, n_samples=5))
    preds = train_eval.predict(params, TINY, samples, batch_size=2)
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
    scores = [np.mean([v for v in (e.val_mpjpe_left, e.val_mpjpe_right) if v is not None])
              for e in log.epochs]
    winner = int(np.argmin(scores))
    assert winner != cfg.total_epochs - 1  # otherwise the test could not tell
    best, _, extra = load_checkpoint(tmp_path / "best")
    assert extra["epoch"] == winner
    epoch_params, _, _ = load_checkpoint(tmp_path / f"epoch_{winner:04d}")
    for name, t in best.items():
        assert t.data.tobytes() == epoch_params[name].data.tobytes()
        assert t.data.tobytes() == params[name].data.tobytes()


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


def test_seeded_training_reproduces_golden_step_losses():
    samples = generate_dataset(GenConfig(seed=4, n_samples=10, hand_presence_prob=0.5))
    assert {len(s.hands) for s in samples} == {0, 1, 2}
    _, log = train_eval.train(TINY, tiny_train_cfg(total_epochs=2, lr_drop_epoch=1),
                              samples)
    got = [(s.total, s.cls_loss, s.l1_loss) for s in log.steps]
    assert len(got) == len(GOLDEN_STEP_LOSSES)
    for step, (row, golden) in enumerate(zip(got, GOLDEN_STEP_LOSSES), start=1):
        assert np.allclose(row, golden, rtol=1e-12, atol=0), step


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


def test_train_config_unknown_key_raises_config_error():
    # "deterministic" is a key of old config dicts; the field no longer exists
    with pytest.raises(ConfigError, match="deterministic"):
        train_eval.TrainConfig.from_dict({**tiny_train_cfg().to_dict(), "deterministic": True})


def test_smoke_ablation_returns_three_finite_rows_in_spec_order():
    table = train_eval.ablate(TINY, tiny_train_cfg(total_epochs=2, lr_drop_epoch=1),
                              GenConfig(seed=5, n_samples=8), n_test=6)
    assert [(r.label, r.resolution, r.depth_mode) for r in table.rows] == [
        ("small_relative", (32, 32), DepthMode.ROOT_PLUS_RELATIVE.value),
        ("small_absolute", (32, 32), DepthMode.ABSOLUTE_PER_JOINT.value),
        ("large_absolute", (48, 48), DepthMode.ABSOLUTE_PER_JOINT.value),
    ]
    values = [v for r in table.rows for v in r.mpjpe_off + r.mpjpe_on]
    assert len(values) == 12 and all(math.isfinite(v) for v in values)
    assert json.loads(table.to_json())["rows"] == [r.to_dict() for r in table.rows]
