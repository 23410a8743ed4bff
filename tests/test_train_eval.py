from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from setpose import train_eval
from setpose.data import GenConfig, generate_dataset
from setpose.errors import NonFinite
from setpose.geometry import CameraIntrinsics
from setpose.model import BatchDetections, ModelConfig, build_model, forward_batch
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


def test_predict_builds_no_graph_in_pool_threads(monkeypatch):
    seen = []

    def recording(params, images, cfg):
        out = forward_batch(params, images, cfg)
        seen.append(out.class_logits.requires_grad or out.joints_norm.requires_grad)
        return out

    monkeypatch.setattr(train_eval, "forward_batch", recording)
    params = build_model(TINY, seed=3)
    samples = generate_dataset(GenConfig(seed=8, n_samples=5))
    serial = train_eval.predict(params, TINY, samples, batch_size=2)
    pooled = train_eval.predict(params, TINY, samples, threads=2, batch_size=2)
    assert seen == [False] * 6
    assert [p.to_dict() for p in serial] == [p.to_dict() for p in pooled]


def test_best_checkpoint_records_the_winning_epoch(tmp_path):
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
    (1.7037220765061978, 0.8974488123392237, 0.16125465283339488),
    (2.3959449264940904, 1.4348523083159834, 0.1922185236356214),
    (1.7651009257824875, 1.1229600363675838, 0.12842817788298072),
    (1.6143352524693526, 0.7083737341046344, 0.18119230367294367),
    (1.6205776923382818, 0.8717785011378671, 0.14975983824008293),
    (1.1669228333008719, 0.6330545981090852, 0.10677364703835732),
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


def test_train_config_dict_round_trip():
    cfg = tiny_train_cfg(seed=9)
    assert train_eval.TrainConfig.from_dict(cfg.to_dict()) == cfg
    assert set(cfg.to_dict()) == {f.name for f in dataclasses.fields(cfg)}
