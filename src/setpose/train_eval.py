"""Training loop, evaluation harness, and the ablation runner.

Training follows the two-group AdamW schedule: backbone parameters (the
patch embedding) at lr_backbone, everything else at lr_transformer, both
divided by lr_drop_factor from lr_drop_epoch onward. Supervision happens
in normalized UVD space. train packs the training set's hands once, into
the (N, 2) slots of data.pack_hands that hands.npy stores, slot k holding
the hand of side k. Each step stacks its batch's images, takes its rows of
those slots, flips both in place in one data.augment call, and encodes the
joints in one encode_targets call. It runs the batch forward, builds the
match costs of the whole batch in one build_cost_matrix call, matches
every image in one batched hungarian call, and makes one set_loss call,
which averages the per-image losses over the batch. Matching is recomputed
every step and carries no gradient.

Evaluation decodes a pose per side for all frames in one decode_predictions
call (per-side argmax query - a prediction is always produced for a present
hand). Scoring, under the set's one camera, is one pass over the present
(N, 2) slots of pack_hands: one optional rescale_depth call (toward the
per-side training mean hand scale), one uvd_to_xyz and one global mpjpe call.
EvalReport is the one type that holds a score: TrainLog.validation keeps one
per epoch, and ablate one pair (rescaling off, on) per ABLATION_VARIANTS entry.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import GenConfig, SceneSample, augment, generate_dataset, one_camera, pack_hands
from .errors import (ConfigError, MissingScaleStats, NonFinite, NonFiniteLoss,
                     check_config_keys, check_numbers)
from .geometry import CameraIntrinsics, HandSide, JointSet3D, JointSetUVD, mpjpe, uvd_to_xyz
from .hand_model import ScaleStats, compute_mean_scale, rescale_depth
from .matching import build_cost_matrix, hungarian, set_loss
from .model import (
    DepthMode,
    ModelConfig,
    build_model,
    decode_predictions,
    encode_targets,
    forward_batch,
    is_backbone_param,
)
from .nn_core import (
    ParamStore,
    adamw_step,
    forward_backward,
    init_optim_state,
    no_grad,
    save_checkpoint,
)
from .rng import PortableRng, derive_seed


@dataclass(frozen=True)
class TrainConfig:
    lr_transformer: float = 1e-4
    lr_backbone: float = 1e-5
    weight_decay: float = 1e-4
    batch_size: int = 16
    total_epochs: int = 300
    lr_drop_epoch: int = 200
    lr_drop_factor: float = 10.0
    lam_cls: float = 1.0
    lam_l1: float = 5.0
    w_noobj: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_numbers(self, ints=("batch_size", "total_epochs", "lr_drop_epoch", "seed"),
                      reals=("lr_transformer", "lr_backbone", "weight_decay",
                             "lr_drop_factor", "lam_cls", "lam_l1", "w_noobj"))
        if not (0 < self.lr_drop_epoch < self.total_epochs):
            raise ConfigError("need 0 < lr_drop_epoch < total_epochs")
        for name in ("weight_decay", "lam_cls", "lam_l1", "w_noobj"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("lr_transformer", "lr_backbone", "lr_drop_factor"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")

    def lr_at(self, epoch: int) -> tuple[float, float]:
        div = self.lr_drop_factor if epoch >= self.lr_drop_epoch else 1.0
        return self.lr_transformer / div, self.lr_backbone / div

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**check_config_keys(cls, d))


@dataclass(frozen=True)
class StepRecord:
    step: int
    cls_loss: float
    l1_loss: float
    total: float
    lr_transformer: float
    lr_backbone: float


@dataclass
class TrainLog:
    steps: list[StepRecord] = field(default_factory=list)
    validation: list[EvalReport] = field(default_factory=list)  # one per epoch, if validated


def train(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    train_samples: list[SceneSample],
    val_samples: list[SceneSample] | None = None,
    checkpoint_dir: str | Path | None = None,
) -> tuple[ParamStore, TrainLog]:
    """Returns (checkpoint parameters, log).

    With a validation split (refused before the first step where evaluate
    would refuse it) the returned parameters are the best epoch's, of lowest
    mean_mpjpe; otherwise the final ones. Epoch checkpoints land in
    checkpoint_dir when given, plus a "best" one recording its epoch.
    """
    if not train_samples:
        raise ConfigError("training set is empty")
    if val_samples is not None:
        _eval_camera(val_samples)
    params = build_model(model_cfg, train_cfg.seed)
    state = init_optim_state(params)
    rng = PortableRng(train_cfg.seed, stream=0x7472)
    log = TrainLog()
    step = 0
    best = (math.inf, params, train_cfg.total_epochs - 1)  # (score, params, epoch)
    packed = pack_hands(train_samples)
    n = len(train_samples)
    for epoch in range(train_cfg.total_epochs):
        lr_t, lr_b = train_cfg.lr_at(epoch)
        order = list(range(n))
        rng.shuffle(order)
        for lo in range(0, n, train_cfg.batch_size):
            batch_idx = order[lo:lo + train_cfg.batch_size]
            images = np.stack([train_samples[i].image for i in batch_idx])
            hands = packed[batch_idx]
            augment(images, hands, rng)
            present, gt_joints = hands["present"], encode_targets(hands["uvd"], model_cfg)
            step += 1

            parts = {}

            def loss_fn(ps: ParamStore):
                det = forward_batch(ps, images, model_cfg)
                costs = build_cost_matrix(det.class_logits.data, det.joints_norm.data,
                                          present, gt_joints, train_cfg.lam_cls,
                                          train_cfg.lam_l1)
                lb = set_loss(det.class_logits, det.joints_norm, present, gt_joints,
                              hungarian(costs), train_cfg.lam_cls,
                              train_cfg.lam_l1, train_cfg.w_noobj)
                parts["cls"] = lb.cls_loss.item()
                parts["l1"] = lb.l1_loss.item()
                return lb.total

            try:
                loss, grads = forward_backward(loss_fn, params)
            except NonFiniteLoss as e:
                raise NonFiniteLoss(f"non-finite loss at step {step}", step=step) from e
            except NonFinite as e:
                raise NonFinite(f"{e} at step {step}") from e
            adamw_step(params, grads, state,
                       lr=lambda name: lr_b if is_backbone_param(name) else lr_t,
                       weight_decay=train_cfg.weight_decay)
            del grads  # so the next step's forward does not run beside them
            log.steps.append(StepRecord(step=step, cls_loss=parts["cls"],
                                        l1_loss=parts["l1"], total=loss,
                                        lr_transformer=lr_t, lr_backbone=lr_b))

        if val_samples is not None:
            log.validation.append(evaluate(params, model_cfg, val_samples))
            score = log.validation[-1].mean_mpjpe()
            if score < best[0]:
                best = (score, params.copy(), epoch)
        if checkpoint_dir is not None:
            save_checkpoint(Path(checkpoint_dir) / f"epoch_{epoch:04d}", params,
                            optimizer_step=state.t,
                            extra={"model_config": model_cfg.to_dict(),
                                   "epoch": epoch})

    _, final, best_epoch = best
    if checkpoint_dir is not None:
        save_checkpoint(Path(checkpoint_dir) / "best", final, optimizer_step=state.t,
                        extra={"model_config": model_cfg.to_dict(), "epoch": best_epoch})
    return final, log


def _none_if_nan(x: float) -> float | None:
    return None if math.isnan(x) else x


# -- evaluation ------------------------------------------------------------------

@dataclass(frozen=True)
class SidePrediction:
    """Raw decoded output for one (frame, side); depths are pre-rescaling."""

    index: int
    side: HandSide
    uvd: JointSetUVD
    confidence: float
    predicted_present: bool  # argmax class of the selected query == side


@dataclass(frozen=True)
class FrameRecord:
    index: int
    side: HandSide
    error_mm: float
    confidence: float

    def to_dict(self) -> dict:
        return {"id": self.index, "side": self.side.value,
                "error_mm": self.error_mm, "confidence": self.confidence}


@dataclass(frozen=True)
class EvalReport:
    mpjpe_left: float  # nan when no left-hand frames
    mpjpe_right: float
    n_frames_left: int
    n_frames_right: int
    rescaling_applied: bool
    cls_accuracy: float
    records: tuple[FrameRecord, ...]

    def mean_mpjpe(self) -> float:
        vals = [v for v in (self.mpjpe_left, self.mpjpe_right) if not math.isnan(v)]
        return float(np.mean(vals)) if vals else math.nan

    def to_dict(self) -> dict:
        return {
            "mpjpe_left": _none_if_nan(self.mpjpe_left),
            "mpjpe_right": _none_if_nan(self.mpjpe_right),
            "n_frames_left": self.n_frames_left,
            "n_frames_right": self.n_frames_right,
            "rescaling_applied": self.rescaling_applied,
            "cls_accuracy": self.cls_accuracy,
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


PREDICT_BATCH = 32  # frames per forward pass in predict


def predict(
    params: ParamStore,
    model_cfg: ModelConfig,
    samples: list[SceneSample],
) -> list[SidePrediction]:
    """Decode both sides of every sample, in index then side order. The
    forward passes run PREDICT_BATCH frames at a time under no_grad(), so
    no autodiff graph is built; one decode_predictions call then decodes
    every frame."""
    if not samples:
        return []
    with no_grad():
        batches = [forward_batch(params, np.stack([s.image for s in chunk]), model_cfg)
                   for chunk in (samples[lo:lo + PREDICT_BATCH]
                                 for lo in range(0, len(samples), PREDICT_BATCH))]
    class_logits = np.concatenate([b.class_logits.data for b in batches])
    joints_norm = np.concatenate([b.joints_norm.data for b in batches])
    query, uvd, confidence = decode_predictions(class_logits, joints_norm, model_cfg)
    image = np.arange(len(samples))[:, None]
    predicted = np.argmax(class_logits[image, query], axis=-1) == np.arange(2)
    return [SidePrediction(index=i, side=side, uvd=JointSetUVD(uvd[i, side.code]),
                           confidence=float(confidence[i, side.code]),
                           predicted_present=bool(predicted[i, side.code]))
            for i in range(len(samples)) for side in HandSide]


def score_predictions(
    preds: list[SidePrediction],
    samples: list[SceneSample],
    rescale: bool = False,
    scale_stats: ScaleStats | None = None,
) -> EvalReport:
    """Per-frame global MPJPE against the GT sides actually present, under
    samples' one camera (else ConfigError). preds hold both sides of every
    frame in index then side order, as predict returns them, as do records.

    Per-side means are exact (fsum) means of the per-frame records.
    Classification accuracy counts (frame, side) pairs whose
    predicted-present flag agrees with the ground truth.
    """
    cam = _eval_camera(samples, rescale, scale_stats)
    if [(p.index, p.side) for p in preds] != [(i, side) for i in range(len(samples))
                                              for side in HandSide]:
        raise ConfigError("preds must hold both sides of every frame, in index "
                          "then side order")
    hands = pack_hands(samples)
    present = hands["present"].ravel()  # index then side order, as preds
    kept = [p for p, keep in zip(preds, present.tolist()) if keep]
    pose = JointSetUVD(np.stack([p.uvd.joints for p in preds])[present])
    if rescale:
        means = {side: scale_stats.mean_for(side) for side in dict.fromkeys(p.side for p in kept)}
        pose = rescale_depth(pose, cam, np.array([means[p.side] for p in kept]))
    errors = mpjpe(uvd_to_xyz(pose, cam), JointSet3D(hands["xyz"][hands["present"]]))
    records = tuple(FrameRecord(index=p.index, side=p.side, error_mm=e, confidence=p.confidence)
                    for p, e in zip(kept, errors.tolist()))
    errors = [[r.error_mm for r in records if r.side is side] for side in HandSide]
    hits = np.count_nonzero(np.equal([p.predicted_present for p in preds], present))
    left, right = (math.fsum(e) / len(e) if e else math.nan for e in errors)
    return EvalReport(mpjpe_left=left, mpjpe_right=right, n_frames_left=len(errors[0]),
                      n_frames_right=len(errors[1]), rescaling_applied=rescale,
                      cls_accuracy=hits / len(preds), records=records)


def _eval_camera(samples: list[SceneSample], rescale: bool = False,
                 scale_stats: ScaleStats | None = None) -> CameraIntrinsics:
    """samples' one camera; refuses rescaling without scale statistics, an
    empty set and mixed cameras (ConfigError naming the first other one)."""
    if rescale and scale_stats is None:
        raise MissingScaleStats("rescaling requested without scale statistics")
    if not samples:
        raise ConfigError("evaluation set is empty")
    return one_camera(samples, "an evaluation uses")


def evaluate(
    params: ParamStore,
    model_cfg: ModelConfig,
    samples: list[SceneSample],
    rescale: bool = False,
    scale_stats: ScaleStats | None = None,
) -> EvalReport:
    """score_predictions of predict's output; refuses a bad set first."""
    _eval_camera(samples, rescale, scale_stats)
    preds = predict(params, model_cfg, samples)
    return score_predictions(preds, samples, rescale=rescale, scale_stats=scale_stats)


def scale_stats_from_samples(samples: list[SceneSample]) -> ScaleStats:
    return compute_mean_scale([(h.side, h.xyz) for s in samples for h in s.hands])


# -- ablation ------------------------------------------------------------------

def scaled_gen_config(gen_cfg: GenConfig, image_size: tuple[int, int],
                      seed: int, n_samples: int,
                      subject_scale_factor: float | None = None) -> GenConfig:
    """Resize the scene config, scaling intrinsics with the image."""
    h, w = image_size
    base_h, base_w = gen_cfg.image_size
    if h * base_w != w * base_h:
        raise ConfigError("ablation resolutions must preserve the aspect ratio")
    factor = w / base_w
    cam = gen_cfg.intrinsics
    new_cam = CameraIntrinsics(fx=cam.fx * factor, fy=cam.fy * factor,
                               cx=cam.cx * factor, cy=cam.cy * factor,
                               width=float(w), height=float(h))
    return replace(
        gen_cfg, image_size=(h, w), intrinsics=new_cam, seed=seed,
        n_samples=n_samples,
        subject_scale_factor=(gen_cfg.subject_scale_factor
                              if subject_scale_factor is None
                              else subject_scale_factor))


ABLATION_SPLIT_STREAMS = {"train": 1, "test": 3, "test-shifted": 4}

# label -> (image size, depth parametrization) of each ablation variant
ABLATION_VARIANTS = {
    "small_relative": ((32, 32), DepthMode.ROOT_PLUS_RELATIVE),
    "small_absolute": ((32, 32), DepthMode.ABSOLUTE_PER_JOINT),
    "large_absolute": ((48, 48), DepthMode.ABSOLUTE_PER_JOINT),
}
SHIFTED_FACTOR = 1.3  # subject scale of the test-shifted split


def ablate(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    gen_cfg: GenConfig,
    n_test: int = 128,
) -> dict[str, tuple[EvalReport, EvalReport]]:
    """Train each ABLATION_VARIANTS entry and score its predictions on the
    scale-shifted split with rescaling off and on (scale stats from that
    variant's training split): {label: (off, on)}, in ABLATION_VARIANTS order."""
    reports = {}
    for label, (size, mode) in ABLATION_VARIANTS.items():
        train_set = generate_dataset(scaled_gen_config(
            gen_cfg, size, derive_seed(gen_cfg.seed, ABLATION_SPLIT_STREAMS["train"]),
            gen_cfg.n_samples))
        shifted_set = generate_dataset(scaled_gen_config(
            gen_cfg, size, derive_seed(gen_cfg.seed, ABLATION_SPLIT_STREAMS["test-shifted"]),
            n_test, subject_scale_factor=SHIFTED_FACTOR))
        stats = scale_stats_from_samples(train_set)
        mcfg = ModelConfig(**{**model_cfg.to_dict(),
                              "image_size": size, "depth_mode": mode.value})
        params, _ = train(mcfg, train_cfg, train_set)
        preds = predict(params, mcfg, shifted_set)
        reports[label] = (score_predictions(preds, shifted_set),
                          score_predictions(preds, shifted_set, rescale=True,
                                            scale_stats=stats))
    return reports
