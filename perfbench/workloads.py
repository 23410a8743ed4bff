"""The benchmark's three workloads, run through setpose's public API.

Each workload builds its inputs from the seed in `setup` (timed as
setup_s), hashes them in `digest` (not timed), runs one repetition of
library calls in `execute` (timed), and checks the outputs of that
repetition in `check`. Library functions are always
reached through their module (`data.generate_dataset`, `train_eval.train`),
so the traced run's wrappers see every call.

  train     train_eval.train at the default ModelConfig, batch 16: backward,
            matching, set loss, AdamW, init and checkpoint writes.
  eval      train_eval.evaluate without and with depth rescaling at the
            ablation's 48x48 large_absolute shape: forward, decode, rescale
            and scoring only.
  generate  data.generate_dataset at 32x32 and 48x48, then a write/read
            round trip: renderer and RNG streams only, no model code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from setpose import data, model, train_eval
from setpose.geometry import HandSide, mpjpe, uvd_to_xyz
from setpose.hand_model import rescale_depth
from setpose.rng import derive_seed

from .tracing import BlockShapes

STREAMS = train_eval.ABLATION_SPLIT_STREAMS
GENERATE_STREAM = 5  # first of the generate workload's streams, one per size
BATCH_SIZE = 16
SHIFTED_FACTOR = 1.3  # the ablation's scale-shifted test split
GENERATE_SIZES = ((32, 32), (48, 48))  # the ablation's two resolutions
REFERENCE_SAMPLES = 64  # generated one by one in set-up, compared bitwise later


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name, tensor in params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(tensor.data).tobytes())
    return h.hexdigest()


def _sample_update(h, sample) -> None:
    h.update(np.ascontiguousarray(sample.image).tobytes())
    h.update(np.array(dataclasses.astuple(sample.camera), dtype=np.float64).tobytes())
    for hand in sample.hands:
        h.update(hand.side.value.encode())
        h.update(hand.uvd.joints.tobytes())
        h.update(b"-" if hand.xyz is None else hand.xyz.joints.tobytes())


def sample_digest(sample) -> str:
    h = hashlib.sha256()
    _sample_update(h, sample)
    return h.hexdigest()


def dataset_digest(samples) -> str:
    h = hashlib.sha256()
    for s in samples:
        _sample_update(h, s)
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Checked:
    """Outcome of one repetition's checks."""

    failed: int
    extra: dict = field(default_factory=dict)


@dataclass
class TrainWorkload:
    n_samples: int = 256
    epochs: int = 3
    name = "train"
    model_cfg = model.ModelConfig()

    def __post_init__(self):
        self.steps_per_epoch = math.ceil(self.n_samples / BATCH_SIZE)
        self.steps_per_rep = self.epochs * self.steps_per_epoch
        self.ops_per_rep = self.steps_per_rep  # an operation is a train step
        self.samples_per_rep = self.epochs * self.n_samples
        self.shapes = BlockShapes.from_config(self.model_cfg)

    def setup(self, seed: int) -> None:
        size = self.model_cfg.image_size
        gen = data.GenConfig(seed=derive_seed(seed, STREAMS["train"]),
                             n_samples=self.n_samples, image_size=size,
                             intrinsics=data.default_intrinsics(size))
        self.samples = data.generate_dataset(gen)
        self.train_cfg = train_eval.TrainConfig(
            batch_size=BATCH_SIZE, total_epochs=self.epochs,
            lr_drop_epoch=self.epochs - 1, seed=seed)
        self._reference = None

    def digest(self) -> str:
        return dataset_digest(self.samples)

    def execute(self, workdir: Path):
        return train_eval.train(self.model_cfg, self.train_cfg, self.samples,
                                checkpoint_dir=workdir)

    def check(self, out, workdir: Path) -> Checked:
        params, log = out
        losses = np.array([[s.cls_loss, s.l1_loss, s.total] for s in log.steps])
        checkpoints = [p for p in workdir.iterdir() if p.is_dir()]
        if losses.shape != (self.steps_per_rep, 3) or len(checkpoints) != self.epochs + 1:
            return Checked(self.ops_per_rep)
        failed = int(np.count_nonzero(~np.isfinite(losses).all(axis=1)))
        total = losses[:, 2]
        last_epoch = float(total[-self.steps_per_epoch:].mean())
        digest = (params_digest(params), losses.tobytes())
        if self._reference is None:
            self._reference = digest
        if digest != self._reference or not last_epoch < total[0]:
            failed = self.ops_per_rep
        return Checked(failed, {"loss_last_epoch": last_epoch,
                                "checkpoint_bytes": dir_bytes(workdir)})

    def final_check(self) -> tuple[int, int]:
        return 0, 0


@dataclass
class EvalWorkload:
    n_frames: int = 256
    n_stats: int = 64
    model_cfg: model.ModelConfig = field(
        default_factory=lambda: model.ModelConfig(image_size=(48, 48)))
    name = "eval"

    def __post_init__(self):
        self.steps_per_rep = 0
        self.ops_per_rep = 2 * self.n_frames  # one scored frame per evaluate call
        self.samples_per_rep = self.ops_per_rep
        self.shapes = BlockShapes.from_config(self.model_cfg)

    def setup(self, seed: int) -> None:
        base = data.GenConfig(seed=seed)
        size = self.model_cfg.image_size
        test_cfg = train_eval.scaled_gen_config(
            base, size, derive_seed(seed, STREAMS["test-shifted"]), self.n_frames,
            subject_scale_factor=SHIFTED_FACTOR)
        stats_cfg = train_eval.scaled_gen_config(
            base, size, derive_seed(seed, STREAMS["train"]), self.n_stats)
        self.test = data.generate_dataset(test_cfg)
        self.stats = train_eval.scale_stats_from_samples(data.generate_dataset(stats_cfg))
        self.params = model.build_model(self.model_cfg, seed)
        self.present = {side: sum(1 for s in self.test for h in s.hands if h.side is side)
                        for side in HandSide}
        self._reference = None

    def digest(self) -> str:
        return "/".join((dataset_digest(self.test), params_digest(self.params),
                         self.stats.to_json()))

    def execute(self, workdir: Path):
        off = train_eval.evaluate(self.params, self.model_cfg, self.test)
        on = train_eval.evaluate(self.params, self.model_cfg, self.test,
                                 rescale=True, scale_stats=self.stats)
        return off, on

    def check(self, out, workdir: Path) -> Checked:
        failed = 0
        for report, rescaled in zip(out, (False, True)):
            counts = (report.n_frames_left, report.n_frames_right)
            if (counts != (self.present[HandSide.LEFT], self.present[HandSide.RIGHT])
                    or report.rescaling_applied is not rescaled
                    or not math.isfinite(report.mean_mpjpe())):
                failed += self.n_frames
                continue
            failed += len({r.index for r in report.records if not math.isfinite(r.error_mm)})
        records = {(r.index, r.side): (r.error_mm, on.error_mm)
                   for r, on in zip(out[0].records, out[1].records)}
        if self._reference is None:
            self._reference = records
        if records != self._reference:
            failed = self.ops_per_rep
        return Checked(failed, {"mpjpe_off": out[0].mean_mpjpe(),
                                "mpjpe_on": out[1].mean_mpjpe()})

    def final_check(self) -> tuple[int, int]:
        """Recompute every scored error from predict + rescale_depth.

        Rescaling must copy (u, v) bitwise, and both evaluate paths must
        give exactly the errors of this reference composition.
        """
        if self._reference is None:  # no repetition got as far as scoring
            return len(self.test), len(self.test)
        preds = {(p.index, p.side): p
                 for p in train_eval.predict(self.params, self.model_cfg, self.test)}
        failed = 0
        for i, sample in enumerate(self.test):
            cam = sample.camera
            ok = True
            for hand in sample.hands:
                uvd = preds[(i, hand.side)].uvd
                scaled = rescale_depth(uvd, cam, self.stats.mean_for(hand.side))
                ok &= (scaled.joints[:, :2].tobytes() == uvd.joints[:, :2].tobytes()
                       and self._reference.get((i, hand.side)) == (mpjpe(uvd_to_xyz(uvd, cam), hand.xyz),
                                   mpjpe(uvd_to_xyz(scaled, cam), hand.xyz)))
            failed += not ok
        return len(self.test), failed


@dataclass
class GenerateWorkload:
    n_samples: int = 256  # per image size
    name = "generate"

    def __post_init__(self):
        self.steps_per_rep = 0
        self.ops_per_rep = len(GENERATE_SIZES) * self.n_samples  # one generated sample each
        self.samples_per_rep = self.ops_per_rep
        self.shapes = None

    def setup(self, seed: int) -> None:
        """The generator configs, and the first samples of each generated
        one by one with generate_sample as the check's reference."""
        base = data.GenConfig(seed=seed, n_samples=self.n_samples)
        self.configs = [
            train_eval.scaled_gen_config(base, size, derive_seed(seed, GENERATE_STREAM + k),
                                         self.n_samples)
            for k, size in enumerate(GENERATE_SIZES)]
        self.regenerated = [[data.generate_sample(cfg, i)
                             for i in range(min(REFERENCE_SAMPLES, self.n_samples))]
                            for cfg in self.configs]
        self._reference = None

    def digest(self) -> str:
        return "/".join(dataset_digest(samples) for samples in self.regenerated)

    def execute(self, workdir: Path):
        clock = time.perf_counter
        t0 = clock()
        sets = [data.generate_dataset(cfg) for cfg in self.configs]
        t1 = clock()
        for k, (cfg, samples) in enumerate(zip(self.configs, sets)):
            data.write_dataset(samples, workdir / f"set{k}", cfg)
        back = [data.read_dataset(workdir / f"set{k}")[0] for k in range(len(sets))]
        t2 = clock()
        return sets, back, t1 - t0, t2 - t1

    def check(self, out, workdir: Path) -> Checked:
        sets, back, gen_s, io_s = out
        digests = [[sample_digest(s) for s in samples] for samples in sets]
        failed = 0
        for samples, generated, read, regenerated in zip(sets, digests, back, self.regenerated):
            if len(samples) != self.n_samples or len(read) != self.n_samples:
                failed += self.n_samples
                continue
            for i, (s, d, r) in enumerate(zip(samples, generated, read)):
                img = s.image
                ok = (d == sample_digest(r) and bool(np.all(np.isfinite(img)))
                      and float(img.min()) >= 0.0 and float(img.max()) <= 1.0)
                if i < len(regenerated):
                    ok &= d == sample_digest(regenerated[i])
                failed += not ok
        if self._reference is None:
            self._reference = digests
        if digests != self._reference:
            failed = self.ops_per_rep
        return Checked(failed, {"gen_s": gen_s, "io_s": io_s,
                                "bytes_written": dir_bytes(workdir)})

    def final_check(self) -> tuple[int, int]:
        return 0, 0


WORKLOADS = {"train": TrainWorkload, "eval": EvalWorkload, "generate": GenerateWorkload}
