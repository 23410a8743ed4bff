"""Golden values of the random streams that data generation, shuffling and
augmentation draw from, and of the bytes that datasets and checkpoints are
stored as. A refactor must not move them: each value below is pinned, not
compared against another run of the same code."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from setpose.data import (GenConfig, generate_dataset, generate_sample, read_dataset,
                          write_dataset)
from setpose.model import ModelConfig, build_model
from setpose.nn_core import save_checkpoint
from setpose.rng import PortableRng, derive_seed
from setpose.train_eval import scaled_gen_config


def test_portable_rng_golden_outputs():
    rng = PortableRng(1234)
    assert [rng.next_u64() for _ in range(8)] == [
        13965075828013061239, 7827044556653101013, 17595057942192243005,
        124209149061699924, 13141779477969995455, 6614060581603712423,
        4780241877131282102, 16894014828112847807]
    rng = PortableRng(7, stream=3)
    assert [rng.next_u64() for _ in range(8)] == [
        16210327463486644571, 2133770753063187530, 4639350868849155184,
        13856854919179443085, 11809330123377712653, 1162883621045338105,
        6165896410744161923, 13290766446183358631]


def test_derive_seed_golden_value():
    assert derive_seed(3, 5, 9) == 8009129431582773580


def _hash_sample(h, sample) -> None:
    h.update(np.ascontiguousarray(sample.image).tobytes())
    h.update(np.array(dataclasses.astuple(sample.camera), dtype=np.float64).tobytes())
    for hand in sample.hands:
        h.update(hand.side.value.encode())
        h.update(hand.uvd.joints.tobytes())
        h.update(hand.xyz.joints.tobytes())


def test_generated_sample_golden_digest():
    sample = generate_sample(GenConfig(seed=4), 0)
    h = hashlib.sha256()
    _hash_sample(h, sample)
    assert [hand.side.value for hand in sample.hands] == ["right"]
    assert h.hexdigest() == "deb90a9e28326c7d1574ecf7425ed45c9ff32bf27741139e6513734681039c20"


def test_generated_dataset_golden_digest(tmp_path):
    """64 samples, 32 at 32x32 and 32 at 48x48 (focal scaled with the image),
    so a change to the renderer shows in tens of thousands of pixels; the
    same samples written and read back digest to the same value."""
    generated, read_back = hashlib.sha256(), hashlib.sha256()
    for size in ((32, 32), (48, 48)):
        cfg = scaled_gen_config(GenConfig(), size, seed=11, n_samples=32)
        samples = generate_dataset(cfg)
        write_dataset(samples, tmp_path / str(size[0]), cfg)
        back, _ = read_dataset(tmp_path / str(size[0]))
        for h, source in ((generated, samples), (read_back, back)):
            for sample in source:
                _hash_sample(h, sample)
    golden = "a53adbd8806e92046ae4b196a8e2483dd1d1f0b4466d6cdfee7404baf419f4fc"
    assert generated.hexdigest() == golden
    assert read_back.hexdigest() == golden


def _write_dataset(path):
    cfg = GenConfig(seed=3, n_samples=4)
    write_dataset(generate_dataset(cfg), path, cfg)


def _save_checkpoint(path):
    save_checkpoint(path, build_model(ModelConfig(), 0), optimizer_step=7, extra={"epoch": 1})


@pytest.mark.parametrize("write, manifest, golden", [
    (_write_dataset, "meta.json",
     "eab54cc3a2b997aa0fe72bc81092b72ba447285f0f54190991e9e5d4503da22d"),
    (_save_checkpoint, "manifest.json",
     "2382be6e67c0d71ada565890105c1cd12694cae79f3e919ae6e4ef6b3563a203"),
], ids=["dataset", "checkpoint"])
def test_stored_manifest_golden_digest(tmp_path, write, manifest, golden):
    """Each manifest records the SHA-256 of its .npy files, so its digest
    pins every byte of the store: images.npy and hands.npy of a dataset
    (format 6), params.npy of a checkpoint (format 4)."""
    write(tmp_path / "store")
    assert hashlib.sha256((tmp_path / "store" / manifest).read_bytes()).hexdigest() == golden
