"""Tests of the benchmark's own code, on tiny sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import ROOT, require_src

require_src()

from perfbench import envinfo, run, tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    EvalWorkload, GenerateWorkload, TrainWorkload, sample_digest)
from setpose import model  # noqa: E402
from setpose.nn_core import Tensor, forward_backward  # noqa: E402
from setpose.rng import PortableRng  # noqa: E402

TINY = model.ModelConfig(image_size=(16, 16), patch_size=8, embed_dim=8, n_heads=2,
                         n_encoder_layers=1, n_decoder_layers=1, n_queries=2)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_is_duration_minus_direct_children():
    # a [0,10] holds b [1,4] and c [5,9]; c holds d [6,7]
    tr = tracing.Tracer(clock=fake_clock([0, 1, 4, 5, 6, 7, 9, 10]))
    a = tr.enter("a")
    b = tr.enter("b")
    tr.exit(b)
    c = tr.enter("c")
    d = tr.enter("d")
    tr.exit(d)
    tr.exit(c)
    tr.exit(a)
    st = tracing.summarize(tr.spans)
    assert {k: v.self_time for k, v in st.items()} == {"a": 3, "b": 3, "c": 3, "d": 1}
    assert {k: v.total for k, v in st.items()} == {"a": 10, "b": 3, "c": 4, "d": 1}
    assert tracing.root_time(tr.spans) == sum(v.self_time for v in st.values()) == 10


def test_repeated_names_accumulate_and_keep_call_durations():
    tr = tracing.Tracer(clock=fake_clock([0, 2, 3, 7]))
    for _ in range(2):
        tr.exit(tr.enter("x"))
    st = tracing.summarize(tr.spans)["x"]
    assert (st.calls, st.total, st.durations) == (2, 6, [2, 4])


def test_spans_must_close_in_order():
    tr = tracing.Tracer(clock=fake_clock(range(10)))
    outer = tr.enter("outer")
    tr.enter("inner")
    with pytest.raises(RuntimeError):
        tr.exit(outer)


def test_percentile_interpolates():
    assert tracing.percentile([4, 1, 3, 2], 50) == 2.5
    assert tracing.percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)
    assert tracing.percentile([7], 90) == 7


def test_step_intervals_restart_after_init_and_checkpoints():
    spans = [["nn_core.init_optim_state", 0, 1, -1], ["nn_core.adamw_step", 2, 3, -1],
             ["nn_core.adamw_step", 4, 6, -1], ["nn_core.save_checkpoint", 6, 9, -1],
             ["nn_core.adamw_step", 10, 11, -1]]
    assert run.step_intervals(spans) == [2, 3, 2]


def shaped(*shape):
    return SimpleNamespace(shape=shape)


def test_blocks_are_named_from_argument_shapes():
    shapes = tracing.BlockShapes(n_tokens=16, n_queries=4, patch_dim=192)
    d = 64
    assert shapes.block_of("linear", (shaped(2, 16, 192),)) == "patch_embed"
    assert shapes.block_of("layer_norm", (shaped(2, 4, d),)) == "layer_norm"
    attn = lambda tq, tk: shapes.block_of("multi_head_attention",
                                          (shaped(2, tq, d), shaped(2, tk, d)))
    assert attn(16, 16) == "enc_attn"
    assert attn(4, 4) == "dec_self_attn"
    assert attn(4, 16) == "dec_cross_attn"
    mlp = lambda t, hidden: shapes.block_of("mlp2", (shaped(2, t, d), shaped(d, hidden)))
    assert mlp(16, 4 * d) == "enc_ffn"
    assert mlp(4, 4 * d) == "dec_ffn"
    assert mlp(4, d) == "heads"
    with pytest.raises(ValueError):
        tracing.BlockShapes(n_tokens=4, n_queries=4, patch_dim=192)


def tiny_images(n=2):
    rng = PortableRng(3)
    h, w = TINY.image_size
    return np.array(rng.uniform_list(n * h * w * 3, 0.0, 1.0)).reshape(n, h, w, 3)


def tiny_loss(params, images):
    det = model.forward_batch(params, images, TINY)
    return (det.joints_norm * det.joints_norm).sum() + det.class_logits.exp().sum()


def test_forward_calls_are_attributed_to_each_block():
    params = model.build_model(TINY, 0)
    tr = tracing.Tracer()
    with tracing.Patcher() as patcher:
        tracing.install_layer_spans(patcher, tr, tracing.BlockShapes.from_config(TINY))
        model.forward_batch(params, tiny_images(), TINY)
    calls = {k: v.calls for k, v in tracing.summarize(tr.spans).items() if k != "python.gc"}
    assert calls == {"model.forward_batch": 1, "model.patch_embed": 1, "model.layer_norm": 7,
                     "model.enc_attn": 1, "model.enc_ffn": 1, "model.dec_self_attn": 1,
                     "model.dec_cross_attn": 1, "model.dec_ffn": 1, "model.heads": 2}


def test_wrappers_are_removed_and_change_no_bits():
    params = model.build_model(TINY, 0)
    images = tiny_images()
    before = tracing.snapshot_bindings()
    loss, grads = forward_backward(tiny_loss, params, images)

    layer, ops, draws = tracing.Tracer(), tracing.Tracer(), tracing.DrawCounter()
    with tracing.Patcher() as patcher:
        tracing.install_layer_spans(patcher, layer, tracing.BlockShapes.from_config(TINY))
        tracing.install_op_spans(patcher, ops, draws)
        assert tracing.snapshot_bindings() != before
        traced_loss, traced_grads = forward_backward(tiny_loss, params, images)
        rebuilt = model.build_model(TINY, 0)
    assert tracing.snapshot_bindings() == before
    assert Tensor.__radd__ is Tensor.__add__

    assert traced_loss == loss
    assert all(traced_grads[k].tobytes() == grads[k].tobytes() for k in grads)
    assert all(rebuilt[k].data.tobytes() == params[k].data.tobytes() for k in params.names())
    # glorot_uniform draws one value per weight; biases and norms draw none
    weights = sum(t.data.size for name, t in params.items()
                  if name.endswith((".w", ".wq", ".wk", ".wv", ".wo", ".embed")))
    assert draws.draws == weights
    op_stats = tracing.summarize(ops.spans)
    assert op_stats["nn_core.op.matmul.fwd"].calls > 0
    assert op_stats["nn_core.op.matmul.bwd"].calls > 0
    assert "nn_core.backward" in tracing.summarize(layer.spans)


def test_environment_block_keys():
    env = envinfo.environment(ROOT / "src")
    assert set(env) == {"python", "numpy", "scipy", "blas", "blas_threads", "nproc",
                        "threads_exceed_nproc", "platform", "src_lines"}
    assert set(env["blas"]) == {"name", "version"}
    assert set(env["blas_threads"]) == {"env", "library"}
    assert env["nproc"] >= 1 and env["src_lines"] > 0
    json.dumps(env)


@pytest.mark.parametrize("wl", [
    TrainWorkload(n_samples=16, epochs=2),
    EvalWorkload(n_frames=4, n_stats=4, model_cfg=TINY),
    GenerateWorkload(n_samples=3),
], ids=lambda wl: wl.name)
def test_workload_repetitions_pass_their_checks(wl, tmp_path):
    tally = run.Tally()
    setup_times, same = run.run_setups(wl, seed=7, seconds=0.0, min_repeats=2)
    assert same and len(setup_times) == 2
    reps = [run.run_rep(wl, tmp_path, tally) for _ in range(2)]
    tally.add(*wl.final_check())
    assert tally.failed == 0 and tally.attempted >= 2 * wl.ops_per_rep
    assert all(r.wall_s > 0 for r in reps)
    assert list(tmp_path.iterdir()) == []


def test_reported_metric_names_match_the_spec(tmp_path, monkeypatch):
    # Tiny repetitions last milliseconds, so installing the wrappers, which
    # no span covers, takes a large share of them; every other check of the
    # run still applies.
    monkeypatch.setattr(run, "COVERAGE_TOLERANCE", math.inf)
    wl = GenerateWorkload(n_samples=2)
    values, tally, ok, _ = run.measure_end_to_end(wl, 1, 0.0, tmp_path)
    assert ok and set(values) == {m["name"] for m in SPEC["end_to_end"]}
    run.result_line(SPEC["end_to_end"], values, tally, ok)
    values, tally, ok, _ = run.measure_layers(wl, 1, 0.0, tmp_path)
    assert ok and set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert values["run.unattributed_ms"] >= 0.0
    run.result_line(SPEC["per_layer"], values, tally, ok)


def test_traced_run_fails_when_time_escapes_the_spans(tmp_path):
    wl = GenerateWorkload(n_samples=2)
    execute = wl.execute

    def slow_execute(workdir):
        time.sleep(0.5)  # inside the repetition, outside every span
        return execute(workdir)
    wl.execute = slow_execute
    values, tally, ok, _ = run.measure_layers(wl, 1, 0.0, tmp_path)
    assert tally.failed == 0
    assert values["run.coverage_ok"] == 0.0 and not ok
    assert not json.loads(run.result_line(SPEC["per_layer"], values, tally, ok))["correct"]


def test_sample_digest_covers_the_camera():
    wl = GenerateWorkload(n_samples=1)
    wl.setup(3)
    sample = wl.regenerated[0][0]
    moved = dataclasses.replace(sample.camera, cx=sample.camera.cx + 0.5)
    assert sample_digest(sample) != sample_digest(dataclasses.replace(sample, camera=moved))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "generate",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


def test_collections_become_spans_nested_where_they_ran():
    tr = tracing.Tracer()
    with tracing.Patcher() as patcher:
        tracing.install_gc_spans(patcher, tr)
        outer = tr.enter("outer")
        gc.collect()
        tr.exit(outer)
    assert tracing.snapshot_bindings()[("gc", "callbacks")] == tuple(gc.callbacks)
    st = tracing.summarize(tr.spans)
    assert st["python.gc"].calls >= 1
    assert all(parent == 0 for name, _, _, parent in tr.spans if name == "python.gc")
    assert st["outer"].self_time == pytest.approx(st["outer"].total - st["python.gc"].total)
