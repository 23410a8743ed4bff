"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload train|eval|generate --seed N \
        --seconds S --trace 0|1

With --trace 0 the workload's inputs are set up repeatedly for a fifth of
S seconds (setup_s is the median), then repetitions run untraced for the
rest and the end-to-end metrics are printed. With --trace 1 the S seconds
are shared by three interleaved kinds of repetition: untraced, traced at
layer level and traced at op level; the per-layer metrics are printed.
Earlier stdout lines hold the environment block and per-repetition
details; the last line is the result object. Metric names and units come
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, MissingSource, require_src  # noqa: E402

SETUP_SHARE = 0.2  # of --seconds, spent repeating the set-up
MIN_SETUPS = 3
MIN_REPS = 3
MIN_TRACE_CYCLES = 2
COVERAGE_TOLERANCE = 0.10  # largest share of a traced repetition outside every span
WORK_DIR = ".perfbench_work"


@dataclass
class Rep:
    wall_s: float
    failed: int
    extra: dict = field(default_factory=dict)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += min(failed, attempted)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_rep(wl, work: Path, tally: Tally, instrument=None) -> Rep:
    """One timed repetition; `instrument(patcher)` installs wrappers that
    are removed again before the outputs are checked."""
    from perfbench.tracing import Patcher

    # Autodiff graphs are reference cycles that only the cyclic collector
    # frees; collecting between repetitions gives each one the heap a
    # fresh call would see, so peak memory does not depend on run length.
    gc.collect()
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        # Installing and removing wrappers is timed too, so every span lies
        # inside the timed window and counts as tracing overhead.
        t0 = time.perf_counter()
        with Patcher() as patcher:
            if instrument is not None:
                instrument(patcher)
            try:
                out = wl.execute(tmp)
            except Exception:
                out = None
                traceback.print_exc()
        wall = time.perf_counter() - t0
        checked = wl.check(out, tmp) if out is not None else None
    if checked is None:
        tally.add(wl.ops_per_rep, wl.ops_per_rep)
        return Rep(wall, wl.ops_per_rep)
    tally.add(wl.ops_per_rep, checked.failed)
    return Rep(wall, checked.failed, checked.extra)


def run_setups(wl, seed: int, seconds: float, min_repeats: int = MIN_SETUPS
               ) -> tuple[list[float], bool]:
    """Set up the inputs at least `min_repeats` times and until `seconds`
    have passed; returns the set-up times and whether every set-up gave
    the same inputs. Only `wl.setup` is timed, not the hashing."""
    times, digests = [], []
    deadline = time.perf_counter() + seconds
    while len(times) < min_repeats or time.perf_counter() < deadline:
        gc.collect()  # as before a repetition: the previous inputs are freed
        t0 = time.perf_counter()
        wl.setup(seed)
        times.append(time.perf_counter() - t0)
        digests.append(wl.digest())
    return times, len(set(digests)) == 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure_end_to_end(wl, seed: int, seconds: float, work: Path):
    setup_times, setup_ok = run_setups(wl, seed, SETUP_SHARE * seconds)
    tally = Tally()
    run_rep(wl, work, tally)  # warm-up: checked, not timed
    reps = []
    deadline = time.perf_counter() + (1 - SETUP_SHARE) * seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        reps.append(run_rep(wl, work, tally))
    tally.add(*wl.final_check())
    metrics = {
        "setup_s": statistics.median(setup_times),
        "samples_per_s": statistics.median(wl.samples_per_rep / r.wall_s for r in reps),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ops_share": (tally.attempted - tally.failed) / tally.attempted,
    }
    details = {"setup_s": setup_times,
               "reps": [{"wall_s": r.wall_s, "failed": r.failed, **r.extra} for r in reps]}
    return metrics, tally, setup_ok, details


def measure_layers(wl, seed: int, seconds: float, work: Path):
    from perfbench import tracing

    baseline = tracing.snapshot_bindings()
    restored = True

    def instrumented(install):
        def run(tally):
            nonlocal restored
            rep = run_rep(wl, work, tally, install)
            restored &= tracing.snapshot_bindings() == baseline
            return rep
        return run

    wl.setup(seed)
    digest = wl.digest()
    setup_tracer, setup_draws = tracing.Tracer(), tracing.DrawCounter()
    with tracing.Patcher() as patcher:
        tracing.install_layer_spans(patcher, setup_tracer, wl.shapes)
        tracing.install_draw_counter(patcher, setup_draws)
        wl.setup(seed)
    same_inputs = wl.digest() == digest
    restored &= tracing.snapshot_bindings() == baseline

    layer_tracer, op_tracer, draws = tracing.Tracer(), tracing.Tracer(), tracing.DrawCounter()
    passes = {
        "untraced": instrumented(None),
        "layers": instrumented(lambda p: tracing.install_layer_spans(p, layer_tracer, wl.shapes)),
        "ops": instrumented(lambda p: tracing.install_op_spans(p, op_tracer, draws)),
    }
    reps = {name: [] for name in passes}
    tally = Tally()
    run_rep(wl, work, tally)  # warm-up: checked, not timed
    order = list(passes)
    deadline = time.perf_counter() + seconds
    while len(reps["untraced"]) < MIN_TRACE_CYCLES or time.perf_counter() < deadline:
        for name in order:
            reps[name].append(passes[name](tally))
        order = order[1:] + order[:1]  # no pass always runs first
    tally.add(*wl.final_check())

    layer = tracing.summarize(layer_tracer.spans)
    metrics = layer_metrics(wl, reps, layer, layer_tracer.spans,
                            tracing.summarize(op_tracer.spans),
                            tracing.summarize(setup_tracer.spans),
                            draws.draws / len(reps["ops"]), setup_draws.draws)
    if not restored:
        print("perfbench: wrappers were left installed after a traced pass", file=sys.stderr)
    covered = metrics["run.coverage_ok"] == 1.0
    if not covered:
        print(f"perfbench: spans cover less than {1 - COVERAGE_TOLERANCE:.0%} of the traced "
              "repetitions", file=sys.stderr)
    if abs(metrics["run.trace_overhead"] - 1.0) > COVERAGE_TOLERANCE:
        # Not a failure: on a shared host one repetition's wall time moves
        # by up to 20% with the load of other tenants, so two repetitions
        # of the same work can differ by more than this tolerance.
        print(f"perfbench: traced wall is {metrics['run.trace_overhead']:.3f}x the untraced "
              f"wall, outside {COVERAGE_TOLERANCE:.0%}", file=sys.stderr)
    self_ms = {name: st.self_time * 1e3 / len(reps["layers"]) for name, st in layer.items()}
    details = {"reps": {name: [{"wall_s": r.wall_s, "failed": r.failed, **r.extra}
                               for r in rs] for name, rs in reps.items()},
               "self_ms_per_rep": dict(sorted(self_ms.items(), key=lambda kv: -kv[1]))}
    return metrics, tally, restored and same_inputs and covered, details


def step_intervals(spans) -> list[float]:
    """Seconds between successive optimizer-step ends, each measured from
    the latest end of init_optim_state, adamw_step or save_checkpoint."""
    marks = sorted((end, name) for name, _, end, _ in spans if name in (
        "nn_core.init_optim_state", "nn_core.adamw_step", "nn_core.save_checkpoint"))
    out, last = [], None
    for end, name in marks:
        if name == "nn_core.adamw_step" and last is not None:
            out.append(end - last)
        last = end
    return out


def layer_metrics(wl, reps, layer, layer_spans, ops, setup, draws_per_rep, setup_draws) -> dict:
    from perfbench.tracing import BLOCKS, OP_KINDS, percentile, root_time

    n_layer, n_ops = len(reps["layers"]), len(reps["ops"])
    steps = wl.steps_per_rep

    def stats(name):
        """Span stats per repetition, or per set-up for set-up-only functions."""
        if name in layer:
            return layer[name], n_layer
        if name in setup:
            return setup[name], 1
        return None, 1

    def total_s(name):
        st, n = stats(name)
        return st.total / n if st else 0.0

    def per_step_ms(name):
        return total_s(name) * 1e3 / steps if steps else 0.0

    def call_ms(name, q):
        st, _ = stats(name)
        return percentile(st.durations, q) * 1e3 if st else 0.0

    def median_extra(key, pass_name="untraced"):
        vals = [r.extra[key] for r in reps[pass_name] if key in r.extra]
        return statistics.median(vals) if vals else 0.0

    def rate(key):
        vals = [wl.samples_per_rep / r.extra[key] for r in reps["untraced"] if key in r.extra]
        return statistics.median(vals) if vals else 0.0

    m = {
        "model.build_model.s": total_s("model.build_model"),
        "rng.draws": draws_per_rep,
        "rng.setup_draws": setup_draws,
        "nn_core.forward_backward.ms_per_step": per_step_ms("nn_core.forward_backward"),
        "nn_core.backward.ms_per_step": per_step_ms("nn_core.backward"),
    }
    for kind in OP_KINDS:
        fwd, bwd = ops.get(f"nn_core.op.{kind}.fwd"), ops.get(f"nn_core.op.{kind}.bwd")
        m[f"nn_core.op.{kind}.fwd_ms"] = fwd.self_time * 1e3 / n_ops if fwd else 0.0
        m[f"nn_core.op.{kind}.bwd_ms"] = bwd.self_time * 1e3 / n_ops if bwd else 0.0
        m[f"nn_core.op.{kind}.calls"] = fwd.calls / n_ops if fwd else 0.0
    m["model.forward_batch.ms"] = total_s("model.forward_batch") * 1e3
    for block in BLOCKS:
        m[f"model.{block}.fwd_ms"] = total_s(f"model.{block}") * 1e3
    for name in ("matching.build_cost_matrix", "matching.hungarian", "matching.set_loss",
                 "nn_core.adamw_step", "data.augment"):
        m[f"{name}.ms_per_step"] = per_step_ms(name)
    hungarian, _ = stats("matching.hungarian")
    m["matching.hungarian.calls"] = hungarian.calls / n_layer if hungarian else 0.0
    m["nn_core.save_checkpoint.ms"] = total_s("nn_core.save_checkpoint") * 1e3
    m["nn_core.save_checkpoint.bytes"] = median_extra("checkpoint_bytes")
    intervals = step_intervals(layer_spans)
    m["train_eval.step_ms.p50"] = percentile(intervals, 50) * 1e3 if intervals else 0.0
    m["train_eval.step_ms.p90"] = percentile(intervals, 90) * 1e3 if intervals else 0.0
    m["train_eval.train.s"] = total_s("train_eval.train")
    m["python.gc.ms"] = total_s("python.gc") * 1e3
    m["train_loss_last_epoch"] = median_extra("loss_last_epoch")
    for name in ("train_eval.evaluate", "train_eval.predict", "model.decode_predictions",
                 "train_eval.score_predictions", "hand_model.rescale_depth",
                 "data.render_scene"):
        m[f"{name}.ms"] = total_s(name) * 1e3
    m["data.generate_sample.ms.p50"] = call_ms("data.generate_sample", 50)
    m["data.generate_sample.ms.p90"] = call_ms("data.generate_sample", 90)
    m["data.write_dataset.s"] = total_s("data.write_dataset")
    m["data.read_dataset.s"] = total_s("data.read_dataset")
    m["data.bytes_written"] = median_extra("bytes_written")
    m["gen_samples_per_s"] = rate("gen_s")
    m["io_samples_per_s"] = rate("io_s")

    def overhead(name):
        """Median over cycles of traced wall / untraced wall in that cycle."""
        return statistics.median(t.wall_s / u.wall_s
                                 for t, u in zip(reps[name], reps["untraced"]))

    m["run.rep_ms"] = statistics.median(r.wall_s for r in reps["untraced"]) * 1e3
    traced_s = sum(r.wall_s for r in reps["layers"])
    unattributed_s = traced_s - root_time(layer_spans)
    m["run.unattributed_ms"] = unattributed_s * 1e3 / n_layer
    m["run.trace_overhead"] = overhead("layers")
    m["run.op_trace_overhead"] = overhead("ops")
    m["run.coverage_ok"] = float(unattributed_s <= COVERAGE_TOLERANCE * traced_s)
    return m


def result_line(spec_metrics, values: dict, tally: Tally, checks_ok: bool) -> str:
    metrics = {}
    for entry in spec_metrics:
        value = float(values[entry["name"]])
        if not math.isfinite(value):
            raise ValueError(f"metric {entry['name']} is {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps({"correct": checks_ok and tally.failed == 0,
                       "attempted": tally.attempted, "failed": tally.failed,
                       "metrics": metrics}, allow_nan=False)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "eval", "generate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


@contextlib.contextmanager
def work_dir():
    """Scratch space inside the checkout, removed afterwards."""
    root = ROOT / WORK_DIR
    root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            yield Path(tmp)
    finally:
        with contextlib.suppress(OSError):
            root.rmdir()


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        src = require_src()
        spec = load_spec()
    except (MissingSource, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    from perfbench.envinfo import environment
    from perfbench.workloads import WORKLOADS

    env = environment(src)
    print(json.dumps({"environment": env}))
    if env["threads_exceed_nproc"]:
        print("perfbench: BLAS thread count exceeds nproc", file=sys.stderr)
    wl = WORKLOADS[args.workload]()
    with work_dir() as work:
        if args.trace:
            values, tally, ok, details = measure_layers(wl, args.seed, args.seconds, work)
            spec_metrics = spec["per_layer"]
        else:
            values, tally, ok, details = measure_end_to_end(wl, args.seed, args.seconds, work)
            spec_metrics = spec["end_to_end"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      **details}))
    print(result_line(spec_metrics, values, tally, ok))
    return 0


if __name__ == "__main__":
    sys.exit(main())
