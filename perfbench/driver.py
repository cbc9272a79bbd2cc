"""Closed-loop run of one workload and the metrics it reports.

One caller, single-threaded: the next operation starts only after the
previous one returned. The timed phase runs operations until their summed
time reaches the requested seconds; checks, counters and bookkeeping run
between operations with the clock stopped. Set-up is timed ``setup_reps``
times, once before the first operation and the rest spread over the timed
phase, and reported as the median.
"""

from __future__ import annotations

import copy
import json
import os
import platform
import resource
import statistics
import sys
from collections import deque
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from tracer import OP, SETUP, Tracer
from workloads import WORKLOADS

# Layers whose calls happen inside operations, and those that run in set-up.
OP_LAYERS = (
    "permgen.multiple_lift_perm",
    "permgen.multiple_drop_perm",
    "engine.apply_batch_insert",
    "engine.apply_batch_delete",
    "permgen.random_permutation",
    "engine.sketch_matrix",
    "engine.pairwise_estimates",
    "core.insert_features",
    "core.delete_features",
    "engine.pack_supports",
    "sketch.build_sketch",
    "sketch.update_sketch_insert",
    "sketch.update_sketch_delete",
    "estimate.jaccard_estimate",
)
OP_COUNTS = (
    "permgen.multiple_lift_perm.positions",
    "permgen.multiple_drop_perm.positions",
    "engine.apply_batch_delete.rescan_slots",
    "engine.apply_batch_delete.slots",
    "engine.pairwise_estimates.pairs",
)
SETUP_LAYERS = (
    "ingest.load_docword",
    "engine.pack_supports",
    "permgen.random_permutation",
    "engine.sketch_matrix",
    "sketch.build_sketch",
)
SETUP_COUNTS = ("ingest.load_docword.triples",)

# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

# The machine's speed is not steady: its cores are shared with other work,
# and it switches between states up to 1.4x apart that last from seconds to
# minutes, which moves raw medians by a quarter between runs. So every time
# is also reported scaled to a fixed speed: a reference loop, which runs no
# dynsketch code, is timed between operations, and a time measured while the
# loop takes r seconds is multiplied by REF_LOOP_S / r, with r the median of
# the last few calibrations. The loop mixes the kinds of work dynsketch does
# (interpreted Python, numpy calls on small arrays, numpy passes over arrays
# the size of a permutation) in about the shares that made its slowdown
# track the workloads' when the other core was kept busy. REF_LOOP_S is about
# the loop's time on the machine the bounds were set on (Intel Xeon at
# 2.0 GHz, 2 vCPUs), so scaled times there read close to raw ones.
REF_LOOP_S = 0.005
CALIBRATE_EVERY_S = 0.5
_rng = np.random.default_rng(0)
_REF_SMALL = _rng.permutation(1 << 14)
_REF_WIDE = _rng.permutation(20000)
_REF_GATHER = _rng.integers(0, 20000, 4000)


def reference_loop() -> int:
    acc = 0
    for i in range(12000):
        acc += i * i
    for k in range(160):
        block = _REF_SMALL[(k % 64) * 256 : (k % 64 + 1) * 256]
        acc += int(np.searchsorted(np.sort(block), block[:8]).sum())
    for k in range(24):
        wide = _REF_WIDE + k
        acc += int(np.bincount(wide[_REF_GATHER] % 20000, minlength=20000).max())
        acc += int((wide > 10000).sum())
    return acc


class Speed:
    """The current time scale, from the latest reference-loop calibrations."""

    def __init__(self):
        self.recent = deque(maxlen=5)
        self.history = []
        for _ in range(3):
            self.calibrate()

    def calibrate(self) -> None:
        start = perf_counter()
        reference_loop()
        self.recent.append(perf_counter() - start)
        self.history.append(self.recent[-1])

    @property
    def scale(self) -> float:
        return REF_LOOP_S / statistics.median(self.recent)


def run_workload(name, seed, seconds, tracer: Tracer, workdir: Path, size="full", corrupt=False) -> dict:
    """Run one workload and return its report: metrics, checks, inputs, environment."""
    trace = tracer.enabled
    wl = WORKLOADS[name](seed, size, workdir, tracer)

    speed = Speed()
    setup_times, setup_scaled = [], []

    def timed_setup(target):
        speed.calibrate()
        start = perf_counter()
        with tracer.root(SETUP, f"setup{len(setup_times)}"):
            target.setup()
        setup_times.append(perf_counter() - start)
        setup_scaled.append(setup_times[-1] * speed.scale)

    timed_setup(wl)
    op_times, op_scaled = [], []
    timed = since_calibration = 0.0
    checked = mismatched = 0
    i = 0
    while timed < seconds or i < wl.min_ops:
        if trace:
            wl.before_op(i)
        if since_calibration >= CALIBRATE_EVERY_S:
            speed.calibrate()
            since_calibration = 0.0
        start = perf_counter()
        with tracer.root(OP, f"op{i}"):
            out = wl.step(i)
        op_times.append(perf_counter() - start)
        op_scaled.append(op_times[-1] * speed.scale)
        timed += op_times[-1]
        since_calibration += op_times[-1]
        if wl.checks(i):
            if corrupt and checked == 0:
                out = wl.corrupt(i, out)
            checked += 1
            mismatched += not wl.check(i, out)
        wl.finish_op(i, out)
        del out
        i += 1
        # The machine's speed drifts over seconds, so the other set-up
        # repetitions are spread over the run. Each sets up a copy of the
        # workload, leaving the running state alone.
        if len(setup_times) < wl.setup_reps * min(1.0, timed / seconds):
            timed_setup(copy.copy(wl))
    while len(setup_times) < wl.setup_reps:
        timed_setup(copy.copy(wl))

    metrics = {
        **_timings("", setup_scaled, op_scaled),
        **_timings("raw_", setup_times, op_times),
        "ref_loop_ms": _metric(statistics.median(speed.history) * 1e3, "ms", len(speed.history)),
        "mismatch_frac": _metric(mismatched / checked if checked else 0.0, "fraction", checked),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    if wl.rmse is not None:
        metrics["rmse"] = _metric(wl.rmse, "jaccard", 1)

    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "config": wl.cfg,
        "attempted": len(op_times),
        "checked": checked,
        "failed": mismatched,
        "metrics": metrics,
        "inputs": wl.inputs,
        "environment": environment(),
    }
    if trace:
        report["layers"] = layer_metrics(tracer, len(op_times), len(setup_times))
    return report


def _timings(prefix, setup_times, op_times) -> dict:
    ms = np.array(op_times) * 1e3
    out = {
        "setup_s": _metric(statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": _metric(len(op_times) / sum(op_times), "1/s", len(op_times)),
        "op_ms_p50": _metric(float(np.median(ms)), "ms", len(op_times)),
    }
    p90 = float(np.percentile(ms, 90))
    if int((ms > p90).sum()) >= TAIL_SAMPLES:
        out["op_ms_p90"] = _metric(p90, "ms", len(op_times))
    return {prefix + name: m for name, m in out.items()}


def _metric(value, unit, samples):
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def layer_metrics(tracer: Tracer, ops: int, setups: int) -> dict:
    """Per-layer self time and counts, per operation and per set-up repetition."""
    s = tracer.summary()
    out = {}
    for layer in OP_LAYERS:
        out[f"{layer}.s"] = (s["self_s"][(OP, layer)] / ops, "s/op")
        out[f"{layer}.calls"] = (s["calls"][(OP, layer)] / ops, "count/op")
    for counter in OP_COUNTS:
        out[counter] = (s["counts"][(OP, counter)] / ops, "count/op")
    out["bench.untraced.s"] = (s["self_s"][(OP, OP)] / ops, "s/op")
    out["bench.op.s"] = (s["total_s"][(OP, OP)] / ops, "s/op")
    out["bench.ops"] = (ops, "count")
    for layer in SETUP_LAYERS:
        out[f"setup.{layer}.s"] = (s["self_s"][(SETUP, layer)] / setups, "s/setup")
    for counter in SETUP_COUNTS:
        out[f"setup.{counter}"] = (s["counts"][(SETUP, counter)] / setups, "count/setup")
    out["setup.untraced.s"] = (s["self_s"][(SETUP, SETUP)] / setups, "s/setup")
    out["setup.s"] = (s["total_s"][(SETUP, SETUP)] / setups, "s/setup")
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in out.items()}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_vars": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")
                        or k == "VECLIB_MAXIMUM_THREADS"},
        "git_commit": _git_commit(Path(__file__).resolve().parent.parent),
        "argv": sys.argv,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_result(outdir: Path, name: str, seed: int, seconds: int, trace: int):
    path = outdir / f"result-{name}-seed{seed}-s{seconds}-trace{trace}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None
