"""Equal-operation-count A/B of stream-mixed's layers in two dynsketch checkouts.

    python3 tools/ab_blocks.py --before ../parent --after . --seed 1 \
        --blocks 30 --out BENCH_27.json

Each checkout gets one worker process, which imports that checkout's
``src/`` and ``perfbench/``, sets up perfbench's StreamMixed workload at the
seed and runs 2 warm-up operations. The controller then runs blocks of
``--ops`` operations alternately in the two workers: even blocks run the
``--before`` worker first and odd blocks the ``--after`` worker, so both
sides run the same operations, equal in count, and a drift of the host's
speed falls on both. perfbench's own runs end after a fixed time, and since
stream-mixed's operations grow heavier through a run, a faster tree there
runs heavier operations; here it does not.

A worker steps the workload with ``StreamMixed.step`` and hands it a tracer
whose ``span`` adds the time and the minor page faults (``ru_minflt``) of
each call into its layer: the batch kernel (``kernels``), the 32 lineage
maps (``lineage``), the per-point edits (``edits``), ``pack_supports``
(``pack``) and ``pairwise_estimates`` (``estimates``). A span name not in
``LAYER_OF`` stops the worker, so a change to the workload's calls cannot
go untimed. Every operation is checked off the clock against re-sketching,
as perfbench checks it, and each block's outputs (the hash matrix, the pack
and the lineage after every step, and the estimates after every operation)
are hashed into one digest per block.

For every layer the summary treats each block as one pair of ms/op (or
faults/op) values and gives the same fields and ``verdict`` as
``tools/paired_runs.py``, by the same rule. It also reports whether every
block's digests matched, the failed checks and each worker's ``ru_minflt``
and peak RSS. The summary is stored under ``runs`` in the ``--out`` file,
keyed by seed, size and block shape, next to whatever the file holds.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("kernels", "lineage", "edits", "pack", "estimates")
WARM_UP = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _paired_runs():
    path = Path(__file__).resolve().with_name("paired_runs.py")
    spec = importlib.util.spec_from_file_location("paired_runs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# perfbench's span names in a stream-mixed step, by layer.
LAYER_OF = {
    "engine.apply_batch_insert": "kernels",
    "engine.apply_batch_delete": "kernels",
    "permgen.multiple_lift_perm": "lineage",
    "permgen.multiple_drop_perm": "lineage",
    "core.insert_features": "edits",
    "core.delete_features": "edits",
    "engine.pack_supports": "pack",
    "engine.pairwise_estimates": "estimates",
}


def layer_tracer(tracer_cls):
    """A subclass of the checkout's ``Tracer`` that sums each span into its layer."""

    class LayerTracer(tracer_cls):
        def __init__(self):
            super().__init__(False)
            self.reset()

        def reset(self):
            self.times, self.faults = dict.fromkeys(LAYERS, 0.0), dict.fromkeys(LAYERS, 0)

        @contextmanager
        def span(self, name, calls=1):
            layer = LAYER_OF[name]
            flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = perf_counter()
            try:
                yield
            finally:
                self.times[layer] += perf_counter() - start
                self.faults[layer] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt

    return LayerTracer()


class Worker:
    """One checkout's StreamMixed, stepped by perfbench's own ``step``."""

    def __init__(self, tree: Path, seed: int, size: str, workdir: Path):
        sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
        import dynsketch
        import workloads
        from tracer import Tracer

        if not Path(dynsketch.__file__).resolve().is_relative_to(tree.resolve()):
            raise SystemExit(f"error: imported {dynsketch.__file__}, not the one under {tree}")
        self.wl = workloads.StreamMixed(seed, size, workdir, Tracer(False))
        self.wl.setup()
        # Set-up's spans are not timed; every step's are.
        self.wl.t = self.tracer = layer_tracer(Tracer)
        for i in range(WARM_UP):
            self.run(i, 1)

    def run(self, first: int, count: int) -> dict:
        """Operations first..first + count - 1, each checked off the clock."""
        wl = self.wl
        self.tracer.reset()
        digest = hashlib.sha256()
        failed = 0
        for i in range(first, first + count):
            states = wl.step(i)
            for h, pack, perms in states:
                for a in (h, pack.flat, pack.lengths, *(p.rank for p in perms)):
                    digest.update(a.astype("int64").tobytes())
            digest.update(wl.estimates.tobytes())
            failed += not wl.check(i, states)
        return {"times": self.tracer.times, "faults": self.tracer.faults,
                "digest": digest.hexdigest(), "failed": failed}


def serve(args) -> int:
    """Worker loop: a ``first count`` line runs a block; an empty line ends it."""
    with tempfile.TemporaryDirectory() as workdir:
        worker = Worker(args.worker, args.seed, args.size, Path(workdir))
        print(json.dumps({"ready": True}), flush=True)
        for line in sys.stdin:
            if not line.strip():
                break
            first, count = map(int, line.split())
            print(json.dumps(worker.run(first, count)), flush=True)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"minflt": usage.ru_minflt, "maxrss_mb": round(usage.ru_maxrss / 1024, 2)}), flush=True)
    return 0


def start(tree: Path, seed: int, size: str) -> subprocess.Popen:
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    cmd = [sys.executable, __file__, "--worker", str(tree.resolve()), "--seed", str(seed), "--size", size]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
    reply(proc)
    return proc


def reply(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise SystemExit(f"error: worker {' '.join(proc.args)} exited {proc.wait()}")
    return json.loads(line)


def block_metrics(block: dict, ops: int) -> dict:
    """One block as a paired_runs run: ms/op and faults/op per layer."""
    times, faults = block["times"], block["faults"]
    metrics = {f"{k}.ms": {"value": 1e3 * times[k] / ops, "unit": "ms/op"} for k in LAYERS}
    metrics["total.ms"] = {"value": 1e3 * sum(times.values()) / ops, "unit": "ms/op"}
    metrics.update({f"{k}.minflt": {"value": faults[k] / ops, "unit": "faults/op"} for k in LAYERS})
    return {"metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, help="the parent checkout")
    parser.add_argument("--after", type=Path, help="the changed checkout")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--blocks", type=int, default=30)
    parser.add_argument("--ops", type=int, default=10, help="operations per block")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return serve(args)
    if not (args.before and args.after and args.out):
        parser.error("--before, --after and --out are required")
    if args.blocks < 1 or args.ops < 1:
        parser.error("--blocks and --ops must be positive")

    workers = {"before": start(args.before, args.seed, args.size)}
    workers["after"] = start(args.after, args.seed, args.size)
    blocks = {"before": [], "after": []}
    for b in range(args.blocks):
        order = ("before", "after") if b % 2 == 0 else ("after", "before")
        for side in order:
            workers[side].stdin.write(f"{WARM_UP + b * args.ops} {args.ops}\n")
            workers[side].stdin.flush()
            blocks[side].append(reply(workers[side]))
        print(
            f"block {b}: " + ", ".join(
                f"{s} {1e3 * sum(r[-1]['times'].values()) / args.ops:.2f} ms/op" for s, r in blocks.items()
            ),
            file=sys.stderr,
        )
    usage = {}
    for side, proc in workers.items():
        proc.stdin.write("\n")
        proc.stdin.flush()
        usage[side] = reply(proc)
        proc.wait()

    before, after = ([block_metrics(r, args.ops) for r in blocks[s]] for s in ("before", "after"))
    spec = {name: {"better": "lower"} for name in before[0]["metrics"]}
    key = f"stream-mixed/seed{args.seed}/{args.size}/{args.blocks}x{args.ops}"
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("runs", {})[key] = {
        "blocks": args.blocks,
        "ops_per_block": args.ops,
        "ops_each_side": WARM_UP + args.blocks * args.ops,
        "first_block_runs": "before",
        "digests_match": all(
            x["digest"] == y["digest"] for x, y in zip(blocks["before"], blocks["after"])
        ),
        "failed_before": sum(r["failed"] for r in blocks["before"]),
        "failed_after": sum(r["failed"] for r in blocks["after"]),
        "worker_minflt": {s: u["minflt"] for s, u in usage.items()},
        "worker_maxrss_mb": {s: u["maxrss_mb"] for s, u in usage.items()},
        "metrics": _paired_runs().summarise(before, after, spec),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
