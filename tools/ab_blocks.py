"""Equal-operation-count A/B of a perfbench workload's spans in two dynsketch checkouts.

    python3 tools/ab_blocks.py --before ../parent --after . \
        --workload stream-mixed --seed 1 --blocks 30 --out BENCH_28.json

Each checkout gets one worker process, which pins the thread variables its
``perfbench/run.py`` lists before numpy is imported, imports that checkout's
``src/`` and ``perfbench/``, sets up the workload at the seed and runs 2
warm-up operations. The controller then runs blocks of ``--ops`` operations
alternately in the two workers, the ``--before`` worker first in even
blocks, so both sides run the same operations, equal in count, and a drift
of the host's speed falls on both. (perfbench's runs end after a fixed time,
so where operations grow heavier through a run, as in stream-mixed, a faster
tree runs heavier ones.)

A worker runs each operation through the workload's own ``step`` with a
tracer whose ``span`` adds the time and the minor page faults (``ru_minflt``)
of each call under the span's name: every span the step opens is a layer.
Off the clock, it checks the operations the workload's ``checks`` selects
and calls ``finish_op``, as perfbench does, and hashes each operation's
output and the arrays the workload keeps as state (stream-mixed's estimates)
into one digest per block: arrays by their bytes, integer ones widened to
int64, other objects by their fields.

Per block, ``<span>.ms`` and ``<span>.minflt`` are a span's ms and faults per
operation and ``total.ms`` the whole step's ms per operation; the summary
treats each block as one pair and gives the fields and ``verdict`` of
``tools/paired_runs.py``, by the same rule. It also reports whether every
block's digests matched, the checked and failed operations, the workers'
pinned thread variables, ``ru_minflt`` and peak RSS. It is stored under
``runs`` in the ``--out`` file, keyed by workload, seed, size and block
shape, next to whatever the file holds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

WARM_UP = 2


def span_tracer(tracer_cls):
    """A subclass of the checkout's ``Tracer`` that sums each span under its name."""

    class SpanTracer(tracer_cls):
        def __init__(self):
            super().__init__(False)
            self.times, self.faults = defaultdict(float), defaultdict(int)

        @contextmanager
        def span(self, name, calls=1):
            flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = perf_counter()
            try:
                yield
            finally:
                self.times[name] += perf_counter() - start
                self.faults[name] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt

    return SpanTracer


def feed(digest, value) -> None:
    """Hash ``value`` into ``digest``: an array by its bytes, widened to int64
    if integer; a list or tuple item by item; an object by its fields."""
    if hasattr(value, "dtype"):
        digest.update((value.astype("int64") if value.dtype.kind in "biu" else value).tobytes())
    elif isinstance(value, (list, tuple)):
        for item in value:
            feed(digest, item)
    elif hasattr(value, "__dict__"):
        feed(digest, list(vars(value).values()))
    else:
        digest.update(repr(value).encode())


class Worker:
    """One checkout's workload, stepped by perfbench's own ``step``."""

    def __init__(self, tree: Path, workload: str, seed: int, size: str, workdir: Path):
        sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
        if "numpy" in sys.modules:
            raise SystemExit("error: numpy was imported before the thread variables were pinned")
        import run

        run.pin_threads()
        self.thread_vars = {var: os.environ[var] for var in run.THREAD_VARS}
        import dynsketch
        import workloads
        from tracer import Tracer

        if not Path(dynsketch.__file__).resolve().is_relative_to(tree.resolve()):
            raise SystemExit(f"error: imported {dynsketch.__file__}, not the one under {tree}")
        if workload not in workloads.WORKLOADS:
            raise SystemExit(f"error: --workload must be one of {', '.join(workloads.WORKLOADS)}")
        self.wl = workloads.WORKLOADS[workload](seed, size, workdir, Tracer(False))
        self.wl.setup()
        # Set-up's spans are not timed; every step's are.
        self.tracer_cls = span_tracer(Tracer)
        self.run(0, WARM_UP)

    def run(self, first: int, count: int) -> dict:
        """Operations first..first + count - 1, selected ones checked off the clock."""
        wl = self.wl
        wl.t = tracer = self.tracer_cls()
        digest = hashlib.sha256()
        total = 0.0
        checked = failed = 0
        for i in range(first, first + count):
            start = perf_counter()
            out = wl.step(i)
            total += perf_counter() - start
            feed(digest, out)
            feed(digest, [v for v in vars(wl).values() if hasattr(v, "dtype")])
            if wl.checks(i):
                checked += 1
                failed += not wl.check(i, out)
            wl.finish_op(i, out)
        return {"times": tracer.times, "faults": tracer.faults, "total": total,
                "digest": digest.hexdigest(), "checked": checked, "failed": failed}


def serve(args) -> int:
    """Worker loop: a ``first count`` line runs a block; an empty line ends it."""
    with tempfile.TemporaryDirectory() as workdir:
        worker = Worker(args.worker, args.workload, args.seed, args.size, Path(workdir))
        print(json.dumps({"ready": True}), flush=True)
        for line in sys.stdin:
            if not line.strip():
                break
            first, count = map(int, line.split())
            print(json.dumps(worker.run(first, count)), flush=True)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"minflt": usage.ru_minflt, "maxrss_mb": round(usage.ru_maxrss / 1024, 2),
                      "thread_vars": worker.thread_vars}), flush=True)
    return 0


def start(tree: Path, args) -> subprocess.Popen:
    cmd = [sys.executable, __file__, "--worker", str(tree.resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    reply(proc)
    return proc


def reply(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise SystemExit(f"error: worker {' '.join(proc.args)} exited {proc.wait()}")
    return json.loads(line)


def block_metrics(block: dict, spans: list[str], ops: int) -> dict:
    """One block as a paired_runs run; a span the block did not open counts 0."""
    times, faults = block["times"], block["faults"]
    metrics = {f"{s}.ms": {"value": 1e3 * times.get(s, 0.0) / ops, "unit": "ms/op"} for s in spans}
    metrics["total.ms"] = {"value": 1e3 * block["total"] / ops, "unit": "ms/op"}
    metrics.update({f"{s}.minflt": {"value": faults.get(s, 0) / ops, "unit": "faults/op"} for s in spans})
    return {"metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, help="the parent checkout")
    parser.add_argument("--after", type=Path, help="the changed checkout")
    parser.add_argument("--workload", required=True)
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
    # Not at the top: paired_runs imports numpy, which a worker must not import before pinning.
    from paired_runs import summarise

    workers = {side: start(getattr(args, side), args) for side in ("before", "after")}
    blocks = {"before": [], "after": []}
    for b in range(args.blocks):
        order = ("before", "after") if b % 2 == 0 else ("after", "before")
        for side in order:
            workers[side].stdin.write(f"{WARM_UP + b * args.ops} {args.ops}\n")
            workers[side].stdin.flush()
            blocks[side].append(reply(workers[side]))
        print(f"block {b}: " + ", ".join(
            f"{s} {1e3 * r[-1]['total'] / args.ops:.2f} ms/op" for s, r in blocks.items()
        ), file=sys.stderr)
    usage = {}
    for side, proc in workers.items():
        proc.stdin.write("\n")
        proc.stdin.flush()
        usage[side] = reply(proc)
        proc.wait()

    spans = list(dict.fromkeys(s for side in blocks.values() for r in side for s in r["times"]))
    before, after = ([block_metrics(r, spans, args.ops) for r in blocks[s]] for s in ("before", "after"))
    spec = {name: {"better": "lower"} for name in before[0]["metrics"]}
    key = f"{args.workload}/seed{args.seed}/{args.size}/{args.blocks}x{args.ops}"
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("runs", {})[key] = {
        "blocks": args.blocks,
        "ops_per_block": args.ops,
        "ops_each_side": WARM_UP + args.blocks * args.ops,
        "first_block_runs": "before",
        "digests_match": all(
            x["digest"] == y["digest"] for x, y in zip(blocks["before"], blocks["after"])
        ),
        "checked": {s: sum(r["checked"] for r in rs) for s, rs in blocks.items()},
        "failed": {s: sum(r["failed"] for r in rs) for s, rs in blocks.items()},
        "worker_thread_vars": {s: u["thread_vars"] for s, u in usage.items()},
        "worker_minflt": {s: u["minflt"] for s, u in usage.items()},
        "worker_maxrss_mb": {s: u["maxrss_mb"] for s, u in usage.items()},
        "metrics": summarise(before, after, spec),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
