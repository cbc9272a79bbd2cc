"""Run one dynsketch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch-wide --seed 1 --seconds 20 --trace 0

Run it from the root of a dynsketch checkout; it imports the library from
``src/`` and needs nothing installed beyond numpy and scipy. Each workload
runs in a fresh process with the BLAS/OpenMP thread variables pinned to 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the ``end_to_end`` metrics of BENCHMARK.json; with
``--trace 1`` they are its ``per_layer`` metrics, from a run that times every
call into a layer. Times are scaled to a fixed machine speed measured with
a reference loop between operations (see ``driver.REF_LOOP_S``); the raw
times are reported too, under ``raw_`` names.

The line before the last is the full report: every end-to-end metric with
its sample count, the input checksums, the environment, and for a traced run
the tracing overhead against an untraced run of the same seed and length.
Reports, spans and generated inputs go to ``perfbench/out/``.

    python3 perfbench/selftest.py

runs every workload at toy size and shows that the checks catch a corrupted
output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    """Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_driver():
    src = ROOT / "src"
    if not (src / "dynsketch" / "__init__.py").is_file():
        raise SystemExit(f"error: no dynsketch sources under {src}; run from a dynsketch checkout")
    sys.path.insert(0, str(src))
    import driver

    return driver


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    driver = import_driver()
    if args.workload not in driver.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(driver.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    name, seed, seconds, trace = args.workload, args.seed, args.seconds, args.trace

    tracer = driver.Tracer(bool(trace))
    report = driver.run_workload(name, seed, seconds, tracer, OUT)
    if trace:
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
        untraced = driver.load_result(OUT, name, seed, seconds, 0)
        report["tracing_overhead"] = (
            {
                m: report["metrics"][m]["value"] - untraced["metrics"][m]["value"]
                for m in report["metrics"]
                if m in untraced["metrics"]
            }
            if untraced
            else "no untraced run of this workload, seed and length in perfbench/out"
        )
        chosen, wanted = report["layers"], spec["per_layer"]
    else:
        chosen, wanted = report["metrics"], spec["end_to_end"]
    if name == "resketch-docword":
        base = driver.load_result(OUT, "batch-wide", seed, seconds, trace)
        if base:
            report["speedup_vs_batch_wide"] = (
                report["metrics"]["op_ms_p50"]["value"] / base["metrics"]["op_ms_p50"]["value"]
            )
    (OUT / f"result-{name}-seed{seed}-s{seconds}-trace{trace}.json").write_text(
        json.dumps(report, indent=1)
    )

    metrics = {}
    for m in wanted:
        got = chosen[m["name"]]
        if got["unit"] != m["unit"]:
            raise SystemExit(f"error: {m['name']} measured in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
