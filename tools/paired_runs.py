"""Alternating perfbench runs of two dynsketch checkouts, summarised as JSON.

    python3 tools/paired_runs.py --before ../parent --after . \
        --workload stream-mixed --seed 1 --pairs 10 --out BENCH_20.json

Each pair runs ``perfbench/run.py`` once in each checkout, each in a fresh
process; even pairs run the ``--before`` tree first and odd pairs the
``--after`` tree, so a drift of the host's speed falls on both sides. A tree
is the root of a dynsketch checkout, which holds ``perfbench/`` and
``BENCHMARK.json``.

For every metric on the last output line (the end-to-end metrics, or the
per-layer ones with ``--trace 1``) the summary gives both sides' per-run
values, quartiles and medians, the ratio of the medians, in how many pairs
the after side was better, in the direction ``BENCHMARK.json`` gives, and a
``verdict`` (see :func:`verdict`).
It also lists each run's ``attempted`` operation count, which a workload
whose operations grow heavier through a run (stream-mixed) needs beside its
metrics, its failed operations, and whether every run read the same input
checksums. The summary is stored under ``runs`` in the ``--out`` file,
keyed by workload, seed, trace mode and run length, next to whatever the
file already holds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run in ``tree``: its result line, plus a digest of the
    inputs from the report line before it."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    inputs = json.dumps(json.loads(report_line).get("inputs"), sort_keys=True)
    result["inputs_sha256"] = hashlib.sha256(inputs.encode()).hexdigest()
    return result


def significant(value: float) -> float:
    """``value`` to 6 significant digits, as every per-run value and quartile is reported."""
    return float(f"{value:.6g}")


def quartiles(values) -> list[float]:
    return [significant(q) for q in np.percentile(values, [25, 50, 75])]


# The fewest pairs that can read "better".
MIN_PAIRS = 10


def verdict(b: list[float], a: list[float], wins: int, lower: bool, bound: float | None) -> str:
    """The metric's verdict on before values ``b`` and after values ``a``,
    of which the after side won ``wins`` pairs.

    "better": over at least ``MIN_PAIRS`` pairs, the after side won at least
    9/10 of them (ties count for neither), and its median beats the before
    median by more than the before side's q3 - q1. Fewer pairs never read
    "better": 3 of 3 wins come by chance about one time in eight. "worse":
    the after median is worse than the before median by more than
    ``bound``, a share of the before median. "unresolved": the before
    side's q3 - q1 is wider than ``bound`` times its median, unless every
    after run beats every before run. "level": any other case. A per-layer
    metric has no bound, so it is "better" or "level".
    """
    q1, mb, q3 = np.percentile(b, [25, 50, 75])
    gain = (mb - np.median(a)) * (1 if lower else -1)
    if len(b) >= MIN_PAIRS and 10 * wins >= 9 * len(b) and gain > q3 - q1:
        return "better"
    if bound is None:
        return "level"
    if -gain > bound * mb:
        return "worse"
    all_beat = max(a) < min(b) if lower else min(a) > max(b)
    if q3 - q1 > bound * mb and not all_beat:
        return "unresolved"
    return "level"


def summarise(before: list[dict], after: list[dict], spec: dict) -> dict:
    """Per metric: both sides' values, quartiles, median ratio, the pairs
    the after side won and the verdict. ``spec`` maps each metric's name to
    its entry in ``BENCHMARK.json``."""
    out = {}
    for name in before[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in before]
        a = [r["metrics"][name]["value"] for r in after]
        lower = spec[name]["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, a))
        mb, ma = float(np.median(b)), float(np.median(a))
        out[name] = {
            "unit": before[0]["metrics"][name]["unit"],
            "better": "lower" if lower else "higher",
            "before": [significant(v) for v in b],
            "after": [significant(v) for v in a],
            "before_q1_median_q3": quartiles(b),
            "after_q1_median_q3": quartiles(a),
            "after_over_before": round(ma / mb, 4) if mb else None,
            "after_better_pairs": f"{wins}/{len(b)}",
            "verdict": verdict(b, a, wins, lower, spec[name].get("bound")),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--after", type=Path, required=True, help="the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    spec = json.loads((args.after / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    runs = {"before": [], "after": []}
    for i in range(args.pairs):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            tree = args.before if side == "before" else args.after
            runs[side].append(run_once(tree, args.workload, args.seed, args.seconds, args.trace))
        last = {s: runs[s][-1] for s in runs}
        print(
            f"pair {i}: " + ", ".join(
                f"{s} attempted {r['attempted']} failed {r['failed']}" for s, r in last.items()
            ),
            file=sys.stderr,
        )

    before, after = runs["before"], runs["after"]
    key = f"{args.workload}/seed{args.seed}/trace{args.trace}/s{args.seconds}"
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("runs", {})[key] = {
        "pairs": args.pairs,
        "first_pair_runs": "before",
        "attempted_before": [r["attempted"] for r in before],
        "attempted_after": [r["attempted"] for r in after],
        "failed_before": sum(r["failed"] for r in before),
        "failed_after": sum(r["failed"] for r in after),
        "inputs_match": len({r["inputs_sha256"] for r in before + after}) == 1,
        "metrics": summarise(before, after, metrics),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
