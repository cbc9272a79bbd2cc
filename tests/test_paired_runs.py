"""The verdicts and rounding of ``tools/paired_runs.py`` on synthetic per-run
values, and toy-size runs of ``tools/ab_blocks.py``."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "paired_runs.py"
_SPEC = importlib.util.spec_from_file_location("paired_runs", _PATH)
paired_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_runs)

SPEC = {
    "ops_per_s": {"better": "higher", "bound": 0.25},
    "op_ms_p50": {"better": "lower", "bound": 0.25},
    "layer.s": {"better": "lower"},
}


def runs(name, values):
    return [{"metrics": {name: {"value": v, "unit": "u"}}} for v in values]


@pytest.mark.parametrize(
    "name, before, after, expected",
    [
        # 10/10 pairs won, medians 10 apart against a parent IQR of 1.5.
        ("ops_per_s", [99, 100, 101, 100, 99, 101, 100, 100, 99, 101], [110] * 10, "better"),
        # 9/10 pairs won is enough; a tie counts for neither side.
        ("op_ms_p50", [10.0] * 10, [9.0] * 9 + [10.0], "better"),
        ("op_ms_p50", [10.0] * 10, [9.0] * 8 + [10.0, 10.0], "level"),
        # Every pair won, but by less than the parent's IQR.
        ("ops_per_s", [90, 95, 100, 105, 110], [91, 96, 101, 106, 111], "level"),
        # Fewer than 10 pairs never read better, however clear the win:
        # one pair, 3 of 3 and 9 of 9.
        ("ops_per_s", [100], [101], "level"),
        ("ops_per_s", [99, 100, 101], [110] * 3, "level"),
        ("op_ms_p50", [10.0] * 9, [9.0] * 9, "level"),
        ("layer.s", [5.0] * 9, [4.0] * 9, "level"),
        # 9 of 10 is the fewest wins that read better.
        ("ops_per_s", [100] * 10, [110] * 9 + [100], "better"),
        ("ops_per_s", [100] * 10, [110] * 8 + [100] * 2, "level"),
        # The after median 30% worse than the before median, past the 0.25 bound.
        ("op_ms_p50", [10.0, 10.1, 9.9], [13.0, 13.1, 12.9], "worse"),
        ("ops_per_s", [100, 101, 99], [70, 71, 69], "worse"),
        # 20% worse is inside the bound.
        ("op_ms_p50", [10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "level"),
        # The parent's IQR (100) is wider than 0.25 of its median (150).
        ("ops_per_s", [50, 100, 150, 200, 250], [140, 160, 150, 145, 155], "unresolved"),
        # As wide (IQR 11 against 0.25 * 30), but every after run beats every
        # before run by less than the IQR: neither better nor unresolved.
        ("ops_per_s", [10, 20, 30, 31, 32], [33] * 5, "level"),
        # A per-layer metric has no bound: only better or level.
        ("layer.s", [1.0, 1.0, 1.0], [10.0, 10.0, 10.0], "level"),
        ("layer.s", [1.0, 2.0, 3.0, 4.0, 5.0], [1.5, 2.5, 3.5, 4.5, 5.5], "level"),
        ("layer.s", [5.0] * 10, [4.0] * 10, "better"),
    ],
)
def test_summarise_gives_each_metric_a_verdict(name, before, after, expected):
    summary = paired_runs.summarise(runs(name, before), runs(name, after), SPEC)
    assert summary[name]["verdict"] == expected


@pytest.mark.parametrize("value, expected", [(2.16912345e-3, 2.16912e-3), (5.1e-6, 5.1e-6)])
def test_summarise_keeps_six_significant_digits(value, expected):
    # A traced layer in seconds: 4 decimals left 2.169e-3 as 0.0022 and
    # 5.1e-6 as 0.0 in the quartiles, and 6 decimals left 5e-06 per run.
    same = runs("layer.s", [value] * 3)
    (summary,) = paired_runs.summarise(same, same, SPEC).values()
    assert summary["before"] == summary["after"] == [expected] * 3
    assert summary["before_q1_median_q3"] == summary["after_q1_median_q3"] == [expected] * 3


ROOT = _PATH.parent.parent
_RUN_SPEC = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
perfbench_run = importlib.util.module_from_spec(_RUN_SPEC)
_RUN_SPEC.loader.exec_module(perfbench_run)

# The spans each workload's step opens.
STEP_SPANS = {
    "stream-mixed": (
        "engine.apply_batch_insert", "engine.apply_batch_delete", "permgen.multiple_lift_perm",
        "permgen.multiple_drop_perm", "core.insert_features", "core.delete_features",
        "engine.pack_supports", "engine.pairwise_estimates",
    ),
    "batch-wide": ("engine.apply_batch_insert", "engine.apply_batch_delete"),
    "resketch-docword": (
        "core.insert_features", "core.delete_features", "engine.pack_supports",
        "permgen.random_permutation", "engine.sketch_matrix", "engine.pairwise_estimates",
    ),
    "point-api": (
        "sketch.build_sketch", "sketch.update_sketch_insert", "sketch.update_sketch_delete",
        "estimate.jaccard_estimate",
    ),
}


def ab_blocks(before, after, workload, out):
    """A toy-size ab_blocks run of 3 blocks of 2 operations; its one record."""
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_blocks.py"), "--before", str(before),
         "--after", str(after), "--workload", workload, "--size", "toy", "--blocks", "3",
         "--ops", "2", "--out", str(out)],
        check=True, capture_output=True,
    )
    (run,) = json.loads(out.read_text())["runs"].values()
    return run


@pytest.mark.parametrize("workload", sorted(STEP_SPANS))
def test_ab_blocks_on_one_tree_matches_itself(tmp_path, workload):
    # Both workers run this checkout's workload: the same operations give
    # the same digests, every check passes, and with fewer than 10 blocks no
    # metric can read better.
    run = ab_blocks(ROOT, ROOT, workload, tmp_path / "ab.json")
    assert run["digests_match"] is True
    assert run["checked"]["before"] == run["checked"]["after"]
    assert run["failed"] == {"before": 0, "after": 0}
    assert run["ops_each_side"] == 2 + 3 * 2
    spans = STEP_SPANS[workload]
    assert set(run["metrics"]) == {f"{s}.{m}" for s in spans for m in ("ms", "minflt")} | {"total.ms"}
    assert {m["verdict"] for m in run["metrics"].values()} == {"level"}
    # Every span ran in every block, inside the step's time.
    for side in ("before", "after"):
        assert all(min(run["metrics"][f"{s}.ms"][side]) > 0 for s in spans)
        span_ms = [sum(run["metrics"][f"{s}.ms"][side][b] for s in spans) for b in range(3)]
        assert all(t <= total for t, total in zip(span_ms, run["metrics"]["total.ms"][side]))
    # The workers pinned the thread variables perfbench pins.
    pinned = dict.fromkeys(perfbench_run.THREAD_VARS, "1")
    assert run["worker_thread_vars"] == {"before": pinned, "after": pinned}


def test_ab_blocks_reads_an_altered_output(tmp_path):
    # A copy of this tree whose all-pairs estimates are off by one in their
    # first entry: stream-mixed keeps the estimates as state, and its checks,
    # which re-sketch the hash matrix, still pass.
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__", "out"))
    with open(tmp_path / "src" / "dynsketch" / "bench" / "engine.py", "a", encoding="utf-8") as engine:
        engine.write(
            "\n\n_estimates = pairwise_estimates\n\n\n"
            "def pairwise_estimates(h):\n"
            "    out = _estimates(h)\n"
            "    out[0] += 1.0\n"
            "    return out\n"
        )
    run = ab_blocks(ROOT, tmp_path, "stream-mixed", tmp_path / "ab.json")
    assert run["digests_match"] is False
    assert run["failed"] == {"before": 0, "after": 0}
