"""The verdicts of ``tools/paired_runs.py`` on synthetic per-run values."""

import importlib.util
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
        # One pair: won, with no spread on the parent side.
        ("ops_per_s", [100], [101], "better"),
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
