"""Benchmark harness: experiment runner, workload drawing, and the CLI."""

from dynsketch.bench.experiment import (
    ExperimentConfig,
    ExperimentReport,
    PathResult,
    emit_report,
    run_experiment,
)
from dynsketch.bench.synthetic import synthetic_corpus

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "PathResult",
    "emit_report",
    "run_experiment",
    "synthetic_corpus",
]
