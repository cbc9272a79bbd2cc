"""Workload drawing for the benchmark paths.

One workload (positions, and bits for insertion) is drawn per experiment
and consumed identically by every path; the checksum lets the runner assert
that no path saw a different workload. Sweeps over the batch size reuse
prefixes of a single drawn sequence so that n=8 is literally the first
eight updates of the n=64 run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from dynsketch.core import DeletionBatch, InsertionBatch, ValidationError, _as_int

# The workload stream, SeedSequence([seed, 13]), is also the stream of
# permutation 13 under the same master seed. It stays, as the benchmark's
# pinned digests are built on it.
_WORKLOAD_STREAM = 13


@dataclass(frozen=True)
class Workload:
    mode: str
    batch: InsertionBatch | DeletionBatch
    checksum: str


@dataclass(frozen=True)
class WorkloadPlan:
    """A drawn update sequence whose sorted prefixes become batches."""

    mode: str
    dim: int
    positions: tuple[int, ...]  # distinct, in draw order
    bits: tuple[int, ...]       # aligned with positions; all 0 for deletions

    def workload(self, n: int) -> Workload:
        if not 1 <= _as_int(n, "batch size") <= len(self.positions):
            raise ValidationError(
                f"batch size {n} out of range 1..{len(self.positions)}"
            )
        pairs = sorted(zip(self.positions[:n], self.bits[:n]))
        positions = tuple(p for p, _ in pairs)
        if self.mode == "insert":
            batch = InsertionBatch(positions, tuple(b for _, b in pairs))
            return Workload("insert", batch, _digest("insert", positions, batch.bits))
        batch = DeletionBatch(positions)
        return Workload("delete", batch, _digest("delete", positions, ()))


def _digest(mode: str, positions, bits) -> str:
    blob = ";".join(
        [mode, ",".join(map(str, positions)), ",".join(map(str, bits))]
    )
    return hashlib.sha1(blob.encode("ascii")).hexdigest()[:16]


def digest_batch(mode: str, batch) -> str:
    """Checksum of the workload a path is about to consume."""
    bits = batch.bits if isinstance(batch, InsertionBatch) else ()
    return _digest(mode, batch.positions, bits)


def _as_probability(value, what: str) -> float:
    """``value`` as a float in [0, 1]; a string or other non-number is
    refused rather than compared."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{what} {value!r} is not a number")
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{what} must lie in [0, 1]")
    return float(value)


def draw_insertion_plan(dim: int, max_n: int, one_prob: float, seed: int) -> WorkloadPlan:
    """Distinct positions uniform over {1..dim}, each bit 1 with ``one_prob``."""
    _check(dim, max_n, seed)
    one_prob = _as_probability(one_prob, "one_prob")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _WORKLOAD_STREAM]))
    positions = rng.choice(dim, size=max_n, replace=False) + 1
    bits = (rng.random(max_n) < one_prob).astype(np.int64)
    return WorkloadPlan(
        "insert",
        dim,
        tuple(int(p) for p in positions),
        tuple(int(b) for b in bits),
    )


def draw_deletion_plan(dim: int, max_n: int, seed: int) -> WorkloadPlan:
    """Distinct positions uniform over {1..dim}, drawn without replacement."""
    _check(dim, max_n, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _WORKLOAD_STREAM]))
    positions = rng.choice(dim, size=max_n, replace=False) + 1
    return WorkloadPlan(
        "delete", dim, tuple(int(p) for p in positions), (0,) * max_n
    )


def _check(dim: int, max_n: int, seed: int) -> None:
    if _as_int(dim, "dimension") < 1:
        raise ValidationError("dimension must be at least 1")
    if not 1 <= _as_int(max_n, "batch size") <= dim:
        raise ValidationError(f"batch size {max_n} out of range 1..{dim}")
    if _as_int(seed, "seed") < 0:
        raise ValidationError("seed must be non-negative")
