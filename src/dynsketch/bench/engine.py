"""Matrix operations of the benchmark runner.

The runner works on a (points x permutations) int32 matrix of hash values
with 0 standing in for EMPTY, the layout of ``Sketch.row``. The base sketch
and the batch update paths are the K-vectorized kernels of
:mod:`dynsketch.sketch`, the same ones the sketch-level wrappers run as
1-row calls; ``min_hash`` and the per-slot rules there stay the scalar API
and the tests' reference. The sequential paths the experiment times against
the batch rules fold the kernels' own rule bodies over the batch one entry
at a time, on the same int32 matrices. This module adds those folds and the
matrices' digest, which reads their int64 widening so that it does not move
with the storage width, and re-exports ``pack_supports`` and the all-pairs
truth and estimates of :mod:`dynsketch.core` and :mod:`dynsketch.estimate`
for the runner and the benchmark.
"""

from __future__ import annotations

import hashlib

import numpy as np

from dynsketch.core import (
    DeletionBatch, InsertionBatch, SupportPack, ValidationError, _as_int, pack_supports
)
from dynsketch.estimate import pairwise_estimates, pairwise_true_jaccard, rmse_condensed
from dynsketch.sketch import (
    _batch_ranks, _drop, _lift, drop_hash_matrix, lift_hash_matrix, min_hash_matrix
)


def sketch_matrix(pack: SupportPack, perms, threads: int = 1) -> np.ndarray:
    """(points x perms) matrix of min ranks, 0 for an empty support: the pack's
    :func:`dynsketch.sketch.min_hash_matrix`.

    ``threads`` takes the value 1 alone. It stays only because the benchmark
    passes ``threads=1``; ROADMAP item 9's benchmark revision drops that
    argument and then this parameter.
    """
    if _as_int(threads, "threads") != 1:
        raise ValidationError("threads must be 1")
    return min_hash_matrix(perms, pack)


def apply_batch_insert(h: np.ndarray, perms, batch: InsertionBatch) -> np.ndarray:
    """The batch insertion rule on every slot: :func:`dynsketch.sketch.lift_hash_matrix`."""
    return lift_hash_matrix(h, perms, batch)


def apply_sequential_insert(h: np.ndarray, perms, batch: InsertionBatch) -> np.ndarray:
    """:func:`dynsketch.sketch.lift_hash_matrix`'s rule folded over the batch,
    oldest entry first: entry i takes rank ``w_i + #{w_k < w_i, k < i}``."""
    w, _ = _batch_ranks(h, list(perms), batch)
    for i in range(len(batch)):
        here = w[:, i : i + 1]
        cur = here + (w[:, :i] < here).sum(axis=1, keepdims=True)
        h = _lift(h, cur, batch.one_mask[i : i + 1], h.max(axis=0, initial=0))
    return h


def apply_batch_delete(
    h: np.ndarray, pack: SupportPack, perms, batch: DeletionBatch
) -> np.ndarray:
    """The batch deletion rule on every slot: :func:`dynsketch.sketch.drop_hash_matrix`."""
    return drop_hash_matrix(h, perms, batch, pack)


def apply_sequential_delete(
    h: np.ndarray, pack: SupportPack, perms, batch: DeletionBatch
) -> np.ndarray:
    """:func:`dynsketch.sketch.drop_hash_matrix`'s rule folded over the batch,
    oldest entry first: entry i takes rank ``w_i - #{w_k < w_i, k < i}``, and
    a deleted minimum is rescanned past ``w_0..w_i``."""
    perms = list(perms)
    w, _ = _batch_ranks(h, perms, batch, pack)
    gone = batch.position_array - 1
    for i in range(len(batch)):
        here = w[:, i : i + 1]
        cur = here - (w[:, :i] < here).sum(axis=1, keepdims=True)
        base = np.sort(w[:, : i + 1], axis=1)
        h = _drop(h, cur, base, gone[: i + 1], perms, pack, h.max(axis=0, initial=0))
    return h


def sketch_digest(h: np.ndarray) -> str:
    """Stable fingerprint of a hash matrix, for slot-identity checks: the
    digest of its int64 widening, so it depends on the values alone, not on
    the width they are stored in."""
    payload = repr(h.shape).encode("ascii") + np.ascontiguousarray(h, dtype=np.int64).tobytes()
    return hashlib.md5(payload).hexdigest()
