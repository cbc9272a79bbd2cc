"""Matrix operations of the benchmark runner.

The runner works on a (points x permutations) matrix of hash values with 0
standing in for EMPTY. The base sketch and the batch update paths are the
K-vectorized kernels of :mod:`dynsketch.sketch`, the same ones the
sketch-level wrappers run as 1-row calls; ``min_hash`` and the per-slot rules
there stay the scalar API and the tests' reference. This module adds the
column-chunked threading of the base sketch and the one-feature-at-a-time
sequential paths the experiment times against the batch rules, and re-exports
``pack_supports`` and the all-pairs truth and estimates of :mod:`dynsketch.core`
and :mod:`dynsketch.estimate` for the runner and the benchmark.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from dynsketch.core import DeletionBatch, InsertionBatch, SupportPack, pack_supports
from dynsketch.estimate import pairwise_estimates, pairwise_true_jaccard, rmse_condensed
from dynsketch.sketch import drop_hash_matrix, lift_hash_matrix, min_hash_matrix


def sketch_matrix(pack: SupportPack, perms, threads: int = 1) -> np.ndarray:
    """(points x perms) matrix of min ranks, 0 for an empty support: the pack's
    :func:`dynsketch.sketch.min_hash_matrix`, run on up to ``threads``
    contiguous chunks of the permutations at once."""
    perms = list(perms)
    if threads <= 1 or len(perms) <= 1:
        return min_hash_matrix(perms, pack)
    size = -(-len(perms) // threads)
    chunks = [perms[a : a + size] for a in range(0, len(perms), size)]
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        # map yields in chunk order, so the first bad permutation raises.
        parts = pool.map(lambda c: min_hash_matrix(c, pack), chunks)
        return np.hstack(list(parts))


def apply_batch_insert(h: np.ndarray, perms, batch: InsertionBatch) -> np.ndarray:
    """The batch insertion rule on every slot: :func:`dynsketch.sketch.lift_hash_matrix`."""
    return lift_hash_matrix(h, perms, batch)


def apply_sequential_insert(h: np.ndarray, perms, batch: InsertionBatch) -> np.ndarray:
    """One lift_hash application per batch entry, oldest position first.

    The rank each insertion takes in the current (already widened) frame is
    its base rank plus the number of earlier-inserted base ranks below it.
    """
    out = h.copy()
    for j, perm in enumerate(perms):
        col = out[:, j]
        earlier: list[int] = []
        for m, b in zip(batch.positions, batch.bits):
            w = int(perm.rank[m - 1])
            a = w + bisect_left(earlier, w)
            if b == 1:
                col[:] = np.where((col == 0) | (col >= a), a, col)
            else:
                col[:] = np.where((col == 0) | (col < a), col, col + 1)
            insort(earlier, w)
    return out


def apply_batch_delete(
    h: np.ndarray, pack: SupportPack, perms, batch: DeletionBatch
) -> np.ndarray:
    """The batch deletion rule on every slot: :func:`dynsketch.sketch.drop_hash_matrix`."""
    return drop_hash_matrix(h, perms, batch, pack)


def apply_sequential_delete(
    h: np.ndarray, pack: SupportPack, perms, batch: DeletionBatch
) -> np.ndarray:
    """One drop_hash application per batch entry, oldest position first."""
    out = h.copy()
    dpos = batch.position_array - 1
    ends = np.cumsum(pack.lengths)
    for j, perm in enumerate(perms):
        col = out[:, j]
        removed: list[int] = []  # deleted ranks in the original frame, sorted
        for i, m in enumerate(batch.positions):
            w = int(perm.rank[m - 1])
            a = w - bisect_left(removed, w)
            hit_rows = np.nonzero(col == a)[0]
            col[:] = np.where((col == 0) | (col < a), col, col - 1)
            insort(removed, w)
            for row in hit_rows:
                sup = pack.flat[ends[row] - pack.lengths[row] : ends[row]]
                surviving = sup[~np.isin(sup, dpos[: i + 1])]
                if surviving.size == 0:
                    col[row] = 0
                else:
                    ranks = perm.rank[surviving]
                    v = int(ranks.min())
                    col[row] = v - bisect_left(removed, v)
    return out


def sketch_digest(h: np.ndarray) -> str:
    """Stable fingerprint of a hash matrix, for slot-identity checks."""
    payload = repr(h.shape).encode("ascii") + np.ascontiguousarray(h).tobytes()
    return hashlib.md5(payload).hexdigest()
