"""Matrix operations of the benchmark runner.

The runner works on a (points x permutations) matrix of hash values with 0
standing in for EMPTY. The base sketch and the batch update paths are the
K-vectorized kernels of :mod:`dynsketch.sketch`, the same ones the
sketch-level wrappers run as 1-row calls; ``min_hash`` and the per-slot rules
there stay the scalar API and the tests' reference. This module adds the
packed supports the kernels read, the column-chunked threading of the base
sketch, the one-feature-at-a-time sequential paths the experiment times
against the batch rules, and all-pairs truth and estimates.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy import sparse

from dynsketch.core import DeletionBatch, InsertionBatch, ValidationError
from dynsketch.sketch import drop_hash_matrix, lift_hash_matrix, min_hash_matrix


@dataclass(frozen=True)
class SupportPack:
    """Supports of many points flattened for gather/reduceat kernels."""

    count: int
    dim: int
    flat: np.ndarray       # all 0-based supports concatenated
    lengths: np.ndarray    # per-point support sizes


def pack_supports(vectors) -> SupportPack:
    vectors = list(vectors)
    if not vectors:
        raise ValidationError("need at least one point")
    dim = vectors[0].dim
    if any(v.dim != dim for v in vectors):
        raise ValidationError("all points must share one dimension")
    lengths = np.fromiter((len(v.support) for v in vectors), dtype=np.int64, count=len(vectors))
    flat = np.fromiter(
        chain.from_iterable(v.support for v in vectors), dtype=np.int64, count=int(lengths.sum())
    )
    flat -= 1
    return SupportPack(count=len(vectors), dim=dim, flat=flat, lengths=lengths)


def sketch_matrix(pack: SupportPack, perms, threads: int = 1) -> np.ndarray:
    """(points x perms) matrix of min ranks, 0 for an empty support: the pack's
    :func:`dynsketch.sketch.min_hash_matrix`, run on up to ``threads``
    contiguous chunks of the permutations at once."""
    perms = list(perms)
    if threads <= 1 or len(perms) <= 1:
        return min_hash_matrix(perms, pack.flat, pack.lengths, pack.dim)
    size = -(-len(perms) // threads)
    chunks = [perms[a : a + size] for a in range(0, len(perms), size)]
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        # map yields in chunk order, so the first bad permutation raises.
        parts = pool.map(lambda c: min_hash_matrix(c, pack.flat, pack.lengths, pack.dim), chunks)
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
    return drop_hash_matrix(h, perms, batch, pack.flat, pack.lengths, pack.dim)


def apply_sequential_delete(
    h: np.ndarray, pack: SupportPack, perms, batch: DeletionBatch
) -> np.ndarray:
    """One drop_hash application per batch entry, oldest position first."""
    out = h.copy()
    dpos = np.fromiter(batch.positions, dtype=np.int64, count=len(batch)) - 1
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


def pairwise_true_jaccard(pack: SupportPack) -> tuple[np.ndarray, np.ndarray]:
    """Condensed (i < j) exact Jaccard plus a both-supports-empty mask."""
    p = pack.count
    if pack.dim > 0 and pack.flat.size > 0:
        indptr = np.concatenate([[0], np.cumsum(pack.lengths)])
        mat = sparse.csr_matrix(
            (np.ones(pack.flat.size, dtype=np.int64), pack.flat, indptr),
            shape=(p, pack.dim),
        )
        inter = np.asarray((mat @ mat.T).todense(), dtype=np.int64)
    else:
        inter = np.zeros((p, p), dtype=np.int64)
    sizes = pack.lengths
    union = sizes[:, None] + sizes[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    rows, cols = np.triu_indices(p, k=1)
    both_empty = (sizes[rows] == 0) & (sizes[cols] == 0)
    return jac[rows, cols], both_empty


# Product entries one row block of pairwise_estimates may hold. Blocks are cut
# on an upper bound of each row's entries, so memory stays bounded however
# dense the collisions are.
_ESTIMATE_BLOCK_ENTRIES = 1 << 13


def pairwise_estimates(h: np.ndarray) -> np.ndarray:
    """Condensed (i < j) collision-fraction estimates from a hash matrix.

    Column c of a pair collides when both rows hold the same nonzero value,
    and is comparable unless both rows hold 0; the estimate is collisions
    over comparable columns. Each distinct (column, value) is one column of a
    sparse one-hot P x G matrix, weighted 1 for a nonzero value and K + 1 for
    0, so one sparse product gives ``collisions + (K + 1) * both_zero`` per
    pair, both parts at most K. Pairs without a collision keep the estimate 0.
    """
    p, k = h.shape
    out = np.zeros(p * (p - 1) // 2, dtype=np.float64)
    if p < 2 or k == 0:
        return out
    ht = h.T
    order = np.argsort(ht, axis=1)
    ordered = np.take_along_axis(ht, order, axis=1).ravel()
    order = order.ravel()
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    first[::p] = True  # every hash column starts new groups
    starts = np.append(np.flatnonzero(first), ordered.size)
    del first  # the dels below free each P x K buffer once used, to lower the peak
    # Row i has at most as many product entries as its K groups have rows.
    sizes = np.diff(starts)
    bound = np.bincount(order, weights=np.repeat(sizes, sizes), minlength=p)
    del sizes
    # (G x P) CSR: group g lists the rows holding its value, each weighted
    # by whether that value is 0. The one-hot P x G factor is its transpose.
    shape = (starts.size - 1, p)
    weighted_t = sparse.csr_matrix((np.where(ordered == 0, k + 1, 1), order, starts), shape=shape)
    del ordered
    onehot = sparse.csr_matrix((np.ones(p * k, dtype=np.int8), order, starts), shape=shape).T.tocsr()
    del order, starts
    block = np.cumsum(np.minimum(bound[: p - 1], p)) // _ESTIMATE_BLOCK_ENTRIES
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1), p - 1]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        prod = onehot[lo:hi] @ weighted_t
        i = np.repeat(np.arange(lo, hi), np.diff(prod.indptr))
        j = prod.indices
        collisions = prod.data % (k + 1)
        keep = (j > i) & (collisions > 0)
        i, j = i[keep], j[keep]
        comparable = k - prod.data[keep] // (k + 1)
        out[i * (2 * p - i - 1) // 2 + (j - i - 1)] = collisions[keep] / comparable
    return out


def rmse_condensed(estimates: np.ndarray, truth: np.ndarray, include: np.ndarray) -> float:
    """RMSE over the included pairs; NaN when nothing is included."""
    if estimates.shape != truth.shape or estimates.shape != include.shape:
        raise ValidationError("estimate/truth/include shapes must match")
    kept = include.sum()
    if kept == 0:
        return float("nan")
    diff = estimates[include] - truth[include]
    return float(np.sqrt(np.mean(diff * diff)))


def sketch_digest(h: np.ndarray) -> str:
    """Stable fingerprint of a hash matrix, for slot-identity checks."""
    payload = repr(h.shape).encode("ascii") + np.ascontiguousarray(h).tobytes()
    return hashlib.md5(payload).hexdigest()
