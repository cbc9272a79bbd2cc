"""Matrix operations of the benchmark runner.

The runner works on a (points x permutations) matrix of hash values with 0
standing in for EMPTY. The base sketch and the batch update paths are the
K-vectorized kernels of :mod:`dynsketch.sketch`, the same ones the
sketch-level wrappers run as 1-row calls; ``min_hash`` and the per-slot rules
there stay the scalar API and the tests' reference. This module adds the
packed supports the kernels read, the column-chunked threading of the base
sketch, the one-feature-at-a-time sequential paths the experiment times
against the batch rules, and all-pairs truth and estimates.

Both all-pairs results are condensed (i < j) vectors built by one numpy
count of co-membership: for estimates the groups are the rows sharing a
(column, value) of the hash matrix, for truth the points sharing a feature.
Small groups are enumerated pair by pair; the few large ones, which hold most
pairs under a long update stream, go through one dense product per row
block. Apart from the output, scratch memory is bounded by
``_BLOCK_ENTRIES`` entries per step, and only pairs i < j are ever formed.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

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
    supports = [v.support_index() for v in vectors]
    lengths = np.fromiter((s.size for s in supports), dtype=np.int64, count=len(supports))
    flat = np.concatenate(supports)
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


def pairwise_true_jaccard(pack: SupportPack) -> tuple[np.ndarray, np.ndarray]:
    """Condensed (i < j) exact Jaccard plus a both-supports-empty mask.

    The intersections are :func:`_pair_counts` over the features, each
    grouping the points that hold it; unions and ratios follow one row block
    at a time.
    """
    p = pack.count
    rows = np.repeat(np.arange(p), pack.lengths)
    order = np.argsort(pack.flat)
    features = pack.flat[order]
    starts = np.flatnonzero(np.diff(features, prepend=-1))
    jac = _pair_counts(rows[order], starts, np.diff(starts, append=features.size), p)
    both_empty = np.empty(jac.size, dtype=bool)
    sizes = pack.lengths
    empty = sizes == 0
    for lo, seg, upper in _row_blocks(p):
        hi = lo + upper.shape[0]
        inter = jac[seg]
        union = (sizes[lo:hi, None] + sizes[lo:])[upper] - inter
        # An empty union has no intersection either, so it gives 0 / 1.
        np.divide(inter, np.maximum(union, 1), out=inter)
        both_empty[seg] = (empty[lo:hi, None] & empty[lo:])[upper]
    return jac, both_empty


# Scratch entries one step of the pair counts may hold: enumerated pairs per
# chunk of small groups, dense one-hot entries per chunk of big groups, and
# product entries per row block.
_BLOCK_ENTRIES = 1 << 18
# Groups of at least P // _SPLIT_DIVISOR rows (and at least 2) go to the dense
# product; smaller ones are enumerated pair by pair.
_SPLIT_DIVISOR = 16


def _row_blocks(p: int):
    """Row blocks [lo, lo + rows) of the strict upper triangle of a P x P matrix.

    Yields ``lo``, the condensed slice the block's pairs fill, and the
    (rows x (P - lo)) mask ``col > row`` that picks them out of the block's
    columns lo.. in condensed order. A block holds at most
    ``_BLOCK_ENTRIES`` entries, or one row.
    """
    lo = start = 0
    while lo < p - 1:
        hi = min(p - 1, lo + max(1, _BLOCK_ENTRIES // (p - lo)))
        upper = np.arange(p - lo) > np.arange(hi - lo)[:, None]
        stop = start + (hi - lo) * (2 * p - lo - hi - 1) // 2
        yield lo, slice(start, stop), upper
        lo, start = hi, stop


def _members(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenated ranges [starts[g], starts[g] + sizes[g])."""
    total = int(sizes.sum())
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(total)


def _pair_counts(rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray, p: int) -> np.ndarray:
    """Condensed (i < j) float64 count of the groups holding both rows i and j.

    Group g holds the distinct rows ``rows[starts[g] : starts[g] + sizes[g]]``.
    Groups of 2 up to a size split (P // ``_SPLIT_DIVISOR``, at least 2) are
    enumerated pair by pair and counted with ``np.bincount``, which makes the
    output buffer. The few at or above the split become the columns of a
    dense P x G 0/1 matrix X, and each row block adds the strict upper
    triangle of ``X[lo:hi] @ X[lo:].T`` to its condensed segment in place.
    Scratch memory holds about ``_BLOCK_ENTRIES`` entries at a time; a chunk
    of small groups can exceed it only by its last group's pairs.
    """
    npairs = p * (p - 1) // 2
    split = max(2, p // _SPLIT_DIVISOR)
    small = (sizes >= 2) & (sizes < split)
    starts_s, sizes_s = starts[small], sizes[small]
    # Pair (i, j) with i < j sits at condensed index base[i] + j.
    i = np.arange(p)
    base = i * (2 * p - i - 3) // 2 - 1
    chunk = np.cumsum(sizes_s * (sizes_s - 1) // 2) // _BLOCK_ENTRIES
    cuts = [*np.flatnonzero(np.diff(chunk, prepend=-1)), sizes_s.size]
    out = None
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pos = _members(starts_s[lo:hi], sizes_s[lo:hi])
        # Each member pairs with the members after it in its group.
        later = np.repeat(starts_s[lo:hi] + sizes_s[lo:hi], sizes_s[lo:hi]) - pos - 1
        u = rows[np.repeat(pos, later)]
        v = rows[_members(pos + 1, later)]
        idx = base[np.minimum(u, v)] + np.maximum(u, v)
        if out is None:
            out = np.bincount(idx, weights=np.ones(idx.size), minlength=npairs)
        else:
            np.add.at(out, idx, 1.0)
    if out is None:
        out = np.zeros(npairs, dtype=np.float64)
    big = np.flatnonzero(sizes >= split)
    width = max(1, _BLOCK_ENTRIES // p)
    for a in range(0, big.size, width):
        g = big[a : a + width]
        # float32 counts are exact up to 2**24 groups and halve the product.
        x = np.zeros((p, g.size), dtype=np.float32)
        x[rows[_members(starts[g], sizes[g])], np.repeat(np.arange(g.size), sizes[g])] = 1
        for lo, seg, upper in _row_blocks(p):
            out[seg] += (x[lo : lo + upper.shape[0]] @ x[lo:].T)[upper]
    return out


def pairwise_estimates(h: np.ndarray) -> np.ndarray:
    """Condensed (i < j) collision-fraction estimates from a hash matrix.

    Column c of a pair collides when both rows hold the same nonzero value,
    and is comparable unless both rows hold 0; the estimate is collisions
    over comparable columns, and pairs without a collision keep 0. Sorting
    each column groups the rows by (column, value); :func:`_pair_counts`
    counts, for i < j only, the nonzero groups holding both rows, and, only
    when some slot is 0, the zero groups holding both. Scratch memory is
    bounded by ``_BLOCK_ENTRIES`` entries per step beyond the P x K sort.
    """
    p, k = h.shape
    if p < 2 or k == 0:
        return np.zeros(p * (p - 1) // 2, dtype=np.float64)
    ht = h.T
    order = np.argsort(ht, axis=1)
    ordered = np.take_along_axis(ht, order, axis=1).ravel()
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    first[::p] = True  # every hash column starts new groups
    starts = np.flatnonzero(first)
    del first
    sizes = np.diff(starts, append=ordered.size)
    zero = ordered[starts] == 0
    del ordered
    rows = order.ravel()
    out = _pair_counts(rows, starts[~zero], sizes[~zero], p)
    if zero.any():
        comparable = _pair_counts(rows, starts[zero], sizes[zero], p)
        np.subtract(k, comparable, out=comparable)
        np.divide(out, comparable, out=out, where=out > 0)
    else:
        out /= k
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
