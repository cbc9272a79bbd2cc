"""Jaccard ground truth, sketch-based estimation and RMSE, for one pair and for
all pairs at once, and uniformity checks.

All-pairs truth and estimates are condensed (i < j) vectors built by one
numpy count of co-membership: for estimates the groups are the rows sharing a
(column, value) of the hash matrix, for truth the points sharing a feature.
Small groups are enumerated pair by pair; the few large ones, which hold most
pairs under a long update stream, go through one dense product per row
block. Apart from the output, scratch memory is bounded by
``_BLOCK_ENTRIES`` entries per step, and only pairs i < j are ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dynsketch.core import (
    Permutation, Sketch, SparseBinaryVector, SupportPack, ValidationError, _as_int, _members,
    pack_supports,
)


@dataclass(frozen=True)
class PairEstimate:
    """Sketch collision statistics for one pair of points.

    Slots where both sketches are EMPTY are not comparable; slots where
    exactly one side is EMPTY count as comparable non-collisions.
    """

    true_jaccard: float
    estimated_jaccard: float
    collisions: int
    comparable_slots: int


def jaccard_true(x: SparseBinaryVector, y: SparseBinaryVector) -> float:
    """Exact set Jaccard of two supports; 0.0 when both are empty."""
    if x.dim != y.dim:
        raise ValidationError(f"dimension mismatch: {x.dim} != {y.dim}")
    jac, _ = pairwise_true_jaccard(pack_supports([x, y]))
    return float(jac[0])


def jaccard_estimate(sa: Sketch, sb: Sketch, true_jaccard: float = float("nan")) -> PairEstimate:
    """Collision fraction across comparable sketch slots."""
    if sa.num_perms != sb.num_perms:
        raise ValidationError(
            f"sketch size mismatch: {sa.num_perms} != {sb.num_perms}"
        )
    a, b = sa.row, sb.row
    # Hash values are positive, so a | b is 0 exactly where both are EMPTY.
    collisions = int(np.count_nonzero(a[a == b]))
    comparable = int(np.count_nonzero(a | b))
    estimated = collisions / comparable if comparable > 0 else 0.0
    return PairEstimate(
        true_jaccard=float(true_jaccard),
        estimated_jaccard=estimated,
        collisions=collisions,
        comparable_slots=comparable,
    )


def rmse(pairs) -> float:
    """Root mean squared error of estimated vs true Jaccard over pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("need at least one pair")
    estimates, truth = np.array([(p.estimated_jaccard, p.true_jaccard) for p in pairs]).T
    return rmse_condensed(estimates, truth, np.ones(len(pairs), dtype=bool))


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
        # np.tri compares narrow integers, where np.arange gives int64.
        upper = ~np.tri(hi - lo, p - lo, 0, dtype=bool)
        stop = start + (hi - lo) * (2 * p - lo - hi - 1) // 2
        yield lo, slice(start, stop), upper
        lo, start = hi, stop


def _pair_counts(rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray, p: int) -> np.ndarray:
    """Condensed (i < j) float64 count of the groups holding both rows i and j.

    Group g holds the distinct rows ``rows[starts[g] : starts[g] + sizes[g]]``.
    Groups of 2 up to a size split (P // ``_SPLIT_DIVISOR``, at least 2) are
    enumerated pair by pair and counted into the output with ``np.add.at``.
    The few at or above the split become the columns of a dense P x G 0/1
    matrix X, and each row block adds the strict upper triangle of
    ``X[lo:hi] @ X[lo:].T`` to its condensed segment in place. Scratch
    memory holds about ``_BLOCK_ENTRIES`` entries at a time; a chunk of small
    groups can exceed it only by its last group's pairs.
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
    out = np.zeros(npairs, dtype=np.float64)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pos = _members(starts_s[lo:hi], sizes_s[lo:hi])
        # Each member pairs with the members after it in its group.
        later = np.repeat(starts_s[lo:hi] + sizes_s[lo:hi], sizes_s[lo:hi]) - pos - 1
        u = rows[np.repeat(pos, later)]
        v = rows[_members(pos + 1, later)]
        np.add.at(out, base[np.minimum(u, v)] + np.maximum(u, v), 1.0)
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


@dataclass(frozen=True)
class UniformityResult:
    """Empirical argmin distribution over a fixed support set."""

    frequencies: dict
    max_deviation: float
    trials: int


def minwise_uniformity_test(perm_source, support_set, trials: int) -> UniformityResult:
    """Tally which element of ``support_set`` attains the minimum rank.

    ``perm_source`` is called with the trial number and must return a
    permutation covering every element of the set. For a minwise uniform
    source each element should win with frequency 1/|set|; the result
    reports the raw frequencies and the largest absolute deviation, leaving
    any pass/fail thresholding to the caller.
    """
    elements = tuple(sorted({_as_int(u, "support element") for u in support_set}))
    if len(elements) <= 1:
        raise ValidationError("support set must contain at least two elements")
    if _as_int(trials, "trials") < 10 * len(elements) ** 2:
        raise ValidationError(
            f"need at least {10 * len(elements) ** 2} trials for a set of "
            f"{len(elements)} elements"
        )
    if elements[0] < 1:
        raise ValidationError("support elements must be at least 1")
    idx = np.fromiter(elements, dtype=np.int64, count=len(elements)) - 1
    counts = dict.fromkeys(elements, 0)
    for t in range(trials):
        perm = perm_source(t)
        if not isinstance(perm, Permutation):
            raise ValidationError("perm_source must yield Permutation values")
        if elements[-1] > perm.dim:
            raise ValidationError(
                f"support element {elements[-1]} exceeds permutation dimension {perm.dim}"
            )
        winner = elements[int(np.argmin(perm.rank[idx]))]
        counts[winner] += 1
    target = 1.0 / len(elements)
    frequencies = {u: c / trials for u, c in counts.items()}
    max_deviation = max(abs(f - target) for f in frequencies.values())
    return UniformityResult(
        frequencies=frequencies, max_deviation=max_deviation, trials=trials
    )
