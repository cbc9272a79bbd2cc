"""Independent reference implementations used only as test oracles.

These are deliberately naive, loop-by-loop transcriptions kept separate from
the library so that the fast implementations and these slow ones can only
agree by both being right.
"""

from bisect import bisect_left, bisect_right
from itertools import chain

import numpy as np

from dynsketch.core import SparseBinaryVector


def lift_perm_loops(rank, slot):
    """Widen a permutation by copying around the slot, then bumping ranks.

    rank: 1-based permutation values as a list; slot: 1-based insertion index.
    """
    d = len(rank)
    out = [0] * (d + 1)
    for i in range(1, d + 2):
        if i <= slot:
            out[i - 1] = rank[i - 1]
        else:
            out[i - 1] = rank[i - 2]
    taken = out[slot - 1]
    for i in range(1, d + 2):
        if i == slot:
            continue
        if out[i - 1] >= taken:
            out[i - 1] += 1
    return out


def drop_perm_loops(rank, slot):
    """Narrow a permutation by skipping the slot, then lowering ranks."""
    d = len(rank)
    out = [0] * (d - 1)
    for i in range(1, d):
        if i < slot:
            out[i - 1] = rank[i - 1]
        else:
            out[i - 1] = rank[i]
    removed = rank[slot - 1]
    for i in range(1, d):
        if out[i - 1] > removed:
            out[i - 1] -= 1
    return out


def inserted_rank_simulation(rank, positions):
    """Final ranks of batch-inserted elements, one sequential insertion at a time.

    Each step finds the least fixed point v = base + |{earlier values <= v}|,
    then bumps every earlier inserted value at or above v. Quadratic, but
    independent of the sorting shortcut used by the library.
    """
    values = []
    for m in positions:
        base = rank[m - 1]
        v = base
        while True:
            c = sum(1 for w in values if w <= v)
            if v == base + c:
                break
            v = base + c
        values = [w + 1 if w >= v else w for w in values]
        values.append(v)
    return values


def partial_min_hash_simulation(rank, positions, bits):
    """Minimum simulated inserted rank over 1-bits; None when all bits are 0."""
    values = inserted_rank_simulation(rank, positions)
    chosen = [v for v, b in zip(values, bits) if b == 1]
    return min(chosen) if chosen else None


def min_rank_brute(dense_bits, rank):
    """minHash by scanning a dense vector; None for an empty vector."""
    best = None
    for i, bit in enumerate(dense_bits):
        if bit == 1 and (best is None or rank[i] < best):
            best = rank[i]
    return best


def pairwise_estimates_loops(rows):
    """Condensed (i < j) collision fractions, one pair and one slot at a time.

    rows: hash rows as lists, 0 standing for EMPTY. A slot collides when both
    rows hold the same nonzero value and counts unless both rows hold 0; a
    pair with no counted slot estimates 0.
    """
    out = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            collisions, comparable = slot_counts_loops(rows[i], rows[j])
            out.append(collisions / comparable if comparable else 0.0)
    return out


def slot_counts_loops(row_a, row_b):
    """Colliding and comparable slots of two hash rows, one slot at a time,
    as :func:`pairwise_estimates_loops` counts them."""
    collisions = comparable = 0
    for a, b in zip(row_a, row_b):
        if a == 0 and b == 0:
            continue
        comparable += 1
        if a == b:
            collisions += 1
    return collisions, comparable


def insert_features_bisect(vector, batch):
    """Widen a vector one support element at a time, by bisecting the batch."""
    batch.validate_for_dim(vector.dim)
    positions = batch.positions
    shifted = [j + bisect_right(positions, j) for j in vector.support]
    new_ones = [m + i for i, (m, b) in enumerate(zip(positions, batch.bits)) if b == 1]
    merged = sorted(shifted + new_ones)
    return SparseBinaryVector(vector.dim + len(batch), tuple(merged))


def delete_features_bisect(vector, batch):
    """Narrow a vector one support element at a time, by bisecting the batch."""
    batch.validate_for_dim(vector.dim)
    positions = batch.positions
    deleted = set(positions)
    survivors = [
        j - bisect_left(positions, j) for j in vector.support if j not in deleted
    ]
    return SparseBinaryVector(vector.dim - len(batch), tuple(survivors))


def pack_supports_tuples(vectors):
    """The 0-based flat supports and per-point lengths of a pack, read from
    the vectors' support tuples."""
    vectors = list(vectors)
    lengths = np.fromiter((len(v.support) for v in vectors), dtype=np.int64, count=len(vectors))
    flat = np.fromiter(
        chain.from_iterable(v.support for v in vectors), dtype=np.int64, count=int(lengths.sum())
    )
    return flat - 1, lengths
