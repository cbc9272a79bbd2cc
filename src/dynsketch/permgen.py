"""Seeded generation of minwise permutations plus the lift/drop constructions.

``lift_perm``/``drop_perm`` build the widened (narrowed) permutation that a
feature insertion (deletion) induces while preserving the relative order of
every surviving rank. They are the exactness oracles for the constant-time
sketch update rules in :mod:`dynsketch.sketch`: re-sketching an edited vector
under the lifted/dropped permutation must reproduce the update rule's output
bit for bit.

``multiple_lift_perm``/``multiple_drop_perm`` carry a permutation across a
whole batch as one closed-form rank map over the base ranks of the batch,
in O(d + n) for d slots and n positions. They equal folding the single-step
constructions once per position, which stay as the slow oracles.
"""

from __future__ import annotations

import numpy as np

from dynsketch.core import (
    Permutation,
    ValidationError,
    _as_int,
    _as_position,
    _as_positions,
    _check_rank_dim,
    _Value,
)


class PermutationSeed(_Value):
    """Deterministic seed for one of the K sketch permutations.

    The same (seed, index, dimension) triple always yields the identical
    permutation, which keeps sketches comparable across runs, and unequal
    seeds give unequal streams. The seed must be below 2**64 and the index
    below 2**32.
    """

    _args = ("seed", "index")
    _key = _args

    def __init__(self, seed: int, index: int = 0):
        seed, index = _as_int(seed, "seed"), _as_int(index, "index")
        if seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        if index < 0:
            raise ValidationError("index must be a non-negative integer")
        if seed >= 2**64:
            raise ValidationError(f"seed {seed} must be below 2**64")
        if index >= 2**32:
            raise ValidationError(f"index {index} must be below 2**32")
        self._own(dict(seed=seed, index=index))

    def _entropy(self) -> list[int]:
        """The ``SeedSequence`` entropy of this pair, which no other pair gives.

        numpy splits each int into 32-bit words, joins them and pads the list
        with zero words up to 4. So ``[seed, index]`` names a pair alone,
        unless the seed takes two words and the index is 0: then its words
        ``[seed_lo, seed_hi, 0]`` pad to those of
        ``PermutationSeed(seed_lo, seed_hi)``. Only that pair is spelt apart,
        as ``[seed_lo, seed_hi, 0, 1]``, whose last word no shorter list has;
        every other stream stays as it was.
        """
        if self.seed >= 2**32 and self.index == 0:
            return [self.seed % 2**32, self.seed >> 32, 0, 1]
        return [self.seed, self.index]


def random_permutation(d: int, seed: PermutationSeed) -> Permutation:
    """A uniformly random bijection on {1..d}, deterministic under the seed.

    Uses numpy's seeded Generator (a Fisher-Yates shuffle underneath) keyed
    by the entropy of the (seed, index) pair. The shuffle runs on numpy's
    int64 path, which fixes the order for a seed; the ranks are narrowed to
    int32 as 1 is added.
    """
    d = _as_int(d, "dimension")
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    _check_rank_dim(d)
    rng = np.random.default_rng(np.random.SeedSequence(seed._entropy()))
    rank = np.empty(d, dtype=np.int32)
    np.add(rng.permutation(d), 1, out=rank, casting="same_kind")
    return Permutation._from_valid(rank)


def lift_perm(pi: Permutation, position: int) -> Permutation:
    """Extend a permutation by one slot at ``position``.

    The new element takes the rank the slot held before; every other rank at
    or above it moves up by one, so the relative order of the original
    elements is unchanged and the output is a bijection on {1..dim+1}.
    """
    position = _as_position(position, pi.dim)
    _check_rank_dim(pi.dim + 1)
    rank = pi.rank
    taken = rank[position - 1]
    out = np.empty(pi.dim + 1, dtype=np.int32)
    out[:position] = rank[:position]
    out[position:] = rank[position - 1 :]
    bump = out >= taken
    bump[position - 1] = False
    out[bump] += 1
    return Permutation(out)


def drop_perm(pi: Permutation, position: int) -> Permutation:
    """Remove one slot from a permutation.

    The rank at ``position`` disappears and every rank above it moves down by
    one, yielding a bijection on {1..dim-1}. Exact left inverse of
    :func:`lift_perm` at the same position.
    """
    position = _as_position(position, pi.dim)
    rank = pi.rank
    removed = rank[position - 1]
    out = np.concatenate([rank[: position - 1], rank[position:]])
    out = out - (out > removed)
    return Permutation(out)


def _batch_slots(pi: Permutation, positions) -> np.ndarray:
    """The validated 0-based slots of a batch of positions of ``pi``."""
    positions = _as_positions(positions)
    if not positions:
        raise ValidationError("need at least one position")
    if positions[-1] > pi.dim:
        raise ValidationError(
            f"position {positions[-1]} out of range for dimension {pi.dim}"
        )
    return np.fromiter(positions, dtype=np.int64, count=len(positions)) - 1


def _count_below(dim: int, base: np.ndarray) -> np.ndarray:
    """``below[r]`` = #{w < r} for r in 0..dim+1 over the distinct base ranks W.

    The table is a step function, n + 1 runs of 0..n cut at the sorted ranks:
    one ``np.repeat`` in the narrowest unsigned dtype that holds n, where a
    count table needs a d-long cumsum. The narrow table makes its build and
    the gathers from it cheaper; the callers add it into int32 ranks.
    """
    cuts = np.empty(base.size + 2, dtype=np.int64)
    cuts[0], cuts[-1] = -1, dim + 1
    cuts[1:-1] = base
    cuts[1:-1].sort()
    runs = np.arange(base.size + 1, dtype=np.min_scalar_type(base.size))
    return np.repeat(runs, cuts[1:] - cuts[:-1])


def multiple_lift_perm(pi: Permutation, positions) -> Permutation:
    """Lift a permutation over a sorted batch of pre-insertion positions.

    Equal to folding :func:`lift_perm` at the shifted slots ``positions[i] + i``
    (0-based i), written as one rank map over the base ranks W of the batch:
    an old rank r becomes r + #{w <= r}, and inserted element i lands at slot
    ``positions[i] + i`` with rank w_i + #{w < w_i}.
    """
    slots = _batch_slots(pi, positions)
    size = pi.dim + slots.size
    _check_rank_dim(size)
    base = pi.rank[slots]
    below = _count_below(pi.dim, base)
    # take, not fancy indexing: about half the time with int32 indices.
    shifted = np.add(pi.rank, below[1:].take(pi.rank), dtype=np.int32)  # r + #{w <= r}
    # Inserted element i lands at slot positions[i] + i; the old ranks fill
    # the other slots in order.
    landed = slots + np.arange(slots.size)
    keep = np.ones(size, dtype=bool)
    keep[landed] = False
    rank = np.empty(size, dtype=np.int32)
    rank[keep] = shifted
    rank[landed] = base + below[base]
    return Permutation._from_valid(rank)


def multiple_drop_perm(pi: Permutation, positions) -> Permutation:
    """Drop a sorted batch of pre-deletion positions from a permutation.

    Equal to folding :func:`drop_perm` at the shifted slots ``positions[i] - i``
    (0-based i), written as one rank map over the base ranks W of the batch:
    a surviving rank r becomes r - #{w < r}.
    """
    slots = _batch_slots(pi, positions)
    below = _count_below(pi.dim, pi.rank[slots])
    keep = np.ones(pi.dim, dtype=bool)
    keep[slots] = False
    rank = pi.rank[keep]
    rank -= below.take(rank)
    return Permutation._from_valid(rank)
