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

from dataclasses import dataclass

import numpy as np

from dynsketch.core import Permutation, ValidationError, _as_positions


@dataclass(frozen=True)
class PermutationSeed:
    """Deterministic seed for one of the K sketch permutations.

    The same (seed, index, dimension) triple always yields the identical
    permutation, which keeps sketches comparable across runs.
    """

    seed: int
    index: int = 0

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        if not isinstance(self.index, (int, np.integer)) or self.index < 0:
            raise ValidationError("index must be a non-negative integer")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "index", int(self.index))


def random_permutation(d: int, seed: PermutationSeed) -> Permutation:
    """A uniformly random bijection on {1..d}, deterministic under the seed.

    Uses numpy's seeded Generator (a Fisher-Yates shuffle underneath) keyed
    by the (seed, index) pair.
    """
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed.seed, seed.index]))
    rank = rng.permutation(d)
    rank += 1
    return Permutation._from_valid(rank)


def lift_perm(pi: Permutation, position: int) -> Permutation:
    """Extend a permutation by one slot at ``position``.

    The new element takes the rank the slot held before; every other rank at
    or above it moves up by one, so the relative order of the original
    elements is unchanged and the output is a bijection on {1..dim+1}.
    """
    if not 1 <= position <= pi.dim:
        raise ValidationError(f"position {position} out of range 1..{pi.dim}")
    rank = pi.rank
    taken = rank[position - 1]
    out = np.empty(pi.dim + 1, dtype=np.int64)
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
    if not 1 <= position <= pi.dim:
        raise ValidationError(f"position {position} out of range 1..{pi.dim}")
    rank = pi.rank
    removed = rank[position - 1]
    out = np.concatenate([rank[: position - 1], rank[position:]])
    out = out - (out > removed)
    return Permutation(out)


def _batch_ranks(pi: Permutation, positions) -> tuple[np.ndarray, np.ndarray]:
    """Validated 0-based batch slots, and ``below[r]`` = #{w < r} for r in 0..d+1
    over the base ranks W the batch positions hold."""
    positions = _as_positions(positions)
    if not positions:
        raise ValidationError("need at least one position")
    if positions[-1] > pi.dim:
        raise ValidationError(
            f"position {positions[-1]} out of range for dimension {pi.dim}"
        )
    slots = np.fromiter(positions, dtype=np.int64, count=len(positions)) - 1
    # A count table beats a binary search per rank: W is tiny next to d.
    below = np.zeros(pi.dim + 2, dtype=np.int64)
    below[pi.rank[slots] + 1] = 1
    return slots, np.cumsum(below, out=below)


def multiple_lift_perm(pi: Permutation, positions) -> Permutation:
    """Lift a permutation over a sorted batch of pre-insertion positions.

    Equal to folding :func:`lift_perm` at the shifted slots ``positions[i] + i``
    (0-based i), written as one rank map over the base ranks W of the batch:
    an old rank r becomes r + #{w <= r}, and inserted element i lands at slot
    ``positions[i] + i`` with rank w_i + #{w < w_i}.
    """
    slots, below = _batch_ranks(pi, positions)
    base = pi.rank[slots]
    rank = below[1:][pi.rank]  # #{w <= r}
    rank += pi.rank
    # np.insert puts value i before old slot i, i.e. at slot positions[i] + i.
    rank = np.insert(rank, slots, base + below[base])
    return Permutation._from_valid(rank)


def multiple_drop_perm(pi: Permutation, positions) -> Permutation:
    """Drop a sorted batch of pre-deletion positions from a permutation.

    Equal to folding :func:`drop_perm` at the shifted slots ``positions[i] - i``
    (0-based i), written as one rank map over the base ranks W of the batch:
    a surviving rank r becomes r - #{w < r}.
    """
    slots, below = _batch_ranks(pi, positions)
    rank = np.delete(pi.rank, slots)
    rank -= below[rank]
    return Permutation._from_valid(rank)
