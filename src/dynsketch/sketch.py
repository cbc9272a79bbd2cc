"""MinHash computation and the fast in-place sketch update rules.

Each update rule returns exactly what re-sketching the edited vector under
the corresponding lifted/dropped permutation would return, without ever
materializing that permutation. The lifted/dropped constructions in
:mod:`dynsketch.permgen` serve as the exact oracles in the test suite.

:func:`min_hash` and the per-slot rules (:func:`lift_hash`,
:func:`multiple_lift_hash`, :func:`drop_hash`, :func:`multiple_drop_hash`)
are the scalar API and the tests' independent reference. Whole sketches and
hash matrices go through one kernel per operation, :func:`min_hash_matrix`,
:func:`lift_hash_matrix` and :func:`drop_hash_matrix`, on a (points x
permutations) int32 matrix with 0 for EMPTY, over a ``SupportPack``: a hash
is a rank, and ranks are int32. :func:`build_sketch`,
:func:`update_sketch_insert` and :func:`update_sketch_delete` are 1-row
calls on ``Sketch.row``, which is such a row. A ``SupportPack`` is checked
once, when it is built, so the kernels trust its layout and check only its
``count`` and ``dim`` against their other arguments. An update kernel checks its inputs and gathers the int32 batch
ranks in one front, then runs a private rule body on ranks in the matrix's
frame, every pass over the matrix in int32; the sequential paths of
:mod:`dynsketch.bench.engine` fold the same bodies one entry at a time.

Both rule bodies shift every slot by its column's count #{w <= r} of batch
ranks at or below its hash r, a step function of r with n steps. The count
front, :func:`_shift_by_counts`, has two back-ends, chosen per call by one
size rule (:func:`_step_windows`). The step table stores each column's
codes 2 * #{w <= r} + [r in W] over the ranks between its smallest batch
rank and its largest hash, in the narrowest unsigned dtype, and every slot
reads its shift and, for a deletion, its hit bit with one narrow gather.
The search lifts every column's hashes and sorted ranks apart, in int64,
and looks all slots up, column by column, in one ``np.searchsorted``. The
table serves matrices of at least ``_TABLE_MIN_ROWS`` rows whose tables hold
at most ``_TABLE_ENTRIES_PER_SLOT`` entries per slot; the search serves the
rest, such as the sketch-level wrappers' 1-row calls and hashes spread over
a large dimension.
"""

from __future__ import annotations

import numpy as np

from dynsketch import core
from dynsketch.core import (
    EMPTY,
    HashValue,
    InsertionBatch,
    DeletionBatch,
    Permutation,
    Sketch,
    SparseBinaryVector,
    SupportPack,
    ValidationError,
    _as_hash,
    _as_int,
    _check_rank_dim,
    _is_bit,
    _members,
    _segment_starts,
    pack_supports,
)


def _dim_mismatch(dim: int, perm_dim: int) -> ValidationError:
    """The error for a permutation whose dimension is not the vectors' ``dim``."""
    return ValidationError(f"vector dimension {dim} != permutation dimension {perm_dim}")


def min_hash(vector: SparseBinaryVector, pi: Permutation) -> HashValue:
    """The minimum rank over the vector's support; EMPTY if there is none."""
    if vector.dim != pi.dim:
        raise _dim_mismatch(vector.dim, pi.dim)
    support = vector.support_index()
    if not support.size:
        return EMPTY
    return int(pi.rank[support - 1].min())


# Rank entries that one block of permutations gathers into min_hash_matrix's
# buffer at a time: a (b, F) int32 buffer for F packed support entries, at
# most 1 MB unless one permutation's row alone is larger.
_GATHER_BLOCK_ENTRIES = 1 << 18


def min_hash_matrix(perms, pack: SupportPack) -> np.ndarray:
    """:func:`min_hash` of every packed point under every permutation, 0 for
    EMPTY; each permutation's dimension is checked against the pack's in turn.
    The packed supports are not checked again: a ``SupportPack`` holds
    entries in ``0..dim-1`` from the moment it is built.

    Blocks of permutations gather their int32 ranks at the packed positions
    into one reused int32 buffer, and one ``reduceat`` per block takes every
    point's minimum under each of them, straight into the int32 result.
    """
    perms = list(perms)
    for p in perms:
        if p.dim != pack.dim:
            raise _dim_mismatch(pack.dim, p.dim)
    out = np.zeros((pack.count, len(perms)), dtype=np.int32)
    if not pack.flat.size:
        return out
    # take copies a read-only index array on every call, so copy the pack's
    # once here rather than once per permutation.
    flat = pack.flat.copy()
    rows = np.flatnonzero(pack.lengths)
    starts = pack.starts[rows]
    step = max(1, _GATHER_BLOCK_ENTRIES // flat.size)
    buf = np.empty((min(step, len(perms)), flat.size), dtype=np.int32)
    for j0 in range(0, len(perms), step):
        block = perms[j0 : j0 + step]
        for j, p in enumerate(block):
            # The pack's entries lie in 0..dim-1, so clipping never moves
            # one; with out= the default mode would gather through a temporary.
            p.rank.take(flat, out=buf[j], mode="clip")
        out[rows, j0 : j0 + len(block)] = np.minimum.reduceat(
            buf[: len(block)], starts, axis=1
        ).T
    return out


def build_sketch(vector: SparseBinaryVector, perms) -> Sketch:
    """One :func:`min_hash` per permutation, as a 1-row :func:`min_hash_matrix` call."""
    perms = list(perms)
    if not perms:
        raise ValidationError("need at least one permutation")
    return row_to_sketch(min_hash_matrix(perms, pack_supports([vector]))[0])


def lift_hash(old_hash: HashValue, inserted_rank: int, bit: int) -> HashValue:
    """Update a hash for a single feature insertion.

    ``inserted_rank`` is the rank the insertion slot holds in the current
    permutation. A hash below it is untouched; otherwise an inserted 1
    becomes the new minimum and an inserted 0 just shifts the old minimum up
    by one. An EMPTY hash stays EMPTY unless the inserted bit is 1.
    """
    if not _is_bit(bit):
        raise ValidationError("bit must be 0 or 1")
    inserted_rank = _as_int(inserted_rank, "inserted rank", 1)
    old_hash = _as_hash(old_hash)
    if old_hash is EMPTY:
        return inserted_rank if bit == 1 else EMPTY
    if old_hash < inserted_rank:
        return old_hash
    if bit == 1:
        return inserted_rank
    return old_hash + 1


def partial_min_hash(pi: Permutation, positions, bits):
    """Minimum final rank among inserted bits equal to 1, or None if all are 0.

    After a batch insertion, inserted element i ends up with rank
    ``pi(positions[i])`` plus the number of inserted elements whose base rank
    is smaller: the insertion order of the batch puts each new element
    directly below the original element whose slot it took, so the inserted
    elements sort among themselves by base rank.
    """
    batch = InsertionBatch(tuple(positions), tuple(bits))
    batch.validate_for_dim(pi.dim)
    ones = batch.one_mask
    if not ones.any():
        return None
    base = pi.rank[batch.position_array - 1]
    smaller = np.empty(len(base), dtype=np.int64)
    smaller[np.argsort(base, kind="stable")] = np.arange(len(base))
    return int((base + smaller)[ones].min())


def multiple_lift_hash(old_hash: HashValue, pi: Permutation, positions, bits) -> HashValue:
    """Update a hash for a batch feature insertion.

    The surviving old minimum shifts up by the number of inserted base ranks
    at or below it; the result is the smaller of that and the best inserted
    1-bit rank from :func:`partial_min_hash`.
    """
    batch = InsertionBatch(tuple(positions), tuple(bits))
    batch.validate_for_dim(pi.dim)
    partial = partial_min_hash(pi, batch.positions, batch.bits)
    old_hash = _as_hash(old_hash)
    if old_hash is EMPTY:
        return EMPTY if partial is None else partial
    ranks = pi.rank[batch.position_array - 1]
    shifted = old_hash + int((ranks <= old_hash).sum())
    return shifted if partial is None else min(shifted, partial)


def drop_hash(
    old_hash: HashValue,
    vector: SparseBinaryVector,
    pi: Permutation,
    position: int,
) -> HashValue:
    """Update a hash for a single feature deletion.

    A hash below the deleted rank is untouched; above it, it slides down by
    one. When the deleted feature was itself the minimum, the new minimum is
    the smallest support rank above it, slid down by one, read from one
    gather of the support's ranks; EMPTY when there is none.
    """
    if vector.dim != pi.dim:
        raise _dim_mismatch(vector.dim, pi.dim)
    position = _as_int(position, "position", 1, vector.dim)
    old_hash = _as_hash(old_hash)
    if old_hash is EMPTY:
        return EMPTY
    deleted_rank = int(pi.rank[position - 1])
    if old_hash < deleted_rank:
        return old_hash
    if old_hash > deleted_rank:
        return old_hash - 1
    ranks = pi.rank[vector.support_index() - 1]
    above = ranks[ranks > deleted_rank]
    return int(above.min()) - 1 if above.size else EMPTY


def multiple_drop_hash(
    old_hash: HashValue,
    vector: SparseBinaryVector,
    pi: Permutation,
    positions,
) -> HashValue:
    """Update a hash for a batch feature deletion.

    A surviving minimum slides down by the number of deleted ranks at or
    below it. If the minimum itself was deleted, the new minimum is the
    smallest surviving support rank, slid down by the deleted ranks below
    it; EMPTY when nothing survives.
    """
    if vector.dim != pi.dim:
        raise _dim_mismatch(vector.dim, pi.dim)
    batch = DeletionBatch(tuple(positions))
    batch.validate_for_dim(vector.dim)
    old_hash = _as_hash(old_hash)
    if old_hash is EMPTY:
        return EMPTY
    idx = batch.position_array - 1
    deleted = np.sort(pi.rank[idx])
    below_eq = int(np.searchsorted(deleted, old_hash, side="right"))
    was_deleted = below_eq > 0 and int(deleted[below_eq - 1]) == old_hash
    if not was_deleted:
        return old_hash - below_eq
    support_ranks = pi.rank[vector.support_index() - 1]
    surviving = support_ranks[~np.isin(support_ranks, deleted)]
    if surviving.size == 0:
        return EMPTY
    new_min = int(surviving.min())
    return new_min - int(np.searchsorted(deleted, new_min, side="left"))


# The count front's size rule, :func:`_step_windows`, as measured at K=128 on
# a 2-vCPU host (BENCH_16.json). The step table costs 30-60 us more per call
# than the search and saves 10-20 ns per slot, so it pays from 32-64 rows of
# the hash matrix ...
_TABLE_MIN_ROWS = 64
# ... and only while it holds at most this many entries per slot. It still
# beats the search at 115 entries per slot and takes 2-3 times as long from
# 260 on; 16 keeps a uint8 table within the search's own scratch, where hashes
# spread over a large dimension would make the table grow with the dimension.
# The search holds the query, its index and the output or, for a deletion,
# the gathered neighbours at once: about 3 int64 per slot.
_TABLE_ENTRIES_PER_SLOT = 16
# A table also stays within int32 indices, which the slots read it by.
_TABLE_ENTRIES_MAX = np.iinfo(np.int32).max

# Support entries that one chunk of a deletion's rescan gathers at a time. A
# chunk holds at least one hit, so a row whose support alone is larger is a
# chunk of its own. Measured on a 2-vCPU host at P=500, K=32 with supports of
# 800 and one deleted feature that is every column's minimum (12.8M entries to
# rescan): about 33 bytes of scratch an entry, a traced peak of 3.0 MB in
# 139 ms, against 423 MB gathered at once; budgets of 2^14, 2^15, 2^17 and
# 2^18 took 286, 197, 153 and 234 ms.
_RESCAN_BLOCK_ENTRIES = 1 << 16


def _batch_ranks(
    h, perms, batch, pack: SupportPack | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The kernels' front: the (K, n) int32 base ranks of the batch
    positions, row k under ``perms[k]``, and ``h``'s column maxima (K,),
    which the count front reads in place of another pass over ``h``.

    Checks first that ``h`` is a 2-D int32 array (its shape and dtype) with
    one column per permutation (and one row per point of ``pack``), then
    each permutation in turn, in the per-slot rules' order: that it has the
    pack's dimension, that the batch fits it, for an insertion that the
    widened frame still fits int32 ranks, and that no hash of its column
    exceeds its dimension. A hash is a rank, so a larger one was taken
    under another permutation, say before a lift the caller left out, and
    no hash the kernels return can wrap.
    """
    if not isinstance(h, np.ndarray) or h.ndim != 2 or h.dtype != np.int32:
        raise ValidationError("hash matrix must be a 2-D int32 array")
    if h.shape[1] != len(perms):
        raise ValidationError(f"sketch has {h.shape[1]} slots but {len(perms)} permutations given")
    if pack is not None and h.shape[0] != pack.count:
        raise ValidationError(f"hash matrix has {h.shape[0]} rows but {pack.count} packed points")
    idx = batch.position_array - 1
    grow = len(batch) if isinstance(batch, InsertionBatch) else 0
    widest = core._RANK_MAX - grow  # the largest dimension the batch leaves in range
    tops = h.max(axis=0, initial=0)
    # The least dimension that holds the batch and every hash: a permutation
    # of dimension need..widest passes the three checks with one comparison.
    need = max(batch.positions[-1], int(tops.max(initial=0)))
    ranks = np.empty((len(perms), len(batch)), dtype=np.int32)
    for k, p in enumerate(perms):
        if pack is not None and p.dim != pack.dim:
            raise _dim_mismatch(pack.dim, p.dim)
        if not need <= p.dim <= widest:
            batch.validate_for_dim(p.dim)
            if p.dim > widest:
                _check_rank_dim(p.dim + grow)
            if tops[k] > p.dim:
                raise ValidationError(f"hash {tops[k]} exceeds permutation dimension {p.dim}")
        # The positions fit p, so clipping never moves one.
        p.rank.take(idx, out=ranks[k], mode="clip")
    return ranks, tops


def _lifted_ranks(w_sorted: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Every column's sorted batch ranks in one sorted array, and the lifts.

    Column j is lifted by ``offsets[j] = j * (top + 1)``, so ``top`` must be
    at least every value searched, not just every batch rank: with
    ``top = max(W)``, a hash above every batch rank of its column would count
    ranks of the next.
    """
    offsets = np.arange(w_sorted.shape[0], dtype=np.int64) * (top + 1)
    return (w_sorted + offsets[:, None]).ravel(), offsets


def _shift_by_counts(h, w, sign, tops, hits=False):
    """``h + sign * #{w <= h}`` for every slot, with 0 (EMPTY) staying 0, over
    each column's sorted distinct ranks ``w`` (K, n), where ``tops`` holds
    ``h``'s column maxima; and, when ``hits``, the C-order flat indices of
    the slots whose hash is one of its column's ranks (else None).

    The count front of both update rules. It reads the counts from a step
    table when :func:`_step_windows` finds one that pays, and otherwise
    searches for them.
    """
    windows = _step_windows(h, w, tops)
    if windows is None:
        return _search_counts(h, w, sign, tops, hits)
    return _table_counts(h, w, sign, hits, *windows)


def _step_windows(h, w, tops):
    """The size rule: each column's step-table window ``(lo, hi)``, or None
    when the search is cheaper.

    Column j's table covers ranks ``w[j, 0] - 1 .. min(tops[j], w[j, -1] + 1)``,
    ``tops[j]`` being the column's largest hash (at least one entry): a hash
    below it counts 0 and one above it n. The table pays only from
    ``_TABLE_MIN_ROWS`` rows, and only while its entries number at most
    ``_TABLE_ENTRIES_PER_SLOT`` per slot of ``h`` and at most
    ``_TABLE_ENTRIES_MAX`` in all. The windows are int64, as ``w[j, -1] + 1``
    may pass the largest rank; each bound is a rank or a hash, so it fits
    ``h``'s dtype.
    """
    if h.shape[0] < _TABLE_MIN_ROWS:
        return None
    lo = w[:, 0].astype(np.int64) - 1
    hi = np.minimum(tops, w[:, -1].astype(np.int64) + 1)
    np.maximum(hi, lo, out=hi)
    if int((hi - lo + 1).sum()) > min(_TABLE_ENTRIES_PER_SLOT * h.size, _TABLE_ENTRIES_MAX):
        return None
    return lo, hi


def _step_table(w, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Every column's codes ``2 * #{w <= r} + [r in W]`` for r in its window
    ``lo..hi``, one window after another in one array of the narrowest
    unsigned dtype that holds 2n + 1; and each column's base, which added to
    a rank in its window gives the rank's entry.

    The codes are a step function of r with 2n + 1 runs: 0 from w_1 - 1,
    then 2i + 1 at w_i and 2i from w_i + 1 on, for i = 1..n. Every window
    is cut from one ``np.repeat`` of the run values over the run lengths.
    """
    k, n = w.shape
    starts = np.empty((k, 2 * n + 2), dtype=np.int64)
    starts[:, 0] = lo
    starts[:, 1:-1:2] = w
    np.add(starts[:, 1:-1:2], 1, out=starts[:, 2:-1:2])
    end = hi + 1
    starts[:, -1] = end
    np.clip(starts, lo[:, None], end[:, None], out=starts)
    codes = np.arange(2 * n + 1, dtype=np.min_scalar_type(2 * n + 1))
    codes[1::2] += 2
    table = np.repeat(np.tile(codes, k), np.diff(starts, axis=1).ravel())
    sizes = hi - lo + 1
    return table, sizes.cumsum() - sizes - lo


def _table_counts(h, w, sign, hits, lo, hi):
    """:func:`_shift_by_counts` from the step table: each slot's hash,
    clipped into its column's window and moved to the column's entries,
    reads its code with one narrow ``take``. Every pass runs in ``h``'s
    dtype: the table holds at most ``_TABLE_ENTRIES_MAX`` entries, so no
    entry index wraps."""
    table, base = _step_table(w, lo, hi)
    lo, hi, base = (a.astype(h.dtype) for a in (lo, hi, base))
    out = np.maximum(h, lo, out=np.empty_like(h))
    np.minimum(out, hi, out=out)
    out += base
    code = table.take(out)
    hit = np.flatnonzero((code & 1).astype(bool)) if hits else None
    code >>= 1
    if sign > 0:
        np.add(h, code, out=out)
    else:
        np.subtract(h, code, out=out)
    return out, hit


def _search_counts(h, w, sign, tops, hits):
    """:func:`_shift_by_counts` from one search of every lifted hash in all
    columns' lifted ranks. The lifts pass int32, so ``h`` is widened once to
    int64 for the queries, and the counts are narrowed once to h's dtype, so
    each pass runs in one width."""
    top = max(int(tops.max(initial=0)), int(w.max(initial=0)))
    lifted, offsets = _lifted_ranks(w, top)
    # Queries go column by column, so consecutive searches end among the
    # same column's ranks, which stay in cache; laid out in that order, they
    # reach the search without another copy.
    query = h.T.astype(np.int64, order="C")
    query += offsets[:, None]
    idx = np.searchsorted(lifted, query, side="right")
    # idx minus the n entries of each earlier column is the count.
    base = np.arange(w.shape[0], dtype=np.int64) * w.shape[1]
    hit = None
    if hits:
        idx -= 1
        # idx is -1 only where the query lies below every rank, so the
        # wrapped read is above it and never equal.
        hit = np.flatnonzero((lifted.take(idx) == query).T)
        base -= 1
    idx -= base[:, None]
    out = idx.T.astype(h.dtype, order="C")
    (np.add if sign > 0 else np.subtract)(h, out, out=out)
    return out, hit


def lift_hash_matrix(h: np.ndarray, perms, batch: InsertionBatch) -> np.ndarray:
    """:func:`multiple_lift_hash` on every slot of a hash matrix at once.

    ``h[i, j]`` is point i's int32 hash under ``perms[j]``, 0 for EMPTY; the
    result is a new int32 matrix in the same layout. A hash r becomes
    r + #{w <= r} over the column's base ranks W, or the best inserted 1-bit
    rank when that is smaller; an EMPTY slot takes that rank or stays EMPTY.
    """
    w, tops = _batch_ranks(h, list(perms), batch)
    return _lift(h, w, batch.one_mask, tops)


def _lift(h, w, ones, tops) -> np.ndarray:
    """The insertion rule on (K, n) ranks ``w`` in h's frame, where entry i
    inserts a 1 when ``ones[i]``, and ``tops`` holds h's column maxima.

    The ranks are cast to h's dtype on entry, so every pass over the matrix
    runs in it. The shifts come from :func:`_shift_by_counts`: one narrow
    gather per slot from the step table, or one search, as its size rule
    picks.
    """
    w = w.astype(h.dtype, copy=False)
    out, _ = _shift_by_counts(h, np.sort(w, axis=1), +1, tops)
    if ones.any():
        # Inserted element i lands at rank w_i + #{w < w_i}, which rises with
        # w_i, so a column's best 1-bit is its smallest 1-bit base rank.
        w1 = w[:, ones].min(axis=1)
        best = (w < w1[:, None]).sum(axis=1, dtype=w.dtype)
        best += w1
        np.minimum(out, best, out=out)
        np.copyto(out, best, where=h == 0)
    return out


def drop_hash_matrix(h: np.ndarray, perms, batch: DeletionBatch, pack: SupportPack) -> np.ndarray:
    """:func:`multiple_drop_hash` on every slot of a hash matrix at once.

    ``h`` is laid out as for :func:`lift_hash_matrix`, and row i's support is
    point i of ``pack``. A hash r that survives becomes r - #{w <= r}; a
    deleted one is replaced by the smallest surviving support rank v, as
    v - #{w < v}, or by EMPTY when nothing survives.
    """
    perms = list(perms)
    w, tops = _batch_ranks(h, perms, batch, pack)
    w_sorted = np.sort(w, axis=1)
    return _drop(h, w_sorted, w_sorted, batch.position_array - 1, perms, pack, tops)


def _drop(h, cur, base, gone, perms, pack: SupportPack, tops) -> np.ndarray:
    """The deletion rule on each column's sorted ranks ``cur`` deleted in h's
    frame, where ``tops`` holds h's column maxima; a deleted hash is
    rescanned over the support ranks whose positions are not among the
    sorted 0-based positions ``gone`` deleted so far, whose sorted base ranks
    are ``base``. One batch has ``cur is base``. ``cur`` is cast to h's
    dtype on entry, so every pass over the matrix runs in it.

    The shifts and the deleted hashes come from :func:`_shift_by_counts`,
    by step table or search as for :func:`_lift`: the table's odd codes, or
    the search's equal neighbours, mark the hashes to rescan. The rescan
    gathers the hit rows' supports in chunks of at most
    ``_RESCAN_BLOCK_ENTRIES`` entries, or of one hit whose support is larger,
    so its scratch stays bounded however many slots it rescans.
    """
    out, hits = _shift_by_counts(h, cur.astype(h.dtype, copy=False), -1, tops, hits=True)
    if hits.size == 0:
        return out
    # C order groups the hits by row; a stable sort of the few regroups them
    # by column, each column's rows still ascending.
    rows, cols = np.divmod(hits, h.shape[1])
    order = np.argsort(cols, kind="stable")
    rows, cols = rows[order], cols[order]
    seg_len = pack.lengths[rows]
    ends = seg_len.cumsum()
    # Support and base ranks lie in 1..dim, so lifting by dim keeps the
    # columns apart.
    lifted, offsets = _lifted_ranks(base, pack.dim)
    a = 0
    while a < rows.size:
        b = int(ends.searchsorted(ends[a] - seg_len[a] + _RESCAN_BLOCK_ENTRIES, "right"))
        b = max(b, a + 1)
        out[rows[a:b], cols[a:b]] = _rescanned_hashes(
            rows[a:b], cols[a:b], seg_len[a:b], gone, perms, pack, lifted, offsets
        )
        a = b
    return out


def _rescanned_hashes(rows, cols, seg_len, gone, perms, pack, lifted, offsets) -> np.ndarray:
    """Each hit's new hash in its column: the smallest support rank whose
    position is not among the sorted 0-based positions ``gone``, slid down
    by the column's deleted ranks below it, or 0 (EMPTY) when none
    survives. The hits are sorted by column, row ``rows[i]``'s support has
    ``seg_len[i]`` entries, and ``lifted, offsets`` are the deleted base
    ranks lifted by :func:`_lifted_ranks` over ``pack.dim``."""
    # Gather every hit row's support, one segment per hit.
    seg_start = _segment_starts(seg_len)
    positions = pack.flat[_members(pack.starts[rows], seg_len)]
    total = positions.size
    ranks = np.empty(total, dtype=np.int32)
    firsts = np.flatnonzero(np.diff(cols, prepend=-1))
    bounds = np.append(seg_start[firsts], total)
    for j, a, b in zip(cols[firsts].tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
        perms[j].rank.take(positions[a:b], out=ranks[a:b], mode="clip")  # entries < dim
    ranks = ranks.astype(np.int64)  # the sentinel below, dim + 1, may be 2**31
    # A support rank was deleted exactly when its position was, in every
    # column: one search of the positions among the few deleted ones. It
    # then reads dim + 1, above every support rank, as does a hit with no
    # support.
    none = pack.dim + 1
    at = np.searchsorted(gone, positions)
    ranks[gone.take(at, mode="clip") == positions] = none
    best = np.full(rows.size, none, dtype=np.int64)
    some = seg_len > 0
    if some.any():
        best[some] = np.minimum.reduceat(ranks, seg_start[some])
    # r - #{w < r} rises with r over surviving ranks, so the smallest
    # survivor v, slid down by its column's n deleted ranks below it, is the
    # new minimum, at most dim - n. dim + 1 slides past all n, to dim + 1 - n.
    n = lifted.size // offsets.size
    best -= np.searchsorted(lifted, best + offsets[cols], side="left") - cols * n
    best[best > pack.dim - n] = 0
    return best


def row_to_sketch(row: np.ndarray) -> Sketch:
    """One hash-matrix row as a Sketch.

    A non-empty 1-D int32 row with no negative entry, as every kernel
    returns, is checked by one comparison and a copy of it becomes the
    sketch's row without per-value checks; any other row goes through the
    Sketch constructor and its messages.
    """
    if row.dtype == np.int32 and row.ndim == 1 and row.size and row.min() >= 0:
        return Sketch._build(row=row.copy())
    return Sketch(tuple(EMPTY if v == 0 else v for v in row.tolist()))


def update_sketch_insert(sk: Sketch, perms, batch: InsertionBatch) -> Sketch:
    """:func:`multiple_lift_hash` on every slot of a sketch, as one
    :func:`lift_hash_matrix` row.

    The caller is responsible for lifting the permutations (lazily or on
    demand) before issuing further updates against the widened frame.
    """
    return row_to_sketch(lift_hash_matrix(sk.row[None], perms, batch)[0])


def update_sketch_delete(
    sk: Sketch, perms, vector: SparseBinaryVector, batch: DeletionBatch
) -> Sketch:
    """:func:`multiple_drop_hash` on every slot of a sketch, as one
    :func:`drop_hash_matrix` row."""
    return row_to_sketch(drop_hash_matrix(sk.row[None], perms, batch, pack_supports([vector]))[0])
