"""The K-vectorized kernels against the per-slot rules and re-sketching.

``min_hash_matrix`` is checked slot for slot against the scalar ``min_hash``
and a dense brute-force scan. ``lift_hash_matrix`` and ``drop_hash_matrix``
are checked slot for slot against the per-slot ``multiple_lift_hash`` /
``multiple_drop_hash`` and, for a true hash matrix, against re-sketching the
edited points under the lifted/dropped permutations. The sequential paths of
``engine`` fold the kernels' rule bodies one entry at a time; they are checked
against ``lift_hash`` / ``drop_hash`` folded under ``lift_perm`` / ``drop_perm``
and against the batch paths. Every update-kernel test runs under both count
back-ends, the step table and the search of all columns at once, with the
size rule patched each way; small dimensions make the columns' lifted ranges
touch, where a hash could count the next column's ranks. The gather block
size of ``min_hash_matrix`` is patched down so that its examples cross block
boundaries. Fixed cases cover the table's edges (codes past uint8, a column
whose hashes all lie below its batch ranks, a deleted rank equal to a
column's largest hash, K=1, all-EMPTY rows, no permutations at all), a unit
test checks the table's codes against their definition, and
the size rule keeps 1-row calls on the search and bounds the memory of
tables over large dimensions. The delete kernel's rescan gathers supports in
chunks: every class that runs it, or the folds, runs again with the chunk
budget at 1 entry, fixed cases cover a support larger than the budget, a hit
emptied in a later chunk and chunks across many columns, and a late-stream
rescan of 12.8M support entries stays within a memory bound.
``row_to_sketch`` takes a
kernel row without per-value checks; it is checked against the ``Sketch``
constructor, and any other row keeps the constructor's messages. A
``SupportPack`` checks its invariant once, when it is built: every malformed
pack is refused there, and a pack rebuilt through the checking constructor
from ``pack_supports``'s arrays gives the kernels the same outputs.
"""

import copy
import pickle
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynsketch import sketch
from dynsketch.bench import engine
from dynsketch.core import (
    EMPTY,
    DeletionBatch,
    InsertionBatch,
    Permutation,
    Sketch,
    SparseBinaryVector,
    SupportPack,
    ValidationError,
    delete_features,
    insert_features,
)
from dynsketch.permgen import (
    PermutationSeed,
    drop_perm,
    lift_perm,
    multiple_drop_perm,
    multiple_lift_perm,
    random_permutation,
)
from dynsketch.sketch import (
    build_sketch,
    drop_hash,
    drop_hash_matrix,
    lift_hash,
    lift_hash_matrix,
    min_hash,
    min_hash_matrix,
    multiple_drop_hash,
    multiple_lift_hash,
    row_to_sketch,
    update_sketch_delete,
    update_sketch_insert,
)

from _back_ends import BACK_ENDS, count_back_end, rescan_budget
from _back_ends import one_entry_rescan_chunks  # noqa: F401 (a fixture)
from _reference import min_rank_brute, pack_supports_tuples


@st.composite
def matrix_case(draw, max_dim=24, max_points=6, max_perms=5):
    """Points, permutations, a batch and a hash matrix, plus whether the
    matrix is the points' true sketch."""
    # Small dimensions make columns' lifted ranges touch, where lifting bugs show.
    dim = draw(st.one_of(st.integers(1, 6), st.integers(1, max_dim)))
    k = draw(st.integers(1, max_perms))
    seed = draw(st.integers(0, 2**32 - 1))
    perms = [random_permutation(dim, PermutationSeed(seed, j)) for j in range(k)]
    points = [
        SparseBinaryVector(dim, tuple(sorted(s)))
        for s in draw(st.lists(st.sets(st.integers(1, dim)), min_size=1, max_size=max_points))
    ]
    n = draw(st.integers(1, dim))
    positions = tuple(sorted(draw(st.sets(st.integers(1, dim), min_size=n, max_size=n))))
    bits = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    h = engine.sketch_matrix(engine.pack_supports(points), perms)
    mode = draw(st.sampled_from(("true", "zero rows", "zero slots", "arbitrary")))
    if mode == "zero rows":
        rows = draw(st.lists(st.integers(0, len(points) - 1), max_size=len(points)))
        h[rows] = 0
    elif mode == "zero slots":
        mask = draw(st.lists(st.booleans(), min_size=h.size, max_size=h.size))
        h[np.array(mask).reshape(h.shape)] = 0
    elif mode == "arbitrary":
        # Any rank of the frame or EMPTY: the kernels refuse a hash above dim.
        values = draw(st.lists(st.integers(0, dim), min_size=h.size, max_size=h.size))
        h = np.array(values, dtype=np.int32).reshape(h.shape)
    return points, perms, positions, bits, h, mode == "true"


def as_hash(v):
    return EMPTY if v == 0 else int(v)


def as_value(v):
    return 0 if v is EMPTY else v


def resketch(points, perms, edit, carry, batch):
    edited = [edit(v, batch) for v in points]
    return engine.sketch_matrix(
        engine.pack_supports(edited), [carry(p, batch.positions) for p in perms]
    )


def per_slot_insert(h, perms, batch):
    return np.array(
        [
            [as_value(multiple_lift_hash(as_hash(v), p, batch.positions, batch.bits))
             for v, p in zip(row, perms)]
            for row in h
        ],
        dtype=np.int64,
    ).reshape(h.shape)


def per_slot_delete(h, points, perms, batch):
    return np.array(
        [
            [as_value(multiple_drop_hash(as_hash(v), x, p, batch.positions))
             for v, p in zip(row, perms)]
            for row, x in zip(h, points)
        ],
        dtype=np.int64,
    ).reshape(h.shape)


def kernel_insert(h, perms, batch, back_end):
    with count_back_end(back_end):
        return lift_hash_matrix(h, perms, batch)


def kernel_delete(h, points, perms, batch, back_end):
    pack = engine.pack_supports(points)
    with count_back_end(back_end):
        return drop_hash_matrix(h, perms, batch, pack)


@st.composite
def support_case(draw):
    """Permutations and supports, with empty and full supports drawn often."""
    dim = draw(st.one_of(st.just(1), st.integers(1, 12)))
    k = draw(st.one_of(st.just(1), st.integers(1, 5)))
    seed = draw(st.integers(0, 2**32 - 1))
    perms = [random_permutation(dim, PermutationSeed(seed, j)) for j in range(k)]
    support = st.one_of(
        st.just(frozenset()), st.just(frozenset(range(1, dim + 1))), st.sets(st.integers(1, dim))
    )
    supports = draw(st.one_of(
        st.lists(st.just(frozenset()), min_size=1, max_size=3),
        st.lists(support, min_size=1, max_size=6),
    ))
    return dim, perms, [SparseBinaryVector(dim, tuple(sorted(s))) for s in supports]


class TestMinHashMatrix:
    @given(support_case(), st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_equals_min_hash_and_brute_force(self, case, block):
        # A gather block of `block` entries holds block // F permutations (at
        # least one): one per block, a partial last block, or all K at once.
        dim, perms, points = case
        flat = np.array([m - 1 for x in points for m in x.support], dtype=np.int64)
        lengths = np.array([len(x.support) for x in points], dtype=np.int64)
        with patch.object(sketch, "_GATHER_BLOCK_ENTRIES", block):
            got = min_hash_matrix(perms, SupportPack(len(points), dim, flat, lengths))
        assert got.dtype == np.int32 and got.shape == (len(points), len(perms))
        for row, x in zip(got.tolist(), points):
            assert row == [as_value(min_hash(x, p)) for p in perms]
            brute = [min_rank_brute(x.to_dense(), p.rank.tolist()) for p in perms]
            assert row == [0 if b is None else b for b in brute]

    @pytest.mark.parametrize("block", [1, 28, 70, 1 << 18])
    def test_gather_blocks_against_min_hash(self, block):
        # The mixed pack has 14 entries, so a block holds one permutation,
        # 2 or 5 of them (a partial last block, or one wider than K) or all.
        dim = 30
        rng = np.random.default_rng(8)
        empty = SparseBinaryVector(dim, ())
        mixed = [empty] + [
            SparseBinaryVector(dim, tuple(sorted(rng.choice(dim, size, replace=False) + 1)))
            for size in (1, 4, 9)
        ] + [empty]
        for points in (mixed, [empty, empty]):
            pack = engine.pack_supports(points)
            for k in (1, 2, 5, 9):
                perms = [random_permutation(dim, PermutationSeed(6, j)) for j in range(k)]
                with patch.object(sketch, "_GATHER_BLOCK_ENTRIES", block):
                    got = min_hash_matrix(perms, pack)
                assert got.dtype == np.int32
                assert got.tolist() == [[as_value(min_hash(x, p)) for p in perms] for x in points]

    @pytest.mark.parametrize("entry", [-1, -5, 5, 6])
    def test_packed_entries_outside_the_dimension(self, entry):
        # The pack refuses them when it is built, so no kernel ever reads one.
        with pytest.raises(ValidationError) as err:
            SupportPack(2, 5, np.array([0, entry], dtype=np.int64), np.array([1, 1]))
        assert str(err.value) == "packed support entries must lie in 0..4"

    def test_pack_is_checked_before_the_permutations(self):
        with pytest.raises(ValidationError) as err:
            SupportPack(1, 5, np.array([-1], dtype=np.int64), np.array([1]))
        assert str(err.value) == "packed support entries must lie in 0..4"
        pack = SupportPack(1, 5, np.array([4], dtype=np.int64), np.array([1]))
        with pytest.raises(ValidationError) as err:
            min_hash_matrix([Permutation([3, 1, 5, 2, 4]), PI7], pack)
        assert str(err.value) == "vector dimension 5 != permutation dimension 7"

    @pytest.mark.parametrize("block", [1, 1 << 18])
    def test_threaded_equals_serial(self, block):
        dim = 20
        rng = np.random.default_rng(3)
        points = [SparseBinaryVector(dim, ()), SparseBinaryVector(dim, tuple(range(1, dim + 1)))]
        points += [
            SparseBinaryVector(dim, tuple(sorted(rng.choice(dim, size, replace=False) + 1)))
            for size in (1, 3, 7, 12)
        ]
        pack = engine.pack_supports(points)
        with patch.object(sketch, "_GATHER_BLOCK_ENTRIES", block):
            for k in range(1, 6):
                perms = [random_permutation(dim, PermutationSeed(4, j)) for j in range(k)]
                serial = engine.sketch_matrix(pack, perms, threads=1)
                assert np.array_equal(serial, min_hash_matrix(perms, pack))
                for threads in range(2, 9):
                    got = engine.sketch_matrix(pack, perms, threads=threads)
                    assert got.dtype == np.int32 and np.array_equal(got, serial)


@pytest.mark.parametrize("back_end", BACK_ENDS)
class TestLiftHashMatrix:
    @given(matrix_case())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_slot_rule_and_resketch(self, back_end, case):
        points, perms, positions, bits, h, true_sketch = case
        batch = InsertionBatch(positions, bits)
        got = kernel_insert(h, perms, batch, back_end)
        assert got.dtype == np.int32
        assert np.array_equal(got, per_slot_insert(h, perms, batch))
        if true_sketch:
            expected = resketch(points, perms, insert_features, multiple_lift_perm, batch)
            assert np.array_equal(got, expected)

    def test_hash_above_every_batch_rank_stays_in_its_column(self, back_end):
        # Both columns put the batch at ranks 1 and 2; a span of only
        # max(W) + 1 would let the hash 6 of column 0 count column 1's ranks.
        ident = Permutation([1, 2, 3, 4, 5, 6])
        h = np.array([[6, 6], [0, 3]], dtype=np.int32)
        batch = InsertionBatch((1, 2), (0, 0))
        got = kernel_insert(h, [ident, ident], batch, back_end)
        assert got.tolist() == [[8, 8], [0, 5]]
        assert np.array_equal(got, per_slot_insert(h, [ident, ident], batch))

    def test_edge_batches_against_resketch(self, back_end):
        dim = 9
        perms = [random_permutation(dim, PermutationSeed(5, j)) for j in range(3)]
        points = [
            SparseBinaryVector(dim, ()),
            SparseBinaryVector(dim, (1, dim)),
            SparseBinaryVector(dim, tuple(range(1, dim + 1))),
        ]
        h = engine.sketch_matrix(engine.pack_supports(points), perms)
        for batch in (
            InsertionBatch((1,), (1,)),
            InsertionBatch((dim,), (0,)),
            InsertionBatch((1, dim), (0, 0)),
            InsertionBatch(tuple(range(1, dim + 1)), (1,) * dim),
        ):
            for k in (1, 3):
                got = kernel_insert(h[:, :k], perms[:k], batch, back_end)
                expected = resketch(points, perms[:k], insert_features, multiple_lift_perm, batch)
                assert np.array_equal(got, expected)


@pytest.mark.parametrize("back_end", BACK_ENDS)
class TestDropHashMatrix:
    @given(matrix_case())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_slot_rule_and_resketch(self, back_end, case):
        points, perms, positions, _, h, true_sketch = case
        batch = DeletionBatch(positions)
        got = kernel_delete(h, points, perms, batch, back_end)
        assert got.dtype == np.int32
        assert np.array_equal(got, per_slot_delete(h, points, perms, batch))
        if true_sketch:
            expected = resketch(points, perms, delete_features, multiple_drop_perm, batch)
            assert np.array_equal(got, expected)

    def test_whole_support_deleted_empties_the_row(self, back_end):
        dim = 8
        perms = [random_permutation(dim, PermutationSeed(9, j)) for j in range(4)]
        points = [
            SparseBinaryVector(dim, (2, 5)),
            SparseBinaryVector(dim, (1, 2, 5, 8)),
            SparseBinaryVector(dim, ()),
        ]
        h = engine.sketch_matrix(engine.pack_supports(points), perms)
        batch = DeletionBatch((2, 5))
        got = kernel_delete(h, points, perms, batch, back_end)
        assert not got[0].any()
        assert got[1].all()
        assert not got[2].any()
        expected = resketch(points, perms, delete_features, multiple_drop_perm, batch)
        assert np.array_equal(got, expected)

    def test_deleting_every_position(self, back_end):
        dim = 6
        perms = [random_permutation(dim, PermutationSeed(2, j)) for j in range(3)]
        points = [SparseBinaryVector(dim, (1, 4)), SparseBinaryVector(dim, ())]
        h = engine.sketch_matrix(engine.pack_supports(points), perms)
        batch = DeletionBatch(tuple(range(1, dim + 1)))
        got = kernel_delete(h, points, perms, batch, back_end)
        assert got.shape == h.shape and not got.any()
        assert np.array_equal(got, per_slot_delete(h, points, perms, batch))

    def test_support_rank_above_every_hash_stays_in_its_column(self, back_end):
        # Both minima are deleted. Column 0's next support rank, 3, is above
        # every hash and batch rank; a span of max(h, W) + 1 = 2 would lift it
        # onto column 1's deleted rank and drop it as deleted.
        x = SparseBinaryVector(3, (1, 3))
        perms = [Permutation([1, 2, 3]), Permutation([1, 3, 2])]
        h = np.array([[1, 1]], dtype=np.int32)
        batch = DeletionBatch((1,))
        got = kernel_delete(h, [x], perms, batch, back_end)
        assert got.tolist() == [[2, 1]]
        assert np.array_equal(got, per_slot_delete(h, [x], perms, batch))

    def test_hash_above_every_batch_rank_stays_in_its_column(self, back_end):
        ident = Permutation([1, 2, 3, 4, 5, 6])
        points = [SparseBinaryVector(6, (6,)), SparseBinaryVector(6, (1, 3))]
        h = np.array([[6, 6], [1, 1]], dtype=np.int32)
        batch = DeletionBatch((1, 2))
        got = kernel_delete(h, points, [ident, ident], batch, back_end)
        assert got.tolist() == [[4, 4], [1, 1]]
        assert np.array_equal(got, per_slot_delete(h, points, [ident, ident], batch))


@st.composite
def fold_case(draw):
    """A matrix_case with an EMPTY point added and, as often as not, an edge
    batch: one entry, the first or last position, every position, all 1-bits."""
    points, perms, positions, bits, h, _ = draw(matrix_case())
    dim, k = perms[0].dim, len(perms)
    points = points + [SparseBinaryVector(dim, ())]
    h = np.vstack([h, np.zeros((1, k), dtype=np.int32)])
    edges = ((1,), (dim,), tuple(sorted({1, dim})), tuple(range(1, dim + 1)))
    positions = draw(st.one_of(st.just(positions), st.sampled_from(edges)))
    n = len(positions)
    bits = draw(st.one_of(
        st.just((1,) * n), st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    ))
    return points, perms, positions, bits, h


def folded_lift_hash(h, perms, batch):
    """lift_hash on every slot, one batch entry at a time under lift_perm."""
    out = h.copy()
    for j, perm in enumerate(perms):
        for step, (m, b) in enumerate(zip(batch.positions, batch.bits)):
            slot = m + step
            rank = perm.value_at(slot)
            out[:, j] = [as_value(lift_hash(as_hash(v), rank, b)) for v in out[:, j]]
            perm = lift_perm(perm, slot)
    return out


def folded_drop_hash(h, points, perms, batch):
    """drop_hash on every slot, one batch entry at a time under drop_perm
    and delete_features."""
    out = h.copy()
    for j, perm in enumerate(perms):
        current = points
        for step, m in enumerate(batch.positions):
            slot = m - step
            out[:, j] = [
                as_value(drop_hash(as_hash(v), x, perm, slot)) for v, x in zip(out[:, j], current)
            ]
            perm = drop_perm(perm, slot)
            current = [delete_features(x, DeletionBatch((slot,))) for x in current]
    return out


@pytest.mark.parametrize("back_end", BACK_ENDS)
class TestSequentialFolds:
    @given(fold_case())
    @settings(max_examples=200, deadline=None)
    def test_insert_equals_folded_lift_hash_and_batch(self, back_end, case):
        _, perms, positions, bits, h = case
        batch = InsertionBatch(positions, bits)
        with count_back_end(back_end):
            got = engine.apply_sequential_insert(h, perms, batch)
            assert np.array_equal(got, engine.apply_batch_insert(h, perms, batch))
        assert got.dtype == np.int32
        assert np.array_equal(got, folded_lift_hash(h, perms, batch))

    @given(fold_case())
    @settings(max_examples=200, deadline=None)
    def test_delete_equals_folded_drop_hash_and_batch(self, back_end, case):
        points, perms, positions, _, h = case
        batch = DeletionBatch(positions)
        pack = engine.pack_supports(points)
        with count_back_end(back_end):
            got = engine.apply_sequential_delete(h, pack, perms, batch)
            assert np.array_equal(got, engine.apply_batch_delete(h, pack, perms, batch))
        assert got.dtype == np.int32
        # drop_hash walks upward from the deleted rank, so it is the rule only
        # where every slot holds its point's minimum or EMPTY.
        if np.all((h == 0) | (h == engine.sketch_matrix(pack, perms))):
            assert np.array_equal(got, folded_drop_hash(h, points, perms, batch))

    def test_leave_the_input_unchanged(self, back_end):
        pack = engine.pack_supports([X7])
        h = engine.sketch_matrix(pack, [PI7, PI7])
        before = h.copy()
        with count_back_end(back_end):
            engine.apply_sequential_insert(h, [PI7, PI7], InsertionBatch((1, 4), (1, 0)))
            engine.apply_sequential_delete(h, pack, [PI7, PI7], DeletionBatch((1, 4)))
            lift_hash_matrix(h, [PI7, PI7], InsertionBatch((1, 4), (1, 0)))
            drop_hash_matrix(h, [PI7, PI7], DeletionBatch((1, 4)), pack)
        assert np.array_equal(h, before)


PI7 = Permutation([6, 3, 1, 7, 2, 5, 4])
PI8 = Permutation([6, 3, 1, 7, 2, 5, 4, 8])
X7 = SparseBinaryVector.from_dense([1, 0, 0, 1, 0, 1, 0])


@pytest.mark.parametrize("back_end", BACK_ENDS)
class TestInt32RanksAndHashes:
    """Ranks are int32, and so is every hash matrix, fold and sketch row."""

    def test_every_output_is_int32(self, back_end):
        with count_back_end(back_end):
            perms = [PI7, random_permutation(7, PermutationSeed(2)), multiple_drop_perm(PI8, (8,))]
            assert all(p.rank.dtype == np.int32 for p in perms)
            pack = engine.pack_supports(
                [X7, SparseBinaryVector(7, ()), SparseBinaryVector(7, (2, 7))]
            )
            ins, dele = InsertionBatch((1, 4), (1, 0)), DeletionBatch((1, 4))
            h = min_hash_matrix(perms, pack)
            outputs = [
                h,
                engine.sketch_matrix(pack, perms, threads=2),
                lift_hash_matrix(h, perms, ins),
                drop_hash_matrix(h, perms, dele, pack),
                engine.apply_sequential_insert(h, perms, ins),
                engine.apply_sequential_delete(h, pack, perms, dele),
                sketch._batch_ranks(h, perms, ins)[0],
            ]
            for out in outputs:
                assert out.dtype == np.int32
            sk = build_sketch(X7, perms)
            rows = [
                sk.row,
                update_sketch_insert(sk, perms, ins).row,
                update_sketch_delete(sk, perms, X7, dele).row,
                Sketch((3, EMPTY)).row,
            ]
            for row in rows:
                assert row.dtype == np.int32

    def test_hashes_near_int32_max_lift_and_drop_exactly(self, back_end):
        with count_back_end(back_end):
            # The search lifts column j by j * (top + 1), past int32 for hashes
            # near 2**31: the int32 hashes and ranks must meet it widened. The
            # insertion's two 0-bits shift the largest hash to 2**31 - 1 exactly.
            # Row 1 holds PI7's deleted rank 3, so the delete kernel rescans it.
            # Such hashes come only from permutations near 2**31 in dimension,
            # and the kernels refuse them under PI7, so the rule bodies below
            # the kernels' front take them here, with PI7's batch ranks.
            big = [2**31 - 3, 2**31 - 10, 3 * 2**29, 2**30]
            perms = [PI7] * len(big)
            h = np.array([big, [3, 3, 2**31 - 3, 0]], dtype=np.int32)
            tops = h.max(axis=0)
            batch = InsertionBatch((2, 5), (0, 0))
            w = np.stack([p.rank[batch.position_array - 1] for p in perms])
            got = sketch._lift(h, w, batch.one_mask, tops)
            assert got.dtype == np.int32 and got.max() == 2**31 - 1
            assert np.array_equal(got, per_slot_insert(h, perms, batch))
            points = [X7, SparseBinaryVector(7, (2, 4))]
            pack = engine.pack_supports(points)
            dele = DeletionBatch((2, 5))
            w = np.sort(w, axis=1)
            got = sketch._drop(h, w, w, dele.position_array - 1, perms, pack, tops)
            assert got.dtype == np.int32
            assert np.array_equal(got, per_slot_delete(h, points, perms, dele))


@pytest.mark.parametrize("back_end", BACK_ENDS)
class TestHashAboveItsDimension:
    """A hash is a rank of its column's permutation, so every kernel refuses
    one above that permutation's dimension, as a sketch carries when a lift
    was left out, rather than shift it past the frame."""

    def test_refused_where_an_int32_hash_would_wrap(self, back_end):
        h = np.array([[2**31 - 1, 5]], dtype=np.int32)
        message = "^hash 2147483647 exceeds permutation dimension 7$"
        with count_back_end(back_end), pytest.raises(ValidationError, match=message):
            lift_hash_matrix(h, [PI7, PI7], InsertionBatch((1, 2), (0, 0)))

    @pytest.mark.parametrize("rows", [1, 70])
    def test_refused_by_every_kernel(self, back_end, rows):
        # Under PI7 the hash 9 would become 10 on this insert and 8 on this delete.
        h = np.tile(np.array([[5, 9]], dtype=np.int32), (rows, 1))
        pack = engine.pack_supports([X7] * rows)
        ins, dele = InsertionBatch((2, 3), (0, 0)), DeletionBatch((1,))
        calls = [
            lambda: lift_hash_matrix(h, [PI7, PI7], ins),
            lambda: drop_hash_matrix(h, [PI7, PI7], dele, pack),
            lambda: engine.apply_sequential_insert(h, [PI7, PI7], ins),
            lambda: engine.apply_sequential_delete(h, pack, [PI7, PI7], dele),
            lambda: update_sketch_insert(Sketch((5, 9)), [PI7, PI7], ins),
            lambda: update_sketch_delete(Sketch((5, 9)), [PI7, PI7], X7, dele),
        ]
        with count_back_end(back_end):
            for call in calls:
                with pytest.raises(ValidationError, match="^hash 9 exceeds permutation dimension 7$"):
                    call()

    def test_a_sketch_under_stale_permutations(self, back_end):
        # X7's minimum under PI7 is rank 5; three inserted 0-bits below it
        # shift it to 8, in the frame of PI7 lifted at the same positions.
        first, later = InsertionBatch((2, 3, 5), (0, 0, 0)), InsertionBatch((1,), (0,))
        lifted = multiple_lift_perm(PI7, first.positions)
        x10 = insert_features(X7, first)
        with count_back_end(back_end):
            sk = update_sketch_insert(build_sketch(X7, [PI7]), [PI7], first)
            assert sk.values == (8,)
            got = update_sketch_insert(sk, [lifted], later)
            assert got.values == (min_hash(insert_features(x10, later), lift_perm(lifted, 1)),)
            with pytest.raises(ValidationError, match="^hash 8 exceeds permutation dimension 7$"):
                update_sketch_insert(sk, [PI7], later)
            with pytest.raises(ValidationError, match="^hash 8 exceeds permutation dimension 7$"):
                update_sketch_delete(sk, [PI7], X7, DeletionBatch((1,)))


def check_both_rules(h, points, perms, ins, dele, back_end):
    """Both kernels on ``h`` under one back-end, against the per-slot rules
    and, when ``h`` is the points' true sketch, against re-sketching."""
    pack = engine.pack_supports(points)
    with count_back_end(back_end):
        grown = lift_hash_matrix(h, perms, ins)
        shrunk = drop_hash_matrix(h, perms, dele, pack)
    assert grown.dtype == shrunk.dtype == np.int32
    assert np.array_equal(grown, per_slot_insert(h, perms, ins))
    assert np.array_equal(shrunk, per_slot_delete(h, points, perms, dele))
    if np.array_equal(h, engine.sketch_matrix(pack, perms)):
        lifted = resketch(points, perms, insert_features, multiple_lift_perm, ins)
        dropped = resketch(points, perms, delete_features, multiple_drop_perm, dele)
        assert np.array_equal(grown, lifted) and np.array_equal(shrunk, dropped)
    return grown, shrunk


def random_points(rng, dim, sizes):
    return [
        SparseBinaryVector(dim, tuple(np.sort(rng.choice(dim, s, replace=False) + 1).tolist()))
        for s in sizes
    ]


@pytest.mark.parametrize("back_end", BACK_ENDS)
class TestCountFrontEdges:
    """Both update kernels at the step table's edges, under both back-ends."""

    def test_batches_whose_codes_need_uint16(self, back_end):
        # n = 150 gives codes up to 301, past uint8.
        dim = 400
        rng = np.random.default_rng(21)
        perms = [random_permutation(dim, PermutationSeed(21, j)) for j in range(3)]
        points = random_points(rng, dim, (0, 1, 5, 40, 200, dim))
        h = engine.sketch_matrix(engine.pack_supports(points), perms)
        positions = tuple(sorted(int(p) + 1 for p in rng.choice(dim, 150, replace=False)))
        bits = tuple(int(b) for b in rng.random(150) < 0.1)
        ins, dele = InsertionBatch(positions, bits), DeletionBatch(positions)
        check_both_rules(h, points, perms, ins, dele, back_end)

    def test_column_whose_hashes_all_lie_below_its_batch_ranks(self, back_end):
        # Under the identity the hashes are 1, 2 and EMPTY, below the batch
        # ranks 7 and 8; reversed, the batch ranks 4 and 3 lie among them.
        points = [SparseBinaryVector(10, s) for s in ((1, 9), (2, 5), ())]
        perms = [Permutation(list(range(1, 11))), Permutation(list(range(10, 0, -1)))]
        h = engine.sketch_matrix(engine.pack_supports(points), perms)
        grown, shrunk = check_both_rules(
            h, points, perms, InsertionBatch((7, 8), (1, 0)), DeletionBatch((7, 8)), back_end
        )
        assert grown[:, 0].tolist() == [1, 2, 7]
        assert shrunk[:, 0].tolist() == [1, 2, 0]

    def test_deleted_rank_equal_to_a_columns_largest_hash(self, back_end):
        # Column 0's largest hash, 5, is deleted, and so is the hash 3.
        ident = Permutation(list(range(1, 9)))
        points = [SparseBinaryVector(8, s) for s in ((2, 5), (3, 6), (5, 7))]
        perms = [ident, PI8]
        h = engine.sketch_matrix(engine.pack_supports(points), perms)
        assert h[:, 0].tolist() == [2, 3, 5]
        _, shrunk = check_both_rules(
            h, points, perms, InsertionBatch((3, 5), (0, 1)), DeletionBatch((3, 5)), back_end
        )
        assert shrunk[:, 0].tolist() == [2, 4, 5]

    def test_one_permutation(self, back_end):
        dim = 12
        rng = np.random.default_rng(4)
        points = random_points(rng, dim, (0, 1, 3, 6, dim))
        perms = [random_permutation(dim, PermutationSeed(4, 0))]
        h = engine.sketch_matrix(engine.pack_supports(points), perms)
        for positions in ((1,), (dim,), (2, 5, 11), tuple(range(1, dim + 1))):
            bits = tuple(i % 2 for i in range(len(positions)))
            ins, dele = InsertionBatch(positions, bits), DeletionBatch(positions)
            check_both_rules(h, points, perms, ins, dele, back_end)

    def test_all_empty_rows(self, back_end):
        dim = 9
        empty = SparseBinaryVector(dim, ())
        perms = [random_permutation(dim, PermutationSeed(6, j)) for j in range(4)]
        for points in ([empty] * 3, [empty, SparseBinaryVector(dim, (2, 7)), empty]):
            h = engine.sketch_matrix(engine.pack_supports(points), perms)
            for bits in ((0, 0), (1, 0)):
                grown, shrunk = check_both_rules(
                    h, points, perms, InsertionBatch((2, 8), bits), DeletionBatch((2, 8)), back_end
                )
                assert grown[0].all() == (bits[0] == 1) and not shrunk[0].any()

    @pytest.mark.parametrize("points", [5, 70])
    def test_no_permutations(self, back_end, points):
        # K = 0: both kernels return the (P, 0) matrix, below and above the
        # table's row minimum.
        h = np.zeros((points, 0), dtype=np.int32)
        pack = engine.pack_supports([SparseBinaryVector(6, (1, 3))] * points)
        with count_back_end(back_end):
            grown = lift_hash_matrix(h, [], InsertionBatch((2, 4), (1, 0)))
            shrunk = drop_hash_matrix(h, [], DeletionBatch((2, 4)), pack)
        for out in (grown, shrunk):
            assert out.shape == (points, 0) and out.dtype == np.int32


class TestStepTable:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_codes_match_their_definition(self, data):
        # Every hash, clipped into its column's window, reads
        # 2 * #{w <= r} + [r in W] from the table.
        k = data.draw(st.integers(1, 4))
        top = data.draw(st.integers(1, 30))
        n = data.draw(st.integers(1, top))
        ranks = st.sets(st.integers(1, top), min_size=n, max_size=n)
        w = np.array([sorted(data.draw(ranks)) for _ in range(k)], dtype=np.int32)
        values = data.draw(st.lists(st.integers(0, top + 3), min_size=k, max_size=3 * k))
        h = np.array(values[: len(values) // k * k], dtype=np.int32).reshape(-1, k)
        with count_back_end("table"):
            lo, hi = sketch._step_windows(h, w, h.max(axis=0, initial=0))
        table, base = sketch._step_table(w, lo, hi)
        assert table.size == int((hi - lo + 1).sum())
        for j in range(k):
            for r in range(int(lo[j]), int(hi[j]) + 1):
                assert table[base[j] + r] == 2 * (w[j] <= r).sum() + (r in w[j])
            for r in h[:, j].tolist():
                code = table[base[j] + min(max(r, lo[j]), hi[j])]
                assert code == 2 * (w[j] <= r).sum() + (r in w[j])

    @pytest.mark.parametrize(
        "n, dtype",
        [(1, np.uint8), (127, np.uint8), (128, np.uint16), (32767, np.uint16), (32768, np.uint32)],
    )
    def test_codes_take_the_narrowest_dtype(self, n, dtype):
        # The codes run up to 2n + 1, at the last batch rank.
        w = np.arange(1, n + 1, dtype=np.int64)[None]
        table, _ = sketch._step_table(w, w[:, 0] - 1, w[:, -1] + 1)
        assert table.dtype == dtype
        assert table[-2] == 2 * n + 1 and table[-1] == 2 * n


class TestSizeRule:
    @staticmethod
    def back_ends_taken(call):
        with patch.object(sketch, "_search_counts", wraps=sketch._search_counts) as search, \
                patch.object(sketch, "_table_counts", wraps=sketch._table_counts) as table:
            call()
        return search.call_count, table.call_count

    def test_one_row_calls_take_the_search(self):
        dim = 1000
        perms = [random_permutation(dim, PermutationSeed(8, j)) for j in range(128)]
        point = SparseBinaryVector(dim, tuple(range(1, dim + 1, 7)))
        sk = build_sketch(point, perms)
        ins, dele = InsertionBatch((3, 500, 998), (0, 1, 0)), DeletionBatch((1, 8, 500))
        assert self.back_ends_taken(lambda: update_sketch_insert(sk, perms, ins)) == (1, 0)
        assert self.back_ends_taken(lambda: update_sketch_delete(sk, perms, point, dele)) == (1, 0)

    def test_small_tables_on_many_rows_take_the_table(self):
        dim = 1000
        rng = np.random.default_rng(9)
        perms = [random_permutation(dim, PermutationSeed(9, j)) for j in range(8)]
        pack = engine.pack_supports(random_points(rng, dim, [200] * sketch._TABLE_MIN_ROWS))
        h = min_hash_matrix(perms, pack)
        ins, dele = InsertionBatch((3, 500, 998), (0, 1, 0)), DeletionBatch((1, 8, 500))
        assert self.back_ends_taken(lambda: lift_hash_matrix(h, perms, ins)) == (0, 1)
        assert self.back_ends_taken(lambda: drop_hash_matrix(h, perms, dele, pack)) == (0, 1)

    def test_tables_over_large_dimensions_stay_bounded(self):
        # One-feature supports put the hashes anywhere in 1..d, so a step
        # table would hold about 430 entries per slot (over 100 MB here); the
        # size rule keeps the search, whose scratch stays near 6.5 MB. The
        # search lifts its queries in int64 whatever the matrix's width, so
        # the bound counts 4 int64 words a slot.
        d, p, k = 10**6, 2000, 128
        perms = [random_permutation(d, PermutationSeed(1, 0))] * k
        rng = np.random.default_rng(0)
        pack = SupportPack(p, d, rng.choice(d, p, replace=False), np.ones(p, dtype=np.int64))
        h = min_hash_matrix(perms, pack)
        for n in (8, 64):
            positions = tuple(sorted(int(x) + 1 for x in rng.choice(d, n, replace=False)))
            ins, dele = InsertionBatch(positions, (0,) * n), DeletionBatch(positions)
            for call in (
                lambda: lift_hash_matrix(h, perms, ins),
                lambda: drop_hash_matrix(h, perms, dele, pack),
            ):
                tracemalloc.start()
                try:
                    call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 4 * 8 * h.size


@pytest.mark.parametrize("back_end", BACK_ENDS)
class TestSketchWrappers:
    @given(matrix_case(max_points=1))
    @settings(max_examples=200, deadline=None)
    def test_equal_the_per_slot_rules(self, back_end, case):
        with count_back_end(back_end):
            (point,), perms, positions, bits, h, _ = case
            sk = Sketch(tuple(as_hash(v) for v in h[0]))
            grown = update_sketch_insert(sk, perms, InsertionBatch(positions, bits))
            assert grown.values == tuple(
                multiple_lift_hash(v, p, positions, bits) for v, p in zip(sk.values, perms)
            )
            shrunk = update_sketch_delete(sk, perms, point, DeletionBatch(positions))
            assert shrunk.values == tuple(
                multiple_drop_hash(v, point, p, positions) for v, p in zip(sk.values, perms)
            )
            assert all(v is EMPTY or type(v) is int for v in grown.values + shrunk.values)

    def test_empty_slots_in_and_out(self, back_end):
        with count_back_end(back_end):
            sk = Sketch((EMPTY, min_hash(X7, PI7)))
            grown = update_sketch_insert(sk, [PI7, PI7], InsertionBatch((2, 4), (0, 1)))
            assert grown.values[0] == multiple_lift_hash(EMPTY, PI7, (2, 4), (0, 1)) != EMPTY
            zero = InsertionBatch((2,), (0,))
            assert update_sketch_insert(sk, [PI7, PI7], zero).values[0] is EMPTY
            shrunk = update_sketch_delete(sk, [PI7, PI7], X7, DeletionBatch((1, 4, 6)))
            assert shrunk.values == (EMPTY, EMPTY)


def constructor_sketch(row):
    """The Sketch constructor on a row's values, 0 becoming EMPTY."""
    return Sketch(tuple(EMPTY if v == 0 else v for v in row.tolist()))


class TestRowToSketch:
    @given(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_constructor(self, values):
        row = np.array(values, dtype=np.int32)
        sk = row_to_sketch(row)
        expected = constructor_sketch(row)
        assert sk == expected and sk.values == expected.values
        assert all(v is EMPTY if x == 0 else type(v) is int for v, x in zip(sk.values, values))
        assert sk.row.dtype == np.int32 and sk.row.tolist() == values
        assert not sk.row.flags.writeable
        with pytest.raises(ValueError):
            sk.row[0] = 1

    def test_kernel_rows_are_copied(self):
        perms = [PI7, PI7, random_permutation(7, PermutationSeed(2, 0))]
        points = [X7, SparseBinaryVector(7, ())]
        h = min_hash_matrix(perms, engine.pack_supports(points))
        sketches = [row_to_sketch(r) for r in h]
        column = row_to_sketch(h[:, 0])
        expected = [constructor_sketch(r) for r in h.copy()]
        h[:] = 3
        assert sketches == expected and sketches[1].values == (EMPTY,) * 3
        assert [s.row.tolist() for s in sketches] == [[as_value(v) for v in e.values] for e in expected]
        assert column.values == (expected[0].values[0], EMPTY)
        assert column.row.flags.c_contiguous

    def test_pickle_and_deepcopy_round_trip(self):
        sk = row_to_sketch(np.array([4, 0, 1, 0], dtype=np.int32))
        for copied in (pickle.loads(pickle.dumps(sk)), copy.deepcopy(sk)):
            assert copied == sk and copied.values == (4, EMPTY, 1, EMPTY)
            assert copied.values[1] is EMPTY
            assert np.array_equal(copied.row, sk.row) and not copied.row.flags.writeable

    @pytest.mark.parametrize(
        "row, message",
        [
            (np.array([3, -1, 2], dtype=np.int64), "hash value -1 must be at least 1 or EMPTY"),
            (np.array([-7], dtype=np.int64), "hash value -7 must be at least 1 or EMPTY"),
            (np.array([1.0, 0.0]), "1.0 is not a hash value"),
            (np.array([0.0, 2.5]), "2.5 is not a hash value"),
            (np.array([[1, 2], [0, 3]], dtype=np.int64), "[1, 2] is not a hash value"),
            (np.zeros(0, dtype=np.int64), "a sketch needs at least one slot"),
            (np.array([-2, 1], dtype=np.int32), "hash value -2 must be at least 1 or EMPTY"),
            (
                np.array([1, 2**31], dtype=np.int64),
                "hash value 2147483648 exceeds 2147483647, the largest a sketch takes",
            ),
        ],
    )
    def test_other_rows_keep_the_constructor_messages(self, row, message):
        with pytest.raises(ValidationError) as err:
            row_to_sketch(row)
        assert str(err.value) == message
        with pytest.raises(ValidationError) as err:
            constructor_sketch(row)
        assert str(err.value) == message

    def test_other_valid_rows_go_through_the_constructor(self):
        for row in (np.array([2, 0, 5], dtype=np.int64), np.zeros(3), np.array([True, False])):
            sk = row_to_sketch(row)
            assert sk == constructor_sketch(row) and sk.row.dtype == np.int32


class TestWrapperMessages:
    def test_build_sketch_without_permutations(self):
        with pytest.raises(ValidationError) as err:
            build_sketch(X7, [])
        assert str(err.value) == "need at least one permutation"

    def test_build_sketch_reports_the_mismatched_permutation(self):
        with pytest.raises(ValidationError) as err:
            build_sketch(X7, [PI7, PI7, PI8])
        assert str(err.value) == "vector dimension 7 != permutation dimension 8"

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("perm_dim", [5, 9])
    def test_sketch_matrix_dimension_mismatch(self, threads, perm_dim):
        # The support reaches position 7, past a narrower permutation.
        pack = engine.pack_supports([SparseBinaryVector(7, (2, 7)), SparseBinaryVector(7, ())])
        bad = random_permutation(perm_dim, PermutationSeed(1, 0))
        for perms in ([bad], [PI7, bad], [PI7, PI7, bad]):
            with pytest.raises(ValidationError) as err:
                engine.sketch_matrix(pack, perms, threads=threads)
            assert str(err.value) == f"vector dimension 7 != permutation dimension {perm_dim}"

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_sketch_matrix_reports_the_first_mismatch(self, threads):
        pack = engine.pack_supports([X7])
        perms = [PI7, PI8, random_permutation(5, PermutationSeed(1, 0))]
        with pytest.raises(ValidationError) as err:
            engine.sketch_matrix(pack, perms, threads=threads)
        assert str(err.value) == "vector dimension 7 != permutation dimension 8"

    def test_insert_slot_count_mismatch(self):
        with pytest.raises(ValidationError) as err:
            update_sketch_insert(Sketch((1, 2)), [PI7], InsertionBatch((1,), (1,)))
        assert str(err.value) == "sketch has 2 slots but 1 permutations given"

    def test_delete_slot_count_mismatch(self):
        with pytest.raises(ValidationError) as err:
            update_sketch_delete(Sketch((1,)), [PI7, PI7], X7, DeletionBatch((1,)))
        assert str(err.value) == "sketch has 1 slots but 2 permutations given"

    def test_delete_vector_dimension_mismatch(self):
        with pytest.raises(ValidationError) as err:
            update_sketch_delete(Sketch((1, 1)), [PI7, PI8], X7, DeletionBatch((1,)))
        assert str(err.value) == "vector dimension 7 != permutation dimension 8"

    def test_insert_position_out_of_range(self):
        with pytest.raises(ValidationError) as err:
            update_sketch_insert(Sketch((1, EMPTY)), [PI8, PI7], InsertionBatch((8,), (1,)))
        assert str(err.value) == "position 8 out of range for dimension 7"

    def test_delete_position_out_of_range(self):
        with pytest.raises(ValidationError) as err:
            update_sketch_delete(Sketch((EMPTY,)), [PI7], X7, DeletionBatch((2, 8)))
        assert str(err.value) == "position 8 out of range for dimension 7"

    def test_delete_checks_slot_by_slot(self):
        # Slot 0 fits the vector, so its range check fires before slot 1's
        # dimension check, as in the per-slot rule.
        with pytest.raises(ValidationError) as err:
            update_sketch_delete(Sketch((1, 1)), [PI7, PI8], X7, DeletionBatch((9,)))
        assert str(err.value) == "position 9 out of range for dimension 7"


class TestKernelMessages:
    """The kernels and the sequential folds share one front of checks."""

    pack = engine.pack_supports([X7, SparseBinaryVector(7, ())])
    h = np.ones((2, 2), dtype=np.int32)

    insert_paths = (lift_hash_matrix, engine.apply_sequential_insert)
    delete_paths = (
        drop_hash_matrix,
        lambda h, perms, batch, pack: engine.apply_sequential_delete(h, pack, perms, batch),
    )

    @pytest.mark.parametrize("width", [1, 3])
    def test_hash_columns_must_match_the_permutations(self, width):
        h = np.ones((2, width), dtype=np.int32)
        message = f"^sketch has {width} slots but 2 permutations given$"
        for apply in self.insert_paths:
            with pytest.raises(ValidationError, match=message):
                apply(h, [PI7, PI7], InsertionBatch((1,), (1,)))
        for apply in self.delete_paths:
            # The slot count is checked before each permutation's dimension.
            with pytest.raises(ValidationError, match=message):
                apply(h, [PI7, PI8], DeletionBatch((1,)), self.pack)

    @pytest.mark.parametrize(
        "h",
        [
            np.ones(2, dtype=np.int32),
            np.ones((2, 2), dtype=np.float64),
            np.ones((2, 2), dtype=np.int64),
            np.ones((2, 2, 1), dtype=np.int32),
        ],
        ids=["1-D", "float", "int64", "3-D"],
    )
    def test_hash_matrix_must_be_2d_int32(self, h):
        message = "^hash matrix must be a 2-D int32 array$"
        for apply in self.insert_paths:
            with pytest.raises(ValidationError, match=message):
                apply(h, [PI7, PI7], InsertionBatch((1,), (1,)))
        for apply in self.delete_paths:
            with pytest.raises(ValidationError, match=message):
                apply(h, [PI7, PI7], DeletionBatch((1,)), self.pack)

    def test_hash_rows_must_match_the_pack(self):
        for apply in self.delete_paths:
            with pytest.raises(
                ValidationError, match="^hash matrix has 1 rows but 2 packed points$"
            ):
                apply(self.h[:1], [PI7, PI8], DeletionBatch((1,)), self.pack)

    def test_permutation_dimension_must_match_the_pack(self):
        for apply in self.delete_paths:
            with pytest.raises(
                ValidationError, match="^vector dimension 7 != permutation dimension 8$"
            ):
                apply(self.h, [PI7, PI8], DeletionBatch((1,)), self.pack)

    def test_positions_must_fit_every_permutation(self):
        message = "^position 8 out of range for dimension 7$"
        for apply in self.insert_paths:
            with pytest.raises(ValidationError, match=message):
                apply(self.h, [PI8, PI7], InsertionBatch((2, 8), (0, 1)))
        for apply in self.delete_paths:
            with pytest.raises(ValidationError, match=message):
                apply(self.h, [PI7, PI7], DeletionBatch((2, 8)), self.pack)


INCREASE = "packed support entries must strictly increase within each point"


class TestPackSupports:
    def test_flat_and_lengths(self):
        points = [
            SparseBinaryVector(5, (2, 4)),
            SparseBinaryVector(5, ()),
            SparseBinaryVector(5, (1, 3, 5)),
        ]
        pack = engine.pack_supports(points)
        assert pack.count == 3 and pack.dim == 5
        assert pack.flat.dtype == np.int64 and pack.flat.tolist() == [1, 3, 0, 2, 4]
        assert pack.lengths.tolist() == [2, 0, 3]

    def test_messages(self):
        with pytest.raises(ValidationError, match="^need at least one point$"):
            engine.pack_supports([])
        with pytest.raises(ValidationError, match="^all points must share one dimension$"):
            engine.pack_supports([SparseBinaryVector(3, (1,)), SparseBinaryVector(4, ())])
        edited = delete_features(SparseBinaryVector(4, (1, 4)), DeletionBatch((2,)))
        with pytest.raises(ValidationError, match="^all points must share one dimension$"):
            engine.pack_supports([edited, SparseBinaryVector(4, (1,))])

    @staticmethod
    def assert_packs_like_tuples(points):
        pack = engine.pack_supports(points)
        flat, lengths = pack_supports_tuples(points)
        assert pack.flat.dtype == np.int64 and np.array_equal(pack.flat, flat)
        assert pack.lengths.dtype == np.int64 and np.array_equal(pack.lengths, lengths)

    @given(
        st.integers(1, 24).flatmap(
            lambda dim: st.tuples(
                st.just(dim),
                st.lists(st.sets(st.integers(1, dim)), min_size=1, max_size=6),
                st.lists(st.booleans(), min_size=6, max_size=6),
                st.sets(st.integers(1, dim), min_size=1),
            )
        )
    )
    @settings(max_examples=150)
    def test_mixed_constructor_and_edit_built_points(self, case):
        dim, supports, edit, positions = case
        positions = tuple(sorted(positions))
        # Inserting 0-bits and deleting the slots they landed in gives the
        # vector back, held as an array only.
        landed = DeletionBatch(tuple(m + i for i, m in enumerate(positions)))
        zeros = InsertionBatch(positions, (0,) * len(positions))
        points = [
            delete_features(insert_features(SparseBinaryVector(dim, tuple(sorted(s))), zeros), landed)
            if e
            else SparseBinaryVector(dim, tuple(sorted(s)))
            for s, e in zip(supports, edit)
        ]
        self.assert_packs_like_tuples(points)
        self.assert_packs_like_tuples(points[:1])

    def test_single_and_all_empty_points(self):
        self.assert_packs_like_tuples([SparseBinaryVector(5, (1, 5))])
        empty = [SparseBinaryVector(3), delete_features(SparseBinaryVector(4, (2,)), DeletionBatch((2,)))]
        for points in (empty[:1], empty[1:], empty):
            self.assert_packs_like_tuples(points)
            assert engine.pack_supports(points).flat.size == 0

    @pytest.mark.parametrize(
        "count, dim, flat, lengths, message",
        [
            # Unchecked, the delete kernel would read position 5's rank through the -1.
            (1, 5, [0, -1], [2], "packed support entries must lie in 0..4"),
            (2, 5, [0, -3], [1, 1], "packed support entries must lie in 0..4"),
            (2, 5, [0, 5], [1, 1], "packed support entries must lie in 0..4"),
            (1, 0, [0], [1], "packed support entries must lie in 0..-1"),
            (2, 5, [1, 1, 1], [2, 1], INCREASE),
            (1, 5, [0, 3, 3], [3], INCREASE),
            (2, 5, [4, 0, 3, 1], [1, 3], INCREASE),
            (1, 5, [0, 1, 2], [2], "support lengths must sum to the 3 packed entries"),
            (2, 5, [0, 1], [2, 1], "support lengths must sum to the 2 packed entries"),
            (0, 5, [0], [], "support lengths must sum to the 1 packed entries"),
            (2, 5, [0, 1, 2], [4, -1], "support lengths must be non-negative"),
            (2, 5, [0, 1], [2], "pack of 2 points has 1 lengths"),
            (1, 5, [0], [0, 1], "pack of 1 points has 2 lengths"),
            (1, -1, [], [0], "dimension must be non-negative"),
            (1, 5, [0.0], [1], "packed support entries must be integers"),
            (1, 5, [0], [1.0], "support lengths must be integers"),
            (1, 5, [[0, 1]], [2], "packed supports and lengths must be flat sequences"),
        ],
    )
    def test_malformed_packs_are_refused_when_built(self, count, dim, flat, lengths, message):
        with pytest.raises(ValidationError) as err:
            SupportPack(count, dim, flat, lengths)
        assert str(err.value) == message

    def test_rows_cross_without_order(self):
        # Only entries within a point must increase; empty points may sit anywhere.
        pack = SupportPack(5, 5, [3, 4, 0, 1, 2], [0, 2, 0, 3, 0])
        assert pack.starts.tolist() == [0, 0, 2, 2, 5]
        assert SupportPack(2, 0, [], [0, 0]).starts.tolist() == [0, 0]

    def test_arrays_are_read_only_for_both_constructors(self):
        flat, lengths = np.array([1, 3, 0, 2, 4]), np.array([2, 0, 3])
        built = engine.pack_supports(SparseBinaryVector(5, s) for s in ((2, 4), (), (1, 3, 5)))
        checked = SupportPack(3, 5, flat, lengths)
        for pack in (built, checked, copy.deepcopy(checked), pickle.loads(pickle.dumps(built))):
            for arr in (pack.flat, pack.lengths, pack.starts):
                assert arr.dtype == np.int64 and not arr.flags.writeable
            assert pack.flat.tolist() == [1, 3, 0, 2, 4] and pack.starts.tolist() == [0, 2, 2]
        # The constructor copies: the caller's arrays stay theirs.
        assert flat.flags.writeable and checked.flat is not flat

    def test_equal_packs_compare_and_hash_equal(self):
        x = SparseBinaryVector(5, (1, 3))
        built = engine.pack_supports([x])
        again = engine.pack_supports([x])
        checked = SupportPack(1, 5, [0, 2], [2])
        for other in (again, checked, copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
            assert built == other and not built != other
            assert hash(built) == hash(other)

    @pytest.mark.parametrize(
        "a, b",
        [
            (SupportPack(1, 5, [0, 2], [2]), SupportPack(1, 6, [0, 2], [2])),  # dim
            (SupportPack(1, 5, [0, 2], [2]), SupportPack(1, 5, [0, 3], [2])),  # flat
            (SupportPack(1, 5, [0, 2], [2]), SupportPack(2, 5, [0, 2], [1, 1])),  # count
            (SupportPack(2, 5, [0, 2], [1, 1]), SupportPack(2, 5, [0, 2], [2, 0])),  # lengths
        ],
    )
    def test_unequal_packs_compare_unequal(self, a, b):
        assert a != b and not a == b
        assert a != (a.count, a.dim, a.flat, a.lengths)

    def test_packs_are_set_members_by_content(self):
        x, y = SparseBinaryVector(5, (1, 3)), SparseBinaryVector(5, (2,))
        packs = {engine.pack_supports([x]), engine.pack_supports([x]), engine.pack_supports([x, y])}
        assert len(packs) == 2
        assert SupportPack(1, 5, [0, 2], [2]) in packs
        assert SupportPack(1, 5, [1], [1]) not in packs

    @given(support_case(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_checked_pack_equals_the_trusted_pack(self, case, data):
        dim, perms, points = case
        trusted = engine.pack_supports(points)
        checked = SupportPack(trusted.count, trusted.dim, trusted.flat, trusted.lengths)
        assert checked == trusted and hash(checked) == hash(trusted)
        assert np.array_equal(checked.starts, trusted.starts)
        h = min_hash_matrix(perms, trusted)
        assert np.array_equal(min_hash_matrix(perms, checked), h)
        positions = data.draw(st.sets(st.integers(1, dim), min_size=1))
        batch = DeletionBatch(tuple(sorted(positions)))
        assert np.array_equal(
            drop_hash_matrix(h, perms, batch, checked), drop_hash_matrix(h, perms, batch, trusted)
        )
        truth = zip(engine.pairwise_true_jaccard(checked), engine.pairwise_true_jaccard(trusted))
        for got, want in truth:
            assert np.array_equal(got, want)


# The delete kernel's rescan in chunks. Small cases fit the default budget's
# one chunk, so every class that runs the delete kernel or the folds runs
# again with the budget at 1 entry, where every hit with a support is a chunk.


@pytest.mark.usefixtures("one_entry_rescan_chunks")
class TestDropHashMatrixInOneEntryChunks(TestDropHashMatrix):
    pass


@pytest.mark.usefixtures("one_entry_rescan_chunks")
class TestSequentialFoldsInOneEntryChunks(TestSequentialFolds):
    pass


@pytest.mark.usefixtures("one_entry_rescan_chunks")
class TestInt32RanksAndHashesInOneEntryChunks(TestInt32RanksAndHashes):
    pass


@pytest.mark.usefixtures("one_entry_rescan_chunks")
class TestCountFrontEdgesInOneEntryChunks(TestCountFrontEdges):
    pass


@pytest.mark.usefixtures("one_entry_rescan_chunks")
class TestSketchWrappersInOneEntryChunks(TestSketchWrappers):
    pass


def chunked_delete(h, points, perms, batch, budget, back_end):
    """The delete kernel under a rescan budget, checked against the per-slot
    rule and re-sketching; returns the result and each chunk's columns and
    gathered entry count."""
    pack = engine.pack_supports(points)
    spy = patch.object(sketch, "_rescanned_hashes", wraps=sketch._rescanned_hashes)
    with count_back_end(back_end), rescan_budget(budget), spy as chunks:
        got = drop_hash_matrix(h, perms, batch, pack)
    assert np.array_equal(got, per_slot_delete(h, points, perms, batch))
    assert np.array_equal(got, resketch(points, perms, delete_features, multiple_drop_perm, batch))
    return got, [(set(c.args[1].tolist()), int(c.args[2].sum())) for c in chunks.call_args_list]


# Columns 0 and 1 rank position i as i and 7 - i. Deleting positions 1 and 2
# deletes point 0's minimum in column 0 (4 support entries to rescan) and
# point 1's in both columns (2 entries each), which leaves point 1 EMPTY.
CHUNK_PERMS = [Permutation([1, 2, 3, 4, 5, 6]), Permutation([6, 5, 4, 3, 2, 1])]
CHUNK_POINTS = [SparseBinaryVector(6, (1, 3, 4, 5)), SparseBinaryVector(6, (1, 2))]


@pytest.mark.parametrize("back_end", BACK_ENDS)
class TestRescanChunks:
    @staticmethod
    def delete_positions_1_and_2(budget, back_end):
        h = min_hash_matrix(CHUNK_PERMS, engine.pack_supports(CHUNK_POINTS))
        return chunked_delete(h, CHUNK_POINTS, CHUNK_PERMS, DeletionBatch((1, 2)), budget, back_end)

    def test_row_whose_support_alone_exceeds_the_budget(self, back_end):
        _, chunks = self.delete_positions_1_and_2(3, back_end)
        assert chunks == [({0}, 4), ({0}, 2), ({1}, 2)]

    def test_hit_emptied_in_a_later_chunk(self, back_end):
        got, chunks = self.delete_positions_1_and_2(4, back_end)
        assert chunks == [({0}, 4), ({0, 1}, 4)]
        assert got[0].all() and not got[1].any()

    def test_every_hit_in_one_chunk_at_the_default_budget(self, back_end):
        _, chunks = self.delete_positions_1_and_2(sketch._RESCAN_BLOCK_ENTRIES, back_end)
        assert chunks == [({0, 1}, 8)]

    def test_hits_spread_across_many_columns(self, back_end):
        rng = np.random.default_rng(12)
        dim, k = 40, 24
        perms = [random_permutation(dim, PermutationSeed(12, j)) for j in range(k)]
        points = random_points(rng, dim, [0, 1, 3, 9, 20, 40] * 4)
        h = min_hash_matrix(perms, engine.pack_supports(points))
        batch = DeletionBatch(tuple(range(1, dim + 1, 3)))
        _, chunks = chunked_delete(h, points, perms, batch, 50, back_end)
        assert len(set().union(*(cols for cols, _ in chunks))) > k // 2
        assert len(chunks) > 2 and any(len(cols) > 1 for cols, _ in chunks)
        assert all(entries <= 50 or len(cols) == 1 for cols, entries in chunks)


def test_late_stream_rescan_stays_within_its_budget():
    # A stream whose points converge ends up sharing features. Here all 500
    # points hold 800 features, one of which is every column's minimum, so
    # deleting it rescans all 16,000 slots: 12.8M support entries. Gathered
    # at once they peaked at 423 MB traced; in chunks of the default budget,
    # at about 3 MB.
    dim, p, k, size = 20_000, 500, 32, 800
    rng = np.random.default_rng(20)
    shared = 7
    perms = []
    for j in range(k):
        rank = random_permutation(dim, PermutationSeed(20, j)).rank.copy()
        first = int(np.flatnonzero(rank == 1)[0])
        rank[[first, shared - 1]] = rank[[shared - 1, first]]
        perms.append(Permutation(rank))
    others = np.setdiff1d(np.arange(1, dim + 1), [shared])
    points = []
    for _ in range(p):
        support = np.append(rng.choice(others, size - 1, replace=False), shared)
        points.append(SparseBinaryVector(dim, tuple(np.sort(support).tolist())))
    pack = engine.pack_supports(points)
    h = min_hash_matrix(perms, pack)
    assert (h == 1).all()
    batch = DeletionBatch((shared,))
    tracemalloc.start()
    try:
        got = drop_hash_matrix(h, perms, batch, pack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    dropped = [multiple_drop_perm(perm, batch.positions) for perm in perms]
    edited = engine.pack_supports([delete_features(x, batch) for x in points])
    assert np.array_equal(got, min_hash_matrix(dropped, edited))
