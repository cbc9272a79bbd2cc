"""Sketch update rules and their exactness against the lifted/dropped oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynsketch.core import (
    EMPTY,
    DeletionBatch,
    InsertionBatch,
    Permutation,
    Sketch,
    SparseBinaryVector,
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
from dynsketch.bench import engine
from dynsketch.sketch import (
    build_sketch,
    drop_hash,
    drop_hash_matrix,
    lift_hash_matrix,
    min_hash_matrix,
    lift_hash,
    min_hash,
    multiple_drop_hash,
    multiple_lift_hash,
    partial_min_hash,
    update_sketch_delete,
    update_sketch_insert,
)

from _reference import min_rank_brute, partial_min_hash_simulation

X0 = SparseBinaryVector.from_dense([1, 0, 0, 1, 0, 1, 0])
PI = Permutation([6, 3, 1, 7, 2, 5, 4])
PI2 = Permutation([6, 2, 1, 7, 3, 5, 4])


@st.composite
def sketch_case(draw, max_dim=64, max_n=8, allow_empty=True):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    perm = random_permutation(dim, PermutationSeed(seed))
    min_support = 0 if allow_empty else 1
    support = tuple(sorted(draw(
        st.sets(st.integers(1, dim), min_size=min_support)
    )))
    vector = SparseBinaryVector(dim, support)
    n = draw(st.integers(min_value=1, max_value=min(dim, max_n)))
    positions = tuple(sorted(draw(
        st.sets(st.integers(1, dim), min_size=n, max_size=n)
    )))
    bits = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return vector, perm, positions, bits


class TestMinHash:
    def test_worked_example(self):
        assert min_hash(X0, PI) == 5

    def test_single_one(self):
        v = SparseBinaryVector(7, (4,))
        assert min_hash(v, PI) == PI.value_at(4)

    def test_empty_support(self):
        assert min_hash(SparseBinaryVector(7), PI) is EMPTY

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            min_hash(SparseBinaryVector(3, (1,)), PI)

    @given(sketch_case())
    @settings(max_examples=150)
    def test_matches_dense_scan(self, case):
        vector, perm, _, _ = case
        brute = min_rank_brute(vector.to_dense(), list(perm.as_tuple()))
        got = min_hash(vector, perm)
        assert (got is EMPTY and brute is None) or got == brute

    @given(sketch_case(allow_empty=False))
    @settings(max_examples=100)
    def test_value_is_a_support_rank(self, case):
        vector, perm, _, _ = case
        ranks = {perm.value_at(s) for s in vector.support}
        assert min_hash(vector, perm) in ranks


class TestBuildSketch:
    def test_two_permutations(self):
        # both permutations rank the support {1, 4, 6} as {6, 7, 5}
        assert build_sketch(X0, [PI, PI2]).values == (5, 5)

    def test_single_permutation_reduces_to_min_hash(self):
        assert build_sketch(X0, [PI]).values == (min_hash(X0, PI),)

    def test_empty_vector_gives_all_empty(self):
        sk = build_sketch(SparseBinaryVector(7), [PI, PI2])
        assert all(v is EMPTY for v in sk.values)


class TestLiftHash:
    def test_worked_example(self):
        assert lift_hash(5, 3, 1) == 3

    def test_untouched_branch(self):
        assert lift_hash(2, 5, 0) == 2
        assert lift_hash(2, 5, 1) == 2

    def test_zero_bit_shifts_old_minimum(self):
        assert lift_hash(5, 3, 0) == 6

    def test_empty_cases(self):
        assert lift_hash(EMPTY, 4, 1) == 4
        assert lift_hash(EMPTY, 4, 0) is EMPTY

    def test_bad_bit(self):
        with pytest.raises(ValidationError):
            lift_hash(5, 3, 2)

    @given(sketch_case())
    @settings(max_examples=200)
    def test_oracle_equivalence(self, case):
        vector, perm, positions, bits = case
        m, b = positions[0], bits[0]
        old = min_hash(vector, perm)
        got = lift_hash(old, perm.value_at(m), b)
        widened = insert_features(vector, InsertionBatch((m,), (b,)))
        assert got == min_hash(widened, lift_perm(perm, m))


class TestPartialMinHash:
    def test_zero_one_batch(self):
        assert partial_min_hash(PI, (2, 4), (0, 1)) == 8

    def test_all_zero_bits(self):
        assert partial_min_hash(PI, (2, 4), (0, 0)) is None

    def test_both_ones(self):
        assert partial_min_hash(PI, (2, 4), (1, 1)) == 3

    @given(sketch_case())
    @settings(max_examples=200)
    def test_matches_sequential_simulation(self, case):
        _, perm, positions, bits = case
        expected = partial_min_hash_simulation(list(perm.as_tuple()), positions, bits)
        assert partial_min_hash(perm, positions, bits) == expected

    @given(sketch_case())
    @settings(max_examples=150)
    def test_matches_lifted_permutation_ranks(self, case):
        _, perm, positions, bits = case
        widened = multiple_lift_perm(perm, positions)
        landed = [m + i for i, m in enumerate(positions)]
        ranks = [widened.value_at(j) for j, b in zip(landed, bits) if b == 1]
        expected = min(ranks) if ranks else None
        assert partial_min_hash(perm, positions, bits) == expected


class TestMultipleLiftHash:
    def test_worked_batch(self):
        assert multiple_lift_hash(5, PI, (2, 4), (0, 1)) == 6

    def test_inserted_one_wins(self):
        assert multiple_lift_hash(5, PI, (2, 4), (1, 1)) == 3

    def test_pure_shift_branch(self):
        assert multiple_lift_hash(5, PI, (2, 4), (0, 0)) == 6

    def test_empty_hash_cases(self):
        assert multiple_lift_hash(EMPTY, PI, (2, 4), (0, 0)) is EMPTY
        assert multiple_lift_hash(EMPTY, PI, (2, 4), (0, 1)) == 8

    @given(sketch_case())
    @settings(max_examples=200)
    def test_oracle_equivalence(self, case):
        vector, perm, positions, bits = case
        old = min_hash(vector, perm)
        got = multiple_lift_hash(old, perm, positions, bits)
        widened = insert_features(vector, InsertionBatch(positions, bits))
        assert got == min_hash(widened, multiple_lift_perm(perm, positions))

    @given(sketch_case())
    @settings(max_examples=150)
    def test_equals_folded_single_insertions(self, case):
        vector, perm, positions, bits = case
        h = min_hash(vector, perm)
        current_perm, current_vec = perm, vector
        for i, (m, b) in enumerate(zip(positions, bits)):
            slot = m + i
            h = lift_hash(h, current_perm.value_at(slot), b)
            current_perm = lift_perm(current_perm, slot)
            current_vec = insert_features(current_vec, InsertionBatch((slot,), (b,)))
        assert h == multiple_lift_hash(min_hash(vector, perm), perm, positions, bits)


class TestDropHash:
    def test_worked_example(self):
        assert drop_hash(5, X0, PI2, 5) == 4

    def test_untouched_branch(self):
        # rank of slot 4 is 7, above the old hash
        assert drop_hash(2, X0, PI, 4) == 2

    def test_recompute_branch(self):
        assert drop_hash(5, X0, PI, 6) == 5

    def test_empty_hash_stays_empty(self):
        assert drop_hash(EMPTY, SparseBinaryVector(7), PI, 3) is EMPTY

    def test_deleting_only_one_empties(self):
        v = SparseBinaryVector(4, (2,))
        perm = Permutation([3, 1, 4, 2])
        assert drop_hash(1, v, perm, 2) is EMPTY

    @given(sketch_case())
    @settings(max_examples=200)
    def test_oracle_equivalence(self, case):
        vector, perm, positions, _ = case
        m = positions[0]
        old = min_hash(vector, perm)
        got = drop_hash(old, vector, perm, m)
        narrowed = delete_features(vector, DeletionBatch((m,)))
        assert got == min_hash(narrowed, drop_perm(perm, m))

    def test_deleted_minimum_costs_one_gather_of_the_support(self):
        # Ranks 1 and d: the new minimum is d, slid down to d - 1, found
        # without a table of length d beside the ranks.
        d = 10**6
        perm = random_permutation(d, PermutationSeed(24))
        first, last = (int(np.flatnonzero(perm.rank == r)[0]) + 1 for r in (1, d))
        vector = SparseBinaryVector(d, sorted((first, last)))
        tracemalloc.start()
        try:
            got = drop_hash(1, vector, perm, first)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == d - 1
        assert peak < 1 << 20
        assert set(vars(perm)) == {"rank", "dim"}


def test_rules_and_kernels_leave_a_permutation_its_two_fields():
    # Every value sets its fields once: no rule caches a table in a permutation.
    pi = Permutation([6, 3, 1, 7, 2, 5, 4])
    ins, dele = InsertionBatch((2, 5), (1, 0)), DeletionBatch((3, 6))
    pack = engine.pack_supports([X0, SparseBinaryVector(7, (3,))])
    h = min_hash_matrix([pi, pi], pack)
    calls = [
        lambda: pi.value_at(3),
        lambda: pi.as_tuple(),
        lambda: min_hash(X0, pi),
        lambda: partial_min_hash(pi, ins.positions, ins.bits),
        lambda: multiple_lift_hash(5, pi, ins.positions, ins.bits),
        # Slot 6 holds X0's minimum, rank 5, so the rule rescans.
        lambda: drop_hash(5, X0, pi, 6),
        lambda: multiple_drop_hash(5, X0, pi, dele.positions),
        lambda: lift_perm(pi, 3),
        lambda: drop_perm(pi, 3),
        lambda: multiple_lift_perm(pi, ins.positions),
        lambda: multiple_drop_perm(pi, dele.positions),
        lambda: build_sketch(X0, [pi]),
        lambda: update_sketch_insert(build_sketch(X0, [pi]), [pi], ins),
        lambda: update_sketch_delete(build_sketch(X0, [pi]), [pi], X0, dele),
        lambda: lift_hash_matrix(h, [pi, pi], ins),
        lambda: drop_hash_matrix(h, [pi, pi], dele, pack),
        lambda: engine.apply_sequential_insert(h, [pi, pi], ins),
        lambda: engine.apply_sequential_delete(h, pack, [pi, pi], dele),
        lambda: engine.sketch_matrix(pack, [pi, pi]),
    ]
    for call in calls:
        call()
        assert set(vars(pi)) == {"rank", "dim"}


class TestMultipleDropHash:
    def test_worked_batch(self):
        assert multiple_drop_hash(5, X0, PI, (2, 4)) == 4

    def test_untouched_branch(self):
        assert multiple_drop_hash(5, X0, PI, (4,)) == 5

    def test_recompute_branch(self):
        assert multiple_drop_hash(5, X0, PI, (6,)) == 5

    def test_recompute_counts_below_new_minimum(self):
        # deleting both low ranks: the survivor's rank slides down by two
        vector = SparseBinaryVector.from_dense([1, 0, 1, 0])
        identity = Permutation([1, 2, 3, 4])
        assert multiple_drop_hash(1, vector, identity, (1, 2)) == 1

    def test_empty_hash_stays_empty(self):
        assert multiple_drop_hash(EMPTY, SparseBinaryVector(7), PI, (1, 2)) is EMPTY

    @given(sketch_case())
    @settings(max_examples=200)
    def test_oracle_equivalence(self, case):
        vector, perm, positions, _ = case
        old = min_hash(vector, perm)
        got = multiple_drop_hash(old, vector, perm, positions)
        narrowed = delete_features(vector, DeletionBatch(positions))
        assert got == min_hash(narrowed, multiple_drop_perm(perm, positions))

    @given(sketch_case())
    @settings(max_examples=150)
    def test_equals_folded_single_deletions(self, case):
        vector, perm, positions, _ = case
        h = min_hash(vector, perm)
        current_perm, current_vec = perm, vector
        for i, m in enumerate(positions):
            slot = m - i
            h = drop_hash(h, current_vec, current_perm, slot)
            current_perm = drop_perm(current_perm, slot)
            current_vec = delete_features(current_vec, DeletionBatch((slot,)))
        assert h == multiple_drop_hash(min_hash(vector, perm), vector, perm, positions)


class TestSketchUpdates:
    def test_insert_single_slot_reduces_to_multiple_lift_hash(self):
        sk = Sketch((min_hash(X0, PI),))
        batch = InsertionBatch((2, 4), (0, 1))
        out = update_sketch_insert(sk, [PI], batch)
        assert out.values == (multiple_lift_hash(sk.values[0], PI, (2, 4), (0, 1)),)

    def test_insert_all_empty_zero_bits_stays_empty(self):
        sk = Sketch((EMPTY, EMPTY))
        out = update_sketch_insert(sk, [PI, PI2], InsertionBatch((2, 4), (0, 0)))
        assert all(v is EMPTY for v in out.values)

    def test_insert_two_slot_example(self):
        sk = build_sketch(X0, [PI, PI2])
        out = update_sketch_insert(sk, [PI, PI2], InsertionBatch((2, 4), (0, 1)))
        widened = insert_features(X0, InsertionBatch((2, 4), (0, 1)))
        expected = (
            min_hash(widened, multiple_lift_perm(PI, (2, 4))),
            min_hash(widened, multiple_lift_perm(PI2, (2, 4))),
        )
        assert out.values == expected

    def test_delete_single_slot_reduces_to_multiple_drop_hash(self):
        sk = Sketch((min_hash(X0, PI),))
        out = update_sketch_delete(sk, [PI], X0, DeletionBatch((2, 4)))
        assert out.values == (multiple_drop_hash(sk.values[0], X0, PI, (2, 4)),)

    def test_delete_two_slot_oracle(self):
        sk = build_sketch(X0, [PI, PI2])
        out = update_sketch_delete(sk, [PI, PI2], X0, DeletionBatch((2, 4)))
        narrowed = delete_features(X0, DeletionBatch((2, 4)))
        expected = (
            min_hash(narrowed, multiple_drop_perm(PI, (2, 4))),
            min_hash(narrowed, multiple_drop_perm(PI2, (2, 4))),
        )
        assert out.values == expected

    def test_perm_count_mismatch(self):
        sk = Sketch((1, 2))
        with pytest.raises(ValidationError):
            update_sketch_insert(sk, [PI], InsertionBatch((1,), (1,)))
