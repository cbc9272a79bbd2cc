"""Permutation generation and the lift/drop constructions."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynsketch import core
from dynsketch.bench import engine
from dynsketch.core import (
    InsertionBatch,
    Permutation,
    Sketch,
    SparseBinaryVector,
    ValidationError,
    insert_features,
    pack_supports,
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
    build_sketch, lift_hash, lift_hash_matrix, min_hash_matrix, update_sketch_insert
)

from _reference import drop_perm_loops, lift_perm_loops


# Every insert path of the matrix rules, on a 1-row matrix, a sketch, or the
# sequential fold; each returns the updated hash matrix.
INSERT_PATHS = {
    "kernel": lambda sk, perms, batch: lift_hash_matrix(sk.row[None], perms, batch),
    "sketch": lambda sk, perms, batch: update_sketch_insert(sk, perms, batch).row[None],
    "fold": lambda sk, perms, batch: engine.apply_sequential_insert(sk.row[None], perms, batch),
}


@st.composite
def perm_and_slot(draw, max_dim=48):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    perm = random_permutation(dim, PermutationSeed(seed))
    slot = draw(st.integers(min_value=1, max_value=dim))
    return perm, slot


class TestRandomPermutation:
    def test_single_element(self):
        assert random_permutation(1, PermutationSeed(99)).as_tuple() == (1,)

    def test_deterministic_under_seed(self):
        a = random_permutation(17, PermutationSeed(5, 3))
        b = random_permutation(17, PermutationSeed(5, 3))
        c = random_permutation(17, PermutationSeed(5, 4))
        assert a == b
        assert a != c

    def test_zero_dim_rejected(self):
        with pytest.raises(ValidationError):
            random_permutation(0, PermutationSeed(1))

    def test_seed_fields_validated(self):
        with pytest.raises(ValidationError):
            PermutationSeed(-1)
        with pytest.raises(ValidationError):
            PermutationSeed(0, -2)

    def test_seed_compares_hashes_and_prints_as_its_fields(self):
        a, b = PermutationSeed(1), PermutationSeed(seed=np.int64(1), index=np.uint8(0))
        assert a == b and hash(a) == hash(b) == hash((1, 0))
        assert repr(b) == "PermutationSeed(seed=1, index=0)" and type(b.seed) is int
        assert a != PermutationSeed(1, 1) and a != (1, 0)
        with pytest.raises(ValidationError, match=r"^seed 1\.0 is not an integer$"):
            PermutationSeed(1.0)
        with pytest.raises(ValidationError, match="^index '0' is not an integer$"):
            PermutationSeed(1, "0")

    def test_first_slot_rank_is_uniform(self):
        # Pr[rank of slot 1 == 1] should be 1/32 across many seeds.
        trials = 100_000
        hits = sum(
            1
            for t in range(trials)
            if random_permutation(32, PermutationSeed(123, t)).rank[0] == 1
        )
        assert abs(hits / trials - 1 / 32) <= 0.005


class TestLiftPerm:
    def test_worked_example(self):
        out = lift_perm(Permutation([6, 3, 1, 7, 2, 5, 4]), 2)
        assert out.as_tuple() == (7, 3, 4, 1, 8, 2, 6, 5)

    def test_identity_stays_identity(self):
        assert lift_perm(Permutation([1, 2, 3]), 2).as_tuple() == (1, 2, 3, 4)

    def test_two_element_case(self):
        assert lift_perm(Permutation([2, 1]), 1).as_tuple() == (2, 3, 1)

    def test_slot_out_of_range(self):
        with pytest.raises(ValidationError):
            lift_perm(Permutation([1, 2]), 3)
        with pytest.raises(ValidationError):
            lift_perm(Permutation([1, 2]), 0)

    @given(perm_and_slot())
    @settings(max_examples=200)
    def test_matches_loop_transcription(self, case):
        perm, slot = case
        expected = lift_perm_loops(list(perm.as_tuple()), slot)
        assert list(lift_perm(perm, slot).as_tuple()) == expected

    @given(perm_and_slot())
    @settings(max_examples=200)
    def test_is_bijection_and_keeps_slot_rank(self, case):
        perm, slot = case
        out = lift_perm(perm, slot)
        assert sorted(out.as_tuple()) == list(range(1, perm.dim + 2))
        assert out.value_at(slot) == perm.value_at(slot)

    @given(perm_and_slot())
    @settings(max_examples=100)
    def test_preserves_relative_order_of_survivors(self, case):
        perm, slot = case
        out = lift_perm(perm, slot)
        mapped = [i if i < slot else i + 1 for i in range(1, perm.dim + 1)]
        old = [perm.value_at(i) for i in range(1, perm.dim + 1)]
        new = [out.value_at(j) for j in mapped]
        assert np.array_equal(np.argsort(old), np.argsort(new))


class TestDropPerm:
    def test_worked_example(self):
        out = drop_perm(Permutation([6, 2, 1, 7, 3, 5, 4]), 5)
        assert out.as_tuple() == (5, 2, 1, 6, 4, 3)

    def test_identity_case(self):
        assert drop_perm(Permutation([1, 2, 3]), 2).as_tuple() == (1, 2)

    def test_drop_to_zero_dim(self):
        assert drop_perm(Permutation([1]), 1).dim == 0

    @given(perm_and_slot())
    @settings(max_examples=200)
    def test_matches_loop_transcription(self, case):
        perm, slot = case
        expected = drop_perm_loops(list(perm.as_tuple()), slot)
        assert list(drop_perm(perm, slot).as_tuple()) == expected

    @given(perm_and_slot())
    @settings(max_examples=200)
    def test_inverts_lift_at_same_slot(self, case):
        perm, slot = case
        assert drop_perm(lift_perm(perm, slot), slot) == perm

    def test_inverts_lift_on_worked_example(self):
        perm = Permutation([6, 3, 1, 7, 2, 5, 4])
        assert drop_perm(lift_perm(perm, 2), 2) == perm


@st.composite
def perm_and_batch(draw, max_dim=40, max_n=8):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    perm = random_permutation(dim, PermutationSeed(seed))
    n = draw(st.integers(min_value=1, max_value=min(dim, max_n)))
    positions = tuple(sorted(draw(
        st.sets(st.integers(1, dim), min_size=n, max_size=n)
    )))
    return perm, positions


class TestMultipleLiftPerm:
    def test_worked_example(self):
        out = multiple_lift_perm(Permutation([6, 3, 1, 7, 2, 5, 4]), (2, 4))
        assert out.as_tuple() == (7, 3, 4, 1, 8, 9, 2, 6, 5)

    def test_identity_batch(self):
        out = multiple_lift_perm(Permutation([1, 2, 3, 4]), (1, 3))
        assert out.as_tuple() == (1, 2, 3, 4, 5, 6)

    @given(perm_and_batch())
    @settings(max_examples=150)
    def test_single_fold_equals_lift(self, case):
        perm, positions = case
        m = positions[0]
        assert multiple_lift_perm(perm, (m,)) == lift_perm(perm, m)

    @given(perm_and_batch())
    @settings(max_examples=150)
    def test_round_trip_through_multiple_drop(self, case):
        perm, positions = case
        widened = multiple_lift_perm(perm, positions)
        landed = tuple(m + i for i, m in enumerate(positions))
        assert multiple_drop_perm(widened, landed) == perm


class TestMultipleDropPerm:
    def test_worked_example(self):
        out = multiple_drop_perm(Permutation([6, 3, 1, 7, 2, 5, 4]), (2, 4))
        assert out.as_tuple() == (5, 1, 2, 4, 3)

    @given(perm_and_batch())
    @settings(max_examples=150)
    def test_single_fold_equals_drop(self, case):
        perm, positions = case
        m = positions[0]
        assert multiple_drop_perm(perm, (m,)) == drop_perm(perm, m)

    def test_invalid_positions_rejected(self):
        perm = Permutation([2, 1, 3])
        with pytest.raises(ValidationError):
            multiple_drop_perm(perm, (1, 4))
        with pytest.raises(ValidationError):
            multiple_lift_perm(perm, ())


class TestLineageMapsOwnTheirOutput:
    """The lineage maps build their ranks in fresh arrays: the result shares
    no memory with the permutation, which stays as it was."""

    PERM = Permutation([6, 3, 1, 7, 2, 5, 4])

    @pytest.mark.parametrize(
        "carry, positions",
        [
            (multiple_lift_perm, (2, 4)),
            (multiple_lift_perm, tuple(range(1, 8))),
            (multiple_drop_perm, (7,)),
            (multiple_drop_perm, tuple(range(1, 8))),
        ],
        ids=["lift", "lift-every-slot", "drop-one", "drop-every-slot"],
    )
    def test_result_shares_no_memory_with_its_input(self, carry, positions):
        rank = self.PERM.rank.copy()
        out = carry(self.PERM, positions)
        assert not np.shares_memory(out.rank, self.PERM.rank)
        assert np.array_equal(self.PERM.rank, rank)
        assert out == carry(Permutation(rank), positions)


def _fold_loops(step, perm, slots):
    rank = list(perm.as_tuple())
    for slot in slots:
        rank = step(rank, slot)
    return rank


def lift_oracle(perm, positions):
    return _fold_loops(lift_perm_loops, perm, [m + i for i, m in enumerate(positions)])


def drop_oracle(perm, positions):
    return _fold_loops(drop_perm_loops, perm, [m - i for i, m in enumerate(positions)])


@st.composite
def perm_and_any_batch(draw, max_dim=30):
    """Any non-empty sorted batch, up to every position of the permutation."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    perm = random_permutation(dim, PermutationSeed(seed))
    positions = tuple(sorted(draw(st.sets(st.integers(1, dim), min_size=1))))
    return perm, positions


class TestClosedFormMatchesFold:
    """The closed-form rank maps equal folding the loop oracles one slot at a time."""

    @given(perm_and_any_batch())
    @settings(max_examples=300)
    def test_lift(self, case):
        perm, positions = case
        assert list(multiple_lift_perm(perm, positions).as_tuple()) == lift_oracle(
            perm, positions
        )

    @given(perm_and_any_batch())
    @settings(max_examples=300)
    def test_drop(self, case):
        perm, positions = case
        assert list(multiple_drop_perm(perm, positions).as_tuple()) == drop_oracle(
            perm, positions
        )

    @pytest.mark.parametrize(
        "dim, positions",
        [(1, (1,)), (7, (1,)), (7, (7,)), (7, (1, 7)), (6, (1, 2, 3, 4, 5, 6))],
    )
    def test_edges(self, dim, positions):
        perm = random_permutation(dim, PermutationSeed(2024))
        lifted = multiple_lift_perm(perm, positions)
        assert list(lifted.as_tuple()) == lift_oracle(perm, positions)
        dropped = multiple_drop_perm(perm, positions)
        assert list(dropped.as_tuple()) == drop_oracle(perm, positions)
        assert dropped.dim == dim - len(positions)

    @given(perm_and_any_batch(), st.sampled_from(["first", "last", "both"]))
    @settings(max_examples=200)
    def test_batches_holding_the_extreme_ranks(self, case, which):
        # Base ranks 1 and d cut the first and the last run of the #{w < r} table.
        perm, positions = case
        extremes = {"first": [1], "last": [perm.dim], "both": [1, perm.dim]}[which]
        holders = {int(np.flatnonzero(perm.rank == r)[0]) + 1 for r in extremes}
        positions = tuple(sorted(set(positions) | holders))
        assert list(multiple_lift_perm(perm, positions).as_tuple()) == lift_oracle(perm, positions)
        assert list(multiple_drop_perm(perm, positions).as_tuple()) == drop_oracle(perm, positions)

    @pytest.mark.parametrize(
        "rank, positions",
        [
            ([2, 1], (2,)),
            ([2, 1], (1,)),
            ([3, 1, 4, 2, 5], (2,)),
            ([3, 1, 4, 2, 5], (5,)),
            ([3, 1, 4, 2, 5], (2, 5)),
            ([5, 2, 4, 1, 3], (1, 4)),
            ([5, 2, 4, 1, 3], (1, 2, 4)),
        ],
    )
    def test_extreme_rank_edges(self, rank, positions):
        perm = Permutation(rank)
        assert list(multiple_lift_perm(perm, positions).as_tuple()) == lift_oracle(perm, positions)
        assert list(multiple_drop_perm(perm, positions).as_tuple()) == drop_oracle(perm, positions)

    def test_delete_every_position_leaves_dimension_zero(self):
        out = multiple_drop_perm(Permutation([3, 1, 2]), (1, 2, 3))
        assert out.dim == 0 and out.as_tuple() == ()

    @pytest.mark.parametrize("positions", [(), (0,), (2, 1), (1, 1), (4,), (1.0,)])
    @pytest.mark.parametrize("fn", [multiple_lift_perm, multiple_drop_perm])
    def test_invalid_positions_rejected(self, fn, positions):
        with pytest.raises(ValidationError):
            fn(Permutation([2, 1, 3]), positions)


class TestTrustedConstruction:
    """Generation and the batch lineage maps build their output unchecked."""

    @staticmethod
    def check_trusted(perm):
        assert perm == Permutation(perm.rank)
        assert perm.rank.dtype == np.int32
        assert not perm.rank.flags.writeable
        with pytest.raises(ValueError):
            perm.rank[0] = 1

    @given(perm_and_any_batch())
    @settings(max_examples=100)
    def test_outputs_equal_the_checked_constructor(self, case):
        perm, positions = case
        self.check_trusted(perm)
        self.check_trusted(multiple_lift_perm(perm, positions))
        if len(positions) < perm.dim:  # a zero-dimension output has no slot to write
            self.check_trusted(multiple_drop_perm(perm, positions))

    def test_large_generation_is_trusted(self):
        self.check_trusted(random_permutation(100_000, PermutationSeed(3, 1)))

    @pytest.mark.parametrize(
        "rank, message",
        [
            ([1, 1], "ranks must not repeat"),
            ([0, 1], "ranks must lie in 1..2"),
            ([1, 3], "ranks must lie in 1..2"),
        ],
    )
    def test_public_constructor_still_checks(self, rank, message):
        with pytest.raises(ValidationError, match=message):
            Permutation(rank)

    @pytest.mark.parametrize(
        "rank", [[1.5, 2.2], [1.0, 2.0], ["1", "2"], [True], np.array([2, 1], dtype=np.float32)]
    )
    def test_public_constructor_refuses_non_integer_ranks(self, rank):
        # Cast unchecked, [1.5, 2.2] would truncate silently to Permutation([1, 2]).
        with pytest.raises(ValidationError, match="^ranks must be integers$"):
            Permutation(rank)

    def test_public_constructor_takes_any_integer_dtype(self):
        assert Permutation([]).dim == 0
        for dtype in (np.int8, np.uint16, np.int64):
            perm = Permutation(np.array([2, 1], dtype=dtype))
            assert perm.rank.dtype == np.int32 and perm == Permutation([2, 1])


class TestRankStorage:
    """Ranks are int32 everywhere, which bounds a permutation's dimension."""

    LIMIT = "^dimension 11 exceeds 10, the largest a permutation takes$"

    @pytest.fixture
    def small_limit(self, monkeypatch):
        # A small limit shows every refusal without an array near 2**31.
        monkeypatch.setattr(core, "_RANK_MAX", 10)

    def test_random_permutation_refuses_a_dimension_past_the_limit(self, small_limit):
        with pytest.raises(ValidationError, match=self.LIMIT):
            random_permutation(11, PermutationSeed(1))
        assert random_permutation(10, PermutationSeed(1)).dim == 10

    def test_lift_perm_refuses_an_output_past_the_limit(self, small_limit):
        with pytest.raises(ValidationError, match=self.LIMIT):
            lift_perm(Permutation(range(1, 11)), 3)
        assert lift_perm(Permutation(range(1, 10)), 3).dim == 10
        assert drop_perm(Permutation(range(1, 11)), 3).dim == 9

    def test_multiple_lift_perm_refuses_an_output_past_the_limit(self, small_limit):
        with pytest.raises(ValidationError, match=self.LIMIT):
            multiple_lift_perm(Permutation(range(1, 10)), (2, 5))
        assert multiple_lift_perm(Permutation(range(1, 10)), (5,)).dim == 10
        assert multiple_drop_perm(Permutation(range(1, 11)), (2, 5)).dim == 8

    @pytest.mark.parametrize("insert", list(INSERT_PATHS.values()), ids=list(INSERT_PATHS))
    def test_insert_paths_refuse_a_frame_past_the_limit(self, small_limit, insert):
        # Two entries would widen the 9-slot frame to 11, whose ranks, and so
        # hashes, int32 would not hold at the real limit; one reaches 10.
        perms = [Permutation(range(1, 10)), random_permutation(9, PermutationSeed(3))]
        point = SparseBinaryVector(9, (2, 9))
        sk = build_sketch(point, perms)
        with pytest.raises(ValidationError, match=self.LIMIT):
            insert(sk, perms, InsertionBatch((2, 5), (1, 0)))
        batch = InsertionBatch((9,), (1,))
        lifted = [multiple_lift_perm(p, batch.positions) for p in perms]
        expected = min_hash_matrix(lifted, pack_supports([insert_features(point, batch)]))
        assert np.array_equal(insert(sk, perms, batch), expected)

    def test_hashes_past_the_real_limit_are_refused(self):
        message = "^hash value 2147483648 exceeds 2147483647, the largest a sketch takes$"
        with pytest.raises(ValidationError, match=message):
            Sketch((1, 2**31))
        with pytest.raises(ValidationError, match=message):
            lift_hash(2**31, 1, 0)
        assert Sketch((2**31 - 1,)).row.tolist() == [2**31 - 1]
        assert lift_hash(2**31 - 1, 2**31 - 1, 1) == 2**31 - 1

    def test_public_constructor_refuses_a_dimension_past_the_limit(self, small_limit):
        with pytest.raises(ValidationError, match=self.LIMIT):
            Permutation(range(1, 12))
        assert Permutation(range(1, 11)).dim == 10

    def test_every_constructor_holds_read_only_int32_ranks(self):
        base = Permutation([3, 1, 4, 2, 5])
        built = [
            base,
            Permutation(np.array([2, 1], dtype=np.uint64)),
            Permutation([]),
            random_permutation(7, PermutationSeed(4)),
            lift_perm(base, 2),
            drop_perm(base, 2),
            multiple_lift_perm(base, (1, 5)),
            multiple_drop_perm(base, (1, 5)),
            multiple_drop_perm(base, (1, 2, 3, 4, 5)),
        ]
        for perm in built:
            assert perm.rank.dtype == np.int32 and not perm.rank.flags.writeable

    def test_generated_ranks_take_four_bytes_each(self):
        perms = [random_permutation(100_000, PermutationSeed(1, j)) for j in range(128)]
        assert sum(p.rank.nbytes for p in perms) == 128 * 100_000 * 4


class TestSeedContract:
    """The (seed, index) pair names one permutation for good: a change to the
    generator must not shift every stored sketch silently."""

    @pytest.mark.parametrize(
        "d, seed, index, digest",
        [
            (1, 0, 0, "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8"),
            (2, 5, 1, "0c730b69905c5ef7a4ca5269f72365400bde2dd2c04eaf9bbb3d1c4a265a0131"),
            (10, 7, 3, "eff84d811b275bf7bff1bc1b435fdd2558bdc498415e886127a07cd36fa995ba"),
            (1000, 1, 0, "ecd8eeca215b99f4909214771fd6075d0bca0a95b0b18fb81c755164c119d22a"),
            (20000, 1, 31, "c873e4c6dcedd57d1122243e1662173e6f002633dbb4bd0786eda010b099d375"),
            (100000, 0, 0, "043feac25f5bdffcdc66dac5b75c1a4831307d4766fca663a6d0ecb7a7eb5d69"),
            (100000, 123456789, 127, "f65377de89c1cc672e126e9774eb50dd4e6539b21365748c2019eeab588e892e"),
        ],
    )
    def test_rank_digest_is_pinned(self, d, seed, index, digest):
        rank = random_permutation(d, PermutationSeed(seed, index)).rank
        assert rank.dtype == np.int32
        # The digests were taken over int64 ranks; widening pins the same values.
        assert hashlib.sha256(rank.astype(np.int64).tobytes()).hexdigest() == digest


class TestSeedsNameOneStream:
    """Unequal seeds draw unequal permutations. numpy pads a short entropy
    list with zero words and splits every int into 32-bit words, which the
    seed's entropy must not let two pairs share."""

    @pytest.mark.parametrize(
        "a, b",
        [((5 + 3 * 2**32, 0), (5, 3)), ((5 + 7 * 2**32, 3), (5, 7 + 3 * 2**32))],
        ids=["seed-high-word-against-index", "seed-and-index-words-swapped"],
    )
    def test_pairs_whose_words_coincide_draw_apart(self, a, b):
        # A pair may be refused; two that are accepted must draw apart.
        ranks = []
        for seed, index in (a, b):
            try:
                ranks.append(random_permutation(50, PermutationSeed(seed, index)).rank)
            except ValidationError:
                assert index >= 2**32
        assert len(ranks) < 2 or not np.array_equal(*ranks)

    @staticmethod
    def state(seed, index):
        return np.random.SeedSequence(PermutationSeed(seed, index)._entropy()).generate_state(4)

    @given(
        st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1)),
        st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1)),
    )
    @settings(max_examples=200)
    def test_unequal_pairs_give_unequal_entropy(self, a, b):
        assert (a == b) == np.array_equal(self.state(*a), self.state(*b))

    @given(st.integers(2**32, 2**64 - 1))
    @settings(max_examples=200)
    def test_a_two_word_seed_at_index_0_stays_apart_from_its_words(self, seed):
        assert not np.array_equal(self.state(seed, 0), self.state(seed % 2**32, seed >> 32))

    @pytest.mark.parametrize(
        "seed, index",
        [(0, 0), (2**32 - 1, 2**32 - 1), (7, 3), (5 + 3 * 2**32, 1), (2**64 - 1, 2**32 - 1)],
    )
    def test_every_pair_but_a_two_word_seed_at_index_0_keeps_its_stream(self, seed, index):
        legacy = np.random.default_rng(np.random.SeedSequence([seed, index])).permutation(40) + 1
        assert np.array_equal(random_permutation(40, PermutationSeed(seed, index)).rank, legacy)

    def test_seeds_past_64_bits_and_indices_past_32_are_refused(self):
        PermutationSeed(2**64 - 1, 2**32 - 1)
        with pytest.raises(ValidationError, match=r"^seed 18446744073709551616 must be below 2\*\*64$"):
            PermutationSeed(2**64)
        with pytest.raises(ValidationError, match=r"^index 4294967296 must be below 2\*\*32$"):
            PermutationSeed(0, 2**32)
