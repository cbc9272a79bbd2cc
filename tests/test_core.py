"""Vector editing and domain-type validation."""

import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dynsketch.core import (
    DeletionBatch,
    InsertionBatch,
    Permutation,
    Sketch,
    SparseBinaryVector,
    SupportPack,
    ValidationError,
    delete_features,
    insert_features,
    pack_supports,
    EMPTY,
)
from dynsketch.estimate import minwise_uniformity_test
from dynsketch.ingest import Corpus, sample_corpus
from dynsketch.permgen import PermutationSeed, drop_perm, lift_perm, random_permutation
from dynsketch.sketch import drop_hash, lift_hash
from dynsketch.bench import engine
from dynsketch.bench.experiment import PATHS, ExperimentConfig, run_experiment
from dynsketch.bench.synthetic import synthetic_corpus
from dynsketch.bench.workload import draw_deletion_plan, draw_insertion_plan
from _reference import delete_features_bisect, insert_features_bisect


def vec(*bits):
    return SparseBinaryVector.from_dense(bits)


def edit_dim_message(dim):
    return f"dimension {dim} exceeds 9223372036854775807, the largest the vector edits take"


def threaded_sketch(threads):
    """``engine.sketch_matrix`` of a two-point pack under two permutations."""
    perms = [random_permutation(5, PermutationSeed(1, j)) for j in range(2)]
    return engine.sketch_matrix(pack_supports([vec(1, 0, 1, 0, 0), vec(0, 0, 0, 1, 1)]), perms, threads)


class TestSparseBinaryVector:
    def test_from_dense_round_trip(self):
        v = vec(1, 0, 0, 1, 0, 1, 0)
        assert v.dim == 7
        assert v.support == (1, 4, 6)
        assert v.to_dense() == [1, 0, 0, 1, 0, 1, 0]

    def test_empty_and_zero_dim(self):
        assert SparseBinaryVector(3).support == ()
        assert SparseBinaryVector(0).dim == 0

    def test_rejects_out_of_range_support(self):
        with pytest.raises(ValidationError):
            SparseBinaryVector(3, (4,))

    def test_rejects_unsorted_or_duplicate_support(self):
        with pytest.raises(ValidationError):
            SparseBinaryVector(5, (3, 2))
        with pytest.raises(ValidationError):
            SparseBinaryVector(5, (2, 2))

    @pytest.mark.parametrize(
        "support, message",
        [
            ((2**63,), "support index 9223372036854775808 exceeds dimension 5"),
            (
                np.array([2**63], dtype=np.uint64),
                "support index 9223372036854775808 exceeds dimension 5",
            ),
            ((1.0,), "support index 1.0 is not an integer"),
            ((1.5,), "support index 1.5 is not an integer"),
            (("a",), "support index 'a' is not an integer"),
            (np.array([[1, 2], [3, 4]]), "support index array([1, 2]) is not an integer"),
            ((0,), "support index 0 must be at least 1"),
            ((3, 2), "support indices must be strictly increasing (got 2 after 3)"),
            ((6,), "support index 6 exceeds dimension 5"),
            (np.array([6]), "support index 6 exceeds dimension 5"),
        ],
    )
    def test_rejection_messages(self, support, message):
        with pytest.raises(ValidationError) as info:
            SparseBinaryVector(5, support)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "support", [np.array([1.5]), np.array([True])], ids=["float", "bool"]
    )
    def test_rejects_non_integer_arrays(self, support):
        # The repr of a numpy scalar in the message depends on the numpy version.
        with pytest.raises(ValidationError, match=r"^support index .* is not an integer$"):
            SparseBinaryVector(5, support)

    def test_support_past_int64_is_rejected_when_built(self):
        with pytest.raises(ValidationError) as info:
            SparseBinaryVector(2**70, (2**65,))
        assert str(info.value) == (
            "support index 36893488147419103232 exceeds 9223372036854775807, "
            "the largest a vector takes"
        )

    def test_unsorted_support_message_is_plural(self):
        with pytest.raises(
            ValidationError, match=r"^support indices must be strictly increasing \(got 2 after 2\)$"
        ):
            SparseBinaryVector(5, (2, 2))

    @pytest.mark.parametrize(
        "support",
        [(True, 2), [1, 2], np.array([1, 2], dtype=np.int32), np.array([1, 2], dtype=np.uint64)],
        ids=["bool-and-int", "list", "int32", "uint64"],
    )
    def test_accepted_supports_become_tuples_of_ints(self, support):
        v = SparseBinaryVector(5, support)
        assert v.support == (1, 2)
        assert type(v.support) is tuple
        assert all(type(x) is int for x in v.support)

    def test_empty_support_index_is_int64(self):
        for v in (
            SparseBinaryVector(3),
            delete_features(vec(0, 1, 0), DeletionBatch((2,))),
            insert_features(SparseBinaryVector(2), InsertionBatch((1,), (0,))),
        ):
            assert v.support_index().dtype == np.int64
            assert v.support_index().size == 0
            assert v.support == ()

    def test_rejects_negative_dim_and_bad_dense(self):
        with pytest.raises(ValidationError):
            SparseBinaryVector(-1)
        with pytest.raises(ValidationError):
            SparseBinaryVector.from_dense([0, 2])


class TestPermutationType:
    def test_accepts_bijection(self):
        p = Permutation([2, 3, 1])
        assert p.dim == 3
        assert p.value_at(2) == 3

    def test_rejects_non_bijections(self):
        for bad in ([1, 1], [0, 1], [1, 3]):
            with pytest.raises(ValidationError):
                Permutation(bad)

    def test_zero_dim_allowed(self):
        assert Permutation([]).dim == 0


class TestSketchType:
    def test_values_normalized(self):
        sk = Sketch((3, EMPTY, 1))
        assert sk.num_perms == 3
        assert sk.values[1] is EMPTY

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            Sketch(())
        with pytest.raises(ValidationError):
            Sketch((0,))

    def test_hash_past_the_largest_rank_is_rejected_when_built(self):
        # A hash is a rank, which int32 holds; 2**31 - 1 is the largest.
        for big in (2**31, 2**63):
            with pytest.raises(ValidationError) as info:
                Sketch((1, big))
            assert str(info.value) == (
                f"hash value {big} exceeds 2147483647, the largest a sketch takes"
            )
        assert Sketch((1, 2**31 - 1)).row.tolist() == [1, 2**31 - 1]

    def test_values_are_derived_from_the_row(self):
        sk = Sketch((3, EMPTY, np.int64(1)))
        assert sk.row.tolist() == [3, 0, 1]
        assert sk.values == (3, EMPTY, 1) and all(type(v) is int for v in sk.values[::2])
        assert "values" not in sk.__dict__


class TestBatches:
    def test_insertion_batch_checks(self):
        with pytest.raises(ValidationError):
            InsertionBatch((2, 2), (1, 1))
        with pytest.raises(ValidationError):
            InsertionBatch((3, 2), (1, 1))
        with pytest.raises(ValidationError):
            InsertionBatch((1,), (2,))
        with pytest.raises(ValidationError):
            InsertionBatch((1, 2), (1,))
        with pytest.raises(ValidationError):
            InsertionBatch((), ())

    @pytest.mark.parametrize(
        "bits", [(1.7,), (0.5,), (1.0,), ("1",), (None,), (np.float64(1),)],
        ids=["1.7", "0.5", "1.0", "str", "None", "float64"],
    )
    def test_non_integer_bits_are_refused(self, bits):
        with pytest.raises(ValidationError, match=r"^bits must be 0 or 1$"):
            InsertionBatch((1,), bits)

    def test_integer_and_bool_bits_are_accepted(self):
        batch = InsertionBatch((1, 2, 3, 4), (True, np.int8(1), np.False_, np.uint64(0)))
        assert batch.bits == (1, 1, 0, 0)
        assert all(type(b) is int for b in batch.bits)

    @pytest.mark.parametrize(
        "batch",
        [
            InsertionBatch((2, 5, 9), (1, 0, 1)),
            InsertionBatch((3,), (0,)),
            DeletionBatch((1, 4)),
        ],
        ids=["insertion", "all-zero-insertion", "deletion"],
    )
    def test_arrays_are_read_only_copies_of_the_tuples(self, batch):
        arrays = [batch.position_array]
        assert batch.position_array.dtype == np.int64
        assert batch.position_array.tolist() == list(batch.positions)
        if isinstance(batch, InsertionBatch):
            arrays += [batch.one_mask, batch.landed_ones]
            assert batch.one_mask.tolist() == [b == 1 for b in batch.bits]
            assert batch.landed_ones.dtype == np.int64
            landed = [m + i for i, (m, b) in enumerate(zip(batch.positions, batch.bits)) if b]
            assert batch.landed_ones.tolist() == landed
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_all_zero_insertion_lands_no_ones(self):
        batch = InsertionBatch((1, 2, 3), (0, 0, 0))
        assert batch.landed_ones.size == 0 and batch.landed_ones.dtype == np.int64

    def test_arrays_leave_eq_hash_and_repr_alone(self):
        a, b = InsertionBatch((2, 5), (1, 0)), InsertionBatch([2, 5], [True, 0])
        assert a == b and hash(a) == hash(b) and hash(a) == hash(((2, 5), (1, 0)))
        assert repr(a) == "InsertionBatch(positions=(2, 5), bits=(1, 0))"
        assert a != InsertionBatch((2, 5), (0, 1))
        d = DeletionBatch((1, 4))
        assert d == DeletionBatch([1, 4]) and hash(d) == hash(((1, 4),))
        assert repr(d) == "DeletionBatch(positions=(1, 4))"

    def test_positions_past_int64_are_rejected(self):
        with pytest.raises(
            ValidationError,
            match=r"^position 9223372036854775808 exceeds 9223372036854775807, the largest a batch takes$",
        ):
            DeletionBatch((1, 2**63))
        with pytest.raises(
            ValidationError,
            match=r"^landed position 9223372036854775808 exceeds 9223372036854775807, the largest a batch takes$",
        ):
            InsertionBatch((2**63 - 2, 2**63 - 1), (0, 1))
        # A 0-bit lands nowhere, so only the positions must fit.
        InsertionBatch((2**63 - 2, 2**63 - 1), (1, 0))

    def test_out_of_range_positions_rejected_at_use(self):
        with pytest.raises(ValidationError):
            insert_features(vec(1, 0), InsertionBatch((3,), (1,)))
        with pytest.raises(ValidationError):
            delete_features(vec(1, 0), DeletionBatch((3,)))


class TestInsertFeatures:
    def test_single_insertion_worked_example(self):
        out = insert_features(vec(1, 0, 0, 1, 0, 1, 0), InsertionBatch((2,), (1,)))
        assert out.to_dense() == [1, 1, 0, 0, 1, 0, 1, 0]

    def test_two_position_batch_worked_example(self):
        out = insert_features(vec(1, 0, 0, 1, 0, 1, 0), InsertionBatch((2, 4), (0, 1)))
        assert out.to_dense() == [1, 0, 0, 0, 1, 1, 0, 1, 0]

    def test_insert_into_empty_support(self):
        out = insert_features(SparseBinaryVector(3), InsertionBatch((1,), (0,)))
        assert out.dim == 4
        assert out.support == ()


class TestDeleteFeatures:
    def test_single_deletion_worked_example(self):
        out = delete_features(vec(1, 0, 0, 1, 0, 1, 0), DeletionBatch((5,)))
        assert out.to_dense() == [1, 0, 0, 1, 1, 0]

    def test_two_position_batch_worked_example(self):
        out = delete_features(vec(1, 0, 0, 1, 0, 1, 0), DeletionBatch((2, 4)))
        assert out.to_dense() == [1, 0, 0, 1, 0]

    def test_delete_everything(self):
        out = delete_features(vec(1, 1, 1), DeletionBatch((1, 2, 3)))
        assert out.dim == 0
        assert out.support == ()


def input_arrays(*values):
    """Every array field of the given vectors and batches."""
    return [a for v in values for a in vars(v).values() if isinstance(a, np.ndarray)]


class TestEditsOwnTheirOutput:
    """The edits build their result in fresh arrays: it shares no memory with
    the vector or the batch, which stay as they were."""

    @pytest.mark.parametrize(
        "edit, batch",
        [
            (insert_features, InsertionBatch((1, 5, 9), (0, 0, 0))),
            (insert_features, InsertionBatch((1, 5, 9), (1, 1, 1))),
            (insert_features, InsertionBatch(tuple(range(1, 10)), (1,) * 9)),
            (delete_features, DeletionBatch((2, 3, 6))),
            (delete_features, DeletionBatch(tuple(range(1, 10)))),
        ],
        ids=["no-1-bits", "all-1-bits", "every-slot-a-1-bit", "removes-nothing", "every-position"],
    )
    @pytest.mark.parametrize("support", [(1, 4, 5, 9), ()], ids=["support", "empty"])
    def test_result_shares_no_memory_with_its_inputs(self, edit, batch, support):
        vector = SparseBinaryVector(9, support)
        before = [a.copy() for a in input_arrays(vector, batch)]
        out = edit(vector, batch)
        assert not any(np.shares_memory(out.support_index(), a) for a in input_arrays(vector, batch))
        assert all(np.array_equal(a, b) for a, b in zip(input_arrays(vector, batch), before))
        assert out == edit(SparseBinaryVector(9, support), batch)


@st.composite
def vector_and_insertion(draw, max_dim=64):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    support = tuple(sorted(draw(st.sets(st.integers(1, dim)))))
    n = draw(st.integers(min_value=1, max_value=dim))
    positions = tuple(sorted(draw(
        st.sets(st.integers(1, dim), min_size=n, max_size=n)
    )))
    bits = tuple(draw(st.lists(
        st.integers(0, 1), min_size=len(positions), max_size=len(positions)
    )))
    return SparseBinaryVector(dim, support), InsertionBatch(positions, bits)


class TestEditProperties:
    @given(vector_and_insertion())
    @settings(max_examples=150)
    def test_insert_then_delete_round_trips(self, case):
        vector, batch = case
        widened = insert_features(vector, batch)
        landed = tuple(m + i for i, m in enumerate(batch.positions))
        assert delete_features(widened, DeletionBatch(landed)) == vector

    @given(vector_and_insertion())
    @settings(max_examples=150)
    def test_insertion_support_accounting(self, case):
        vector, batch = case
        widened = insert_features(vector, batch)
        assert widened.dim == vector.dim + len(batch)
        assert len(widened.support) == len(vector.support) + sum(batch.bits)
        assert list(widened.support) == sorted(set(widened.support))

    @given(vector_and_insertion())
    @settings(max_examples=150)
    def test_deletion_support_accounting(self, case):
        vector, batch = case
        removal = DeletionBatch(batch.positions)
        narrowed = delete_features(vector, removal)
        hit = sum(1 for m in removal.positions if m in vector.support)
        assert narrowed.dim == vector.dim - len(removal)
        assert len(narrowed.support) == len(vector.support) - hit
        assert list(narrowed.support) == sorted(set(narrowed.support))


def assert_same_vector(got, want):
    assert got.dim == want.dim
    assert type(got.support) is tuple
    assert got.support == want.support
    assert all(type(x) is int for x in got.support)


@st.composite
def edit_case(draw, max_dim=64):
    """A vector and the positions of a batch, with the corner cases drawn often."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    every = tuple(range(1, dim + 1))
    support = draw(st.sampled_from(["random", "empty", "full"]))
    if support == "random":
        support = tuple(sorted(draw(st.sets(st.integers(1, dim)))))
    else:
        support = () if support == "empty" else every
    positions = draw(st.sampled_from(["random", "ends", "support", "all"]))
    if positions == "random":
        positions = tuple(sorted(draw(st.sets(st.integers(1, dim), min_size=1))))
    elif positions == "ends":
        positions = tuple(sorted({1, dim}))
    elif positions == "support" and support:
        positions = support
    else:
        positions = every
    bits = draw(st.sampled_from(["random", "zeros", "ones"]))
    if bits == "random":
        bits = tuple(draw(st.lists(st.integers(0, 1), min_size=len(positions), max_size=len(positions))))
    else:
        bits = (int(bits == "ones"),) * len(positions)
    return SparseBinaryVector(dim, support), positions, bits


class TestEditsMatchBisectOracle:
    """The numpy edits return exactly what the per-element bisect oracles return."""

    @given(edit_case())
    @settings(max_examples=300)
    @example((SparseBinaryVector(1), (1,), (0,)))
    @example((SparseBinaryVector(1, (1,)), (1,), (1,)))
    @example((SparseBinaryVector(2**40, (1, 2**39, 2**40)), (1, 2**40), (1, 1)))
    @example((SparseBinaryVector(2**63 - 2, (2**63 - 2,)), (1,), (1,)))
    def test_insert(self, case):
        vector, positions, bits = case
        batch = InsertionBatch(positions, bits)
        assert_same_vector(insert_features(vector, batch), insert_features_bisect(vector, batch))

    @given(edit_case())
    @settings(max_examples=300)
    @example((SparseBinaryVector(1), (1,), (0,)))
    @example((SparseBinaryVector(3, (1, 2, 3)), (1, 2, 3), (0, 0, 0)))
    @example((SparseBinaryVector(4, (2, 4)), (1, 2, 3, 4), (0, 0, 0, 0)))
    @example((SparseBinaryVector(2**40, (1, 2**39, 2**40)), (2, 2**40), (0, 0)))
    @example((SparseBinaryVector(2**63 - 1, (2**63 - 2, 2**63 - 1)), (2**63 - 2,), (0,)))
    def test_delete(self, case):
        vector, positions, _ = case
        batch = DeletionBatch(positions)
        assert_same_vector(delete_features(vector, batch), delete_features_bisect(vector, batch))

    def test_dimensions_past_int64_are_rejected(self):
        # The oracles would compute these with Python ints; the int64 edits refuse them.
        widened = SparseBinaryVector(2**63 - 1, (5,)), InsertionBatch((1,), (1,))
        with pytest.raises(ValidationError, match=f"^{re.escape(edit_dim_message(2**63))}$"):
            insert_features(*widened)
        # The batch fits int64, so the refusal is the edit's own.
        wide = SparseBinaryVector(2**64, (5,)), DeletionBatch((2**63 - 1,))
        with pytest.raises(ValidationError, match=f"^{re.escape(edit_dim_message(2**64))}$"):
            delete_features(*wide)

    @pytest.mark.parametrize(
        "edit, vector, batch, expected",
        [
            (
                insert_features, SparseBinaryVector(5, (2, 5)), InsertionBatch((2, 6), (0, 1)),
                "position 6 out of range for dimension 5",
            ),
            (
                delete_features, SparseBinaryVector(5, (2, 5)), DeletionBatch((2, 6)),
                "position 6 out of range for dimension 5",
            ),
            (
                insert_features, SparseBinaryVector(2**63 - 2, (5, 2**63 - 2)), InsertionBatch((1,), (1,)),
                SparseBinaryVector(2**63 - 1, (1, 6, 2**63 - 1)),
            ),
            (
                insert_features, SparseBinaryVector(2**63 - 2, (5,)), InsertionBatch((1, 3), (0, 1)),
                edit_dim_message(2**63),
            ),
        ],
        ids=["insert-dim-plus-one", "delete-dim-plus-one", "insert-to-int64-max", "insert-past-int64"],
    )
    def test_each_check_at_its_edge(self, edit, vector, batch, expected):
        """Each edit check is one comparison that calls the batch's or the
        dimension's check only to raise: its message, or the result, at the
        first value past each bound and at the bound."""
        if isinstance(expected, str):
            with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
                edit(vector, batch)
        else:
            assert_same_vector(edit(vector, batch), expected)


def assert_vector_contract(v):
    index = v.support_index()
    assert index.dtype == np.int64
    assert not index.flags.writeable
    assert v.support_index() is index
    assert type(v.support) is tuple
    assert all(type(x) is int for x in v.support)
    assert index.tolist() == list(v.support)
    with pytest.raises(AttributeError):
        v.dim = v.dim
    with pytest.raises(AttributeError):
        v.support = v.support


class TestVectorContract:
    """A vector from the edits and one from the constructor each hold one
    read-only int64 array, from which ``support`` is built on read, and are
    indistinguishable."""

    @given(edit_case())
    @settings(max_examples=200)
    def test_edit_built_and_constructed_vectors_agree(self, case):
        vector, positions, bits = case
        insertion, deletion = InsertionBatch(positions, bits), DeletionBatch(positions)
        wrapped = SparseBinaryVector._from_valid(
            vector.dim, np.array(vector.support, dtype=np.int64)
        )
        pairs = [
            (insert_features(vector, insertion), insert_features_bisect(vector, insertion)),
            (delete_features(vector, deletion), delete_features_bisect(vector, deletion)),
            (wrapped, vector),
        ]
        for edited, built in pairs:
            assert edited == built and built == edited
            assert hash(edited) == hash(built)
            assert repr(edited) == repr(built)
            assert_vector_contract(edited)
            assert_vector_contract(built)

    @given(edit_case())
    @settings(max_examples=50)
    def test_copies_keep_the_contract(self, case):
        vector, positions, bits = case
        edited = insert_features(vector, InsertionBatch(positions, bits))
        for twin in (copy.copy(edited), copy.deepcopy(edited), pickle.loads(pickle.dumps(edited))):
            assert twin == edited
            assert_vector_contract(twin)


VALUES = {
    "insertion": InsertionBatch((1, 3), (1, 0)),
    "all-zero-insertion": InsertionBatch((2, 4), (0, 0)),
    "deletion": DeletionBatch((1, 4)),
    "sketch": Sketch((3, EMPTY, 1)),
    "permutation": Permutation([2, 3, 1]),
    "vector": SparseBinaryVector(5, (1, 4)),
    "edited-vector": delete_features(SparseBinaryVector(6, (1, 2, 5)), DeletionBatch((2,))),
    "pack": pack_supports([SparseBinaryVector(5, (1, 4)), SparseBinaryVector(5)]),
    "checked-pack": SupportPack(2, 5, [0, 3], [2, 0]),
    "seed": PermutationSeed(1),
    "indexed-seed": PermutationSeed(np.int64(2**40), index=np.uint8(3)),
}

ARRAYS = {
    InsertionBatch: lambda b: (b.position_array, b.one_mask, b.landed_ones),
    DeletionBatch: lambda b: (b.position_array,),
    Sketch: lambda sk: (sk.row,),
    Permutation: lambda p: (p.rank,),
    SparseBinaryVector: lambda v: (v.support_index(),),
    SupportPack: lambda pack: (pack.flat, pack.lengths, pack.starts),
    PermutationSeed: lambda seed: (),
}


@pytest.mark.parametrize(
    "twin_of",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("value", list(VALUES.values()), ids=list(VALUES))
def test_batch_and_sketch_copies_keep_read_only_arrays(value, twin_of):
    twin = twin_of(value)
    assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    arrays = ARRAYS[type(value)]
    for got, want in zip(arrays(twin), arrays(value)):
        assert got is not want
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 0


FIELDS = {
    InsertionBatch: ("positions", "bits", "position_array", "one_mask", "landed_ones"),
    DeletionBatch: ("positions", "position_array"),
    Sketch: ("values", "row"),
    Permutation: ("rank", "dim"),
    SparseBinaryVector: ("dim", "support"),
    SupportPack: ("count", "dim", "flat", "lengths", "starts"),
    PermutationSeed: ("seed", "index"),
}


@pytest.mark.parametrize("value", list(VALUES.values()), ids=list(VALUES))
def test_value_types_refuse_rebinding(value):
    before = repr(value)
    for name in FIELDS[type(value)]:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


# One check behind every scalar position (core._as_position): a float or a
# string is refused with the message a position sequence gives, not indexed.
PERM_5 = Permutation([3, 1, 4, 5, 2])
SCALAR_POSITION_TAKERS = {
    "value_at": lambda position: PERM_5.value_at(position),
    "lift_perm": lambda position: lift_perm(PERM_5, position),
    "drop_perm": lambda position: drop_perm(PERM_5, position),
    "drop_hash": lambda position: drop_hash(2, SparseBinaryVector(5, (1, 5)), PERM_5, position),
}


@pytest.mark.parametrize(
    "take", list(SCALAR_POSITION_TAKERS.values()), ids=list(SCALAR_POSITION_TAKERS)
)
class TestScalarPosition:
    @pytest.mark.parametrize("position", [5.0, "5"])
    def test_refuses_a_non_integer(self, take, position):
        message = re.escape(f"position {position!r} is not an integer")
        with pytest.raises(ValidationError, match=message):
            take(position)

    @pytest.mark.parametrize("position", [0, 6])
    def test_refuses_a_position_out_of_range(self, take, position):
        with pytest.raises(ValidationError, match=f"position {position} out of range 1..5"):
            take(position)

    def test_accepts_a_numpy_integer(self, take):
        assert take(np.int64(5)) == take(5)


class TestScalarIntegers:
    """Scalar integer arguments are refused, not truncated, when they are
    not integers; bits follow ``InsertionBatch``'s rule."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: lift_hash(3, 2.5, 1), "inserted rank 2.5 is not an integer"),
            (lambda: lift_hash(3, "2", 1), "inserted rank '2' is not an integer"),
            (lambda: lift_hash(3, 2, 1.0), "bit must be 0 or 1"),
            (lambda: lift_hash(3, 2, "1"), "bit must be 0 or 1"),
            (lambda: SparseBinaryVector(5.7, (1,)), "dimension 5.7 is not an integer"),
            (lambda: SparseBinaryVector("5", (1,)), "dimension '5' is not an integer"),
            (lambda: SupportPack(1, 5.0, [0], [1]), "dimension 5.0 is not an integer"),
            (lambda: SupportPack(1.0, 5, [0], [1]), "point count 1.0 is not an integer"),
            (lambda: PermutationSeed(2.5), "seed 2.5 is not an integer"),
            (lambda: PermutationSeed(1, "5"), "index '5' is not an integer"),
            (lambda: random_permutation(2.5, PermutationSeed(1)), "dimension 2.5 is not an integer"),
            (lambda: random_permutation("5", PermutationSeed(1)), "dimension '5' is not an integer"),
            (lambda: SparseBinaryVector.from_dense([1.0, 0, True]), "dense entries must be 0 or 1"),
            (lambda: SparseBinaryVector.from_dense([0, np.float64(1)]), "dense entries must be 0 or 1"),
            (
                lambda: Corpus(num_docs=1.0, vocab_size=5.0, vectors=(SparseBinaryVector(5),)),
                "num_docs 1.0 is not an integer",
            ),
            (
                lambda: Corpus(num_docs=1, vocab_size=5.0, vectors=(SparseBinaryVector(5),)),
                "vocab_size 5.0 is not an integer",
            ),
            (
                lambda: Corpus(num_docs=1, vocab_size="5", vectors=(SparseBinaryVector(5),)),
                "vocab_size '5' is not an integer",
            ),
            (lambda: sample_corpus(synthetic_corpus(10, 2, 3, 0), 2.5, 0), "sample size 2.5 is not an integer"),
            (lambda: sample_corpus(synthetic_corpus(10, 2, 3, 0), 2, "5"), "seed '5' is not an integer"),
            (
                lambda: minwise_uniformity_test(
                    lambda t: random_permutation(8, PermutationSeed(0, t)), {1.5, 2.7, 4}, 1000
                ),
                "support element 1.5 is not an integer",
            ),
            (
                lambda: minwise_uniformity_test(
                    lambda t: random_permutation(8, PermutationSeed(0, t)), {1, 4}, 1000.0
                ),
                "trials 1000.0 is not an integer",
            ),
            (
                lambda: minwise_uniformity_test(
                    lambda t: random_permutation(8, PermutationSeed(0, t)), {1, 4}, "1000"
                ),
                "trials '1000' is not an integer",
            ),
            (
                lambda: ExperimentConfig("insert", num_perms=2.5, synthetic=(10, 3, 3)),
                "num_perms 2.5 is not an integer",
            ),
            (
                lambda: ExperimentConfig("insert", num_perms=np.float64(4), synthetic=(10, 3, 3)),
                f"num_perms {np.float64(4)!r} is not an integer",
            ),
            (
                lambda: ExperimentConfig("insert", n_features=(2.5,), synthetic=(10, 3, 3)),
                "batch size 2.5 is not an integer",
            ),
            (
                lambda: ExperimentConfig("insert", master_seed="5", synthetic=(10, 3, 3)),
                "master_seed '5' is not an integer",
            ),
            (
                lambda: ExperimentConfig("insert", repetitions=2.5, synthetic=(10, 3, 3)),
                "repetitions 2.5 is not an integer",
            ),
            (
                lambda: ExperimentConfig("insert", threads="5", synthetic=(10, 3, 3)),
                "threads '5' is not an integer",
            ),
            (
                lambda: ExperimentConfig("insert", synthetic=(10.5, 3, 3)),
                "synthetic 10.5 is not an integer",
            ),
            (
                lambda: ExperimentConfig("insert", synthetic=(10, 3, 3), sample_size=2.5),
                "sample_size 2.5 is not an integer",
            ),
            (lambda: synthetic_corpus(20.5, 3, 4, 0), "dimension 20.5 is not an integer"),
            (lambda: synthetic_corpus(20, 3.0, 4, 0), "support size 3.0 is not an integer"),
            (lambda: synthetic_corpus(20, 3, 4.5, 0), "point count 4.5 is not an integer"),
            (lambda: synthetic_corpus(20, 3, 4, "5"), "seed '5' is not an integer"),
            (lambda: draw_deletion_plan(50.0, 8, 0), "dimension 50.0 is not an integer"),
            (lambda: draw_insertion_plan(50, 8.5, 0.5, 0), "batch size 8.5 is not an integer"),
            (lambda: draw_deletion_plan(50, 8, "5"), "seed '5' is not an integer"),
            (lambda: draw_deletion_plan(50, 8, 0).workload(2.5), "batch size 2.5 is not an integer"),
            (lambda: draw_deletion_plan(50, 8, 0).workload("5"), "batch size '5' is not an integer"),
            (lambda: threaded_sketch(2.5), "threads 2.5 is not an integer"),
            (lambda: threaded_sketch("2"), "threads '2' is not an integer"),
        ],
        ids=[
            "float-rank", "str-rank", "float-bit", "str-bit",
            "float-dim", "str-dim", "pack-float-dim", "pack-float-count",
            "seed-float", "seed-str-index", "perm-float-dim", "perm-str-dim",
            "dense-float-bit", "dense-npfloat-bit",
            "corpus-float-docs", "corpus-float-vocab", "corpus-str-vocab",
            "sample-float-n", "sample-str-seed",
            "uniformity-float-set", "uniformity-float-trials", "uniformity-str-trials",
            "config-float-perms", "config-npfloat-perms", "config-float-n", "config-str-seed",
            "config-float-reps", "config-str-threads", "config-float-synthetic",
            "config-float-sample",
            "synthetic-float-dim", "synthetic-float-support", "synthetic-float-points",
            "synthetic-str-seed",
            "plan-float-dim", "plan-float-n", "plan-str-seed",
            "workload-float-n", "workload-str-n",
            "sketch-float-threads", "sketch-str-threads",
        ],
    )
    def test_refuses_a_non_integer(self, call, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: threaded_sketch(0), "threads must be at least 1"),
            (lambda: threaded_sketch(-3), "threads must be at least 1"),
            (lambda: sample_corpus(synthetic_corpus(10, 2, 3, 0), 2, -1), "seed must be non-negative"),
        ],
        ids=["sketch-zero-threads", "sketch-negative-threads", "sample-negative-seed"],
    )
    def test_refuses_an_integer_out_of_range(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: ExperimentConfig("insert", synthetic=(10, 3, 3), insert_one_prob="0.5"),
                "insert_one_prob '0.5' is not a number",
            ),
            (
                lambda: ExperimentConfig("insert", synthetic=(10, 3, 3), insert_one_prob=None),
                "insert_one_prob None is not a number",
            ),
            (lambda: draw_insertion_plan(10, 2, "0.5", 1), "one_prob '0.5' is not a number"),
            (
                lambda: ExperimentConfig("insert", synthetic=(10, 3, 3), n_features=8),
                "n_features must be a sequence of batch sizes",
            ),
            (
                lambda: ExperimentConfig("insert", synthetic=5),
                "synthetic must be a (dim, support size, points) triple",
            ),
            (
                lambda: ExperimentConfig("insert", synthetic=(10, 3)),
                "synthetic must be a (dim, support size, points) triple",
            ),
            (
                lambda: ExperimentConfig("insert", synthetic=(10, 3, 3), paths=3),
                f"paths must be a non-empty subset of {PATHS}",
            ),
        ],
        ids=[
            "config-str-prob", "config-none-prob", "plan-str-prob", "config-int-n-features",
            "config-int-synthetic", "config-pair-synthetic", "config-int-paths",
        ],
    )
    def test_refuses_a_non_number(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()

    def test_probabilities_share_one_rule(self):
        config = ExperimentConfig("insert", synthetic=(10, 3, 3), insert_one_prob=np.float32(0.5))
        assert type(config.insert_one_prob) is float and config.insert_one_prob == 0.5
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValidationError, match=r"^insert_one_prob must lie in \[0, 1\]$"):
                ExperimentConfig("insert", synthetic=(10, 3, 3), insert_one_prob=bad)
            with pytest.raises(ValidationError, match=r"^one_prob must lie in \[0, 1\]$"):
                draw_insertion_plan(10, 2, bad, 1)

    def test_numpy_integers_and_bools_pass(self):
        assert lift_hash(3, np.int64(2), np.int64(1)) == 2
        assert lift_hash(3, np.int64(2), np.bool_(True)) == 2
        assert lift_hash(3, 2, np.bool_(False)) == 4
        assert SparseBinaryVector(np.int64(5), (1,)) == SparseBinaryVector(5, (1,))
        assert SupportPack(np.int64(1), np.int64(5), [0], [1]) == SupportPack(1, 5, [0], [1])
        i64 = np.int64
        assert PermutationSeed(i64(2), i64(3)) == PermutationSeed(2, 3)
        assert random_permutation(i64(9), PermutationSeed(2)) == random_permutation(9, PermutationSeed(2))
        assert SparseBinaryVector.from_dense([i64(1), 0, np.bool_(True)]) == vec(1, 0, 1)
        one = (SparseBinaryVector(5, (2,)),)
        assert Corpus(num_docs=i64(1), vocab_size=i64(5), vectors=one) == Corpus(1, 5, one)
        corpus = synthetic_corpus(10, 2, 5, 0)
        assert sample_corpus(corpus, i64(3), i64(7)) == sample_corpus(corpus, 3, 7)
        perms = lambda t: random_permutation(8, PermutationSeed(0, t))
        assert minwise_uniformity_test(perms, {i64(1), i64(4)}, i64(100)) == minwise_uniformity_test(
            perms, {1, 4}, 100
        )
        config = ExperimentConfig(
            "insert", i64(4), (i64(2),), master_seed=i64(3), repetitions=i64(1), threads=i64(1),
            synthetic=(i64(30), i64(5), i64(8)), sample_size=i64(6),
        )
        assert config == ExperimentConfig(
            "insert", 4, (2,), master_seed=3, repetitions=1, threads=1, synthetic=(30, 5, 8),
            sample_size=6,
        )
        assert type(config.master_seed) is int and run_experiment(config).results
        assert synthetic_corpus(i64(20), i64(3), i64(4), i64(1)) == synthetic_corpus(20, 3, 4, 1)
        plan = draw_insertion_plan(i64(50), i64(8), 0.5, i64(3))
        assert plan == draw_insertion_plan(50, 8, 0.5, 3)
        assert plan.workload(i64(4)) == plan.workload(4)
        assert np.array_equal(threaded_sketch(i64(2)), threaded_sketch(1))
