"""Jaccard estimation, RMSE, and the minwise-uniformity check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynsketch import estimate
from dynsketch.bench.engine import sketch_digest
from dynsketch.core import (
    EMPTY,
    DeletionBatch,
    Permutation,
    Sketch,
    SparseBinaryVector,
    SupportPack,
    ValidationError,
    delete_features,
)
from dynsketch.estimate import (
    PairEstimate,
    jaccard_estimate,
    jaccard_true,
    minwise_uniformity_test,
    pairwise_estimates,
    pairwise_true_jaccard,
    rmse,
)
from dynsketch.permgen import PermutationSeed, random_permutation

from _reference import pairwise_estimates_loops, slot_counts_loops


class TestJaccardTrue:
    def test_identical_nonempty(self):
        v = SparseBinaryVector(6, (1, 3))
        assert jaccard_true(v, v) == 1.0

    def test_disjoint(self):
        a = SparseBinaryVector(6, (1, 2))
        b = SparseBinaryVector(6, (3, 4))
        assert jaccard_true(a, b) == 0.0

    def test_partial_overlap(self):
        a = SparseBinaryVector(8, (1, 4, 6))
        b = SparseBinaryVector(8, (1, 6, 7))
        assert jaccard_true(a, b) == 0.5

    def test_both_empty_defined_as_zero(self):
        assert jaccard_true(SparseBinaryVector(4), SparseBinaryVector(4)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            jaccard_true(SparseBinaryVector(4), SparseBinaryVector(5))


class TestJaccardEstimate:
    def test_identical_sketches(self):
        sk = Sketch((5, 3, 7))
        assert jaccard_estimate(sk, sk).estimated_jaccard == 1.0

    def test_all_slots_differ(self):
        assert jaccard_estimate(Sketch((1, 2)), Sketch((3, 4))).estimated_jaccard == 0.0

    def test_half_collisions(self):
        est = jaccard_estimate(Sketch((5, 3, 7, 2)), Sketch((5, 1, 7, 9)))
        assert est.estimated_jaccard == 0.5
        assert est.collisions == 2
        assert est.comparable_slots == 4

    def test_both_empty_slots_excluded(self):
        est = jaccard_estimate(Sketch((EMPTY, 4)), Sketch((EMPTY, 4)))
        assert est.comparable_slots == 1
        assert est.estimated_jaccard == 1.0

    def test_single_empty_slot_counts_as_miss(self):
        est = jaccard_estimate(Sketch((EMPTY, 4)), Sketch((2, 4)))
        assert est.comparable_slots == 2
        assert est.estimated_jaccard == 0.5

    def test_no_comparable_slots(self):
        est = jaccard_estimate(Sketch((EMPTY,)), Sketch((EMPTY,)))
        assert est.comparable_slots == 0
        assert est.estimated_jaccard == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            jaccard_estimate(Sketch((1,)), Sketch((1, 2)))

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=12),
           st.lists(st.integers(1, 9), min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_symmetry(self, a, b):
        size = min(len(a), len(b))
        sa, sb = Sketch(tuple(a[:size])), Sketch(tuple(b[:size]))
        assert jaccard_estimate(sa, sb).estimated_jaccard == \
            jaccard_estimate(sb, sa).estimated_jaccard


@st.composite
def rows_and_supports(draw):
    """Two hash rows over 0..4 (0 for EMPTY) and two supports of one dimension."""
    k = draw(st.integers(1, 12))
    rows = [draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)) for _ in range(2)]
    dim = draw(st.integers(1, 10))
    supports = [draw(st.sets(st.integers(1, dim))) for _ in range(2)]
    return rows, dim, supports


class TestOnePairPathsMatchReferences:
    @given(rows_and_supports())
    @settings(max_examples=200)
    def test_counts_rows_and_lazy_supports(self, case):
        (a, b), dim, supports = case
        sa, sb = (Sketch(tuple(EMPTY if v == 0 else v for v in r)) for r in (a, b))
        for sk, r in ((sa, a), (sb, b)):
            assert sk.row.dtype == np.int32 and sk.row.tolist() == r
            assert not sk.row.flags.writeable
        est = jaccard_estimate(sa, sb)
        assert (est.collisions, est.comparable_slots) == slot_counts_loops(a, b)
        assert type(est.collisions) is int and type(est.comparable_slots) is int
        assert est.estimated_jaccard == pairwise_estimates_loops([a, b])[0]
        # Deleting one appended slot builds each vector through the edits;
        # a vector holds only its support array, never a tuple.
        x, y = (
            delete_features(SparseBinaryVector(dim + 1, tuple(sorted(s))), DeletionBatch((dim + 1,)))
            for s in supports
        )
        union = len(supports[0] | supports[1])
        expected = len(supports[0] & supports[1]) / union if union else 0.0
        assert jaccard_true(x, y) == expected
        assert "support" not in x.__dict__ and "support" not in y.__dict__


class TestEstimatesAreDtypeBlind:
    """The kernels hand over int32 matrices and perfbench stacks int64 rows:
    both widths of one matrix give the same estimates and digest."""

    @pytest.mark.parametrize(
        "values, empty_share",
        [(3, 0.0), (3, 0.3), (50, 0.5)],
        ids=["large-groups", "large-groups-and-empty", "small-groups-and-empty"],
    )
    def test_int32_and_int64_matrices_agree_bit_for_bit(self, values, empty_share):
        rng = np.random.default_rng(values)
        p, k = 96, 12
        h = rng.integers(1, values + 1, size=(p, k)).astype(np.int32)
        h[rng.random((p, k)) < empty_share] = 0
        if values == 3:
            # Some (column, value) groups are large enough for the dense product.
            largest = max(np.unique(col, return_counts=True)[1].max() for col in h.T)
            assert largest >= p // estimate._SPLIT_DIVISOR
        assert (h == 0).any() == (empty_share > 0)
        wide = h.astype(np.int64)
        assert pairwise_estimates(h).tobytes() == pairwise_estimates(wide).tobytes()
        assert sketch_digest(h) == sketch_digest(wide)


class TestFewerThanTwoPoints:
    """No pair: the all-pairs truth and estimates are empty condensed arrays."""

    @pytest.mark.parametrize("p", [0, 1])
    def test_truth_and_estimates_are_empty(self, p):
        jac, both_empty = pairwise_true_jaccard(SupportPack(p, 5, [2] * p, [1] * p))
        assert jac.dtype == np.float64 and both_empty.dtype == bool
        assert jac.shape == both_empty.shape == (0,)
        est = pairwise_estimates(np.ones((p, 4), dtype=np.int32))
        assert est.dtype == np.float64 and est.shape == (0,)


class TestRmse:
    def test_exact_estimates_give_zero(self):
        pairs = [PairEstimate(0.4, 0.4, 2, 5), PairEstimate(0.8, 0.8, 4, 5)]
        assert rmse(pairs) == 0.0

    def test_single_pair(self):
        assert rmse([PairEstimate(0.5, 0.6, 3, 5)]) == pytest.approx(0.1)

    def test_two_pair_formula(self):
        pairs = [PairEstimate(0.5, 0.6, 0, 1), PairEstimate(0.2, 0.5, 0, 1)]
        assert rmse(pairs) == pytest.approx(math.sqrt(0.05))

    def test_order_invariant(self):
        pairs = [PairEstimate(0.1, 0.3, 0, 1), PairEstimate(0.9, 0.8, 0, 1)]
        assert rmse(pairs) == rmse(list(reversed(pairs)))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rmse([])


class TestUniformity:
    def test_trivial_set_rejected(self):
        with pytest.raises(ValidationError):
            minwise_uniformity_test(lambda t: Permutation([1, 2]), (1,), 100)

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValidationError):
            minwise_uniformity_test(lambda t: Permutation([1, 2, 3]), (1, 2), 39)

    def test_constant_source_flags_maximal_deviation(self):
        perm = Permutation([4, 1, 3, 2, 5])
        result = minwise_uniformity_test(lambda t: perm, (1, 2, 3, 4), 200)
        assert result.max_deviation == pytest.approx(1 - 1 / 4)

    def test_random_source_is_uniform(self):
        source = lambda t: random_permutation(32, PermutationSeed(905, t))
        result = minwise_uniformity_test(source, (2, 9, 15, 23, 30), 200_000)
        assert result.max_deviation <= 0.01
        assert sum(result.frequencies.values()) == pytest.approx(1.0)
