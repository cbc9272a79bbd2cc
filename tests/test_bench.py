"""Benchmark engine, workload drawing, experiment runner, and report output."""

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from dynsketch.core import (
    DeletionBatch,
    InsertionBatch,
    SparseBinaryVector,
    ValidationError,
)
from dynsketch import estimate
from dynsketch.estimate import jaccard_estimate, jaccard_true, rmse
from dynsketch.permgen import PermutationSeed, random_permutation
from dynsketch.sketch import (
    build_sketch,
    drop_hash,
    lift_hash,
    min_hash,
    row_to_sketch,
    update_sketch_delete,
    update_sketch_insert,
)
from dynsketch.bench import (
    ExperimentConfig,
    emit_report,
    run_experiment,
    synthetic_corpus,
)
from dynsketch.bench import engine
from dynsketch.bench.workload import draw_deletion_plan, draw_insertion_plan

from _reference import pairwise_estimates_loops


def random_points(rng, count, dim):
    points = []
    for _ in range(count):
        size = int(rng.integers(0, dim + 1))
        support = tuple(sorted(int(s) for s in rng.choice(dim, size, replace=False) + 1))
        points.append(SparseBinaryVector(dim, support))
    return points


@pytest.fixture(scope="module")
def small_world():
    rng = np.random.default_rng(77)
    dim = 30
    points = random_points(rng, 12, dim)
    perms = [random_permutation(dim, PermutationSeed(31, j)) for j in range(5)]
    return dim, points, perms


class TestEngineMatchesContracts:
    def test_sketch_matrix_equals_build_sketch(self, small_world):
        _, points, perms = small_world
        pack = engine.pack_supports(points)
        matrix = engine.sketch_matrix(pack, perms)
        for i, point in enumerate(points):
            assert row_to_sketch(matrix[i]) == build_sketch(point, perms)

    def test_batch_insert_matches_per_slot_rule(self, small_world):
        dim, points, perms = small_world
        pack = engine.pack_supports(points)
        matrix = engine.sketch_matrix(pack, perms)
        batch = InsertionBatch((3, 11, 18, 29), (1, 0, 0, 1))
        updated = engine.apply_batch_insert(matrix, perms, batch)
        for i, point in enumerate(points):
            expected = update_sketch_insert(
                row_to_sketch(matrix[i]), perms, batch
            )
            assert row_to_sketch(updated[i]) == expected

    def test_sequential_insert_matches_folded_lift_hash(self, small_world):
        dim, points, perms = small_world
        pack = engine.pack_supports(points)
        matrix = engine.sketch_matrix(pack, perms)
        batch = InsertionBatch((5, 9, 22), (0, 1, 0))
        updated = engine.apply_sequential_insert(matrix, perms, batch)
        from dynsketch.permgen import lift_perm

        for i in range(len(points)):
            for j, perm in enumerate(perms):
                h = row_to_sketch(matrix[i]).values[j]
                current = perm
                for step, (m, b) in enumerate(zip(batch.positions, batch.bits)):
                    slot = m + step
                    h = lift_hash(h, current.value_at(slot), b)
                    current = lift_perm(current, slot)
                assert row_to_sketch(updated[i]).values[j] == h

    def test_batch_delete_matches_per_slot_rule(self, small_world):
        dim, points, perms = small_world
        pack = engine.pack_supports(points)
        matrix = engine.sketch_matrix(pack, perms)
        batch = DeletionBatch((2, 7, 15, 28))
        updated = engine.apply_batch_delete(matrix, pack, perms, batch)
        for i, point in enumerate(points):
            expected = update_sketch_delete(
                row_to_sketch(matrix[i]), perms, point, batch
            )
            assert row_to_sketch(updated[i]) == expected

    def test_sequential_delete_matches_folded_drop_hash(self, small_world):
        dim, points, perms = small_world
        pack = engine.pack_supports(points)
        matrix = engine.sketch_matrix(pack, perms)
        batch = DeletionBatch((4, 13, 26))
        updated = engine.apply_sequential_delete(matrix, pack, perms, batch)
        from dynsketch.core import delete_features
        from dynsketch.permgen import drop_perm

        for i, point in enumerate(points):
            for j, perm in enumerate(perms):
                h = row_to_sketch(matrix[i]).values[j]
                current_perm, current_vec = perm, point
                for step, m in enumerate(batch.positions):
                    slot = m - step
                    h = drop_hash(h, current_vec, current_perm, slot)
                    current_perm = drop_perm(current_perm, slot)
                    current_vec = delete_features(current_vec, DeletionBatch((slot,)))
                assert row_to_sketch(updated[i]).values[j] == h

    def test_pairwise_truth_matches_jaccard_true(self, small_world):
        _, points, _ = small_world
        pack = engine.pack_supports(points)
        truth, both_empty = engine.pairwise_true_jaccard(pack)
        k = 0
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                assert truth[k] == jaccard_true(points[i], points[j])
                assert both_empty[k] == (not points[i].support and not points[j].support)
                k += 1

    def test_pairwise_estimates_match_jaccard_estimate(self, small_world):
        _, points, perms = small_world
        pack = engine.pack_supports(points)
        matrix = engine.sketch_matrix(pack, perms)
        est = engine.pairwise_estimates(matrix)
        k = 0
        for i in range(len(points)):
            ski = row_to_sketch(matrix[i])
            for j in range(i + 1, len(points)):
                skj = row_to_sketch(matrix[j])
                assert est[k] == jaccard_estimate(ski, skj).estimated_jaccard
                k += 1

    def test_rmse_condensed_matches_rmse(self, small_world):
        _, points, perms = small_world
        pack = engine.pack_supports(points)
        matrix = engine.sketch_matrix(pack, perms)
        truth, both_empty = engine.pairwise_true_jaccard(pack)
        est = engine.pairwise_estimates(matrix)
        include = ~both_empty
        pairs = []
        k = 0
        for i in range(len(points)):
            ski = row_to_sketch(matrix[i])
            for j in range(i + 1, len(points)):
                if include[k]:
                    pairs.append(jaccard_estimate(
                        ski, row_to_sketch(matrix[j]),
                        true_jaccard=jaccard_true(points[i], points[j]),
                    ))
                k += 1
        assert engine.rmse_condensed(est, truth, include) == rmse(pairs)


class TestPairwiseEstimatesExact:
    """The grouped collision count equals the per-pair loop bit for bit."""

    @staticmethod
    def check(h):
        h = np.asarray(h, dtype=np.int64)
        p = h.shape[0]
        est = engine.pairwise_estimates(h)
        assert est.dtype == np.float64
        assert est.shape == (p * (p - 1) // 2,)
        expected = np.array(pairwise_estimates_loops(h.tolist()), dtype=np.float64)
        assert np.array_equal(est, expected.reshape(est.shape))

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_few_rows(self, p):
        self.check(np.arange(1, 3 * p + 1).reshape(p, 3) % 2 + 1)

    def test_all_zero_rows(self):
        self.check(np.zeros((4, 5)))
        self.check([[0, 0, 0], [1, 2, 3], [0, 0, 0], [1, 5, 3]])

    def test_partly_zero_rows(self):
        self.check([[0, 2, 3, 0], [1, 2, 0, 0], [0, 2, 3, 4], [1, 0, 0, 0]])

    def test_value_shared_by_adjacent_columns(self):
        # Column 0's largest value is column 1's smallest: equal values in
        # different columns must not collide.
        self.check([[1, 1, 2], [1, 2, 2]])
        self.check([[0, 0, 5], [0, 3, 5], [4, 0, 0]])

    @given(
        st.integers(0, 24).flatmap(
            lambda p: st.integers(1, 9).flatmap(
                lambda k: st.lists(
                    st.lists(st.integers(0, 3), min_size=k, max_size=k),
                    min_size=p,
                    max_size=p,
                ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(p, k))
            )
        ),
        st.integers(1, 40),
        st.integers(2, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_heavy_collisions_across_row_blocks(self, h, block_entries, divisor):
        # Divisor 1 enumerates every group short of a whole column and a huge
        # divisor sends every group of two or more rows to the dense product,
        # so each example runs both paths, then a mix of them; small blocks
        # make every example cross chunk and row-block boundaries.
        for split_divisor in (1, 1 << 30, divisor):
            with mock.patch.multiple(
                estimate, _BLOCK_ENTRIES=block_entries, _SPLIT_DIVISOR=split_divisor
            ):
                assert h.shape[0] < 3 or len(list(estimate._row_blocks(h.shape[0]))) >= 2
                self.check(h)

    def test_stream_shaped_matrix_across_default_row_blocks(self):
        # The shape of perfbench's stream-mixed store: P = 500 points and
        # K = 32 columns, in each of which a few values fill groups of 31 or
        # more rows (P // 16, the dense product's split), the rest of the
        # rows spread thin, and 40 EMPTY rows form a zero group the dense
        # product counts too. At the default constants the dense product
        # crosses row blocks.
        rng = np.random.default_rng(27)
        p, k = 500, 32
        h = rng.integers(1, 5000, size=(p, k), dtype=np.int32)
        for c in range(k):
            for value, size in enumerate(rng.integers(31, 200, size=3), start=1):
                h[rng.choice(p, size=size, replace=False), c] = value
        h[rng.choice(p, size=40, replace=False)] = 0
        split = p // estimate._SPLIT_DIVISOR
        assert all(np.unique(col, return_counts=True)[1].max() >= split for col in h.T)
        assert len(list(estimate._row_blocks(p))) >= 2
        self.check(h)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_value_in_most_rows(self, seed):
        # The shape of a long insert/delete stream: in every column one value
        # fills at least 90% of the rows, and EMPTY rows form a zero group big
        # enough for the dense product (P // 16 = 6 rows here).
        rng = np.random.default_rng(seed)
        p, k = 96, 8
        h = np.tile(rng.integers(1, 50, size=k), (p, 1))
        rows = rng.permutation(p)
        h[rows[:6]] = 0
        h[rows[6:9]] = rng.integers(0, 50, size=(3, k))
        assert ((h == h[rows[-1]]).mean(axis=0) >= 0.9).all()
        self.check(h)


def true_jaccard_dense(pack):
    """Condensed exact Jaccard from the full P x P intersection product."""
    p = pack.count
    if pack.flat.size:
        indptr = np.concatenate([[0], np.cumsum(pack.lengths)])
        mat = sparse.csr_matrix(
            (np.ones(pack.flat.size, dtype=np.int64), pack.flat, indptr), shape=(p, pack.dim)
        )
        inter = np.asarray((mat @ mat.T).todense(), dtype=np.int64)
    else:
        inter = np.zeros((p, p), dtype=np.int64)
    sizes = pack.lengths
    union = sizes[:, None] + sizes[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    rows, cols = np.triu_indices(p, k=1)
    return jac[rows, cols], (sizes[rows] == 0) & (sizes[cols] == 0)


class TestPairwiseTrueJaccardChunks:
    """The row-blocked truth equals the dense P x P computation bit for bit."""

    @given(
        st.integers(1, 12).flatmap(
            lambda dim: st.lists(
                st.sets(st.integers(1, dim)).map(
                    lambda s: SparseBinaryVector(dim, tuple(sorted(s)))
                ),
                min_size=1,
                max_size=20,
            )
        ),
        st.integers(1, 40),
        st.sampled_from([1, 4, 1 << 30]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_product(self, points, block_entries, split_divisor):
        pack = engine.pack_supports(points)
        expected, expected_empty = true_jaccard_dense(pack)
        with mock.patch.multiple(
            estimate, _BLOCK_ENTRIES=block_entries, _SPLIT_DIVISOR=split_divisor
        ):
            assert pack.count < 3 or len(list(estimate._row_blocks(pack.count))) >= 2
            truth, both_empty = engine.pairwise_true_jaccard(pack)
        assert truth.dtype == np.float64 and both_empty.dtype == bool
        assert np.array_equal(truth, expected)
        assert np.array_equal(both_empty, expected_empty)

    def test_synthetic_corpus_with_default_blocks(self):
        corpus = synthetic_corpus(3000, 40, 300, seed=5)
        # Feature 1 in every other point is a group for the dense product.
        points = [
            SparseBinaryVector(3000, tuple(sorted({1, *v.support})) if i % 2 else v.support)
            for i, v in enumerate(corpus.vectors)
        ]
        points[7] = SparseBinaryVector(3000, ())
        points[100] = SparseBinaryVector(3000, ())
        pack = engine.pack_supports(points)
        truth, both_empty = engine.pairwise_true_jaccard(pack)
        expected, expected_empty = true_jaccard_dense(pack)
        assert np.array_equal(truth, expected)
        assert np.array_equal(both_empty, expected_empty)
        assert both_empty.sum() == 1


class TestWorkloads:
    def test_insertion_plan_is_deterministic(self):
        a = draw_insertion_plan(50, 10, 0.3, seed=4)
        b = draw_insertion_plan(50, 10, 0.3, seed=4)
        assert a == b

    def test_prefix_nesting(self):
        plan = draw_insertion_plan(200, 32, 0.1, seed=9)
        small = plan.workload(8).batch
        big = plan.workload(32).batch
        pairs_small = set(zip(small.positions, small.bits))
        pairs_big = set(zip(big.positions, big.bits))
        assert pairs_small <= pairs_big

    def test_checksum_tracks_content(self):
        plan = draw_insertion_plan(50, 4, 0.5, seed=4)
        other = draw_insertion_plan(50, 4, 0.5, seed=5)
        assert plan.workload(4).checksum != other.workload(4).checksum
        assert plan.workload(4).checksum == plan.workload(4).checksum

    def test_deletion_plan_positions_distinct(self):
        plan = draw_deletion_plan(40, 40, seed=2)
        batch = plan.workload(40).batch
        assert len(set(batch.positions)) == 40

    def test_invalid_draws_rejected(self):
        with pytest.raises(ValidationError):
            draw_insertion_plan(10, 11, 0.1, seed=1)
        with pytest.raises(ValidationError):
            draw_insertion_plan(10, 2, 1.5, seed=1)


class TestSyntheticCorpus:
    def test_shape_and_determinism(self):
        a = synthetic_corpus(40, 6, 9, seed=3)
        b = synthetic_corpus(40, 6, 9, seed=3)
        assert a == b
        assert a.num_docs == 9
        assert all(len(v.support) == 6 and v.dim == 40 for v in a.vectors)

    def test_validation(self):
        with pytest.raises(ValidationError):
            synthetic_corpus(10, 11, 5, seed=1)
        with pytest.raises(ValidationError):
            synthetic_corpus(0, 0, 5, seed=1)


def tiny_config(mode, **overrides):
    base = dict(
        mode=mode,
        num_perms=12,
        n_features=(4,),
        insert_one_prob=0.25,
        master_seed=6,
        synthetic=(60, 9, 15),
        repetitions=2,
        scratch_perms="lineage",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentRunner:
    def test_insert_lineage_paths_are_slot_identical(self):
        report = run_experiment(tiny_config("insert"))
        digests = {r.path: r.sketch_digest for r in report.results}
        assert digests["sequential"] == digests["batch"] == digests["scratch"]
        rmses = {r.path: r.rmse for r in report.results}
        assert rmses["batch"] == rmses["scratch"] == rmses["sequential"]

    def test_delete_lineage_paths_are_slot_identical(self):
        report = run_experiment(tiny_config("delete"))
        digests = {r.path: r.sketch_digest for r in report.results}
        assert digests["sequential"] == digests["batch"] == digests["scratch"]

    def test_single_feature_batch_equals_sequential(self):
        report = run_experiment(
            tiny_config("insert", n_features=(1,), paths=("sequential", "batch"))
        )
        digests = {r.path: r.sketch_digest for r in report.results}
        assert digests["sequential"] == digests["batch"]

    def test_delete_down_to_one_dimension(self):
        config = tiny_config(
            "delete", synthetic=(10, 3, 8), n_features=(9,), num_perms=6
        )
        report = run_experiment(config)
        digests = {r.path: r.sketch_digest for r in report.results}
        assert digests["sequential"] == digests["batch"] == digests["scratch"]

    def test_delete_every_feature_under_lineage(self):
        # Every path's sketch is all EMPTY, and no pair is left to score.
        report = run_experiment(tiny_config("delete", synthetic=(12, 3, 6), n_features=(12,)))
        empty = engine.sketch_digest(np.zeros((6, 12), dtype=np.int64))
        digests = {r.path: r.sketch_digest for r in report.results}
        assert digests == dict.fromkeys(("sequential", "batch", "scratch"), empty)
        assert all(math.isnan(r.rmse_post) for r in report.results)

    def test_one_workload_checksum_per_batch_size(self):
        report = run_experiment(tiny_config("insert", n_features=(2, 4)))
        assert set(report.workload_checksums) == {2, 4}

    def test_fresh_scratch_populates_speedups(self):
        report = run_experiment(
            tiny_config("insert", scratch_perms="fresh")
        )
        for row in report.results:
            assert row.speedup is not None
            assert row.speedup_max >= row.speedup_mean * 0.5
            assert len(row.times) == 2
        scratch = [r for r in report.results if r.path == "scratch"][0]
        assert scratch.speedup == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", ["insert", "delete"])
    def test_each_path_is_timed_back_to_back(self, mode, monkeypatch):
        calls = []

        def logged(name, path, size):
            fn = getattr(engine, name)

            def wrapper(*args, **kwargs):
                calls.append((path, size(*args)))
                return fn(*args, **kwargs)

            monkeypatch.setattr(engine, name, wrapper)

        batch_size = lambda *args: len(args[-1])
        logged(f"apply_sequential_{mode}", "sequential", batch_size)
        logged(f"apply_batch_{mode}", "batch", batch_size)
        # The base sketch is the first sketch_matrix call, at the corpus
        # dimension; every later one is the scratch path, at the edited one.
        logged("sketch_matrix", "scratch", lambda pack, *_: pack.dim)
        logged("pairwise_true_jaccard", "estimate", lambda *_: None)
        logged("pairwise_estimates", "estimate", lambda *_: None)
        config = tiny_config(mode, n_features=(2, 4), repetitions=3)
        report = run_experiment(config)
        dim = config.synthetic[0]
        step = 1 if mode == "insert" else -1
        sizes = {
            "sequential": list(config.n_features),
            "batch": list(config.n_features),
            "scratch": [dim + step * n for n in config.n_features],
        }
        # Each path's calls are contiguous: one warm-up per batch size, then
        # rounds that take the sizes in turn.
        expected = [("scratch", dim)]
        for path in ("sequential", "batch", "scratch"):
            expected += [(path, size) for size in sizes[path]] * (1 + config.repetitions)
        # Estimation runs only after every timed call.
        assert calls[: len(expected)] == expected
        assert set(calls[len(expected) :]) == {("estimate", None)}
        assert len(report.results) == 6
        assert all(len(row.times) == config.repetitions for row in report.results)

    def test_sweep_produces_per_n_rows(self):
        report = run_experiment(
            tiny_config("insert", n_features=(2, 4), paths=("batch",))
        )
        assert [(r.path, r.n) for r in report.results] == [("batch", 2), ("batch", 4)]

    def test_unknown_mode_refused_when_the_config_is_built(self):
        with pytest.raises(ValidationError, match="mode must be one of"):
            tiny_config("upsert")

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            tiny_config("insert", paths=("warp",))
        with pytest.raises(ValidationError):
            tiny_config("insert", synthetic=None)
        with pytest.raises(ValidationError):
            tiny_config("insert", repetitions=0)
        with pytest.raises(ValidationError):
            tiny_config("insert", insert_one_prob=1.5)
        config = tiny_config("insert", n_features=(4, 2, 4), paths=("batch", "batch"))
        assert (config.n_features, config.paths) == ((2, 4), ("batch",))


# Every path of the insert and delete experiments at the ROADMAP configuration
# (--synthetic 20000,50,300 --num-perms 32 --n 8,64 --seed 3 --reps 1
# --scratch-perms lineage): (mode, n) -> (sketch_digest, rmse, rmse_post),
# which all three paths share.
PINNED_EXPERIMENTS = {
    ("insert", 8): ("0a62093279319ce1b78ac973292eae4d", 0.006137843985548897, 0.006137843985548897),
    ("insert", 64): ("7c75c16b9723b73114d7570c94160f86", 0.0419673715323418, 0.034727644873551435),
    ("delete", 8): ("e9959fbc0204a6145333ec94caf2aca3", 0.006126311288954075, 0.006125485929185223),
    ("delete", 64): ("470c7008c47bb772bc5db68050f9ca2b", 0.006121696306250173, 0.006114688144159887),
}


class TestPinnedExperiments:
    """A change to storage or kernels must leave every sketch slot-identical."""

    @pytest.mark.parametrize("mode", ["insert", "delete"])
    def test_digests_and_errors_are_pinned(self, mode):
        config = ExperimentConfig(
            mode=mode,
            num_perms=32,
            n_features=(8, 64),
            master_seed=3,
            repetitions=1,
            synthetic=(20000, 50, 300),
            scratch_perms="lineage",
        )
        results = run_experiment(config).results
        assert [(r.path, r.n) for r in results] == [
            (path, n) for n in (8, 64) for path in ("sequential", "batch", "scratch")
        ]
        for r in results:
            digest, rmse_pre, rmse_post = PINNED_EXPERIMENTS[mode, r.n]
            assert r.sketch_digest == digest
            assert r.rmse == pytest.approx(rmse_pre, rel=1e-12, abs=0)
            assert r.rmse_post == pytest.approx(rmse_post, rel=1e-12, abs=0)


@pytest.fixture(scope="module")
def report():
    return run_experiment(tiny_config("insert", scratch_perms="fresh"))


class TestEmitReport:

    def test_csv_header_is_stable(self, report):
        text = emit_report(report, "csv")
        header = text.splitlines()[0]
        assert header == "path,n,K,rmse,seconds,speedup,rmse_post,speedup_max,speedup_mean"

    def test_csv_round_trips_through_reader(self, report):
        rows = list(csv.reader(io.StringIO(emit_report(report, "csv"))))
        assert len(rows) == 1 + len(report.results)
        for row in rows[1:]:
            assert row[0] in ("sequential", "batch", "scratch")
            assert not math.isnan(float(row[3]))
            assert float(row[4]) > 0

    def test_human_format_contains_the_same_numbers(self, report):
        human = emit_report(report, "human")
        for row in report.results:
            assert format(row.rmse, ".9g") in human
            assert format(row.seconds, ".9g") in human
        assert "workload[n=4]" in human

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ValidationError):
            emit_report(report, "yaml")
