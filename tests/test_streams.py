"""Mixed insert/delete streams: the batch rules stay exact step after step.

Each step updates the hash matrix with ``lift_hash_matrix`` or
``drop_hash_matrix``, carries the permutations with ``multiple_lift_perm`` or
``multiple_drop_perm``, and edits the points with ``insert_features`` or
``delete_features``. After every step the matrix must equal re-sketching the
edited points under the carried permutations, slot for slot; every edited
point, the pack and every carried permutation, built by the trusted
builders, must equal its rebuild through the checked constructor, with
read-only arrays; and the all-pairs estimates must equal the loop oracle's
bit for bit. Seeded streams
run fixed scenarios; ``MixedStream`` lets hypothesis choose the batches, and
runs once under each of the kernels' count back-ends. The permutations a
stream carries must also stay minwise uniform, which one test measures over
many independently seeded lineages. ``MixedStream`` runs once more with the
delete kernel's rescan cut into chunks of one hit.
"""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from dynsketch.core import (
    DeletionBatch,
    InsertionBatch,
    Permutation,
    SparseBinaryVector,
    SupportPack,
    delete_features,
    insert_features,
    pack_supports,
)
from dynsketch.estimate import minwise_uniformity_test, pairwise_estimates
from dynsketch.permgen import (
    PermutationSeed,
    multiple_drop_perm,
    multiple_lift_perm,
    random_permutation,
)
from dynsketch.sketch import drop_hash_matrix, lift_hash_matrix, min_hash_matrix

from _back_ends import BACK_ENDS, count_back_end, rescan_budget
from _reference import pairwise_estimates_loops

# Criterion 5's tolerance for lifted permutations (tests/test_acceptance.py).
LIFT_UNIFORMITY_TOLERANCE = 0.02


class Stream:
    """Points, their carried permutations and hash matrix, checked after
    every batch."""

    def __init__(self, points, num_perms, seed=0):
        dim = points[0].dim
        self.points = list(points)
        self.perms = [random_permutation(dim, PermutationSeed(seed, j)) for j in range(num_perms)]
        self.h = min_hash_matrix(self.perms, pack_supports(self.points))

    @property
    def dim(self) -> int:
        return self.points[0].dim

    def insert(self, batch: InsertionBatch) -> None:
        self.h = lift_hash_matrix(self.h, self.perms, batch)
        self.perms = [multiple_lift_perm(p, batch.positions) for p in self.perms]
        self.points = [insert_features(v, batch) for v in self.points]
        self.check()

    def delete(self, batch: DeletionBatch) -> None:
        self.h = drop_hash_matrix(self.h, self.perms, batch, pack_supports(self.points))
        self.perms = [multiple_drop_perm(p, batch.positions) for p in self.perms]
        self.points = [delete_features(v, batch) for v in self.points]
        self.check()

    def check(self) -> None:
        pack = pack_supports(self.points)
        assert self.h.dtype == np.int32
        assert np.array_equal(self.h, min_hash_matrix(self.perms, pack))
        rebuilt = [SparseBinaryVector(v.dim, v.support) for v in self.points]
        rebuilt.append(SupportPack(pack.count, pack.dim, pack.flat, pack.lengths))
        rebuilt += [Permutation(p.rank) for p in self.perms]
        for trusted, checked in zip([*self.points, pack, *self.perms], rebuilt, strict=True):
            assert trusted == checked
            assert_read_only(trusted)
            assert_read_only(checked)
        loops = np.array(pairwise_estimates_loops(self.h.tolist()), dtype=np.float64)
        assert pairwise_estimates(self.h).tobytes() == loops.tobytes()


def assert_read_only(value) -> None:
    arrays = [a for a in vars(value).values() if isinstance(a, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)


def random_points(rng, count, dim, density):
    return [
        SparseBinaryVector(dim, tuple(int(p) for p in np.flatnonzero(rng.random(dim) < density) + 1))
        for _ in range(count)
    ]


def random_positions(rng, dim, n):
    return tuple(sorted(int(p) for p in rng.choice(dim, size=n, replace=False) + 1))


def random_insert(rng, dim, max_n=6, one_prob=0.3):
    n = int(rng.integers(1, min(max_n, dim) + 1))
    bits = tuple(int(b) for b in rng.random(n) < one_prob)
    return InsertionBatch(random_positions(rng, dim, n), bits)


def random_delete(rng, dim, max_n=6):
    n = int(rng.integers(1, min(max_n, dim - 1) + 1))
    return DeletionBatch(random_positions(rng, dim, n))


def run_alternating(stream, rng, steps):
    for step in range(steps):
        if step % 2 == 0 or stream.dim == 1:
            stream.insert(random_insert(rng, stream.dim))
        else:
            stream.delete(random_delete(rng, stream.dim))


@pytest.mark.parametrize("num_perms", [8, 1], ids=["K=8", "K=1"])
def test_seeded_stream_of_200_steps(num_perms):
    rng = np.random.default_rng(2024)
    stream = Stream(random_points(rng, 10, 40, 0.2), num_perms, seed=13)
    stream.check()
    run_alternating(stream, rng, 200)


def test_stream_that_deletes_down_to_dimension_one():
    rng = np.random.default_rng(7)
    stream = Stream(random_points(rng, 6, 20, 0.3), 5, seed=3)
    while stream.dim > 1:
        stream.insert(random_insert(rng, stream.dim, max_n=1))
        stream.delete(DeletionBatch(random_positions(rng, stream.dim, min(4, stream.dim - 1))))
    assert all(p.dim == 1 for p in stream.perms)
    # And back up from a single feature.
    run_alternating(stream, rng, 20)


def test_rows_that_start_all_empty():
    rng = np.random.default_rng(11)
    points = [SparseBinaryVector(15, ()) for _ in range(4)] + random_points(rng, 2, 15, 0.3)
    stream = Stream(points, 6, seed=5)
    assert not stream.h[:4].any()
    run_alternating(stream, rng, 60)


def test_delete_batch_that_removes_every_support_bit_of_a_row():
    rng = np.random.default_rng(19)
    target = SparseBinaryVector(30, (3, 9, 17, 26))
    stream = Stream([target] + random_points(rng, 5, 30, 0.3), 7, seed=9)
    stream.insert(InsertionBatch((1, 12), (0, 0)))
    # Positions 3, 9, 17 and 26 moved right past 1 and, from 12 on, past 12.
    support = stream.points[0].support
    assert support == (4, 10, 19, 28)
    stream.delete(DeletionBatch(tuple(sorted(support + (2,)))))
    assert stream.points[0].support == () and not stream.h[0].any()
    run_alternating(stream, rng, 20)


def test_carried_lineage_stays_minwise_uniform():
    # Criterion 5 checks one lift or one drop. Here each trial carries its own
    # permutation through five alternating batches of four random positions,
    # as a stream does, and the minimum over a fixed set of the final frame
    # must still land on each element about equally often.
    def carried(t):
        rng = np.random.default_rng((1006, t))
        perm = random_permutation(64, PermutationSeed(8, t))
        for step in range(5):
            carry = multiple_lift_perm if step % 2 == 0 else multiple_drop_perm
            perm = carry(perm, random_positions(rng, perm.dim, 4))
        return perm

    assert carried(0).dim == 68
    result = minwise_uniformity_test(carried, (2, 15, 31, 50, 67), 5000)
    assert result.max_deviation <= LIFT_UNIFORMITY_TOLERANCE, result.frequencies


def positions_of(data, dim, max_size):
    chosen = data.draw(st.sets(st.integers(1, dim), min_size=1, max_size=max_size))
    return tuple(sorted(chosen))


class MixedStream(RuleBasedStateMachine):
    """Hypothesis-chosen mixes of insertion and deletion batches on a few
    points, permutations and features; the dimension never drops below 1.
    ``Stream`` checks the matrix against re-sketching after every batch."""

    @initialize(data=st.data())
    def start(self, data):
        dim = data.draw(st.integers(1, 8), label="dim")
        points = [
            SparseBinaryVector(dim, tuple(sorted(data.draw(st.sets(st.integers(1, dim))))))
            for _ in range(data.draw(st.integers(1, 4), label="points"))
        ]
        num_perms = data.draw(st.integers(1, 4), label="num_perms")
        self.stream = Stream(points, num_perms, seed=data.draw(st.integers(0, 99), label="seed"))

    @rule(data=st.data())
    def insert(self, data):
        positions = positions_of(data, self.stream.dim, 4)
        bits = data.draw(st.lists(st.integers(0, 1), min_size=len(positions), max_size=len(positions)))
        self.stream.insert(InsertionBatch(positions, tuple(bits)))

    @rule(data=st.data())
    def insert_all_ones(self, data):
        positions = positions_of(data, self.stream.dim, 4)
        self.stream.insert(InsertionBatch(positions, (1,) * len(positions)))

    @precondition(lambda self: self.stream.dim > 1)
    @rule(data=st.data())
    def delete(self, data):
        self.stream.delete(DeletionBatch(positions_of(data, self.stream.dim, self.stream.dim - 1)))

    def used_positions(self):
        return set().union(*(p.support for p in self.stream.points))

    @precondition(lambda self: 0 < len(self.used_positions()) < self.stream.dim)
    @rule()
    def delete_every_used_position(self):
        self.stream.delete(DeletionBatch(tuple(sorted(self.used_positions()))))
        assert not self.stream.h.any()


MIXED_STREAM_SETTINGS = settings(max_examples=60, stateful_step_count=12, deadline=None)


@pytest.mark.parametrize("back_end", BACK_ENDS)
def test_mixed_stream(back_end):
    with count_back_end(back_end):
        run_state_machine_as_test(MixedStream, settings=MIXED_STREAM_SETTINGS)


@pytest.mark.parametrize("back_end", BACK_ENDS)
def test_mixed_stream_in_one_entry_rescan_chunks(back_end):
    with count_back_end(back_end), rescan_budget(1):
        run_state_machine_as_test(MixedStream, settings=MIXED_STREAM_SETTINGS)
