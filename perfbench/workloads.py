"""The benchmark's four workloads.

Each workload makes its inputs from the seed when it is constructed (not
timed), builds in ``setup`` the state a user holds before the first
operation (timed as set-up), runs one operation per ``step`` call (timed),
and checks outputs against an independent oracle in ``check``, which the
driver calls with the clock stopped. Every call into a dynsketch layer sits
inside a tracer span named ``<module>.<function>``.

Operations cycle through a pool of ``POOL`` inputs drawn in advance, so no
input drawing happens inside an operation.
"""

from __future__ import annotations

import hashlib

import numpy as np

from dynsketch.bench import engine
from dynsketch.bench.synthetic import synthetic_corpus
from dynsketch.bench.workload import digest_batch, draw_deletion_plan, draw_insertion_plan
from dynsketch.core import EMPTY, Sketch, delete_features, insert_features
from dynsketch.estimate import jaccard_estimate
from dynsketch.ingest import load_docword, write_docword
from dynsketch.permgen import (
    PermutationSeed,
    multiple_drop_perm,
    multiple_lift_perm,
    random_permutation,
)
from dynsketch.sketch import build_sketch, update_sketch_delete, update_sketch_insert

POOL = 256
ONE_PROB = 0.1  # share of inserted features whose bit is 1, as in the CLI default

# Independent random streams drawn from one workload seed.
_BATCH_STREAM, _FRESH_STREAM, _CHECK_STREAM = 1, 2, 3


def derive_seed(seed: int, *stream: int) -> int:
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def draw_batch(kind: str, dim: int, n: int, seed: int):
    if kind == "insert":
        return draw_insertion_plan(dim, n, ONE_PROB, seed).workload(n).batch
    return draw_deletion_plan(dim, n, seed).workload(n).batch


def hashes(sketch: Sketch) -> np.ndarray:
    """A sketch as one row of the engine's hash matrix (0 for EMPTY)."""
    return np.array([0 if v is EMPTY else v for v in sketch.values], dtype=np.int64)


def rescan_slots(h: np.ndarray, perms, batch) -> int:
    """Slots whose minimum is a deleted rank, which the delete kernel rescans."""
    idx = np.asarray(batch.positions) - 1
    return sum(int(np.isin(h[:, j], p.rank[idx]).sum()) for j, p in enumerate(perms))


def _carry(kind: str):
    """The vector edit and the permutation lineage step for a batch kind."""
    if kind == "insert":
        return insert_features, multiple_lift_perm
    return delete_features, multiple_drop_perm


class Workload:
    name = ""
    sizes: dict = {}
    setup_reps = 5

    def __init__(self, seed: int, size: str, workdir, tracer):
        self.seed = seed
        self.cfg = self.sizes[size]
        self.workdir = workdir
        self.t = tracer
        self.inputs: dict = {}
        self.rmse: float | None = None
        self.min_ops = 1  # operations needed before every seeded check has run

    def checks(self, i: int) -> bool:
        return True

    def before_op(self, i: int) -> None:
        """Counters that need a pass of their own; called only when tracing, off the clock."""

    def finish_op(self, i: int, out) -> None:
        """Off-the-clock bookkeeping after an operation."""

    def _base_perms(self, dim: int) -> list:
        k = self.cfg["perms"]
        with self.t.span("permgen.random_permutation", calls=k):
            return [random_permutation(dim, PermutationSeed(self.seed, j)) for j in range(k)]


class StreamMixed(Workload):
    """One store under a stream of alternating n-feature insert and delete batches.

    Every step updates the hash matrix with the batch kernel, carries the
    permutation lineage, edits and re-packs the supports and refreshes the
    all-pairs estimates, so the next step runs in the new frame. One
    operation is an insert step followed by a delete step: an insert step
    costs about half again a delete step, and timing them apart would split
    the operation times into two modes with the median in the gap.
    """

    name = "stream-mixed"
    sizes = {
        "full": dict(dim=20000, support=100, points=500, perms=32, n=8, rmse_after=16),
        "toy": dict(dim=200, support=10, points=20, perms=8, n=4, rmse_after=2),
    }
    setup_reps = 15

    def __init__(self, seed, size, workdir, tracer):
        super().__init__(seed, size, workdir, tracer)
        c = self.cfg
        self.corpus = synthetic_corpus(c["dim"], c["support"], c["points"], seed)
        # The insert widens the frame to dim + n and the delete narrows it
        # back to dim, so the pool can cycle.
        self.batches = [
            (
                draw_batch("insert", c["dim"], c["n"], derive_seed(seed, _BATCH_STREAM, i, 0)),
                draw_batch("delete", c["dim"] + c["n"], c["n"], derive_seed(seed, _BATCH_STREAM, i, 1)),
            )
            for i in range(POOL)
        ]
        self.inputs = {
            "batch_digests": [
                digest_batch("insert", ins) + "/" + digest_batch("delete", dele)
                for ins, dele in self.batches
            ]
        }
        self.min_ops = c["rmse_after"]

    def setup(self):
        t = self.t
        self.points = self.corpus.vectors
        with t.span("engine.pack_supports"):
            self.pack = engine.pack_supports(self.points)
        self.perms = self._base_perms(self.corpus.vocab_size)
        with t.span("engine.sketch_matrix"):
            self.h = engine.sketch_matrix(self.pack, self.perms, threads=1)

    def before_op(self, i):
        # Ranks the delete step removes, in the frame the insert step leaves.
        ins, dele = self.batches[i % POOL]
        h = engine.apply_batch_insert(self.h, self.perms, ins)
        perms = [multiple_lift_perm(p, ins.positions) for p in self.perms]
        self.t.count("engine.apply_batch_delete.rescan_slots", rescan_slots(h, perms, dele))

    def step(self, i):
        """Both steps; returns the state after each for the checks."""
        states = []
        for kind, batch in zip(("insert", "delete"), self.batches[i % POOL]):
            self._step(kind, batch)
            states.append((self.h, self.pack, self.perms))
        return states

    def _step(self, kind, batch):
        t = self.t
        edit, carry = _carry(kind)
        k = len(self.perms)
        if kind == "insert":
            with t.span("engine.apply_batch_insert"):
                self.h = engine.apply_batch_insert(self.h, self.perms, batch)
        else:
            with t.span("engine.apply_batch_delete"):
                self.h = engine.apply_batch_delete(self.h, self.pack, self.perms, batch)
            t.count("engine.apply_batch_delete.slots", self.h.size)
        with t.span(f"permgen.{carry.__name__}", calls=k):
            self.perms = [carry(p, batch.positions) for p in self.perms]
        t.count(f"permgen.{carry.__name__}.positions", len(batch) * k)
        with t.span(f"core.{edit.__name__}", calls=len(self.points)):
            self.points = [edit(v, batch) for v in self.points]
        with t.span("engine.pack_supports"):
            self.pack = engine.pack_supports(self.points)
        with t.span("engine.pairwise_estimates"):
            self.estimates = engine.pairwise_estimates(self.h)
        t.count("engine.pairwise_estimates.pairs", self.estimates.size)

    def check(self, i, out):
        """After each step the matrix equals re-sketching the supports under the carried lineage."""
        return all(
            np.array_equal(h, engine.sketch_matrix(pack, perms, threads=1)) for h, pack, perms in out
        )

    def corrupt(self, i, out):
        self.h = self.h.copy()
        self.h[0, 0] += 1
        return out[:-1] + [(self.h, self.pack, self.perms)]

    def finish_op(self, i, out):
        # Taken after a fixed number of operations, not at the end of the
        # run, so that it repeats exactly under the seed whatever the run length.
        if i + 1 == self.cfg["rmse_after"]:
            truth, both_empty = engine.pairwise_true_jaccard(self.pack)
            self.rmse = engine.rmse_condensed(self.estimates, truth, ~both_empty)


class _Docword(Workload):
    """Shared inputs and set-up of the two workloads on one docword file.

    Operation i is one batch against the base frame: inserts on even i and
    deletes on odd i, n alternating between the two sizes every two
    operations. Both workloads draw identical batches from one seed.
    """

    sizes = {
        "full": dict(dim=100000, support=100, points=2000, perms=128, ns=(8, 64)),
        "toy": dict(dim=500, support=20, points=30, perms=8, ns=(2, 8)),
    }

    def __init__(self, seed, size, workdir, tracer):
        super().__init__(seed, size, workdir, tracer)
        c = self.cfg
        corpus = synthetic_corpus(c["dim"], c["support"], c["points"], seed)
        self.path = workdir / f"docword-{self.name}-seed{seed}.txt"
        with open(self.path, "w", encoding="utf-8") as stream:
            write_docword(corpus, stream)
        self.batches = []
        for i in range(POOL):
            kind = ("insert", "delete")[i % 2]
            n = c["ns"][(i // 2) % 2]
            self.batches.append((kind, draw_batch(kind, c["dim"], n, derive_seed(seed, _BATCH_STREAM, i))))
        self.inputs = {
            "docword_sha256": hashlib.sha256(self.path.read_bytes()).hexdigest(),
            "batch_digests": [digest_batch(k, b) for k, b in self.batches],
        }

    def setup(self):
        t = self.t
        with t.span("ingest.load_docword"):
            corpus = load_docword(self.path)
        if t.enabled:
            t.count("ingest.load_docword.triples", sum(len(v.support) for v in corpus.vectors))
        self.points = corpus.vectors
        with t.span("engine.pack_supports"):
            self.pack = engine.pack_supports(self.points)
        self.perms = self._base_perms(corpus.vocab_size)
        with t.span("engine.sketch_matrix"):
            self.h = engine.sketch_matrix(self.pack, self.perms, threads=1)


class BatchWide(_Docword):
    """Independent insert and delete batches on the base matrix, batch kernels only."""

    name = "batch-wide"
    checked_ops = 8
    checked_cols = 2  # full lineage costs seconds per n=64 batch at K=128

    def __init__(self, seed, size, workdir, tracer):
        super().__init__(seed, size, workdir, tracer)
        rng = np.random.default_rng([seed, _CHECK_STREAM])
        ops = rng.choice(POOL, size=self.checked_ops, replace=False)
        self.check_cols = {
            int(i): np.sort(rng.choice(self.cfg["perms"], size=self.checked_cols, replace=False))
            for i in ops
        }
        self.min_ops = max(self.check_cols) + 1

    def checks(self, i):
        return i in self.check_cols

    def before_op(self, i):
        kind, batch = self.batches[i % POOL]
        if kind == "delete":
            self.t.count("engine.apply_batch_delete.rescan_slots", rescan_slots(self.h, self.perms, batch))

    def step(self, i):
        t = self.t
        kind, batch = self.batches[i % POOL]
        if kind == "insert":
            with t.span("engine.apply_batch_insert"):
                return engine.apply_batch_insert(self.h, self.perms, batch)
        with t.span("engine.apply_batch_delete"):
            out = engine.apply_batch_delete(self.h, self.pack, self.perms, batch)
        t.count("engine.apply_batch_delete.slots", out.size)
        return out

    def check(self, i, out):
        """Sampled columns equal re-sketching the edited points under the carried permutation."""
        kind, batch = self.batches[i % POOL]
        edit, carry = _carry(kind)
        cols = self.check_cols[i]
        pack = engine.pack_supports([edit(v, batch) for v in self.points])
        carried = [carry(self.perms[j], batch.positions) for j in cols]
        return np.array_equal(out[:, cols], engine.sketch_matrix(pack, carried, threads=1))

    def corrupt(self, i, out):
        out = out.copy()
        out[0, self.check_cols[i][0]] += 1
        return out


class ResketchDocword(_Docword):
    """The fresh-permutation baseline: edit, regenerate K permutations, re-sketch, estimate."""

    name = "resketch-docword"
    checked_rows = 8

    def __init__(self, seed, size, workdir, tracer):
        super().__init__(seed, size, workdir, tracer)
        rng = np.random.default_rng([seed, _CHECK_STREAM])
        self.fresh_seeds = [derive_seed(seed, _FRESH_STREAM, i) for i in range(POOL)]
        self.check_rows = [
            np.sort(rng.choice(self.cfg["points"], size=self.checked_rows, replace=False))
            for _ in range(POOL)
        ]

    def step(self, i):
        t = self.t
        kind, batch = self.batches[i % POOL]
        edit, _ = _carry(kind)
        with t.span(f"core.{edit.__name__}", calls=len(self.points)):
            edited = [edit(v, batch) for v in self.points]
        with t.span("engine.pack_supports"):
            pack = engine.pack_supports(edited)
        k = len(self.perms)
        seed = self.fresh_seeds[i % POOL]
        with t.span("permgen.random_permutation", calls=k):
            fresh = [random_permutation(pack.dim, PermutationSeed(seed, j)) for j in range(k)]
        with t.span("engine.sketch_matrix"):
            h = engine.sketch_matrix(pack, fresh, threads=1)
        with t.span("engine.pairwise_estimates"):
            estimates = engine.pairwise_estimates(h)
        t.count("engine.pairwise_estimates.pairs", estimates.size)
        return edited, pack, fresh, h, estimates

    def check(self, i, out):
        """Sampled rows equal scalar ``build_sketch`` of the same points."""
        edited, _, fresh, h, _ = out
        return all(
            np.array_equal(h[r], hashes(build_sketch(edited[r], fresh)))
            for r in self.check_rows[i % POOL]
        )

    def corrupt(self, i, out):
        edited, pack, fresh, h, estimates = out
        h = h.copy()
        h[self.check_rows[i % POOL][0], 0] += 1
        return edited, pack, fresh, h, estimates

    def finish_op(self, i, out):
        # The first operation's error, so that it repeats exactly under the seed.
        if i == 0:
            _, pack, _, _, estimates = out
            truth, both_empty = engine.pairwise_true_jaccard(pack)
            self.rmse = engine.rmse_condensed(estimates, truth, ~both_empty)


class PointApi(Workload):
    """One sketch per document through the scalar API: build, insert, delete, estimate."""

    name = "point-api"
    sizes = {
        "full": dict(dim=100000, support=100, perms=128, n=8),
        "toy": dict(dim=500, support=20, perms=8, n=4),
    }
    checked_ops = 16
    checked_cols = 2

    def __init__(self, seed, size, workdir, tracer):
        super().__init__(seed, size, workdir, tracer)
        c = self.cfg
        self.points = synthetic_corpus(c["dim"], c["support"], POOL, seed).vectors
        self.batches = [
            tuple(
                draw_batch(kind, c["dim"], c["n"], derive_seed(seed, _BATCH_STREAM, i, s))
                for s, kind in enumerate(("insert", "delete"))
            )
            for i in range(POOL)
        ]
        self.inputs = {
            "batch_digests": [
                digest_batch("insert", ins) + "/" + digest_batch("delete", dele)
                for ins, dele in self.batches
            ]
        }
        rng = np.random.default_rng([seed, _CHECK_STREAM])
        ops = rng.choice(POOL, size=self.checked_ops, replace=False)
        self.check_cols = {
            int(i): np.sort(rng.choice(c["perms"], size=self.checked_cols, replace=False))
            for i in ops
        }
        self.min_ops = max(self.check_cols) + 1

    def setup(self):
        self.perms = self._base_perms(self.cfg["dim"])
        with self.t.span("sketch.build_sketch"):
            self.prev = build_sketch(self.points[-1], self.perms)

    def checks(self, i):
        return i in self.check_cols

    def step(self, i):
        t = self.t
        point = self.points[i % POOL]
        ins, dele = self.batches[i % POOL]
        with t.span("sketch.build_sketch"):
            sk = build_sketch(point, self.perms)
        with t.span("sketch.update_sketch_insert"):
            grown = update_sketch_insert(sk, self.perms, ins)
        with t.span("sketch.update_sketch_delete"):
            shrunk = update_sketch_delete(sk, self.perms, point, dele)
        with t.span("estimate.jaccard_estimate"):
            est = jaccard_estimate(sk, self.prev)
        prev, self.prev = self.prev, sk
        return sk, grown, shrunk, est, prev

    def check(self, i, out):
        """Sampled slots equal the engine's re-sketch under the carried permutations."""
        sk, grown, shrunk, est, prev = out
        point = self.points[i % POOL]
        cols = self.check_cols[i]
        ok = np.array_equal(
            hashes(sk)[cols],
            engine.sketch_matrix(engine.pack_supports([point]), [self.perms[j] for j in cols])[0],
        )
        for kind, batch, got in zip(("insert", "delete"), self.batches[i % POOL], (grown, shrunk)):
            edit, carry = _carry(kind)
            carried = [carry(self.perms[j], batch.positions) for j in cols]
            expected = engine.sketch_matrix(engine.pack_supports([edit(point, batch)]), carried)[0]
            ok &= np.array_equal(hashes(got)[cols], expected)
        expected_est = engine.pairwise_estimates(np.stack([hashes(sk), hashes(prev)]))[0]
        return bool(ok and est.estimated_jaccard == expected_est)

    def corrupt(self, i, out):
        sk, grown, shrunk, est, prev = out
        values = list(grown.values)
        j = int(self.check_cols[i][0])
        values[j] = 1 if values[j] is EMPTY else values[j] + 1
        return sk, Sketch(tuple(values)), shrunk, est, prev


WORKLOADS = {w.name: w for w in (StreamMixed, BatchWide, ResketchDocword, PointApi)}
