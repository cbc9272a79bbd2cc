"""Experiment runner: update rules vs from-scratch re-sketching.

Three paths consume one shared workload:

* ``sequential``: the single-feature update rule applied once per feature.
* ``batch``: the batch update rule applied in one shot.
* ``scratch``: re-sketching the edited points. With ``scratch_perms="fresh"``
  (default) the permutations are regenerated at the new dimension, which is
  the baseline the speedup numbers are measured against; with ``"lineage"``
  the original permutations are lifted/dropped instead, in which case the
  scratch sketches must equal the update-rule sketches slot for slot.

:func:`run_experiment` runs in three phases. First, for each batch size, it
draws the workload, edits and packs the points, and builds the path closures.
Then it times each path on its own, with a monotonic clock: one discarded
warm-up call per batch size, then ``repetitions`` rounds that call each batch
size once in turn; the median per size is reported. A drift in machine speed
during a path's timing thus reaches all of its sizes alike. Last, it checks
slot identities and evaluates RMSE. Corpus loading and vector editing are
excluded from the timed sections.
"""

from __future__ import annotations

import statistics
from dataclasses import astuple, dataclass, field, fields
from time import perf_counter

import numpy as np

from dynsketch.core import ValidationError, _as_int, delete_features, insert_features
from dynsketch.ingest import Corpus, load_docword, sample_corpus
from dynsketch.permgen import (
    PermutationSeed,
    multiple_drop_perm,
    multiple_lift_perm,
    random_permutation,
)
from dynsketch.bench import engine
from dynsketch.bench.synthetic import synthetic_corpus
from dynsketch.bench.workload import (
    _as_probability, digest_batch, draw_deletion_plan, draw_insertion_plan
)

MODES = ("insert", "delete")
PATHS = ("sequential", "batch", "scratch")
SCRATCH_MODES = ("fresh", "lineage")

# Keeps the fresh-baseline permutation stream disjoint from the baseline one.
_SCRATCH_SEED_SALT = 0x9E3779B97F4A7C15
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Checked when built; every integer field is stored as a Python int,
    ``insert_one_prob`` as a float, ``n_features`` sorted and deduplicated,
    ``paths`` deduplicated in the given order."""

    mode: str
    num_perms: int = 500
    n_features: tuple[int, ...] = (64,)
    insert_one_prob: float = 0.1
    master_seed: int = 0
    paths: tuple[str, ...] = PATHS
    scratch_perms: str = "fresh"
    repetitions: int = 5
    data: str | None = None
    synthetic: tuple[int, int, int] | None = None  # dim, support size, points
    sample_size: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}")
        for name in ("num_perms", "master_seed", "repetitions"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if self.synthetic is not None:
            try:
                synthetic = tuple(self.synthetic)
            except TypeError:
                synthetic = ()
            if len(synthetic) != 3:
                raise ValidationError("synthetic must be a (dim, support size, points) triple")
            synthetic = tuple(_as_int(v, "synthetic") for v in synthetic)
            object.__setattr__(self, "synthetic", synthetic)
        if self.sample_size is not None:
            object.__setattr__(self, "sample_size", _as_int(self.sample_size, "sample_size"))
        if self.num_perms < 1:
            raise ValidationError("num_perms must be at least 1")
        try:
            sizes = iter(self.n_features)
        except TypeError:
            raise ValidationError("n_features must be a sequence of batch sizes") from None
        ns = tuple(sorted({_as_int(n, "batch size") for n in sizes}))
        if not ns or ns[0] < 1:
            raise ValidationError("n_features must contain positive batch sizes")
        object.__setattr__(
            self, "insert_one_prob", _as_probability(self.insert_one_prob, "insert_one_prob")
        )
        if self.master_seed < 0 or self.master_seed > _SEED_MASK:
            raise ValidationError("master_seed must fit in 64 bits")
        try:
            paths = tuple(dict.fromkeys(self.paths))
        except TypeError:  # not iterable, or an entry that cannot be hashed
            paths = ()
        if not paths or any(p not in PATHS for p in paths):
            raise ValidationError(f"paths must be a non-empty subset of {PATHS}")
        if self.scratch_perms not in SCRATCH_MODES:
            raise ValidationError(f"scratch_perms must be one of {SCRATCH_MODES}")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be at least 1")
        if (self.data is None) == (self.synthetic is None):
            raise ValidationError("provide exactly one of data or synthetic")
        if self.synthetic is not None:
            d, k, pts = self.synthetic
            if d < 1 or pts < 1 or not 0 <= k <= d:
                raise ValidationError(
                    "synthetic corpus needs 0 <= support_size <= dim and points >= 1"
                )
        if self.sample_size is not None and self.sample_size < 1:
            raise ValidationError("sample_size must be at least 1")
        object.__setattr__(self, "n_features", ns)
        object.__setattr__(self, "paths", paths)

    def echo(self) -> dict:
        """Every field for the report: a tuple comma-joined, None as ""."""
        echoed = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            echoed[f.name] = "" if value is None else value
        return echoed


@dataclass(frozen=True)
class PathResult:
    """One row of the report: the fields before ``sketch_digest`` are the
    CSV columns, ``num_perms`` under the heading K."""

    path: str
    n: int
    num_perms: int
    rmse: float
    seconds: float
    speedup: float | None
    rmse_post: float
    speedup_max: float | None
    speedup_mean: float | None
    sketch_digest: str
    times: tuple[float, ...] = field(repr=False, default=())


@dataclass(frozen=True)
class ExperimentReport:
    mode: str
    config: dict
    workload_checksums: dict
    results: tuple[PathResult, ...]


def _load_corpus(cfg: ExperimentConfig) -> Corpus:
    if cfg.data is not None:
        corpus = load_docword(cfg.data)
    else:
        d, k, pts = cfg.synthetic
        corpus = synthetic_corpus(d, k, pts, cfg.master_seed)
    if cfg.sample_size is not None:
        corpus = sample_corpus(corpus, cfg.sample_size, cfg.master_seed)
    return corpus


def _fresh_scratch_seed(master_seed: int) -> int:
    return (master_seed ^ _SCRATCH_SEED_SALT) & _SEED_MASK


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run ``cfg.paths`` at every batch size of ``cfg.n_features`` for
    ``cfg.mode`` and report each path's RMSE, time and speedup per size."""
    corpus = _load_corpus(cfg)
    dim = corpus.vocab_size
    if dim < 1:
        raise ValidationError("corpus dimension must be positive")
    points = corpus.vectors
    pack = engine.pack_supports(points)
    perms = [
        random_permutation(dim, PermutationSeed(cfg.master_seed, i))
        for i in range(cfg.num_perms)
    ]
    base = engine.sketch_matrix(pack, perms)

    max_n = cfg.n_features[-1]
    if cfg.mode == "insert":
        plan = draw_insertion_plan(dim, max_n, cfg.insert_one_prob, cfg.master_seed)
        edit = insert_features
    else:
        plan = draw_deletion_plan(dim, max_n, cfg.master_seed)
        edit = delete_features
        if max_n == dim and cfg.scratch_perms == "fresh" and "scratch" in cfg.paths:
            raise ValidationError(
                f"n={max_n} deletes every feature of dimension {dim}, which leaves none "
                "to draw fresh scratch permutations over; use --scratch-perms lineage"
            )

    # Phase 1: each batch size's workload, edited pack and path closures.
    sizes = []
    for n in cfg.n_features:
        wl = plan.workload(n)
        epack = engine.pack_supports([edit(v, wl.batch) for v in points])
        sizes.append((n, wl, epack, _runners(cfg, pack, epack, perms, base, wl.batch)))

    # Phase 2: each path on its own, its batch sizes taken in turn.
    finals, timings = {}, {}
    for path in cfg.paths:
        for n, wl, _, runners in sizes:
            # every path must consume the one drawn workload
            if digest_batch(cfg.mode, wl.batch) != wl.checksum:
                raise AssertionError(f"workload drift on the {path} path")
            runners[path]()  # discarded warm-up
            timings[path, n] = []
        for _ in range(cfg.repetitions):
            for n, _, _, runners in sizes:
                start = perf_counter()
                finals[path, n] = runners[path]()
                timings[path, n].append(perf_counter() - start)

    # Phase 3: slot identities, then RMSE. Estimation follows all timing:
    # numpy's BLAS products can leave worker threads spinning for about 0.1 s,
    # and on a shared core they stall the timed calls that run meanwhile.
    for n, *_ in sizes:
        _assert_slot_identities(cfg, {p: finals[p, n] for p in cfg.paths})
    truth, both_empty = engine.pairwise_true_jaccard(pack)
    include = ~both_empty
    results = []
    for n, _, epack, _ in sizes:
        post_truth, post_empty = engine.pairwise_true_jaccard(epack)
        include_post = ~post_empty
        scratch_times = timings.get(("scratch", n))
        for path in (p for p in PATHS if p in cfg.paths):
            h = finals[path, n]
            est = engine.pairwise_estimates(h)
            row_rmse = engine.rmse_condensed(est, truth, include)
            row_rmse_post = engine.rmse_condensed(est, post_truth, include_post)
            times = tuple(timings[path, n])
            seconds = statistics.median(times)
            speedup = speedup_max = speedup_mean = None
            if scratch_times is not None:
                ratios = [s / t for s, t in zip(scratch_times, times)]
                speedup = statistics.median(scratch_times) / seconds
                speedup_max = max(ratios)
                speedup_mean = statistics.fmean(ratios)
            results.append(
                PathResult(
                    path=path,
                    n=n,
                    num_perms=cfg.num_perms,
                    rmse=row_rmse,
                    seconds=seconds,
                    speedup=speedup,
                    rmse_post=row_rmse_post,
                    speedup_max=speedup_max,
                    speedup_mean=speedup_mean,
                    sketch_digest=engine.sketch_digest(h),
                    times=times,
                )
            )

    return ExperimentReport(
        mode=cfg.mode,
        config=cfg.echo(),
        workload_checksums={n: wl.checksum for n, wl, *_ in sizes},
        results=tuple(results),
    )


def _runners(cfg, pack, epack, perms, base, batch):
    """Every path's closure for one batch size. Each looks its ``engine``
    function up when called."""
    if cfg.mode == "insert":
        sequential = lambda: engine.apply_sequential_insert(base, perms, batch)
        batch_rule = lambda: engine.apply_batch_insert(base, perms, batch)
        carry = multiple_lift_perm
    else:
        sequential = lambda: engine.apply_sequential_delete(base, pack, perms, batch)
        batch_rule = lambda: engine.apply_batch_delete(base, pack, perms, batch)
        carry = multiple_drop_perm
    if cfg.scratch_perms == "fresh":
        seed = _fresh_scratch_seed(cfg.master_seed)
        scratch_perms = lambda: [
            random_permutation(epack.dim, PermutationSeed(seed, i))
            for i in range(cfg.num_perms)
        ]
    else:
        scratch_perms = lambda: [carry(p, batch.positions) for p in perms]
    return {
        "sequential": sequential,
        "batch": batch_rule,
        "scratch": lambda: engine.sketch_matrix(epack, scratch_perms()),
    }


def _assert_slot_identities(cfg, finals):
    """The update rules are exact, so equal-lineage paths must agree."""
    lineage_paths = [p for p in ("sequential", "batch") if p in finals]
    if cfg.scratch_perms == "lineage" and "scratch" in finals:
        lineage_paths.append("scratch")
    for path in lineage_paths[1:]:
        if not np.array_equal(finals[path], finals[lineage_paths[0]]):
            raise AssertionError(
                f"{lineage_paths[0]} and {path} paths disagree; "
                "the update rules should be exact"
            )


_CSV_COLUMNS = (
    "path",
    "n",
    "K",
    "rmse",
    "seconds",
    "speedup",
    "rmse_post",
    "speedup_max",
    "speedup_mean",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def emit_report(report: ExperimentReport, format: str = "csv") -> str:
    """Render a report as CSV (stable column order) or a human summary."""
    if format not in ("csv", "human"):
        raise ValidationError("format must be 'csv' or 'human'")
    rows = [astuple(r)[: len(_CSV_COLUMNS)] for r in report.results]
    if format == "csv":
        lines = [",".join(_CSV_COLUMNS)]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    lines = [f"experiment mode: {report.mode}"]
    for key, value in report.config.items():
        lines.append(f"  {key} = {value}")
    for n, checksum in report.workload_checksums.items():
        lines.append(f"  workload[n={n}] = {checksum}")
    widths = [max(len(c), 12) for c in _CSV_COLUMNS]
    header = "  ".join(c.ljust(w) for c, w in zip(_CSV_COLUMNS, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths))
        )
    return "\n".join(lines) + "\n"
