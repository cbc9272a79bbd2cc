"""Synthetic corpora so benchmark runs need no dataset download."""

from __future__ import annotations

import numpy as np

from dynsketch.core import SparseBinaryVector, ValidationError, _as_int
from dynsketch.ingest import Corpus

# The corpus stream, SeedSequence([seed, 11]), is also the stream of
# permutation 11 under the same master seed (PermutationSeed(seed, 11)). It
# stays, as the benchmark's pinned digests are built on it.
_SYNTHETIC_STREAM = 11


def synthetic_corpus(dim: int, support_size: int, num_points: int, seed: int) -> Corpus:
    """Points with supports sampled uniformly without replacement at a fixed size."""
    dim = _as_int(dim, "dimension")
    if dim < 1:
        raise ValidationError("dimension must be at least 1")
    support_size = _as_int(support_size, "support size")
    if not 0 <= support_size <= dim:
        raise ValidationError(
            f"support size {support_size} out of range 0..{dim}"
        )
    num_points = _as_int(num_points, "point count")
    if num_points < 1:
        raise ValidationError("need at least one point")
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _SYNTHETIC_STREAM]))
    vectors = []
    for _ in range(num_points):
        chosen = np.sort(rng.choice(dim, size=support_size, replace=False)) + 1
        vectors.append(SparseBinaryVector(dim, tuple(int(s) for s in chosen)))
    return Corpus(num_docs=num_points, vocab_size=dim, vectors=tuple(vectors))
