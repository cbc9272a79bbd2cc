"""Domain types for sparse binary vectors, permutations, minwise sketches and packed supports.

All positions and ranks are 1-based at the API boundary. "Position" names a
feature slot of a vector, "rank" names the value a permutation assigns to a
position. The distinguished hash value EMPTY marks the sketch slot of a
vector with no support.

Everything here is an immutable value; the operations are pure functions and
safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ValidationError(ValueError):
    """An input violated a documented precondition."""


class _EmptyHash:
    """Singleton marker for the hash of a vector with empty support."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "EMPTY"

    def __reduce__(self):  # by name: copies and pickles are the singleton
        return "EMPTY"


EMPTY = _EmptyHash()

HashValue = int | _EmptyHash

_INT64_MAX = int(np.iinfo(np.int64).max)

# The largest permutation dimension: ranks 1..dim are stored as int32.
_RANK_MAX = 2**31 - 1


def _check_rank_dim(dim: int) -> None:
    """Refuse a permutation dimension whose ranks would not fit int32."""
    if dim > _RANK_MAX:
        raise ValidationError(
            f"dimension {dim} exceeds {_RANK_MAX}, the largest a permutation takes"
        )


def _as_positions(
    positions, what: str = "position", plural: str = "positions"
) -> tuple[int, ...]:
    """Coerce and check a strictly increasing, 1-based position sequence."""
    out = []
    prev = 0
    for p in positions:
        if not isinstance(p, (int, np.integer)):
            raise ValidationError(f"{what} {p!r} is not an integer")
        p = int(p)
        if p <= prev:
            if p < 1:
                raise ValidationError(f"{what} {p} must be at least 1")
            raise ValidationError(
                f"{plural} must be strictly increasing (got {p} after {prev})"
            )
        out.append(p)
        prev = p
    return tuple(out)


@dataclass(frozen=True)
class SparseBinaryVector:
    """A point in {0,1}^dim stored as its dimension plus sorted 1-positions.

    The support is also held as a read-only 1-based int64 array, which
    :meth:`support_index` returns without a copy. A vector from the public
    constructor keeps its validated tuple and builds the array on first use;
    one from the vector edits holds only the array, and builds the tuple of
    Python ints the first time ``support`` is read.
    """

    dim: int
    # A factory, not a plain default, so that the class has no ``support``
    # attribute to shadow :meth:`__getattr__`, which builds an edit's tuple.
    support: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        dim = int(self.dim)
        if dim < 0:
            raise ValidationError("dimension must be non-negative")
        support = _as_positions(self.support, "support index", "support indices")
        if support and support[-1] > dim:
            raise ValidationError(
                f"support index {support[-1]} exceeds dimension {dim}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "support", support)

    @classmethod
    def from_dense(cls, bits) -> "SparseBinaryVector":
        """Build from a dense 0/1 sequence, e.g. [1, 0, 0, 1]."""
        bits = list(bits)
        if any(b not in (0, 1) for b in bits):
            raise ValidationError("dense entries must be 0 or 1")
        return cls(len(bits), tuple(i + 1 for i, b in enumerate(bits) if b == 1))

    @classmethod
    def _from_valid(cls, dim: int, support: np.ndarray) -> "SparseBinaryVector":
        """Take ownership of a support array that is valid by construction,
        skipping the checks and the tuple.

        For two trusted callers only. The vector edits build a fresh
        1-based, strictly increasing int64 support at most ``dim`` from a
        valid vector and batch. Docword ingest
        (:func:`dynsketch.ingest.load_docword`) passes each document a slice
        of one array of range-checked, sorted and deduplicated word ids.
        The array is made read-only and becomes the vector's
        :meth:`support_index`.
        """
        support.setflags(write=False)
        vector = object.__new__(cls)
        object.__setattr__(vector, "dim", dim)
        object.__setattr__(vector, "_index", support)
        return vector

    def __getattr__(self, name):
        # Reached only for an attribute the instance does not hold: the
        # support of an edited vector, whose tuple is built here once.
        if name == "support" and "_index" in self.__dict__:
            support = tuple(self._index.tolist())
            object.__setattr__(self, "support", support)
            return support
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __reduce__(self):
        # Copies and pickles go through the constructor, which gives each its
        # own read-only array; numpy's copy of the array would be writable.
        return type(self), (self.dim, self.support)

    def to_dense(self) -> list[int]:
        dense = [0] * self.dim
        for s in self.support:
            dense[s - 1] = 1
        return dense

    def support_index(self) -> np.ndarray:
        """The 1-based support as a read-only int64 numpy array, the same
        object on every call.

        Subtract 1 to index ``Permutation.rank``, as every caller does.
        """
        index = self.__dict__.get("_index")
        if index is None:
            index = np.fromiter(self.support, dtype=np.int64, count=len(self.support))
            index.setflags(write=False)
            object.__setattr__(self, "_index", index)
        return index


def _int64_copy(values, message: str) -> np.ndarray:
    """A fresh int64 copy of an integer array-like; ``message`` is the error
    for any other dtype. An empty one is accepted whatever its dtype, as
    numpy reads ``[]`` as float64."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValidationError(message)
    return arr.astype(np.int64)


class Permutation:
    """A bijection on {1..dim}; ``rank[i - 1]`` is the rank given to position i.

    ``rank`` is a read-only int32 array, whichever constructor built it, so
    ``dim`` is at most ``2**31 - 1``.
    """

    def __init__(self, rank):
        arr = _int64_copy(rank, "ranks must be integers")
        if arr.ndim != 1:
            raise ValidationError("rank must be a flat sequence")
        dim = int(arr.size)
        _check_rank_dim(dim)
        if dim:
            if int(arr.min()) < 1 or int(arr.max()) > dim:
                raise ValidationError(f"ranks must lie in 1..{dim}")
            if int(np.bincount(arr, minlength=dim + 1)[1:].max()) > 1:
                raise ValidationError("ranks must not repeat")
        arr = arr.astype(np.int32)
        arr.setflags(write=False)
        self.rank = arr
        self.dim = dim
        self._inverse = None

    @classmethod
    def _from_valid(cls, rank: np.ndarray) -> "Permutation":
        """Take ownership of an int32 rank array that is a bijection by
        construction, skipping the copy and the checks.

        For generation and the batch lineage maps only: at d = 1e5 the checks
        are about a third of a ``random_permutation`` call. The array is made
        read-only, as the public constructor's copy is.
        """
        rank.setflags(write=False)
        perm = object.__new__(cls)
        perm.rank = rank
        perm.dim = int(rank.size)
        perm._inverse = None
        return perm

    def value_at(self, position: int) -> int:
        """The rank assigned to a 1-based position."""
        if not 1 <= position <= self.dim:
            raise ValidationError(f"position {position} out of range 1..{self.dim}")
        return int(self.rank[position - 1])

    @property
    def inverse(self) -> np.ndarray:
        """Lookup table: ``inverse[r - 1]`` is the 1-based position holding rank r."""
        if self._inverse is None:
            inv = np.empty(self.dim, dtype=np.int64)
            inv[self.rank - 1] = np.arange(1, self.dim + 1)
            inv.setflags(write=False)
            self._inverse = inv
        return self._inverse

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(int(v) for v in self.rank)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self.rank, other.rank))

    def __hash__(self):
        return hash((self.dim, self.rank.tobytes()))

    def __repr__(self):
        return f"Permutation({list(self.as_tuple())})"


def _as_hash(value) -> HashValue:
    if value is EMPTY:
        return EMPTY
    if isinstance(value, (int, np.integer)):
        v = int(value)
        if v < 1:
            raise ValidationError(f"hash value {v} must be at least 1 or EMPTY")
        return v
    raise ValidationError(f"{value!r} is not a hash value")


@dataclass(frozen=True)
class Sketch:
    """K minwise hash values for one point, entry j taken under permutation j,
    also held as ``row``, a read-only int64 hash-matrix row with 0 for EMPTY."""

    values: tuple
    row: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        values = tuple(_as_hash(v) for v in self.values)
        if not values:
            raise ValidationError("a sketch needs at least one slot")
        row = np.array([0 if v is EMPTY else v for v in values], dtype=np.int64)
        row.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "row", row)

    @classmethod
    def _from_row(cls, values: tuple, row: np.ndarray) -> "Sketch":
        """Take ownership of a hash-matrix row that is valid by construction,
        and of its values, skipping the per-value checks.

        For :func:`dynsketch.sketch.row_to_sketch` only: ``row`` is a fresh
        non-empty 1-D int64 array with no negative entry, and ``values`` its
        entries as Python ints with EMPTY for 0. The array is made read-only
        and becomes ``row``.
        """
        row.setflags(write=False)
        sketch = object.__new__(cls)
        object.__setattr__(sketch, "values", values)
        object.__setattr__(sketch, "row", row)
        return sketch

    def __reduce__(self):
        return type(self), (self.values,)

    @property
    def num_perms(self) -> int:
        return len(self.values)


def _batch_array(values: tuple[int, ...], what: str) -> np.ndarray:
    """A read-only int64 array of a batch's increasing 1-based positions."""
    if values and values[-1] > _INT64_MAX:
        raise ValidationError(
            f"{what} {values[-1]} exceeds {_INT64_MAX}, the largest a batch takes"
        )
    out = np.array(values, dtype=np.int64)
    out.setflags(write=False)
    return out


class _Batch:
    """What both batches share: their length and the check against a dimension."""

    def __len__(self) -> int:
        return len(self.positions)

    def validate_for_dim(self, dim: int) -> None:
        if self.positions[-1] > dim:
            raise ValidationError(
                f"position {self.positions[-1]} out of range for dimension {dim}"
            )


@dataclass(frozen=True)
class InsertionBatch(_Batch):
    """Sorted distinct positions to insert, with the bit value for each.

    Positions are expressed in the pre-insertion frame; processing them in
    ascending order, insertion i lands at index ``positions[i] + i`` of the
    widened vector (0-based i).

    ``position_array``, ``one_mask`` and ``landed_ones`` are read-only arrays
    built once from the tuples: the positions as int64, which entries insert
    a 1, and the landed positions ``positions[i] + i`` of those 1-bits.
    """

    positions: tuple[int, ...]
    bits: tuple[int, ...]
    position_array: np.ndarray = field(init=False, compare=False, repr=False)
    one_mask: np.ndarray = field(init=False, compare=False, repr=False)
    landed_ones: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        positions = _as_positions(self.positions)
        bits = tuple(int(b) for b in self.bits)
        if not positions:
            raise ValidationError("batch must contain at least one position")
        if len(bits) != len(positions):
            raise ValidationError("positions and bits must have equal length")
        if any(b not in (0, 1) for b in bits):
            raise ValidationError("bits must be 0 or 1")
        landed = tuple(m + i for i, (m, b) in enumerate(zip(positions, bits)) if b == 1)
        one_mask = np.array(bits, dtype=bool)
        one_mask.setflags(write=False)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "position_array", _batch_array(positions, "position"))
        object.__setattr__(self, "one_mask", one_mask)
        object.__setattr__(self, "landed_ones", _batch_array(landed, "landed position"))

    def __reduce__(self):  # through the constructor, as for vectors
        return type(self), (self.positions, self.bits)


@dataclass(frozen=True)
class DeletionBatch(_Batch):
    """Sorted distinct positions to delete, in the pre-deletion frame.

    ``position_array`` is the positions as a read-only int64 array.
    """

    positions: tuple[int, ...]
    position_array: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        positions = _as_positions(self.positions)
        if not positions:
            raise ValidationError("batch must contain at least one position")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "position_array", _batch_array(positions, "position"))

    def __reduce__(self):
        return type(self), (self.positions,)


def _edit_dim(dim: int) -> int:
    """The largest dimension an edit touches, checked to fit its int64 arithmetic.

    Every support element and position of an edit is at most this dimension,
    so nothing the edit computes can wrap or turn into a float.
    """
    if dim > _INT64_MAX:
        raise ValidationError(
            f"dimension {dim} exceeds {_INT64_MAX}, the largest the vector edits take"
        )
    return dim


def insert_features(vector: SparseBinaryVector, batch: InsertionBatch) -> SparseBinaryVector:
    """Widen a vector by one slot per batch entry.

    An old feature at position j moves right by the number of batch positions
    at or below j; inserted bit i (ascending order) lands at position
    ``positions[i] + i`` (0-based i) and contributes to the support iff its
    bit is 1.
    """
    batch.validate_for_dim(vector.dim)
    dim = _edit_dim(vector.dim + len(batch))
    support = vector.support_index()
    support = support + np.searchsorted(batch.position_array, support, side="right")
    if batch.landed_ones.size:
        support = np.sort(np.concatenate((support, batch.landed_ones)))
    return SparseBinaryVector._from_valid(dim, support)


def delete_features(vector: SparseBinaryVector, batch: DeletionBatch) -> SparseBinaryVector:
    """Remove the batch positions; surviving position j moves left by the
    number of deleted positions below j."""
    batch.validate_for_dim(vector.dim)
    _edit_dim(vector.dim)
    positions = batch.position_array
    support = vector.support_index()
    below = np.searchsorted(positions, support)
    # A support element above every position clips to the last one and is kept.
    kept = positions.take(below, mode="clip") != support
    return SparseBinaryVector._from_valid(vector.dim - len(batch), (support - below)[kept])


def _segment_starts(sizes: np.ndarray) -> np.ndarray:
    """Where each of consecutive segments of the given sizes starts."""
    return sizes.cumsum() - sizes


def _members(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenated ranges [starts[g], starts[g] + sizes[g])."""
    total = int(sizes.sum())
    return np.repeat(starts - _segment_starts(sizes), sizes) + np.arange(total)


@dataclass(frozen=True, eq=False)
class SupportPack:
    """Supports of many points flattened for gather/reduceat kernels.

    Point i's 0-based support is ``flat[starts[i] : starts[i] + lengths[i]]``.
    Every pack holds one invariant: ``count`` is the number of lengths, the
    lengths are non-negative and sum to ``flat.size``, every entry lies in
    ``0..dim-1``, and the entries of each point strictly increase. It is
    checked once, when the pack is built, and the kernels trust it.

    The constructor takes read-only int64 copies of ``flat`` and ``lengths``
    and checks the invariant. :func:`pack_supports` builds through the
    trusted ``_from_valid``, since valid vectors give a valid pack. Either
    way ``starts``, the row offsets, is computed once and read-only.

    Packs compare and hash by content: ``count``, ``dim``, ``flat`` and
    ``lengths``.
    """

    count: int
    dim: int
    flat: np.ndarray       # all 0-based supports concatenated
    lengths: np.ndarray    # per-point support sizes
    starts: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        count, dim = int(self.count), int(self.dim)
        if dim < 0:
            raise ValidationError("dimension must be non-negative")
        flat = _int64_copy(self.flat, "packed support entries must be integers")
        lengths = _int64_copy(self.lengths, "support lengths must be integers")
        if flat.ndim != 1 or lengths.ndim != 1:
            raise ValidationError("packed supports and lengths must be flat sequences")
        if lengths.size != count:
            raise ValidationError(f"pack of {count} points has {lengths.size} lengths")
        if int(lengths.min(initial=0)) < 0:
            raise ValidationError("support lengths must be non-negative")
        # Lengths of at most flat.size each cannot wrap the int64 sum.
        if int(lengths.max(initial=0)) > flat.size or int(lengths.sum()) != flat.size:
            raise ValidationError(f"support lengths must sum to the {flat.size} packed entries")
        if flat.size and (int(flat.min()) < 0 or int(flat.max()) >= dim):
            raise ValidationError(f"packed support entries must lie in 0..{dim - 1}")
        self._own(count, dim, flat, lengths)
        step = np.diff(flat)
        # The step into a later point's first entry crosses points: let it pass.
        cross = self.starts[(self.starts > 0) & (self.starts < flat.size)]
        step[cross - 1] = 1
        if int(step.min(initial=1)) < 1:
            raise ValidationError("packed support entries must strictly increase within each point")

    @classmethod
    def _from_valid(cls, dim: int, flat: np.ndarray, lengths: np.ndarray) -> "SupportPack":
        """Take ownership of int64 ``flat`` and ``lengths`` that hold the
        invariant by construction, skipping the copies and the checks.

        For :func:`pack_supports` only: the arrays are made read-only, as the
        constructor's copies are.
        """
        pack = object.__new__(cls)
        pack._own(int(lengths.size), dim, flat, lengths)
        return pack

    def _own(self, count: int, dim: int, flat: np.ndarray, lengths: np.ndarray) -> None:
        """Set the fields, with ``starts`` computed from the lengths, and make
        the arrays read-only."""
        starts = _segment_starts(lengths)
        for arr in (flat, lengths, starts):
            arr.setflags(write=False)
        for name, value in zip(
            ("count", "dim", "flat", "lengths", "starts"), (count, dim, flat, lengths, starts)
        ):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, SupportPack):
            return NotImplemented
        return (
            self.count == other.count
            and self.dim == other.dim
            and bool(np.array_equal(self.flat, other.flat))
            and bool(np.array_equal(self.lengths, other.lengths))
        )

    def __hash__(self):
        return hash((self.count, self.dim, self.flat.tobytes(), self.lengths.tobytes()))

    def __reduce__(self):  # through the constructor, as for vectors
        return type(self), (self.count, self.dim, self.flat, self.lengths)


def pack_supports(vectors) -> SupportPack:
    vectors = list(vectors)
    if not vectors:
        raise ValidationError("need at least one point")
    dim = vectors[0].dim
    if any(v.dim != dim for v in vectors):
        raise ValidationError("all points must share one dimension")
    supports = [v.support_index() for v in vectors]
    lengths = np.fromiter((s.size for s in supports), dtype=np.int64, count=len(supports))
    flat = np.concatenate(supports)
    flat -= 1
    return SupportPack._from_valid(dim, flat, lengths)
