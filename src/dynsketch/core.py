"""Domain types for sparse binary vectors, permutations, minwise sketches and packed supports.

All positions and ranks are 1-based at the API boundary. "Position" names a
feature slot of a vector, "rank" names the value a permutation assigns to a
position. The distinguished hash value EMPTY marks the sketch slot of a
vector with no support.

Everything here is an immutable value; the operations are pure functions and
safe to call from several threads at once.
"""

from __future__ import annotations

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

# Bound once: looking these up on their modules and types at each call is
# about a tenth of a trusted build.
_ndarray = np.ndarray
_new = object.__new__
_setattr = object.__setattr__

# The largest permutation dimension: ranks 1..dim, and so every hash, are
# stored as int32.
_RANK_MAX = 2**31 - 1


def _check_rank_dim(dim: int) -> None:
    """Refuse a permutation dimension whose ranks would not fit int32."""
    if dim > _RANK_MAX:
        raise ValidationError(
            f"dimension {dim} exceeds {_RANK_MAX}, the largest a permutation takes"
        )


def _as_int(value, what: str, least: int | None = None, most: int | None = None) -> int:
    """``value`` as a Python int, at least ``least`` and at most ``most`` where
    given; a float, string or other non-integer is refused rather than
    truncated. ``most`` is read only with ``least``."""
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} {value!r} is not an integer")
    value = int(value)
    if least is not None and (value < least or most is not None and value > most):
        if most is not None:
            raise ValidationError(f"{what} {value} out of range {least}..{most}")
        if least == 0:
            raise ValidationError(f"{what} must be non-negative")
        raise ValidationError(f"{what} must be at least {least}")
    return value


def _is_bit(value) -> bool:
    """Whether ``value`` is an integer or boolean 0 or 1."""
    return isinstance(value, (int, np.integer, np.bool_)) and value in (0, 1)


def _as_positions(
    positions, what: str = "position", plural: str = "positions"
) -> tuple[int, ...]:
    """Coerce and check a strictly increasing, 1-based position sequence."""
    out = []
    prev = 0
    for p in positions:
        p = _as_int(p, what)
        if p <= prev:
            if p < 1:
                raise ValidationError(f"{what} {p} must be at least 1")
            raise ValidationError(
                f"{plural} must be strictly increasing (got {p} after {prev})"
            )
        out.append(p)
        prev = p
    return tuple(out)


class _Value:
    """The value contract of the core types.

    A subclass names its public constructor's arguments in ``_args`` and the
    fields it compares and hashes by in ``_key``. :meth:`_own` makes every
    array among the fields read-only and sets each field once; rebinding or
    deleting an attribute raises AttributeError. A trusted builder, for parts
    valid by construction, skips the public constructor through
    :meth:`_build`. Copies and pickles go through the public constructor,
    which gives each its own read-only arrays (numpy's copy of an array would
    be writable).
    """

    _args: tuple[str, ...]
    _key: tuple[str, ...]

    def _own(self, fields: dict) -> None:
        # One object.__setattr__ per field: on CPython 3.11, reading
        # self.__dict__ gives each value a dict of its own (248 bytes a vector
        # beside its array, against 96).
        for name, value in fields.items():
            if isinstance(value, _ndarray):
                value.setflags(False)  # write=False, passed by position: about half the cost
            _setattr(self, name, value)

    @classmethod
    def _build(cls, **fields):
        """A value of ``cls`` that owns ``fields``, with no check."""
        value = _new(cls)
        value._own(fields)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in self._key)

    def __hash__(self):
        content = (getattr(self, name) for name in self._key)
        return hash(tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in content))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._args)

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._args)
        return f"{type(self).__name__}({args})"


def _position_array(positions: tuple[int, ...], what: str, taker: str = "a batch") -> np.ndarray:
    """An int64 array of increasing 1-based positions, refused past int64."""
    if positions and positions[-1] > _INT64_MAX:
        raise ValidationError(
            f"{what} {positions[-1]} exceeds {_INT64_MAX}, the largest {taker} takes"
        )
    return np.array(positions, dtype=np.int64)


class SparseBinaryVector(_Value):
    """A point in {0,1}^dim stored as its dimension plus sorted 1-positions.

    The vector holds its support once, as a read-only 1-based int64 array
    that :meth:`support_index` returns without a copy. ``support`` is that
    array as a tuple of Python ints, built on each read.
    """

    _args = ("dim", "support")
    _key = ("dim", "_index")

    def __init__(self, dim: int, support=()):
        dim = _as_int(dim, "dimension", 0)
        support = _as_positions(support, "support index", "support indices")
        if support and support[-1] > dim:
            raise ValidationError(
                f"support index {support[-1]} exceeds dimension {dim}"
            )
        self._own(dict(dim=dim, _index=_position_array(support, "support index", "a vector")))

    @classmethod
    def from_dense(cls, bits) -> "SparseBinaryVector":
        """Build from a dense 0/1 sequence, e.g. [1, 0, 0, 1]."""
        bits = list(bits)
        if not all(map(_is_bit, bits)):
            raise ValidationError("dense entries must be 0 or 1")
        return cls(len(bits), tuple(i + 1 for i, b in enumerate(bits) if b == 1))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self._index.tolist())

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
        return self._index


def _int64_copy(values, message: str) -> np.ndarray:
    """A fresh int64 copy of an integer array-like; ``message`` is the error
    for any other dtype. An empty one is accepted whatever its dtype, as
    numpy reads ``[]`` as float64."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValidationError(message)
    return arr.astype(np.int64)


class Permutation(_Value):
    """A bijection on {1..dim}; ``rank[i - 1]`` is the rank given to position i.

    ``rank`` is a read-only int32 array, whichever constructor built it, so
    ``dim`` is at most ``2**31 - 1``.
    """

    _args = ("rank",)
    _key = ("rank",)

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
        self._own(dict(rank=arr.astype(np.int32), dim=dim))

    @classmethod
    def _from_valid(cls, rank: np.ndarray) -> "Permutation":
        """Take ownership of an int32 rank array that is a bijection by
        construction, skipping the copy and the checks.

        For generation and the batch lineage maps only: at d = 1e5 the checks
        are about a third of a ``random_permutation`` call. The array is made
        read-only, as the public constructor's copy is.
        """
        return cls._build(rank=rank, dim=int(rank.size))

    def value_at(self, position: int) -> int:
        """The rank assigned to a 1-based position."""
        return int(self.rank[_as_int(position, "position", 1, self.dim) - 1])

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(int(v) for v in self.rank)

    def __repr__(self):
        return f"Permutation({list(self.as_tuple())})"


def _as_hash(value) -> HashValue:
    if value is EMPTY:
        return EMPTY
    if isinstance(value, (int, np.integer)):
        v = int(value)
        if v < 1:
            raise ValidationError(f"hash value {v} must be at least 1 or EMPTY")
        if v > _RANK_MAX:
            # A hash is a rank, and no permutation has a larger one.
            raise ValidationError(
                f"hash value {v} exceeds {_RANK_MAX}, the largest a sketch takes"
            )
        return v
    raise ValidationError(f"{value!r} is not a hash value")


class Sketch(_Value):
    """K minwise hash values for one point, entry j taken under permutation j.

    The sketch holds them once, as ``row``: a read-only int32 hash-matrix row
    with 0 for EMPTY. ``values`` is that row as a tuple of Python ints with
    EMPTY for 0, built on each read.
    """

    _args = ("values",)
    _key = ("row",)

    def __init__(self, values):
        values = [_as_hash(v) for v in values]
        if not values:
            raise ValidationError("a sketch needs at least one slot")
        self._own(dict(row=np.array([0 if v is EMPTY else v for v in values], dtype=np.int32)))

    @property
    def values(self) -> tuple:
        return tuple(EMPTY if v == 0 else v for v in self.row.tolist())

    @property
    def num_perms(self) -> int:
        return self.row.size


class _Batch(_Value):
    """What both batches share: their length and the check against a dimension."""

    def __len__(self) -> int:
        return len(self.positions)

    def validate_for_dim(self, dim: int) -> None:
        if self.positions[-1] > dim:
            raise ValidationError(
                f"position {self.positions[-1]} out of range for dimension {dim}"
            )


class InsertionBatch(_Batch):
    """Sorted distinct positions to insert, with the bit value for each.

    Positions are expressed in the pre-insertion frame; processing them in
    ascending order, insertion i lands at index ``positions[i] + i`` of the
    widened vector (0-based i).

    ``position_array``, ``one_mask`` and ``landed_ones`` are read-only arrays
    built once from the tuples: the positions as int64, which entries insert
    a 1, and the landed positions ``positions[i] + i`` of those 1-bits.
    """

    _args = ("positions", "bits")
    _key = _args

    def __init__(self, positions, bits):
        positions = _as_positions(positions)
        bits = tuple(bits)
        if not positions:
            raise ValidationError("batch must contain at least one position")
        if len(bits) != len(positions):
            raise ValidationError("positions and bits must have equal length")
        if not all(map(_is_bit, bits)):
            raise ValidationError("bits must be 0 or 1")
        bits = tuple(map(int, bits))
        landed = tuple(m + i for i, (m, b) in enumerate(zip(positions, bits)) if b == 1)
        self._own(dict(
            positions=positions,
            bits=bits,
            position_array=_position_array(positions, "position"),
            one_mask=np.array(bits, dtype=bool),
            landed_ones=_position_array(landed, "landed position"),
        ))


class DeletionBatch(_Batch):
    """Sorted distinct positions to delete, in the pre-deletion frame.

    ``position_array`` is the positions as a read-only int64 array.
    """

    _args = ("positions",)
    _key = _args

    def __init__(self, positions):
        positions = _as_positions(positions)
        if not positions:
            raise ValidationError("batch must contain at least one position")
        self._own(dict(positions=positions, position_array=_position_array(positions, "position")))


def _edit_dim(dim: int) -> None:
    """Refuse a dimension past int64, the width of an edit's arithmetic.

    Every support element and position of an edit is at most the largest
    dimension it touches, so within it nothing the edit computes can wrap or
    turn into a float.
    """
    if dim > _INT64_MAX:
        raise ValidationError(
            f"dimension {dim} exceeds {_INT64_MAX}, the largest the vector edits take"
        )


def insert_features(vector: SparseBinaryVector, batch: InsertionBatch) -> SparseBinaryVector:
    """Widen a vector by one slot per batch entry.

    An old feature at position j moves right by the number of batch positions
    at or below j; inserted bit i (ascending order) lands at position
    ``positions[i] + i`` (0-based i) and contributes to the support iff its
    bit is 1.
    """
    # An edit runs once per point: each check is one comparison, which calls
    # the check that gives the message only when it fails.
    if batch.positions[-1] > vector.dim:
        batch.validate_for_dim(vector.dim)
    positions = batch.position_array
    dim = vector.dim + positions.size
    if dim > _INT64_MAX:
        _edit_dim(dim)
    support = vector._index
    # The method form skips np.searchsorted's dispatch; its fresh result
    # takes the shift in place.
    shifted = positions.searchsorted(support, "right")
    shifted += support
    if batch.landed_ones.size:
        shifted = np.concatenate((shifted, batch.landed_ones))
        # Two sorted runs: the stable sort merges them, where the default
        # sort would not use their order.
        shifted.sort(kind="stable")
    return SparseBinaryVector._build(dim=dim, _index=shifted)


def delete_features(vector: SparseBinaryVector, batch: DeletionBatch) -> SparseBinaryVector:
    """Remove the batch positions; surviving position j moves left by the
    number of deleted positions below j."""
    if batch.positions[-1] > vector.dim:
        batch.validate_for_dim(vector.dim)
    if vector.dim > _INT64_MAX:
        _edit_dim(vector.dim)
    positions = batch.position_array
    support = vector._index
    below = positions.searchsorted(support)
    # A support element above every position clips to the last one and is kept.
    kept = positions.take(below, mode="clip") != support
    shifted = np.subtract(support, below, out=below)
    return SparseBinaryVector._build(dim=vector.dim - positions.size, _index=shifted[kept])


def _segment_starts(sizes: np.ndarray) -> np.ndarray:
    """Where each of consecutive segments of the given sizes starts."""
    return sizes.cumsum() - sizes


def _members(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenated ranges [starts[g], starts[g] + sizes[g])."""
    total = int(sizes.sum())
    return np.repeat(starts - _segment_starts(sizes), sizes) + np.arange(total)


class SupportPack(_Value):
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

    _args = ("count", "dim", "flat", "lengths")
    _key = _args

    def __init__(self, count: int, dim: int, flat, lengths):
        """``flat`` holds all 0-based supports concatenated, ``lengths`` the
        per-point support sizes."""
        count, dim = _as_int(count, "point count"), _as_int(dim, "dimension", 0)
        flat = _int64_copy(flat, "packed support entries must be integers")
        lengths = _int64_copy(lengths, "support lengths must be integers")
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
        starts = _segment_starts(lengths)
        self._own(dict(count=count, dim=dim, flat=flat, lengths=lengths, starts=starts))
        step = np.diff(flat)
        # The step into a later point's first entry crosses points: let it pass.
        cross = starts[(starts > 0) & (starts < flat.size)]
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
        return cls._build(
            count=int(lengths.size), dim=dim, flat=flat, lengths=lengths,
            starts=_segment_starts(lengths),
        )


def pack_supports(vectors) -> SupportPack:
    vectors = list(vectors)
    if not vectors:
        raise ValidationError("need at least one point")
    dim = vectors[0].dim
    if any(v.dim != dim for v in vectors):
        raise ValidationError("all points must share one dimension")
    supports = [v._index for v in vectors]
    lengths = np.fromiter(map(len, supports), dtype=np.int64, count=len(supports))
    flat = np.concatenate(supports)
    flat -= 1
    return SupportPack._from_valid(dim, flat, lengths)
