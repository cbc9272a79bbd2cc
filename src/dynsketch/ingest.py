"""Parsing of "bag of words" docword corpora into sparse binary vectors.

The expected text format is three integer header lines

    D        number of documents
    W        vocabulary size
    NNZ      number of (docID, wordID, count) triples that follow

followed by exactly NNZ lines of ``docID wordID count`` with 1-based ids.
Counts are binarized: a word is present iff its count is at least 1.
Gzip-compressed files are detected by magic bytes in :func:`load_docword`.
"""

from __future__ import annotations

import gzip
import os
import zlib
from dataclasses import dataclass

import numpy as np

from dynsketch.core import _INT64_MAX, SparseBinaryVector, ValidationError, _as_int

_GZIP_MAGIC = b"\x1f\x8b"

# The fast path of load_docword reads blocks of about this many bytes...
_BLOCK_BYTES = 1 << 18
# ...holding only digits and the whitespace bytes parse_docword splits on.
_TEXT_BYTES = b"0123456789 \t\r\n"
# The longest token the fast path reads: numpy saturates a longer one at the
# int64 maximum instead of failing.
_MAX_DIGITS = 18
# deflate expands one compressed byte to at most this many.
_DEFLATE_MAX_RATIO = 1032


class ParseError(ValueError):
    """A docword stream was malformed; the message carries the line number."""


@dataclass(frozen=True)
class Corpus:
    """A parsed collection of equal-dimension sparse binary vectors; both
    sizes are stored as Python ints."""

    num_docs: int
    vocab_size: int
    vectors: tuple[SparseBinaryVector, ...]

    def __post_init__(self):
        for name in ("num_docs", "vocab_size"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if len(self.vectors) != self.num_docs:
            raise ValidationError(
                f"corpus has {len(self.vectors)} vectors but num_docs={self.num_docs}"
            )
        for v in self.vectors:
            if v.dim != self.vocab_size:
                raise ValidationError(
                    f"vector dimension {v.dim} != vocab_size {self.vocab_size}"
                )


def _int_field(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: {what} {token!r} is not an integer") from None


def parse_docword(stream) -> Corpus:
    """Parse a docword text stream into a binarized corpus.

    Duplicate (docID, wordID) triples collapse to a single 1; documents that
    never appear in the triples become empty-support vectors so the document
    count is preserved.
    """
    header = []
    lines = enumerate(stream, start=1)
    lineno = 0
    for lineno, raw in lines:
        text = raw.strip()
        if not text:
            continue
        header.append(_int_field(text, lineno, "header value"))
        if len(header) == 3:
            break
    if len(header) < 3:
        raise ParseError(f"line {lineno}: stream ended before the D/W/NNZ header")
    num_docs, vocab_size, nnz = header
    if num_docs < 0 or vocab_size < 0 or nnz < 0:
        raise ParseError(f"line {lineno}: header values must be non-negative")

    supports = [set() for _ in range(num_docs)]
    seen = 0
    for lineno, raw in lines:
        text = raw.strip()
        if not text:
            continue
        if seen >= nnz:
            raise ParseError(
                f"line {lineno}: expected {nnz} triples but found extra data"
            )
        fields = text.split()
        if len(fields) != 3:
            raise ParseError(
                f"line {lineno}: expected 'docID wordID count', got {text!r}"
            )
        doc = _int_field(fields[0], lineno, "docID")
        word = _int_field(fields[1], lineno, "wordID")
        count = _int_field(fields[2], lineno, "count")
        if not 1 <= doc <= num_docs:
            raise ParseError(f"line {lineno}: docID {doc} out of range 1..{num_docs}")
        if not 1 <= word <= vocab_size:
            raise ParseError(
                f"line {lineno}: wordID {word} out of range 1..{vocab_size}"
            )
        if count < 1:
            raise ParseError(f"line {lineno}: count must be at least 1, got {count}")
        supports[doc - 1].add(word)
        seen += 1
    if seen < nnz:
        raise ParseError(f"line {lineno}: expected {nnz} triples but found {seen}")

    vectors = tuple(
        SparseBinaryVector(vocab_size, tuple(sorted(s))) for s in supports
    )
    return Corpus(num_docs=num_docs, vocab_size=vocab_size, vectors=vectors)


def load_docword(path) -> Corpus:
    """Parse a docword file, transparently decompressing gzip input.

    ASCII input is parsed with numpy in line-aligned blocks of about
    ``_BLOCK_BYTES``. A file the block parser does not accept whole (a byte
    other than a digit or ``' \\t\\r\\n'``, a line of other than three tokens,
    a token numpy cannot read exactly, an out-of-range value, a triple count
    that does not match, a gzip error) is read again by :func:`parse_docword`,
    which raises its line-numbered ``ParseError``. Both give equal corpora.
    """
    with open(path, "rb") as raw:
        gzipped = raw.read(2) == _GZIP_MAGIC
        max_bytes = os.fstat(raw.fileno()).st_size * (_DEFLATE_MAX_RATIO if gzipped else 1)

        def rewound():
            raw.seek(0)
            return gzip.GzipFile(fileobj=raw) if gzipped else raw

        try:
            return _parse_blocks(rewound(), max_bytes)
        except (_Unexpected, EOFError, gzip.BadGzipFile, zlib.error):
            # The gzip errors can only come from reading; the slow path
            # meets them again and names the line they fall in.
            return parse_docword(_utf8_lines(rewound()))


class _Unexpected(Exception):
    """Input the block parser does not take; the slow path reads it again."""


def _parse_blocks(binary, max_bytes: int) -> Corpus:
    """The fast path of :func:`load_docword` on a binary stream of at most
    ``max_bytes`` bytes.

    Each triple becomes one int64 key ``doc * (W + 1) + word``, written into
    one NNZ-long array; every other temporary is block-sized. The keys are
    sorted and deduplicated only when they do not already strictly increase.
    """
    num_docs, vocab_size, nnz = _read_header(binary)
    # Valid text takes at least 6 bytes a triple ("1 1 1\n"; a last line
    # without its newline leaves the header's), so a larger NNZ cannot match
    # and would only size the array.
    if 6 * nnz > max_bytes or (num_docs + 1) * (vocab_size + 1) > _INT64_MAX:
        raise _Unexpected
    stride = vocab_size + 1
    keys = np.empty(nnz, dtype=np.int64)
    filled = 0
    ordered = True  # the keys so far strictly increase
    for block in _blocks(binary):
        triples = _block_triples(block)
        m = len(triples)
        if not m:
            continue
        if filled + m > nnz:
            raise _Unexpected
        doc, word, count = triples.T
        if not (
            1 <= doc.min() and doc.max() <= num_docs
            and 1 <= word.min() and word.max() <= vocab_size
            and 1 <= count.min()
        ):
            raise _Unexpected
        out = keys[filled:filled + m]
        np.multiply(doc, stride, out=out)
        out += word
        if ordered:
            ordered = (filled == 0 or out[0] > keys[filled - 1]) and bool(
                np.all(out[1:] > out[:-1])
            )
        filled += m
    if filled != nnz:
        raise _Unexpected
    if not ordered:
        keys.sort()
        keys = _drop_repeats(keys)
    # Document d's keys lie in d*stride+1 .. d*stride+W.
    bounds = np.searchsorted(keys, np.arange(1, num_docs + 2, dtype=np.int64) * stride).tolist()
    np.remainder(keys, stride, out=keys)
    vectors = tuple(
        SparseBinaryVector._from_valid(vocab_size, keys[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    )
    return Corpus(num_docs=num_docs, vocab_size=vocab_size, vectors=vectors)


def _read_header(binary) -> tuple[int, int, int]:
    """D, W and NNZ from the first three non-blank lines, one token each."""
    header = []
    while len(header) < 3:
        line = binary.readline()
        if not line or line.translate(None, _TEXT_BYTES):
            raise _Unexpected
        tokens = line.split()
        if len(tokens) > 1 or any(len(t) > _MAX_DIGITS for t in tokens):
            raise _Unexpected
        header += map(int, tokens)
    return header[0], header[1], header[2]


def _blocks(binary):
    """The rest of the stream in blocks cut after their last newline (the
    final block may lack one), each holding only ``_TEXT_BYTES``."""
    carry = b""
    while chunk := binary.read(_BLOCK_BYTES):
        if chunk.translate(None, _TEXT_BYTES):
            raise _Unexpected
        block = carry + chunk
        cut = block.rfind(b"\n") + 1
        carry = block[cut:]
        if cut:
            yield block[:cut]
    if carry:
        yield carry


def _block_triples(block: bytes) -> np.ndarray:
    """The (m, 3) int64 triples of a block of ``_TEXT_BYTES`` whose non-blank
    lines each hold three tokens of at most ``_MAX_DIGITS`` digits."""
    text = np.frombuffer(block, dtype=np.uint8)
    # Whether each byte is a digit (the only bytes below "0" are
    # whitespace), with a non-digit on either side.
    digit = np.zeros(text.size + 2, dtype=bool)
    np.greater_equal(text, ord("0"), out=digit[1:-1])
    starts = np.flatnonzero(digit[1:] > digit[:-1])
    if not starts.size:  # numpy reads a blank block as one 0
        return np.empty((0, 3), dtype=np.int64)
    if (np.flatnonzero(digit[:-1] > digit[1:]) - starts).max() > _MAX_DIGITS:
        raise _Unexpected
    before_newline = np.searchsorted(starts, np.flatnonzero(text == ord("\n")))
    per_line = np.diff(before_newline, prepend=0, append=starts.size)
    if not np.all((per_line == 0) | (per_line == 3)):
        raise _Unexpected
    values = np.fromstring(block, dtype=np.int64, sep=" ")
    if values.size != starts.size:
        raise _Unexpected
    return values.reshape(-1, 3)


def _drop_repeats(keys: np.ndarray) -> np.ndarray:
    """The distinct values of sorted ``keys``, compacted to its front in
    place one block at a time."""
    kept, last = 0, -1  # every key is positive
    for lo in range(0, keys.size, _BLOCK_BYTES // 8):
        block = keys[lo:lo + _BLOCK_BYTES // 8]
        fresh = block[np.diff(block, prepend=last) != 0]
        last = block[-1]
        keys[kept:kept + fresh.size] = fresh
        kept += fresh.size
    return keys[:kept]


def _utf8_lines(binary):
    """Decode a binary stream one line at a time, so that a byte that is not
    UTF-8, or gzip data that is cut off, fails as a ``ParseError`` naming the
    line it falls in."""
    lineno = 0
    try:
        for lineno, raw in enumerate(binary, start=1):
            yield raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"line {lineno}: byte {exc.start + 1} is not UTF-8 ({exc.reason})"
        ) from None
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        # The line being read when the data ran out or broke.
        raise ParseError(
            f"line {lineno + 1}: gzip data is cut off or corrupt ({exc})"
        ) from None


def write_docword(corpus: Corpus, stream) -> None:
    """Serialize a binarized corpus back to docword text (all counts are 1)."""
    nnz = sum(v.support_index().size for v in corpus.vectors)
    stream.write(f"{corpus.num_docs}\n{corpus.vocab_size}\n{nnz}\n")
    for doc, vector in enumerate(corpus.vectors, start=1):
        words = vector.support_index().tolist()
        if words:  # one write per document
            stream.write(f"{doc} " + f" 1\n{doc} ".join(map(str, words)) + " 1\n")


def sample_corpus(corpus: Corpus, n: int, seed: int) -> Corpus:
    """Uniform sample of n documents without replacement, in document order."""
    n = _as_int(n, "sample size")
    if n < 1:
        raise ValidationError("sample size must be at least 1")
    if n > corpus.num_docs:
        raise ValidationError(
            f"sample size {n} exceeds corpus size {corpus.num_docs}"
        )
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    # Entropy ending in two zero words, which no [seed, i] list assembles
    # to: sampling shares no stream with a permutation or a bench stream.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 0)))
    chosen = np.sort(rng.choice(corpus.num_docs, size=n, replace=False))
    return Corpus(
        num_docs=n,
        vocab_size=corpus.vocab_size,
        vectors=tuple(corpus.vectors[int(i)] for i in chosen),
    )
