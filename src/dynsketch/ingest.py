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
import zlib
from dataclasses import dataclass

import numpy as np

from dynsketch.core import SparseBinaryVector, ValidationError

_GZIP_MAGIC = b"\x1f\x8b"


class ParseError(ValueError):
    """A docword stream was malformed; the message carries the line number."""


@dataclass(frozen=True)
class Corpus:
    """A parsed collection of equal-dimension sparse binary vectors."""

    num_docs: int
    vocab_size: int
    vectors: tuple[SparseBinaryVector, ...]

    def __post_init__(self):
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
    """Parse a docword file, transparently decompressing gzip input."""
    with open(path, "rb") as raw:
        gzipped = raw.read(2) == _GZIP_MAGIC
        raw.seek(0)
        return parse_docword(_utf8_lines(gzip.GzipFile(fileobj=raw) if gzipped else raw))


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
    nnz = sum(len(v.support) for v in corpus.vectors)
    stream.write(f"{corpus.num_docs}\n{corpus.vocab_size}\n{nnz}\n")
    for doc, vector in enumerate(corpus.vectors, start=1):
        for word in vector.support:
            stream.write(f"{doc} {word} 1\n")


def sample_corpus(corpus: Corpus, n: int, seed: int) -> Corpus:
    """Uniform sample of n documents without replacement, in document order."""
    if n < 1:
        raise ValidationError("sample size must be at least 1")
    if n > corpus.num_docs:
        raise ValidationError(
            f"sample size {n} exceeds corpus size {corpus.num_docs}"
        )
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(corpus.num_docs, size=n, replace=False))
    return Corpus(
        num_docs=n,
        vocab_size=corpus.vocab_size,
        vectors=tuple(corpus.vectors[int(i)] for i in chosen),
    )
