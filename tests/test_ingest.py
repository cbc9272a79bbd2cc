"""Docword parsing, serialization, and sampling."""

import gzip
import io
import os
import random
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynsketch import ingest
from dynsketch.bench.synthetic import synthetic_corpus
from dynsketch.core import SparseBinaryVector, ValidationError
from dynsketch.ingest import (
    Corpus,
    ParseError,
    load_docword,
    parse_docword,
    sample_corpus,
    write_docword,
)


def parse_text(text):
    return parse_docword(io.StringIO(text))


class TestParseDocword:
    def test_tiny_corpus(self):
        corpus = parse_text("2\n3\n2\n1 1 4\n2 3 1\n")
        assert corpus.num_docs == 2
        assert corpus.vocab_size == 3
        assert corpus.vectors[0].to_dense() == [1, 0, 0]
        assert corpus.vectors[1].to_dense() == [0, 0, 1]

    def test_counts_binarize(self):
        corpus = parse_text("1\n2\n2\n1 1 7\n1 2 1\n")
        assert corpus.vectors[0].to_dense() == [1, 1]

    def test_zero_count_rejected(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_text("1\n2\n1\n1 1 0\n")

    def test_duplicate_triples_collapse(self):
        corpus = parse_text("1\n3\n2\n1 2 1\n1 2 5\n")
        assert corpus.vectors[0].support == (2,)

    def test_documents_missing_from_triples_stay_empty(self):
        corpus = parse_text("3\n2\n1\n2 1 1\n")
        assert corpus.vectors[0].support == ()
        assert corpus.vectors[1].support == (1,)
        assert corpus.vectors[2].support == ()

    def test_malformed_triple_reports_line(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_text("1\n2\n1\n1 1\n")

    def test_non_integer_field_reports_line(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_text("1\n2\n1\n1 x 1\n")

    def test_ids_out_of_range(self):
        with pytest.raises(ParseError, match="docID"):
            parse_text("1\n2\n1\n2 1 1\n")
        with pytest.raises(ParseError, match="wordID"):
            parse_text("1\n2\n1\n1 3 1\n")

    def test_wrong_triple_count(self):
        with pytest.raises(ParseError, match="extra data"):
            parse_text("1\n2\n1\n1 1 1\n1 2 1\n")
        with pytest.raises(ParseError, match="found 1"):
            parse_text("1\n2\n2\n1 1 1\n")

    def test_truncated_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_text("5\n3\n")


class TestLoadDocword:
    def test_plain_file(self, tmp_path):
        path = tmp_path / "docword.txt"
        path.write_text("1\n2\n1\n1 2 3\n")
        corpus = load_docword(path)
        assert corpus.vectors[0].support == (2,)

    def test_gzip_detected_by_magic(self, tmp_path):
        path = tmp_path / "docword.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("1\n2\n1\n1 2 3\n")
        corpus = load_docword(path)
        assert corpus.vectors[0].support == (2,)

    @pytest.mark.parametrize("compress", [bytes, gzip.compress], ids=["plain", "gzip"])
    def test_bad_byte_past_the_first_chunk_reports_its_line(self, tmp_path, compress):
        # More than 8 KB of good lines come first: a decoder that reads ahead
        # in chunks fails before the parser reaches the bad line.
        good = "".join(f"1 {w} 1\n" for w in range(1, 2001))
        data = f"1\n3000\n2001\n{good}".encode("ascii") + b"1 \xff 1\n"
        path = tmp_path / "docword"
        path.write_bytes(compress(data))
        with pytest.raises(ParseError, match=r"^line 2004: byte 3 is not UTF-8"):
            load_docword(path)

    def test_truncated_gzip_reports_the_line_it_cuts(self, tmp_path):
        text = "1\n5000\n5000\n" + "".join(f"1 {w} 1\n" for w in range(1, 5001))
        whole = gzip.compress(text.encode("ascii"))
        cut = whole[: len(whole) // 2]
        # One past the lines that decompress whole from the cut bytes.
        line = zlib.decompressobj(wbits=31).decompress(cut).count(b"\n") + 1
        assert 3 < line < 5003
        path = tmp_path / "docword.txt.gz"
        path.write_bytes(cut)
        with pytest.raises(ParseError, match=rf"^line {line}: gzip data is cut off"):
            load_docword(path)

    def test_corrupt_gzip_raises_parse_error(self, tmp_path):
        text = "1\n5000\n5000\n" + "".join(f"1 {w} 1\n" for w in range(1, 5001))
        data = bytearray(gzip.compress(text.encode("ascii")))
        data[30] ^= 0xFF  # inside the deflate stream, past the 10-byte header
        path = tmp_path / "docword.txt.gz"
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match=r"^line \d+: gzip data is cut off or corrupt"):
            load_docword(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_docword(tmp_path / "absent.txt")

    @pytest.mark.skipif(
        not os.environ.get("DYNSKETCH_KOS_PATH"),
        reason="set DYNSKETCH_KOS_PATH to a local docword.kos file to enable",
    )
    def test_kos_corpus_shape(self):
        corpus = load_docword(os.environ["DYNSKETCH_KOS_PATH"])
        assert corpus.num_docs == 3430
        assert corpus.vocab_size == 6906


def slow_load(path):
    """load_docword without its block parser: every line through parse_docword."""
    with open(path, "rb") as raw:
        gzipped = raw.read(2) == b"\x1f\x8b"
        raw.seek(0)
        return parse_docword(ingest._utf8_lines(gzip.GzipFile(fileobj=raw) if gzipped else raw))


def outcome(load, path):
    """The corpus a loader returns, or the message of the ParseError it raises."""
    try:
        return load(path)
    except ParseError as exc:
        return f"ParseError: {exc}"


@st.composite
def docword_fields(draw, min_triples=0):
    """[D, W, NNZ] and the (doc, word, count) triples of a valid corpus, some
    of them repeated and, unless sorted, in any order."""
    num_docs = draw(st.integers(1 if min_triples else 0, 6))
    vocab = draw(st.integers(1 if min_triples else 0, 8))
    triple = st.tuples(
        st.integers(1, max(num_docs, 1)),
        st.integers(1, max(vocab, 1)),
        # At most 18 digits with the layout's leading zeros.
        st.integers(1, 10**16 - 1) | st.integers(1, 9),
    )
    triples = (
        draw(st.lists(triple, min_size=min_triples, max_size=40)) if num_docs and vocab else []
    )
    if triples and draw(st.booleans()):
        triples += draw(st.lists(st.sampled_from(triples), max_size=5))
    if draw(st.booleans()):
        triples.sort()
    return [num_docs, vocab, len(triples)], [list(t) for t in triples]


@st.composite
def layouts(draw):
    """How to render fields: leading zeros, separators, line ends, blank lines."""
    return dict(
        zeros=draw(st.integers(0, 2)),
        sep=draw(st.sampled_from([" ", "\t", "  ", " \t "])),
        indent=draw(st.sampled_from(["", " ", "\t"])),
        eol=draw(st.sampled_from(["\n", "\r\n", " \n"])),
        blank=draw(st.sampled_from(["", "\n", "\r\n", " \t\n"])),
        blank_every=draw(st.integers(1, 7)),
        final_eol=draw(st.booleans()),
    )


def render(header, triples, layout):
    """Docword text; a field may already be a string (a mutated token)."""
    def token(value):
        return value if isinstance(value, str) else "0" * layout["zeros"] + str(value)

    rows = [[v] for v in header] + triples
    lines = []
    for i, row in enumerate(rows):
        if i % layout["blank_every"] == 0:
            lines.append(layout["blank"])
        lines.append(layout["indent"] + layout["sep"].join(map(token, row)) + layout["eol"])
    text = "".join(lines)
    return text if layout["final_eol"] else text.rstrip("\r\n")


# Mutations after which the slow path must raise; "non-digit" and "long
# token" may also give a valid file ("+5", "1_0", "0000000000000000000001").
MUTATIONS = (
    "non-digit", "two tokens", "four tokens", "long token", "docID range",
    "wordID range", "count 0", "NNZ", "negative header", "non-UTF-8", "cut gzip",
)


def triple_lines(corpus):
    """The triple lines write_docword gives a corpus."""
    buffer = io.StringIO()
    write_docword(corpus, buffer)
    return buffer.getvalue().splitlines(keepends=True)[3:]


def docword_text(corpus, lines):
    return f"{corpus.num_docs}\n{corpus.vocab_size}\n{len(lines)}\n" + "".join(lines)


class TestBlockParserDifferential:
    """load_docword against the line-at-a-time reader on the same bytes,
    plain and gzip, with blocks far smaller than a file."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("differential") / "docword"

    @settings(max_examples=300, deadline=None)
    @given(
        fields=docword_fields(),
        layout=layouts(),
        compressed=st.booleans(),
        block=st.sampled_from([8, 16, 64, 1 << 18]),
    )
    def test_valid_input_gives_the_same_corpus_without_falling_back(
        self, path, fields, layout, compressed, block
    ):
        data = render(*fields, layout).encode("ascii")
        path.write_bytes(gzip.compress(data) if compressed else data)
        expected = slow_load(path)
        fell_back = AssertionError("the block parser fell back to parse_docword")
        with mock.patch.object(ingest, "_BLOCK_BYTES", block), mock.patch.object(
            ingest, "parse_docword", side_effect=fell_back
        ):
            assert load_docword(path) == expected

    @settings(max_examples=400, deadline=None)
    @given(
        fields=docword_fields(min_triples=1),
        layout=layouts(),
        compressed=st.booleans(),
        block=st.sampled_from([8, 16, 64, 1 << 18]),
        kind=st.sampled_from(MUTATIONS),
        data=st.data(),
    )
    def test_mutated_input_gives_the_same_outcome(
        self, path, fields, layout, compressed, block, kind, data
    ):
        header, triples = fields
        row = data.draw(st.sampled_from(triples))
        field = data.draw(st.integers(0, 2))
        must_fail = True
        bad_byte = None
        if kind == "non-digit":
            char = data.draw(st.sampled_from("x+-_."))
            text = str(row[field])
            at = data.draw(st.integers(0, len(text)))
            row[field] = text[:at] + char + text[at:]
            must_fail = char == "x"
        elif kind == "two tokens":
            del row[2]
        elif kind == "four tokens":
            row.append(1)
        elif kind == "long token":
            digits = data.draw(st.integers(19, 25))
            if data.draw(st.booleans()):
                row[field] = "9" * digits
                must_fail = field != 2
            else:
                row[field] = str(row[field]).rjust(digits, "0")
                must_fail = False
        elif kind == "docID range":
            row[0] = data.draw(st.sampled_from([0, header[0] + 1]))
        elif kind == "wordID range":
            row[1] = data.draw(st.sampled_from([0, header[1] + 1]))
        elif kind == "count 0":
            row[2] = 0
        elif kind == "NNZ":
            header[2] += data.draw(st.sampled_from([-1, 1]))
        elif kind == "negative header":
            at = data.draw(st.integers(0, 2))
            header[at] = -header[at] - 1
        elif kind == "non-UTF-8":
            bad_byte = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"]))
        raw = render(header, triples, layout).encode("ascii")
        if bad_byte is not None:
            # Into the last triple line: past the first block when blocks are small.
            at = data.draw(st.integers(raw.rstrip(b"\r\n").rfind(b"\n") + 1, len(raw)))
            raw = raw[:at] + bad_byte + raw[at:]
        if compressed or kind == "cut gzip":
            raw = gzip.compress(raw)
        if kind == "cut gzip":
            raw = raw[: data.draw(st.integers(2, len(raw) - 1))]
        path.write_bytes(raw)
        expected = outcome(slow_load, path)
        if must_fail:
            assert isinstance(expected, str), kind
        with mock.patch.object(ingest, "_BLOCK_BYTES", block):
            assert outcome(load_docword, path) == expected

    @pytest.mark.parametrize(
        "triple", ["1 1 10000000000000000000", "1 0000000000000000001 1"], ids=["overflow", "zeros"]
    )
    def test_a_token_of_19_digits_goes_to_the_line_reader(self, tmp_path, triple):
        # numpy saturates 10**19 at the int64 maximum instead of failing.
        path = tmp_path / "docword"
        path.write_text(f"1\n2\n1\n{triple}\n", encoding="ascii")
        with mock.patch.object(ingest, "parse_docword", wraps=parse_docword) as slow:
            assert load_docword(path).vectors[0].support == (1,)
        assert slow.call_count == 1

    def test_a_header_value_past_pythons_digit_limit_gives_the_same_error(self, tmp_path):
        # int() refuses 5000 digits with a ValueError of its own.
        path = tmp_path / "docword"
        path.write_text("9" * 5000 + "\n2\n0\n", encoding="ascii")
        assert outcome(load_docword, path) == outcome(slow_load, path)

    @pytest.mark.parametrize("compressed", [False, True], ids=["plain", "gzip"])
    def test_files_of_many_full_size_blocks(self, tmp_path, compressed):
        corpus = synthetic_corpus(20000, 300, 400, seed=3)
        lines = triple_lines(corpus)
        if compressed:
            # Unsorted, with repeats: the sort and the block-wise deduplication.
            rng = random.Random(4)
            lines += rng.sample(lines, 1000)
            rng.shuffle(lines)
        data = docword_text(corpus, lines).encode("ascii")
        assert len(data) > 4 * ingest._BLOCK_BYTES
        path = tmp_path / "docword"
        path.write_bytes(gzip.compress(data) if compressed else data)
        expected = slow_load(path)
        assert expected == corpus
        with mock.patch.object(ingest, "parse_docword", side_effect=AssertionError("fell back")):
            assert load_docword(path) == expected

    @pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
    def test_temporaries_stay_within_a_key_per_triple_and_a_few_blocks(self, tmp_path, shuffled):
        corpus = synthetic_corpus(5000, 1000, 100, seed=5)
        lines = triple_lines(corpus)
        if shuffled:
            random.Random(6).shuffle(lines)
        path = tmp_path / "docword"
        path.write_text(docword_text(corpus, lines), encoding="ascii")
        nnz = len(lines)
        block = 4096
        with mock.patch.object(ingest, "_BLOCK_BYTES", block):
            tracemalloc.start()
            try:
                loaded = load_docword(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert loaded == corpus
        # One int64 key per triple; a whole-file array of the 3 tokens of
        # every triple alone would be three times that.
        assert peak < 8 * nnz + 64 * block + 1000 * corpus.num_docs, peak


def old_write_docword(corpus, stream):
    """write_docword as it was, one write per triple: the format reference."""
    nnz = sum(len(v.support) for v in corpus.vectors)
    stream.write(f"{corpus.num_docs}\n{corpus.vocab_size}\n{nnz}\n")
    for doc, vector in enumerate(corpus.vectors, start=1):
        for word in vector.support:
            stream.write(f"{doc} {word} 1\n")


class CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestWriteDocword:
    def test_round_trip_reproduces_triples(self):
        original = parse_text("3\n4\n4\n1 1 2\n1 4 1\n2 2 9\n3 3 1\n")
        buffer = io.StringIO()
        write_docword(original, buffer)
        reparsed = parse_text(buffer.getvalue())
        assert reparsed == original

    @pytest.mark.parametrize(
        "corpus",
        [
            synthetic_corpus(300, 12, 40, seed=2),
            parse_text("4\n6\n3\n2 6 1\n2 1 3\n4 2 1\n"),
            Corpus(0, 5, ()),
            Corpus(2, 3, (SparseBinaryVector(3), SparseBinaryVector(3))),
        ],
        ids=["synthetic", "empty-documents", "no-documents", "no-triples"],
    )
    def test_one_write_per_nonempty_document_with_the_per_triple_bytes(self, corpus):
        old, new = io.StringIO(), CountingWriter()
        old_write_docword(corpus, old)
        write_docword(corpus, new)
        assert new.getvalue() == old.getvalue()
        assert new.writes == 1 + sum(1 for v in corpus.vectors if v.support)


class TestSampleCorpus:
    def _corpus(self):
        return parse_text("4\n3\n4\n1 1 1\n2 2 1\n3 3 1\n4 1 1\n")

    def test_full_sample_is_identity(self):
        corpus = self._corpus()
        assert sample_corpus(corpus, 4, seed=1).vectors == corpus.vectors

    def test_deterministic_under_seed(self):
        corpus = self._corpus()
        a = sample_corpus(corpus, 2, seed=5)
        b = sample_corpus(corpus, 2, seed=5)
        assert a == b

    @pytest.mark.parametrize("seed", [0, 5, 7, 2**100])
    def test_sampling_shares_no_stream_with_a_permutation(self, seed):
        # Permutation i draws from SeedSequence([seed, i]), as do the bench
        # streams 11, 13, 17 and 19; one document per word tells the picks.
        dim = 200
        corpus = Corpus(dim, dim, tuple(SparseBinaryVector(dim, (w,)) for w in range(1, dim + 1)))
        picked = [v.support[0] - 1 for v in sample_corpus(corpus, 20, seed).vectors]
        for index in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
            assert picked != np.sort(rng.choice(dim, size=20, replace=False)).tolist()

    def test_sampled_vectors_keep_dimension(self):
        sampled = sample_corpus(self._corpus(), 3, seed=2)
        assert all(v.dim == 3 for v in sampled.vectors)

    def test_bad_sizes_rejected(self):
        corpus = self._corpus()
        with pytest.raises(ValidationError):
            sample_corpus(corpus, 0, seed=1)
        with pytest.raises(ValidationError):
            sample_corpus(corpus, 5, seed=1)


class TestCorpusType:
    def test_mismatched_dimensions_rejected(self):
        good = parse_text("1\n2\n1\n1 1 1\n")
        with pytest.raises(ValidationError):
            Corpus(num_docs=1, vocab_size=3, vectors=good.vectors)
        with pytest.raises(ValidationError):
            Corpus(num_docs=2, vocab_size=2, vectors=good.vectors)
