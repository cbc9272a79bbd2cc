"""Docword parsing, serialization, and sampling."""

import gzip
import io
import os
import zlib

import pytest

from dynsketch.core import ValidationError
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


class TestWriteDocword:
    def test_round_trip_reproduces_triples(self):
        original = parse_text("3\n4\n4\n1 1 2\n1 4 1\n2 2 9\n3 3 1\n")
        buffer = io.StringIO()
        write_docword(original, buffer)
        reparsed = parse_text(buffer.getvalue())
        assert reparsed == original


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
