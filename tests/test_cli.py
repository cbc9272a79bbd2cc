"""CLI surface: subcommands, flags, output, and exit codes."""

import csv
import gzip
import io
import re
import zlib

import pytest

from dynsketch.bench.cli import build_parser, main
from dynsketch.estimate import minwise_uniformity_test
from dynsketch.permgen import PermutationSeed, drop_perm, random_permutation


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInsertDeleteCommands:
    def test_insert_writes_csv_to_stdout(self, capsys):
        code, out, err = run_cli(
            [
                "insert",
                "--synthetic", "60,8,12",
                "--num-perms", "8",
                "--n", "3",
                "--seed", "11",
                "--paths", "batch,scratch",
                "--reps", "2",
            ],
            capsys,
        )
        assert code == 0, err
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:6] == ["path", "n", "K", "rmse", "seconds", "speedup"]
        assert {r[0] for r in rows[1:]} == {"batch", "scratch"}

    def test_delete_with_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(
            [
                "delete",
                "--synthetic", "40,6,10",
                "--num-perms", "6",
                "--n", "2,5",
                "--seed", "3",
                "--paths", "batch",
                "--reps", "1",
                "--out", str(target),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        rows = list(csv.reader(io.StringIO(target.read_text())))
        assert len(rows) == 3  # header plus one row per batch size

    def test_human_format(self, capsys):
        code, out, _ = run_cli(
            [
                "insert",
                "--synthetic", "30,5,8",
                "--num-perms", "4",
                "--n", "2",
                "--paths", "batch",
                "--reps", "1",
                "--format", "human",
            ],
            capsys,
        )
        assert code == 0
        assert "experiment mode: insert" in out

    def test_validation_errors_exit_1(self, capsys):
        for argv in (
            ["insert", "--synthetic", "nope"],
            ["insert", "--synthetic", "30,5,8", "--paths", "warp"],
            ["insert", "--synthetic", "30,5,8", "--n", "0"],
            ["insert"],  # neither data nor synthetic
            ["bogus-command"],
        ):
            code, _, err = run_cli(argv, capsys)
            assert code == 1, argv
            assert "error:" in err

    def test_fresh_scratch_refuses_deleting_every_feature(self, capsys):
        argv = ["delete", "--synthetic", "10,3,8", "--num-perms", "4", "--n", "10", "--reps", "1"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == (
            "error: n=10 deletes every feature of dimension 10, which leaves none "
            "to draw fresh scratch permutations over; use --scratch-perms lineage\n"
        )
        code, out, err = run_cli(argv + ["--scratch-perms", "lineage"], capsys)
        assert code == 0, err
        assert [r[:2] for r in csv.reader(io.StringIO(out))][1:] == [
            ["sequential", "10"], ["batch", "10"], ["scratch", "10"]
        ]

    def test_missing_data_file_exits_2(self, capsys):
        code, _, err = run_cli(["insert", "--data", "/no/such/file"], capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["insert", "--synthetic", "30,5,8", "--threads", "2"],
            ["delete", "--synthetic", "30,5,8", "--threads", "2"],
            ["uniformity", "--source", "drop", "--fixed-r", "3"],
        ],
        ids=["insert-threads", "delete-threads", "uniformity-fixed-r"],
    )
    def test_retired_flags_exit_1(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"


class TestParseCheck:
    def test_reports_shape(self, tmp_path, capsys):
        path = tmp_path / "docword.txt"
        path.write_text("3\n5\n2\n1 2 1\n3 5 4\n")
        code, out, _ = run_cli(["parse-check", "--data", str(path)], capsys)
        assert code == 0
        assert out.strip() == "docs=3 vocab=5 nnz=2 empty_docs=1"

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "docword.txt"
        path.write_text("1\n2\n1\n1 9 1\n")
        code, _, err = run_cli(["parse-check", "--data", str(path)], capsys)
        assert code == 2
        assert "wordID" in err


    @pytest.mark.parametrize("command", ["parse-check", "insert", "delete"])
    def test_non_utf8_byte_exits_2_with_its_line(self, tmp_path, capsys, command):
        path = tmp_path / "docword.txt"
        path.write_bytes(b"2\n3\n2\n1 1 1\n2 \xff 1\n")
        code, out, err = run_cli([command, "--data", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: line 5: byte 3 is not UTF-8")

    @pytest.mark.parametrize("command", ["parse-check", "insert", "delete"])
    def test_truncated_gzip_exits_2_with_its_line(self, tmp_path, capsys, command):
        path = tmp_path / "docword.txt.gz"
        cut = gzip.compress(b"1\n2\n2\n1 2 3\n1 1 1\n")[:-12]
        line = zlib.decompressobj(wbits=31).decompress(cut).count(b"\n") + 1
        path.write_bytes(cut)
        code, out, err = run_cli([command, "--data", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: line {line}: gzip data is cut off")


PINNED_LIFT = """source,element,frequency
lift,1,0.325000
lift,7,0.358333
lift,8,0.316667
# lift: trials=120 max_deviation=0.025000
"""


class TestUniformityCommand:
    def test_reports_frequencies_per_source(self, capsys):
        code, out, _ = run_cli(
            [
                "uniformity",
                "--source", "random,drop,lift",
                "--dim", "12",
                "--set-size", "3",
                "--trials", "120",
                "--seed", "2",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "source,element,frequency"
        assert sum(1 for l in lines if l.startswith("random,")) == 3
        assert sum(1 for l in lines if l.startswith("# drop:")) == 1
        assert sum(1 for l in lines if l.startswith("# lift:")) == 1

    def test_bad_source_rejected(self, capsys):
        code, _, err = run_cli(["uniformity", "--source", "psychic"], capsys)
        assert code == 1
        assert "error:" in err

    def test_too_few_trials_rejected(self, capsys):
        code, _, _ = run_cli(
            ["uniformity", "--source", "random", "--set-size", "5", "--trials", "10"],
            capsys,
        )
        assert code == 1

    @pytest.mark.parametrize("source", ["random", "drop", "lift"])
    def test_negative_trials_rejected_by_every_source(self, source, capsys):
        code, out, err = run_cli(["uniformity", "--source", source, "--trials", "-5"], capsys)
        assert code == 1 and out == ""
        assert err == "error: need at least 250 trials for a set of 5 elements\n"

    @pytest.mark.parametrize("dim", [4, 5, 6, 7, 12])
    def test_drop_source_removes_slot_7_or_the_last_slot(self, dim, capsys):
        code, out, err = run_cli(
            ["uniformity", "--source", "drop", "--dim", str(dim), "--set-size", "2",
             "--trials", "200"],
            capsys,
        )
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()[1:-1]]
        support = [int(element) for _, element, _ in rows]
        want = minwise_uniformity_test(
            lambda t: drop_perm(random_permutation(dim, PermutationSeed(0, t)), min(7, dim)),
            support,
            200,
        )
        assert [f for *_, f in rows] == [f"{want.frequencies[u]:.6f}" for u in support]

    def test_lift_frequencies_are_pinned(self, capsys):
        # The lift slots are one draw of --trials integers from the stream
        # [seed, 19]; these are the frequencies that draw gives.
        code, out, _ = run_cli(
            ["uniformity", "--source", "lift", "--dim", "12", "--set-size", "3",
             "--trials", "120", "--seed", "2"],
            capsys,
        )
        assert code == 0
        assert out == PINNED_LIFT


class TestHelp:
    def test_subcommand_help_names_both_experiments(self):
        text = build_parser().format_help()
        assert "feature-insertion" in text
        assert "feature-deletion" in text
        assert "deleteion" not in text

    def test_description_puts_each_subcommand_on_its_own_line(self):
        text = build_parser().format_help()
        description = text.split("positional arguments:")[0]
        for name in ("insert", "delete", "uniformity", "parse-check"):
            assert re.search(rf"^  {name}  ", description, re.M), name
        assert "``" not in text
