import hashlib
import importlib
import io
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import addrseq
from addrseq.analysis import _CHUNK
import addrseq.cli as cli
import addrseq.formats
from addrseq.cli import _read_bytes, main
from addrseq.formats import CSV_HEADER, SequenceParseError, _packed_input, _unpacked

import _line_format
import _line_parser
from _near_miss import near_miss_lines
from _stepper import gray_address, step_words
from _tables import (
    FAMILY_MATRICES,
    PERMUTED_M3_SWAP31,
    TABLE_B0_3,
    TABLE_DIRECT,
    TABLE_DOWN,
    TABLE_SHIFT_3,
    TABLE_UP,
    WORKED_ROWS,
)
from test_families import permute_reference

WORKED_TEXT = "m=4\n" + "\n".join(WORKED_ROWS) + "\n"


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "V.txt"
    path.write_text(WORKED_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_words(out):
    return [int(ln, 2) for ln in out.splitlines() if ln]


# -- gen ---------------------------------------------------------------------------


def test_gen_from_matrix_file_emits_recursive_run(capsys, worked_file):
    code, out, _ = run_cli(capsys, "gen", "-m", "4", "--matrix", worked_file)
    assert code == 0
    assert out_words(out) == TABLE_UP


def test_gen_linear_family_decimal(capsys):
    code, out, _ = run_cli(capsys, "gen", "-m", "4", "--family", "linear", "--format", "dec")
    assert code == 0
    assert [int(x) for x in out.split()] == list(range(16))


def test_gen_direct_engine(capsys, worked_file):
    code, out, _ = run_cli(capsys, "gen", "--matrix", worked_file, "--engine", "direct")
    assert code == 0
    assert out_words(out) == TABLE_DIRECT


def test_gen_down(capsys, worked_file):
    code, out, _ = run_cli(capsys, "gen", "--matrix", worked_file, "--down")
    assert code == 0
    assert out_words(out) == TABLE_DOWN


def test_gen_shift(capsys, worked_file):
    code, out, _ = run_cli(capsys, "gen", "--matrix", worked_file, "--shift", "3")
    assert code == 0
    assert out_words(out) == TABLE_SHIFT_3


def test_gen_b0_accepts_binary_and_decimal(capsys, worked_file):
    for flag in ("0b0011", "3"):
        code, out, _ = run_cli(capsys, "gen", "--matrix", worked_file, "--b0", flag)
        assert code == 0
        assert out_words(out) == TABLE_B0_3


@pytest.mark.parametrize("flag", ["--a0", "--b0"])
@pytest.mark.parametrize("text", ["1_0", "+1", "-1", "\u0663", " 1", "0x"])
def test_gen_start_flags_take_only_address_text(capsys, flag, text):
    # int(text, 0) once read `1_0` as ten and the Arabic-Indic three as 3
    with pytest.raises(SystemExit) as exc:
        main(["gen", "-m", "4", "--family", "linear", flag, text, "--count", "2"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert f"{text!r} is not an integer (use decimal, or a 0b/0x prefix)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "-m", "{}", "--family", "linear"],
        ["gen", "-m", "4", "--family", "linear", "--count", "{}"],
        ["gen", "-m", "4", "--family", "linear", "--shift", "{}"],
        ["gen", "-m", "4", "--family", "random", "--seed", "{}"],
        ["matrix", "-m", "4", "--family", "random", "--seed", "{}"],
        ["verify", "-m", "4", "--max-r", "{}"],
        ["verify", "-m", "4", "--max-m", "{}"],
        ["analyze", "-m", "{}"],
        ["rank-stats", "-m", "4", "-n", "{}"],
        ["rank-stats", "-m", "4", "--seed", "{}"],
        ["permute", "-m", "{}", "--perm", "1"],
    ],
    ids=lambda argv: argv[0] + argv[argv.index("{}") - 1],
)
@pytest.mark.parametrize("text", ["\u0664", "+2", "1_0", " 1", "2 ", "1-", "0x4"])
def test_integer_options_take_only_ascii_digits(capsys, argv, text):
    # int() once read the Arabic-Indic four as 4, `+2` as 2 and `1_0` as ten
    with pytest.raises(SystemExit) as exc:
        main([a.format(text) for a in argv])
    assert exc.value.code == 2
    assert f"{text!r} is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,conflict",
    [
        (["gen", "-m", "4", "--family", "random:seed=1", "--seed", "2"], "the seed is given twice"),
        (["gen", "-m", "4", "--family", "linear", "--seed", "3"], "linear takes no seed"),
        (["matrix", "-m", "4", "--family", "linear", "--seed", "3"], "linear takes no seed"),
        (["gen", "--matrix", "V.txt", "--seed", "3"], "a --matrix file takes no seed"),
    ],
    ids=["gen-seeded-random", "gen-linear", "matrix-linear", "gen-matrix-file"],
)
def test_a_seed_that_would_go_unused_exits_2(capsys, worked_file, argv, conflict):
    # each of these once printed a run that ignored --seed, and exited 0
    argv = [worked_file if a == "V.txt" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("addrseq: ") and err.count("\n") == 1 and conflict in err


def test_seed_still_seeds_a_bare_random_spec(capsys):
    code, out, _ = run_cli(capsys, "gen", "-m", "4", "--family", "random", "--seed", "1")
    assert code == 0
    assert out == run_cli(capsys, "gen", "-m", "4", "--family", "random:1")[1]


def test_integer_options_keep_their_range_checks(capsys):
    code, out, err = run_cli(capsys, "gen", "-m", "4", "--family", "linear", "--count", "-1")
    assert (code, out, err) == (2, "", "addrseq: count must be in 0..2^4, got -1\n")
    code, out, _ = run_cli(capsys, "rank-stats", "-m", "2", "-n", "3", "--seed", "-3")
    assert (code, out.splitlines()[3]) == (0, "seed=-3")
    code, out, _ = run_cli(capsys, "gen", "-m", "04", "--family", "pow2:01", "--count", "02")
    assert (code, out) == (0, "0000\n0010\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["permute", "-m", "4", "--perm", " 1,2,3,4"],
         "--perm expects a comma list of positions, got ' 1,2,3,4'"),
        (["permute", "-m", "4", "--perm", "+1,2,3,4"],
         "--perm expects a comma list of positions, got '+1,2,3,4'"),
        (["gen", "-m", "4", "--family", "pow2:\u0663"], "bad family 'pow2:\u0663': '\u0663' is not an integer"),
        (["gen", "-m", "4", "--family", "pow2: 1"], "bad family 'pow2: 1': ' 1' is not an integer"),
        (["gen", "-m", "4", "--family", "gray:1,2,3,+4"], "bad family 'gray:1,2,3,+4': '+4' is not an integer"),
        (["gen", "-m", "4", "--family", "random:1_0"], "bad family 'random:1_0': '1_0' is not an integer"),
        (["gen", "-m", "4", "--family", "random:seed=1_0"],
         "bad family 'random:seed=1_0': '1_0' is not an integer"),
    ],
    ids=["perm-space", "perm-plus", "pow2-digit", "pow2-space", "gray-plus", "random", "random-seed"],
)
def test_list_and_family_integers_take_only_ascii_digits(capsys, monkeypatch, argv, message):
    monkeypatch.setattr("sys.stdin", io.StringIO("0000\n0001\n"))
    assert run_cli(capsys, *argv) == (2, "", f"addrseq: {message}\n")


def test_gen_matrix_file_that_is_not_utf8_names_its_line(capsys, tmp_path):
    # this once failed with "'utf-8' codec can't decode byte 0xff in position 8"
    path = tmp_path / "V.txt"
    path.write_bytes(b"m=2\n10\n0\xff\n")
    code, out, err = run_cli(capsys, "gen", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert err == "addrseq: line 3: expected 2 characters of 0/1, got '0\\udcff'\n"


def test_gen_count_limits_output(capsys):
    code, out, _ = run_cli(capsys, "gen", "-m", "3", "--family", "gray", "--count", "5")
    assert code == 0
    assert out_words(out) == [0, 1, 3, 2, 6]


def test_gen_rejects_rank_deficient_matrix(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("m=4\n1011\n1011\n0101\n1111\n")
    code, _, err = run_cli(capsys, "gen", "--matrix", str(path))
    assert code == 2
    assert "rank 3" in err


def test_gen_rejects_m_mismatch(capsys, worked_file):
    code, _, err = run_cli(capsys, "gen", "-m", "5", "--matrix", worked_file)
    assert code == 2
    assert "conflicts" in err


def test_gen_rejects_wide_m(capsys):
    code, _, err = run_cli(capsys, "gen", "-m", "65", "--family", "linear")
    assert code == 2
    assert err == "addrseq: m must be in 1..64, got 65\n"


def test_gen_family_needs_a_width(capsys):
    code, out, err = run_cli(capsys, "gen", "--family", "linear")
    assert (code, out, err) == (2, "", "addrseq: -m is required with --family\n")


def test_gen_matrix_file_wider_than_64_states_the_width_rule(capsys, tmp_path):
    # the matrix once said "matrix size must be in 1..64", where every other entry point
    # states the rule as below
    path = tmp_path / "V.txt"
    path.write_text("m=65\n" + ("0" * 65 + "\n") * 65)
    code, out, err = run_cli(capsys, "gen", "--matrix", str(path))
    assert (code, out, err) == (2, "", "addrseq: m must be in 1..64, got 65\n")


def test_gen_with_an_empty_matrix_path_reads_that_path(capsys):
    # an empty path once read as "no --matrix" and fell through to the family, which is
    # None, ending in an AttributeError traceback
    code, out, err = run_cli(capsys, "gen", "--matrix", "", "-m", "3")
    assert (code, out) == (2, "")
    assert err.startswith("addrseq: ") and err.endswith("\n") and err.count("\n") == 1


def test_gen_flag_conflicts(capsys, worked_file):
    code, _, err = run_cli(capsys, "gen", "--matrix", worked_file, "--shift", "3", "--b0", "1")
    assert code == 2
    assert "--shift" in err
    code, _, err = run_cli(capsys, "gen", "--matrix", worked_file, "--engine", "direct", "--down")
    assert code == 2
    assert "direct" in err


@pytest.mark.parametrize(
    "flags,conflict",
    [
        (["--shift", "3", "--a0", "0"], "--shift"),
        (["--shift", "3", "--b0", "0"], "--shift"),
        (["--shift", "0", "--down"], "--shift"),
        (["--engine", "direct", "--a0", "0"], "direct"),
        (["--engine", "direct", "--b0", "0b0"], "direct"),
        (["--engine", "direct", "--down"], "direct"),
        (["--engine", "direct", "--shift", "0"], "direct"),
    ],
    ids=" ".join,
)
def test_gen_conflicts_test_presence_not_value(capsys, flags, conflict):
    # an option given at its default value once went silently unused
    code, out, err = run_cli(capsys, "gen", "-m", "4", "--family", "linear", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("addrseq: ") and err.count("\n") == 1 and conflict in err


def test_gen_start_flags_at_zero_emit_the_default_run(capsys, worked_file):
    assert run_cli(capsys, "gen", "--matrix", worked_file, "--a0", "0", "--b0", "0b0") == (
        run_cli(capsys, "gen", "--matrix", worked_file)
    )


def test_gen_requires_exactly_one_source(capsys, worked_file):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "-m", "4", "--family", "linear", "--matrix", worked_file])
    assert exc.value.code == 2
    capsys.readouterr()


# sha256 of `gen --family random:1` output in the four variants the benchmark times, at
# m = 12 and m = 17, so that any byte a faster formatter changes shows
GEN_GOLDEN = {
    ("-m", "12"): "f43c0151ede6efc1198d982a95085b315ee5fd9a5633876fa3daec8e1871e699",
    ("-m", "12", "--down", "--a0", "0x5a3", "--b0", "0x1c7", "--format", "hex"):
        "575014e4f4d692bb1bfcef59facb783d243ff9e48de4f8f3d76f919543dcaa53",
    ("-m", "12", "--shift", "1234", "--format", "dec"):
        "c17651199c52d9f05b37d3ddd8f373f7778dae0b814c14444f5a234a5ea9afd9",
    ("-m", "12", "--engine", "direct", "--format", "csv"):
        "41d8ed06281b7c98c6e53a92a19328e37816d26100ffb6774c3af8b20c0cfcd9",
    ("-m", "17"): "a30086c5f99dcbca1b894cceead72ef61149436bdeb96e2cfe49be92d6a6d34e",
    ("-m", "17", "--down", "--a0", "0x1b2c3", "--b0", "0x0d4e5", "--format", "hex"):
        "166ab419f0318796a438eb2320f87118394d4baafd0d2bc0f0169ede43e4fd8b",
    ("-m", "17", "--shift", "98765", "--format", "dec"):
        "e96cb02348de9aecabe1cc6a4efdfee58d51a38e88017450ca52801133f8f531",
    ("-m", "17", "--engine", "direct", "--format", "csv"):
        "d02d2094beedbed90b7d03922e7f75fc6b01f8df6a48a2ff7013de81f57558be",
}


@pytest.mark.parametrize("args", list(GEN_GOLDEN), ids=" ".join)
def test_gen_output_is_pinned(capsys, args):
    code, out, err = run_cli(capsys, "gen", "--family", "random:1", *args)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, GEN_GOLDEN[args], "")


# -- matrix -------------------------------------------------------------------------


def test_matrix_complement(capsys):
    code, out, _ = run_cli(capsys, "matrix", "-m", "4", "--family", "complement")
    assert code == 0
    assert out == "m=4\n" + "\n".join(FAMILY_MATRICES["complement"]) + "\n"


def test_matrix_gray_unit_rows(capsys):
    code, out, _ = run_cli(capsys, "matrix", "-m", "4", "--family", "gray")
    assert code == 0
    assert out.splitlines()[1:] == list(FAMILY_MATRICES["gray"])


def test_matrix_random_is_deterministic(capsys):
    code, first, _ = run_cli(capsys, "matrix", "-m", "6", "--family", "random:seed=7")
    assert code == 0
    code, second, _ = run_cli(capsys, "matrix", "-m", "6", "--family", "random:seed=7")
    assert code == 0
    assert first == second


def test_matrix_check_reports_rank(capsys):
    code, out, err = run_cli(capsys, "matrix", "-m", "4", "--family", "limited", "--check")
    assert code == 0
    assert "rank=4" in err
    assert out.startswith("m=4\n")


def test_matrix_unknown_family(capsys):
    code, _, err = run_cli(capsys, "matrix", "-m", "4", "--family", "fancy")
    assert code == 2
    assert "unknown family" in err


@pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\x1c", "\u3000"])
def test_family_names_strip_only_ascii_whitespace(capsys, space):
    # a no-break space once stripped like a blank, so this printed the linear run
    assert run_cli(capsys, "gen", "-m", "2", "--family", f"linear{space}") == (
        2, "", f"addrseq: unknown family {f'linear{space}'!r} (expected one of "
        "linear, pow2, complement, limited, gray, quasi, random)\n")
    code, out, _ = run_cli(capsys, "gen", "-m", "2", "--family", " \tLinear\r\n")
    assert (code, out) == (0, "00\n01\n10\n11\n")


# -- verify / analyze ------------------------------------------------------------------


def write_sequence(tmp_path, words, m=4, fmt="bin"):
    from addrseq import format_lines

    path = tmp_path / "seq.txt"
    path.write_text("\n".join(format_lines(words, m, fmt)) + "\n")
    return str(path)


def test_verify_accepts_the_worked_column(capsys, tmp_path):
    path = write_sequence(tmp_path, TABLE_UP)
    code, out, _ = run_cli(capsys, "verify", "-m", "4", path)
    assert code == 0
    assert "complete=true" in out


def test_verify_fails_truncated_input(capsys, tmp_path):
    path = write_sequence(tmp_path, TABLE_UP[:10])
    code, out, _ = run_cli(capsys, "verify", "-m", "4", path)
    assert code == 1
    assert "complete=false" in out


def test_verify_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(f"{w:04b}" for w in TABLE_UP)))
    code, out, _ = run_cli(capsys, "verify", "-m", "4")
    assert code == 0
    assert "complete=true" in out


def test_verify_reports_parse_errors_with_line_numbers(capsys, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("0000\nxyzw\n1111\n")
    code, _, err = run_cli(capsys, "verify", "-m", "4", str(path))
    assert code == 2
    assert "line 2" in err


def test_verify_width_cap(capsys, tmp_path):
    path = write_sequence(tmp_path, [0], m=30)
    code, _, err = run_cli(capsys, "verify", "-m", "30", str(path))
    assert code == 2
    assert "--max-m" in err


def test_analyze_always_exits_zero(capsys, tmp_path):
    path = write_sequence(tmp_path, TABLE_UP[:10])
    code, out, _ = run_cli(capsys, "analyze", "-m", "4", str(path))
    assert code == 0
    assert "complete=false" in out
    assert "per_bit_transitions=" in out


def test_analyze_gray_column_reports_unit_distances(capsys, tmp_path):
    code = main(["gen", "-m", "4", "--family", "gray"])
    out = capsys.readouterr().out
    path = tmp_path / "gray.txt"
    path.write_text(out)
    code, report, _ = run_cli(capsys, "analyze", "-m", "4", str(path))
    assert code == 0
    assert "hamming_min=1" in report
    assert "hamming_max=1" in report
    assert "hamming_histogram=1:15" in report


@pytest.mark.parametrize("fmt", ["bin", "dec", "hex", "csv"])
def test_gen_verify_round_trip_every_format(capsys, tmp_path, fmt):
    code = main(["gen", "-m", "4", "--family", "limited", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    path = tmp_path / "seq.txt"
    path.write_text(out)
    code, report, _ = run_cli(capsys, "verify", "-m", "4", str(path))
    assert code == 0
    assert "balance_failures=0" in report


def test_gen_csv_piped_into_verify_passes(capsys, monkeypatch):
    assert main(["gen", "-m", "6", "--family", "random:4", "--format", "csv", "--b0", "9"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    code, out, _ = run_cli(capsys, "verify", "-m", "6")
    assert code == 0 and "complete=true" in out


@pytest.mark.parametrize(
    "row,reason",
    [
        ("foo,bar,0010,", "address_dec does not match address_bin"),
        ("2,3,0010,1", "address_dec does not match address_bin"),
        ("x,2,0010,1", "n and hamming_to_prev must be ASCII digits"),
        ("2,2,0010,", "n and hamming_to_prev must be ASCII digits"),
        ("7,2,0010,2", "n does not count the rows from 0"),
        ("2,2,0010,1", "hamming_to_prev is not the distance to the row before"),
    ],
    ids=["words", "dec", "n", "distance", "order", "hamming"],
)
def test_csv_row_whose_columns_disagree_names_its_line(capsys, monkeypatch, row, reason):
    lines = list(addrseq.format_lines(range(16), 4, "csv"))
    lines[3] = row  # the row numbered 2, on line 4
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, err = run_cli(capsys, "verify", "-m", "4")
    assert (code, out) == (2, "")
    assert err == f"addrseq: line 4: {reason}: {row!r}\n"


def test_analyze_refuses_csv_rows_out_of_order(capsys, monkeypatch):
    # rows numbered 0, 7 and 2, with distances 3 and 0 where the addresses differ in one bit each,
    # once read as a report with exit 0
    rows = ["0,0,0000,", "7,1,0001,3", "2,3,0011,0"]
    monkeypatch.setattr("sys.stdin", io.StringIO(as_text(["n,address_dec,address_bin,hamming_to_prev", *rows])))
    code, out, err = run_cli(capsys, "analyze", "-m", "4")
    assert (code, out) == (2, "")
    assert err == "addrseq: line 3: n does not count the rows from 0: '7,1,0001,3'\n"


@pytest.mark.parametrize(
    "family", ["linear", "pow2:1", "complement", "limited", "gray", "quasi", "random:3"]
)
@pytest.mark.parametrize("m", [1, 4, 6])
def test_gen_verify_round_trip_families(capsys, tmp_path, family, m):
    if family in ("limited", "pow2:1") and m == 1:
        pytest.skip("family needs m >= 2")
    code = main(["gen", "-m", str(m), "--family", family])
    out = capsys.readouterr().out
    assert code == 0
    path = tmp_path / "seq.txt"
    path.write_text(out)
    code, _, _ = run_cli(capsys, "verify", "-m", str(m), str(path))
    assert code == 0


def test_gen_verify_round_trip_random_matrix_file(capsys, tmp_path):
    from addrseq import random_fullrank_matrix

    path = tmp_path / "R.txt"
    path.write_text(random_fullrank_matrix(5, seed=31).to_text())
    code = main(["gen", "--matrix", str(path), "--b0", "11", "--a0", "0b10010"])
    out = capsys.readouterr().out
    assert code == 0
    seq = tmp_path / "seq.txt"
    seq.write_text(out)
    code, _, _ = run_cli(capsys, "verify", "-m", "5", str(seq))
    assert code == 0


@pytest.mark.parametrize("command", ["verify", "analyze"])
@pytest.mark.parametrize("max_r", ["0", "-3"])
def test_verify_and_analyze_reject_max_r_below_one(capsys, monkeypatch, command, max_r):
    # `gen | verify --max-r -3` once printed balance_r_max=-3 and exited 0
    code, out, _ = run_cli(capsys, "gen", "-m", "4", "--family", "linear")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, report, err = run_cli(capsys, command, "-m", "4", "--max-r", max_r)
    assert (code, report) == (2, "")
    assert err == f"addrseq: max_r must be at least 1, got {max_r}\n"


def test_analyze_auto_detects_zero_padded_hex(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "gen", "-m", "8", "--family", "pow2:4", "--format", "hex", "--count", "10"
    )
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, report, _ = run_cli(capsys, "analyze", "-m", "8")
    assert code == 0
    assert "per_bit_ones=0,0,0,0,5,4,4,2" in report


def test_analyze_rejects_input_that_reads_as_dec_and_hex(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("10\n20\n"))
    code, _, err = run_cli(capsys, "analyze", "-m", "8")
    assert code == 2
    assert "both dec and hex" in err


def test_analyze_rejects_bin_of_another_width(capsys, monkeypatch):
    # `gen -m 20 ... | analyze -m 40` once read the line ...0010 as ten
    code, out, _ = run_cli(capsys, "gen", "-m", "20", "--family", "linear", "--count", "3")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, report, err = run_cli(capsys, "analyze", "-m", "40")
    assert (code, report) == (2, "")
    assert "reads as 20-bit bin, not 40-bit" in err


# a byte that is not UTF-8 on line 3
NOT_UTF8 = b"00\n01\n\xff0\n11\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_bytes_that_are_not_utf8_give_one_error_from_either_source(capsys, monkeypatch, tmp_path,
                                                                   source):
    # a file once failed with "'utf-8' codec can't decode byte 0xff in position 6", naming no line
    argv = ["analyze", "-m", "2"]
    if source == "file":
        path = tmp_path / "seq.txt"
        path.write_bytes(NOT_UTF8)
        argv.append(str(path))
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8)))
    assert run_cli(capsys, *argv) == (2, "", "addrseq: line 3: not a hex address: '\\udcff0'\n")


@pytest.mark.parametrize("command", ["verify", "analyze", "permute"])
def test_a_surrogate_that_no_byte_stands_for_names_its_line_from_a_text_stdin(command):
    # a text stand-in for stdin once printed "'utf-8' codec can't encode character '\ud800'",
    # naming no line, where parse_lines names line 2 for the same text
    text = "00\n\ud80001\n"
    with pytest.raises(SequenceParseError, match="^line 2: "):
        addrseq.parse_lines(text.splitlines(), 2)
    argv = [command, "-m", "2", *(["--perm", "2,1"] if command == "permute" else [])]
    code, out, err = run_main(argv, text)
    assert (code, out) == (2, "")
    assert err.startswith("addrseq: line 2: not a hex address: ") and err.count("\n") == 1
    # a surrogate that stands for a byte still reads back as that byte
    assert run_main(argv, "00\n\udcff01\n") == (2, "", "addrseq: line 2: not a hex address: '\\udcff01'\n")


def test_a_decimal_line_past_the_digit_limit_of_int_names_its_line():
    # int() refuses more than 4300 decimal digits: that once printed its own message, with no line
    ones = "1" * 5000
    assert run_main(["verify", "-m", "8", "--format", "dec"], f" {ones}\n2\n") == (
        2, "", f"addrseq: line 1: value out of range for 8 bits: '{ones}'\n")
    code, out, err = run_main(["verify", "-m", "8", "--format", "dec"], " %s1\r\n2\r\n" % ("0" * 5000))
    assert (code, err) == (1, "") and "length=2\n" in out
    csv = f"{CSV_HEADER}\n0,{ones},00000001,\n"
    assert run_main(["analyze", "-m", "8", "--format", "csv"], csv) == (
        2, "", f"addrseq: line 2: address_dec does not match address_bin: '0,{ones},00000001,'\n")


def test_analyze_rejects_non_ascii_digits(capsys, monkeypatch):
    # the Arabic-Indic three once read as 3, and this input reported complete=true
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO("0\n1\n2\n\u0663\n".encode())))
    code, out, err = run_cli(capsys, "analyze", "-m", "2", "--format", "dec")
    assert (code, out) == (2, "")
    assert err == "addrseq: line 4: not a dec address: '\u0663'\n"


def test_sequence_lines_end_only_at_newlines(capsys, monkeypatch):
    # str.splitlines once broke this line at \x1c, and the input reported complete=true
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"01\x1c10\n11\n00\n")))
    code, out, err = run_cli(capsys, "analyze", "-m", "2", "--format", "bin")
    assert (code, out) == (2, "")
    assert err == "addrseq: line 1: not a bin address: '01\\x1c10'\n"


def test_matrix_row_with_a_no_break_space_names_its_line(capsys, tmp_path):
    # str.rstrip once stripped the no-break space and read the row as 10
    path = tmp_path / "V.txt"
    path.write_text("m=2\n10\u00a0\n01\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "gen", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert err == "addrseq: line 2: expected 2 characters of 0/1, got '10\\xa0'\n"


def test_matrix_row_split_at_a_separator_character_names_its_line(capsys, tmp_path):
    # this once read as three rows: "expected 2 row lines, found 3"
    path = tmp_path / "V.txt"
    path.write_bytes(b"m=2\n1\x1c0\n01\n")
    code, _, err = run_cli(capsys, "gen", "--matrix", str(path))
    assert (code, err) == (2, "addrseq: line 2: expected 2 characters of 0/1, got '1\\x1c0'\n")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_every_newline_still_ends_a_line(capsys, monkeypatch, tmp_path, newline):
    path = tmp_path / "V.txt"
    path.write_bytes(newline.join(["m=4", *WORKED_ROWS, ""]).encode())
    code, out, _ = run_cli(capsys, "gen", "--matrix", str(path))
    assert (code, out_words(out)) == (0, TABLE_UP)
    text = newline.join(out.splitlines()) + newline
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    code, out, _ = run_cli(capsys, "verify", "-m", "4")
    assert (code, out.splitlines()[1:3]) == (0, ["length=16", "complete=true"])


class _CountingStdout(io.StringIO):
    """A stdout stand-in that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_gen_writes_a_block_of_lines_per_call():
    out = _CountingStdout()
    with redirect_stdout(out):
        assert main(["gen", "-m", "12", "--family", "linear"]) == 0
    assert out.getvalue().count("\n") == 4096
    assert out.writes <= 5  # four blocks of 1024 lines, not a write per line


def test_gen_csv_of_no_addresses_prints_the_header_alone(capsys):
    code, out, err = run_cli(capsys, "gen", "-m", "4", "--family", "linear", "--count", "0",
                             "--format", "csv")
    assert (code, out, err) == (0, "n,address_dec,address_bin,hamming_to_prev\n", "")


def child_env(**extra):
    """The environment of a child interpreter that imports this checkout's addrseq.  PYTHONUNBUFFERED
    is dropped, so the child has the buffered stdio that a shell gives it, unless `extra` sets it."""
    src = str(Path(addrseq.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **extra}


def run_into_a_closed_pipe(argv, stdin=None):
    """Run the CLI with stdout on a real OS pipe whose reader stops after one line,
    like `gen | head -1`; return that line, the exit code and stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "addrseq.cli", *argv], stdin=stdin,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    return first, proc.returncode, err


def test_gen_into_a_closed_pipe_exits_quietly():
    first, code, err = run_into_a_closed_pipe(["gen", "-m", "16", "--family", "linear"])
    assert first == b"0" * 16 + b"\n"
    assert (code, err) == (0, b"")


# at m=64 a block of 1024 bin lines is 66560 bytes and a csv block more, so one
# block is larger than a 64 KiB pipe and the first write already meets the closed end
@pytest.mark.parametrize(
    "argv,first",
    [
        (["gen", "-m", "64", "--family", "linear", "--count", "4096", "--format", "csv"],
         b"n,address_dec,address_bin,hamming_to_prev"),
        (["permute", "-m", "64", "--perm", ",".join(map(str, range(64, 0, -1)))], b"0" * 64),
    ],
    ids=["gen-csv", "permute"],
)
def test_blocks_larger_than_the_pipe_into_a_closed_pipe_exit_quietly(tmp_path, argv, first):
    path = tmp_path / "seq.txt"
    path.write_text("".join(f"{k:064b}\n" for k in range(4096)))
    with open(path, "rb") as stdin:
        line, code, err = run_into_a_closed_pipe(argv, stdin)
    assert line == first + b"\n"
    assert (code, err) == (0, b"")


FULL_4 = "".join(f"{k:04b}\n" for k in range(16))


@pytest.mark.parametrize(
    "argv,stdin,code",
    [
        (["gen", "-m", "4", "--family", "linear"], "", 0),
        (["permute", "-m", "4", "--perm", "2,1,3,4"], FULL_4, 0),
        (["matrix", "-m", "4", "--family", "linear"], "", 0),
        (["rank-stats", "-m", "4", "-n", "10"], "", 0),
        (["analyze", "-m", "4"], FULL_4, 0),
        (["verify", "-m", "4"], FULL_4, 0),
        (["verify", "-m", "1"], "0\n0\n", 1),
    ],
    ids=["gen", "permute", "matrix", "rank-stats", "analyze", "verify-pass", "verify-fail"],
)
def test_every_command_keeps_its_exit_code_when_the_reader_is_gone(argv, stdin, code):
    # the read end closes before the child starts, so its first write meets a closed
    # pipe however small the output: no race against a reader
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "addrseq.cli", *argv], input=stdin.encode(),
                              stdout=write_end, stderr=subprocess.PIPE, env=child_env(), timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, b"")


# -- start-up ----------------------------------------------------------------------------

# a spawn compiles every addrseq module it imports, and dataclasses pulls in
# inspect, ast, dis and tokenize; no command needs any of them
LOADS_NOT = {
    "gen": {"dataclasses", "inspect", "addrseq.analysis", "addrseq.gray"},
    "rank-stats": {"dataclasses", "inspect", "addrseq.analysis", "addrseq.gray"},
    "verify": {"dataclasses", "inspect", "addrseq.families", "addrseq.generate", "addrseq.gray", "addrseq.gf2"},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "-m", "17", "--family", "linear", "--count", "1"],
        ["rank-stats", "-m", "10", "-n", "10"],
        ["verify", "-m", "4"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_imports_only_the_modules_it_runs(argv):
    child = (
        "import sys\n"
        "from addrseq.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stderr.write(f'{code} ' + ' '.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", child, *argv], env=child_env(),
                          input="".join(f"{k:04b}\n" for k in range(16)).encode(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    code, *modules = proc.stderr.decode().split()
    assert code == "0"
    assert "addrseq.cli" in modules
    assert LOADS_NOT[argv[0]].isdisjoint(modules)


# -- the process entry point -------------------------------------------------------------


def main_with_bytes(argv, stdin=b""):
    """cli.main in process on byte-backed stdio, as a spawn has it; return the exit code, stdout
    and stderr as bytes.  An argparse exit is returned like main's code."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    saved, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue().encode()


def spawn_cli(argv, stdin=b"", stdout=subprocess.PIPE, env=None):
    return subprocess.run([sys.executable, "-m", "addrseq.cli", *argv], input=stdin, stdout=stdout,
                          stderr=subprocess.PIPE, env=env or child_env(), timeout=60)


SEQ_12 = ["gen", "-m", "12", "--family", "random:1", "--shift", "99"]

# (argv, the gen run whose output is stdin, or literal stdin bytes); every gen output at m = 16
# is larger than a 64 KiB pipe, so the spawn's last blocks are written after the reader blocked
SPAWN_CASES = {
    **{f"gen-{fmt}": (["gen", "-m", "16", "--family", "random:1", "--format", fmt], b"")
       for fmt in ("bin", "dec", "hex", "csv")},
    "verify-pass": (["verify", "-m", "12"], SEQ_12),
    "verify-fail": (["verify", "-m", "1"], b"0\n0\n"),
    "analyze": (["analyze", "-m", "12", "--max-r", "2"], SEQ_12 + ["--format", "dec"]),
    "permute": (["permute", "-m", "12", "--perm", "12,1,2,3,4,5,6,7,8,9,10,11", "--format", "hex"], SEQ_12),
    "matrix-check": (["matrix", "-m", "12", "--family", "random:1", "--check"], b""),
    "rank-stats": (["rank-stats", "-m", "32", "-n", "1000", "--seed", "7"], b""),
    "input-error": (["verify", "-m", "4"], b"0000\n00x1\n"),
    "version": (["--version"], b""),
}


@pytest.mark.parametrize("name", SPAWN_CASES)
def test_a_spawn_prints_what_main_prints_in_process(name):
    argv, stdin = SPAWN_CASES[name]
    if isinstance(stdin, list):
        stdin = main_with_bytes(stdin)[1]
    want = main_with_bytes(argv, stdin)
    proc = spawn_cli(argv, stdin)
    assert (proc.returncode, proc.stdout, proc.stderr) == want
    assert want[0] == {"verify-fail": 1, "input-error": 2}.get(name, 0)
    assert (b"rank=12\n" in want[2]) == (name == "matrix-check")
    if name.startswith("gen"):
        assert len(want[1]) > 1 << 16


# the three ways into a process: run() itself, `python -m addrseq.cli` (run as __main__ by
# runpy, as -m does) and the console script's wrapper, `sys.exit(<target>())`, for the
# target that pyproject.toml names; each must end with os._exit, so no atexit handler runs
ENTRY_PATHS = {
    "run": "from addrseq import cli\ncli.run()\n",
    "python -m": "import runpy\nrunpy.run_module('addrseq.cli', run_name='__main__', alter_sys=True)\n",
    "console script": (
        "import importlib\n"
        "module, _, attr = {target!r}.partition(':')\n"
        "sys.exit(getattr(importlib.import_module(module), attr)())\n"
    ),
}


@pytest.mark.parametrize("path", ENTRY_PATHS)
def test_every_entry_path_ends_the_process_with_no_atexit_pass(path):
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    target = re.search(r'^addrseq = "([\w.:]+)"$', pyproject, re.M).group(1)
    argv = ["gen", "-m", "16", "--family", "random:1", "--format", "hex"]
    child = (
        "import atexit, sys\n"
        "atexit.register(lambda: sys.stderr.write('atexit ran'))\n"
        f"sys.argv = ['addrseq', *{argv!r}]\n"
        + ENTRY_PATHS[path].format(target=target)
    )
    proc = subprocess.run([sys.executable, "-c", child], env=child_env(), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == main_with_bytes(argv)[1]


# buffered stdout keeps what failed to write, so run's last flush fails again; a small output
# fails first at main's flush, a large one at a direct write of a block bigger than the buffer;
# argparse's help and version fail at the flush that follows their write, or unbuffered at the write
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("stdio", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv,before",
    [
        (["gen", "-m", "16", "--family", "linear"], ""),
        (["gen", "-m", "4", "--family", "linear"], ""),
        (["matrix", "-m", "12", "--family", "random:1", "--check"], "rank=12\n"),
        (["--version"], ""),
        (["gen", "--help"], ""),
    ],
    ids=["gen-m16", "gen-m4", "matrix", "version", "gen-help"],
)
def test_a_full_disk_on_stdout_exits_2_with_one_line(argv, before, stdio):
    with open("/dev/full", "wb") as full:
        proc = spawn_cli(argv, stdout=full, env=child_env(**stdio))
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert err.startswith(before) and err[len(before):].startswith("addrseq: [Errno 28] ")
    assert err.count("\n") == before.count("\n") + 1 and err.endswith("\n")


# a stderr that cannot take the one error line leaves the code 2: for an error that main reports, a
# usage error that argparse reports, and a failed write of matrix's own rank line
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("stdio", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "-m", "99", "--family", "linear"],
        ["gen", "-m", "4", "--fam"],
        ["matrix", "-m", "4", "--family", "linear", "--check"],
    ],
    ids=["gen-bad-width", "gen-usage-error", "matrix-check"],
)
def test_a_full_disk_on_stderr_exits_2_with_no_output(argv, stdio):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "addrseq.cli", *argv], stdout=subprocess.PIPE,
                              stderr=full, env=child_env(**stdio), timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")


def test_the_version_in_process_still_exits_through_system_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (f"addrseq {addrseq.__version__}\n", "")


# -- rank-stats --------------------------------------------------------------------------


def test_rank_stats_exhaustive_m4(capsys):
    code, out, _ = run_cli(
        capsys, "rank-stats", "-m", "4", "--exhaustive", "-n", "1000", "--seed", "1"
    )
    assert code == 0
    assert "exhaustive_fullrank=20160" in out
    assert "exhaustive_total=65536" in out
    assert "exhaustive_fullrank_fraction=0.3076171875" in out


def test_rank_stats_exhaustive_census_at_the_widest_m(capsys):
    code, out, err = run_cli(capsys, "rank-stats", "-m", "64", "--exhaustive", "-n", "10")
    assert (code, err) == (0, "")
    assert f"exhaustive_total={1 << 4096}\n" in out
    assert "exhaustive_fullrank_fraction=0.28878809508660" in out


def test_rank_stats_m1(capsys):
    code, out, _ = run_cli(capsys, "rank-stats", "-m", "1", "-n", "2000", "--seed", "0")
    assert code == 0
    assert "analytic_fullrank_probability=0.5000000000000" in out


def test_rank_stats_is_deterministic(capsys):
    args = ("rank-stats", "-m", "8", "-n", "500", "--seed", "42")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second


# exact stdout, so a change to the draw stream, the rank census or the float formatting shows
RANK_STATS_GOLDEN = {
    ("-m", "32", "-n", "2000", "--seed", "7"): (
        "m=32\n"
        "analytic_fullrank_probability=0.2887880951538\n"
        "samples=2000\n"
        "seed=7\n"
        "mc_fullrank_rate=0.289\n"
        "mc_expected_rank_deficit=0.855\n"
    ),
    ("-m", "4", "--exhaustive", "-n", "3000", "--seed", "11"): (
        "m=4\n"
        "analytic_fullrank_probability=0.3076171875000\n"
        "exhaustive_total=65536\n"
        "exhaustive_fullrank=20160\n"
        "exhaustive_fullrank_fraction=0.3076171875\n"
        "exhaustive_expected_rank_deficit=0.8114471435546875\n"
        "samples=3000\n"
        "seed=11\n"
        "mc_fullrank_rate=0.30666666666666664\n"
        "mc_expected_rank_deficit=0.8163333333333334\n"
    ),
    ("-m", "5", "--exhaustive", "-n", "3000", "--seed", "11"): (
        "m=5\n"
        "analytic_fullrank_probability=0.2980041503906\n"
        "exhaustive_total=33554432\n"
        "exhaustive_fullrank=9999360\n"
        "exhaustive_fullrank_fraction=0.298004150390625\n"
        "exhaustive_expected_rank_deficit=0.8309620320796967\n"
        "samples=3000\n"
        "seed=11\n"
        "mc_fullrank_rate=0.29733333333333334\n"
        "mc_expected_rank_deficit=0.8373333333333334\n"
    ),
    ("-m", "64", "-n", "500", "--seed", "3"): (
        "m=64\n"
        "analytic_fullrank_probability=0.2887880950866\n"
        "samples=500\n"
        "seed=3\n"
        "mc_fullrank_rate=0.284\n"
        "mc_expected_rank_deficit=0.842\n"
    ),
    # ten rounds on 64-bit state lanes, and three on 128-bit ones
    ("-m", "32", "-n", "10000", "--seed", "1"): (
        "m=32\n"
        "analytic_fullrank_probability=0.2887880951538\n"
        "samples=10000\n"
        "seed=1\n"
        "mc_fullrank_rate=0.2879\n"
        "mc_expected_rank_deficit=0.8474\n"
    ),
    ("-m", "64", "-n", "3000", "--seed", "5"): (
        "m=64\n"
        "analytic_fullrank_probability=0.2887880950866\n"
        "samples=3000\n"
        "seed=5\n"
        "mc_fullrank_rate=0.2826666666666667\n"
        "mc_expected_rank_deficit=0.8533333333333334\n"
    ),
}


@pytest.mark.parametrize("args", list(RANK_STATS_GOLDEN), ids=" ".join)
def test_rank_stats_output_is_pinned(capsys, args):
    assert run_cli(capsys, "rank-stats", *args) == (0, RANK_STATS_GOLDEN[args], "")


@pytest.mark.parametrize(
    "args,message",
    [
        (("-m", "8", "-n", "0"), "samples must be >= 1, got 0"),
        (("-m", "65", "--exhaustive"), "m must be in 1..64, got 65"),
    ],
)
def test_rank_stats_failure_prints_no_partial_report(capsys, args, message):
    assert run_cli(capsys, "rank-stats", *args) == (2, "", f"addrseq: {message}\n")


# -- permute ------------------------------------------------------------------------------


def test_permute_counter_m3(capsys, tmp_path):
    path = write_sequence(tmp_path, list(range(8)), m=3)
    code, out, _ = run_cli(capsys, "permute", "-m", "3", "--perm", "3,2,1", str(path))
    assert code == 0
    assert [int(ln, 2) for ln in out.split()] == PERMUTED_M3_SWAP31


def test_permute_identity(capsys, tmp_path):
    path = write_sequence(tmp_path, TABLE_UP)
    code, out, _ = run_cli(capsys, "permute", "-m", "4", "--perm", "1,2,3,4", str(path))
    assert code == 0
    assert out_words(out) == TABLE_UP


def test_permute_rejects_bad_permutation(capsys, tmp_path):
    path = write_sequence(tmp_path, list(range(8)), m=3)
    code, _, err = run_cli(capsys, "permute", "-m", "3", "--perm", "1,1,2", str(path))
    assert code == 2
    assert "permutation" in err


# -- the CLI against the library ------------------------------------------------------------


def run_main(argv, stdin=""):
    """cli.main in process, with in-memory stdio (hypothesis cannot share capsys).

    An argparse error exits; its exit code is returned like main's.
    """
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def as_text(lines):
    return "".join(line + "\n" for line in lines)


@st.composite
def gen_cases(draw):
    """A family, an engine variant, a count and a format, with the gen flags that ask for them."""
    m = draw(st.integers(2, 10))
    full = 1 << m
    family = draw(
        st.sampled_from(["linear", "pow2", "complement", "limited", "gray", "quasi", "random"])
    )
    if family == "pow2":
        family = f"pow2:{draw(st.integers(0, m - 1))}"
    elif family == "gray" and draw(st.booleans()):
        family = "gray:" + ",".join(map(str, draw(st.permutations(range(1, m + 1)))))
    elif family == "random":
        family = f"random:{draw(st.integers(0, 10**6))}"
    argv = ["gen", "-m", str(m), "--family", family]
    matrix = addrseq.family_matrix(family, m)
    # short runs are where auto-detection can find dec and hex readings that differ
    count = draw(st.one_of(st.none(), st.integers(0, 4), st.integers(0, full)))
    engine = draw(st.sampled_from(["recursive", "down", "shift", "direct"]))
    if engine == "direct":
        argv += ["--engine", "direct"]
        stream = addrseq.generate_direct(matrix, count)
    elif engine == "shift":
        shift = draw(st.integers(0, full - 1))
        argv += ["--shift", str(shift)]
        stream = addrseq.generate_shifted(matrix, shift, count)
    else:
        a0, b0 = draw(st.integers(0, full - 1)), draw(st.integers(0, full - 1))
        argv += ["--a0", str(a0), "--b0", bin(b0)] + (["--down"] if engine == "down" else [])
        make = addrseq.generate_down if engine == "down" else addrseq.generate_recursive
        stream = make(matrix, a0, b0, count)
    if count is not None:
        argv += ["--count", str(count)]
    fmt = draw(st.sampled_from(addrseq.FORMATS))
    return m, argv + ["--format", fmt], fmt, list(stream.words())


# `16 17 18` at m=8 reads as dec and as hex, with different values
_AMBIGUOUS_RUN = (
    8,
    ["gen", "-m", "8", "--family", "linear", "--a0", "16", "--count", "3", "--format", "dec"],
    "dec",
    [16, 17, 18],
)


@settings(max_examples=60, deadline=None)
@given(
    gen_cases(),
    st.booleans(),
    st.integers(1, 6),
    st.randoms(use_true_random=False),
    st.sampled_from(addrseq.FORMATS),
)
@example(_AMBIGUOUS_RUN, True, 2, random.Random(0), "bin")
def test_cli_matches_the_library(case, auto, max_r, rng, out_fmt):
    m, argv, fmt, words = case
    code, text, err = run_main(argv)
    assert (code, err) == (0, "")
    assert text == as_text(addrseq.format_lines(words, m, fmt))

    in_fmt = "auto" if auto else fmt
    try:
        parsed = _line_parser.parse(text.splitlines(), m, in_fmt)
    except addrseq.SequenceParseError:
        parsed = None  # a short prefix can read as two formats; auto must then refuse it
    if parsed is not None:
        assert parsed == words

    report = addrseq.analyze(words, m, max_r)
    for command, ok_code in (("analyze", 0), ("verify", 0 if report.complete else 1)):
        flags = ["-m", str(m), "--format", in_fmt, "--max-r", str(max_r)]
        code, out, err = run_main([command, *flags], text)
        if parsed is None:
            assert (code, out) == (2, "") and err.startswith("addrseq: line ")
        else:
            assert (code, out, err) == (ok_code, addrseq.format_report(report), "")

    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    flags = ["-m", str(m), "--perm", ",".join(map(str, perm)), "--in-format", in_fmt]
    code, out, err = run_main(["permute", *flags, "--format", out_fmt], text)
    if parsed is None:
        assert (code, out) == (2, "")
    else:
        stream = addrseq.AddressStream(m, len(words), iter(words))
        permuted = addrseq.permute_address_bits(stream, perm).words()
        assert (code, out, err) == (0, as_text(addrseq.format_lines(permuted, m, out_fmt)), "")


# -m texts that are not an integer option, beside it
_M_NEAR_MISSES = ["", "+4", "-1", "4.0", "0x4", "1_2", " 4", "\u0663", "four"]
_USAGE_ERROR = re.compile(r"usage: addrseq (\S+) .*\naddrseq \1: error: [^\n]*\n", re.S)


@st.composite
def report_runs(draw):
    """Flags shared by verify and analyze, verify's --max-m, and the stdin text.

    The input is near-miss lines at most 12 bits wide, so no run reads a
    long input, whatever its -m.
    """
    m_text = draw(st.sampled_from(["0", "1", "12", "64", "65"] * 3 + _M_NEAR_MISSES))
    flags = ["-m", m_text]
    fmt = draw(st.sampled_from([None, *addrseq.FORMATS, "auto"]))
    if fmt is not None:
        flags += ["--format", fmt]
    flags += ["--max-r", str(draw(st.sampled_from([-3, 0] + [1, 4] * 3)))]
    m = int(m_text) if m_text.isdigit() else 12
    max_m = m + draw(st.sampled_from([-1, 0, 1]))  # below, at or above -m
    width = m if 1 <= m <= 12 else draw(st.sampled_from([1, 12]))
    return flags, str(max_m), as_text(draw(near_miss_lines(width)))


@settings(max_examples=300, deadline=None)
@given(report_runs())
@example((["-m", "1", "--max-r", "4"], "1", "1\n0\n"))
@example((["-m", "12", "--format", "dec", "--max-r", "4"], "12", as_text(map(str, range(4096)))))
def test_verify_and_analyze_keep_the_exit_contract(run):
    flags, max_m, text = run
    results = {}
    for command in ("verify", "analyze"):
        argv = [command, *flags] + (["--max-m", max_m] if command == "verify" else [])
        code, out, err = run_main(argv, text)
        assert code in (0, 1, 2) and (code != 1 or command == "verify")
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
            usage = _USAGE_ERROR.fullmatch(err)
            assert re.fullmatch(r"addrseq: [^\n]*\n", err) or (usage and usage[1] == command), err
        else:
            assert err == "" and out.endswith("balance_failures=0\n")
            assert code == 0 or "complete=false\n" in out
        results[command] = code, out
    if 2 not in (results["verify"][0], results["analyze"][0]):
        assert results["verify"][1] == results["analyze"][1]


# texts beside the integer options: --a0/--b0 take a 0b/0o/0x prefix, the others do not
_INT_NEAR_MISSES = ["", "+1", "-1", "1_0", " 1", "1.0", "0b2", "0X1", "\u0661"]
_BAD_FAMILIES = ["pow2:99", "gray:1,1", "linear:3", "random:x", "nosuch"]


def _direct_words(rows, count):
    # the plain counter form: address n XORs in the rows picked by the bits of n
    out = []
    for n in range(count):
        acc = 0
        for i, row in enumerate(rows):
            if n >> i & 1:
                acc ^= row
        out.append(acc)
    return out


@st.composite
def gen_runs(draw):
    """gen flags on both sides of each rule gen applies, and the output a valid run prints.

    A run draws an up, down, shifted or direct variant, and at most one
    fault: a bad value, or an option that conflicts with the variant.
    The output is None for a run that must be refused.  A run that prints
    words stays at m <= 12 or --count <= 200.
    """
    sites = ["m", "family", "seed", "engine", "down", "shift", "start", "count"]
    fault = draw(st.sampled_from([None] * len(sites) + sites))

    def pick(site, good, bad):
        return draw(st.sampled_from(bad if fault == site else good))

    m_text = pick("m", ["1", "12", "64"], ["0", "65"] + _M_NEAR_MISSES)
    m = int(m_text) if m_text in ("1", "12", "64") else 12
    full = 1 << m
    families, limited = ["linear", "pow2", "complement", "gray", "quasi", "random"], ["limited"]
    family = pick("family", families + limited * (m >= 2), _BAD_FAMILIES + limited * (m < 2))
    if family == "pow2":
        family = f"pow2:{draw(st.integers(0, m - 1))}"
    elif family == "gray" and draw(st.booleans()):
        family = "gray:" + ",".join(map(str, draw(st.permutations(range(1, m + 1)))))
    elif family == "random" and draw(st.booleans()):
        family = f"random:{draw(st.integers(0, 10**6))}"
    # a bare random family takes --seed, and no other family does
    seed = 7 if family == "random" else None
    seed = pick("seed", [seed], [7 if seed is None else None])

    variant = draw(st.sampled_from(["up", "down", "shift", "direct"]))
    engine = "direct" if variant == "direct" else pick("engine", [None, "recursive"], ["direct"])
    down = variant == "down" or pick("down", [False], [True])
    good_shifts, bad_shifts = ["0", str(full - 1)], [str(full), "-1", "+1"]
    if variant == "shift":
        shift = pick("shift", good_shifts, bad_shifts)
    else:
        shift = pick("shift", [None], good_shifts)
    good_starts, bad_starts = ["0", str(full - 1), hex(full - 1)], [str(full)] + _INT_NEAR_MISSES
    if variant in ("up", "down"):
        a0, b0 = (pick("start", [None] + good_starts, bad_starts) for _ in "ab")
    else:
        a0, b0 = (pick("start", [None], good_starts) for _ in "ab")
    counts = ["0", "1", str(min(200, full))] + [None] * (m <= 12)
    count = pick("count", counts, [str(full + 1), "-1", "+3"])
    fmt = draw(st.sampled_from([None, *addrseq.FORMATS]))

    argv = ["gen", "-m", m_text, "--family", family]
    for flag, value in [("--engine", engine), ("--shift", shift), ("--a0", a0), ("--b0", b0),
                        ("--count", count), ("--format", fmt), ("--seed", seed)]:
        if value is not None:
            argv += [flag, str(value)]
    argv += ["--down"] * down

    valid = m_text in ("1", "12", "64")
    valid &= family not in _BAD_FAMILIES and (m >= 2 or family != "limited")
    valid &= (seed is not None) == (family == "random")
    valid &= shift in (None, *good_shifts) and {a0, b0} <= {None, *good_starts}
    valid &= count in counts
    start_given = a0 is not None or b0 is not None
    valid &= shift is None or not (start_given or down)
    valid &= engine != "direct" or not (start_given or down or shift is not None)
    if not valid:
        return argv, "", None
    rows = addrseq.family_matrix(family, m, seed=seed).row_words
    n = full if count is None else int(count)
    if engine == "direct":
        words = _direct_words(rows, n)
    elif shift is not None:
        words = [gray_address(rows, (int(shift) + k) % full) for k in range(n)]
    else:
        words = step_words(rows, m, int(a0 or "0", 0), int(b0 or "0", 0), n, down)
    return argv, "", as_text(_line_format.format_lines(words, m, fmt or "bin"))


@st.composite
def permute_runs(draw):
    """permute flags and stdin, valid or near misses, and the output a valid run prints."""
    m = draw(st.integers(1, 12))
    perm = draw(st.permutations(range(1, m + 1)))
    kind = draw(st.sampled_from(["valid"] * 5 + ["repeat", "range", "text"]))
    if kind == "repeat":
        perm = perm[:-1] + perm[:1] if m > 1 else [1, 1]
    elif kind == "range":
        perm[draw(st.integers(0, m - 1))] = draw(st.sampled_from([0, -1, m + 1]))
    perm_text = ",".join(map(str, perm))
    if kind == "text":
        perm_text = draw(st.sampled_from(["", "1,", ",1", "1;2", "1 2"] + _INT_NEAR_MISSES))
    in_fmt = draw(st.sampled_from([None, *addrseq.FORMATS, "auto"]))
    fmt = draw(st.sampled_from([None, *addrseq.FORMATS]))
    lines = draw(near_miss_lines(m))
    argv = ["permute", "-m", str(m), "--perm", perm_text]
    argv += ["--in-format", in_fmt] * (in_fmt is not None) + ["--format", fmt] * (fmt is not None)
    try:
        words = _line_parser.parse(lines, m, in_fmt or "auto")
    except addrseq.SequenceParseError:
        words = None
    if kind != "valid" or words is None:
        return argv, as_text(lines), None
    expected = _line_format.format_lines(permute_reference(words, perm), m, fmt or "bin")
    return argv, as_text(lines), as_text(expected)


@pytest.mark.parametrize("runs", [gen_runs(), permute_runs()], ids=["gen", "permute"])
@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_gen_and_permute_keep_the_exit_contract(runs, data):
    # a valid run prints the reference's lines and nothing else; any other run is
    # refused with exit 2, no output and one message or argparse's usage
    argv, stdin, expected = data.draw(runs)
    code, out, err = run_main(argv, stdin)
    if expected is None:
        assert (code, out) == (2, ""), (code, out[:200], err)
        usage = _USAGE_ERROR.fullmatch(err)
        assert re.fullmatch(r"addrseq: [^\n]*\n", err) or (usage and usage[1] == argv[0]), err
    else:
        assert (code, err) == (0, "")
        assert out == expected


@st.composite
def matrix_runs(draw):
    """matrix flags with at most one fault, in any order, and the stdout and stderr a valid run prints.

    The stdout is a regex; it is None for a run that must be refused.
    """
    fault = draw(st.sampled_from([None] * 4 + ["m", "family", "seed", "missing"]))

    def pick(site, good, bad):
        return draw(st.sampled_from(bad if fault == site else good))

    m_text = pick("m", ["1", "2", "7", "12"], ["0", "65"] + _M_NEAR_MISSES)
    m = int(m_text) if m_text in ("1", "2", "7", "12") else 12
    families = ["linear", f"pow2:{draw(st.integers(0, m - 1))}", "complement", "gray", "quasi", "random",
                f"random:{draw(st.integers(0, 999))}", "random:seed=5"] + ["limited"] * (m >= 2)
    family = pick("family", families, _BAD_FAMILIES + ["limited"] * (m < 2))
    # a bare random family needs --seed, any integer, and no other family takes it
    seeds = ["7", "-1"] if family == "random" else [None]
    seed = pick("seed", seeds, ["7"] if family != "random" else [None, "", "+1", "1_0", "1.0", "\u0661"])
    check = draw(st.booleans())
    pairs = [["-m", m_text]] + [["--family", family]] * (fault != "missing")
    pairs += [["--seed", seed]] * (seed is not None) + [["--check"]] * check
    argv = ["matrix", *(token for pair in draw(st.permutations(pairs)) for token in pair)]
    if fault is not None:
        return argv, None, None
    text = addrseq.family_matrix(family, m, seed=None if seed is None else int(seed)).to_text()
    return argv, re.escape(text), f"rank={m}\n" if check else ""


@st.composite
def rank_stats_runs(draw):
    """rank-stats flags with at most one fault, in any order, and the stdout and stderr a valid run prints.

    The stdout is a regex; it is None for a run that must be refused.
    """
    fault = draw(st.sampled_from([None] * 3 + ["m", "n", "seed"]))

    def pick(site, good, bad):
        return draw(st.sampled_from(bad if fault == site else good))

    m_text = pick("m", ["1", "2", "12"], ["0", "65"] + _M_NEAR_MISSES)
    n = pick("n", ["1", "37", "200"], ["0", "-1", "+3", "", "1_0", "\u0661"])
    seed = pick("seed", [None, "0", "-1", "123"], [s for s in _INT_NEAR_MISSES if s != "-1"])
    exhaustive = draw(st.booleans())
    pairs = [["-m", m_text], [draw(st.sampled_from(["-n", "--samples"])), n]]
    pairs += [["--seed", seed]] * (seed is not None) + [["--exhaustive"]] * exhaustive
    argv = ["rank-stats", *(token for pair in draw(st.permutations(pairs)) for token in pair)]
    if fault is not None:
        return argv, None, None
    number = r"[0-9.e-]+"
    out = rf"m={m_text}\nanalytic_fullrank_probability={number}\n"
    out += "".join(rf"exhaustive_{key}={number}\n" for key in ("total", "fullrank", "fullrank_fraction",
                                                               "expected_rank_deficit")) * exhaustive
    out += rf"samples={n}\nseed={seed or 0}\nmc_fullrank_rate={number}\nmc_expected_rank_deficit={number}\n"
    return argv, out, ""


@pytest.mark.parametrize("runs", [matrix_runs(), rank_stats_runs()], ids=["matrix", "rank-stats"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matrix_and_rank_stats_keep_the_exit_contract(runs, data):
    # a valid run prints its text, and nothing on stderr but matrix --check's rank; any other run
    # is refused with exit 2, no output and one message or argparse's usage
    argv, out_pattern, err_want = data.draw(runs)
    code, out, err = run_main(argv)
    assert "Traceback" not in err
    if out_pattern is None:
        assert (code, out) == (2, ""), (code, out, err)
        usage = _USAGE_ERROR.fullmatch(err)
        assert re.fullmatch(r"addrseq: [^\n]*\n", err) or (usage and usage[1] == argv[0]), err
    else:
        assert (code, err) == (0, err_want)
        assert re.fullmatch(out_pattern, out), out


# -- the option table against argparse ----------------------------------------------------

# each command's options and the values drawn for them, valid or not, independent of the table in
# cli; None marks a flag, and "input" the positional of the commands that read a sequence
_NEAR_VALUES = ["", "-1", "+1", "1_0", "\u0661", "-x", "x"]
CLI_GRAMMAR = {
    "gen": {"-m": ["1", "4", "12"], "--family": ["linear", "random:1", "random", "nosuch"],
            "--matrix": ["no-such-matrix.txt"], "--engine": ["recursive", "direct"], "--down": None,
            "--shift": ["0", "3"], "--a0": ["5", "0x3"], "--b0": ["0b11", "7"], "--count": ["0", "3"],
            "--format": [*addrseq.FORMATS, "auto"], "--seed": ["7"]},
    "matrix": {"-m": ["1", "4", "12"], "--family": ["linear", "random:1", "random", "pow2:9"], "--check": None,
               "--seed": ["7"]},
    "verify": {"-m": ["1", "4", "12"], "input": ["no-such-input.txt"], "--format": [*addrseq.FORMATS, "auto"],
               "--max-r": ["0", "1", "3"], "--max-m": ["3", "4"]},
    "analyze": {"-m": ["1", "4", "12"], "input": ["no-such-input.txt"], "--format": [*addrseq.FORMATS, "auto"],
                "--max-r": ["0", "1", "3"]},
    "rank-stats": {"-m": ["1", "4", "12"], "-n": ["1", "50", "200"], "--samples": ["1", "50"],
                   "--seed": ["0", "9"], "--exhaustive": None},
    "permute": {"-m": ["1", "4"], "input": ["no-such-input.txt"], "--perm": ["1", "2,1,3,4", "4,3,2,1", "1,1"],
                "--format": [*addrseq.FORMATS, "auto"], "--in-format": [*addrseq.FORMATS, "auto"]},
}


@st.composite
def cli_argvs(draw):
    """An argv of one command: each option absent, given once or repeated, in the exact, abbreviated,
    `=`-joined or glued form, with a valid, near-miss or negative value, in any order; and at times an
    extra positional, `--`, `-h` or `--version`.  A third of the argvs are clean, so the table reads
    them: exact forms, valid values, no extra token and at most one of gen's --family and --matrix.  In
    the others, `odds` valid values and exact forms are drawn for each near miss and other form."""
    command, odds = draw(st.sampled_from(sorted(CLI_GRAMMAR))), draw(st.sampled_from([0, 20, 5]))
    clean = odds == 0
    items = []
    for option, values in CLI_GRAMMAR[command].items():
        repeats = draw(st.sampled_from([0, 1, 1, 1, 2]))
        if clean and option == "--matrix" and any(item[0] == "--family" for item in items):
            repeats = 0
        for _ in range(repeats):
            value = draw(st.sampled_from(values * odds + _NEAR_VALUES if odds else values)) if values else None
            if option == "input":
                items.append([value])
                continue
            forms = ["exact"] * odds + ["abbreviated", "joined"] + ["glued"] * (len(option) == 2)
            form, name = draw(st.sampled_from(forms)) if odds else "exact", option
            if form == "abbreviated" and len(option) > 3:
                name = option[: draw(st.integers(3, len(option) - 1))]
            if form == "joined":
                items.append([f"{name}={value or ''}"])
            elif form == "glued" and value is not None:
                items.append([name + value])
            else:
                items.append([name] + [value] * (value is not None))
    extras = [] if clean else draw(st.lists(st.sampled_from(["extra", "--", "-h", "--version"]), max_size=1))
    for extra in extras:
        items.insert(draw(st.integers(0, len(items))), [extra])
    return [command, *(token for item in draw(st.permutations(items)) for token in item)]


def parsed_by_argparse(argv):
    """The namespace argparse reads from `argv`, or None when it exits (with help, the version or an error)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return cli._build_parser().parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=300, deadline=None)
@given(cli_argvs())
@example(["gen", "-m", "4", "--family", "linear", "--family", "random:1", "--count", "3"])
@example(["verify", "no-such-input.txt", "-m", "4", "--max-r", "1"])
@example(["rank-stats", "--exhaustive", "-n", "9", "-m", "4", "--samples", "5", "--exhaustive"])
@example(["gen", "-m", "4", "--family", "-x"])
@example(["matrix", "-m", "4", "--family"])
def test_the_option_table_reads_what_argparse_reads(argv):
    # the table reads an argv as argparse does, or leaves it to argparse; it never takes one that
    # argparse refuses, and main prints the same bytes on either path
    table = cli._read_argv(argv)
    if table is None:
        return
    parsed = parsed_by_argparse(argv)
    assert parsed is not None, argv
    assert vars(table) == vars(parsed)
    with mock.patch.object(cli, "_read_argv", lambda argv: None):
        forced = run_main(argv, FULL_4)
    assert run_main(argv, FULL_4) == forced


def test_the_readme_names_every_command_and_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags = (flag for *_, options in cli._COMMANDS.values() for row in options for flag in row[0])
    names = {*cli._COMMANDS, *flags}  # each a whole token: no word character or '-' next to it
    assert sorted(name for name in names if not re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", section)) == []


# -- the bulk reader ----------------------------------------------------------------------


def _read_by_cli(data, m, fmt):
    """The CLI's read of `data` as stdin: its words or parse error, and whether it skipped the stripping pass."""
    saved, strip, calls = sys.stdin, addrseq.formats._stripped, []

    def spy(*args):
        calls.append(args)
        return strip(*args)

    addrseq.formats._stripped = spy
    try:
        with io.TextIOWrapper(io.BytesIO(data)) as sys.stdin:
            packed = _packed_input(_read_bytes(None), m, fmt)
    except SequenceParseError as exc:
        return (exc.lineno, str(exc)), not calls
    finally:
        sys.stdin, addrseq.formats._stripped = saved, strip
    return list(_unpacked(packed)), not calls


def test_canonical_bin_is_read_with_no_scan_for_blank_lines_padding_or_format(monkeypatch):
    # lines of m 0/1 digits, as gen writes them, go straight to the column read under auto and
    # bin alike: no blank-line or whitespace scan, no stripping pass and no detection runs
    def refuse(*args):
        raise AssertionError("canonical bin took a scan of the general path")

    for name in ("_lacks", "_stripped", "_detect", "_read"):
        monkeypatch.setattr(addrseq.formats, name, refuse)
    for fmt in ("auto", "bin"):
        for m, words in ((1, [1, 0]), (6, list(range(64))), (64, [(1 << 64) - 1, 0, 5])):
            data = as_text(format(w, f"0{m}b") for w in words).encode()
            assert list(_unpacked(_packed_input(data, m, fmt))) == words
            assert list(_unpacked(_packed_input(data.replace(b"\n", b"\r\n"), m, fmt))) == words


def _read_by_lines(data, m, fmt):
    # the reference: the decoded text, split at each line end and parsed line by line
    try:
        return _line_parser.parse(re.split(r"\r\n|\r|\n", data.decode("utf-8", "surrogateescape")), m, fmt)
    except SequenceParseError as exc:
        return exc.lineno, str(exc)


def _skips_the_stripping_pass(data):
    """Whether `data`, its line ends made \\n and a final one added, has no blank line and no ASCII
    whitespace but \\n: CRLF, a missing final newline and lines that detection weighs among them."""
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return not re.search(rb"[ \t\x0b\x0c]|^\n|\n\n", data)


# edits of a canonical input: each is one near miss of its shape, or a line of another shape
_EDITS = {
    "no final newline": lambda lines, m: "\n".join(lines).encode(),
    "crlf": lambda lines, m: "".join(ln + "\r\n" for ln in lines).encode(),
    "trailing blank line": lambda lines, m: as_text(lines + [""]).encode(),
    "blank line": lambda lines, m: as_text(lines[:1] + [""] + lines[1:]).encode(),
    "short line": lambda lines, m: as_text(lines[:-1] + [lines[-1][1:]]).encode(),
    "long line": lambda lines, m: as_text(["0" + lines[0]] + lines[1:]).encode(),
    "a 2": lambda lines, m: as_text(["2" + lines[0][1:]] + lines[1:]).encode(),
    "an f first": lambda lines, m: as_text(["f" + lines[0][1:]] + lines[1:]).encode(),
    "0x prefix": lambda lines, m: as_text(["0x" + lines[0]] + lines[1:]).encode(),
    "sign": lambda lines, m: as_text(lines[:-1] + ["+" + lines[-1]]).encode(),
    "2^m": lambda lines, m: as_text(lines + [str(1 << m)]).encode(),
    "2^64": lambda lines, m: as_text(lines + [str(1 << 64)]).encode(),
    # a line split in two: the length and every (m+1)-th newline stay, with nothing but 0, 1 and \n
    "split line": lambda lines, m: as_text([lines[0][:-1] + "\n"] + lines[1:]).encode(),
    "empty": lambda lines, m: b"",
}


@st.composite
def reader_inputs(draw):
    """A width and raw input bytes.

    The bytes are canonical bin, dec or hex (lower or upper case), lines that
    detection weighs (all-digit hex-shaped lines, dec lines of one width in
    0/1), one of these with an edit from _EDITS, or the near-miss lines the
    parser tests draw.
    """
    m = draw(st.integers(1, 64))
    words = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=12))
    d, width = (m + 3) // 4, draw(st.integers(1, m + 2))
    shape = draw(st.sampled_from(["bin", "dec", "hex", "HEX", "digits", "0/1", "near miss"]))
    if shape == "near miss":
        return m, as_text(draw(near_miss_lines(m))).encode("utf-8", "surrogateescape")
    lines = {
        "bin": lambda: [format(w, f"0{m}b") for w in words],
        "dec": lambda: list(map(str, words)),
        "hex": lambda: [format(w, f"0{d}x") for w in words],
        "HEX": lambda: [format(w, f"0{d}X") for w in words],
        "digits": lambda: draw(st.lists(st.text("0123456789", min_size=d, max_size=d), min_size=1, max_size=12)),
        "0/1": lambda: draw(st.lists(st.text("01", min_size=width, max_size=width), min_size=1, max_size=12)),
    }[shape]()
    edit = draw(st.sampled_from([None] * 6 + list(_EDITS)))
    return m, _EDITS[edit](lines, m) if edit else as_text(lines).encode()


@settings(max_examples=400, deadline=None)
@given(reader_inputs())
@example((2, b"0\n\n"))  # a line split in two, at the first width it can be
@example((3, b"0\n1\n"))
@example((64, as_text([format((1 << 64) - 1, "064b")]).encode()))
@example((64, b"FFFFFFFFFFFFFFFF\n"))
@example((64, b"%d\n" % ((1 << 64) - 1)))
@example((64, b"%d\n" % (1 << 64)))
@example((5, b"2f\n3f\n"))  # a hex top digit out of range
@example((12, b"123\n456\n"))  # hex-shaped digits that read as dec and as hex: refused at line 1
@example((12, b"10\n11\n"))  # dec of one width in 0/1
@example((8, b"10\n\n 20\r\n"))  # a blank line and padding: stripped, and refused at line 1
@example((40, b"10\r\n11\r\n01"))  # bin of another width, CRLF and no final newline: refused at line 3
@example((8, b"%d\n" % (1 << 8)))
def test_the_column_reader_matches_the_line_parser(case):
    m, data = case
    for fmt in ("auto", "bin", "dec", "hex", "csv"):
        words, unstripped = _read_by_cli(data, m, fmt)
        assert words == _read_by_lines(data, m, fmt), fmt
        # without this, a reader that always strips its lines would pass
        assert unstripped == _skips_the_stripping_pass(data), fmt


@pytest.mark.parametrize("m", [1, 8, 9, 64])
def test_analyze_by_columns_matches_the_library_over_several_chunks(m):
    # canonical bin reaches the analysis packed, and the CLI cuts it into chunks, not the gate
    rng = random.Random(m)
    words = [rng.getrandbits(m) for _ in range(2 * _CHUNK + 1)]
    text = as_text(format(w, f"0{m}b") for w in words)
    assert _read_by_cli(text.encode(), m, "auto") == (words, True)
    code, out, err = run_main(["analyze", "-m", str(m)], text)
    assert (code, out, err) == (0, addrseq.format_report(addrseq.analyze(words, m)), "")
    # permute moves the bits of the same buffer a block at a time, the last block a short one
    perm = rng.sample(range(1, m + 1), m)
    want = permute_reference(words, perm)
    stream = addrseq.permute_address_bits(addrseq.AddressStream(m, len(words), iter(words)), perm)
    assert list(stream.words()) == want
    for fmt in addrseq.FORMATS:
        code, out, err = run_main(["permute", "-m", str(m), "--perm", ",".join(map(str, perm)),
                                   "--format", fmt], text)
        assert (code, out, err) == (0, as_text(addrseq.format_lines(want, m, fmt)), "")


# -- one packed buffer from the reader ------------------------------------------------------


def test_no_command_gates_the_words_its_own_reader_produced(monkeypatch):
    # the reader holds every word to the range rule once; verify, analyze and permute hand its
    # packed buffer on, and gen formats the kernel's packed blocks, so neither the word gate,
    # which packs and checks a word list again, nor an AddressStream around the words ever runs;
    # and gen's output, in every format, is read with no stripping pass
    for name in ("addrseq.analysis", "addrseq.families", "addrseq.generate"):
        importlib.import_module(name)
    runs = []
    for fmt in addrseq.FORMATS:
        text = run_main(["gen", "-m", "6", "--family", "random:1", "--format", fmt])[1]
        for argv in (["verify", "-m", "6"], ["analyze", "-m", "6"],
                     ["permute", "-m", "6", "--perm", "6,5,4,3,2,1", "--format", fmt]):
            runs.append((argv, text, run_main(argv, text)))
        for variant in ([], ["--down", "--a0", "0x15", "--b0", "0x7"], ["--shift", "12"],
                        ["--engine", "direct"]):
            argv = ["gen", "-m", "6", "--family", "random:1", *variant, "--format", fmt]
            runs.append((argv, "", run_main(argv)))

    def refuse(*args):
        raise AssertionError("a CLI command ran the word gate, built a stream or stripped its lines")

    for attr, binders in (("_checked_blocks", {"common", "formats", "analysis", "families"}),
                          ("AddressStream", {"generate"})):
        bound = [mod for name, mod in sys.modules.items()
                 if name.split(".")[0] == "addrseq" and hasattr(mod, attr)]
        assert {mod.__name__ for mod in bound} >= {f"addrseq.{b}" for b in binders}
        for mod in bound:
            monkeypatch.setattr(mod, attr, refuse)
    monkeypatch.setattr(addrseq.formats, "_stripped", refuse)
    for argv, text, (code, out, err) in runs:
        assert (code, err) == (0, "")
        assert run_main(argv, text)[:2] == (code, out), argv


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "-m", "2", "--format", "bin", "--max-r", "0"], "line 2: not a bin address: 'x'"),
        (["analyze", "-m", "2", "--format", "bin", "--max-r", "0"], "line 2: not a bin address: 'x'"),
        (["permute", "-m", "2", "--in-format", "bin", "--perm", "1,1"], "line 2: not a bin address: 'x'"),
        (["permute", "-m", "2", "--in-format", "bin", "--perm", "x"],
         "--perm expects a comma list of positions, got 'x'"),
    ],
    ids=["verify", "analyze", "permute", "perm-text"],
)
def test_a_bad_line_is_reported_before_a_bad_option_value(argv, message):
    # the input is read first, so its parse error wins over --max-r and --perm values;
    # only a --perm that is not a comma list of integers is refused before the read
    assert run_main(argv, "00\nx\n") == (2, "", f"addrseq: {message}\n")


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize(
    "argv,fmt,copy",
    [
        (["verify", "-m", "20", "--max-r", "1"], "bin", None),
        (["verify", "-m", "20", "--max-r", "1"], "dec", None),
        (["verify", "-m", "20", "--max-r", "1"], "hex", None),
        (["verify", "-m", "20", "--max-r", "1"], "dec", "crlf"),
        (["verify", "-m", "20", "--max-r", "1"], "dec", "no final newline"),
        (["permute", "-m", "20", "--perm", ",".join(map(str, range(20, 0, -1)))], "bin", None),
        (["permute", "-m", "20", "--perm", ",".join(map(str, range(20, 0, -1)))], "dec", None),
    ],
    ids=["verify-bin", "verify-dec", "verify-hex", "verify-crlf-dec", "verify-dec-no-final-newline",
         "permute-bin", "permute-dec"],
)
def test_a_canonical_run_at_m20_peaks_below_60_mb(tmp_path, argv, fmt, copy):
    # the packed buffer is 8 MB at m = 20 and no word list is built: bin and hex are read by
    # digit columns and dec in pieces (a list of 2^20 ints took the peak to about 71 MB, and
    # parsing str lines to 142 MB for dec and 150 MB for hex); CRLF line ends are made \n in
    # bulk and a missing final one is added, so neither strips the lines; a fresh helper spawns
    # the run and reads its peak from its own RUSAGE_CHILDREN, so that no other test's children count
    path = tmp_path / f"seq.{fmt}"
    text = subprocess.run([sys.executable, "-m", "addrseq.cli", "gen", "-m", "20", "--family", "random:1",
                           "--format", fmt],
                          stdout=subprocess.PIPE, env=child_env(), check=True, timeout=120).stdout
    if copy == "crlf":
        text = text.replace(b"\n", b"\r\n")
    elif copy == "no final newline":
        text = text[:-1]
    path.write_bytes(text)
    helper = (
        "import resource, subprocess, sys\n"
        "with open(sys.argv[1], 'rb') as fh:\n"
        "    proc = subprocess.run([sys.executable, '-m', 'addrseq.cli', *sys.argv[2:]], stdin=fh,\n"
        "                          stdout=subprocess.DEVNULL)\n"
        "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", helper, str(path), *argv], env=child_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib <= 60 * 1024, f"{argv[0]} peaked at {peak_kib / 1024:.1f} MB"
