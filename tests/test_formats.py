import io
import random
import re
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addrseq import FORMATS, SequenceParseError, format_lines, parse_lines
from addrseq.cli import _write
from addrseq.common import _BLOCK, CSV_HEADER, _byte_blocks, _checked_blocks, _packed, _unpacked
from addrseq.formats import _packed_input, detect_format

import _line_format
import _line_parser
from _near_miss import near_miss_lines
from _tables import TABLE_UP

WORDS = [0b0000, 0b1011, 0b0011, 0b1000]


def test_bin_lines():
    assert list(format_lines(WORDS, 4, "bin")) == ["0000", "1011", "0011", "1000"]


def test_dec_lines():
    assert list(format_lines(WORDS, 4, "dec")) == ["0", "11", "3", "8"]


def test_hex_lines_are_zero_padded():
    assert list(format_lines([0, 255, 16], 9, "hex")) == ["000", "0ff", "010"]


def test_csv_lines_carry_hamming_distances():
    lines = list(format_lines(WORDS, 4, "csv"))
    assert lines[0] == "n,address_dec,address_bin,hamming_to_prev"
    assert lines[1] == "0,0,0000,"
    assert lines[2] == "1,11,1011,3"
    assert lines[3] == "2,3,0011,1"


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        list(format_lines(WORDS, 4, "octal"))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("word", [16, -1, 1 << 64], ids=["2^m", "negative", "2^64"])
def test_words_out_of_range_are_rejected(fmt, word):
    # format(16, "04b") once printed the 5-character line 10000
    with pytest.raises(ValueError, match="value out of range for 4 bits"):
        list(format_lines([3, word], 4, fmt))


@pytest.mark.parametrize("m", [0, 65, True, 2.0])
def test_widths_outside_a_word_are_rejected(m):
    with pytest.raises(ValueError, match=f"m must be in 1..64, got {m}"):
        list(format_lines([0], m, "bin"))
    with pytest.raises(ValueError, match=f"m must be in 1..64, got {m}"):
        parse_lines(["1"], m)
    with pytest.raises(ValueError, match=f"m must be in 1..64, got {m}"):
        detect_format(["1"], m)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("word", [1.5, "3"], ids=["float", "str"])
def test_words_that_are_not_ints_are_rejected(fmt, word):
    # "%d" would print 1.5 as 1
    with pytest.raises(TypeError):
        list(format_lines([3, word], 4, fmt))


@pytest.mark.parametrize("fmt", ["bin", "dec", "hex", "csv"])
def test_round_trip_every_format(fmt):
    lines = list(format_lines(TABLE_UP, 4, fmt))
    assert parse_lines(lines, 4, fmt) == TABLE_UP
    assert parse_lines(lines, 4, "auto") == TABLE_UP


def test_round_trip_one_bit_width():
    for fmt in ("bin", "dec", "hex", "csv"):
        lines = list(format_lines([0, 1], 1, fmt))
        assert parse_lines(lines, 1, fmt) == [0, 1]


def test_auto_detection_prefers_bin_at_exact_width():
    # four 0/1 characters at m=4 read as bits, not as decimal
    assert parse_lines(["0011"], 4, "auto") == [3]
    # a short digit line reads as decimal
    assert parse_lines(["10"], 4, "auto") == [10]


def test_auto_detection_hex_needs_letters_or_prefix():
    assert parse_lines(["0x1f"], 8, "auto") == [31]
    assert parse_lines(["1f"], 8, "auto") == [31]


def test_blank_lines_are_ignored():
    assert parse_lines(["", "101", "  ", "110", ""], 3, "bin") == [5, 6]


def test_parse_error_names_the_line():
    with pytest.raises(SequenceParseError) as exc:
        parse_lines(["0000", "10x1", "1111"], 4, "bin")
    assert exc.value.lineno == 2


def test_out_of_range_value_rejected():
    with pytest.raises(SequenceParseError, match="range"):
        parse_lines(["16"], 4, "dec")


def test_csv_column_count_checked():
    with pytest.raises(SequenceParseError):
        parse_lines(["n,address_dec,address_bin,hamming_to_prev", "0,0,0000"], 4, "csv")


@pytest.mark.parametrize(
    "row,reason",
    [
        ("foo,bar,00,", "address_dec does not match address_bin"),
        ("1,,00,1", "address_dec does not match address_bin"),
        ("1,1,00,1", "address_dec does not match address_bin"),
        ("1,4,00,1", "address_dec does not match address_bin"),
        ("+1,0,00,1", "n and hamming_to_prev must be ASCII digits"),
        ("١,0,00,1", "n and hamming_to_prev must be ASCII digits"),
        (",0,00,1", "n and hamming_to_prev must be ASCII digits"),
        ("1,0,00,", "n and hamming_to_prev must be ASCII digits"),
        ("1,0,00, 1", "n and hamming_to_prev must be ASCII digits"),
    ],
)
def test_csv_columns_beside_the_bits_are_checked(row, reason):
    # each of these once read as address 0
    lines = [CSV_HEADER, "0,1,01,", row, "2,2,10,2"]
    with pytest.raises(SequenceParseError, match=re.escape(reason)) as exc:
        parse_lines(lines, 2, "auto")
    assert exc.value.lineno == 3


def test_csv_address_bin_of_another_width_is_rejected():
    with pytest.raises(SequenceParseError, match="address_bin is not 2 bits") as exc:
        parse_lines(["0,0,00,", "1,1,1,1"], 2, "csv")
    assert exc.value.lineno == 2


def test_unknown_parse_format_rejected():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        parse_lines(["1"], 2, fmt="xml")


def test_detect_format_answers():
    assert detect_format(["0101", "1100"], 4) == "bin"
    assert detect_format(["12", "7"], 4) == "dec"
    assert detect_format(["0f", "a0"], 8) == "hex"


def test_detect_format_numbers_its_error_within_the_lines():
    with pytest.raises(SequenceParseError, match="reads as 2-bit bin, not 40-bit") as exc:
        detect_format(["10", "11", "01"], 40)
    assert (exc.value.lineno, exc.value.line) == (3, "01")


@pytest.mark.parametrize("lines", [[""], ["", ""], ["01", ""], ["  "]])
def test_detect_format_reads_blank_lines_as_parse_lines_does(lines):
    # the first two once raised IndexError, and the last two answered dec and hex
    assert detect_format(lines, 2) == "bin"
    assert parse_lines(lines, 2) == parse_lines(lines, 2, "bin")


def test_detect_format_numbers_its_error_past_blank_lines():
    with pytest.raises(SequenceParseError, match="reads as 2-bit bin, not 40-bit") as exc:
        detect_format(["", " 10 ", "11", "\t", "01"], 40)
    assert (exc.value.lineno, exc.value.line) == (5, "01")


def test_csv_distance_may_be_empty_on_row_0_only():
    assert parse_lines(["0,3,11,", "1,2,10,1", "2,0,00,1"], 2, "csv") == [3, 2, 0]
    with pytest.raises(SequenceParseError, match="n and hamming_to_prev must be ASCII digits") as exc:
        parse_lines(["0,3,11,", "1,2,10,1", "2,0,00,"], 2, "csv")
    assert exc.value.lineno == 3
    # a leading zero in address_dec still reads as the same value
    assert parse_lines(["0,003,11,0"], 2, "csv") == [3]


@pytest.mark.parametrize(
    "rows,lineno,reason",
    [
        (["0,3,11,", "1,2,10,1", "0,0,00,1"], 3, "n does not count the rows from 0"),
        (["5,3,11,0"], 1, "n does not count the rows from 0"),
        (["0,3,11,", "2,2,10,1"], 2, "n does not count the rows from 0"),
        (["0,3,11,", "1,2,10,2"], 2, "hamming_to_prev is not the distance to the row before"),
        (["0,3,11,", "1,0,00,2", "2,1,01,2"], 3, "hamming_to_prev is not the distance to the row before"),
        # a row out of order is named before a later row that is bad on its own
        (["0,3,11,", "1,2,10,0", "2,x,00,1"], 2, "hamming_to_prev is not the distance to the row before"),
        (["0,3,11,", "3,2,10,1", "2,x,00,1"], 2, "n does not count the rows from 0"),
        # and a row bad on its own before one out of order
        (["0,3,11,", "1,x,10,1", "5,0,00,1"], 2, "address_dec does not match address_bin"),
        # at one row, a wrong n is named before a wrong distance
        (["0,3,11,", "2,2,10,2"], 2, "n does not count the rows from 0"),
    ],
)
def test_csv_rows_count_from_0_and_give_the_distance_to_the_row_before(rows, lineno, reason):
    for lines in (rows, [CSV_HEADER, *rows]):
        with pytest.raises(SequenceParseError, match=re.escape(reason)) as exc:
            parse_lines(lines, 2, "csv")
        assert exc.value.lineno == lineno + (lines[0] == CSV_HEADER)


def test_decimal_lines_past_the_digit_limit_of_int_read_or_name_their_line():
    # int() refuses more than 4300 decimal digits; such a line once escaped as a bare ValueError
    assert parse_lines(["0" * 5000 + "1"], 8, "dec") == [1]
    assert parse_lines(["0,%s,00000001," % ("0" * 5000 + "1")], 8, "csv") == [1]
    with pytest.raises(SequenceParseError, match="line 2: value out of range for 8 bits"):
        parse_lines(["3", " " + "1" * 5000], 8, "dec")
    with pytest.raises(SequenceParseError, match="line 2: address_dec does not match address_bin"):
        parse_lines([CSV_HEADER, "0,%s,00000001," % ("1" * 5000)], 8, "csv")
    # a csv row's n and distance too, which are compared with the row's place
    zeros = "0" * 5000
    assert parse_lines(["0,0,00,", f"{zeros}1,1,01,{zeros}1"], 2, "csv") == [0, 1]
    with pytest.raises(SequenceParseError, match="line 2: n does not count the rows from 0"):
        parse_lines(["0,0,00,", "1" * 5000 + ",1,01,1"], 2, "csv")
    with pytest.raises(SequenceParseError, match="line 2: hamming_to_prev is not the distance to the row before"):
        parse_lines(["0,0,00,", "1,1,01," + "1" * 5000], 2, "csv")


def test_auto_detection_reads_zero_padded_hex_as_hex():
    words = [n << 4 for n in range(10)]
    lines = list(format_lines(words, 8, "hex"))
    assert lines[:3] == ["00", "10", "20"]
    assert parse_lines(lines, 8, "auto") == words


def test_auto_detection_rejects_lines_that_read_both_ways():
    with pytest.raises(SequenceParseError, match="both dec and hex") as exc:
        parse_lines(["", "10", "20"], 8, "auto")
    assert exc.value.lineno == 2
    # single digits read the same either way, so they are not ambiguous
    assert parse_lines(["3", "7"], 4, "auto") == [3, 7]


def test_auto_detection_rejects_bin_of_another_width():
    lines = list(format_lines([0, 1, 2], 20, "bin"))
    with pytest.raises(SequenceParseError, match="reads as 20-bit bin, not 40-bit") as exc:
        parse_lines(["", *lines], 40, "auto")
    assert exc.value.lineno == 2
    # without a leading zero, 0/1 lines of another width stay decimal
    assert parse_lines(["10", "11"], 40, "auto") == [10, 11]
    # hex-shaped 0/1 lines keep the hex reading
    assert parse_lines(["01", "10"], 8, "auto") == [1, 16]


@st.composite
def _cases(draw):
    """A width, a format and words; some lists keep to words whose text in
    that format also reads as another format, where auto-detection is tested."""
    m = draw(st.integers(1, 24))
    fmt = draw(st.sampled_from(FORMATS))
    top, digits = 1 << m, (m + 3) // 4
    words = st.integers(0, top - 1)
    if draw(st.booleans()):
        if fmt == "dec":  # 0/1 text, like bin
            words = st.text("01", min_size=1, max_size=len(str(top - 1))).map(int)
        elif fmt == "hex":  # digit text with no leading zero, like dec
            lead = st.integers(1, min(9, (top - 1) >> (4 * digits - 4)))
            rest = st.text("0123456789", min_size=digits - 1, max_size=digits - 1)
            words = st.tuples(lead, rest).map(lambda t: int(f"{t[0]}{t[1]}", 16))
    count = draw(st.integers(0, min(top - 1, 20)))
    return m, fmt, draw(st.lists(words.filter(lambda w: w < top), min_size=count, max_size=count))


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_every_format_round_trips(case):
    m, fmt, words = case
    lines = list(format_lines(words, m, fmt))
    assert parse_lines(lines, m, fmt) == words
    # auto-detection may refuse a prefix, but never misreads one
    try:
        detected = parse_lines(lines, m, "auto")
    except SequenceParseError:
        return
    assert detected == words


@pytest.mark.parametrize(
    "lines,m,fmt,lineno",
    [
        (["-0", "1", "2", "3"], 2, "dec", 1),
        (["0", "+2"], 4, "hex", 2),
        (["1_1"], 8, "dec", 1),
        (["1_1"], 8, "hex", 1),
        (["0", "1", "2", "\u0663"], 2, "dec", 4),
        (["1", "0\xa0"], 1, "bin", 2),
        (["0x0x1f"], 8, "hex", 1),
    ],
    ids=["sign", "plus", "underscore-dec", "underscore-hex", "arabic-indic-3", "nbsp", "0x0x"],
)
def test_signs_underscores_and_non_ascii_are_rejected(lines, m, fmt, lineno):
    # int() and str.strip() once read all of these as addresses
    for given in (fmt, "auto"):
        with pytest.raises(SequenceParseError, match="not a (bin|dec|hex) address") as exc:
            parse_lines(lines, m, given)
        assert exc.value.lineno == lineno


@st.composite
def _irregular_inputs(draw):
    """A width, a format and near-miss lines of that width."""
    m = draw(st.integers(1, 64))
    lines = draw(near_miss_lines(m))
    return m, draw(st.sampled_from(FORMATS + ("auto",))), lines


def _outcome(parse, lines, m, fmt):
    try:
        return parse(lines, m, fmt)
    except SequenceParseError as exc:
        return type(exc), exc.lineno, exc.line, str(exc)


@settings(max_examples=500, deadline=None)
@given(_irregular_inputs())
def test_bulk_parser_matches_the_line_parser(case):
    m, fmt, lines = case
    assert _outcome(parse_lines, lines, m, fmt) == _outcome(_line_parser.parse, lines, m, fmt)


@st.composite
def _csv_inputs(draw):
    """csv rows, now and then with an n, address_dec or distance that is bad on its own or out of order."""
    m = draw(st.integers(1, 64))
    rows, prev = [], None
    for n in range(draw(st.integers(0, 12))):
        w = draw(st.integers(0, (1 << m) - 1))
        dist = "" if prev is None else str(bin(w ^ prev).count("1"))
        num = draw(st.sampled_from([str(n)] * 12 + ["0", "", "-1", "\u0663", f"0{n}", str(n + 1)]))
        dec = draw(st.sampled_from([str(w)] * 12 + [f"0{w}", str(w + 1), "", "x"]))
        dist = draw(st.sampled_from([dist] * 12 + ["", "+1", "a", f"0{dist}", str(n % 3)]))
        rows.append(",".join([num, dec, format(w, f"0{m}b"), dist]))
        prev = w
    header = draw(st.booleans())
    return m, "auto" if header and draw(st.booleans()) else "csv", [CSV_HEADER] * header + rows


@settings(max_examples=300, deadline=None)
@given(_csv_inputs())
def test_bulk_parser_checks_csv_columns_like_the_line_parser(case):
    m, fmt, lines = case
    assert _outcome(parse_lines, lines, m, fmt) == _outcome(_line_parser.parse, lines, m, fmt)


# word counts around the formatter's block: none, one, a block and one either
# side of it, and three blocks with an odd tail
_BLOCK_COUNTS = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17]

# widths at the edges of a byte lane and of a word: 1, 8, 9, 16, 63 and 64 bits,
# in every format, over a block and one word more
_LANE_EDGES = [
    (m, fmt, [(1 << m) - 1, 0, *((k * 0x9E3779B97F4A7C15) % (1 << m) for k in range(_BLOCK - 1))])
    for m in (1, 8, 9, 16, 63, 64)
    for fmt in FORMATS
]


def _lane_edge_examples(test):
    for case in _LANE_EDGES:
        test = example(case)(test)
    return test


@st.composite
def _word_runs(draw):
    """A width, a format and words: random, a counter run, or a few values repeated."""
    m = draw(st.integers(1, 64))
    count = draw(st.sampled_from(_BLOCK_COUNTS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "run", "repeats"]))
    if kind == "random":
        words = [rng.getrandbits(m) for _ in range(count)]
    elif kind == "run":
        start = rng.getrandbits(m)
        words = [(start + k) % (1 << m) for k in range(count)]
    else:
        pool = [rng.getrandbits(m) for _ in range(3)]
        words = [rng.choice(pool) for _ in range(count)]
    return m, draw(st.sampled_from(FORMATS)), words


@settings(max_examples=120, deadline=None)
@given(_word_runs())
@_lane_edge_examples
def test_block_formatter_matches_the_line_formatter(case):
    m, fmt, words = case
    want = list(_line_format.format_lines(words, m, fmt))
    assert list(format_lines(words, m, fmt)) == want
    out = io.StringIO()
    with redirect_stdout(out):
        _write(_byte_blocks(_checked_blocks(words, m), m, fmt))
    assert out.getvalue() == "".join(line + "\n" for line in want)


def test_packed_words_read_back_on_a_host_of_either_byte_order(monkeypatch):
    words = [0, 1, 0x0102030405060708, 1 << 63, (1 << 64) - 1]
    assert _packed(words) == b"".join(w.to_bytes(8, "little") for w in words)
    assert list(_unpacked(_packed(words))) == words
    assert not isinstance(_unpacked(_packed(words)), list)  # read in place, or one array copy
    dec = b"".join(b"%d\n" % w for w in words)
    assert _packed_input(dec, 64, "dec") == _packed(words)
    # told the host is the other way round, both sides swap, and still agree; the reader of dec
    # lines packs through the same rule
    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(sys, "byteorder", other)
    assert _packed(words) == b"".join(w.to_bytes(8, other) for w in words)
    assert list(_unpacked(_packed(words))) == words
    assert not isinstance(_unpacked(_packed(words)), list)  # read in place, or one array copy
    assert _packed_input(dec, 64, "dec") == _packed(words)


def test_csv_rows_run_on_across_blocks():
    words = [k % 16 for k in range(3 * _BLOCK + 17)]
    lines = list(format_lines(words, 4, "csv"))
    # row _BLOCK opens the second block: its number and distance continue the first block's
    last, first = words[_BLOCK - 1], words[_BLOCK]
    assert lines[_BLOCK : _BLOCK + 2] == [
        f"{_BLOCK - 1},{last},{last:04b},{(words[_BLOCK - 2] ^ last).bit_count()}",
        f"{_BLOCK},{first},{first:04b},{(last ^ first).bit_count()}",
    ]
    *_, before, end = words
    assert lines[-1] == f"{len(words) - 1},{end},{end:04b},{(before ^ end).bit_count()}"
    assert len(lines) == 1 + len(words)


@pytest.mark.parametrize("fmt", FORMATS)
def test_write_words_gives_the_same_text_with_or_without_a_buffer(fmt):
    # stdout writes bytes to its buffer; a text-only stand-in gets the blocks decoded
    words = [(k * 40503) % (1 << 17) for k in range(_BLOCK + 5)]
    text_only, binary = io.StringIO(), io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    for stream in (text_only, binary):
        with redirect_stdout(stream):
            _write(_byte_blocks(_checked_blocks(words, 17), 17, fmt))
    assert not hasattr(text_only, "buffer")
    assert binary.buffer.getvalue().decode() == text_only.getvalue()
    want = _line_format.format_lines(words, 17, fmt)
    assert text_only.getvalue() == "".join(line + "\n" for line in want)
