import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addrseq import FORMATS, SequenceParseError, format_lines, parse_lines

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
