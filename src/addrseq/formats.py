"""Text formats for address sequences.

Four interchangeable formats, one address per line:

* ``bin`` - MSB-first bit string, zero-padded to the width
* ``dec`` - unsigned decimal
* ``hex`` - lowercase hexadecimal, zero-padded to ceil(m/4) digits
* ``csv`` - header ``n,address_dec,address_bin,hamming_to_prev`` then one
  row per address (the first row's distance column is empty)

Parsing accepts any of these.  A line is ASCII whitespace around ASCII
digits: 0/1 for bin, 0-9 for dec, and for hex an optional ``0x`` and hex
digits.  Signs, underscores and non-ASCII characters make a line bad,
whatever ``int()`` would make of them.  A csv row's ``address_dec`` must
equal its ``address_bin``, its ``n`` and ``hamming_to_prev`` are ASCII digits,
and only row 0 may leave the distance empty.  The rows' ``n`` count 0, 1,
2, ..., and each row after the first gives its address's distance to the
row before.  ``auto`` detection prefers csv
(header present), then bin (every line is exactly m characters of 0/1).
Lines that all have exactly ceil(m/4) hex digits read as hex unless they are
also canonical decimal (no leading zeros); all-digit lines that are not
hex-shaped read as dec.  Lines valid both ways read as dec when the two
readings agree, and are a parse error when they differ.  Lines that are
bin of one common width other than m, told by a leading zero, are a
parse error naming that width.  Anything else is tried as hex.  Emitted
output always round-trips.

Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only, in sequence and matrix
text alike.

This module is the reader; the writer is in `common`, which `gen` loads
without it.  One body reads every input as bytes: the CLI's raw input
(`_packed_input`), and the str lines of `parse_lines` and `detect_format`,
joined and encoded as UTF-8 with surrogates passed.  Line ends are made
``\\n`` first (the CLI's ``\\r\\n`` and ``\\r``, in bulk), and a missing
final one is added.  The CLI's canonical bin, m digits 0/1 a line, is then
read by digit columns with no other scan.  Else only when a line is blank
or holds ASCII whitespace besides its ``\\n`` does a pass, a piece at a
time, keep the stripped non-blank lines and a byte per line that marks the
blank ones.  ``auto`` detection reads the buffer: a prefix for the csv
header, a strided test for one width, ``bytes.translate`` and ``in`` for
the character classes, the first digit column for leading zeros.  bin, and
hex of ceil(m/4) digits, convert by digit columns; other hex and dec
through ``int()`` in pieces of 64 KiB; csv a piece of rows at a time, its
cells split once, each row's ``n`` and distance checked against its place.
Only on failure does it bisect for the first bad line and ask it why, so
every error names its line and gives its text.
"""

from __future__ import annotations

from functools import partial
from itertools import compress, count, islice, repeat
from operator import ne, not_
from typing import Callable, Iterable, Iterator

from .common import CSV_HEADER, FORMATS, _SPACE, _byte_blocks, _check_m, _checked_blocks, _diffs, _packed, _unpacked

_BIN, _DEC, _HEX = b"01", b"0123456789", b"0123456789abcdefABCDEF"
_HEADER = CSV_HEADER.encode() + b"\n"
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b",\n")))  # deleted, they leave a csv row's , and \n
_PIECE = 1 << 16  # bytes of input stripped or read through int() at a time, so no list of every line is held
_NAMES = [b"%d" % k for k in range(65)]  # each distance as csv writes it
# _PLACE[b][j] translates a base-2^b digit to its value b * j bits up: digit i's place in its byte lane
_PLACE = {b: [bytes.maketrans(s, bytes(int(c, 16) << b * j for c in s.decode())) for j in range(8 // b)]
          for b, s in ((1, _BIN), (4, _HEX))}


class SequenceParseError(ValueError):
    """An input line that does not parse as an address; carries its line number."""

    def __init__(self, lineno: int, line: str, reason: str):
        self.lineno = lineno
        self.line = line
        super().__init__(f"line {lineno}: {reason}: {line!r}")


def format_lines(words: Iterable[int], m: int, fmt: str = "bin") -> Iterator[str]:
    """Render a stream of address words as lines in the requested format.

    m is 1..64.  A word that is not an int raises TypeError, and one
    outside 0..2^m - 1 raises ValueError, rather than print as a wrong
    line.
    """
    for text in _byte_blocks(_checked_blocks(words, m), m, fmt):
        yield from text.decode().splitlines()



def detect_format(lines: Iterable[str], m: int) -> str:
    """Pick the format of address lines, read as `parse_lines` reads them.

    Raises SequenceParseError, naming the 1-based line number, when the
    lines read as both dec and hex with different values, or read as bin
    of another width.
    """
    lines = list(lines)
    return _read(_joined(lines), m, _detect, lines)


def parse_lines(lines: Iterable[str], m: int, fmt: str = "auto") -> list[int]:
    """Parse address lines into words, validating the width.

    Lines are stripped of ASCII whitespace and blank lines are ignored.
    Unparseable lines raise SequenceParseError naming the 1-based line
    number.
    """
    lines = list(lines)
    return list(_unpacked(_read(_joined(lines), m, partial(_parse, fmt=fmt), lines)))


def _packed_input(data: bytes, m: int, fmt: str) -> bytes:
    """The words of raw input bytes in `fmt` (or ``auto``), packed and in range: the CLI's reader.

    Lines end at \\n, \\r\\n or \\r.  A bad line's text is its bytes decoded
    as UTF-8, each byte that is not UTF-8 a surrogate.
    """
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data and not data.endswith(b"\n"):
        data += b"\n"
    _check_m(m)
    # lines of m 0/1 digits are canonical bin, which no pass strips and `auto` reads as bin: read at once
    if fmt in ("auto", "bin") and (words := _packed_digits(data, m, 1)) is not None:
        return words
    return _read(data, m, partial(_parse, fmt=fmt))


def _read(data: bytes, m: int, read: Callable, lines: list[str] | None = None) -> str | bytes:
    # `read` the lines of `data`, each ended by \n, as one buffer of the non-blank lines stripped of
    # ASCII whitespace; the error of a bad line names its 1-based line and gives its text, from
    # `lines`, the str lines `data` joins, if given, else decoded
    _check_m(m)
    marks = None  # a byte per line of `data`, 0 for a blank one, once any line is stripped
    if not _lacks(data, b" \t\r\x0b\x0c") or data[:1] == b"\n" or b"\n\n" in data:
        data, marks = _stripped(data)
    try:
        return read(data, m)
    except _BadLine as bad:
        lineno = bad.index + 1 if marks is None else next(islice(compress(count(1), marks), bad.index, None))
        text = (data.split(b"\n", bad.index + 1)[bad.index].decode("utf-8", "surrogateescape") if lines is None
                else lines[lineno - 1].strip(_SPACE))
        raise SequenceParseError(lineno, text, bad.reason) from None


def _joined(lines: list[str]) -> bytes:
    # `lines`, each ended by \n, encoded as UTF-8 with surrogates passed; a line that holds a \n of its
    # own is stripped first, and what \n it still holds becomes \0, which no format takes
    text = "\n".join(lines)
    if text.count("\n") >= len(lines):
        text = "\n".join(line.strip(_SPACE).replace("\n", "\0") for line in lines)
    return (text + "\n").encode("utf-8", "surrogatepass") if lines else b""


def _lacks(data: bytes, chars: bytes) -> bool:
    # no byte of `chars` is in `data`: a memchr per byte, with no copy
    return not any(map(data.__contains__, chars))


def _cut(data: bytes) -> Iterator[bytes]:
    # `data`, lines each ended by \n, in pieces of about _PIECE bytes cut at line ends, each a copy
    at = 0
    while at < len(data):
        end = data.find(b"\n", at + _PIECE) + 1 or len(data)
        yield data[at:end]
        at = end


def _stripped(data: bytes) -> tuple[bytes, bytearray]:
    # the non-blank lines of `data` stripped of ASCII whitespace, each ended by \n, and a byte per line
    # of `data`, 0 for a blank one; a piece at a time, so no list of every line is held
    out, marks = bytearray(), bytearray()
    for piece in _cut(data):
        lines = list(map(bytes.strip, piece[:-1].split(b"\n")))
        marks += bytes(map(bool, lines))
        if kept := b"\n".join(filter(None, lines)):
            out += kept + b"\n"
    return bytes(out), marks


class _BadLine(Exception):
    """Line `index` of the stripped non-blank lines is bad, for `reason`."""

    def __init__(self, index: int, reason: str):
        self.index, self.reason = index, reason


def _detect(data: bytes, m: int) -> str:
    # the format of `data`, stripped non-blank lines each ended by \n; errors name a line index
    if not data:
        return "bin"
    if data.startswith(_HEADER):
        return "csv"
    rest = data.translate(None, _HEX)  # every \n, and every byte that is no hex digit
    n, width, d = rest.count(b"\n"), data.index(b"\n"), (m + 3) // 4
    one_width = len(data) == n * (width + 1) and data[width :: width + 1] == b"\n" * n
    decimal = len(rest) == n and _lacks(data, b"abcdefABCDEF")
    binary = one_width and decimal and _lacks(data, b"23456789")
    if binary and width == m:
        return "bin"
    first = data[:: width + 1] if one_width and width > 1 else b""  # the first digit of every line
    if one_width and width == d and len(rest) == n:
        # hex-shaped: with no leading zero, digits 0-9 read as dec and as hex alike only one at a time,
        # and from two on, the first line's nonzero top digit makes its two readings differ
        if decimal and d > 1 and b"0" not in first:
            raise _BadLine(0, "reads as both dec and hex; pass --format")
        return "dec" if decimal and d == 1 else "hex"
    if binary and b"0" in first:
        raise _BadLine(first.index(b"0"), f"reads as {width}-bit bin, not {m}-bit")
    return "dec" if decimal else "hex"


def _parse(data: bytes, m: int, fmt: str) -> bytes:
    # the packed words of `data`, stripped non-blank lines each ended by \n, in `fmt` or as detected;
    # on failure only, bisect for the first bad line and ask it why
    if fmt == "auto":
        fmt = _detect(data, m)
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r} (expected one of {FORMATS})")
    skip = fmt == "csv" and data.startswith(_HEADER)
    body = data[len(_HEADER) :] if skip else data
    words = _convert(body, m, fmt)
    if isinstance(words, str):
        lines, lo, prev = body.split(b"\n")[:-1], 0, b""
        hi = len(lines)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            words = _convert(b"\n".join(lines[lo:mid]) + b"\n", m, fmt, lo, prev)
            if isinstance(words, str):
                hi = mid
            else:
                lo, prev = mid, words[-8:]
        raise _BadLine(skip + lo, _convert(lines[lo] + b"\n", m, fmt, lo, prev))
    return words


def _convert(data: bytes, m: int, fmt: str, row: int = 0, prev: bytes = b"") -> bytes | str:
    """The packed words of `data` in `fmt`, or the reason some line is not an m-bit address.

    `data` is non-blank lines, each ended by \\n.  Every check is a property
    of each line on its own, and of a csv row's place: its number counts on
    from `row`, and its distance is to the word before, `prev` (8 bytes, or
    none before row 0).  So a buffer fails exactly when one of its lines
    does, which the bisection relies on.
    """
    if not data:
        return b""
    if fmt == "csv":
        out = bytearray()
        for piece in _cut(data):
            words = _rows(piece, m, row, prev)
            if isinstance(words, str):
                return words
            out += words
            row, prev = row + len(words) // 8, words[-8:]
        return out
    if fmt == "bin":
        words = _packed_digits(data, m, 1)
        return "not a bin address" if words is None else words
    if fmt == "hex":
        words = _packed_digits(data, m, 4)
        if words is not None:
            return words
        data = (b"\n" + data).replace(b"\n0x", b"\n")  # each line's 0x dropped, behind one more \n
        if b"\n\n" in data:  # a line that was 0x alone
            return "not a hex address"
        data = data[1:]
    if data.translate(None, (_DEC if fmt == "dec" else _HEX) + b"\n"):
        return f"not a {fmt} address"
    words = _ints(data, m, 10 if fmt == "dec" else 16)
    return f"value out of range for {m} bits" if words is None else words


def _packed_digits(data: bytes, m: int, b: int) -> bytearray | None:
    # bin (b = 1) or hex (b = 4) `data`, lines of exactly ceil(m/b) digits each ended by \n, packed, else
    # None: digit column d - 1 - i, one strided slice translated by _PLACE, holds digit i's value at its
    # place in byte lane b * i // 8; a lane's columns add up as ints, with no carry
    d, digits = -(-m // b), _BIN if b == 1 else _HEX
    n = len(data) // (d + 1)
    ends = b"\n" * n  # each line's \n in place, and nothing but digits besides
    if not n or len(data) != n * (d + 1) or data[d :: d + 1] != ends or data.translate(None, digits) != ends:
        return None
    top = m - b * (d - 1)  # bits of the first digit
    if top < b and data[:: d + 1].translate(None, digits[: 1 << top]):
        return None
    out, per = bytearray(8 * n), 8 // b  # digits per byte lane
    for k in range((m + 7) // 8):
        places = range(per * k, min(per * k + per, d))
        columns = (data[d - 1 - i :: d + 1].translate(_PLACE[b][i % per]) for i in places)
        out[k::8] = sum(int.from_bytes(c, "little") for c in columns).to_bytes(n, "little")
    return out


def _ints(data: bytes, m: int, base: int) -> bytearray | None:
    # `data`, lines of ASCII digits in `base` each ended by \n, packed a piece at a time into a buffer
    # of their final size, so no list of every line is held; None for a value of 2^m or more
    out, at = bytearray(8 * data.count(b"\n")), 0
    for piece in _cut(data):
        lines = piece.split()
        try:
            try:
                piece = _packed(map(int, lines, repeat(base)))
            except ValueError:  # more decimal digits than int() reads: again, with no leading zeros
                piece = _packed(map(int, [line.lstrip(b"0") or b"0" for line in lines]))
        except (OverflowError, ValueError):  # 2^64 or more
            return None
        if max(_unpacked(piece)) >> m:
            return None
        out[at : at + len(piece)], at = piece, at + len(piece)
    return out


def _rows(rows: bytes, m: int, row: int, prev: bytes) -> bytes | str:
    # the packed words of csv `rows`, each ended by \n, numbered from `row` after the word `prev`, or
    # the reason one is bad: its columns, each alone, then its number, then its distance
    n = rows.count(b"\n")
    if rows.translate(None, _NOT_SEPARATOR) != b",,,\n" * n:
        return "expected 4 csv columns"
    cells = rows.replace(b"\n", b",").split(b",")
    ns, decs, bins, dists = (cells[k:-1:4] for k in range(4))
    words = _convert(b"\n".join(bins) + b"\n", m, "bin")
    if isinstance(words, str):
        return f"address_bin is not {m} bits"
    if b"" in decs or _convert(b"\n".join(decs) + b"\n", m, "dec") != words:
        return "address_dec does not match address_bin"
    # only a row numbered 0, the first one written, may leave its distance empty
    if not all(ns) or (b"".join(ns) + b"".join(dists)).translate(None, _DEC) or (
        set(compress(ns, map(not_, dists))) - {b"0"}
    ):
        return "n and hamming_to_prev must be ASCII digits"
    # each n against its row's number, and each distance against its word's to the one before, as
    # csv writes them; a cell written otherwise, with leading zeros, is compared without them
    names = list(map(b"%d".__mod__, range(row, row + n)))
    for k in compress(range(n), map(ne, ns, names)):
        if (ns[k].lstrip(b"0") or b"0") != names[k]:
            return "n does not count the rows from 0"
    names, skip = list(map(_NAMES.__getitem__, _diffs(words, prev or words[:8], m)[1])), 0 if prev else 1
    for k in compress(range(skip, n), map(ne, dists[skip:], names[skip:])):
        if (dists[k].lstrip(b"0") or b"0") != names[k]:
            return "hamming_to_prev is not the distance to the row before"
    return words
