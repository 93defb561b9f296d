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

Formatting takes blocks of packed 64-bit words, the generator's own or
those `_checked_blocks` packs and checks, and renders each into one bytes
object a column at a time: bin and hex from the byte lanes, dec by one
``%`` template, csv by one with its bin digits in place and distances
from one XOR of the block with itself a word up.

The parser takes the whole input at once: the set of token lengths,
``bytes.translate`` character classes, ``map(int)`` and ``max()``.  Only
when that finds a bad line does it bisect for the first one, so every
error names its line.  csv order, which no row shows on its own, is
checked over the rows before the first bad one, all at once.

`_packed_input` reads raw bytes in the canonical shape of a format ``gen``
writes, n >= 1 lines each ended by ``\\n`` and nothing else, straight into
packed words, the inverse of the emit.  Canonical bin (lines of exactly m
digits 0/1) and hex (lines of exactly ceil(m/4) hex digits of either case,
the first below 2^(m - 4 (ceil(m/4) - 1))) go by digit columns; canonical
dec (lines of ASCII digits) goes in pieces.  Under ``auto`` it takes only
what `_detect` would read the same way without weighing it: bin, hex with
a letter, and dec whose lines are not all of one width that is hex-shaped
or all 0/1.  Everything else, and a dec value of 2^m or more, is left to
the parser, which names the bad line.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property, partial
from itertools import compress, count, islice, repeat
from operator import ne, not_
from typing import Callable, Iterable, Iterator, Sequence

FORMATS = ("bin", "dec", "hex", "csv")

CSV_HEADER = "n,address_dec,address_bin,hamming_to_prev"

_BIN, _DEC, _HEX = b"01", b"0123456789", b"0123456789abcdefABCDEF"
_SPACE = " \t\n\r\x0b\x0c"  # ASCII whitespace, what bytes.strip() strips
_BLOCK = 1024  # words per formatted block, so a pipe sees one write per 1024 lines
_PIECE = 1 << 16  # bytes of canonical dec converted at a time, so no list of every line is held


class SequenceParseError(ValueError):
    """An input line that does not parse as an address; carries its line number."""

    def __init__(self, lineno: int, line: str, reason: str):
        self.lineno = lineno
        self.line = line
        super().__init__(f"line {lineno}: {reason}: {line!r}")


def _split_lines(text: str) -> list[str]:
    """The lines of `text`, ended by \\n, \\r\\n or \\r only.

    Other characters that ``str.splitlines`` breaks at, such as \\x1c or
    U+2028, stay inside their line, where they make it bad.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _ascii_int(text: str) -> int:
    """`text` read as an optional '-' and ASCII digits: the rule for every integer option."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _check_m(m: int, low: int = 1) -> None:
    """The width rule of every entry point that takes a word width `m`: an int, not a bool."""
    if m.__class__ is not int or not low <= m <= 64:
        raise ValueError(f"m must be in {low}..64, got {m}")


def format_lines(words: Iterable[int], m: int, fmt: str = "bin") -> Iterator[str]:
    """Render a stream of address words as lines in the requested format.

    m is 1..64.  A word that is not an int raises TypeError, and one
    outside 0..2^m - 1 raises ValueError, rather than print as a wrong
    line.
    """
    for text in _byte_blocks(_checked_blocks(words, m), m, fmt):
        yield from text.decode().splitlines()


def _packed(words: Iterable[int]) -> bytes:
    """`words` as little-endian unsigned 64-bit integers.

    Byte lane k (every 8th byte from k) holds bits 8k..8k+7 of every
    word.  A word that is not an int raises TypeError, and one outside
    0..2^64 - 1 raises OverflowError.
    """
    packed = array("Q", words)
    if sys.byteorder != "little":
        packed.byteswap()
    return packed.tobytes()


def _unpacked(buf: bytes) -> Sequence[int]:
    # the words `_packed` put in `buf`: read in place on a little-endian host, else a swapped copy
    if sys.byteorder == "little":
        return memoryview(buf).cast("Q")
    (words := array("Q", buf)).byteswap()
    return words


def _pieces(buf: bytes, n: int) -> Iterator[bytes]:
    # the words `_packed` in `buf`, n at a time, each piece a copy
    return (buf[i : i + 8 * n] for i in range(0, len(buf), 8 * n))


def _checked_blocks(words: Iterable[int], m: int) -> Iterator[bytes]:
    """`words` `_packed` in blocks of at most _BLOCK: the word-range rule.

    A word that is not an int raises TypeError, one outside 0..2^m - 1 ValueError.
    """
    words = iter(words)
    while block := list(islice(words, _BLOCK)):
        try:
            buf = _packed(block)
        except OverflowError:
            buf = None
        if buf is None or max(block) >> m:
            raise ValueError(f"value out of range for {m} bits")
        yield buf


# _DIGIT[j] translates a byte to the ASCII digit of its bit j, which runs 2^j zeros, 2^j ones
_DIGIT = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]
_ONES = bytes(map(int.bit_count, range(256)))  # translates a byte to its count of ones
_NAMES = list(map(str, range(65)))  # each distance as csv writes it
# _PLACE[b][j] translates a base-2^b digit to its value b * j bits up: digit i's place in its byte lane
_PLACE = {b: [bytes.maketrans(s, bytes(int(c, 16) << b * j for c in s.decode())) for j in range(8 // b)]
          for b, s in ((1, _BIN), (4, _HEX))}


def _bit_columns(buf: bytes, m: int) -> Iterator[bytes]:
    """Bit b of every word `_packed` put in `buf`, as a column of ASCII digits, for b = 0..m - 1.

    Byte lane k holds bits 8k..8k+7 of every word; translated by _DIGIT,
    it gives the digits of one of its bits.  One lane and one column are
    held at a time.
    """
    for k in range((m + 7) // 8):
        lane = buf[k::8]
        for j in range(min(8, m - 8 * k)):
            yield lane.translate(_DIGIT[j])


def _byte_blocks(blocks: Iterable[bytes], m: int, fmt: str) -> Iterator[bytes]:
    """The lines of the words in `blocks`, each `_packed` and in range, as one bytes object per block.

    Each block is built a column at a time, with no Python call per word.
    csv's header comes first, on its own; its row numbers and distances
    run on across blocks.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r} (expected one of {FORMATS})")
    _check_m(m)
    if fmt == "bin":
        for buf in blocks:
            yield _columns(_bit_columns(buf, m), len(buf) // 8, b"", m, b"\n")
    elif fmt == "hex":
        d = (m + 3) // 4
        for buf in blocks:
            # each word is 16 hex digits, two per byte, high nibble first: nibble p is digit p ^ 1
            digits = buf.hex().encode()
            yield _columns((digits[p ^ 1 :: 16] for p in range(d)), len(buf) // 8, b"", d, b"\n")
    elif fmt == "dec":
        for buf in blocks:
            yield (b"%d\n" * (len(buf) // 8)) % tuple(_unpacked(buf))
    else:
        yield CSV_HEADER.encode() + b"\n"
        row, prev = 0, b""
        for buf in blocks:
            n = len(buf) // 8
            # each word's distance to the one before (the first's to itself, a 0 dropped below)
            dists = _diffs(buf, prev or buf[:8], m)[1]
            v = [0] * (3 * n)  # the row number, word and distance of each row, in turn
            v[::3], v[1::3], v[2::3] = range(row, row + n), _unpacked(buf), dists
            text = _columns(_bit_columns(buf, m), n, b"%d,%d,", m, b",%d\n") % tuple(v)
            yield text.replace(b",0\n", b",\n", 1) if row == 0 else text
            row, prev = row + n, buf[-8:]


def _diffs(buf: bytes, prev: bytes, m: int) -> tuple[bytes, bytes]:
    # each word `_packed` in `buf` XORed with the one before it (`prev`, 8 bytes, before the first),
    # packed, and the ones of each XOR word, a byte each: the ones per byte summed over the m bits'
    # byte lanes as ints, at most 64 a word, so no sum carries into the next
    block = int.from_bytes(buf, "little")
    diffs = (block ^ (block << 64 | int.from_bytes(prev, "little"))).to_bytes(len(buf) + 8, "little")[:-8]
    ones = diffs.translate(_ONES)
    total = sum(int.from_bytes(ones[k::8], "little") for k in range((m + 7) // 8))
    return diffs, total.to_bytes(len(buf) // 8, "little")


def _columns(columns: Iterable[bytes], n: int, head: bytes, d: int, tail: bytes) -> bytearray:
    # n rows of `head`, d digits and `tail`, a digit column, last digit first, per stride
    width = len(head) + d + len(tail)
    out = bytearray(head + bytes(d) + tail) * n
    for j, column in enumerate(columns):
        out[len(head) + d - 1 - j :: width] = column
    return out


def _packed_input(data: bytes, m: int, fmt: str) -> bytes | None:
    """The words of `data` `_packed`, when it is canonical for the format `fmt` reads it in, else None.

    Under ``auto``, hex needs a letter, and dec lines of more than one width
    or not all 0/1: the rest is what `_detect` weighs, which the parser does.
    """
    auto, packed = fmt == "auto", None
    if fmt in ("bin", "auto"):
        packed = _packed_digits(data, m, 1, auto)
    if packed is None and fmt in ("hex", "auto"):
        packed = _packed_digits(data, m, 4, auto)
    if packed is None and fmt in ("dec", "auto"):
        packed = _packed_dec(data, m, auto)
    return packed


def _packed_digits(data: bytes, m: int, b: int, auto: bool) -> bytearray | None:
    # canonical bin (b = 1) or hex (b = 4) `data` `_packed`, else None: digit column d - 1 - i, one
    # strided slice translated by _PLACE, holds digit i's value at its place in byte lane b * i // 8;
    # a lane's columns add up as ints, with no carry
    d, digits = -(-m // b), _BIN if b == 1 else _HEX
    n = len(data) // (d + 1)
    ends = b"\n" * n  # each line's \n in place, and nothing but digits besides
    if not n or len(data) != n * (d + 1) or data[d :: d + 1] != ends or data.translate(None, digits) != ends:
        return None
    top = m - b * (d - 1)  # bits of the first digit
    if top < b and data[:: d + 1].translate(None, digits[: 1 << top]):
        return None
    if auto and b == 4 and not any(map(data.__contains__, b"abcdefABCDEF")):
        return None  # all-digit hex, which _detect weighs against dec
    out, per = bytearray(8 * n), 8 // b  # digits per byte lane
    for k in range((m + 7) // 8):
        places = range(per * k, min(per * k + per, d))
        columns = (data[d - 1 - i :: d + 1].translate(_PLACE[b][i % per]) for i in places)
        out[k::8] = sum(int.from_bytes(c, "little") for c in columns).to_bytes(n, "little")
    return out


def _packed_dec(data: bytes, m: int, auto: bool) -> bytes | None:
    # canonical dec `data` `_packed`, else None, converted _PIECE bytes at a time, each piece cut at a
    # line end; a value of 2^m or more is None too, left for the line path to name
    n = data.count(b"\n")
    ends = b"\n" * n
    if not n or data[:1] == b"\n" or data[-1:] != b"\n" or b"\n\n" in data or data.translate(None, _DEC) != ends:
        return None
    width = data.index(b"\n")
    if auto and len(data) == n * (width + 1) and data[width :: width + 1] == ends and (
        width == (m + 3) // 4 or not data.translate(None, _BIN + b"\n")
    ):
        return None  # lines of one width, hex-shaped or all 0/1
    words, at = array("Q"), 0
    try:
        while at < len(data):
            end = data.find(b"\n", at + _PIECE) + 1 or len(data)
            piece = array("Q", map(int, data[at:end].split()))
            if max(piece) >> m:
                return None
            words += piece
            at = end
    except (OverflowError, ValueError):  # 2^64 or more, or more digits than int() reads
        return None
    if sys.byteorder != "little":
        words.byteswap()
    return words.tobytes()


def detect_format(lines: Iterable[str], m: int) -> str:
    """Pick the format of address lines, read as `parse_lines` reads them.

    Raises SequenceParseError, naming the 1-based line number, when the
    lines read as both dec and hex with different values, or read as bin
    of another width.
    """
    return _read(lines, m, _detect)


def parse_lines(lines: Iterable[str], m: int, fmt: str = "auto") -> list[int]:
    """Parse address lines into words, validating the width.

    Lines are stripped of ASCII whitespace and blank lines are ignored.
    Unparseable lines raise SequenceParseError naming the 1-based line
    number.
    """
    return _read(lines, m, partial(_parse, fmt=fmt))


def _read(lines: Iterable[str], m: int, read: Callable[[_Tokens, int], str | list[int]]) -> str | list[int]:
    # `read` the non-blank lines, stripped of ASCII whitespace, as tokens; the error
    # of a bad token names its 1-based line within `lines`
    _check_m(m)
    lines = lines if isinstance(lines, list) else list(lines)  # stripped again on a bad token only
    tokens = _Tokens(list(filter(None, map(str.strip, lines, repeat(_SPACE)))))
    try:
        return read(tokens, m)
    except _BadToken as bad:
        lineno = list(compress(count(1), map(str.strip, lines, repeat(_SPACE))))[bad.index]
        raise SequenceParseError(lineno, tokens.items[bad.index], bad.reason) from None


def _parse(tokens: _Tokens, m: int, fmt: str) -> list[int]:
    if fmt == "auto":
        fmt = _detect(tokens, m)
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r} (expected one of {FORMATS})")
    skip = 1 if fmt == "csv" and tokens.items[:1] == [CSV_HEADER] else 0
    body = _Tokens(tokens.items[skip:]) if skip else tokens
    words = _convert(body, m, fmt)
    if isinstance(words, str):
        # locate pass, on failure only: bisect for the first bad token and ask it why; a csv row
        # out of order before it, though good on its own, comes first
        index = _first_bad(body.items, m, fmt)
        if fmt == "csv":
            rows = _Tokens(body.items[:index])
            _check_order(rows, _convert(rows, m, fmt), m, skip)
        raise _BadToken(skip + index, _convert(_Tokens([body.items[index]]), m, fmt))
    if fmt == "csv":
        _check_order(body, words, m, skip)
    return words


def _check_order(rows: _Tokens, words: list[int], m: int, skip: int) -> None:
    # raise at the first of the csv `rows`, each good alone and read as `words`, whose n is not its
    # index, or, after the first, whose distance is not its address's to the row before
    if not words:
        return
    n = next(compress(count(), map(ne, map(int, rows.cells[::4]), count())), len(words))
    # rows 1..n - 1 have their own number, so none leaves its distance empty; a distance written
    # otherwise than in _NAMES, with a leading zero, is read by int()
    buf, dists = _packed(islice(words, n)), rows.cells[7 : 4 * n : 4]
    ones = _diffs(buf, buf[:8], m)[1][1:]
    for k in compress(count(), map(ne, dists, map(_NAMES.__getitem__, ones))):
        if int(dists[k]) != ones[k]:
            raise _BadToken(skip + 1 + k, "hamming_to_prev is not the distance to the row before")
    if n < len(words):
        raise _BadToken(skip + n, "n does not count the rows from 0")


class _BadToken(Exception):
    """Token `index` of the non-blank lines is bad, for `reason`."""

    def __init__(self, index: int, reason: str):
        self.index, self.reason = index, reason


class _Tokens:
    """Stripped, non-empty lines, with whole-list facts computed at most once."""

    def __init__(self, items: list[str]):
        self.items = items

    @cached_property
    def lengths(self) -> set[int]:
        return set(map(len, self.items))

    @cached_property
    def cells(self) -> list[str]:
        """The comma-separated cells of every token, in one list."""
        return ",".join(self.items).split(",")

    @cached_property
    def charsets(self) -> set[bytes]:
        """Which of the nested sets _BIN, _DEC and _HEX hold every character of every token."""
        text = "".join(self.items)
        if not text.isascii():
            return set()
        residue, fits = text.encode(), set()
        for chars in (_BIN, _DEC, _HEX):
            residue = residue.translate(None, chars)
            if not residue:
                fits.add(chars)
        return fits


def _detect(tokens: _Tokens, m: int) -> str:
    # errors name a token index
    items = tokens.items
    if not items:
        return "bin"
    if items[0] == CSV_HEADER:
        return "csv"
    if tokens.lengths == {m} and _BIN in tokens.charsets:
        return "bin"
    hex_shaped = tokens.lengths == {(m + 3) // 4} and _HEX in tokens.charsets
    decimal = _DEC in tokens.charsets
    if not hex_shaped:
        width = len(items[0])
        if tokens.lengths == {width} and _BIN in tokens.charsets:
            zero_led = _first_zero_led(items)
            if zero_led is not None:
                raise _BadToken(zero_led, f"reads as {width}-bit bin, not {m}-bit")
        return "dec" if decimal else "hex"
    if not decimal or _first_zero_led(items) is not None:
        return "hex"
    as_dec, as_hex = list(map(int, items)), list(map(int, items, repeat(16)))
    if as_dec != as_hex:
        differ = next(k for k, (d, h) in enumerate(zip(as_dec, as_hex)) if d != h)
        raise _BadToken(differ, "reads as both dec and hex; pass --format")
    return "dec"


def _first_zero_led(items: list[str]) -> int | None:
    # index of the first token with a leading zero that is not "0" itself
    return next((k for k, t in enumerate(items) if t[0] == "0" and t != "0"), None)


def _convert(tokens: _Tokens, m: int, fmt: str) -> list[int] | str:
    """The words of the tokens in `fmt`, or the reason some token is not an m-bit address.

    Every check is a property of each token on its own, so a list fails
    exactly when one of its tokens does; _first_bad relies on that.
    """
    items = tokens.items
    if fmt == "csv":
        if set(map(str.count, items, repeat(","))) - {3}:
            return "expected 4 csv columns"
        if not items:
            return []
        ns, decs, bins, dists = (tokens.cells[k::4] for k in range(4))
        words = _convert(_Tokens(bins), m, "bin")
        if isinstance(words, str):
            return f"address_bin is not {m} bits"
        if "" in decs or _convert(_Tokens(decs), m, "dec") != words:
            return "address_dec does not match address_bin"
        # only a row numbered 0, the first one written, may leave its distance empty
        text = "".join(ns) + "".join(dists)
        no_distance = set(compress(ns, map(not_, dists)))  # the n of each row without one
        if not (all(ns) and text.isascii() and text.isdigit()) or no_distance - {"0"}:
            return "n and hamming_to_prev must be ASCII digits"
        return words
    if fmt == "bin":
        base, ok = 2, tokens.lengths <= {m} and _BIN in tokens.charsets
    elif fmt == "dec":
        base, ok = 10, _DEC in tokens.charsets
    else:
        items = list(map(str.removeprefix, items, repeat("0x")))
        base, ok = 16, "" not in items and _HEX in _Tokens(items).charsets
    if not ok:
        return f"not a {fmt} address"
    words = list(map(int, items, repeat(base)))
    if words and max(words) >> m:
        return f"value out of range for {m} bits"
    return words


def _first_bad(items: list[str], m: int, fmt: str) -> int:
    # bisect for the first token _convert rejects; the whole list is known to fail
    lo, hi = 0, len(items)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if isinstance(_convert(_Tokens(items[lo:mid]), m, fmt), str):
            hi = mid
        else:
            lo = mid
    return lo
