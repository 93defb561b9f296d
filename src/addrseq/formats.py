"""Text formats for address sequences.

Four interchangeable formats, one address per line:

* ``bin`` - MSB-first bit string, zero-padded to the width
* ``dec`` - unsigned decimal
* ``hex`` - lowercase hexadecimal, zero-padded to ceil(m/4) digits
* ``csv`` - header ``n,address_dec,address_bin,hamming_to_prev`` then one
  row per address (the first row's distance column is empty)

Parsing accepts any of these.  ``auto`` detection prefers csv (header
present), then bin (every line is exactly m characters of 0/1).  Lines
that all have exactly ceil(m/4) hex digits read as hex unless they are
also canonical decimal (no leading zeros); all-digit lines that are not
hex-shaped read as dec.  Lines valid both ways read as dec when the two
readings agree, and are a parse error when they differ.  Lines that are
bin of one common width other than m, told by a leading zero, are a
parse error naming that width.  Anything else is tried as hex.  Emitted
output always round-trips.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

FORMATS = ("bin", "dec", "hex", "csv")

CSV_HEADER = "n,address_dec,address_bin,hamming_to_prev"

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class SequenceParseError(ValueError):
    """An input line that does not parse as an address; carries its line number."""

    def __init__(self, lineno: int, line: str, reason: str):
        self.lineno = lineno
        self.line = line
        super().__init__(f"line {lineno}: {reason}: {line!r}")


def format_lines(words: Iterable[int], m: int, fmt: str = "bin") -> Iterator[str]:
    """Render a stream of address words as lines in the requested format."""
    if fmt == "bin":
        for w in words:
            yield format(w, f"0{m}b")
    elif fmt == "dec":
        for w in words:
            yield str(w)
    elif fmt == "hex":
        digits = (m + 3) // 4
        for w in words:
            yield format(w, f"0{digits}x")
    elif fmt == "csv":
        yield CSV_HEADER
        prev = None
        for n, w in enumerate(words):
            dist = "" if prev is None else str((prev ^ w).bit_count())
            yield f"{n},{w},{format(w, f'0{m}b')},{dist}"
            prev = w
    else:
        raise ValueError(f"unknown format {fmt!r} (expected one of {FORMATS})")


def detect_format(lines: Sequence[str], m: int) -> str:
    """Pick the format of already-stripped, non-empty lines.

    Raises SequenceParseError, numbered within `lines`, when the lines
    read as both dec and hex with different values, or read as bin of
    another width.
    """
    return _detect(list(enumerate(lines, start=1)), m)


def _detect(numbered: list[tuple[int, str]], m: int) -> str:
    # numbered holds (line number, stripped line) pairs for error messages
    lines = [ln for _, ln in numbered]
    if not lines:
        return "bin"
    if lines[0] == CSV_HEADER:
        return "csv"
    if all(len(ln) == m and set(ln) <= {"0", "1"} for ln in lines):
        return "bin"
    digits = (m + 3) // 4
    hex_shaped = all(len(ln) == digits and not set(ln) - _HEX_DIGITS for ln in lines)
    decimal = all(ln.isdigit() for ln in lines)
    zero_led = [(i, ln) for i, ln in numbered if ln.startswith("0") and ln != "0"]
    if not hex_shaped:
        width = len(lines[0])
        if zero_led and all(len(ln) == width and set(ln) <= {"0", "1"} for ln in lines):
            raise SequenceParseError(*zero_led[0], f"reads as {width}-bit bin, not {m}-bit")
        return "dec" if decimal else "hex"
    if not decimal or zero_led:
        return "hex"
    for i, ln in numbered:
        if int(ln, 16) != int(ln, 10):
            raise SequenceParseError(i, ln, "reads as both dec and hex; pass --format")
    return "dec"


def parse_lines(lines: Iterable[str], m: int, fmt: str = "auto") -> list[int]:
    """Parse address lines into words, validating the width.

    Blank lines are ignored.  Unparseable lines raise SequenceParseError
    naming the 1-based line number.
    """
    numbered = [(i, ln.strip()) for i, ln in enumerate(lines, start=1)]
    numbered = [(i, ln) for i, ln in numbered if ln]
    if fmt == "auto":
        fmt = _detect(numbered, m)
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r} (expected one of {FORMATS})")

    limit = 1 << m
    out = []
    if fmt == "csv":
        body = numbered
        if body and body[0][1] == CSV_HEADER:
            body = body[1:]
        for i, ln in body:
            parts = ln.split(",")
            if len(parts) != 4:
                raise SequenceParseError(i, ln, "expected 4 csv columns")
            bits = parts[2]
            if len(bits) != m or set(bits) - {"0", "1"}:
                raise SequenceParseError(i, ln, f"address_bin is not {m} bits")
            out.append(int(bits, 2))
        return out

    for i, ln in numbered:
        try:
            if fmt == "bin":
                if len(ln) != m or set(ln) - {"0", "1"}:
                    raise ValueError
                w = int(ln, 2)
            elif fmt == "dec":
                w = int(ln, 10)
            else:
                w = int(ln.removeprefix("0x"), 16)
        except ValueError:
            raise SequenceParseError(i, ln, f"not a {fmt} address") from None
        if not 0 <= w < limit:
            raise SequenceParseError(i, ln, f"value out of range for {m} bits")
        out.append(w)
    return out
