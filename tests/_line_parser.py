"""Reference parser: one line at a time, one set() and one int() per line.

The library parses the whole input with buffer operations; this per-line
parser is the independent computation the tests compare it against.  It
shares no code with `addrseq` except the exception it raises: the
detection rules, the shape checks and the conversions are all kept here.

A line is ASCII whitespace around ASCII digits: 0/1 for bin, 0-9 for dec,
and for hex an optional ``0x`` and hex digits.  Signs, underscores and
non-ASCII characters make a line bad, whatever `int()` would make of it.
"""

from addrseq import SequenceParseError

CSV_HEADER = "n,address_dec,address_bin,hamming_to_prev"
ASCII_SPACE = " \t\n\r\x0b\x0c"
BIN = frozenset("01")
DEC = frozenset("0123456789")
HEX = frozenset("0123456789abcdefABCDEF")


def detect(numbered, m):
    """The format of (line number, stripped non-empty line) pairs."""
    lines = [ln for _, ln in numbered]
    if not lines:
        return "bin"
    if lines[0] == CSV_HEADER:
        return "csv"
    if all(len(ln) == m and set(ln) <= BIN for ln in lines):
        return "bin"
    digits = (m + 3) // 4
    hex_shaped = all(len(ln) == digits and set(ln) <= HEX for ln in lines)
    decimal = all(set(ln) <= DEC for ln in lines)
    zero_led = [(i, ln) for i, ln in numbered if ln.startswith("0") and ln != "0"]
    if not hex_shaped:
        width = len(lines[0])
        if zero_led and all(len(ln) == width and set(ln) <= BIN for ln in lines):
            raise SequenceParseError(*zero_led[0], f"reads as {width}-bit bin, not {m}-bit")
        return "dec" if decimal else "hex"
    if not decimal or zero_led:
        return "hex"
    for i, ln in numbered:
        if int(ln, 16) != int(ln, 10):
            raise SequenceParseError(i, ln, "reads as both dec and hex; pass --format")
    return "dec"


def parse(lines, m, fmt="auto"):
    """Words of `lines`, or SequenceParseError at the first bad line."""
    numbered = [(i, ln.strip(ASCII_SPACE)) for i, ln in enumerate(lines, start=1)]
    numbered = [(i, ln) for i, ln in numbered if ln]
    if fmt == "auto":
        fmt = detect(numbered, m)
    if fmt not in ("bin", "dec", "hex", "csv"):
        raise ValueError(f"unknown format {fmt!r}")

    out = []
    if fmt == "csv":
        body = numbered
        if body and body[0][1] == CSV_HEADER:
            body = body[1:]
        for i, ln in body:
            parts = ln.split(",")
            if len(parts) != 4:
                raise SequenceParseError(i, ln, "expected 4 csv columns")
            n, dec, bits, dist = parts
            if len(bits) != m or not set(bits) <= BIN:
                raise SequenceParseError(i, ln, f"address_bin is not {m} bits")
            if not (dec and set(dec) <= DEC and int(dec) == int(bits, 2)):
                raise SequenceParseError(i, ln, "address_dec does not match address_bin")
            # the distance may be empty on the row numbered 0 only
            if not (n and set(n) <= DEC and set(dist) <= DEC and (dist or n == "0")):
                raise SequenceParseError(i, ln, "n and hamming_to_prev must be ASCII digits")
            # n counts the rows from 0, and every row after the first gives its distance to the one before
            if int(n) != len(out):
                raise SequenceParseError(i, ln, "n does not count the rows from 0")
            if out and int(dist) != bin(int(bits, 2) ^ out[-1]).count("1"):
                raise SequenceParseError(i, ln, "hamming_to_prev is not the distance to the row before")
            out.append(int(bits, 2))
        return out

    for i, ln in numbered:
        if fmt == "bin":
            text, base, ok = ln, 2, len(ln) == m and set(ln) <= BIN
        elif fmt == "dec":
            text, base, ok = ln, 10, set(ln) <= DEC
        else:
            text = ln.removeprefix("0x")
            base, ok = 16, text != "" and set(text) <= HEX
        if not ok:
            raise SequenceParseError(i, ln, f"not a {fmt} address")
        w = int(text, base)
        if w >= 1 << m:
            raise SequenceParseError(i, ln, f"value out of range for {m} bits")
        out.append(w)
    return out
