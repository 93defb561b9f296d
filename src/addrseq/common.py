"""The rules every command reads, and none of the reader: the width rule, integer options and line
ends, word packing and its range check, the block writer (`gen`, `permute`, `analysis` and the reader
all run it), the byte tables of a row combination, and the xorshift64* seed rule and step.
"""

from __future__ import annotations

import sys
from array import array
from itertools import islice
from typing import Iterable, Iterator, Sequence

FORMATS = ("bin", "dec", "hex", "csv")
CSV_HEADER = "n,address_dec,address_bin,hamming_to_prev"

_SPACE = " \t\n\r\x0b\x0c"  # ASCII whitespace, what bytes.strip() strips
_BLOCK = 1024  # words per formatted block, so a pipe sees one write per 1024 lines


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


def _tables_of(rows: Sequence[int]) -> tuple[list[int], ...]:
    # table j holds, at index s, the XOR of the rows 8j + i picked by the bits i of the
    # byte s; never mutated after this
    tables = []
    for j in range(0, len(rows), 8):
        table = [0]
        for row in rows[j : j + 8]:
            table += [t ^ row for t in table]
        tables.append(table)
    return tuple(tables)


def _combine(tables: Sequence[Sequence[int]], selector: int) -> int:
    # XOR of the rows picked by the selector's bits, one byte-table lookup per 8 rows
    acc = 0
    for table in tables:
        acc ^= table[selector & 255]
        selector >>= 8
    return acc


_M64 = (1 << 64) - 1
_STAR = 0x2545F4914F6CDD1D  # xorshift64*'s output multiplier
# per shift of the xorshift64* step (>> 12, << 25, >> 27), the bits it fills from within a
# 64-bit state; times a lane marker, they keep each state lane of 64 bits or more to itself
_SHIFT_MASKS = (_M64 >> 12, _M64 << 25 & _M64, _M64 >> 27)


def _seeded(seed: int) -> int:
    # the xorshift64* start state of `seed`, as `XorShift64Star` documents it
    if seed.__class__ is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    z = (seed + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31) or 0x9E3779B97F4A7C15


def _step(x: int, right12: int, left25: int, right27: int) -> int:
    # one xorshift64* state step of every state lane of `x`, given `_SHIFT_MASKS` per lane
    x ^= x >> 12 & right12
    x ^= x << 25 & left25
    return x ^ (x >> 27 & right27)
