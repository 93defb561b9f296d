"""Address sequence engines.

Every address the paper's generator emits is a GF(2) linear combination
of the matrix rows, selected by a counter.  So each engine variant is a
constant XORed onto a linear map of a contiguous counter range:

    address(n) = const ^ combine(basis, (start + n) mod 2^m)

and one kernel, `_affine_blocks`, evaluates that closed form for all of
them.  One map, `_affine`, gives each variant its (basis, const, start);
with ``D`` the difference words of ``V`` (row 1 kept, row i replaced by
``V[i-1] ^ V[i]``), they are:

* direct(V): ``(V, 0, 0)``; address ``n`` is the rows picked by ``n``;
* recursive(V, a0, b0): ``(D, a0 ^ combine(D, b0), b0)``; the up-run that
  starts at address ``a0`` with counter ``b0`` and XORs in one row per
  step, picked by the gray-code switching index of the counter;
* shifted(V, L): ``(D, 0, L)``; the zero-initialized up-run rotated by L
  (its starting address ``combine(D, L)`` cancels the counter start's);
* down(V, a0, b0): ``(D, a0 ^ combine(D, b0) ^ V[m-1], -b0)``;
  the exact reversal of the up-run, because
  ``(b0 - 1 - n) mod 2^m = (2^m - 1) XOR ((n - b0) mod 2^m)``, and
  ``combine(D, 2^m - 1)``, the XOR of every difference word, telescopes
  to the last row ``V[m-1]``;
* address_at(V, p): ``combine(D, p)``.

The recursive forms rest on ``combine(V, gray(c)) = combine(D, c)``: the
gray-coded counter selects rows of ``V`` exactly as the plain counter
selects rows of ``D``.  The library never steps one XOR at a time; that
hardware model is kept in the tests as the reference the kernel is
checked against.

A matrix keeps what a run derives from it: its difference basis ``D``
and, for ``V`` and ``D`` each, ceil(m/8) tables of 256 words, table j
holding every combination of rows 8j..8j+7.  They are built on the first
run that needs them, so any later run over the same matrix costs only
its addresses: ``combine`` is ceil(m/8) lookups, and a run of at most
256 addresses takes its words straight from table 0.  A longer run goes
1024 words a block: lists of ints, chained into the one word iterator
of an `AddressStream`, or for the CLI's `gen` packed 64-bit words, one
big-int XOR per block, formatted with no stream and no word gate.

Every full-length run over a full-rank matrix visits each of the ``2^m``
addresses exactly once, for any choice of initial address and initial
counter state.  `permute_address_bits` rearranges the bits of a
stream's words, moving one bit of 1024 packed words at a time.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

from .common import _BLOCK, _check_perm, _checked_blocks, _combine, _packed, _permuted, _unpacked
from .gf2 import BitsLike, BitVector, GenerationMatrix, _Value, as_bitvector


def _affine_blocks(
    tables: Sequence[Sequence[int]], m: int, const: int, start: int, count: int, packed: bool = False
) -> Iterator[list[int]] | Iterator[bytes]:
    """Yield ``const ^ combine(basis, (start + n) mod 2^m)`` for ``n < count``, a block at a time.

    `tables` are the basis's 8-bit combine tables.  Each aligned block of
    the counter costs one row combination for its high bits and one XOR
    of it onto a table of its low bits: table 0 itself for a run that
    fits in it, else a table of up to _BLOCK words built from tables 0
    and 1.  A block is a list of ints, or with `packed` the `_packed`
    words: ``high * rep`` repeats ``high`` in every 64-bit lane, with no
    carry, to XOR onto the table packed once.  Blocks never straddle the
    2^m wrap, because a block's length divides 2^m.
    """
    table = tables[0]
    if count > len(table):
        size = min(_BLOCK, 1 << (count - 1).bit_length())
        table = [high ^ t for high in tables[1][: size // len(table)] for t in table]
    low_mask = len(table) - 1
    if packed:  # rep: a 1 in every 64-bit lane
        T = int.from_bytes(_packed(table), "little")
        rep = int.from_bytes((b"\1" + bytes(7)) * len(table), "little")
    mask = (1 << m) - 1
    c = start & mask
    while count > 0:
        lo = c & low_mask
        take = min(low_mask + 1 - lo, count)
        high = const ^ _combine(tables, c - lo)
        if packed:
            yield (T ^ high * rep).to_bytes(8 * len(table), "little")[8 * lo : 8 * (lo + take)]
        else:
            yield [high ^ t for t in table[lo : lo + take]]
        count -= take
        c = (c + take) & mask


class SequenceSpec(_Value):
    """A complete generation recipe.

    `direction` describes the emitted order: "up" runs the recursive
    engine forward, "down" emits the exact reversal of that up-run.
    `count` defaults to the full period ``2^m``; shorter runs are
    allowed but only complete runs carry the balance properties.
    A spec is immutable, and compares, hashes and prints by its fields.
    """

    __slots__ = ("matrix", "a0", "b0", "direction", "count")

    def __init__(
        self,
        matrix: GenerationMatrix,
        a0: BitsLike = 0,
        b0: BitsLike = 0,
        direction: str = "up",
        count: int | None = None,
    ):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "count", count)
        self.__post_init__()  # a method of its own, so a wrapper can be put on it

    def __post_init__(self):
        self.matrix.require_full_rank()
        m = self.matrix.m
        object.__setattr__(self, "a0", as_bitvector(self.a0, m))
        object.__setattr__(self, "b0", as_bitvector(self.b0, m))
        if self.direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {self.direction!r}")
        count = (1 << m) if self.count is None else self.count
        if count.__class__ is not int or not 0 <= count <= (1 << m):
            raise ValueError(f"count must be in 0..2^{m}, got {count}")
        object.__setattr__(self, "count", count)

    def _args(self) -> tuple:
        return self.matrix, self.a0, self.b0, self.direction, self.count

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._args()))
        return f"{type(self).__qualname__}({fields})"

    @property
    def m(self) -> int:
        return self.matrix.m


class AddressStream:
    """Lazily produced sequence of `count` addresses of width `m`.

    `words()` drains the remaining addresses as plain ints; iterating
    the stream yields them as BitVectors instead.  The analysis
    functions and `format_lines` take either.  A stream is single-pass
    and single-owner.
    """

    def __init__(self, m: int, count: int, word_iter: Iterator[int]):
        self.m, self.count, self._word_iter = m, count, word_iter

    def __iter__(self) -> "AddressStream":
        return self

    def __next__(self) -> BitVector:
        return BitVector(self.m, next(self._word_iter))

    def words(self) -> Iterator[int]:
        return self._word_iter


def _affine(spec: SequenceSpec, shift: int | None = None, direct: bool = False) -> tuple:
    # the `_affine_blocks` arguments of `spec`'s run, up or down, or of the direct or the shifted
    # run over its matrix, which read only its matrix and count
    matrix, m, count = spec.matrix, spec.m, spec.count
    if direct:
        return matrix._byte_tables(), m, 0, 0, count
    tables = matrix._difference()._byte_tables()
    if shift is not None:
        return tables, m, 0, shift, count
    b0 = spec.b0.word
    const = spec.a0.word ^ _combine(tables, b0)
    if spec.direction == "up":
        return tables, m, const, b0, count
    # combine(D, 2^m - 1) telescopes to the last row of V
    return tables, m, const ^ matrix.row_words[-1], -b0 & ((1 << m) - 1), count


def _check_shift(shift: int, m: int) -> None:
    if shift.__class__ is not int or not 0 <= shift < (1 << m):
        raise ValueError(f"shift must be in 0..2^{m}-1, got {shift}")


def generate_direct(matrix: GenerationMatrix, count: int | None = None) -> AddressStream:
    """Direct sequence: address ``n`` is the row combination selected by ``n``.

    Runs the plain binary counter from zero; with the identity matrix
    the output is the counter itself.
    """
    spec = SequenceSpec(matrix, count=count)
    return AddressStream(spec.m, spec.count, chain.from_iterable(_affine_blocks(*_affine(spec, direct=True))))


def generate_recursive(
    matrix: GenerationMatrix,
    a0: BitsLike = 0,
    b0: BitsLike = 0,
    count: int | None = None,
) -> AddressStream:
    """Recursive sequence: the paper's one-row-XOR-per-step up-run.

    The first address is `a0`; each step XORs in the row picked by the
    switching index of the up-counter started at `b0`.  Evaluated in
    closed form over the difference words, ``(D, a0 ^ combine(D, b0), b0)``.
    """
    return generate(SequenceSpec(matrix, a0, b0, "up", count))


def generate_down(
    matrix: GenerationMatrix,
    a0: BitsLike = 0,
    b0: BitsLike = 0,
    count: int | None = None,
) -> AddressStream:
    """Exact reversal of the corresponding up-run: ``down(n) = up(2^m - 1 - n)``.

    Evaluated in closed form over the difference words as
    ``(D, a0 ^ combine(D, b0) ^ V[m-1], -b0 mod 2^m)``.
    """
    return generate(SequenceSpec(matrix, a0, b0, "down", count))


def address_at(matrix: GenerationMatrix, position: int) -> BitVector:
    """Address at `position` of the zero-initialized recursive run, without iterating.

    The recursive run over ``V`` is the direct run over its difference
    words ``D``, so one row combination, ``combine(D, position)``
    (ceil(m/8) lookups in the matrix's cached tables), answers any position.
    """
    matrix.require_full_rank()
    if position.__class__ is not int or not 0 <= position < (1 << matrix.m):
        raise ValueError(f"position must be in 0..2^{matrix.m}-1, got {position}")
    return BitVector(matrix.m, _combine(matrix._difference()._byte_tables(), position))


def generate_shifted(matrix: GenerationMatrix, shift: int, count: int | None = None) -> AddressStream:
    """Rotation of the zero-initialized recursive run by `shift` positions.

    ``shifted(n) = up((n + shift) mod 2^m)``: the up-run with counter
    start `shift` and starting address ``address_at(matrix, shift)``,
    which the kernel evaluates as ``(D, 0, shift)``: the starting
    address and the row combination of the counter start cancel.
    """
    _check_shift(shift, matrix.m)
    spec = SequenceSpec(matrix, count=count)
    return AddressStream(spec.m, spec.count, chain.from_iterable(_affine_blocks(*_affine(spec, shift))))


def generate(spec: SequenceSpec) -> AddressStream:
    """Run the recursive engine a SequenceSpec describes, up or down."""
    return AddressStream(spec.m, spec.count, chain.from_iterable(_affine_blocks(*_affine(spec))))


def permute_address_bits(stream: AddressStream, perm: Sequence[int]) -> AddressStream:
    """Rearrange the bits of every address: output bit k reads input bit perm[k-1].

    A bit permutation maps a valid address sequence to a valid address
    sequence (it is a bijection on words), which is the classic cheap
    way of multiplying one address order into m! of them.  As the stream
    is read, its words pass the word gate of `format_lines` and the
    analysis: a float or a string raises TypeError, and a word outside
    0..2^m - 1 ValueError.
    """
    perm = _check_perm(perm, stream.m)
    blocks = (_permuted(buf, perm) for buf in _checked_blocks(stream.words(), stream.m))
    return AddressStream(stream.m, stream.count, chain.from_iterable(map(_unpacked, blocks)))
