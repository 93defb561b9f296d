"""Bit vectors and generation matrices over GF(2).

Addresses, counter states and matrix rows are all fixed-width binary
words of at most 64 bits, held in a single Python int.  Bit positions
are 1-based from the least significant end (``v.bit(1)`` is the lowest
bit), and words render most-significant-bit first, so the leftmost
character of ``str(v)`` is bit ``width``.  Matrix rows use the same
rendering as the addresses they produce, which makes a printed row
directly comparable, character by character, with any address that row
contributes to.

A generation matrix is an ordered list of ``m`` rows of width ``m``.
Row order is semantically significant (it defines the address order of
the generated sequence), so no operation here ever reorders rows; rank
computation works on a scratch copy.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import xor
from typing import Iterable, Iterator, Union

from .common import _SPACE, _check_m, _combine, _split_lines, _tables_of

MAX_WIDTH = 64

BitsLike = Union["BitVector", int, str]


class RankDeficiencyError(ValueError):
    """A matrix that must be invertible over GF(2) is not."""

    def __init__(self, rank: int, m: int):
        self.rank = rank
        self.m = m
        super().__init__(
            f"generation matrix must have full rank {m} but has rank {rank}"
        )


def rank_of_words(words: Iterable[int]) -> int:
    """GF(2) row rank of a collection of words, by Gaussian elimination.

    Rows are reduced against previously found pivot rows, held in a dict
    keyed by their bit length, so a word of any width fits.  A row whose
    bit length has no pivot yet becomes that pivot, and XORing it with
    itself ends its reduction.  The input is never mutated.
    """
    pivots: dict[int, int] = {}
    for w in words:
        while w:
            w ^= pivots.setdefault(w.bit_length(), w)
    return len(pivots)


class _Value:
    """An immutable value: ``_args()`` gives the constructor arguments of an equal value.

    It compares and hashes by them, and copy and pickle rebuild it through
    the constructor, whose checks run again.  Constructors store with
    ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._args() == other._args()

    def __hash__(self) -> int:
        return hash(self._args())

    def __reduce__(self):
        return type(self), self._args()


class BitVector(_Value):
    """An immutable binary word of fixed width (1..64 bits)."""

    __slots__ = ("width", "word")

    def __init__(self, width: int, word: int = 0):
        if width.__class__ is not int or not 1 <= width <= MAX_WIDTH:  # inline: built per window
            _check_m(width)
        if word.__class__ is not int:
            raise ValueError(f"word must be an int, got {word!r}")
        if word < 0 or word >> width:
            raise ValueError(f"word {word:#x} does not fit in {width} bits")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "word", word)

    def _args(self) -> tuple:
        return self.width, self.word

    @classmethod
    def from_string(cls, bits: str) -> "BitVector":
        """Parse an MSB-first string of 0s and 1s, e.g. ``"1011"``."""
        bits = bits.strip(_SPACE)
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"not a binary string: {bits!r}")
        return cls(len(bits), int(bits, 2))

    def bit(self, i: int) -> int:
        """Bit at 1-based position `i` (position 1 is least significant)."""
        if not 1 <= i <= self.width:
            raise ValueError(f"bit position {i} out of range 1..{self.width}")
        return (self.word >> (i - 1)) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if not isinstance(other, BitVector):
            return NotImplemented
        if other.width != self.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        return BitVector(self.width, self.word ^ other.word)

    def __int__(self) -> int:
        return self.word

    def __index__(self) -> int:
        return self.word

    def __str__(self) -> str:
        return format(self.word, f"0{self.width}b")

    def __repr__(self) -> str:
        return f"BitVector({self.width}, 0b{self})"


def as_bitvector(value: BitsLike, width: int) -> BitVector:
    """Coerce an int, 0/1 string, or BitVector to a BitVector of `width`."""
    if isinstance(value, str):
        value = BitVector.from_string(value)
    if not isinstance(value, BitVector):
        return BitVector(width, value)
    if value.width != width:
        raise ValueError(f"expected width {width}, got {value.width}")
    return value


class GenerationMatrix(_Value):
    """An m x m binary matrix whose rows generate an address sequence.

    Rows are BitVectors of width ``m``; ``rows[0]`` is the first row,
    the one selected by the lowest counter bit.  The GF(2) rank is
    computed once at construction and cached on the instance.  The
    difference basis and the 8-bit combine tables are built on first use
    and kept too; they take no part in equality, hashing or ``repr``,
    and a copy starts without them.
    """

    __slots__ = ("m", "rows", "rank", "_words", "_diff", "_tables")

    def __init__(self, rows: Iterable[BitsLike], m: int | None = None):
        rows = tuple(rows)
        if m is None:
            if not rows:
                raise ValueError("empty matrix and no explicit width")
            first = rows[0]
            if isinstance(first, BitVector):
                m = first.width
            elif isinstance(first, str):
                m = len(first.strip(_SPACE))
            else:
                m = len(rows)  # plain ints: assume square
        _check_m(m)
        coerced = tuple(as_bitvector(r, m) for r in rows)
        if len(coerced) != m:
            raise ValueError(f"expected {m} rows, got {len(coerced)}")
        words = tuple(r.word for r in coerced)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", coerced)
        object.__setattr__(self, "_words", words)
        object.__setattr__(self, "rank", rank_of_words(words))
        object.__setattr__(self, "_diff", None)
        object.__setattr__(self, "_tables", None)

    def _args(self) -> tuple:
        return self._words, self.m

    @classmethod
    def identity(cls, m: int) -> "GenerationMatrix":
        return cls((1 << i for i in range(m)), m)

    @property
    def row_words(self) -> tuple[int, ...]:
        """Rows as plain ints, for bulk arithmetic."""
        return self._words

    def _difference(self) -> "GenerationMatrix":
        # difference_basis(self), built on first use and kept
        if self._diff is None:
            diff = tuple(prev ^ w for prev, w in zip((0, *self._words), self._words))
            object.__setattr__(self, "_diff", GenerationMatrix(diff, self.m))
        return self._diff

    def _byte_tables(self) -> tuple[list[int], ...]:
        # `_tables_of` the rows, built on first use and kept
        if self._tables is None:
            object.__setattr__(self, "_tables", _tables_of(self._words))
        return self._tables

    def require_full_rank(self) -> "GenerationMatrix":
        if self.rank != self.m:
            raise RankDeficiencyError(self.rank, self.m)
        return self

    # -- matrix text format -------------------------------------------------
    #
    # First line "m=<int>", then m lines of exactly m characters from {0,1},
    # line i holding row i printed MSB-first.  The width is ASCII digits.
    # Lines end at \n, \r\n or \r.  Trailing ASCII whitespace and blank
    # lines are insignificant; an error names its line as counted in the
    # text, blank lines included.

    def to_text(self) -> str:
        lines = [f"m={self.m}"]
        lines.extend(str(r) for r in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GenerationMatrix":
        # (line number in the text, line) for each non-blank line, so errors name the file's line
        stripped = map(str.rstrip, _split_lines(text), repeat(_SPACE))
        lines = [(i, ln) for i, ln in enumerate(stripped, 1) if ln]
        if not lines or not lines[0][1].startswith("m="):
            raise ValueError("matrix text must start with a 'm=<int>' line")
        width = lines[0][1][2:]
        if not (width.isascii() and width.isdigit()):
            raise ValueError(f"bad width declaration: {lines[0][1]!r}")
        m = int(width)
        if len(lines) - 1 != m:
            raise ValueError(f"expected {m} row lines, found {len(lines) - 1}")
        rows = []
        for i, ln in lines[1:]:
            if len(ln) != m or any(c not in "01" for c in ln):
                raise ValueError(f"line {i}: expected {m} characters of 0/1, got {ln!r}")
            rows.append(ln)
        return cls(rows, m)

    def __iter__(self) -> Iterator[BitVector]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"GenerationMatrix([{', '.join(str(r) for r in self.rows)}])"


def linear_combination(matrix: GenerationMatrix, selector: BitsLike) -> BitVector:
    """XOR of the rows picked by the selector's bits.

    Selector bit 1 (least significant) picks the first row.  This is the
    direct evaluation of an address from a counter word: each address of
    a generated sequence is one such combination.
    """
    sel = as_bitvector(selector, matrix.m).word
    return BitVector(matrix.m, _combine(matrix._byte_tables(), sel))


def cumulative_basis(matrix: GenerationMatrix) -> GenerationMatrix:
    """Running-XOR transform: output row i is the XOR of rows 1..i.

    This is an invertible row operation (see `difference_basis` for the
    inverse), so rank is preserved.  A recursive generator loaded with
    ``cumulative_basis(V)`` emits the same sequence that direct
    evaluation of ``V`` produces.
    """
    return GenerationMatrix(accumulate(matrix.row_words, xor), matrix.m)


def difference_basis(matrix: GenerationMatrix) -> GenerationMatrix:
    """Adjacent-XOR transform: row 1 is kept, row i becomes rows[i-1] ^ rows[i].

    Exact inverse of `cumulative_basis` (with an implicit zero row above
    row 1).  Direct evaluation of ``difference_basis(V)`` emits the same
    sequence that a recursive generator loaded with ``V`` produces.
    """
    return matrix._difference()
