"""Constructors for the standard generation-matrix families.

Each constructor returns a full-rank matrix whose recursive sequence has
a characteristic access pattern used in memory testing:

* linear        - plain up-counter order
* power2(j)     - counter order striding by 2^j, carries wrapping into
                  the low bits (equals a left bit-rotation of the counter)
* complement    - counter order interleaved with bitwise complements
* limited       - consecutive Hamming distances alternate m and m-1
                  (the highest sustainable switching activity)
* graycode      - consecutive Hamming distance always 1 (the lowest),
                  one matrix per permutation of the unit rows
* quasirandom   - lower-triangular with unit diagonal; the all-ones
                  default emits the base-2 van der Corput order
                  (bit-reversed counter)

Also here: seeded sampling of random full-rank matrices and address-bit
permutation of an existing stream.  The full-rank statistics are in `census`.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .common import _SHIFT_MASKS, _SPACE, _STAR, _ascii_int, _check_m, _checked_blocks, _seeded, _step, _unpacked
from .gf2 import BitsLike, GenerationMatrix, as_bitvector, rank_of_words

if TYPE_CHECKING:  # the matrix and permute commands never load generate; permute_address_bits does
    from .generate import AddressStream


def _rotl(word: int, j: int, m: int) -> int:
    j %= m
    if j == 0:
        return word
    return ((word << j) | (word >> (m - j))) & ((1 << m) - 1)


def linear_matrix(m: int) -> GenerationMatrix:
    """Row i has its i lowest bits set; the recursive sequence is 0,1,2,..."""
    _check_m(m)
    return GenerationMatrix(((1 << i) - 1 for i in range(1, m + 1)), m)


def power2_matrix(m: int, j: int) -> GenerationMatrix:
    """The linear matrix with its columns cyclically rotated by `j`.

    The all-ones column moves j printed positions to the left, and the
    generated addresses are the counter values rotated left by j bits,
    i.e. the sequence strides by 2^j with carries wrapping into the low
    bits.  j = 0 is the linear matrix itself.
    """
    _check_m(m)
    if j.__class__ is not int or not 0 <= j <= m - 1:
        raise ValueError(f"j must be in 0..{m - 1}, got {j}")
    return GenerationMatrix((_rotl((1 << i) - 1, j, m) for i in range(1, m + 1)), m)


def complement_matrix(m: int) -> GenerationMatrix:
    """Row i has its m-i+1 highest bits set.

    Even-position addresses count 0,1,2,... and every odd-position
    address is the bitwise complement of its predecessor.
    """
    _check_m(m)
    return GenerationMatrix(((1 << m) - (1 << (i - 1)) for i in range(1, m + 1)), m)


def limited_matrix(m: int, zeros: Sequence[int] | None = None) -> GenerationMatrix:
    """All-ones first row; each later row is all ones with a single 0.

    The zero positions (1-based bit positions, one per row 2..m) are
    pairwise distinct, leaving exactly one never-zeroed unit column.
    Consecutive Hamming distances alternate m, m-1.  The default places
    row i's zero at bit position i-1, keeping the top bit as the unit
    column; any other distinct placement may be passed via `zeros`.
    """
    _check_m(m, low=2)
    if zeros is None:
        zeros = tuple(range(1, m))
    else:
        zeros = tuple(zeros)
        if len(zeros) != m - 1:
            raise ValueError(f"need {m - 1} zero positions for rows 2..{m}, got {len(zeros)}")
        if any(z.__class__ is not int or not 1 <= z <= m for z in zeros) or len(set(zeros)) != m - 1:
            raise ValueError(f"zero positions must be distinct values in 1..{m}: {zeros}")
    ones = (1 << m) - 1
    rows = [ones]
    rows.extend(ones ^ (1 << (z - 1)) for z in zeros)
    return GenerationMatrix(rows, m)


def graycode_matrix(m: int, perm: Sequence[int] | None = None) -> GenerationMatrix:
    """Unit rows: row i is the unit vector at position perm[i-1].

    Every consecutive pair of generated addresses differs in exactly one
    bit.  The identity permutation gives the standard reflected gray
    code; the m! permutations give the m! distinct gray-code matrices.
    """
    _check_m(m)
    perm = _check_perm(perm, m)
    return GenerationMatrix((1 << (p - 1) for p in perm), m)


def quasirandom_matrix(m: int, rows: Iterable[BitsLike] | None = None) -> GenerationMatrix:
    """Lower-triangular matrix with all 1s on the main diagonal.

    Printed row i carries a 1 in column i, anything in columns 1..i-1,
    and 0s to the right of the diagonal; such a matrix is always full
    rank.  The default sets every entry on and below the diagonal,
    which generates the base-2 van der Corput order (the bit-reversed
    counter).  Custom sub-diagonal bits may be supplied as `rows`; an
    override breaking the unit diagonal or the triangular form is
    rejected.
    """
    _check_m(m)
    if rows is None:
        return GenerationMatrix(((1 << m) - (1 << (m - i)) for i in range(1, m + 1)), m)
    coerced = [as_bitvector(r, m) for r in rows]
    if len(coerced) != m:
        raise ValueError(f"expected {m} rows, got {len(coerced)}")
    for i, row in enumerate(coerced, start=1):
        diag = m - i  # bit position of printed column i
        if not (row.word >> diag) & 1:
            raise ValueError(f"row {i} must have its diagonal bit set: {row}")
        if row.word & ((1 << diag) - 1):
            raise ValueError(f"row {i} has bits right of the diagonal: {row}")
    return GenerationMatrix(coerced, m)


# -- seeded random sampling ---------------------------------------------------


class XorShift64Star:
    """Small explicit PRNG (xorshift64*, state seeded through splitmix64).

    The constants are fixed and documented so that a seed identifies the
    same draw stream in any implementation; seeds are part of the
    reproducibility contract of `random_fullrank_matrix`.  The state is
    splitmix64 of ``seed mod 2^64`` (add 0x9E3779B97F4A7C15; xor-shift
    right 30, times 0xBF58476D1CE4E5B9; right 27, times
    0x94D049BB133111EB; right 31), or 0x9E3779B97F4A7C15 if that is 0.
    Each draw steps the state ``x ^= x >> 12; x ^= x << 25; x ^= x >> 27``
    (mod 2^64) and returns ``x * 0x2545F4914F6CDD1D mod 2^64``.  The step
    is a GF(2)-linear map T of the 64-bit state, so a jump of L draws is
    the map T^L.
    """

    def __init__(self, seed: int = 0):
        self._state = _seeded(seed)

    def draws(self, count: int, k: int = 64) -> list[int]:
        """Low k bits of each of the next `count` draws (all 64 when k >= 64)."""
        mask = (1 << min(k, 64)) - 1
        x = self._state
        out = []
        for _ in range(count):
            x = _step(x, *_SHIFT_MASKS)
            out.append(x * _STAR & mask)
        self._state = x
        return out

    def next64(self) -> int:
        return self.draws(1)[0]

    def bits(self, k: int) -> int:
        """Low k bits of the next draw (all 64 when k >= 64)."""
        return self.draws(1, k)[0]


def random_fullrank_matrix(m: int, seed: int = 0, with_attempts: bool = False):
    """Uniform random full-rank matrix by rejection sampling.

    Rows are the low m bits of consecutive xorshift64* draws; the whole
    matrix is redrawn until its rank is m (about 3.46 tries on average).
    Identical seeds reproduce identical matrices.  With
    ``with_attempts=True`` returns ``(matrix, attempts)``.
    """
    _check_m(m)
    rng = XorShift64Star(seed)
    attempts = 0
    while True:
        attempts += 1
        words = rng.draws(m, m)
        if rank_of_words(words) == m:
            matrix = GenerationMatrix(words, m)
            return (matrix, attempts) if with_attempts else matrix


# -- address-bit permutation --------------------------------------------------


def _check_perm(perm: Sequence[int] | None, m: int) -> tuple[int, ...]:
    if perm is None:
        return tuple(range(1, m + 1))
    perm = tuple(perm)
    if any(p.__class__ is not int for p in perm) or sorted(perm) != list(range(1, m + 1)):
        raise ValueError(f"perm must be a permutation of 1..{m}, got {perm}")
    return perm


def permute_address_bits(stream: AddressStream, perm: Sequence[int]) -> AddressStream:
    """Rearrange the bits of every address: output bit k reads input bit perm[k-1].

    A bit permutation maps a valid address sequence to a valid address
    sequence (it is a bijection on words), which is the classic cheap
    way of multiplying one address order into m! of them.  As the stream
    is read, a word that is not an int raises TypeError and one outside
    0..2^m - 1 raises ValueError, as `format_lines` does.
    """
    from .generate import AddressStream

    perm = _check_perm(perm, stream.m)
    blocks = (_permuted(buf, perm) for buf in _checked_blocks(stream.words(), stream.m))
    return AddressStream(stream.m, stream.count, chain.from_iterable(map(_unpacked, blocks)))


def _permuted(buf: bytes, perm: Sequence[int]) -> bytes:
    # output bit k of every word in `buf` at once: `ones`, a 1 per 64-bit lane, picks input bit perm[k-1]
    x, ones = int.from_bytes(buf, "little"), int.from_bytes((b"\1" + bytes(7)) * (len(buf) // 8), "little")
    return sum((x >> (p - 1) & ones) << k for k, p in enumerate(perm)).to_bytes(len(buf), "little")


class PermutationCount(NamedTuple):
    exact: int
    stirling: float


def permutation_count(m: int) -> PermutationCount:
    """Exact m! next to its Stirling approximation m^m e^-m sqrt(2 pi m), inf from m = 171."""
    if m.__class__ is not int or m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    try:
        stirling = math.exp(m * math.log(m) - m + 0.5 * math.log(2.0 * math.pi * m))
    except OverflowError:
        stirling = math.inf
    return PermutationCount(math.factorial(m), stirling)


# -- family dispatch by name (CLI surface) ------------------------------------

FAMILY_NAMES = ("linear", "pow2", "complement", "limited", "gray", "quasi", "random")
_PLAIN_FAMILIES = {"linear": linear_matrix, "complement": complement_matrix,  # no parameter
                   "limited": limited_matrix, "quasi": quasirandom_matrix}


def family_matrix(spec: str, m: int, seed: int | None = None) -> GenerationMatrix:
    """Build a family matrix from its CLI name, e.g. ``pow2:2`` or ``random:seed=7``.

    `seed` seeds a ``random`` spec that names no seed of its own; a seed
    given to another family, or given twice, raises ValueError.
    """
    name, _, arg = spec.partition(":")
    name = name.strip(_SPACE).lower()
    try:
        if seed is not None and name in FAMILY_NAMES and name != "random":
            raise ValueError(f"{name} takes no seed; --seed is for the random family")
        if name in _PLAIN_FAMILIES:
            if arg:
                raise ValueError(f"{name} takes no parameter")
            return _PLAIN_FAMILIES[name](m)
        if name == "pow2":
            if not arg:
                raise ValueError("pow2 needs a shift, e.g. pow2:2")
            return power2_matrix(m, _ascii_int(arg))
        if name == "gray":
            perm = list(map(_ascii_int, arg.split(","))) if arg else None
            return graycode_matrix(m, perm)
        if name == "random":
            if arg:
                if seed is not None:
                    raise ValueError("the seed is given twice, in the spec and as --seed")
                seed = _ascii_int(arg.removeprefix("seed="))
            if seed is None:
                raise ValueError("random needs a seed, e.g. random:7 (or --seed)")
            return random_fullrank_matrix(m, seed)
    except ValueError as exc:
        raise ValueError(f"bad family {spec!r}: {exc}") from None
    raise ValueError(f"unknown family {name!r} (expected one of {', '.join(FAMILY_NAMES)})")
