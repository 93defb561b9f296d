"""Verification and characterization of address sequences.

An address sequence over m bits is complete when it lists all 2^m words
exactly once.  Completeness forces the balance properties: every bit
position carries 2^(m-1) ones, and every set of r positions shows each
of the 2^r patterns exactly 2^(m-r) times, because a complete sequence
holds every m-bit word once, in whatever order.  ``analyze`` relies on
that implication: it scans for completeness once and reports balance as
checked up to r = min(m, max_r) whenever the scan passes.
``bit_balance`` and ``tuple_balance`` count the occurrences outright,
for an independent cross-examination of any generator.

Every check takes the sequence as words plus its width ``m``, for
example ``analyze(words, m)``, through the word gate of ``format_lines``
and ``permute_address_bits``: words are read through ``operator.index``,
so a generated stream may be passed as it is or as its ``.words()``.
Anything else (a float, a digit string) raises TypeError, and a word
outside ``0..2^m - 1`` raises ValueError.  The words are checked and
packed into one buffer, 64 bits a word, as they arrive; every check
reads that buffer and keeps no list of the words beside it.

Switching activity is profiled as the Hamming distance between
consecutive addresses, plus per-bit transition counts; the sum of the
distance profile always equals the sum of the per-bit transitions.
"""

from __future__ import annotations

import operator
from collections import deque
from itertools import count, repeat
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .common import _BLOCK, _bit_columns, _checked_blocks, _diffs, _pieces, _unpacked

if TYPE_CHECKING:  # gf2 is loaded only when a report names a word
    from .gf2 import BitVector

_CHUNK = 8 * _BLOCK  # words per packed chunk of the fold, so its big-int temporaries stay at 64 KB


class IncompleteSequenceError(ValueError):
    """Balance checks require a complete sequence (see verify_complete)."""


def _as_words(seq: Iterable[int], m: int) -> bytearray:
    # the words that pass `_checked_blocks`, the word gate, in one buffer, a block at a time
    packed = bytearray()
    for buf in _checked_blocks(seq, m):
        packed += buf
    return packed


def _fold(packed: bytes, m: int) -> tuple[list[int], bytearray, list[int]]:
    # per-bit ones (index 0 is the LSB), a byte per distance and per-bit transitions of the words
    # `_packed` in `packed`, _CHUNK at a time, each chunk XORed with itself a word up, the last
    # word before it carried in
    ones, distances, transitions, prev = [0] * m, bytearray(), [0] * m, b""
    for chunk in _pieces(packed, _CHUNK):
        diffs, dists = _diffs(chunk, prev or chunk[:8], m)  # the first word's own: a 0, dropped
        for tally, buf in ((ones, chunk), (transitions, diffs)):
            tally[:] = map(operator.add, tally, [column.count(b"1") for column in _bit_columns(buf, m)])
        distances += dists
        prev = chunk[-8:]
    return ones, distances[1:], transitions


class Completeness(NamedTuple):
    """Outcome of the completeness check, with first-violation diagnostics."""

    complete: bool
    m: int
    length: int
    distinct: int
    first_duplicate: BitVector | None = None
    first_missing: BitVector | None = None


def check_completeness(words: Iterable[int], m: int) -> Completeness:
    """Scan a sequence of m-bit words for length 2^m with all values distinct.

    Presence is tracked in a 2^m-byte map when the input holds at least
    2^m / 8 words, where the map is no larger than the word list, and in
    a set of the words otherwise, so short sequences over wide address
    spaces stay cheap at any m.
    """
    return _completeness(_unpacked(_as_words(words, m)), m)


def _completeness(words: Sequence[int], m: int) -> Completeness:
    full, first_dup = 1 << m, None
    if len(words) << 3 >= full:
        # dense: one byte per address, set in bulk, then counted and searched as a buffer
        seen = bytearray(full)
        deque(map(seen.__setitem__, words, repeat(1)), maxlen=0)
        distinct, missing = full - seen.count(0), seen.find(0)
    else:
        # sparse: a map sized by the input; by pigeonhole, 0..distinct lacks a value
        seen = dict.fromkeys(words, 1)
        distinct = len(seen)
        missing = next(w for w in count() if w not in seen)
    if len(words) > distinct:  # some word repeats: its first sighting clears its entry
        for w in words:
            if not seen[w]:
                first_dup = w
                break
            seen[w] = 0
    if len(words) == full and distinct == full:
        return Completeness(True, m, full, full)
    from .gf2 import BitVector  # loaded only when the report names a word

    dup, missing = (None if w is None or w < 0 else BitVector(m, w) for w in (first_dup, missing))
    return Completeness(False, m, len(words), distinct, dup, missing)


def verify_complete(words: Iterable[int], m: int) -> bool:
    """True iff the sequence contains every m-bit word exactly once."""
    return check_completeness(words, m).complete


def _require_complete(seq: Iterable[int], m: int) -> tuple[Sequence[int], list[int]]:
    # the words and their per-bit ones, of a sequence that must be complete
    packed = _as_words(seq, m)
    ones, words = _fold(packed, m)[0], _unpacked(packed)
    result = _completeness(words, m)
    if not result.complete:
        detail = f"length {result.length} of {1 << m}, {result.distinct} distinct"
        if result.first_duplicate is not None:
            detail += f", first duplicate {result.first_duplicate}"
        if result.first_missing is not None:
            detail += f", first missing {result.first_missing}"
        raise IncompleteSequenceError(
            f"sequence fails verify_complete ({detail}); balance is defined "
            "only for complete sequences"
        )
    return words, ones


def bit_balance(words: Iterable[int], m: int) -> list[int]:
    """Ones count per bit position (index 0 holds position 1, the LSB).

    The sequence must be complete, which forces every count to equal
    2^(m-1); the counts are still tallied directly.
    """
    return _require_complete(words, m)[1]


def tuple_balance(words: Iterable[int], positions: Iterable[int], m: int) -> dict[str, int]:
    """Occurrence count of every pattern over the given bit positions.

    Patterns are keyed as bit strings ordered from the highest requested
    position to the lowest (matching the printed address order).  For a
    complete sequence each of the 2^r patterns occurs exactly 2^(m-r)
    times; the counts are tallied by direct extraction.
    """
    words, positions = _require_complete(words, m)[0], list(positions)
    if any(p.__class__ is not int for p in positions):
        raise ValueError(f"positions must be ints, got {positions}")
    pos = sorted(set(positions), reverse=True)
    if not pos:
        raise ValueError("positions must be a non-empty set of bit positions")
    if pos[0] > m or pos[-1] < 1:
        raise ValueError(f"positions must lie in 1..{m}: {pos}")
    r = len(pos)
    counts = [0] * (1 << r)
    for w in words:
        pat = 0
        for p in pos:
            pat = (pat << 1) | ((w >> (p - 1)) & 1)
        counts[pat] += 1
    return {format(pat, f"0{r}b"): c for pat, c in enumerate(counts)}


class HammingProfile(NamedTuple):
    distances: list[int]
    per_bit_transitions: list[int]


def hamming_profile(words: Iterable[int], m: int) -> HammingProfile:
    """Hamming distance between each consecutive pair, plus per-bit flip counts."""
    _, distances, per_bit_transitions = _fold(_as_words(words, m), m)
    return HammingProfile(list(distances), per_bit_transitions)


class ActivityReport(NamedTuple):
    """Aggregate verdict: completeness, implied balance, switching profile."""

    m: int
    length: int
    complete: bool
    first_duplicate: BitVector | None
    first_missing: BitVector | None
    per_bit_ones: list[int]
    per_bit_transitions: list[int]
    hamming_histogram: dict[int, int]
    min_distance: int | None
    max_distance: int | None
    mean_distance: float | None
    balance_checked: bool
    balance_r_max: int

    @property
    def ok(self) -> bool:
        # a complete sequence is balanced on every position subset
        return self.complete


def analyze(words: Iterable[int], m: int, max_r: int = 4) -> ActivityReport:
    """Run every check on a sequence and collect the results.

    The input is validated once, scanned once for completeness and once
    for the switching profile.  Balance over every position subset of
    size r = 1..min(m, max_r) is implied by completeness, so a complete
    sequence reports ``balance_checked`` with that ``balance_r_max`` and
    no per-subset tally is run (``tuple_balance`` counts one subset
    outright).  Partial sequences get a report with ``complete=False``
    and balance unchecked.  A ``max_r`` that is not an int of at least 1
    raises ValueError.
    """
    _check_max_r(max_r)  # before a word is read
    return _analyze(_as_words(words, m), m, max_r)


def _check_max_r(max_r: int) -> None:
    if max_r.__class__ is not int or max_r < 1:
        raise ValueError(f"max_r must be at least 1, got {max_r}")


def _analyze(packed: bytes, m: int, max_r: int) -> ActivityReport:
    # `analyze` of the in-range words `_packed` in `packed`: `_as_words`' buffer or the CLI reader's
    _check_max_r(max_r)
    per_bit_ones, distances, per_bit_transitions = _fold(packed, m)
    comp = _completeness(_unpacked(packed), m)
    hist = {d: n for d in range(m + 1) if (n := distances.count(d))}
    return ActivityReport(
        m=m,
        length=comp.length,
        complete=comp.complete,
        first_duplicate=comp.first_duplicate,
        first_missing=comp.first_missing,
        per_bit_ones=per_bit_ones,
        per_bit_transitions=per_bit_transitions,
        hamming_histogram=hist,
        min_distance=min(hist) if hist else None,
        max_distance=max(hist) if hist else None,
        mean_distance=sum(d * n for d, n in hist.items()) / len(distances) if hist else None,
        balance_checked=comp.complete,
        balance_r_max=min(m, max_r) if comp.complete else 0,
    )


def format_report(report: ActivityReport) -> str:
    """Flat key=value rendering with stable field names (one per line).

    ``balance_failures`` is always 0: balance is checked only on complete
    sequences, which cannot fail it.  The key stays for stable output.
    """
    lines = [
        f"m={report.m}",
        f"length={report.length}",
        f"complete={'true' if report.complete else 'false'}",
    ]
    if report.first_duplicate is not None:
        lines.append(f"first_duplicate={report.first_duplicate}")
    if report.first_missing is not None:
        lines.append(f"first_missing={report.first_missing}")
    lines.append("per_bit_ones=" + ",".join(map(str, report.per_bit_ones)))
    lines.append("per_bit_transitions=" + ",".join(map(str, report.per_bit_transitions)))
    if report.hamming_histogram:
        lines.append(f"hamming_min={report.min_distance}")
        lines.append(f"hamming_max={report.max_distance}")
        lines.append(f"hamming_mean={report.mean_distance:.6f}")
        lines.append(
            "hamming_histogram=" + ",".join(f"{d}:{n}" for d, n in report.hamming_histogram.items())
        )
    lines.append(f"balance_checked={'true' if report.balance_checked else 'false'}")
    lines.append(f"balance_r_max={report.balance_r_max}")
    lines.append("balance_failures=0")
    return "\n".join(lines) + "\n"
