"""Reflected gray code and the switching sequence that drives row selection.

A binary up-counter stepped through the gray map changes exactly one bit
per increment.  The 1-based position of that bit is the switching index;
the stream of switching indices is what a recursive address generator
uses to pick which matrix row to XOR into the running address.  For a
counter started at zero the index stream over a full period is the
classic ruler sequence 1,2,1,3,1,2,1,4,...

Counter arithmetic is modulo ``2^m`` and silent: the step that wraps the
counter from ``2^m - 1`` back to 0 flips the top gray bit, so its index
is always ``m``.  Step tables conventionally print that wrap entry on
their first row; `switching_sequence` emits indices only for genuine
increments (step 1 onward) and the wrap entry is available separately
through `wrap_index`.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .common import _check_m
from .gf2 import BitsLike, BitVector, as_bitvector


def gray_value(n: int) -> int:
    """Gray code of a counter value: ``n ^ (n >> 1)``."""
    return n ^ (n >> 1)


def _word(value: BitsLike) -> int:
    # a BitVector is an index too; operator.index refuses floats, which int() would truncate
    if value.__class__ is bool:  # operator.index reads True as 1
        raise TypeError(f"a gray word must not be a bool, got {value!r}")
    return operator.index(BitVector.from_string(value) if isinstance(value, str) else value)


def switching_index(prev_gray: BitsLike, cur_gray: BitsLike) -> int:
    """1-based position of the single bit differing between two gray words.

    Raises ValueError if the words differ in any number of bits other
    than one, which signals a pair of non-adjacent gray codes.
    """
    a, b = _word(prev_gray), _word(cur_gray)
    diff = a ^ b
    if diff == 0 or diff & (diff - 1):
        raise ValueError(
            f"gray words {a:#b} and {b:#b} are not adjacent "
            f"(differ in {diff.bit_count()} bits, expected 1)"
        )
    return diff.bit_length()


def step_index(m: int, state: int) -> int:
    """Switching index of the counter transition into `state` from ``state - 1``.

    States are taken modulo ``2^m``; entering state 0 (the wrap from
    ``2^m - 1``) always flips the top bit, index ``m``.
    """
    state &= (1 << m) - 1
    if state == 0:
        return m
    return (state & -state).bit_length()


def wrap_index(m: int, b0: BitsLike = 0) -> int:
    """Index of the cyclic step that enters the initial counter state `b0`.

    This is the entry a full step table prints on its row 0: the
    transition from state ``b0 - 1`` (mod ``2^m``) into ``b0``.  For
    ``b0 = 0`` it equals ``m``.
    """
    b0 = as_bitvector(b0, m).word
    return step_index(m, b0)


class SwitchingStep(NamedTuple):
    """One emitted switching event: step number `n` selected row `index`."""

    n: int
    index: int


def switching_sequence(m: int, b0: BitsLike = 0, count: int | None = None) -> list[SwitchingStep]:
    """Switching indices of an up-counter run of `count` states starting at `b0`.

    The run visits `count` counter states; the step into state ``n``
    (n >= 1) emits ``SwitchingStep(n, index)``, so the list has
    ``count - 1`` entries.  Step 0 emits nothing (see `wrap_index`).
    With ``b0 = 0`` and ``count = 2^m`` the emitted indices are the
    standard reflected-gray switching sequence.
    """
    _check_m(m)
    full = 1 << m
    if count is None:
        count = full
    if count.__class__ is not int or not 0 <= count <= full:
        raise ValueError(f"count must be in 0..2^{m}, got {count}")
    start = as_bitvector(b0, m).word
    return [
        SwitchingStep(n, step_index(m, (start + n) & (full - 1)))
        for n in range(1, count)
    ]
