import pytest
from hypothesis import given
from hypothesis import strategies as st

from addrseq import (
    BitVector,
    SwitchingStep,
    gray_value,
    step_index,
    switching_index,
    switching_sequence,
    wrap_index,
)

from _tables import TABLE_B0_3_STEPS, TABLE_UP_STEPS


def indices(steps):
    return [s.index for s in steps]


# -- gray conversion -------------------------------------------------------------


@pytest.mark.parametrize(
    "counter,gray",
    [("0101", "0111"), ("0000", "0000"), ("1111", "1000")],
)
def test_to_gray_examples(counter, gray):
    assert format(gray_value(int(counter, 2)), "04b") == gray


@given(st.integers(min_value=1, max_value=16))
def test_gray_map_is_a_bijection(m):
    values = {gray_value(n) for n in range(1 << m)}
    assert values == set(range(1 << m))


@given(st.integers(min_value=1, max_value=12))
def test_consecutive_gray_words_differ_in_one_bit(m):
    for n in range(1, 1 << m):
        diff = gray_value(n - 1) ^ gray_value(n)
        assert diff and diff & (diff - 1) == 0


# -- switching index -------------------------------------------------------------


@pytest.mark.parametrize(
    "prev,cur,index",
    [("0001", "0011", 2), ("0111", "0101", 2), ("0000", "0001", 1)],
)
def test_switching_index_examples(prev, cur, index):
    assert switching_index(BitVector.from_string(prev), BitVector.from_string(cur)) == index


@pytest.mark.parametrize(
    "prev,cur,index",
    [("0001", "0011", 2), ("0111", "0101", 2), ("0100", "0110", 2), ("1000", "0000", 4)],
)
def test_switching_index_reads_bit_strings_as_binary(prev, cur, index):
    assert switching_index(prev, cur) == index
    assert switching_index(int(prev, 2), int(cur, 2)) == index


def test_switching_index_rejects_floats():
    with pytest.raises(TypeError):
        switching_index(0.5, 1.5)
    with pytest.raises(TypeError):
        switching_index(4, 6.0)


@pytest.mark.parametrize("prev,cur", [(True, 0), (2, True)])
def test_switching_index_rejects_bools(prev, cur):
    # operator.index reads True as 1, so (True, 0) once answered 1
    with pytest.raises(TypeError, match="must not be a bool"):
        switching_index(prev, cur)


def test_switching_index_rejects_non_adjacent_pairs():
    with pytest.raises(ValueError, match="not adjacent"):
        switching_index(0b0000, 0b0011)
    with pytest.raises(ValueError, match="not adjacent"):
        switching_index(0b0101, 0b0101)


# -- switching sequence ----------------------------------------------------------


def test_standard_switching_sequence_m4():
    steps = switching_sequence(4, 0, 16)
    assert indices(steps) == [1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1]
    assert [s.n for s in steps] == list(range(1, 16))


def test_switching_sequence_matches_pairwise_gray_indices():
    steps = switching_sequence(5, 0, 32)
    for s in steps:
        assert s.index == switching_index(gray_value(s.n - 1), gray_value(s.n))


def test_switching_sequence_from_nonzero_start():
    # emitted indices begin at step 1; the printed column of a full step
    # table additionally shows the cyclic wrap entry on its row 0
    steps = switching_sequence(4, 0b0011, 16)
    assert indices(steps) == [3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1, 4, 1, 2]
    assert [wrap_index(4, 0b0011)] + indices(steps) == TABLE_B0_3_STEPS


def test_full_printed_column_for_zero_start():
    steps = switching_sequence(4, 0, 16)
    assert [wrap_index(4, 0)] + indices(steps) == TABLE_UP_STEPS


def test_one_bit_counter():
    assert indices(switching_sequence(1, 0, 2)) == [1]
    assert wrap_index(1, 0) == 1


def test_switching_sequence_count_validation():
    with pytest.raises(ValueError):
        switching_sequence(4, 0, 17)
    with pytest.raises(ValueError):
        switching_sequence(4, 0, -1)
    assert switching_sequence(4, 0, 0) == []
    assert switching_sequence(4, 0, 1) == []


def test_switching_sequence_rejects_wide_start():
    with pytest.raises(ValueError):
        switching_sequence(4, BitVector(5, 0), 16)


# -- structural invariants ---------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 10])
def test_index_occurrence_counts(m):
    seq = indices(switching_sequence(m, 0, 1 << m))
    for k in range(1, m + 1):
        assert seq.count(k) == 1 << (m - k)
    # the top index occurs once, exactly at the midpoint
    assert seq[(1 << (m - 1)) - 1] == m


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_switching_sequence_is_a_palindrome(m):
    seq = indices(switching_sequence(m, 0, 1 << m))
    assert seq == seq[::-1]


@pytest.mark.parametrize("m,start", [(4, 3), (4, 9), (5, 17), (6, 1)])
def test_nonzero_start_is_a_cyclic_rotation(m, start):
    full = 1 << m
    base = [step_index(m, n) for n in range(full)]  # cyclic column, wrap at 0
    rotated = [base[(start + n) % full] for n in range(1, full)]
    assert indices(switching_sequence(m, start, full)) == rotated
    assert base[0] == m  # the wrap step always flips the top bit


def test_switching_step_is_a_frozen_record():
    s = SwitchingStep(3, 1)
    assert (s.n, s.index) == (3, 1)
    assert repr(s) == "SwitchingStep(n=3, index=1)"
    with pytest.raises(AttributeError):
        s.index = 2
