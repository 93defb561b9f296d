import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addrseq import (
    BitVector,
    GenerationMatrix,
    RankDeficiencyError,
    SequenceSpec,
    cumulative_basis,
    difference_basis,
    generate_down,
    linear_combination,
    rank_of_words,
)

from _tables import WORKED_ROWS


def words_of(matrix):
    return [str(r) for r in matrix.rows]


# -- BitVector ----------------------------------------------------------------


def test_bitvector_string_round_trip():
    v = BitVector.from_string("1011")
    assert v.width == 4
    assert v.word == 0b1011
    assert str(v) == "1011"
    assert int(v) == 11


def test_bitvector_bit_positions_count_from_lsb():
    v = BitVector.from_string("1011")
    assert [v.bit(i) for i in (1, 2, 3, 4)] == [1, 1, 0, 1]
    with pytest.raises(ValueError):
        v.bit(5)


def test_bitvector_rejects_bad_widths_and_words():
    with pytest.raises(ValueError, match=r"^m must be in 1\.\.64, got 0$"):
        BitVector(0, 0)
    with pytest.raises(ValueError, match=r"^m must be in 1\.\.64, got 65$"):
        BitVector(65, 0)
    # a width that is not an int once failed late, at the word's shift
    with pytest.raises(ValueError, match=r"^m must be in 1\.\.64, got True$"):
        BitVector(True, 0)
    with pytest.raises(ValueError, match=r"^m must be in 1\.\.64, got 2\.0$"):
        BitVector(2.0, 1)
    with pytest.raises(ValueError):
        BitVector(4, 16)
    with pytest.raises(ValueError):
        BitVector(4, -1)
    # 64 bits is the cap, not beyond it
    BitVector(64, (1 << 64) - 1)


def test_bitvector_xor_and_width_mismatch():
    a = BitVector.from_string("1011")
    b = BitVector.from_string("0101")
    assert str(a ^ b) == "1110"
    with pytest.raises(ValueError):
        a ^ BitVector.from_string("01011")


@pytest.mark.parametrize("text", ["10\u00a0", "\u200710", "1\u00a00", "10\u2028", "\u3000"])
def test_bit_strings_strip_only_ascii_whitespace(text):
    with pytest.raises(ValueError, match="not a binary string"):
        BitVector.from_string(text)
    with pytest.raises(ValueError):
        GenerationMatrix([text, "01"])


def test_bit_strings_strip_ascii_whitespace():
    assert BitVector.from_string(" \t10\r\n\x0b\x0c") == BitVector(2, 0b10)
    assert GenerationMatrix(["10 ", "01"]).row_words == (0b10, 0b01)


def test_bitvector_leading_zeros_render():
    assert str(BitVector(6, 3)) == "000011"
    assert BitVector.from_string("000011").width == 6


# -- rank ----------------------------------------------------------------------


def test_rank_of_worked_matrix_is_full(worked_matrix):
    assert worked_matrix.rank == 4


@pytest.mark.parametrize("m", [1, 2, 5, 16, 64])
def test_rank_of_identity(m):
    assert GenerationMatrix.identity(m).rank == m


def test_rank_with_duplicate_row():
    V = GenerationMatrix(["1011", "1011", "0101", "1111"])
    assert V.rank == 3


def test_rank_of_zero_matrix():
    assert GenerationMatrix([0, 0, 0], m=3).rank == 0


def test_rank_of_words_wider_than_64_bits():
    assert rank_of_words([1 << 70, 3]) == 2
    assert rank_of_words([1 << 70, (1 << 70) | 1, 1, 1 << 64]) == 3


def test_require_full_rank_names_the_rank():
    V = GenerationMatrix(["1011", "1011", "0101", "1111"])
    with pytest.raises(RankDeficiencyError, match="rank 3"):
        V.require_full_rank()


# -- basis transforms ----------------------------------------------------------


def test_cumulative_basis_of_worked_matrix(worked_matrix):
    assert words_of(cumulative_basis(worked_matrix)) == ["1011", "0011", "0110", "1001"]


def test_cumulative_basis_of_identity_is_lower_triangular():
    out = cumulative_basis(GenerationMatrix.identity(4))
    assert words_of(out) == ["0001", "0011", "0111", "1111"]


def test_difference_basis_example():
    V = difference_basis(GenerationMatrix(["1011", "0011", "1101", "1010"]))
    assert words_of(V) == ["1011", "1000", "1110", "0111"]


def test_difference_basis_of_zero_matrix_is_zero():
    Z = GenerationMatrix([0, 0, 0, 0], m=4)
    assert difference_basis(Z).row_words == (0, 0, 0, 0)


@st.composite
def random_matrix(draw):
    m = draw(st.integers(min_value=1, max_value=16))
    rows = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=m, max_size=m))
    return GenerationMatrix(rows, m)


@given(random_matrix())
def test_basis_transforms_are_mutually_inverse(V):
    assert difference_basis(cumulative_basis(V)) == V
    assert cumulative_basis(difference_basis(V)) == V


@given(random_matrix())
def test_basis_transforms_preserve_rank(V):
    assert cumulative_basis(V).rank == V.rank
    assert difference_basis(V).rank == V.rank


# -- linear combinations ---------------------------------------------------------


def test_linear_combination_selects_rows_by_counter_bits(worked_matrix):
    # counter 0101 picks rows 1 and 3
    assert str(linear_combination(worked_matrix, 0b0101)) == "1110"


def test_linear_combination_of_nothing_is_zero(worked_matrix):
    assert linear_combination(worked_matrix, 0).word == 0


def test_linear_combination_of_all_rows(worked_matrix):
    assert str(linear_combination(worked_matrix, 0b1111)) == "1001"


@given(random_matrix(), st.data())
def test_linear_combination_is_linear(V, data):
    full = (1 << V.m) - 1
    b1 = data.draw(st.integers(0, full))
    b2 = data.draw(st.integers(0, full))
    f = lambda b: linear_combination(V, b).word
    assert f(b1 ^ b2) == f(b1) ^ f(b2)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8])
def test_full_rank_combination_map_is_a_bijection_exhaustive(m):
    V = GenerationMatrix.identity(m) if m < 3 else _full_rank_sample(m)
    outputs = {linear_combination(V, b).word for b in range(1 << m)}
    assert len(outputs) == 1 << m


@pytest.mark.parametrize("m", [10, 12])
def test_full_rank_combination_map_is_a_bijection_large(m):
    V = _full_rank_sample(m)
    outputs = {linear_combination(V, b).word for b in range(1 << m)}
    assert len(outputs) == 1 << m


def _full_rank_sample(m):
    from addrseq import random_fullrank_matrix

    return random_fullrank_matrix(m, seed=m)


@settings(max_examples=200)
@given(st.integers(1, 64).flatmap(
    lambda m: st.tuples(st.lists(st.integers(0, (1 << m) - 1), min_size=m, max_size=m),
                        st.integers(0, (1 << m) - 1))))
def test_linear_combination_matches_a_row_loop(case):
    rows, selector = case
    want = 0
    for i, row in enumerate(rows):
        if selector >> i & 1:
            want ^= row
    assert linear_combination(GenerationMatrix(rows, len(rows)), selector).word == want


def test_linear_combination_rejects_wrong_selector_width(worked_matrix):
    with pytest.raises(ValueError):
        linear_combination(worked_matrix, BitVector(5, 3))
    with pytest.raises(ValueError):
        linear_combination(worked_matrix, 16)


# -- construction and text format ------------------------------------------------


def test_matrix_infers_its_width_from_the_rows():
    assert GenerationMatrix([BitVector(5, 1 << i) for i in range(5)]).m == 5
    assert GenerationMatrix([1, 2, 4]).m == 3
    with pytest.raises(ValueError, match="empty matrix and no explicit width"):
        GenerationMatrix([])


def test_matrix_requires_square_row_count():
    with pytest.raises(ValueError):
        GenerationMatrix(["1011", "1000", "0101"], m=4)


def test_matrix_rejects_width_over_64():
    with pytest.raises(ValueError, match=r"^m must be in 1\.\.64, got 65$"):
        GenerationMatrix([0] * 65, m=65)
    with pytest.raises(ValueError, match=r"^m must be in 1\.\.64, got 2\.0$"):
        GenerationMatrix([1, 2], m=2.0)
    with pytest.raises(ValueError, match=r"^m must be in 1\.\.64, got True$"):
        GenerationMatrix([1], m=True)


def test_matrix_cache_is_invisible(worked_matrix):
    # the difference basis and the byte tables fill on first use; equality,
    # hashing and repr must not notice
    V = GenerationMatrix(WORKED_ROWS)
    before = (V == worked_matrix, hash(V), repr(V), V.rank, V.row_words)
    assert before[0] and V._diff is None and V._tables is None
    generate_down(V, 3, 5, count=6)
    linear_combination(V, 3)
    assert V._diff is not None and V._tables is not None
    assert difference_basis(V) is difference_basis(V)
    assert (V == worked_matrix, hash(V), repr(V), V.rank, V.row_words) == before
    # a copy is rebuilt from the rows, so it starts without the caches
    twin = copy.deepcopy(V)
    assert twin == V and twin._diff is None and twin._tables is None


# -- the immutable values: BitVector, GenerationMatrix, SequenceSpec -------------------


VALUES = {
    "BitVector": lambda: BitVector(4, 0b1011),
    "GenerationMatrix": lambda: GenerationMatrix(WORKED_ROWS),
    "SequenceSpec": lambda: SequenceSpec(GenerationMatrix(WORKED_ROWS), "1000", 3, "down", 7),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES)
def test_values_copy_by_their_arguments_and_refuse_changes(make):
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin is not value and type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    assert value == make() and value != value._args()
    for name in (*type(value).__slots__, "extra"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)
    assert value == make()


def test_matrix_row_order_is_preserved(worked_matrix):
    # the rank elimination at construction works on a scratch copy of the rows
    assert worked_matrix.rank == 4
    assert words_of(worked_matrix) == list(WORKED_ROWS)


def test_matrix_text_round_trip(worked_matrix):
    text = worked_matrix.to_text()
    assert text == "m=4\n1011\n1000\n0101\n1111\n"
    assert GenerationMatrix.from_text(text) == worked_matrix


def test_matrix_text_ignores_trailing_whitespace():
    V = GenerationMatrix.from_text("m=2\n01 \n11\t\n")
    assert V.row_words == (0b01, 0b11)


@pytest.mark.parametrize(
    "text",
    [
        "1011\n1000\n0101\n1111\n",          # missing header
        "m=4\n1011\n1000\n0101\n",           # wrong row count
        "m=4\n1011\n1000\n0101\n11x1\n",     # bad character
        "m=4\n1011\n1000\n0101\n111\n",      # short row
        "m=x\n",                             # unparseable width
        "m=+2\n10\n01\n",                    # widths int() once read as 2
        "m= 2\n10\n01\n",
        "m=0_2\n10\n01\n",
        "m=\u0662\n10\n01\n",
    ],
)
def test_matrix_text_parse_errors(text):
    with pytest.raises(ValueError):
        GenerationMatrix.from_text(text)


def test_matrix_text_errors_name_the_line_in_the_text():
    # blank lines count: the bad row sits on line 4, which was once reported as line 3
    with pytest.raises(ValueError, match=r"^line 4: expected 2 characters of 0/1, got '0x'$"):
        GenerationMatrix.from_text("m=2\n\n10\n0x\n")
    with pytest.raises(ValueError, match=r"^line 5: "):
        GenerationMatrix.from_text("\nm=2\n10\n\n0\udcff\n")
