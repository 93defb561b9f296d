from itertools import accumulate
from operator import xor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addrseq import (
    BitVector,
    GenerationMatrix,
    RankDeficiencyError,
    SequenceSpec,
    address_at,
    cumulative_basis,
    difference_basis,
    generate,
    generate_direct,
    generate_down,
    generate_recursive,
    generate_shifted,
    random_fullrank_matrix,
    verify_complete,
)
from addrseq.common import _BLOCK, FORMATS, _byte_blocks
from addrseq.generate import _affine, _affine_blocks

import _line_format
from _stepper import gray_address, step_words
from _tables import (
    TABLE_B0_3,
    TABLE_DIRECT,
    TABLE_DOWN,
    TABLE_SHIFT_3,
    TABLE_UP,
    TABLE_UP_INVERTED,
)


def run(stream):
    return list(stream.words())


# -- direct engine ---------------------------------------------------------------


def test_direct_reproduces_worked_column(worked_matrix):
    assert run(generate_direct(worked_matrix)) == TABLE_DIRECT


def test_direct_with_identity_matrix_is_the_counter():
    for m in (1, 3, 6):
        assert run(generate_direct(GenerationMatrix.identity(m))) == list(range(1 << m))


def test_direct_hand_checked_prefix():
    V = GenerationMatrix(["1000", "1100", "1110", "1111"])
    assert run(generate_direct(V, 4)) == [0b0000, 0b1000, 0b1100, 0b0100]


def test_direct_rejects_rank_deficient_matrix():
    V = GenerationMatrix(["1011", "1011", "0101", "1111"])
    with pytest.raises(RankDeficiencyError, match="rank 3"):
        generate_direct(V)


def test_direct_count_validation(worked_matrix):
    assert run(generate_direct(worked_matrix, 0)) == []
    with pytest.raises(ValueError):
        generate_direct(worked_matrix, 17)


# -- recursive engine --------------------------------------------------------------


def test_recursive_reproduces_worked_up_column(worked_matrix):
    assert run(generate_recursive(worked_matrix)) == TABLE_UP


def test_recursive_with_nonzero_initial_address(worked_matrix):
    # a0 = 1000 inverts the top bit of every address of the up run
    assert run(generate_recursive(worked_matrix, a0=0b1000)) == TABLE_UP_INVERTED


def test_recursive_with_nonzero_initial_counter(worked_matrix):
    assert run(generate_recursive(worked_matrix, b0=0b0011)) == TABLE_B0_3


def test_offset_initial_address_xors_every_address(worked_matrix):
    for c in (0b0001, 0b0110, 0b1111):
        got = run(generate_recursive(worked_matrix, a0=c))
        assert got == [w ^ c for w in TABLE_UP]


def test_generate_runs_an_up_spec(worked_matrix):
    spec = SequenceSpec(worked_matrix, a0="1000", b0=3)
    got = run(generate(spec))
    assert got[0] == 0b1000
    assert got == [w ^ 0b1000 for w in TABLE_B0_3]
    assert got == TABLE_SHIFT_3


def test_recursive_one_xor_per_address(worked_matrix):
    # the stepper is the paper's hardware model: one row fetch per address after the first
    class CountingRows(tuple):
        reads = 0

        def __getitem__(self, i):
            CountingRows.reads += 1
            return tuple.__getitem__(self, i)

    stepped = step_words(CountingRows(worked_matrix.row_words), 4)
    assert CountingRows.reads == 15
    assert stepped == TABLE_UP
    assert run(generate_recursive(worked_matrix)) == stepped


# -- down engine --------------------------------------------------------------------


def test_down_reproduces_worked_column(worked_matrix):
    assert run(generate_down(worked_matrix)) == TABLE_DOWN


def test_down_of_one_bit_matrix():
    V = GenerationMatrix(["1"])
    assert run(generate_recursive(V)) == [0, 1]
    assert run(generate_down(V)) == [1, 0]


@pytest.mark.parametrize("m", [2, 3, 5, 8, 10])
def test_down_is_the_exact_reversal_for_random_initials(m):
    full = 1 << m
    V = random_fullrank_matrix(m, seed=100 + m)
    rng = (3 * m + 1, 5 * m + 2)
    a0, b0 = rng[0] % full, rng[1] % full
    up = run(generate_recursive(V, a0, b0))
    down = run(generate_down(V, a0, b0))
    assert down == up[::-1]


def test_generate_runs_a_down_spec(worked_matrix):
    spec = SequenceSpec(worked_matrix, direction="down")
    assert run(generate(spec)) == TABLE_DOWN


def test_partial_down_and_shift_are_prefixes_of_the_full_variant(worked_matrix):
    assert run(generate_down(worked_matrix, count=5)) == TABLE_DOWN[:5]
    assert run(generate_shifted(worked_matrix, 3, count=5)) == TABLE_SHIFT_3[:5]


# -- shifted engine -------------------------------------------------------------------


def test_shifted_by_three_reproduces_worked_column(worked_matrix):
    assert run(generate_shifted(worked_matrix, 3)) == TABLE_SHIFT_3


def test_shift_zero_is_the_plain_up_run(worked_matrix):
    assert run(generate_shifted(worked_matrix, 0)) == TABLE_UP


@pytest.mark.parametrize("m,shift", [(3, 5), (5, 17), (8, 200)])
def test_shifted_is_a_rotation(m, shift):
    V = random_fullrank_matrix(m, seed=m)
    full = 1 << m
    up = run(generate_recursive(V))
    assert run(generate_shifted(V, shift)) == [up[(n + shift) % full] for n in range(full)]


def test_shift_range_validation(worked_matrix):
    with pytest.raises(ValueError):
        generate_shifted(worked_matrix, 16)
    with pytest.raises(ValueError):
        generate_shifted(worked_matrix, -1)


# -- analytic position lookup ----------------------------------------------------------


def test_address_at_position_three(worked_matrix):
    assert str(address_at(worked_matrix, 3)) == "1000"


def test_address_at_zero_is_zero(worked_matrix):
    assert address_at(worked_matrix, 0).word == 0


def test_address_at_matches_full_enumeration(worked_matrix):
    up = run(generate_recursive(worked_matrix))
    assert [address_at(worked_matrix, n).word for n in range(16)] == up


def test_address_at_rejects_a_position_past_the_period(worked_matrix):
    with pytest.raises(ValueError, match=r"position must be in 0\.\.2\^4-1, got 16"):
        address_at(worked_matrix, 16)


# -- engine equivalence -----------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_recursive_equals_direct_through_difference_basis(m):
    for seed in range(5):
        V = random_fullrank_matrix(m, seed=10 * m + seed)
        assert run(generate_recursive(V)) == run(generate_direct(difference_basis(V)))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_direct_equals_recursive_through_cumulative_basis(m):
    for seed in range(5):
        V = random_fullrank_matrix(m, seed=10 * m + seed)
        assert run(generate_direct(V)) == run(generate_recursive(cumulative_basis(V)))


def test_engine_equivalence_on_wide_matrix_prefix():
    V = random_fullrank_matrix(16, seed=99)
    take = 2048
    rec = run(generate_recursive(V, count=take))
    assert rec == run(generate_direct(difference_basis(V), count=take))
    assert run(generate_direct(V, count=take)) == run(
        generate_recursive(cumulative_basis(V), count=take)
    )


@pytest.mark.parametrize("m", [2, 4, 7, 10])
def test_full_runs_cover_the_address_space(m):
    V = random_fullrank_matrix(m, seed=m + 40)
    for stream in (
        generate_direct(V),
        generate_recursive(V, a0=1, b0=(1 << m) - 2),
        generate_down(V, a0=3 % (1 << m)),
        generate_shifted(V, (1 << m) // 3),
    ):
        assert verify_complete(run(stream), m)


@st.composite
def engine_cases(draw):
    """A matrix, a0, counter starts and a count: full periods up to m = 10, else partial
    runs whose counters may cross a 2^8 or a kernel block boundary or the 2^m wrap."""
    m = draw(st.integers(1, 64))
    full = 1 << m
    V = random_fullrank_matrix(m, seed=draw(st.integers(0, 2**32)))
    count = full if m <= 10 else draw(st.sampled_from([
        draw(st.integers(1, min(full, 5000))), draw(st.integers(1, 256)), 256, 257]))

    def counter():
        r = draw(st.integers(1, count))
        near = [
            r - 1,  # a down-run's counter, -b0, wraps
            full - r,  # an up-run's counter wraps
            draw(st.integers(1, 1 << 54)) * _BLOCK - r,  # just below a kernel block boundary
            (draw(st.integers(1, 1 << 56)) << 8) - r,  # just below a 2^8 block boundary
        ]
        return draw(st.sampled_from([draw(st.integers(0, full - 1)), *near])) % full

    return V, m, draw(st.integers(0, full - 1)), counter(), counter(), count


def engine_runs(case):
    """Each engine's stream for `case`, the `_affine` arguments `gen` passes for it, and the words
    the stepper gives for it."""
    V, m, a0, b0, shift, count = case
    rows, plain = V.row_words, SequenceSpec(V, count=count)
    return [
        (generate_direct(V, count), (plain, None, True),
         step_words(list(accumulate(rows, xor)), m, count=count)),
        (generate_recursive(V, a0, b0, count), (SequenceSpec(V, a0, b0, "up", count),),
         step_words(rows, m, a0, b0, count)),
        (generate_down(V, a0, b0, count), (SequenceSpec(V, a0, b0, "down", count),),
         step_words(rows, m, a0, b0, count, down=True)),
        (generate_shifted(V, shift, count), (plain, shift),
         step_words(rows, m, gray_address(rows, shift), shift, count)),
    ]


@settings(max_examples=150, deadline=None)
@given(engine_cases())
# full periods across the 2^m wrap, longer than a block, and a partial run over several
# blocks whose counters start just below a block boundary and the wrap
@example((random_fullrank_matrix(12, seed=1), 12, 5, 4000, 4090, 4096))
@example((random_fullrank_matrix(20, seed=2), 20, 7, (1 << 20) - 700, 5 * _BLOCK - 3, 2500))
def test_every_engine_matches_the_stepper(case):
    V, m, a0, b0, shift, count = case
    full = 1 << m
    runs = engine_runs(case)
    for stream, affine, words in runs:
        assert run(stream) == words
        # the packed blocks `gen` formats give the stepper's lines in every format
        for fmt in FORMATS:
            text = b"".join(_byte_blocks(_affine_blocks(*_affine(*affine), packed=True), m, fmt)).decode()
            assert text == "".join(line + "\n" for line in _line_format.format_lines(words, m, fmt))
    (*_, up), (*_, down), (*_, shifted) = runs[1:]
    if count == full:
        assert down == up[::-1]
        assert [address_at(V, p).word for p in range(full)] == step_words(V.row_words, m)
    else:
        assert address_at(V, shift).word == shifted[0]
        assert address_at(V, (shift + count - 1) % full).word == shifted[-1]


def test_a_stream_gives_its_words_once():
    V = random_fullrank_matrix(12, seed=5)
    want = run(generate_recursive(V, 3, 9))
    # a BitVector first, then the rest as ints, then nothing
    stream = generate_recursive(V, 3, 9)
    first = next(stream).word
    assert [first, *stream.words()] == want
    assert run(stream) == []


@st.composite
def b0_cases(draw):
    """A matrix, a0, b0 and a full or partial count, at m = 2..12."""
    m = draw(st.integers(2, 12))
    full = 1 << m
    V = random_fullrank_matrix(m, seed=draw(st.integers(0, 2**32)))
    count = draw(st.sampled_from([full, draw(st.integers(0, full))]))
    return V, m, draw(st.integers(0, full - 1)), draw(st.integers(0, full - 1)), count


@settings(max_examples=200, deadline=None)
@given(b0_cases())
def test_flipping_the_top_bit_of_b0_never_changes_a_run(case):
    # the flip XORs the same row of D into the run's constant and into every counter combination
    V, m, a0, b0, count = case
    flipped = b0 ^ 1 << (m - 1)
    for down, engine in ((False, generate_recursive), (True, generate_down)):
        want = step_words(V.row_words, m, a0, b0, count, down)
        assert step_words(V.row_words, m, a0, flipped, count, down) == want
        assert run(engine(V, a0, b0, count)) == run(engine(V, a0, flipped, count)) == want


def test_runs_on_one_matrix_do_not_disturb_each_other():
    # the matrix caches its tables; a run that mutated one would change the next run
    for m, count in ((6, 40), (32, 256), (64, 200), (40, 5000)):
        V = random_fullrank_matrix(m, seed=m)
        full = 1 << m
        windows = [
            lambda: generate_recursive(V, 5 % full, full - 3, count),
            lambda: generate_down(V, 7 % full, 250 % full, count),
            lambda: generate_shifted(V, (full - 100) % full, count),
            lambda: generate_direct(V, count),
        ]
        first = [run(w()) for w in windows]
        def tables():
            return [[list(t) for t in basis._byte_tables()] for basis in (V, difference_basis(V))]

        cached = tables()
        for w, want in zip(windows, first):
            assert run(w()) == want
        # a long run that grew a cached table in place would not change the words
        assert tables() == cached
        rows = V.row_words
        shift = (full - 100) % full
        assert first == [
            step_words(rows, m, 5 % full, full - 3, count),
            step_words(rows, m, 7 % full, 250 % full, count, down=True),
            step_words(rows, m, gray_address(rows, shift), shift, count),
            step_words(list(accumulate(rows, xor)), m, count=count),
        ]


# -- SequenceSpec and AddressStream -------------------------------------------------------


def test_spec_defaults_and_coercion(worked_matrix):
    spec = SequenceSpec(worked_matrix)
    assert spec.count == 16
    assert spec.direction == "up"
    assert spec.a0 == BitVector(4, 0)
    assert spec.m == 4


def test_spec_validation(worked_matrix):
    with pytest.raises(ValueError):
        SequenceSpec(worked_matrix, direction="sideways")
    with pytest.raises(ValueError):
        SequenceSpec(worked_matrix, count=17)
    with pytest.raises(ValueError):
        SequenceSpec(worked_matrix, a0=BitVector(5, 0))
    with pytest.raises(RankDeficiencyError):
        SequenceSpec(GenerationMatrix(["11", "11"]))


def test_spec_is_a_frozen_record(worked_matrix):
    spec = SequenceSpec(worked_matrix, a0="1000", b0=3)
    fields = (worked_matrix, BitVector(4, 8), BitVector(4, 3), "up", 16)
    assert repr(spec) == (
        "SequenceSpec(matrix=GenerationMatrix([1011, 1000, 0101, 1111]), "
        "a0=BitVector(4, 0b1000), b0=BitVector(4, 0b0011), direction='up', count=16)"
    )
    assert hash(spec) == hash(fields)
    assert spec == SequenceSpec(GenerationMatrix(["1011", "1000", "0101", "1111"]), 8, "0011", "up", 16)
    assert spec != SequenceSpec(worked_matrix, a0=8, b0=4)
    assert spec != fields
    assert (spec.a0, spec.count) == (BitVector(4, 8), 16)


def test_spec_runs_post_init_through_the_class(worked_matrix, monkeypatch):
    seen = []
    post_init = SequenceSpec.__post_init__

    def wrapper(self):
        seen.append(self.count)  # still the raw argument: coercion runs after
        post_init(self)

    monkeypatch.setattr(SequenceSpec, "__post_init__", wrapper)
    generate_recursive(worked_matrix, count=5)
    SequenceSpec(worked_matrix)
    assert seen == [5, None]


def test_stream_emits_exactly_count_addresses(worked_matrix):
    assert run(generate_recursive(worked_matrix, count=7)) == TABLE_UP[:7]
    # iterating the stream itself yields the same addresses as BitVectors
    assert list(generate_recursive(worked_matrix, count=7)) == [
        BitVector(4, w) for w in TABLE_UP[:7]
    ]

