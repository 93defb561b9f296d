import math
import tracemalloc
from collections import Counter
from itertools import islice, permutations, product

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from addrseq import (
    FULLRANK_LIMIT,
    RANK_DEFICIT_LIMIT,
    AddressStream,
    GenerationMatrix,
    XorShift64Star,
    complement_matrix,
    exhaustive_rank_counts,
    expected_rank_deficit,
    family_matrix,
    fullrank_acceptance_rate,
    fullrank_probability,
    generate_direct,
    generate_recursive,
    graycode_matrix,
    hamming_profile,
    limited_matrix,
    linear_matrix,
    permutation_count,
    permute_address_bits,
    power2_matrix,
    quasirandom_matrix,
    random_fullrank_matrix,
    rank_of_words,
    sampled_rank_counts,
    verify_complete,
)
from addrseq.census import _LANES as B
from addrseq.census import _jump
from addrseq.common import _combine

from _tables import (
    EXPECTED_DEFICIT_M4,
    FAMILY_COLUMNS,
    FAMILY_MATRICES,
    PERMUTED_M2_SWAP,
    PERMUTED_M3_SWAP31,
    QUASI_A0,
    RANK_CENSUS_M4,
)


def rows_of(matrix):
    return tuple(str(r) for r in matrix.rows)


def column(matrix, a0=0):
    return list(generate_recursive(matrix, a0=a0).words())


def rotl(w, j, m):
    j %= m
    return ((w << j) | (w >> (m - j))) & ((1 << m) - 1) if j else w


# -- the worked family gallery -----------------------------------------------------


def test_linear_matrix_and_column():
    V = linear_matrix(4)
    assert rows_of(V) == FAMILY_MATRICES["linear"]
    assert column(V) == FAMILY_COLUMNS["linear"]


def test_linear_one_bit():
    assert rows_of(linear_matrix(1)) == ("1",)
    assert column(linear_matrix(1)) == [0, 1]


def test_power2_matrix_and_column():
    V = power2_matrix(4, 2)
    assert rows_of(V) == FAMILY_MATRICES["pow2_2"]
    assert column(V) == FAMILY_COLUMNS["pow2_2"]


def test_power2_zero_shift_is_linear():
    for m in (1, 4, 9):
        assert power2_matrix(m, 0) == linear_matrix(m)


def test_power2_shift_validation():
    with pytest.raises(ValueError):
        power2_matrix(4, 4)
    with pytest.raises(ValueError):
        power2_matrix(4, -1)


def test_complement_matrix_and_column():
    V = complement_matrix(4)
    assert rows_of(V) == FAMILY_MATRICES["complement"]
    assert column(V) == FAMILY_COLUMNS["complement"]


def test_complement_one_bit():
    assert rows_of(complement_matrix(1)) == ("1",)
    assert column(complement_matrix(1)) == [0, 1]


def test_limited_matrix_and_column():
    V = limited_matrix(4)
    assert rows_of(V) == FAMILY_MATRICES["limited"]
    assert column(V) == FAMILY_COLUMNS["limited"]


def test_limited_rejects_one_bit():
    with pytest.raises(ValueError):
        limited_matrix(1)


def test_limited_custom_zero_placement():
    V = limited_matrix(4, zeros=(4, 2, 1))
    assert rows_of(V) == ("1111", "0111", "1101", "1110")
    assert V.rank == 4
    profile = hamming_profile(column(V), 4).distances
    assert profile == [4 if n % 2 == 0 else 3 for n in range(15)]


def test_limited_zero_placement_validation():
    with pytest.raises(ValueError):
        limited_matrix(4, zeros=(1, 2))          # wrong count
    with pytest.raises(ValueError):
        limited_matrix(4, zeros=(1, 1, 2))       # repeat
    with pytest.raises(ValueError):
        limited_matrix(4, zeros=(0, 1, 2))       # out of range


def test_graycode_matrix_and_column():
    V = graycode_matrix(4)
    assert rows_of(V) == FAMILY_MATRICES["gray"]
    assert column(V) == FAMILY_COLUMNS["gray"]


def test_graycode_distinct_matrices_count():
    matrices = {rows_of(graycode_matrix(4, p)) for p in permutations(range(1, 5))}
    assert len(matrices) == 24


def test_graycode_rejects_non_bijections():
    with pytest.raises(ValueError):
        graycode_matrix(4, (1, 1, 2, 3))
    with pytest.raises(ValueError):
        graycode_matrix(4, (1, 2, 3))


def test_quasirandom_matrix_and_column():
    V = quasirandom_matrix(4)
    assert rows_of(V) == FAMILY_MATRICES["quasi"]
    assert column(V, a0=QUASI_A0) == FAMILY_COLUMNS["quasi"]


@pytest.mark.parametrize("m", [1, 2, 4, 6, 8])
def test_quasirandom_default_emits_bit_reversed_counter(m):
    # the all-ones triangle generates the base-2 van der Corput order
    seq = column(quasirandom_matrix(m))
    reverse = lambda n: int(format(n, f"0{m}b")[::-1], 2)
    assert seq == [reverse(n) for n in range(1 << m)]


def test_quasirandom_override_keeps_triangular_form():
    V = quasirandom_matrix(4, rows=["1000", "1100", "0110", "1011"])
    assert V.rank == 4
    with pytest.raises(ValueError, match="diagonal"):
        quasirandom_matrix(4, rows=["1000", "1000", "0110", "1011"])
    with pytest.raises(ValueError, match="right of the diagonal"):
        quasirandom_matrix(4, rows=["1100", "1100", "0110", "1011"])
    with pytest.raises(ValueError):
        quasirandom_matrix(4, rows=["1000", "1100", "0110"])


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 21, 34, 55, 64])
def test_every_constructor_is_full_rank(m):
    builders = [linear_matrix, complement_matrix, quasirandom_matrix, graycode_matrix]
    if m >= 2:
        builders.append(limited_matrix)
    for build in builders:
        assert build(m).rank == m
    for j in {0, m - 1, m // 2}:
        assert power2_matrix(m, j).rank == m


# -- structural sequence properties -------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_power2_sequences_stride_by_rotation(m):
    for j in range(m):
        seq = column(power2_matrix(m, j))
        assert seq == [rotl(n, j, m) for n in range(1 << m)]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_complement_sequences_interleave_counter_and_complements(m):
    seq = column(complement_matrix(m))
    mask = (1 << m) - 1
    assert seq[0::2] == list(range(1 << (m - 1)))
    for even in range(0, 1 << m, 2):
        assert seq[even + 1] == seq[even] ^ mask


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_limited_sequences_alternate_m_and_m_minus_1(m):
    profile = hamming_profile(column(limited_matrix(m)), m).distances
    assert profile == [m if n % 2 == 0 else m - 1 for n in range((1 << m) - 1)]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_gray_sequences_always_move_one_bit(m):
    perms = [tuple(range(1, m + 1)), tuple(range(m, 0, -1))]
    for perm in perms:
        profile = hamming_profile(column(graycode_matrix(m, perm)), m).distances
        assert set(profile) == {1}


# -- seeded random sampling -----------------------------------------------------------


def test_random_fullrank_matrix_is_deterministic():
    a = random_fullrank_matrix(8, seed=7)
    b = random_fullrank_matrix(8, seed=7)
    assert a == b
    assert a.rank == 8


def test_random_fullrank_matrix_varies_with_seed():
    assert random_fullrank_matrix(8, seed=1) != random_fullrank_matrix(8, seed=2)


def test_random_fullrank_matrix_reports_attempts():
    matrix, attempts = random_fullrank_matrix(6, seed=11, with_attempts=True)
    assert matrix.rank == 6
    assert attempts >= 1


def test_xorshift_stream_is_reproducible_and_nonzero():
    a = XorShift64Star(42)
    b = XorShift64Star(42)
    draws = [a.next64() for _ in range(5)]
    assert draws == [b.next64() for _ in range(5)]
    assert all(0 < d < (1 << 64) for d in draws)
    assert XorShift64Star(0).next64() != XorShift64Star(1).next64()


# -- independent references for the sampler ------------------------------------------
#
# Written out from the XorShift64Star docstring and from textbook elimination, so the
# sampler, the draw loop and rank_of_words are compared with code they share nothing with.

M64 = (1 << 64) - 1


def reference_stream(seed):
    """Endless xorshift64* draws, the state seeded through splitmix64."""
    z = (seed + 0x9E3779B97F4A7C15) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    x = (z ^ (z >> 31)) or 0x9E3779B97F4A7C15
    while True:
        x ^= x >> 12
        x ^= (x << 25) & M64
        x ^= x >> 27
        yield (x * 0x2545F4914F6CDD1D) & M64


def reference_rank(rows):
    """Rank by a basis of distinct leading bits: each row is reduced by min(w, w ^ b)."""
    basis = []  # kept in descending order, so each b clears its own leading bit of w
    for w in rows:
        for b in basis:
            w = min(w, w ^ b)
        if w:
            basis.append(w)
            basis.sort(reverse=True)
    return len(basis)


def reference_matrices(m, seed):
    """Consecutive m-row matrices of the stream, each row the low m bits of a draw."""
    stream = reference_stream(seed & M64)
    mask = (1 << m) - 1
    while True:
        yield [w & mask for w in islice(stream, m)]


@st.composite
def row_lists(draw):
    """Rows up to 80 bits wide, with zero rows, duplicates, XOR-dependent rows, and often
    more rows than bits."""
    width = draw(st.integers(1, 80))
    pool = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=width + 2))
    pool += [0] + [a ^ b for a, b in zip(pool, pool[1:])]
    return draw(st.lists(st.sampled_from(pool), max_size=width + 8))


@given(row_lists())
def test_rank_of_words_matches_a_reference_elimination(rows):
    assert rank_of_words(rows) == reference_rank(rows)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 64), samples=st.integers(1, 40), seed=st.integers(-(1 << 66), 1 << 66))
def test_sampler_matches_a_plain_reference(m, samples, seed):
    ranks = [reference_rank(rows) for rows in islice(reference_matrices(m, seed), samples)]
    assert sampled_rank_counts(m, samples, seed) == {r: ranks.count(r) for r in range(m + 1)}
    assert fullrank_acceptance_rate(m, samples, seed) == ranks.count(m) / samples
    assert expected_rank_deficit(m, samples, seed) == sum(m - r for r in ranks) / samples


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 64), seed=st.integers(0, M64))
def test_random_fullrank_matrix_matches_a_plain_reference(m, seed):
    matrices = reference_matrices(m, seed)
    attempts, rows = 1, next(matrices)
    while reference_rank(rows) != m:
        attempts, rows = attempts + 1, next(matrices)
    matrix, got = random_fullrank_matrix(m, seed, with_attempts=True)
    assert (matrix.row_words, got) == (tuple(rows), attempts)


draw_calls = st.one_of(
    st.tuples(st.just("next64")),
    st.tuples(st.just("bits"), st.integers(0, 70)),
    st.tuples(st.just("draws"), st.integers(0, 6), st.integers(0, 70)),
)


@given(seed=st.integers(-(1 << 66), 1 << 66), calls=st.lists(draw_calls, max_size=12))
def test_xorshift_matches_a_plain_reference(seed, calls):
    rng, stream = XorShift64Star(seed), reference_stream(seed & M64)
    for name, *args in calls:
        if name == "next64":
            assert rng.next64() == next(stream)
        elif name == "bits":
            (k,) = args
            assert rng.bits(k) == next(stream) & ((1 << k) - 1)
        else:
            count, k = args
            assert rng.draws(count, k) == [w & ((1 << k) - 1) for w in islice(stream, count)]


def reference_census(m, samples, seed):
    ranks = [reference_rank(rows) for rows in islice(reference_matrices(m, seed), samples)]
    return {r: ranks.count(r) for r in range(m + 1)}


# a failing census is reported as found: shrinking it replays the reference, at up to 0.6 s an
# example, for minutes
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


# the lane sampler cuts the stream into at most B lanes of ceil(samples / B) matrices each, of
# which only the last can run short: B fills one round of B lanes, B + 1 gives 513 lanes whose
# last holds 1 sample, and 2B + 3 gives 684 lanes of 3 whose last holds 2
@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
@given(
    m=st.integers(1, 12),
    samples=st.sampled_from([1, B - 1, B, B + 1, 2 * B + 3]) | st.integers(1, 3 * B),
    seed=st.sampled_from([-1, -(1 << 65) - 3, 0]) | st.integers(1 << 64, 1 << 70),
)
def test_lane_sampler_matches_the_reference_at_every_batch_edge(m, samples, seed):
    assert sampled_rank_counts(m, samples, seed) == reference_census(m, samples, seed)


# each lane width (8, 16, 32, 64 bits) at its edges, in one round of 5 lanes and in two
# rounds of 513
@pytest.mark.parametrize("m", [1, 7, 8, 9, 32, 33, 64])
@pytest.mark.parametrize("samples", [5, B + 2])
def test_lane_sampler_matches_the_reference_at_every_lane_width(m, samples):
    assert sampled_rank_counts(m, samples, m) == reference_census(m, samples, m)


# the state lanes are 64 bits wide up to m = 32 and 128 bits from m = 33: both sides of that
# edge, in one round, in a full round and in rounds whose last lane runs short
@settings(max_examples=8, deadline=None, phases=_NO_SHRINK)
@given(
    m=st.sampled_from([31, 32, 33]),
    samples=st.sampled_from([1, B - 1, B + 1, 2 * B + 3]) | st.integers(1, 3 * B),
    seed=st.integers(-(1 << 65), 1 << 65),
)
def test_lane_sampler_matches_the_reference_at_the_state_lane_edge(m, samples, seed):
    assert sampled_rank_counts(m, samples, seed) == reference_census(m, samples, seed)


_INVERSE = pow(0x2545F4914F6CDD1D, -1, 1 << 64)


@settings(max_examples=60, deadline=None)
@given(draws=st.integers(0, 5000), seed=st.integers(-(1 << 66), 1 << 66))
@example(draws=0, seed=0)
@example(draws=1, seed=0)
@example(draws=4096, seed=1)
@example(draws=5000, seed=2)
def test_jump_equals_stepping_the_reference_stream(draws, seed):
    # a draw is its state times an odd constant, so each state is read back from its draw
    states = (d * _INVERSE & M64 for d in reference_stream(seed & M64))
    start = next(states)
    want = next(islice(states, draws - 1, None)) if draws else start
    assert _combine(_jump(draws), start) == want


def test_lane_sampler_memory_does_not_grow_with_the_sample_count():
    def peak(samples):
        sampled_rank_counts(32, samples)  # a warm-up, so one-time allocations are not counted
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sampled_rank_counts(32, samples)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    one, eight = peak(B), peak(8 * B)
    assert abs(eight - one) <= 0.1 * one


def test_census_keeps_nothing_after_the_call():
    # the jump builds its tables per call: a cache of the step map's squares once kept
    # about 600 KiB of byte tables after this census
    sampled_rank_counts(1, 1)
    tracemalloc.start()
    try:
        sampled_rank_counts(32, 10_000)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024


def test_sampled_rank_counts_keys_every_rank_and_checks_its_arguments():
    counts = sampled_rank_counts(4, 50, seed=2)
    assert list(counts) == [0, 1, 2, 3, 4]
    assert sum(counts.values()) == 50
    with pytest.raises(ValueError, match="samples must be >= 1"):
        sampled_rank_counts(4, 0)
    with pytest.raises(ValueError, match="m must be in 1..64"):
        sampled_rank_counts(65, 10)


# -- rank statistics ---------------------------------------------------------------------


def test_fullrank_probability_values():
    assert fullrank_probability(1) == 0.5
    assert fullrank_probability(4) == 315 / 1024 == 20160 / 65536
    for m in range(1, 30):
        assert fullrank_probability(m + 1) < fullrank_probability(m)
    assert abs(fullrank_probability(40) - 0.2887880950866) < 1e-10


def test_probability_matches_exhaustive_census_exactly():
    for m in (1, 2, 3, 4):
        counts = exhaustive_rank_counts(m)
        total = sum(counts.values())
        assert total == 1 << (m * m)
        assert counts[m] / total == fullrank_probability(m)


def test_exhaustive_census_m4_matches_independent_enumeration():
    assert exhaustive_rank_counts(4) == RANK_CENSUS_M4


@pytest.mark.parametrize("m", [1, 2, 3])
def test_exhaustive_census_matches_an_enumeration_of_every_matrix(m):
    counts = Counter(map(reference_rank, product(range(1 << m), repeat=m)))
    assert exhaustive_rank_counts(m) == {r: counts[r] for r in range(m + 1)}


def test_exhaustive_census_counts_every_matrix_at_every_width():
    for m in range(1, 65):
        counts = exhaustive_rank_counts(m)
        assert list(counts) == list(range(m + 1))
        assert sum(counts.values()) == 1 << (m * m)
        fraction = counts[m] / (1 << (m * m))
        assert abs(fraction - fullrank_probability(m)) < 1e-15
        assert f"{fraction:.13f}" == f"{fullrank_probability(m):.13f}"
    # |GL(5, 2)| and |GL(6, 2)|
    assert exhaustive_rank_counts(5)[5] == 9999360
    assert exhaustive_rank_counts(6)[6] == 20158709760


def test_exhaustive_census_reaches_the_limits_at_m64():
    counts = exhaustive_rank_counts(64)
    total = 1 << 4096
    assert abs(counts[64] / total - FULLRANK_LIMIT) < 1e-12
    deficit = sum((64 - r) * c for r, c in counts.items()) / total
    assert abs(deficit - RANK_DEFICIT_LIMIT) < 1e-12


@pytest.mark.parametrize("m", [0, 65, True])
def test_exhaustive_census_takes_the_width_rule(m):
    with pytest.raises(ValueError, match="m must be in 1..64"):
        exhaustive_rank_counts(m)


def test_expected_rank_deficit_one_bit():
    # analytic value is exactly 0.5; the estimator converges there
    est = expected_rank_deficit(1, samples=20_000, seed=3)
    assert abs(est - 0.5) < 0.02


def test_expected_rank_deficit_m4_near_exhaustive_value():
    est = expected_rank_deficit(4, samples=20_000, seed=5)
    assert abs(est - EXPECTED_DEFICIT_M4) < 0.03


def test_acceptance_rate_matches_probability_at_m8():
    est = fullrank_acceptance_rate(8, samples=20_000, seed=9)
    assert abs(est - fullrank_probability(8)) < 0.015


def test_acceptance_rate_near_limit_at_m32():
    # deterministic given the seed; ~4 s for the 10^5 draws
    est = fullrank_acceptance_rate(32, samples=100_000, seed=1)
    assert abs(est - 0.2887880950866) < 0.005


# -- bit permutation ------------------------------------------------------------------------


def counter_stream(m):
    return AddressStream(m, 1 << m, iter(range(1 << m)))


def test_permute_swap_of_top_and_bottom_bits_m3():
    out = permute_address_bits(counter_stream(3), (3, 2, 1))
    assert list(out.words()) == PERMUTED_M3_SWAP31


def test_permute_swap_m2():
    out = permute_address_bits(counter_stream(2), (2, 1))
    assert list(out.words()) == PERMUTED_M2_SWAP


def test_identity_permutation_is_a_no_op(worked_matrix):
    out = permute_address_bits(generate_recursive(worked_matrix), (1, 2, 3, 4))
    assert list(out.words()) == column(worked_matrix)


def test_permutation_preserves_completeness(worked_matrix):
    out = permute_address_bits(generate_recursive(worked_matrix), (2, 4, 1, 3))
    assert verify_complete(list(out.words()), 4)


def test_permute_rejects_non_bijections():
    with pytest.raises(ValueError):
        permute_address_bits(counter_stream(3), (1, 1, 2))


@pytest.mark.parametrize("m", [4, 8, 9, 64])
@pytest.mark.parametrize("word", ["2^m", -1, 1.5])
def test_permute_refuses_words_outside_m_bits(m, word):
    # at m=8 word 512 once came out as 0 and -1 as 255; at m=4 word 16 raised IndexError
    words = [0, 1 << m if word == "2^m" else word, 1]
    out = permute_address_bits(AddressStream(m, 3, iter(words)), range(1, m + 1))  # lazy
    if word == 1.5:
        error, message = TypeError, "cannot be interpreted as an integer"
    else:
        error, message = ValueError, f"^value out of range for {m} bits$"
    with pytest.raises(error, match=message):
        list(out.words())


def permute_reference(words, perm):
    # the plain loop: output bit k reads input bit perm[k] - 1, one bit at a time
    moves = tuple((k, p - 1) for k, p in enumerate(perm))
    out = []
    for w in words:
        mapped = 0
        for k, s in moves:
            mapped |= ((w >> s) & 1) << k
        out.append(mapped)
    return out


@st.composite
def permute_cases(draw):
    m = draw(st.integers(1, 64))
    perm = draw(st.permutations(range(1, m + 1)))
    words = draw(st.lists(st.integers(0, (1 << m) - 1), max_size=40))
    return m, perm, words


@settings(max_examples=200, deadline=None)
@given(permute_cases())
def test_permute_matches_the_bit_loop(case):
    m, perm, words = case
    out = permute_address_bits(AddressStream(m, len(words), iter(words)), perm)
    assert (out.m, out.count) == (m, len(words))
    assert list(out.words()) == permute_reference(words, perm)


def test_permutation_count_values():
    assert permutation_count(3).exact == 6
    assert permutation_count(10).exact == 3628800
    assert permutation_count(1).exact == 1
    assert abs(permutation_count(1).stirling - 0.9221370088957891) < 1e-12
    assert abs(permutation_count(10).stirling - 3598695.6187410504) < 1e-6


def test_stirling_past_the_float_range_is_inf_and_the_count_stays_exact():
    # m! passes the largest float between m = 170 and m = 171
    assert math.isfinite(permutation_count(170).stirling)
    assert permutation_count(171) == (math.factorial(171), math.inf)


@pytest.mark.parametrize("m", [1, 2, 5, 10, 20, 40, 64])
def test_stirling_relative_error_bound(m):
    exact, approx = permutation_count(m)
    assert abs(approx - exact) / exact < 1 / (10 * m)


# -- family dispatch by name -------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,expected",
    [
        ("linear", FAMILY_MATRICES["linear"]),
        ("pow2:2", FAMILY_MATRICES["pow2_2"]),
        ("complement", FAMILY_MATRICES["complement"]),
        ("limited", FAMILY_MATRICES["limited"]),
        ("gray", FAMILY_MATRICES["gray"]),
        ("quasi", FAMILY_MATRICES["quasi"]),
    ],
)
def test_family_dispatch(name, expected):
    assert rows_of(family_matrix(name, 4)) == expected


def test_family_dispatch_gray_with_permutation():
    assert family_matrix("gray:4,3,2,1", 4) == graycode_matrix(4, (4, 3, 2, 1))


def test_family_dispatch_random_seed_forms():
    a = family_matrix("random:7", 5)
    b = family_matrix("random:seed=7", 5)
    c = family_matrix("random", 5, seed=7)
    assert a == b == c == random_fullrank_matrix(5, 7)


def test_family_dispatch_refuses_a_seed_it_would_not_use():
    with pytest.raises(ValueError, match="the seed is given twice"):
        family_matrix("random:seed=7", 5, seed=7)
    for spec in ("linear", "pow2:2", "gray"):
        with pytest.raises(ValueError, match="takes no seed"):
            family_matrix(spec, 5, seed=0)


@pytest.mark.parametrize(
    "spec",
    ["nope", "pow2", "pow2:x", "random", "gray:1,1,2,3", "linear:3"],
)
def test_family_dispatch_errors(spec):
    with pytest.raises(ValueError):
        family_matrix(spec, 4)


@pytest.mark.parametrize(
    "spec,message",
    [
        ("linear:3", "bad family 'linear:3': linear takes no parameter"),
        ("complement:1", "bad family 'complement:1': complement takes no parameter"),
        ("Limited:x", "bad family 'Limited:x': limited takes no parameter"),
        ("quasi:seed=2", "bad family 'quasi:seed=2': quasi takes no parameter"),
    ],
)
def test_family_dispatch_refuses_a_parameter_where_none_is_taken(spec, message):
    with pytest.raises(ValueError) as excinfo:
        family_matrix(spec, 4)
    assert str(excinfo.value) == message
