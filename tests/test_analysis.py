import copy
import pickle
import random
import re
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addrseq import (
    BitVector,
    IncompleteSequenceError,
    analyze,
    bit_balance,
    check_completeness,
    format_report,
    generate_recursive,
    graycode_matrix,
    hamming_profile,
    tuple_balance,
    verify_complete,
)

from addrseq.analysis import _CHUNK

from _tables import (
    COMPLEMENT_PROFILE,
    FAMILY_COLUMNS,
    LIMITED_PROFILE,
    POW2_2_PER_BIT_TRANSITIONS,
    TABLE_UP,
)


# -- completeness -----------------------------------------------------------------


def test_worked_up_column_is_complete():
    assert verify_complete(TABLE_UP, 4)


def test_counter_is_complete():
    assert verify_complete(list(range(64)), 6)


def test_duplicate_is_reported():
    seq = list(range(16))
    seq[7] = 3
    result = check_completeness(seq, 4)
    assert not result.complete
    assert result.first_duplicate == BitVector(4, 3)
    assert result.first_missing == BitVector(4, 7)
    assert result.distinct == 15


def test_truncated_sequence_is_incomplete():
    result = check_completeness(list(range(10)), 4)
    assert not result.complete
    assert result.first_duplicate is None
    assert result.first_missing == BitVector(4, 10)


def test_completeness_is_a_frozen_record():
    result = check_completeness([0, 1, 3, 2], 2)
    assert result == (True, 2, 4, 4, None, None)
    assert repr(result) == (
        "Completeness(complete=True, m=2, length=4, distinct=4, first_duplicate=None, "
        "first_missing=None)"
    )
    with pytest.raises(AttributeError):
        result.complete = False


# every entry point that takes a sequence, called as check(words, m)
ENTRY_POINTS = pytest.mark.parametrize(
    "check",
    [
        check_completeness,
        verify_complete,
        bit_balance,
        lambda words, m: tuple_balance(words, {1}, m),
        hamming_profile,
        analyze,
    ],
    ids=["check_completeness", "verify_complete", "bit_balance", "tuple_balance",
         "hamming_profile", "analyze"],
)


@pytest.mark.parametrize(
    "words,m",
    [([0.2, 1.9], 1), (["0", "1", "10", "11"], 4)],
    ids=["floats", "digit-strings"],
)
@ENTRY_POINTS
def test_words_that_are_not_ints_are_rejected(check, words, m):
    # int() once read 0.2 and 1.9 as 0 and 1, and the string "10" as ten
    with pytest.raises(TypeError):
        check(words, m)


@pytest.mark.parametrize("words", [[], [0], [1, 0, 1, 0]], ids=["empty", "one", "four"])
@pytest.mark.parametrize("m", [0, 65, True, 2.0])
@ENTRY_POINTS
def test_widths_outside_a_word_are_rejected(check, m, words):
    # analyze([0], 0) once reported complete=True, hamming_profile at m=66 read the
    # next word's low byte as bit 65's transitions, and check_completeness([0, 1], True)
    # reported a complete sequence with m=True
    with pytest.raises(ValueError, match=re.escape(f"m must be in 1..64, got {m}")):
        check(words, m)


@pytest.mark.parametrize("word", ["2^m", "-1"])
@pytest.mark.parametrize("m", [4, 8, 9, 64])
@ENTRY_POINTS
def test_words_outside_m_bits_are_rejected(check, m, word):
    # the rule and the message of format_lines and permute_address_bits
    bad = 1 << m if word == "2^m" else -1
    with pytest.raises(ValueError, match=f"^value out of range for {m} bits$"):
        check([0, bad, 1], m)


def test_completeness_over_wide_space_stays_cheap():
    # short input over a 2^40 space must not allocate a presence bitmap
    result = check_completeness([0, 1, 2, 2], 40)
    assert not result.complete
    assert result.first_duplicate == BitVector(40, 2)
    assert result.first_missing == BitVector(40, 3)


def test_short_input_at_m24_allocates_no_byte_map():
    # a 2^24-byte presence map (two, with a duplicate) once cost 32 MB for four words
    tracemalloc.start()
    try:
        result = check_completeness([0, 1, 2, 2], 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert (result.distinct, result.first_duplicate, result.first_missing) == (
        3, BitVector(24, 2), BitVector(24, 3))


def test_sparse_input_at_m28_allocates_no_bit_map():
    # a 2^28-bit presence map once cost 33.6 MB for four words
    tracemalloc.start()
    try:
        result = check_completeness([5, 0, 5, 1], 28)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (result.distinct, result.first_duplicate, result.first_missing) == (
        3, BitVector(28, 5), BitVector(28, 2))


def test_analyze_of_a_generated_stream_at_m20_peaks_below_16_mb():
    # the words are packed into one 8 MB buffer as they arrive; a list of 2^20 ints beside it
    # once took the peak to 44 MB
    V = graycode_matrix(20)
    tracemalloc.start()
    try:
        report = analyze(generate_recursive(V).words(), 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.complete and report.hamming_histogram == {1: (1 << 20) - 1}
    assert peak < 16 << 20, f"peaked at {peak / (1 << 20):.1f} MB"


def _reference_completeness(words, m):
    """(distinct, first duplicate, first missing) of `words`, from a plain loop over a set."""
    seen, duplicate = set(), None
    for w in words:
        if w in seen and duplicate is None:
            duplicate = BitVector(m, w)
        seen.add(w)
    missing = next((BitVector(m, w) for w in range(1 << m) if w not in seen), None)
    return len(seen), duplicate, missing


@st.composite
def _around_the_density_boundary(draw):
    """Words whose count sits at 2^m / 8 (+-1) for m = 13..16, or far below it for m = 17..64."""
    m = draw(st.sampled_from([13, 14, 15, 16, 17, 20, 24, 28, 29, 40, 63, 64]))
    if m <= 16:
        n = (1 << m) // 8 + draw(st.integers(-1, 1))
    else:
        n = draw(st.integers(0, 300))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "distinct", "low run"]))
    if kind == "low run":  # 0..n-1 shuffled: the first missing word is n, the pigeonhole's last
        words = rng.sample(range(n), n)
    elif kind == "distinct" and m <= 16:
        words = rng.sample(range(1 << m), n)
    else:  # wider random words are nearly always distinct too
        words = [rng.getrandbits(m) for _ in range(n)]
    for _ in range(draw(st.integers(0, 3)) if words else 0):
        words[rng.randrange(n)] = words[rng.randrange(n)]
    return m, words


@settings(max_examples=150, deadline=None)
@given(_around_the_density_boundary())
@example((13, list(range(1024))))  # exactly 2^m / 8 words: the byte map
@example((13, list(range(1023)) + [0]))  # one fewer distinct, and a repeat
@example((29, [3, 1, 0, 1, 2, 3]))
def test_completeness_matches_a_set_reference(case):
    m, words = case
    result = check_completeness(words, m)
    assert (result.length, result.complete) == (len(words), False)
    assert (result.distinct, result.first_duplicate, result.first_missing) == (
        _reference_completeness(words, m))


# -- bit balance ------------------------------------------------------------------


def test_counter_bit_balance_m3():
    assert bit_balance(list(range(8)), 3) == [4, 4, 4]


def test_every_complete_sequence_is_bit_balanced():
    assert bit_balance(TABLE_UP, 4) == [8, 8, 8, 8]


def test_gray_column_bit_balance():
    assert bit_balance(FAMILY_COLUMNS["gray"], 4)[0] == 8


def test_bit_balance_rejects_incomplete_input():
    with pytest.raises(IncompleteSequenceError, match="verify_complete"):
        bit_balance(list(range(10)), 4)


def test_bit_balance_names_the_first_duplicate():
    with pytest.raises(IncompleteSequenceError, match="first duplicate 01, first missing 10"):
        bit_balance([0, 1, 1, 3], 2)


# -- tuple balance ----------------------------------------------------------------


def test_counter_two_bit_patterns_m3():
    counts = tuple_balance(list(range(8)), {3, 1}, 3)
    assert counts == {"00": 2, "01": 2, "10": 2, "11": 2}


def test_all_positions_restate_completeness():
    counts = tuple_balance(TABLE_UP, {1, 2, 3, 4}, 4)
    assert set(counts.values()) == {1}
    assert len(counts) == 16


def test_worked_column_pairs():
    counts = tuple_balance(TABLE_UP, {4, 2}, 4)
    assert counts == {"00": 4, "01": 4, "10": 4, "11": 4}


def test_tuple_balance_position_validation():
    with pytest.raises(ValueError):
        tuple_balance(TABLE_UP, {0, 2}, 4)
    with pytest.raises(ValueError):
        tuple_balance(TABLE_UP, {5}, 4)
    with pytest.raises(ValueError):
        tuple_balance(TABLE_UP, set(), 4)


def test_tuple_balance_rejects_incomplete_input():
    with pytest.raises(IncompleteSequenceError):
        tuple_balance(list(range(10)), {1, 2}, 4)


# -- switching profile ---------------------------------------------------------------


def test_gray_profile_is_all_ones():
    profile = hamming_profile(FAMILY_COLUMNS["gray"], 4)
    assert profile.distances == [1] * 15
    assert sum(profile.per_bit_transitions) == 15


def test_limited_profile_alternates():
    assert hamming_profile(FAMILY_COLUMNS["limited"], 4).distances == LIMITED_PROFILE


def test_complement_profile_matches_frozen_column():
    assert hamming_profile(FAMILY_COLUMNS["complement"], 4).distances == COMPLEMENT_PROFILE


def test_constant_input_has_zero_profile():
    profile = hamming_profile([5, 5, 5, 5], 4)
    assert profile.distances == [0, 0, 0]
    assert profile.per_bit_transitions == [0, 0, 0, 0]


def test_profile_sums_agree_everywhere():
    for column in FAMILY_COLUMNS.values():
        profile = hamming_profile(column, 4)
        assert sum(profile.distances) == sum(profile.per_bit_transitions)


# -- aggregate report -----------------------------------------------------------------


def test_analyze_worked_column():
    report = analyze(TABLE_UP, 4)
    assert report.complete
    assert report.ok
    assert report.balance_r_max == 4
    assert report.per_bit_ones == [8, 8, 8, 8]
    assert report.length == 16
    flips = sum(d * n for d, n in report.hamming_histogram.items())
    assert flips == sum(report.per_bit_transitions)


def test_analyze_empty_input():
    report = analyze([], 4)
    assert not report.complete
    assert report.length == 0
    assert report.min_distance is None
    assert report.mean_distance is None
    assert not report.balance_checked
    assert not report.ok


def test_analyze_power2_transition_concentration():
    report = analyze(FAMILY_COLUMNS["pow2_2"], 4)
    assert report.per_bit_transitions == POW2_2_PER_BIT_TRANSITIONS


def test_analyze_partial_sequence_skips_balance():
    report = analyze(TABLE_UP[:9], 4)
    assert not report.complete
    assert not report.balance_checked
    assert report.balance_r_max == 0
    distances = [bin(a ^ b).count("1") for a, b in zip(TABLE_UP, TABLE_UP[1:9])]
    assert hamming_profile(TABLE_UP[:9], 4).distances == distances
    assert report.hamming_histogram == {d: distances.count(d) for d in sorted(set(distances))}


def test_analyze_respects_max_r():
    report = analyze(TABLE_UP, 4, max_r=2)
    assert report.balance_r_max == 2
    assert report.ok


@pytest.mark.parametrize("max_r", [0, -3])
@pytest.mark.parametrize("words", [TABLE_UP, TABLE_UP[:3], [0.2, 1.9]], ids=["complete", "partial", "floats"])
def test_analyze_rejects_max_r_below_one(words, max_r):
    # a complete run once reported balance_r_max=-3, balance checked up to a negative size;
    # max_r is checked before any word is read
    with pytest.raises(ValueError, match="max_r must be at least 1"):
        analyze(words, 4, max_r=max_r)


def test_analyze_is_order_sensitive_in_profile_only():
    rotated = TABLE_UP[5:] + TABLE_UP[:5]
    a, b = analyze(TABLE_UP, 4), analyze(rotated, 4)
    assert a.complete and b.complete
    assert a.per_bit_ones == b.per_bit_ones
    assert hamming_profile(TABLE_UP, 4).distances != hamming_profile(rotated, 4).distances
    assert a.hamming_histogram != b.hamming_histogram


def test_generated_sequences_analyze_clean():
    V = graycode_matrix(5, (3, 1, 5, 2, 4))
    report = analyze(list(generate_recursive(V).words()), 5)
    assert report.ok
    assert report.hamming_histogram == {1: 31}


def _reference_profile(words, m):
    """The distance of each consecutive pair and the flips of each bit, one pair at a time."""
    distances, flips = [], [0] * m
    for prev, cur in zip(words, words[1:]):
        distances.append(sum(((prev ^ cur) >> b) & 1 for b in range(m)))
        for b in range(m):
            flips[b] += ((prev ^ cur) >> b) & 1
    return distances, flips


def _reference_report(words, m, max_r):
    """The report fields of `words`, from plain loops over the words."""
    ones = [0] * m
    for w in words:
        for b in range(m):
            ones[b] += (w >> b) & 1
    distances, flips = _reference_profile(words, m)
    histogram = {}
    for d in sorted(distances):
        histogram[d] = histogram.get(d, 0) + 1
    _, duplicate, missing = _reference_completeness(words, m)
    complete = len(words) == 1 << m and missing is None
    return {
        "length": len(words),
        "per_bit_ones": ones,
        "per_bit_transitions": flips,
        "hamming_histogram": histogram,
        "min_distance": min(distances) if distances else None,
        "max_distance": max(distances) if distances else None,
        "mean_distance": sum(distances) / len(distances) if distances else None,
        "complete": complete,
        "first_duplicate": duplicate,
        "first_missing": missing,
        "balance_r_max": min(m, max_r) if complete else 0,
    }


@st.composite
def _sequences(draw):
    """A random complete run, a truncation of one, or one with a slot duplicated."""
    m = draw(st.integers(1, 12))
    words = draw(st.permutations(range(1 << m)))
    kind = draw(st.sampled_from(["complete", "truncated", "duplicated"]))
    if kind == "truncated":
        words = words[: draw(st.integers(0, (1 << m) - 1))]
    elif kind == "duplicated":
        i, j = draw(st.integers(0, (1 << m) - 1)), draw(st.integers(0, (1 << m) - 1))
        words = list(words)
        words[i] = words[j]
    return m, list(words)


_M12_RUN = random.Random(12).sample(range(1 << 12), 1 << 12)
# words with bit 63 set: byte lane 7 and the top of the array('Q') range
_M64_WORDS = [1 << 63, (1 << 64) - 1, 0, (1 << 63) | 0x0123456789ABCDEF, 1 << 63, 0x7F << 56]


@settings(max_examples=50, deadline=None)
@given(_sequences(), st.integers(1, 6))
@example((12, _M12_RUN), 4)
@example((12, _M12_RUN[:-1] + _M12_RUN[:1]), 4)
@example((64, _M64_WORDS), 4)
def test_analyze_matches_a_plain_loop_reference(case, max_r):
    m, words = case
    report = analyze(words, m, max_r=max_r)
    want = _reference_report(words, m, max_r)
    assert {key: getattr(report, key) for key in want} == want
    assert list(report.hamming_histogram) == list(want["hamming_histogram"])  # keys ascending
    if report.complete:
        # the implication analyze relies on, checked by the direct counter
        for r in range(1, min(m, 4) + 1):
            for pos in combinations(range(1, m + 1), r):
                assert set(tuple_balance(words, pos, m).values()) == {1 << (m - r)}


# lengths around the fold's chunk: none, one word, one pair, a chunk and one word
# either side of it, and two chunks
_FOLD_LENGTHS = [0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK]


@st.composite
def _runs_around_the_fold(draw):
    """A width 1..64 and a run of a length around the fold's chunk: random, a gray count, or stretches."""
    m = draw(st.integers(1, 64))
    n = draw(st.sampled_from(_FOLD_LENGTHS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = (1 << m) - 1
    kind = draw(st.sampled_from(["random", "gray", "stretches"]))
    if kind == "random":
        return m, [rng.getrandbits(m) for _ in range(n)]
    if kind == "gray":  # distance 1 everywhere but at the wrap
        start = rng.getrandbits(m)
        return m, [(c ^ (c >> 1)) & top for c in range(start, start + n)]
    words = []  # runs of one word, so whole stretches have distance 0
    while len(words) < n:
        words += [rng.choice([0, top, rng.getrandbits(m)])] * rng.randrange(1, 3000)
    return m, words[:n]


@settings(max_examples=40, deadline=None)
@given(_runs_around_the_fold())
@example((64, [(1 << 64) - 1, 0] * _CHUNK))
@example((1, [1, 0] * (_CHUNK // 2) + [1]))
def test_packed_profile_matches_a_plain_loop_reference(case):
    m, words = case
    distances, flips = _reference_profile(words, m)
    assert hamming_profile(words, m) == (distances, flips)
    report = analyze(words, m, max_r=1)
    want = _reference_report(words, m, 1)
    assert {key: getattr(report, key) for key in want} == want


# -- report rendering --------------------------------------------------------------------


def test_report_is_immutable_and_ok_follows_completeness():
    report = analyze([0, 1, 3, 2], 2)
    assert report.ok and report.complete
    assert repr(report) == (
        "ActivityReport(m=2, length=4, complete=True, first_duplicate=None, first_missing=None, "
        "per_bit_ones=[2, 2], per_bit_transitions=[2, 1], hamming_histogram={1: 3}, "
        "min_distance=1, max_distance=1, mean_distance=1.0, balance_checked=True, balance_r_max=2)"
    )
    for field in ("complete", "ok"):
        with pytest.raises(AttributeError):
            setattr(report, field, False)
    assert not analyze([0, 1, 3], 2).ok


def test_report_with_diagnostics_copies_and_pickles():
    report = analyze([0, 1, 1], 2)
    assert (report.first_duplicate, report.first_missing) == (BitVector(2, 1), BitVector(2, 2))
    for twin in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert twin == report


def test_format_report_stable_keys():
    text = format_report(analyze(TABLE_UP, 4))
    for key in (
        "m=4",
        "length=16",
        "complete=true",
        "per_bit_ones=8,8,8,8",
        "balance_checked=true",
        "balance_r_max=4",
        "balance_failures=0",
        "hamming_min=",
        "hamming_histogram=",
    ):
        assert key in text


def test_format_report_incomplete_diagnostics():
    seq = list(range(16))
    seq[5] = 9
    text = format_report(analyze(seq, 4))
    assert "complete=false" in text
    assert "first_duplicate=1001" in text
    assert "first_missing=0101" in text
