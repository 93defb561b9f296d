"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion lines
are printed in the terminal summary at the end of the run (see
conftest.py).  Timed criteria measure wall-clock with perf_counter after
a warmup pass and assert the stated budget.
"""

import functools
import time
from itertools import product

import pytest

from addrseq import (
    GenerationMatrix,
    bit_balance,
    complement_matrix,
    cumulative_basis,
    difference_basis,
    expected_rank_deficit,
    exhaustive_rank_counts,
    fullrank_probability,
    generate_direct,
    generate_down,
    generate_recursive,
    generate_shifted,
    graycode_matrix,
    hamming_profile,
    limited_matrix,
    linear_matrix,
    power2_matrix,
    quasirandom_matrix,
    random_fullrank_matrix,
    rank_of_words,
    switching_sequence,
    tuple_balance,
    verify_complete,
    wrap_index,
    XorShift64Star,
)

from _stepper import step_words
from _tables import (
    FAMILY_COLUMNS,
    FAMILY_MATRICES,
    QUASI_A0,
    TABLE_B0_3,
    TABLE_B0_3_STEPS,
    TABLE_DIRECT,
    TABLE_DOWN,
    TABLE_SHIFT_3,
    TABLE_UP,
    TABLE_UP_INVERTED,
    WORKED_ROWS,
)

FULLRANK_LIMIT_CONST = 0.2887880950866
DEFICIT_LIMIT_CONST = 0.850179830874


RESULTS: list[str] = []


def criterion(number, title):
    # collected here, printed by the pytest_terminal_summary hook in
    # conftest.py so the lines show through output capture
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append(f"FAIL criterion {number:2d}: {title}")
                raise
            RESULTS.append(f"PASS criterion {number:2d}: {title}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def worked():
    return GenerationMatrix(WORKED_ROWS)


def drain(stream):
    return list(stream.words())


@criterion(1, "direct engine reproduces the worked 16-row column, < 1 ms")
def test_criterion_01_direct_oracle(worked):
    assert drain(generate_direct(worked)) == TABLE_DIRECT  # warmup + correctness
    t0 = time.perf_counter()
    out = drain(generate_direct(worked))
    elapsed = time.perf_counter() - t0
    assert out == TABLE_DIRECT
    assert elapsed < 1e-3, f"direct generation took {elapsed * 1e3:.3f} ms"


@criterion(2, "recursive engine reproduces up, down, and inverted-bit columns, < 1 ms")
def test_criterion_02_recursive_oracle(worked):
    assert drain(generate_recursive(worked)) == TABLE_UP  # warmup
    t0 = time.perf_counter()
    up = drain(generate_recursive(worked))
    down = drain(generate_down(worked))
    inverted = drain(generate_recursive(worked, a0=0b1000))
    elapsed = time.perf_counter() - t0
    assert up == TABLE_UP
    assert down == TABLE_DOWN
    assert inverted == TABLE_UP_INVERTED
    assert elapsed < 1e-3, f"three 16-row runs took {elapsed * 1e3:.3f} ms"


@criterion(3, "nonzero counter start and shifted copy reproduce both columns plus the index column")
def test_criterion_03_shift_oracle(worked):
    assert drain(generate_recursive(worked, b0=0b0011)) == TABLE_B0_3
    assert drain(generate_shifted(worked, 3)) == TABLE_SHIFT_3
    printed = [wrap_index(4, 3)] + [s.index for s in switching_sequence(4, 0b0011, 16)]
    assert printed == TABLE_B0_3_STEPS


@criterion(4, "all six family constructors reproduce their matrices and 16-row columns")
def test_criterion_04_family_oracle():
    built = {
        "linear": linear_matrix(4),
        "pow2_2": power2_matrix(4, 2),
        "complement": complement_matrix(4),
        "limited": limited_matrix(4),
        "gray": graycode_matrix(4),
        "quasi": quasirandom_matrix(4),
    }
    for name, matrix in built.items():
        assert tuple(str(r) for r in matrix.rows) == FAMILY_MATRICES[name], name
        a0 = QUASI_A0 if name == "quasi" else 0
        assert drain(generate_recursive(matrix, a0=a0)) == FAMILY_COLUMNS[name], name


@criterion(5, "switching sequence for m=4 is 1,2,1,3,1,2,1,4,1,2,1,3,1,2,1")
def test_criterion_05_switching_sequence():
    indices = [s.index for s in switching_sequence(4, 0, 16)]
    assert indices == [1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1]


@criterion(6, "basis equivalence of the two engines, 1000 random matrices per m=2..12, < 30 s")
def test_criterion_06_basis_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for m in range(2, 13):
        for k in range(1000):
            V = random_fullrank_matrix(m, seed=1_000_000 * m + k)
            # both engines against the one-XOR-per-step reference stepper
            stepped = step_words(V.row_words, m)
            if drain(generate_recursive(V)) != stepped:
                mismatches += 1
            if drain(generate_direct(difference_basis(V))) != stepped:
                mismatches += 1
            # dual identity, spot-checked on a subsample to stay in budget
            if k < 50 and drain(generate_direct(V)) != step_words(cumulative_basis(V).row_words, m):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 30.0, f"equivalence sweep took {elapsed:.1f} s"


@criterion(7, "all 20160 full-rank 4x4 matrices generate complete, balanced sequences, < 60 s")
def test_criterion_07_exhaustive_completeness():
    t0 = time.perf_counter()
    positions = [pos for r in range(1, 5) for pos in _subsets(range(1, 5), r)]
    full_rank = 0
    for rows in product(range(16), repeat=4):
        if rank_of_words(rows) != 4:
            continue
        full_rank += 1
        seq = drain(generate_recursive(GenerationMatrix(rows, 4)))
        assert verify_complete(seq, 4), rows
        assert bit_balance(seq, 4) == [8, 8, 8, 8], rows
        for pos in positions:
            expected = 1 << (4 - len(pos))
            assert set(tuple_balance(seq, pos, 4).values()) == {expected}, (rows, pos)
    elapsed = time.perf_counter() - t0
    assert full_rank == 20160
    assert elapsed < 60.0, f"exhaustive sweep took {elapsed:.1f} s"


def _subsets(items, r):
    from itertools import combinations

    return list(combinations(items, r))


@criterion(8, "reversal and shift identities, 200 random (V, a0, b0, l) tuples per m=2..12")
def test_criterion_08_reversal_and_shift():
    for m in range(2, 13):
        full = 1 << m
        rng = XorShift64Star(seed=777 + m)
        for k in range(200):
            V = random_fullrank_matrix(m, seed=2_000_000 * m + k)
            a0 = rng.bits(m)
            b0 = rng.bits(m)
            shift = rng.bits(m)
            up = step_words(V.row_words, m, a0, b0)
            assert drain(generate_recursive(V, a0, b0)) == up, (m, k)
            assert drain(generate_down(V, a0, b0)) == up[::-1], (m, k)
            base = step_words(V.row_words, m)
            shifted = drain(generate_shifted(V, shift))
            assert shifted == [base[(n + shift) % full] for n in range(full)], (m, k)


@criterion(9, "full-rank statistics: limit constant, exhaustive census, deficit estimate, < 60 s")
def test_criterion_09_rank_statistics():
    assert abs(fullrank_probability(40) - FULLRANK_LIMIT_CONST) < 1e-10
    census = exhaustive_rank_counts(4)
    assert census[4] == 20160
    assert sum(census.values()) == 65536
    assert census[4] / 65536 == fullrank_probability(4)
    t0 = time.perf_counter()
    estimate = expected_rank_deficit(32, samples=100_000, seed=0)
    elapsed = time.perf_counter() - t0
    assert abs(estimate - DEFICIT_LIMIT_CONST) < 0.01, estimate
    assert elapsed < 60.0, f"Monte Carlo took {elapsed:.1f} s"


@criterion(10, "family structure properties hold exhaustively for m=2..10")
def test_criterion_10_family_structure():
    for m in range(2, 11):
        full = 1 << m
        mask = full - 1

        gray_seq = drain(generate_recursive(graycode_matrix(m)))
        assert set(hamming_profile(gray_seq, m).distances) == {1}

        comp_seq = drain(generate_recursive(complement_matrix(m)))
        assert all(comp_seq[n + 1] == comp_seq[n] ^ mask for n in range(0, full, 2))
        assert comp_seq[0::2] == list(range(full >> 1))

        lim_profile = hamming_profile(drain(generate_recursive(limited_matrix(m))), m).distances
        assert lim_profile == [m if n % 2 == 0 else m - 1 for n in range(full - 1)]

        for j in range(m):
            seq = drain(generate_recursive(power2_matrix(m, j)))
            expected = [((n << j) | (n >> (m - j))) & mask if j else n for n in range(full)]
            assert seq == expected, (m, j)
    # the worked interleave column is pinned bit-exactly at m=4, j=2
    assert drain(generate_recursive(power2_matrix(4, 2))) == FAMILY_COLUMNS["pow2_2"]
