"""Full-rank statistics of uniform random GF(2) matrices: the closed forms and the Monte Carlo census."""

from __future__ import annotations

from itertools import chain, repeat

from .common import _M64, _SHIFT_MASKS, _STAR, _check_m, _combine, _packed, _seeded, _step, _tables_of

FULLRANK_LIMIT = 0.2887880950866  # limit of prod(1 - 2^-i) as m grows
RANK_DEFICIT_LIMIT = 0.850179830874


def fullrank_probability(m: int) -> float:
    """Probability that a uniform random m x m GF(2) matrix is invertible.

    Closed form ``prod_{i=1..m} (1 - 2^-i)``; decreases monotonically to
    the limit 0.2887880950866.
    """
    if m.__class__ is not int or m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    p = 1.0
    for i in range(1, m + 1):
        p *= 1.0 - 2.0 ** -i
    return p


_LANES = 1024  # matrices drawn and ranked per big-int operation


def sampled_rank_counts(m: int, samples: int, seed: int = 0) -> dict[int, int]:
    """Monte Carlo census of ranks over `samples` uniform random matrices.

    Each matrix is drawn (its rows are the low m bits of consecutive
    xorshift64* draws, as in `random_fullrank_matrix`) and ranked once.
    Returns the count of each rank 0..m, like `exhaustive_rank_counts`.

    The draw stream is cut into at most 1024 lane streams of
    ``rounds = ceil(samples / 1024)`` matrices each; only the last lane
    can hold fewer.  Lane k steps its own xorshift64* state, T^(k rounds m)
    of the seeded one, reached by jump-ahead, in state lane k of one int,
    64 bits wide when 2m <= 64, else 128.  A draw's low m bits are the state's low
    m bits times the draw constant's, mod 2^m, and that product stays
    under 2^(2m), inside its lane.  The draws' low m bits move into lanes
    of w bits, the smallest of 8, 16, 32 and 64 that hold m, where row i
    of every matrix is one int; every big-int operation steps a whole
    round or eliminates from one of its rows, in one pass over the rows
    per column.  The census does not depend on the order of the samples,
    so it equals that of drawing and ranking the matrices one by one.
    """
    _check_m(m)
    if samples.__class__ is not int or samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rounds = -(-samples // _LANES)
    lanes = -(-samples // rounds)
    short = samples - (lanes - 1) * rounds  # the last lane counts in rounds 0..short-1 only
    jump, starts = _jump(rounds * m), [_seeded(seed)]
    for _ in range(lanes - 1):
        starts.append(_combine(jump, starts[-1]))
    unit = 8 if 2 * m <= 64 else 16  # bytes per state lane; a 16-byte lane's high half stays 0
    x = int.from_bytes(_packed(chain.from_iterable(zip(starts, *[repeat(0)] * (unit // 8 - 1)))), "little")
    lane = int.from_bytes((b"\1" + bytes(unit - 1)) * lanes, "little")
    masks, keep, star = [lane * k for k in _SHIFT_MASKS], lane * ((1 << m) - 1), _STAR & ((1 << m) - 1)
    w = max(8, 1 << (m - 1).bit_length())
    size, code = w // 8, "BHIQ"[(w // 8).bit_length() - 1]
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * lanes, "little")
    full = ones * ((1 << w) - 1)
    counts = dict.fromkeys(range(m + 1), 0)
    for i in range(rounds):
        rows = []
        for _ in range(m):
            x = _step(x, *masks)
            draws = memoryview(((x & keep) * star & keep).to_bytes(unit * lanes, "little"))
            rows.append(int.from_bytes(draws.cast(code)[:: unit // size], "little"))
        # column c in one pass: in each lane the first row with bit c set is the pivot, and its
        # bits c..w-1 (`spread` copies bit c up to w-1) go into every row with bit c, itself too
        ranks = 0
        for c in range(m):
            bit, spread = ones << c, (1 << (w - c)) - 1
            free, pivot = full, 0
            for j, r in enumerate(rows):
                t = (r & bit) * spread
                sel = t & free
                free ^= sel
                pivot |= r & sel
                rows[j] = r ^ t & pivot
            ranks += (free & bit ^ bit) >> c
        lane_ranks = ranks.to_bytes(size * lanes, "little")[::size][: lanes if i < short else -1]
        for r in range(m + 1):
            counts[r] += lane_ranks.count(r)
    return counts


def _jump(draws: int) -> tuple[list[int], ...]:
    # byte tables of T^draws, the state `draws` xorshift64* steps on: the 64 unit states,
    # one per 64-bit lane, stepped together; row i, the image of bit i, is lane i
    x, lane = sum(1 << 65 * i for i in range(64)), sum(1 << 64 * i for i in range(64))
    masks = [lane * k for k in _SHIFT_MASKS]
    for _ in range(draws):
        x = _step(x, *masks)
    return _tables_of([x >> 64 * i & _M64 for i in range(64)])


def _rank_summary(counts: dict[int, int], m: int) -> tuple[int, int, float, float]:
    """Total, full-rank count, full-rank fraction and mean rank deficit of a rank census."""
    total = sum(counts.values())
    full = counts[m]
    deficit = sum((m - r) * c for r, c in counts.items()) / total
    return total, full, full / total, deficit


def expected_rank_deficit(m: int, samples: int, seed: int = 0) -> float:
    """Monte Carlo estimate of E[m - rank] over uniform random matrices.

    Approaches 0.850179830874 for large m.
    """
    return _rank_summary(sampled_rank_counts(m, samples, seed), m)[3]


def fullrank_acceptance_rate(m: int, samples: int, seed: int = 0) -> float:
    """Monte Carlo fraction of uniform random matrices that are full rank."""
    return _rank_summary(sampled_rank_counts(m, samples, seed), m)[2]


def exhaustive_rank_counts(m: int) -> dict[int, int]:
    """Exact census of ranks over all 2^(m*m) m x m GF(2) matrices, by closed form.

    Rank r has ``prod_{i<r} (2^m - 2^i)^2 / (2^r - 2^i)`` matrices; in exact
    integers, each count is the one before it times ``2^r (2^(m-r) - 1)^2 / (2^(r+1) - 1)``.
    """
    _check_m(m)
    counts = [1]
    for r in range(m):
        counts.append((counts[-1] * ((1 << m - r) - 1) ** 2 << r) // ((2 << r) - 1))
    return dict(enumerate(counts))
