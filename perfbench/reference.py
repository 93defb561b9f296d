"""Independent correctness reference for the benchmark.

Nothing here imports addrseq.  The sequences come from a one-XOR-per-step
stepper (the paper's hardware model) and, for windows that start deep in a
wide period, from the closed form

    up(n) = a0 ^ combine(V, gray(b0) ^ gray(b0 + n))

The random family is re-derived from its documented draw stream
(splitmix64-seeded xorshift64*, whole-matrix rejection until full rank),
so a matrix the program builds is checked too, not just trusted.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter

_M64 = (1 << 64) - 1


def _splitmix64(seed: int) -> int:
    z = (seed + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _rank(words) -> int:
    basis: list[int] = []  # distinct leading bits, kept in descending order
    for w in words:
        for b in basis:
            w = min(w, w ^ b)
        if w:
            basis.append(w)
            basis.sort(reverse=True)
    return len(basis)


def random_rows(m: int, seed: int) -> list[int]:
    """Rows of the `random:<seed>` family matrix of width m."""
    state = _splitmix64(seed & _M64) or 0x9E3779B97F4A7C15
    mask = (1 << m) - 1
    while True:
        rows = []
        for _ in range(m):
            state ^= state >> 12
            state ^= (state << 25) & _M64
            state ^= state >> 27
            rows.append(((state * 0x2545F4914F6CDD1D) & _M64) & mask)
        if _rank(rows) == m:
            return rows


def gray(n: int) -> int:
    return n ^ (n >> 1)


def combine(rows, selector: int) -> int:
    acc = 0
    for i, row in enumerate(rows):
        if selector >> i & 1:
            acc ^= row
    return acc


def step(rows, m: int, a0: int, b0: int, count: int) -> list[int]:
    """Recursive run: each step XORs the row the counter's switching index picks."""
    mask = (1 << m) - 1
    out = [a0] if count else []
    acc, c = a0, b0
    for _ in range(count - 1):
        c = (c + 1) & mask
        acc ^= rows[m - 1] if c == 0 else rows[(c & -c).bit_length() - 1]
        out.append(acc)
    return out


def up_at(rows, m: int, a0: int, b0: int, n: int) -> int:
    """Closed form for position n of the up-run started at (a0, b0)."""
    return a0 ^ combine(rows, gray(b0) ^ gray((b0 + n) & ((1 << m) - 1)))


def up_window(rows, m: int, a0: int, b0: int, start: int, count: int) -> list[int]:
    """Positions start .. start+count-1 of an up-run, without walking to `start`."""
    b = (b0 + start) & ((1 << m) - 1)
    return step(rows, m, up_at(rows, m, a0, b0, start), b, count)


# -- the four gen variants over a full period ----------------------------------


def full_up(rows, m, a0=0, b0=0):
    return step(rows, m, a0, b0, 1 << m)


def full_down(rows, m, a0, b0):
    return full_up(rows, m, a0, b0)[::-1]


def full_shifted(rows, m, shift):
    seq = full_up(rows, m)
    return seq[shift:] + seq[:shift]


def full_direct(rows, m):
    # direct(n) ^ direct(n+1) is the XOR of rows 0..k, k the trailing ones of n,
    # so the direct run is the recursive run over the running-XOR rows
    cumulative, acc = [], 0
    for row in rows:
        acc ^= row
        cumulative.append(acc)
    return full_up(cumulative, m)


# -- text formats ----------------------------------------------------------------


def render(words, m: int, fmt: str) -> bytes:
    if fmt == "bin":
        lines = [format(w, f"0{m}b") for w in words]
    elif fmt == "hex":
        lines = [format(w, f"0{(m + 3) // 4}x") for w in words]
    elif fmt == "dec":
        lines = [str(w) for w in words]
    elif fmt == "csv":
        lines = ["n,address_dec,address_bin,hamming_to_prev"]
        prev = None
        for n, w in enumerate(words):
            dist = "" if prev is None else str((prev ^ w).bit_count())
            lines.append(f"{n},{w},{format(w, f'0{m}b')},{dist}")
            prev = w
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return ("\n".join(lines) + "\n").encode() if lines else b""


def digest(data: bytes) -> list[int]:
    """[lines, bytes, crc32] of an output, what every gen op is checked on."""
    return [data.count(b"\n"), len(data), zlib.crc32(data)]


# -- expected verify reports -------------------------------------------------------


def report_fields(text: str) -> dict[str, str]:
    return dict(ln.split("=", 1) for ln in text.splitlines() if "=" in ln)


def expected_report(words, m: int) -> dict[str, str]:
    """The report keys a verify of `words` must print, computed from scratch."""
    ones = [0] * m
    flips = [0] * m
    for w in words:
        for b in range(m):
            ones[b] += w >> b & 1
    hist: Counter[int] = Counter()
    for prev, cur in zip(words, words[1:]):
        diff = prev ^ cur
        hist[diff.bit_count()] += 1
        for b in range(m):
            flips[b] += diff >> b & 1
    complete = len(words) == 1 << m and len(set(words)) == 1 << m
    return {
        "m": str(m),
        "length": str(len(words)),
        "complete": "true" if complete else "false",
        "per_bit_ones": ",".join(map(str, ones)),
        "per_bit_transitions": ",".join(map(str, flips)),
        "hamming_histogram": ",".join(f"{d}:{c}" for d, c in sorted(hist.items())),
        "balance_failures": "0",
    }


def report_mismatches(text: str, expected: dict[str, str]) -> list[str]:
    got = report_fields(text)
    return [f"{k}: got {got.get(k)!r}, want {v!r}" for k, v in expected.items() if got.get(k) != v]


# -- rank statistics ---------------------------------------------------------------


def fullrank_probability(m: int) -> float:
    p = 1.0
    for i in range(1, m + 1):
        p *= 1.0 - 2.0 ** -i
    return p


def rank_mismatches(text: str, m: int, samples: int, seed: int) -> list[str]:
    """Checks of one rank-stats output: echoed inputs, the analytic value, and
    the Monte Carlo rate within 5 sigma of it."""
    got = report_fields(text)
    p = fullrank_probability(m)
    bad = [
        f"{k}: got {got.get(k)!r}, want {v!r}"
        for k, v in (("m", str(m)), ("samples", str(samples)), ("seed", str(seed)))
        if got.get(k) != v
    ]
    try:
        analytic = float(got["analytic_fullrank_probability"])
        rate = float(got["mc_fullrank_rate"])
        deficit = float(got["mc_expected_rank_deficit"])
    except (KeyError, ValueError):
        return bad + ["rank-stats output lacks a numeric estimate"]
    if abs(analytic - p) > 1e-12:
        bad.append(f"analytic_fullrank_probability {analytic} != {p}")
    sigma = math.sqrt(p * (1 - p) / samples)
    if abs(rate - p) > 5 * sigma:
        bad.append(f"mc_fullrank_rate {rate} is more than 5 sigma from {p}")
    if not 0 <= deficit <= m:
        bad.append(f"mc_expected_rank_deficit {deficit} outside 0..{m}")
    return bad
