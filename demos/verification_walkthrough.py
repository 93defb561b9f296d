#!/usr/bin/env python3
"""What the analysis suite checks, shown on healthy and broken inputs.

A valid address sequence visits all 2^m addresses exactly once; that
forces per-bit balance (2^(m-1) ones per bit) and tuple balance (every
r-bit pattern appears 2^(m-r) times on any r positions).  `analyze`
relies on that implication: it scans for completeness once and reports
balance as checked when the scan passes.  `bit_balance` and
`tuple_balance` count the properties outright.  A corrupted sequence
fails the completeness scan with a pointed diagnostic.
"""

from addrseq import (
    analyze,
    bit_balance,
    check_completeness,
    format_report,
    generate_recursive,
    permute_address_bits,
    random_fullrank_matrix,
    tuple_balance,
    verify_complete,
)

M = 5
V = random_fullrank_matrix(M, seed=2024)
seq = list(generate_recursive(V).words())

print(f"random full-rank matrix at m={M}, full run of {len(seq)} addresses")
print("complete:", verify_complete(seq, M))
print("ones per bit:", bit_balance(seq, M))
print("patterns on bits (5,2):", tuple_balance(seq, {5, 2}, M))

print("\nfull report:")
print(format_report(analyze(seq, M)))

print("corrupting one entry (duplicate overwrites an address):")
broken = list(seq)
broken[9] = broken[4]
result = check_completeness(broken, M)
print(f"  complete={result.complete}  distinct={result.distinct}")
print(f"  first duplicate: {result.first_duplicate}")
print(f"  first missing:   {result.first_missing}")

print("\ntruncating the run (balance is only defined for complete runs):")
report = analyze(seq[: 1 << (M - 1)], M)
print(f"  complete={report.complete}  balance_checked={report.balance_checked}")

print("\nbit permutation preserves validity (one order becomes m! orders):")
permuted = permute_address_bits(generate_recursive(V), (3, 1, 5, 2, 4))
print("  permuted run complete:", verify_complete(list(permuted.words()), M))
