#!/usr/bin/env python3
"""How often is a random binary matrix usable as a generation matrix?

A matrix generates a full address sequence iff it is invertible over
GF(2).  This script compares the closed-form probability against the
exact rank census of every matrix and Monte Carlo sampling, then looks at the
rejection-sampling cost of drawing full-rank matrices and at how many
sequences bit permutation alone can reach.
"""

from addrseq import (
    exhaustive_rank_counts,
    fullrank_probability,
    permutation_count,
    random_fullrank_matrix,
    sampled_rank_counts,
)

print("closed form prod(1 - 2^-i):")
for m in (1, 2, 4, 8, 16, 32, 40):
    print(f"  m={m:2d}  P(full rank) = {fullrank_probability(m):.13f}")
print("  limit for large m  ~ 0.2887880950866")

print("\nexhaustive census at m = 4 (all 65536 matrices):")
census = exhaustive_rank_counts(4)
total = sum(census.values())
for rank, count in sorted(census.items()):
    print(f"  rank {rank}: {count:6d}  ({count / total:.6f})")
print(f"  full-rank fraction {census[4]}/{total} = {census[4] / total}")
print(f"  closed form at m=4              = {fullrank_probability(4)}")

print("\nMonte Carlo at m = 32 (50000 samples, seed 1):")
sampled = sampled_rank_counts(32, samples=50_000, seed=1)  # each matrix drawn and ranked once
rate = sampled[32] / 50_000
deficit = sum((32 - rank) * count for rank, count in sampled.items()) / 50_000
print(f"  acceptance rate      = {rate:.4f}   (limit ~ 0.28879)")
print(f"  expected rank deficit = {deficit:.4f}  (limit ~ 0.85018)")

print("\nrejection sampling cost (expected ~ 1/0.28879 ~ 3.46 tries):")
tries = [random_fullrank_matrix(16, seed=s, with_attempts=True)[1] for s in range(300)]
print(f"  mean attempts over 300 seeds at m=16: {sum(tries) / len(tries):.2f}")
print(f"  worst case observed: {max(tries)}")

print("\nhow many orders does bit permutation alone provide?")
for m in (3, 8, 16, 32):
    exact, stirling = permutation_count(m)
    print(f"  m={m:2d}  m! = {exact}  (Stirling ~ {stirling:.4g})")
print("every one of them is generated by a unit-row matrix; the full-rank")
print("matrix space is astronomically larger (28.9% of 2^(m*m) matrices).")
