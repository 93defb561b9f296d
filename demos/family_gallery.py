#!/usr/bin/env python3
"""Gallery of the standard matrix families and their switching activity.

Builds each family at m = 4, prints the matrix next to the sequence it
generates, and profiles the Hamming distance between consecutive
addresses: gray sits at the minimum (1 per step), limited at the
sustained maximum (m, m-1 alternating), complement stresses the decoder
with full inversions every other step.
"""

from addrseq import (
    analyze,
    complement_matrix,
    generate_recursive,
    graycode_matrix,
    hamming_profile,
    limited_matrix,
    linear_matrix,
    power2_matrix,
    quasirandom_matrix,
)

M = 4

families = [
    ("linear", linear_matrix(M), 0),
    ("pow2 j=2", power2_matrix(M, 2), 0),
    ("complement", complement_matrix(M), 0),
    ("limited", limited_matrix(M), 0),
    ("gray", graycode_matrix(M), 0),
    ("quasi (van der Corput)", quasirandom_matrix(M), 0b1000),
]

for name, matrix, a0 in families:
    seq = list(generate_recursive(matrix, a0=a0).words())
    profile = hamming_profile(seq, M)
    print(f"{name}")
    print(f"  rows:     {' '.join(format(w, '04b') for w in matrix.row_words)}")
    print(f"  sequence: {' '.join(format(w, '04b') for w in seq)}")
    print(f"  decimal:  {' '.join(str(w) for w in seq)}")
    print(f"  distances: {profile.distances}")
    print(f"  per-bit transitions (bit 1..{M}): {profile.per_bit_transitions}")
    report = analyze(seq, M)
    verdict = "complete, hence balanced" if report.ok else "NOT a valid address sequence"
    print(f"  -> {verdict}, mean distance {report.mean_distance:.2f}\n")

print("Switching-activity extremes across the gallery:")
rows = []
for name, matrix, a0 in families:
    seq = list(generate_recursive(matrix, a0=a0).words())
    report = analyze(seq, M, max_r=1)
    rows.append((report.mean_distance, name))
for mean, name in sorted(rows):
    print(f"  {mean:4.2f}  {name}")
