"""Address sequences for memory testing, built from GF(2) generation matrices.

A full-rank m x m binary matrix defines an ordering of all 2^m
addresses: evaluate row combinations directly against a counter, or
replay the gray-code switching sequence one row-XOR at a time.  The
package provides both engines and their reversed/shifted/offset
variants, all evaluated in closed form by one kernel, constructors for
the standard matrix families, random-matrix rank statistics, and an
analysis suite that verifies completeness, from which balance follows,
and counts balance outright on request.
"""

__version__ = "0.1.0"

from .analysis import (
    ActivityReport,
    Completeness,
    HammingProfile,
    IncompleteSequenceError,
    analyze,
    bit_balance,
    check_completeness,
    format_report,
    hamming_profile,
    tuple_balance,
    verify_complete,
)
from .families import (
    FULLRANK_LIMIT,
    RANK_DEFICIT_LIMIT,
    PermutationCount,
    XorShift64Star,
    complement_matrix,
    exhaustive_rank_counts,
    expected_rank_deficit,
    family_matrix,
    fullrank_acceptance_rate,
    fullrank_probability,
    graycode_matrix,
    limited_matrix,
    linear_matrix,
    permutation_count,
    permute_address_bits,
    power2_matrix,
    quasirandom_matrix,
    random_fullrank_matrix,
    sampled_rank_counts,
)
from .formats import FORMATS, SequenceParseError, format_lines, parse_lines
from .generate import (
    AddressStream,
    SequenceSpec,
    address_at,
    generate,
    generate_direct,
    generate_down,
    generate_recursive,
    generate_shifted,
)
from .gf2 import (
    BitVector,
    GenerationMatrix,
    RankDeficiencyError,
    as_bitvector,
    cumulative_basis,
    difference_basis,
    linear_combination,
    rank_of_words,
)
from .gray import (
    SwitchingStep,
    gray_value,
    step_index,
    switching_index,
    switching_sequence,
    wrap_index,
)

__all__ = [
    "ActivityReport",
    "AddressStream",
    "BitVector",
    "Completeness",
    "FORMATS",
    "FULLRANK_LIMIT",
    "GenerationMatrix",
    "HammingProfile",
    "IncompleteSequenceError",
    "PermutationCount",
    "RANK_DEFICIT_LIMIT",
    "RankDeficiencyError",
    "SequenceParseError",
    "SequenceSpec",
    "SwitchingStep",
    "XorShift64Star",
    "address_at",
    "analyze",
    "as_bitvector",
    "bit_balance",
    "check_completeness",
    "complement_matrix",
    "cumulative_basis",
    "difference_basis",
    "exhaustive_rank_counts",
    "expected_rank_deficit",
    "family_matrix",
    "format_lines",
    "format_report",
    "fullrank_acceptance_rate",
    "fullrank_probability",
    "generate",
    "generate_direct",
    "generate_down",
    "generate_recursive",
    "generate_shifted",
    "gray_value",
    "graycode_matrix",
    "hamming_profile",
    "limited_matrix",
    "linear_combination",
    "linear_matrix",
    "parse_lines",
    "permutation_count",
    "permute_address_bits",
    "power2_matrix",
    "quasirandom_matrix",
    "random_fullrank_matrix",
    "rank_of_words",
    "sampled_rank_counts",
    "step_index",
    "switching_index",
    "switching_sequence",
    "tuple_balance",
    "verify_complete",
    "wrap_index",
]
