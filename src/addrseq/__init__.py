"""Address sequences for memory testing, built from GF(2) generation matrices.

A full-rank m x m binary matrix defines an ordering of all 2^m
addresses: evaluate row combinations directly against a counter, or
replay the gray-code switching sequence one row-XOR at a time.  The
package provides both engines and their reversed/shifted/offset
variants, all evaluated in closed form by one kernel, constructors for
the standard matrix families, random-matrix rank statistics, and an
analysis suite that verifies completeness, from which balance follows,
and counts balance outright on request.

Each public name is imported from its submodule on first use, so a
program (the CLI among them) loads only the modules it runs.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "ActivityReport",
        "Completeness",
        "HammingProfile",
        "IncompleteSequenceError",
        "analyze",
        "bit_balance",
        "check_completeness",
        "format_report",
        "hamming_profile",
        "tuple_balance",
        "verify_complete",
    ),
    "census": (
        "FULLRANK_LIMIT", "RANK_DEFICIT_LIMIT", "exhaustive_rank_counts", "expected_rank_deficit",
        "fullrank_acceptance_rate", "fullrank_probability", "sampled_rank_counts",
    ),
    "common": ("FORMATS",),
    "families": (
        "PermutationCount",
        "XorShift64Star",
        "complement_matrix",
        "family_matrix",
        "graycode_matrix",
        "limited_matrix",
        "linear_matrix",
        "permutation_count",
        "permute_address_bits",
        "power2_matrix",
        "quasirandom_matrix",
        "random_fullrank_matrix",
    ),
    "formats": ("SequenceParseError", "format_lines", "parse_lines"),
    "generate": (
        "AddressStream",
        "SequenceSpec",
        "address_at",
        "generate",
        "generate_direct",
        "generate_down",
        "generate_recursive",
        "generate_shifted",
    ),
    "gf2": (
        "BitVector",
        "GenerationMatrix",
        "RankDeficiencyError",
        "as_bitvector",
        "cumulative_basis",
        "difference_basis",
        "linear_combination",
        "rank_of_words",
    ),
    "gray": (
        "SwitchingStep",
        "gray_value",
        "step_index",
        "switching_index",
        "switching_sequence",
        "wrap_index",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is not None:
        value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
        return value
    if name in _EXPORTS:  # `addrseq.gf2` and the like; the import binds it
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _ORIGIN.keys())


_Module = type(sys)


class _Package(_Module):
    def __setattr__(self, name, value):
        # importing a submodule binds it as a package attribute; `generate`
        # names the function, so its module of the same name is not bound
        if not (name == "generate" and isinstance(value, _Module)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
