"""The package's public names, pinned so that any change to them is deliberate."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import addrseq

PUBLIC = [
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

# What the benchmark in perfbench/ imports, calls or wraps by name, beyond
# the package-level names above.  The traced run replaces the three methods
# in the class's own __dict__, so they must be defined on the class itself.
BENCHMARK_FUNCTIONS = [
    ("addrseq.cli", "main"),
    ("addrseq.families", "family_matrix"),
    ("addrseq.formats", "detect_format"),
    ("addrseq.formats", "format_lines"),
    ("addrseq.formats", "parse_lines"),
    ("addrseq.generate", "generate_direct"),
    ("addrseq.generate", "generate_down"),
    ("addrseq.generate", "generate_recursive"),
    ("addrseq.generate", "generate_shifted"),
]
BENCHMARK_METHODS = [
    ("addrseq.gf2", "GenerationMatrix", "__init__"),
    ("addrseq.generate", "SequenceSpec", "__post_init__"),
    ("addrseq.generate", "AddressStream", "words"),
]


def test_all_is_the_pinned_list():
    assert PUBLIC == sorted(PUBLIC)
    assert len(set(PUBLIC)) == len(PUBLIC) == 56
    assert addrseq.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(addrseq, name) is not None, name


@pytest.mark.parametrize("module,name", BENCHMARK_FUNCTIONS)
def test_benchmark_functions_exist(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("module,cls,name", BENCHMARK_METHODS)
def test_benchmark_methods_exist(module, cls, name):
    assert callable(vars(getattr(importlib.import_module(module), cls))[name])


# The immutable values take immutability, equality, hashing and copying from one
# base class, so no class can drift from the others by defining its own.
VALUE_CLASSES = [("addrseq.gf2", "BitVector"), ("addrseq.gf2", "GenerationMatrix"),
                 ("addrseq.generate", "SequenceSpec")]


@pytest.mark.parametrize("module,cls", VALUE_CLASSES)
def test_value_classes_inherit_the_value_protocol(module, cls):
    from addrseq.gf2 import _Value

    value_cls = getattr(importlib.import_module(module), cls)
    assert value_cls.__bases__ == (_Value,)
    own = {"__setattr__", "__delattr__", "__eq__", "__hash__", "__reduce__"} & vars(value_cls).keys()
    assert not own


# -- the package imports each name's submodule on first use ------------------------------


def run_child(code):
    """Run `code` in a fresh interpreter that imports this checkout's addrseq."""
    src = str(Path(addrseq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from addrseq import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {name: getattr(addrseq, name) for name in PUBLIC}


def test_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError, match="'addrseq' has no attribute 'no_such_name'"):
        addrseq.no_such_name


def test_a_fresh_import_loads_no_submodule_yet_lists_and_reaches_them():
    run_child(
        "import sys, addrseq\n"
        "assert [m for m in sys.modules if m.startswith('addrseq.')] == []\n"
        "assert set(dir(addrseq)) >= set(addrseq.__all__)\n"
        "assert addrseq.gray is sys.modules['addrseq.gray']\n"
        "assert addrseq.gray_value is addrseq.gray.gray_value\n"
    )


# importing the submodule addrseq.generate binds the package attribute `generate`,
# which must stay the function; a fresh interpreter makes that import the first one
@pytest.mark.parametrize(
    "first",
    [
        "import addrseq.generate",
        "from addrseq.cli import main; main(['gen', '-m', '3', '--family', 'linear'])",
    ],
    ids=["import", "cli-gen"],
)
def test_generate_stays_the_function_after_its_module_loads(first):
    run_child(
        f"{first}\n"
        "import sys, addrseq\n"
        "assert 'addrseq.generate' in sys.modules\n"
        "assert addrseq.generate is sys.modules['addrseq.generate'].generate\n"
    )


# the addrseq modules each command loads, past the package and cli: rank-stats no matrix, family or
# reader, gen no reader, census or analysis, verify no generator, family or census, and permute only
# the reader beside common, whose bit rules it runs; the option table reads each argv, so none loads
# argparse or the gettext it imports
COMMAND_MODULES = {
    "gen -m 17 --family linear --count 1": {"common", "families", "generate", "gf2"},
    "rank-stats -m 32 -n 100 --seed 1": {"common", "census"},
    "verify -m 2": {"common", "formats", "analysis"},
    "matrix -m 12 --family random:1 --check": {"common", "families", "gf2"},
    "permute -m 2 --perm 2,1": {"common", "formats"},
}


@pytest.mark.parametrize("argv", COMMAND_MODULES, ids=lambda argv: argv.split()[0])
def test_each_command_loads_exactly_the_modules_it_runs(argv):
    want = {"addrseq", "addrseq.cli", *(f"addrseq.{name}" for name in COMMAND_MODULES[argv])}
    run_child(
        "import io, sys\n"
        "from addrseq.cli import main\n"
        "sys.stdin = io.StringIO('00\\n01\\n10\\n11\\n')\n"
        f"assert main({argv.split()!r}) == 0\n"
        "loaded = {name for name in sys.modules if name.split('.')[0] == 'addrseq'}\n"
        f"assert sorted(loaded) == {sorted(want)!r}, sorted(loaded)\n"
        "assert not {'argparse', 'gettext'} & set(sys.modules)\n"
    )


def test_generate_stays_the_function_in_this_process(capsys):
    importlib.import_module("addrseq.generate")
    assert importlib.import_module("addrseq.cli").main(["gen", "-m", "3", "--family", "linear"]) == 0
    assert addrseq.generate is importlib.import_module("addrseq.generate").generate


def _v():
    return addrseq.linear_matrix(4)


NOT_INTS = [
    ("count", lambda x: addrseq.SequenceSpec(_v(), count=x), "count must be in 0..2^4, got {}"),
    ("recursive", lambda x: addrseq.generate_recursive(_v(), count=x), "count must be in 0..2^4, got {}"),
    ("shift", lambda x: addrseq.generate_shifted(_v(), x), "shift must be in 0..2^4-1, got {}"),
    ("position", lambda x: addrseq.address_at(_v(), x), "position must be in 0..2^4-1, got {}"),
    ("switching", lambda x: addrseq.switching_sequence(4, 0, x), "count must be in 0..2^4, got {}"),
    ("pow2", lambda x: addrseq.power2_matrix(4, x), "j must be in 0..3, got {}"),
    ("samples", lambda x: addrseq.sampled_rank_counts(4, x), "samples must be >= 1, got {}"),
    ("probability", addrseq.fullrank_probability, "m must be >= 1, got {}"),
    ("permutations", addrseq.permutation_count, "m must be >= 1, got {}"),
    ("max_r", lambda x: addrseq.analyze(range(16), 4, max_r=x), "max_r must be at least 1, got {}"),
    ("word", lambda x: addrseq.BitVector(4, x), "word must be an int, got {}"),
    ("a0", lambda x: addrseq.generate_recursive(_v(), a0=x), "word must be an int, got {}"),
    ("selector", lambda x: addrseq.linear_combination(_v(), x), "word must be an int, got {}"),
    ("matrix seed", lambda x: addrseq.random_fullrank_matrix(8, x), "seed must be an int, got {}"),
    ("census seed", lambda x: addrseq.sampled_rank_counts(8, 50, x), "seed must be an int, got {}"),
    ("gray perm", lambda x: addrseq.graycode_matrix(2, [2, x]), "perm must be a permutation of 1..2, got (2, {})"),
    ("zero position", lambda x: addrseq.limited_matrix(4, [x, 2, 3]),
     "zero positions must be distinct values in 1..4: ({}, 2, 3)"),
    ("positions", lambda x: addrseq.tuple_balance(range(16), [x], 4), "positions must be ints, got [{}]"),
]


@pytest.mark.parametrize("value", [True, 2.0, 2.5])
@pytest.mark.parametrize("call, message", [case[1:] for case in NOT_INTS], ids=[case[0] for case in NOT_INTS])
def test_integer_arguments_that_are_not_ints_are_refused_at_the_call(call, message, value):
    # each once read True as 1, or took 2.0 and failed only on a later read or deeper in
    # the call (a TypeError from a slice or from &, an AttributeError in the census)
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
        call(value)


def _permuted_words(words, m):
    words = list(words)  # the stream's own words: BitVectors for a generated run
    stream = addrseq.AddressStream(m, len(words), iter(words))
    return list(addrseq.permute_address_bits(stream, range(1, m + 1)).words())


# every library entry that takes words, called as entry(words, m)
WORD_ENTRIES = {
    "format_lines": lambda words, m: list(addrseq.format_lines(words, m)),
    "permute_address_bits": _permuted_words,
    "analyze": addrseq.analyze,
    "check_completeness": addrseq.check_completeness,
    "verify_complete": addrseq.verify_complete,
    "bit_balance": addrseq.bit_balance,
    "tuple_balance": lambda words, m: addrseq.tuple_balance(words, [1], m),
    "hamming_profile": addrseq.hamming_profile,
}


@pytest.mark.parametrize("m, words, refusal", [
    (2, lambda: [0, 1, 3, 2], None),
    (2, lambda: addrseq.generate_recursive(addrseq.linear_matrix(2)), None),  # yields BitVectors
    (1, lambda: [False, True], None),
    (2, lambda: [0, 1.0, 3, 2], (TypeError, "'float' object cannot be interpreted as an integer")),
    (2, lambda: [0, "1", 3, 2], (TypeError, "'str' object cannot be interpreted as an integer")),
    (2, lambda: [0, 1, 4, 2], (ValueError, "value out of range for 2 bits")),
    (2, lambda: [0, -1, 3, 2], (ValueError, "value out of range for 2 bits")),
], ids=["ints", "stream", "bools", "floats", "strings", "too wide", "negative"])
def test_every_entry_that_takes_words_takes_and_refuses_the_same_ones(m, words, refusal):
    # format_lines once took no BitVector ('>' not supported between BitVectors) where
    # analyze, which read its words through operator.index, took the same stream
    for name, entry in WORD_ENTRIES.items():
        try:
            entry(words(), m)
            outcome = None
        except (TypeError, ValueError) as exc:
            outcome = type(exc), str(exc)
        assert outcome == refusal, name
