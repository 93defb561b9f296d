"""Command-line front end.

Subcommands: gen (emit a sequence), matrix (emit a generation matrix),
verify (check a sequence, nonzero exit on failure), analyze (always
exit 0, print the full report), rank-stats (full-rank statistics),
permute (rearrange address bits of a sequence).

Each subcommand is one row of the option table `_COMMANDS`: its handler, its help and its options,
declared once.  `_read_argv` reads a well-formed argv through it with no argparse import: every token
an exact option name followed by a value that does not start with '-' and converts, a flag, or the
one `input` positional of verify, analyze and permute.  Any other argv goes to argparse, built from
the same table and loaded only then: help, the version, an abbreviation, `--opt=value`, a glued
`-m17`, `--`, a value that starts with '-' and every usage error.

Each handler returns its exit code and its output as byte blocks; `_read_bytes`
is the one reader, whose bytes `formats._packed_input` reads, in any format, into
one buffer of packed 64-bit words, the buffer the analysis reads, and `_write` the
one writer, so a reader that closes the pipe early ends every command quietly
with that command's own exit code.  `gen` builds one SequenceSpec and formats
the engine kernel's packed blocks for it.

Exit codes: 0 success, 1 verification failure, 2 usage or input errors.  `run`, the process entry
point, flushes the output, then ends the process with `os._exit`, argparse's exits (help, the
version, a usage error) included: the interpreter's teardown writes no byte yet costs a short spawn
a few ms.  A stdout that cannot take any output, help and the version included, exits 2 with one
`addrseq:` line, and a stderr that cannot take that line leaves the code 2.
"""

from __future__ import annotations

import os
import sys
from contextlib import suppress
from types import SimpleNamespace
from typing import Iterable, NoReturn, Sequence

from . import __version__

# every command reads common; each handler imports the rest of what it runs, so gen compiles no reader
from .common import FORMATS, _BLOCK, _ascii_int, _byte_blocks, _check_m, _check_perm, _permuted, _pieces

# verify holds every word in 8 bytes, a presence map (a byte per address for a full
# period, a set of the words for a sparse input) and a byte per distance: at m=20 about
# 51 MB for bin, 31 MB for dec, CRLF or not, 35 MB for hex, 82 MB for padded bin and
# 99 MB for csv, with no object per line, doubling per bit
DEFAULT_VERIFY_CAP = 28

FAMILY_HELP = (
    "linear | pow2:J | complement | limited | gray[:P1,P2,...] | quasi | "
    "random[:SEED | :seed=SEED]"
)


def _start_int(text: str) -> int:
    # --a0/--b0: ASCII decimal, or binary/octal/hex after an explicit 0b/0o/0x prefix; int(text, 0)
    # alone would also take signs, spaces, underscores and non-ASCII digits
    import re

    if re.fullmatch(r"0+|[1-9][0-9]*|0b[01]+|0o[0-7]+|0x[0-9a-fA-F]+", text):
        return int(text, 0)
    raise ValueError(f"{text!r} is not an integer (use decimal, or a 0b/0x prefix)")


def _dest(flags: tuple[str, ...]) -> str:
    return flags[-1].lstrip("-").replace("-", "_")


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """`argv` read through `_COMMANDS`, or None if it is not one that the table reads.

    The table reads an argv whose every token is an exact option name followed by a value that does
    not start with '-' and converts, a flag, or the command's one positional.  A repeated option keeps
    its last value, as in argparse; every required option must be given, and exactly one of gen's
    --family and --matrix.  The namespace it returns is the one argparse would.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][2]
    rows = {flag: row for row in options for flag in row[0]}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        is_option = token.startswith("-")
        row = rows.get(token if is_option else "input")
        if row is None or not is_option and "input" in values:
            return None
        dest, convert = _dest(row[0]), row[1]
        if convert is None:
            values[dest] = True
            continue
        value = next(tokens, "-") if is_option else token
        if value.startswith("-"):
            return None
        if isinstance(convert, tuple):
            if value not in convert:
                return None
        else:
            try:
                value = convert(value)
            except ValueError:
                return None
        values[dest] = value
    sources = {_dest(row[0]) for row in options if row[3] is _ONE_OF}
    if sources and len(sources & values.keys()) != 1:
        return None
    for flags, _, default, required, _ in options:
        if required is True and _dest(flags) not in values:
            return None
        values.setdefault(_dest(flags), default)
    return SimpleNamespace(command=argv[0], **values)


def _build_parser():
    """The argparse parser of `_COMMANDS`: it prints help, the version and every usage error."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            # argparse passes over a write that fails; help and the version raise it, flushed before
            # argparse exits, so that a full disk on stdout exits 2 as every command's output does
            if file is sys.stdout and message:
                file.write(message)
                file.flush()
            else:
                super()._print_message(message, file)

    def typed(convert):
        # a converter's ValueError is the whole message, as in `main`
        def read(text):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return read

    parser = Parser(prog="addrseq", description="Generate and analyze memory-test address sequences.")
    parser.add_argument("--version", action="version", version=f"addrseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, options) in _COMMANDS.items():
        cmd, group = sub.add_parser(command, help=summary), None
        for flags, convert, default, required, text in options:
            if not flags[0].startswith("-"):
                cmd.add_argument(*flags, nargs="?", help=text)
                continue
            if convert is None:
                kind = {"action": "store_true"}
            elif isinstance(convert, tuple):
                kind = {"choices": convert}
            else:
                kind = {"type": None if convert is str else typed(convert)}
            if required is _ONE_OF:
                group = group or cmd.add_mutually_exclusive_group(required=True)
            (group if required is _ONE_OF else cmd).add_argument(
                *flags, default=default, required=required is True, help=text, **kind
            )
    return parser


def _read_bytes(path: str | None) -> bytes:
    if path is None:  # a text stand-in has no buffer: its text is encoded as `parse_lines` encodes lines
        buffer = getattr(sys.stdin, "buffer", None)
        return sys.stdin.read().encode("utf-8", "surrogatepass") if buffer is None else buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write(blocks: Iterable[bytes]) -> None:
    # one write per block, so a pipe's reader wakes once per block; a text
    # stand-in for stdout has no buffer, so it gets each block decoded
    out = getattr(sys.stdout, "buffer", None)
    try:
        for block in blocks:
            if out is None:
                sys.stdout.write(block.decode())
            else:
                out.write(block)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`gen | head`), which is not an error; point
        # stdout at devnull so every later flush of it stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_gen(args) -> tuple[int, Iterable[bytes]]:
    from .families import family_matrix
    from .generate import SequenceSpec, _affine, _affine_blocks, _check_shift
    from .gf2 import GenerationMatrix

    if args.matrix is not None:
        if args.seed is not None:
            raise ValueError("--seed is for --family random; a --matrix file takes no seed")
        matrix = GenerationMatrix.from_text(_read_bytes(args.matrix).decode("utf-8", "surrogateescape"))
        if args.m is not None and args.m != matrix.m:
            raise ValueError(f"-m {args.m} conflicts with matrix width {matrix.m}")
    else:
        if args.m is None:
            raise ValueError("-m is required with --family")
        matrix = family_matrix(args.family, args.m, seed=args.seed)

    # an option given at its default value conflicts all the same
    start_given = args.a0 is not None or args.b0 is not None
    if args.shift is not None and (start_given or args.down):
        raise ValueError("--shift computes a0/b0 itself; do not combine with --a0/--b0/--down")
    if args.engine == "direct" and (start_given or args.down or args.shift is not None):
        raise ValueError("--engine direct runs the plain counter form; use recursive for variants")
    if args.shift is not None:
        _check_shift(args.shift, matrix.m)

    spec = SequenceSpec(matrix, args.a0 or 0, args.b0 or 0, "down" if args.down else "up", args.count)
    blocks = _affine_blocks(*_affine(spec, args.shift, args.engine == "direct"), packed=True)
    return 0, _byte_blocks(blocks, matrix.m, args.format)


def _cmd_matrix(args) -> tuple[int, Iterable[bytes]]:
    from .families import family_matrix

    matrix = family_matrix(args.family, args.m, seed=args.seed)
    if args.check:
        print(f"rank={matrix.rank}", file=sys.stderr)
    return 0, [matrix.to_text().encode()]


def _cmd_verify(args) -> tuple[int, Iterable[bytes]]:
    if args.m > args.max_m:
        raise ValueError(
            f"verify holds all 2^{args.m} words, a presence map and a byte per distance "
            f"in memory; raise --max-m beyond {args.max_m} to allow it"
        )
    return _cmd_analyze(args)


def _cmd_analyze(args) -> tuple[int, Iterable[bytes]]:
    from .analysis import _analyze, format_report
    from .formats import _packed_input

    report = _analyze(_packed_input(_read_bytes(args.input), args.m, args.format), args.m, args.max_r)
    return int(args.command == "verify" and not report.ok), [format_report(report).encode()]


def _cmd_rank_stats(args) -> tuple[int, Iterable[bytes]]:
    from .census import _rank_summary, exhaustive_rank_counts, fullrank_probability, sampled_rank_counts

    m = args.m
    lines = [f"m={m}", f"analytic_fullrank_probability={fullrank_probability(m):.13f}"]
    if args.exhaustive:
        total, full, fraction, deficit = _rank_summary(exhaustive_rank_counts(m), m)
        lines += [
            f"exhaustive_total={total}",
            f"exhaustive_fullrank={full}",
            f"exhaustive_fullrank_fraction={fraction}",
            f"exhaustive_expected_rank_deficit={deficit}",
        ]
    _, _, rate, deficit = _rank_summary(sampled_rank_counts(m, args.samples, args.seed), m)
    lines += [
        f"samples={args.samples}",
        f"seed={args.seed}",
        f"mc_fullrank_rate={rate}",
        f"mc_expected_rank_deficit={deficit}",
    ]
    return 0, ["".join(line + "\n" for line in lines).encode()]


def _cmd_permute(args) -> tuple[int, Iterable[bytes]]:
    from .formats import _packed_input

    try:
        perm = list(map(_ascii_int, args.perm.split(",")))
    except ValueError:
        raise ValueError(f"--perm expects a comma list of positions, got {args.perm!r}") from None
    packed, perm = _packed_input(_read_bytes(args.input), args.m, args.in_format), _check_perm(perm, args.m)
    return 0, _byte_blocks((_permuted(buf, perm) for buf in _pieces(packed, _BLOCK)), args.m, args.format)


_ONE_OF = "one of"  # exactly one of the command's options marked so is given: gen's --family or --matrix
_FAMILY = f"matrix family: {FAMILY_HELP}"
_M = (("-m",), _ascii_int, None, True, None)
_INPUT = (("input",), str, None, False, "sequence file (default: stdin)")
_SEED = (("--seed",), _ascii_int, None, False, "seed for the random family")
_REPORT = (
    _M,
    _INPUT,
    (("--format",), FORMATS + ("auto",), "auto", False, None),
    (("--max-r",), _ascii_int, 4, False, "largest balance tuple size"),
)

# The option table, the CLI's one grammar: each subcommand's handler, its help and its options in help
# order.  An option is its strings, its converter (a function that raises ValueError, a tuple of
# choices, or None for a flag), its default, whether it is required (True, or _ONE_OF) and its help; a
# name with no '-' is a positional that may be left out.  Its dest is argparse's: the last string, with
# the leading dashes stripped and the inner ones made '_'.
_COMMANDS = {
    "gen": (_cmd_gen, "emit an address sequence on stdout", (
        (("-m",), _ascii_int, None, False, "address width in bits (1..64)"),
        (("--family",), str, None, _ONE_OF, _FAMILY),
        (("--matrix",), str, None, _ONE_OF, "matrix text file (first line m=<int>)"),
        (("--engine",), ("recursive", "direct"), "recursive", False, None),
        (("--down",), None, False, False, "emit the reversed sequence"),
        (("--shift",), _ascii_int, None, False, "emit the sequence rotated by L positions"),
        (("--a0",), _start_int, None, False, "initial address (e.g. 0b1000 or 8; default 0)"),
        (("--b0",), _start_int, None, False, "initial counter (e.g. 0b0011 or 3; default 0)"),
        (("--count",), _ascii_int, None, False, "addresses to emit (default 2^m)"),
        (("--format",), FORMATS, "bin", False, None),
        _SEED,
    )),
    "matrix": (_cmd_matrix, "emit a family matrix in the text format", (
        _M,
        (("--family",), str, None, True, _FAMILY),
        (("--check",), None, False, False, "report the rank on stderr"),
        _SEED,
    )),
    "verify": (_cmd_verify, "check a sequence; exit 1 on any property failure", (
        *_REPORT,
        (("--max-m",), _ascii_int, DEFAULT_VERIFY_CAP, False,
         f"refuse widths above this cap (default {DEFAULT_VERIFY_CAP})"),
    )),
    "analyze": (_cmd_analyze, "print the full report; always exit 0", _REPORT),
    "rank-stats": (_cmd_rank_stats, "full-rank statistics for random matrices", (
        _M,
        (("-n", "--samples"), _ascii_int, 100_000, False, None),
        (("--seed",), _ascii_int, 0, False, None),
        (("--exhaustive",), None, False, False, "add the exact census of all matrices"),
    )),
    "permute": (_cmd_permute, "rearrange the bits of every address", (
        _M,
        _INPUT,
        (("--perm",), str, None, True, "comma list: output bit k reads input bit perm[k]"),
        (("--format",), FORMATS, "bin", False, None),
        (("--in-format",), FORMATS + ("auto",), "auto", False, None),
    )),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_argv(argv) or _build_parser().parse_args(argv)
        if args.m is not None:
            _check_m(args.m)
        code, blocks = _COMMANDS[args.command][0](args)
        _write(blocks)
        return code
    except (ValueError, OSError) as exc:  # RankDeficiencyError and SequenceParseError too
        with suppress(OSError):  # a stderr that cannot take the line leaves the code as it is
            print(f"addrseq: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Run `main`, flush stdout and stderr, and exit with no module cleanup, final GC or atexit pass.

    Argparse's exits (help, the version, a usage error) end here too, with argparse's code.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    for stream in filter(None, (sys.stdout, sys.stderr)):
        with suppress(OSError):  # only bytes that failed to write are left, and main has said so
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
