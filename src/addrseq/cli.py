"""Command-line front end.

Subcommands: gen (emit a sequence), matrix (emit a generation matrix),
verify (check a sequence, nonzero exit on failure), analyze (always
exit 0, print the full report), rank-stats (full-rank statistics),
permute (rearrange address bits of a sequence).

Each handler returns its exit code and its output as byte blocks; `_read_bytes`
is the one reader, whose bytes `formats._packed_input` reads, in any format, into
one buffer of packed 64-bit words, the buffer the analysis reads, and `_write` the
one writer, so a reader that closes the pipe early ends every command quietly
with that command's own exit code.  `gen` builds one SequenceSpec and formats
the engine kernel's packed blocks for it.

Exit codes: 0 success, 1 verification failure, 2 usage or input errors.  `run`, the process entry
point, flushes the output, then ends the process with `os._exit`: the interpreter's teardown writes
no byte yet costs a short spawn a few ms.  Argparse's exits and uncaught errors leave as usual.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import suppress
from typing import Iterable, NoReturn, Sequence

from . import __version__

# every command reads common; each handler imports the rest of what it runs, so gen compiles no reader
from .common import FORMATS, _BLOCK, _ascii_int, _byte_blocks, _check_m, _pieces

# verify holds every word in 8 bytes, a presence map (a byte per address for a full
# period, a set of the words for a sparse input) and a byte per distance: at m=20 about
# 51 MB for bin, 31 MB for dec, CRLF or not, 35 MB for hex, 82 MB for padded bin and
# 99 MB for csv, with no object per line, doubling per bit
DEFAULT_VERIFY_CAP = 28

FAMILY_HELP = (
    "linear | pow2:J | complement | limited | gray[:P1,P2,...] | quasi | "
    "random[:SEED | :seed=SEED]"
)


def _int_arg(text: str) -> int:
    # every integer option but --a0/--b0: an optional '-' and ASCII digits
    try:
        return _ascii_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_flag(text: str) -> int:
    # ASCII decimal, or binary/octal/hex after an explicit 0b/0o/0x prefix; int(text, 0)
    # alone would also take signs, spaces, underscores and non-ASCII digits
    if re.fullmatch(r"0+|[1-9][0-9]*|0b[01]+|0o[0-7]+|0x[0-9a-fA-F]+", text):
        return int(text, 0)
    raise argparse.ArgumentTypeError(f"{text!r} is not an integer (use decimal, or a 0b/0x prefix)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addrseq",
        description="Generate and analyze memory-test address sequences.",
    )
    parser.add_argument("--version", action="version", version=f"addrseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit an address sequence on stdout")
    gen.add_argument("-m", type=_int_arg, help="address width in bits (1..64)")
    src = gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", help=f"matrix family: {FAMILY_HELP}")
    src.add_argument("--matrix", help="matrix text file (first line m=<int>)")
    gen.add_argument("--engine", choices=("recursive", "direct"), default="recursive")
    gen.add_argument("--down", action="store_true", help="emit the reversed sequence")
    gen.add_argument("--shift", type=_int_arg, help="emit the sequence rotated by L positions")
    gen.add_argument("--a0", type=_int_flag, help="initial address (e.g. 0b1000 or 8; default 0)")
    gen.add_argument("--b0", type=_int_flag, help="initial counter (e.g. 0b0011 or 3; default 0)")
    gen.add_argument("--count", type=_int_arg, help="addresses to emit (default 2^m)")
    gen.add_argument("--format", choices=FORMATS, default="bin")
    gen.add_argument("--seed", type=_int_arg, help="seed for the random family")

    mat = sub.add_parser("matrix", help="emit a family matrix in the text format")
    mat.add_argument("-m", type=_int_arg, required=True)
    mat.add_argument("--family", required=True, help=f"matrix family: {FAMILY_HELP}")
    mat.add_argument("--check", action="store_true", help="report the rank on stderr")
    mat.add_argument("--seed", type=_int_arg, help="seed for the random family")

    ver = sub.add_parser("verify", help="check a sequence; exit 1 on any property failure")
    ana = sub.add_parser("analyze", help="print the full report; always exit 0")
    for p in (ver, ana):
        p.add_argument("-m", type=_int_arg, required=True)
        p.add_argument("input", nargs="?", help="sequence file (default: stdin)")
        p.add_argument("--format", choices=FORMATS + ("auto",), default="auto")
        p.add_argument("--max-r", type=_int_arg, default=4, help="largest balance tuple size")
    ver.add_argument(
        "--max-m",
        type=_int_arg,
        default=DEFAULT_VERIFY_CAP,
        help=f"refuse widths above this cap (default {DEFAULT_VERIFY_CAP})",
    )

    rs = sub.add_parser("rank-stats", help="full-rank statistics for random matrices")
    rs.add_argument("-m", type=_int_arg, required=True)
    rs.add_argument("-n", "--samples", type=_int_arg, default=100_000)
    rs.add_argument("--seed", type=_int_arg, default=0)
    rs.add_argument("--exhaustive", action="store_true", help="add the exact census of all matrices")

    perm = sub.add_parser("permute", help="rearrange the bits of every address")
    perm.add_argument("-m", type=_int_arg, required=True)
    perm.add_argument("input", nargs="?", help="sequence file (default: stdin)")
    perm.add_argument("--perm", required=True, help="comma list: output bit k reads input bit perm[k]")
    perm.add_argument("--format", choices=FORMATS, default="bin")
    perm.add_argument("--in-format", choices=FORMATS + ("auto",), default="auto")

    return parser


def _read_bytes(path: str | None) -> bytes:
    if path is None:  # a text stand-in has no buffer: its text is encoded back, as a pipe gives it
        if (buffer := getattr(sys.stdin, "buffer", None)) is not None:
            return buffer.read()
        try:  # a surrogate that no byte stands for is passed as is, which makes its line bad
            return (text := sys.stdin.read()).encode("utf-8", "surrogateescape")
        except UnicodeEncodeError:
            return text.encode("utf-8", "surrogatepass")
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
    from .families import _check_perm, _permuted
    from .formats import _packed_input

    try:
        perm = list(map(_ascii_int, args.perm.split(",")))
    except ValueError:
        raise ValueError(f"--perm expects a comma list of positions, got {args.perm!r}") from None
    packed, perm = _packed_input(_read_bytes(args.input), args.m, args.in_format), _check_perm(perm, args.m)
    return 0, _byte_blocks((_permuted(buf, perm) for buf in _pieces(packed, _BLOCK)), args.m, args.format)


_HANDLERS = {
    "gen": _cmd_gen,
    "matrix": _cmd_matrix,
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
    "rank-stats": _cmd_rank_stats,
    "permute": _cmd_permute,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "m", None) is not None:
            _check_m(args.m)
        code, blocks = _HANDLERS[args.command](args)
        _write(blocks)
        return code
    except (ValueError, OSError) as exc:  # RankDeficiencyError and SequenceParseError too
        print(f"addrseq: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Run `main`, flush stdout and stderr, and exit with no module cleanup, final GC or atexit pass."""
    code = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        with suppress(OSError):  # only bytes that failed to write are left, and main has said so
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
