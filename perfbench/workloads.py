"""Workloads of the addrseq benchmark: sizes, seed-derived parameters, ops
and their checks, shared by the timed run (run.py) and the traced run
(trace_layers.py).

An op is one CLI command (CliOp), run as real processes through
spawner.py, or one batch of short library runs (WindowsOp), run in this
process.  Each op carries its check against reference.py.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OP_TIMEOUT_S = 60
# output text the checks read: reports are under 1 KiB; a gen op is checked on its
# digest alone, so the spawner stays small (see spawner.py)
KEEP_BYTES = 1 << 12


@dataclass(frozen=True)
class Sizes:
    emit_m: int  # gen ops
    pipe_m: int  # gen | verify --max-r 1
    deep_m: int  # verify with the default --max-r
    deep_r: int
    bad_m: int  # verify on a file with one planted duplicate
    rank_m: int
    rank_n: int
    window_ms: tuple[int, ...]
    window_len: int
    windows_per_kind: int  # per kind and width; kinds: recursive, down, shifted
    setup_reps: int  # measured set-up spawns, after one warm-up spawn


FULL = Sizes(17, 16, 11, 4, 16, 32, 10_000, (32, 64), 256, 512, 9)
SMOKE = Sizes(6, 6, 5, 4, 6, 8, 200, (8, 16), 16, 4, 2)


@dataclass(frozen=True)
class Workload:
    why: str
    setup_m: Callable[[Sizes], int]
    units_name: str  # the throughput metric as this workload names it
    units_unit: str


WORKLOADS = {
    "emit": Workload(
        "CLI gen streams full periods in four engine and format variants: time goes to "
        "generate, formats and per-line writes, while analysis and parsing are bypassed",
        lambda s: s.emit_m, "addrs_per_s", "addr/s",
    ),
    "verify": Workload(
        "CLI verify on a real pipe, a deep r=4 balance run and a planted duplicate: "
        "parsing, detection and analysis dominate in three different ways",
        lambda s: s.pipe_m, "addrs_per_s", "addr/s",
    ),
    "rank": Workload(
        "CLI rank-stats samples random 32-bit matrices: only families and gf2 work, "
        "while generation, formatting and analysis are bypassed",
        lambda s: s.rank_m, "samples_per_s", "1/s",
    ),
    "windows": Workload(
        "thousands of short seeded runs through the library API at m=32 and m=64: "
        "per-call set-up in generate and gf2 dominates, on wide words",
        lambda s: s.window_ms[-1], "addrs_per_s", "addr/s",
    ),
}

# -- derived parameters -------------------------------------------------------------


def derive(seed: int, sz: Sizes) -> dict:
    """Every workload parameter, as a function of the seed alone."""
    rng = random.Random(f"addrseq-perfbench:{seed}")
    e, d, b = 1 << sz.emit_m, 1 << sz.deep_m, 1 << sz.bad_m
    bad_line = rng.randrange(b)
    bad_source = (bad_line + rng.randrange(1, b)) % b
    windows = []
    for m in sz.window_ms:
        full = 1 << m
        for _ in range(sz.windows_per_kind):
            windows.append(("generate_recursive", m, (rng.randrange(full), rng.randrange(full))))
            windows.append(("generate_down", m, (rng.randrange(full), rng.randrange(full))))
            windows.append(("generate_shifted", m, (rng.randrange(full),)))
    return {
        "matrix": f"random:{seed}",
        "seed": seed,
        "emit_a0": rng.randrange(e),
        "emit_b0": rng.randrange(e),
        "emit_shift": rng.randrange(1, e),
        "deep_a0": rng.randrange(d),
        "deep_b0": rng.randrange(d),
        "bad_a0": rng.randrange(b),
        "bad_b0": rng.randrange(b),
        "bad_line": bad_line,
        "bad_source": bad_source,
        "rank_seed": rng.randrange(1 << 32),
        "windows": windows,
    }


def describe_params(name: str, p: dict, sz: Sizes) -> str:
    keys = {
        "emit": ("matrix", "emit_a0", "emit_b0", "emit_shift"),
        "verify": ("matrix", "deep_a0", "deep_b0", "bad_a0", "bad_b0", "bad_line", "bad_source"),
        "rank": ("rank_seed",),
        "windows": ("matrix",),
    }[name]
    text = " ".join(f"{k}={p[k]}" for k in keys)
    if name == "windows":
        w = p["windows"]
        text += f" windows={len(w)} len={sz.window_len} first={w[0][0]}{w[0][2]}@m{w[0][1]}"
        text += f" specs_hash={hashlib.sha256(repr(w).encode()).hexdigest()[:16]}"
    return text


# -- ops -----------------------------------------------------------------------------


@dataclass
class CliOp:
    """One addrseq CLI command, its expected exit code, and its output check."""

    name: str
    argv: list[str]
    check: Callable[[dict], list[str]]  # reads a summarize()-shaped output
    units: int
    code: int = 0
    feed: list[str] | None = None  # a gen command piped into argv (real OS pipe)


@dataclass
class WindowsOp:
    """Short runs through the library API; each run is one attempted op."""

    calls: list  # (function name in addrseq.generate, matrix, positional args)
    expected: list[int]  # hash of each run's word tuple
    units: int
    name: str = "windows"

    def width(self, m: int) -> "WindowsOp":
        """The runs of one word width only."""
        keep = [i for i, call in enumerate(self.calls) if call[1].m == m]
        n = self.units // len(self.calls)
        return WindowsOp([self.calls[i] for i in keep], [self.expected[i] for i in keep],
                         len(keep) * n, f"windows_m{m}")


def _gen_check(words, m, fmt):
    want = ref.digest(ref.render(words, m, fmt))

    def check(out: dict) -> list[str]:
        got = out["digest"]
        return [] if got == want else [f"[lines, bytes, crc32] {got} != reference {want}"]

    return check


def _report_check(expected: dict):
    return lambda out: ref.report_mismatches(out["text"], expected)


def _emit_ops(p, sz):
    m, fam = sz.emit_m, p["matrix"]
    rows = ref.random_rows(m, p["seed"])
    a0, b0, shift = p["emit_a0"], p["emit_b0"], p["emit_shift"]
    base = ["gen", "-m", str(m), "--family", fam]
    return [
        CliOp("gen_bin", base, _gen_check(ref.full_up(rows, m), m, "bin"), 1 << m),
        CliOp(
            "gen_down_hex",
            base + ["--down", "--a0", str(a0), "--b0", str(b0), "--format", "hex"],
            _gen_check(ref.full_down(rows, m, a0, b0), m, "hex"),
            1 << m,
        ),
        CliOp(
            "gen_shift_dec",
            base + ["--shift", str(shift), "--format", "dec"],
            _gen_check(ref.full_shifted(rows, m, shift), m, "dec"),
            1 << m,
        ),
        CliOp(
            "gen_direct_csv",
            base + ["--engine", "direct", "--format", "csv"],
            _gen_check(ref.full_direct(rows, m), m, "csv"),
            1 << m,
        ),
    ]


def _verify_ops(p, sz):
    seed = p["seed"]
    pm, dm, bm = sz.pipe_m, sz.deep_m, sz.bad_m

    pipe_want = ref.expected_report(ref.full_up(ref.random_rows(pm, seed), pm), pm)
    pipe_want.update(balance_checked="true", balance_r_max="1")

    deep_words = ref.full_down(ref.random_rows(dm, seed), dm, p["deep_a0"], p["deep_b0"])
    deep_file = WORK / "deep.bin"
    deep_file.write_bytes(ref.render(deep_words, dm, "bin"))
    deep_want = ref.expected_report(deep_words, dm)
    deep_want.update(balance_checked="true", balance_r_max=str(min(dm, sz.deep_r)))

    bad_words = ref.full_up(ref.random_rows(bm, seed), bm, p["bad_a0"], p["bad_b0"])
    missing = bad_words[p["bad_line"]]
    bad_words[p["bad_line"]] = dup = bad_words[p["bad_source"]]
    bad_file = WORK / "bad.dec"
    bad_file.write_bytes(ref.render(bad_words, bm, "dec"))
    bad_want = ref.expected_report(bad_words, bm)
    bad_want.update(
        first_duplicate=format(dup, f"0{bm}b"),
        first_missing=format(missing, f"0{bm}b"),
        balance_checked="false",
        balance_r_max="0",
    )

    fam = p["matrix"]
    return [
        CliOp(
            "pipe_verify",
            ["verify", "-m", str(pm), "--max-r", "1"],
            _report_check(pipe_want),
            1 << pm,
            feed=["gen", "-m", str(pm), "--family", fam],
        ),
        CliOp("deep_verify", ["verify", "-m", str(dm), str(deep_file)], _report_check(deep_want), 1 << dm),
        CliOp(
            "bad_verify",
            ["verify", "-m", str(bm), "--max-r", "1", str(bad_file)],
            _report_check(bad_want),
            1 << bm,
            code=1,
        ),
    ]


def _rank_ops(p, sz):
    m, n, seed = sz.rank_m, sz.rank_n, p["rank_seed"]
    first: list[str] = []

    def check(out: dict) -> list[str]:
        if not first:
            first.append(out["text"])
        bad = [] if out["text"] == first[0] else ["output differs from this seed's first run"]
        return bad + ref.rank_mismatches(out["text"], m, n, seed)

    argv = ["rank-stats", "-m", str(m), "-n", str(n), "--seed", str(seed)]
    return [CliOp("rank_stats", argv, check, n)]


def _windows_ops(p, sz):
    rows = {m: ref.random_rows(m, p["seed"]) for m in sz.window_ms}
    n = sz.window_len
    expected = []
    for fn, m, args in p["windows"]:
        full, r = 1 << m, rows[m]
        if fn == "generate_recursive":
            words = ref.up_window(r, m, args[0], args[1], 0, n)
        elif fn == "generate_down":
            words = ref.up_window(r, m, args[0], args[1], full - n, n)[::-1]
        else:
            words = ref.up_window(r, m, 0, 0, args[0], n)
        expected.append(hash(tuple(words)))

    from addrseq.families import family_matrix

    matrices = {m: family_matrix(p["matrix"], m) for m in sz.window_ms}
    calls = [(fn, matrices[m], (*args, n)) for fn, m, args in p["windows"]]
    return [WindowsOp(calls, expected, len(calls) * n)]


BUILDERS = {"emit": _emit_ops, "verify": _verify_ops, "rank": _rank_ops, "windows": _windows_ops}


def setup_op(p, m) -> CliOp:
    """Fresh process to first output at the workload's width."""
    argv = ["gen", "-m", str(m), "--family", p["matrix"], "--count", "1"]
    return CliOp("setup", argv, _gen_check([0], m, "bin"), 1)


# -- running ops ---------------------------------------------------------------------------


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "addrseq.cli", *argv]


def summarize(data: bytes) -> dict:
    """The parts of an op's output the checks read, as the spawner reports them."""
    return {"digest": ref.digest(data), "text": data[:KEEP_BYTES].decode("latin-1")}


@dataclass
class Result:
    wall_s: float
    rss_mb: float
    out: object
    errors: list[str]
    first_s: float = 0.0  # spawn to first output byte


class Spawner:
    """Client of spawner.py: runs CLI ops as processes and reports time and peak RSS."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def run(self, op: CliOp) -> Result:
        """Time from spawn until every process of the op ended, then check the output."""
        cmds = ([cli_command(op.feed)] if op.feed else []) + [cli_command(op.argv)]
        stderr = WORK / f"{op.name}.stderr"
        req = {"cmds": cmds, "stderr": str(stderr), "timeout": OP_TIMEOUT_S, "keep": KEEP_BYTES}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        errors = []
        if reply["timed_out"]:
            errors.append(f"killed after {OP_TIMEOUT_S} s")
        want = ([0] if op.feed else []) + [op.code]
        if reply["codes"] != want:
            tail = stderr.read_text(errors="replace").strip()[-200:]
            errors.append(f"exit codes {reply['codes']}, want {want}: {tail}")
        errors += op.check(reply)
        return Result(reply["wall"], reply["rss_mb"], reply, errors, reply["first"])

def run_windows(op: WindowsOp, generate_module) -> Result:
    """Library runs in this process, timed in chunks so outputs stay small."""
    wall, hashes = 0.0, []
    calls = op.calls
    for i in range(0, len(calls), 256):
        chunk = calls[i : i + 256]
        fns = [getattr(generate_module, fn) for fn, _, _ in chunk]
        t0 = time.perf_counter()
        outs = [list(f(mat, *args).words()) for f, (_, mat, args) in zip(fns, chunk)]
        wall += time.perf_counter() - t0
        hashes.extend(hash(tuple(w)) for w in outs)
    errors = [
        f"window {i} {calls[i][0]}{calls[i][2]} differs from the reference"
        for i, (h, want) in enumerate(zip(hashes, op.expected))
        if h != want
    ]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return Result(wall, rss, hashes, errors)


