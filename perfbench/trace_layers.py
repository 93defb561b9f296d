"""Traced run of the addrseq benchmark: the per-layer table.

Spans come from the benchmark's own code.  While a traced op runs, the
public functions of every addrseq module, plus three methods on the hot
paths, are replaced by wrappers that record a span per call, or per
`next()` for generators; nothing under src/ changes.  The spans of one op
are aggregated by name (calls, total time, self time = total minus the
time its child spans cover) together with parent -> child call counts.

Lazy streams make generate, formats and cli spans interleave item by item,
and per-item spans cost time, so engine, format and parse numbers are
measured alone on the same inputs with tracing off ("isolated").  Every
traced op also runs untraced in the same process, and the difference is
printed as that op's tracing overhead.

One traced run covers the ops of every workload, so its output has every
per-layer metric whatever --workload names.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import reference as ref
from workloads import (
    BUILDERS, WORK, WORKLOADS, CliOp, Result, Sizes, Spawner, WindowsOp, derive, run_windows,
    setup_op, summarize,
)

LAYERS = ("cli", "generate", "formats", "analysis", "families", "gf2", "gray")
# runs once per matrix row or address; a span per call would cost more than the call,
# so its time stays in the caller's self time
UNTRACED = {"gf2.as_bitvector"}
# methods on the hot paths, traced like public functions: (module, class, method)
METHODS = (
    ("gf2", "GenerationMatrix", "__init__"),
    ("generate", "SequenceSpec", "__post_init__"),
    ("generate", "AddressStream", "words"),
)
# CLI op -> the end-to-end metric it feeds [workload]
CLI_OPS = {
    **{op: f"{op}_s [emit]" for op in ("gen_bin", "gen_down_hex", "gen_shift_dec", "gen_direct_csv")},
    **{op: f"{op}_s [verify]" for op in ("pipe_verify", "deep_verify", "bad_verify")},
    "rank_stats": "samples_per_s [rank]",
    "setup": "setup_s [all]",
}
GEN_FORMATS = {"gen_bin": "bin", "gen_down_hex": "hex", "gen_shift_dec": "dec", "gen_direct_csv": "csv"}

# (section in the ROADMAP's row order, metric, unit, better, end-to-end metric it moves, how measured)
PER_LAYER = [
    ("engine", "generate.recursive_s", "s", "lower", "gen_bin_s [emit], pipe_verify_s [verify]",
     "isolated: drain words() of the gen_bin run into a list"),
    ("engine", "generate.down_s", "s", "lower", "gen_down_hex_s [emit]", "isolated: drain words()"),
    ("engine", "generate.shifted_s", "s", "lower", "gen_shift_dec_s [emit]", "isolated: drain words()"),
    ("engine", "generate.direct_s", "s", "lower", "gen_direct_csv_s [emit]", "isolated: drain words()"),
    ("engine", "generate.window_setup_us", "us", "lower", "addrs_per_s [windows]",
     "isolated: call until the first word, mean over the windows"),
    ("engine", "generate.window_words_per_s", "1/s", "higher", "addrs_per_s [windows]",
     "isolated: words after the first, over the windows"),
    ("engine", "gf2.difference_basis_us", "us", "lower", "addrs_per_s [windows], setup_s",
     "traced: mean per call, m=64 windows"),
    ("engine", "gf2.matrix_init_us", "us", "lower", "addrs_per_s [windows], setup_s",
     "traced: GenerationMatrix() mean per call, m=64 windows"),
    *[("format", f"formats.format_s.{fmt}", "s", "lower", f"{op}_s [emit]",
       "isolated: format_lines over a pre-built word list") for op, fmt in GEN_FORMATS.items()],
    ("parse", "formats.parse_s.bin", "s", "lower", "pipe_verify_s [verify]",
     "isolated: parse_lines, explicit format, pipe_verify input"),
    ("parse", "formats.parse_s.dec", "s", "lower", "bad_verify_s [verify]",
     "isolated: parse_lines, explicit format, bad_verify input"),
    ("parse", "formats.detect_s", "s", "lower", "pipe_verify_s, bad_verify_s [verify]",
     "isolated: detect_format on the stripped pipe_verify lines (auto minus explicit)"),
    ("completeness", "analysis.check_completeness_s", "s", "lower", "pipe_verify_s, bad_verify_s [verify]",
     "traced: every call in the pipe_verify op"),
    ("completeness", "analysis.completeness_checks_per_analyze.stream", "count", "lower",
     "pipe_verify_s, peak_rss_mb [verify]", "traced: check_completeness calls per analyze"),
    ("completeness", "analysis.completeness_checks_per_analyze.deep", "count", "lower",
     "deep_verify_s [verify]", "traced: check_completeness calls per analyze"),
    ("hamming", "analysis.hamming_profile_s", "s", "lower", "pipe_verify_s, bad_verify_s [verify]",
     "traced: pipe_verify op"),
    ("balance", "analysis.tuple_balance_s.stream", "s", "lower", "pipe_verify_s [verify]",
     "traced: self time of every call, pipe_verify op (--max-r 1)"),
    ("balance", "analysis.tuple_balance_s.deep", "s", "lower", "deep_verify_s [verify]",
     "traced: self time of every call, deep_verify op (default --max-r)"),
    ("balance", "analysis.tuple_balance_calls.stream", "count", "lower", "pipe_verify_s [verify]",
     "traced: calls"),
    ("balance", "analysis.tuple_balance_calls.deep", "count", "lower", "deep_verify_s [verify]",
     "traced: calls"),
    ("balance", "analysis.analyze_s.stream", "s", "lower", "pipe_verify_s [verify]", "traced"),
    ("balance", "analysis.analyze_s.deep", "s", "lower", "deep_verify_s [verify]", "traced"),
    ("balance", "analysis.analyze_s.bad", "s", "lower", "bad_verify_s [verify]", "traced"),
    ("rank sampling", "families.fullrank_acceptance_rate_s", "s", "lower", "samples_per_s [rank]",
     "traced"),
    ("rank sampling", "families.expected_rank_deficit_s", "s", "lower", "samples_per_s [rank]",
     "traced"),
    ("rank sampling", "families.draws_per_sample", "ratio", "lower", "samples_per_s [rank]",
     "traced: rank_of_words calls / -n"),
    ("rank sampling", "gf2.rank_of_words_us", "us", "lower", "samples_per_s [rank]",
     "traced: mean per call in rank-stats"),
    ("rank sampling", "families.random_fullrank_matrix_us", "us", "lower", "setup_s [all]",
     "traced: mean per call over the set-up ops"),
    ("rank sampling", "families.attempts_per_matrix", "ratio", "lower", "setup_s [all]",
     "traced: rank_of_words calls made directly by random_fullrank_matrix, per matrix"),
    *[("cli pipelines", f"cli.main_s.{op}", "s", "lower", moves,
       "untraced: in-process cli.main, in-memory stdio") for op, moves in CLI_OPS.items()],
    *[("cli pipelines", f"cli.self_s.{op}", "s", "lower", moves,
       "traced: main minus child spans (per-line print, stdin read)") for op, moves in CLI_OPS.items()],
    ("cli pipelines", "cli.process_overhead_s", "s", "lower", "setup_s [all]",
     "set-up op: spawned wall minus in-process main, mean over the widths"),
    ("cli pipelines", "cli.bytes_out", "count", "lower", "gen_*_s [emit]", "bytes the four gen ops print"),
]


class Tracer:
    """Spans kept on a stack while open, aggregated by name when they close."""

    def __init__(self):
        self.stack: list[list] = []
        self.reset()

    def reset(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: Counter = Counter()  # (parent, child) -> calls

    def push(self, name: str) -> list:
        frame = [name, 0.0, perf_counter()]  # name, child time, start
        self.stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        dur = perf_counter() - frame[2]
        self.stack.pop()
        st = self.stats.get(frame[0])
        if st is None:
            st = self.stats[frame[0]] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dur
            self.edges[parent[0], frame[0]] += 1

    def iterate(self, name: str, it):
        while True:
            frame = self.push(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.pop(frame)
            yield item

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_iter(*args, **kwargs):
                return self.iterate(name, fn(*args, **kwargs))

            return traced_iter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop(frame)

        return traced

    def get(self, name: str) -> list:
        return self.stats.get(name, [0, 0.0, 0.0])


@contextmanager
def installed(tracer: Tracer):
    """Replace public functions (wherever a module imported them) and METHODS by span wrappers."""
    mods = {layer: importlib.import_module(f"addrseq.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and f"{layer}.{attr}" not in UNTRACED):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    undo = []
    for ns in (importlib.import_module("addrseq"), *mods.values()):
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                undo.append((ns, attr, obj))
                setattr(ns, attr, wrappers[obj])
    for layer, cls_name, attr in METHODS:
        cls = getattr(mods[layer], cls_name)
        orig = cls.__dict__[attr]
        undo.append((cls, attr, orig))
        setattr(cls, attr, tracer.wrap(f"{layer}.{cls_name}.{attr}", orig))
    try:
        yield
    finally:
        for ns, attr, obj in reversed(undo):
            setattr(ns, attr, obj)


def run_inprocess(cli, op: CliOp) -> Result:
    """cli.main with in-memory stdio; a piped op feeds the first command's output to the second."""
    saved = sys.stdin, sys.stdout
    codes, text = [], ""
    t0 = perf_counter()
    try:
        for argv in ([op.feed] if op.feed else []) + [op.argv]:
            sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
            codes.append(cli.main(argv))
            text = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved
    wall = perf_counter() - t0
    out = summarize(text.encode())
    want = ([0] if op.feed else []) + [op.code]
    errors = [f"exit codes {codes}, want {want}"] if codes != want else []
    return Result(wall, 0.0, out, errors + op.check(out))


def _median_time(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _isolated(p: dict, sz: Sizes, ops: dict) -> tuple[dict, dict]:
    """Engine, format and parse timings on the workloads' inputs, tracing off."""
    fam = importlib.import_module("addrseq.families")
    gen = importlib.import_module("addrseq.generate")
    fmts = importlib.import_module("addrseq.formats")
    m = sz.emit_m
    mat = fam.family_matrix(p["matrix"], m)
    a0, b0, shift = p["emit_a0"], p["emit_b0"], p["emit_shift"]
    runs = {
        "recursive": (lambda: gen.generate_recursive(mat), "bin", ref.full_up),
        "down": (lambda: gen.generate_down(mat, a0, b0), "hex", lambda r, m: ref.full_down(r, m, a0, b0)),
        "shifted": (lambda: gen.generate_shifted(mat, shift), "dec", lambda r, m: ref.full_shifted(r, m, shift)),
        "direct": (lambda: gen.generate_direct(mat), "csv", ref.full_direct),
    }
    rows = ref.random_rows(m, p["seed"])
    metrics = {}
    for name, (make, fmt, reference) in runs.items():
        metrics[f"generate.{name}_s"] = _median_time(lambda: list(make().words()))
        words = reference(rows, m)
        metrics[f"formats.format_s.{fmt}"] = _median_time(lambda: list(fmts.format_lines(words, m, fmt)))

    pm, bm = sz.pipe_m, sz.bad_m
    pipe_lines = ref.render(ref.full_up(ref.random_rows(pm, p["seed"]), pm), pm, "bin").decode().splitlines()
    bad_lines = (WORK / "bad.dec").read_text().splitlines()
    deep_lines = (WORK / "deep.bin").read_text().splitlines()
    metrics["formats.parse_s.bin"] = _median_time(lambda: fmts.parse_lines(pipe_lines, pm, "bin"))
    metrics["formats.parse_s.dec"] = _median_time(lambda: fmts.parse_lines(bad_lines, bm, "dec"))
    stripped = [ln.strip() for ln in pipe_lines if ln.strip()]
    metrics["formats.detect_s"] = _median_time(lambda: fmts.detect_format(stripped, pm))
    context = {"formats.lines": len(pipe_lines) + len(bad_lines) + len(deep_lines)}

    setups, words_after, words_time = [], 0, 0.0
    for fn, wmat, args in ops["windows"][0].calls:
        t0 = perf_counter()
        it = getattr(gen, fn)(wmat, *args).words()
        next(it)
        t1 = perf_counter()
        words_after += len(list(it))
        words_time += perf_counter() - t1
        setups.append(t1 - t0)
    metrics["generate.window_setup_us"] = statistics.mean(setups) * 1e6
    metrics["generate.window_words_per_s"] = words_after / words_time
    return metrics, context


def run(seed: int, sz: Sizes, spawner: Spawner) -> dict:
    p = derive(seed, sz)
    ops = {name: BUILDERS[name](p, sz) for name in WORKLOADS}
    cli = importlib.import_module("addrseq.cli")
    generate_module = importlib.import_module("addrseq.generate")
    print(f"[trace] params: {p['matrix']} emit a0={p['emit_a0']} b0={p['emit_b0']} "
          f"shift={p['emit_shift']} rank_seed={p['rank_seed']} windows={len(p['windows'])}", flush=True)

    battery: list[tuple[str, object]] = []
    for name in WORKLOADS:
        for op in ops[name]:
            if isinstance(op, WindowsOp):
                battery += [(f"windows_m{m}", op.width(m)) for m in sz.window_ms]
            else:
                battery.append((op.name, op))
    setups = {WORKLOADS[name].setup_m(sz) for name in WORKLOADS}
    battery += [(f"setup_m{m}", setup_op(p, m)) for m in sorted(setups)]

    tracer = Tracer()
    attempted = failed = 0
    untraced, traced, outputs, stats, edges = {}, {}, {}, {}, {}
    for label, op in battery:
        def once():
            if isinstance(op, WindowsOp):
                return run_windows(op, generate_module)
            return run_inprocess(cli, op)

        res_u = once()
        tracer.reset()
        with installed(tracer):
            res_t = once()
        untraced[label], traced[label], outputs[label] = res_u.wall_s, res_t.wall_s, res_u.out
        stats[label], edges[label] = tracer.stats, tracer.edges
        count = len(op.calls) if isinstance(op, WindowsOp) else 1
        for res in (res_u, res_t):
            attempted += count
            failed += min(count, len(res.errors))
            for e in res.errors[:5]:
                print(f"[trace] FAIL {label}: {e}", flush=True)

    metrics, context = _isolated(p, sz, ops)

    # a span that no longer runs (say, after a refactor) reads 0, not an error
    def total(label, name, field=1):
        return stats[label].get(name, [0, 0.0, 0.0])[field]

    def calls(label, name):
        return total(label, name, 0)

    def per_call_us(labels, name):
        n = sum(calls(lb, name) for lb in labels)
        return sum(total(lb, name) for lb in labels) / n * 1e6 if n else 0.0

    setup_labels = [f"setup_m{m}" for m in sorted(setups)]
    for op in CLI_OPS:
        labels = setup_labels if op == "setup" else [op]
        metrics[f"cli.main_s.{op}"] = statistics.mean(untraced[lb] for lb in labels)
        metrics[f"cli.self_s.{op}"] = statistics.mean(total(lb, "cli.main", 2) for lb in labels)
    spawned = []
    for m in sorted(setups):
        sop = setup_op(p, m)
        walls = [spawner.run(sop) for _ in range(3)]
        attempted += 3
        failed += sum(1 for r in walls if r.errors)
        spawned.append(statistics.median(r.wall_s for r in walls) - untraced[f"setup_m{m}"])
    metrics["cli.process_overhead_s"] = statistics.mean(spawned)
    metrics["cli.bytes_out"] = sum(outputs[op.name]["digest"][1] for op in ops["emit"])

    for name, label in (("stream", "pipe_verify"), ("deep", "deep_verify"), ("bad", "bad_verify")):
        metrics[f"analysis.analyze_s.{name}"] = total(label, "analysis.analyze")
    for name, label in (("stream", "pipe_verify"), ("deep", "deep_verify")):
        analyses = calls(label, "analysis.analyze")
        metrics[f"analysis.tuple_balance_s.{name}"] = total(label, "analysis.tuple_balance", 2)
        metrics[f"analysis.tuple_balance_calls.{name}"] = calls(label, "analysis.tuple_balance")
        metrics[f"analysis.completeness_checks_per_analyze.{name}"] = (
            calls(label, "analysis.check_completeness") / analyses if analyses else 0.0)
    metrics["analysis.check_completeness_s"] = total("pipe_verify", "analysis.check_completeness")
    metrics["analysis.hamming_profile_s"] = total("pipe_verify", "analysis.hamming_profile")

    metrics["families.fullrank_acceptance_rate_s"] = total("rank_stats", "families.fullrank_acceptance_rate")
    metrics["families.expected_rank_deficit_s"] = total("rank_stats", "families.expected_rank_deficit")
    metrics["families.draws_per_sample"] = calls("rank_stats", "gf2.rank_of_words") / sz.rank_n
    metrics["gf2.rank_of_words_us"] = per_call_us(["rank_stats"], "gf2.rank_of_words")
    sampler = "families.random_fullrank_matrix"
    metrics["families.random_fullrank_matrix_us"] = per_call_us(setup_labels, sampler)
    matrices = sum(calls(lb, sampler) for lb in setup_labels)
    draws = sum(edges[lb][sampler, "gf2.rank_of_words"] for lb in setup_labels)
    metrics["families.attempts_per_matrix"] = draws / matrices if matrices else 0.0
    wide = [f"windows_m{sz.window_ms[-1]}"]
    metrics["gf2.difference_basis_us"] = per_call_us(wide, "gf2.difference_basis")
    metrics["gf2.matrix_init_us"] = per_call_us(wide, "gf2.GenerationMatrix.__init__")

    gray_calls = Counter()
    for label in stats:
        for name, st in stats[label].items():
            if name.startswith("gray."):
                gray_calls[name] += st[0]

    section = None
    for sec, name, unit, _, moves, how in PER_LAYER:
        if sec != section:
            section = sec
            print(f"[trace] -- {sec}", flush=True)
        print(f"[trace] {name:<48} {metrics[name]:>14.6g} {unit:<5} moves {moves}; {how}", flush=True)
    print(f"[trace] -- base: formats.lines = {context['formats.lines']} lines parsed by the verify ops "
          "(printed, not a metric)")
    print("[trace] -- gray: no metric; no public gray call lies on a workload's hot path. Calls seen: "
          + (", ".join(f"{k}={v}" for k, v in sorted(gray_calls.items())) or "none")
          + " (gray_value runs inside the O(m) down-run start)")
    print("[trace] -- tracing overhead per op (traced wall minus untraced wall, same process)")
    for label in untraced:
        print(f"[trace] overhead {label:<16} {traced[label] - untraced[label]:>+10.4f} s "
              f"(untraced {untraced[label]:.4f} s, traced {traced[label]:.4f} s)", flush=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for _, name, unit, *_ in PER_LAYER},
    }
