#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for addrseq.

Run from the root of a checkout:

    python3 perfbench/run.py --workload emit --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload, one process
    python3 perfbench/run.py --workload all --smoke --seconds 1 --trace 1

With ``--trace 0`` each workload repeats its ops in passes for ``--seconds``
and reports medians.  With ``--trace 1`` one traced pass over every
workload's ops gives the per-layer table (see trace_layers.py).  Every output is
checked against reference.py, which never calls addrseq.generate.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time

from workloads import (
    BUILDERS, FULL, ROOT, SMOKE, SRC, WORK, WORKLOADS, Result, Sizes, Spawner, WindowsOp,
    derive, describe_params, run_windows, setup_op,
)

# gated metrics: every workload reports each of them in the final JSON line
END_TO_END = {"items_per_cal": "items/cal", "setup_s": "s", "peak_rss_mb": "MB"}
CAL_LOOPS = 200_000
# calibration_s in a fast phase of a 2-vCPU x86_64 KVM guest: setup_s is reported in
# seconds at that host speed
CAL_REF_S = 0.025


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: the host's speed at this moment.

    A shared host slows down and speeds up by tens of percent in phases of
    seconds to minutes, and the ops slow down with it.  Timed between ops,
    the loop turns items per second into items per loop time, which that
    drift cancels out of, while a change in addrseq still moves it fully.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc ^= (i * 0x9E3779B1) & 0xFFFFFFFF
    return time.perf_counter() - t0


# -- one workload ---------------------------------------------------------------------------


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _spread(xs: list[float]) -> str:
    return f"median; min {min(xs):.4f}, max {max(xs):.4f}, n={len(xs)}" if xs else "no samples"


def run_workload(name: str, seed: int, seconds: float, sz: Sizes, spawner: Spawner) -> dict:
    """Set up, then repeat the workload's ops in passes for `seconds`; report medians."""
    wl = WORKLOADS[name]
    p = derive(seed, sz)
    ops = BUILDERS[name](p, sz)
    print(f"[{name}] params: {describe_params(name, p, sz)}", flush=True)
    attempted = failed = 0
    errors: list[str] = []
    peak = 0.0

    def account(res: Result, op_name: str, count: int = 1):
        nonlocal attempted, failed, peak
        attempted += count
        failed += min(count, len(res.errors))
        peak = max(peak, res.rss_mb)
        errors.extend(f"{op_name}: {e}" for e in res.errors[:5])

    # set-up time: one warm-up spawn (it may compile bytecode), then measured spawns
    # spread over the run, each scaled by the calibration loop timed just before it
    sop = setup_op(p, wl.setup_m(sz))
    account(spawner.run(sop), "setup")
    setup_raw: list[float] = []
    setup_scaled: list[float] = []

    def measure_setup():
        cal = calibration_s()
        res = spawner.run(sop)
        account(res, "setup")
        setup_raw.append(res.first_s)
        setup_scaled.append(res.first_s * CAL_REF_S / cal)

    # the package re-exports a function named `generate`, which hides the submodule
    generate_module = importlib.import_module("addrseq.generate")
    op_walls: dict[str, list[float]] = {op.name: [] for op in ops}
    cals: list[float] = []
    start = time.perf_counter()
    while not failed:
        t_pass = time.perf_counter()
        if len(setup_raw) < sz.setup_reps and t_pass - start >= len(setup_raw) * seconds / sz.setup_reps:
            measure_setup()
        for op in ops:
            cals.append(calibration_s())
            if isinstance(op, WindowsOp):
                try:
                    res = run_windows(op, generate_module)
                except Exception as exc:  # a broken library fails the run; it must not end it
                    res = Result(0.0, 0.0, None, [f"{type(exc).__name__}: {exc}"])
                account(res, op.name, len(op.calls))
            else:
                res = spawner.run(op)
                account(res, op.name)
            op_walls[op.name].append(res.wall_s)
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            break
    while not failed and len(setup_raw) < sz.setup_reps:  # runs too short to spread them
        measure_setup()
    passes = len(op_walls[ops[0].name])

    # throughput over the whole run, not a median of passes: host speed swings in
    # phases of seconds to minutes, and a median jumps between phases where a total
    # moves with the share of time spent in each
    units = sum(op.units for op in ops)
    busy_s = sum(sum(w) for w in op_walls.values())
    items_per_s = units * passes / busy_s if busy_s else 0.0
    cal_s = statistics.mean(cals) if cals else 0.0
    setup_s = _median(setup_scaled)
    print(f"[{name}] {passes} passes in {time.perf_counter() - start:.1f} s, {units} "
          f"{wl.units_name.split('_')[0]} per pass, {len(setup_raw)} set-up spawns", flush=True)
    rows = [
        (wl.units_name, items_per_s, wl.units_unit, f"{units * passes} over {busy_s:.2f} s of ops"),
        ("calibration_s", cal_s, "s", f"mean of {len(cals)} loops of {CAL_LOOPS}, one before each op"),
        ("items_per_cal", items_per_s * cal_s, "items/cal", f"{wl.units_name} x calibration_s"),
    ]
    rows += [(f"{op}_s", _median(w), "s", _spread(w)) for op, w in op_walls.items() if op != "windows"]
    rows += [
        ("setup_raw_s", _median(setup_raw), "s", _spread(setup_raw)),
        ("setup_s", setup_s, "s", f"median of setup_raw_s x {CAL_REF_S} / the calibration_s before each"),
        ("peak_rss_mb", peak, "MB", "largest of any process"),
        ("error_rate", failed / attempted, "ratio", f"{failed} of {attempted} ops failed"),
    ]
    for key, value, unit, note in rows:
        print(f"[{name}] {key:<16} {value:>14.6g} {unit:<7} {note}", flush=True)
    for e in errors[:20]:
        print(f"[{name}] FAIL {e}", flush=True)
    values = {"items_per_cal": items_per_s * cal_s, "setup_s": setup_s, "peak_rss_mb": peak}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()},
    }


# -- entry point ----------------------------------------------------------------------------


def environment() -> str:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref_file = ROOT / ".git" / text[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else text[5:]
        else:
            commit = text
    return (f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"machine={platform.machine()} commit={commit[:12]}")


def combine(results: dict) -> dict:
    """One result line for several workloads; metric names get the workload as prefix."""
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny widths: every workload, check and span in seconds")
    args = parser.parse_args(argv)

    if not (SRC / "addrseq" / "cli.py").is_file():
        print(f"perfbench: no addrseq sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sz = SMOKE if args.smoke else FULL
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"perfbench: {environment()} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} sizes={'smoke' if args.smoke else 'full'} {sz}", flush=True)

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        with Spawner() as spawner:
            if args.trace:
                import trace_layers

                result = trace_layers.run(args.seed, sz, spawner)
            else:
                results = {name: run_workload(name, args.seed, args.seconds, sz, spawner) for name in names}
                result = results[names[0]] if len(names) == 1 else combine(results)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
