"""Tests of the benchmark itself, at smoke sizes (seconds, not minutes).

Run from the root of the repository:

    python3 -m pytest perfbench -q

They stay out of the Tier-1 suite, whose testpaths is tests/.
"""

import json
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
from run import END_TO_END  # noqa: E402
from trace_layers import PER_LAYER  # noqa: E402
from workloads import BUILDERS, SMOKE, WORKLOADS, CliOp, Spawner, derive, summarize  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode in (0, 1) else None


@pytest.mark.parametrize("seed", [5, 6])
def test_every_workload_passes_its_checks(seed):
    proc, result = bench("--workload", "all", "--seed", str(seed), "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_one_workload_prints_exactly_the_end_to_end_metrics():
    proc, result = bench("--workload", "rank", "--seed", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    for name in ("samples_per_s", "rank_stats_s", "setup_s", "peak_rss_mb", "error_rate"):
        assert f"[rank] {name}" in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc, result = bench("--workload", "emit", "--seed", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for _, name, *_ in PER_LAYER]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for _, n, u, *_ in PER_LAYER}
    for _, name, *_ in PER_LAYER:
        assert f"[trace] {name} " in proc.stdout
    assert "[trace] -- gray: no metric" in proc.stdout
    assert "[trace] overhead pipe_verify" in proc.stdout
    counts = result["metrics"]
    assert counts["analysis.tuple_balance_calls.deep"]["value"] == sum(
        comb(SMOKE.deep_m, r) for r in range(1, SMOKE.deep_r + 1))
    assert counts["families.draws_per_sample"]["value"] == 2.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(n, w.why) for n, w in WORKLOADS.items()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, u, b) for _, n, u, b, *_ in PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_checks_reject_wrong_outputs(tmp_path, monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "WORK", tmp_path)
    p = derive(4, SMOKE)
    emit = BUILDERS["emit"](p, SMOKE)
    good = ref.render(ref.full_up(ref.random_rows(SMOKE.emit_m, 4), SMOKE.emit_m), SMOKE.emit_m, "bin")
    assert emit[0].check(summarize(good)) == []
    swapped = b"\n".join(reversed(good.splitlines())) + b"\n"
    assert emit[0].check(summarize(swapped))
    assert emit[1].check(summarize(good))  # the down/hex op does not accept the up/bin output

    verify = BUILDERS["verify"](p, SMOKE)
    bad_op = verify[2]
    report = (
        f"m={SMOKE.bad_m}\nlength={1 << SMOKE.bad_m}\ncomplete=true\nbalance_failures=0\n"
    )
    assert bad_op.check(summarize(report.encode()))

    rank = BUILDERS["rank"](p, SMOKE)[0]
    m, n, seed = SMOKE.rank_m, SMOKE.rank_n, p["rank_seed"]
    far = (f"m={m}\nanalytic_fullrank_probability={ref.fullrank_probability(m):.13f}\nsamples={n}\n"
           f"seed={seed}\nmc_fullrank_rate=0.9\nmc_expected_rank_deficit=0.8\n")
    assert any("5 sigma" in e for e in rank.check(summarize(far.encode())))


def test_spawner_kills_an_op_that_overruns(tmp_path, monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "WORK", tmp_path)
    monkeypatch.setattr(workloads, "OP_TIMEOUT_S", 0.3)
    slow = CliOp("slow", ["rank-stats", "-m", "32", "-n", "1000000"], lambda out: [], 1)
    with Spawner() as spawner:
        res = spawner.run(slow)
    assert res.wall_s < 5
    assert any("killed" in e for e in res.errors)


def test_reference_agrees_with_the_library():
    from addrseq import (generate_direct, generate_down, generate_recursive, generate_shifted,
                         random_fullrank_matrix)

    for m, seed in ((5, 0), (8, 3)):
        rows = ref.random_rows(m, seed)
        mat = random_fullrank_matrix(m, seed)
        assert list(mat.row_words) == rows
        assert ref.full_up(rows, m, 3, 5) == list(generate_recursive(mat, 3, 5).words())
        assert ref.full_down(rows, m, 3, 5) == list(generate_down(mat, 3, 5).words())
        assert ref.full_shifted(rows, m, 7) == list(generate_shifted(mat, 7).words())
        assert ref.full_direct(rows, m) == list(generate_direct(mat).words())
    rows, full = ref.random_rows(64, 9), 1 << 64
    mat = random_fullrank_matrix(64, 9)
    a0, b0 = 12345, full - 40
    assert ref.up_window(rows, 64, a0, b0, 0, 100) == list(generate_recursive(mat, a0, b0, 100).words())
    assert ref.up_window(rows, 64, a0, b0, full - 100, 100)[::-1] == list(
        generate_down(mat, a0, b0, 100).words())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "emit", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
