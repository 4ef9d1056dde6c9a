"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from difftower import ansatz  # noqa: E402
from difftower.ansatz import Found  # noqa: E402
from difftower.ratfun import RatFun  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac = 0 ratio" in proc.stdout


def traced(workload: str, n_ops: int) -> dict:
    wl, _ = worker.set_up(workload, 3)
    checker = worker.Checker([])
    metrics = worker.trace(wl, n_ops, checker)
    assert checker.failed == 0, checker.errors
    return metrics


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_emit_layers_and_repeat_call_counts(monkeypatch, workload):
    monkeypatch.delenv("DIFFIELD_MAX_CELLS", raising=False)
    first, second = traced(workload, 22), traced(workload, 22)
    want = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    got = {k: unit for k, (_, unit) in first.items()}
    assert got == want

    def counts(metrics):
        return {k: v for k, (v, unit) in metrics.items() if unit == "count"}

    assert counts(first) == counts(second)
    calls = counts(first)
    if workload == "derive":
        assert calls["linalg.rref.calls"] == 0
        assert calls["ratfun.poly_gcd.calls"] > 0
    else:
        assert calls["linalg.rref.calls"] > 0


def test_layer_trace_restores_the_library():
    from difftower import linalg, structure
    from difftower.tower import Tower
    before = (linalg.rref, structure.poly_gcd, Tower.differentiate)
    with layers.LayerTrace():
        assert linalg.rref is not before[0]
        assert structure.poly_gcd is not before[1]
    assert (linalg.rref, structure.poly_gcd, Tower.differentiate) == before


def test_planted_wrong_answer_counts_as_failure(monkeypatch):
    real = ansatz.solve_first_order
    planted = []

    def wrong_once(f, g, tower, bounds):
        out = real(f, g, tower, bounds)
        if not planted and isinstance(out, Found):
            planted.append(True)
            return Found(out.value + RatFun.var(tower.vars, "z"))
        return out

    monkeypatch.setattr(ansatz, "solve_first_order", wrong_once)
    wl = workloads.Workload("ode", 3)
    checker = worker.Checker(expected=[])
    worker.measure(wl, 1.0, checker)
    assert planted and checker.failed == 1
    assert checker.attempted > checker.failed
    assert "D(w) != f + g*w" in checker.errors[0]


def test_digest_mismatch_counts_as_failure():
    wl = workloads.Workload("search", 3)
    op = wl.op(0)
    good = workloads.answer_digest(op.check(op.run()))
    checker = worker.Checker(expected=[good, "0" * 12])
    assert checker.record(0, op, *worker.call(op))
    assert not checker.record(1, wl.op(1), *worker.call(wl.op(1)))
    assert (checker.attempted, checker.failed, checker.digest_checked) \
        == (2, 1, 2)


def test_default_seed_digests_match():
    wl_names = workloads.WORKLOADS
    for name in wl_names:
        expected = worker.load_digests(name, run.DEFAULT_SEED)
        assert expected, f"no recorded digests for {name}"
        wl = workloads.Workload(name, run.DEFAULT_SEED)
        checker = worker.Checker(expected)
        for i in range(8):
            op = wl.op(i)
            checker.record(i, op, *worker.call(op))
        assert checker.failed == 0, checker.errors
