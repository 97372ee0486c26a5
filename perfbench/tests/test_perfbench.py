"""Tests of the benchmark itself: the gate, the tracer and the result line.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import tracer  # noqa: E402
from common import STATE, import_borrowsim  # noqa: E402

import_borrowsim()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _rows(workload, job):
    return gate.read_csv(gate.reference_path(workload, job))


def _check(rows, ref_rows, seed=gate.REF_SEED, exact_t=False):
    return gate.check_rows(
        gate.HEADER, rows, ref_rows, seed=seed, expected_rows=len(ref_rows), exact_t=exact_t
    )


def _with_seed(rows, seed):
    return [{**r, "seed": str(seed)} for r in rows]


def test_references_pass_their_own_gate():
    for workload in ("onearm-mc", "hybrid-mc", "deterministic"):
        for path in sorted((gate.REF_DIR / "full" / workload).glob("*.csv")):
            header, rows = gate.read_csv(path)
            assert header == gate.HEADER
            assert _check(rows, rows) == []


def test_monte_carlo_tie_must_match_exactly():
    _, ref = _rows("onearm-mc", "fig1")
    rows = [dict(r) for r in ref]
    reps = int(rows[0]["reps"])
    rows[5]["tie"] = repr(float(rows[5]["tie"]) + 1.0 / reps)
    problems = _check(rows, ref)
    assert len(problems) == 1 and "tie" in problems[0]


def test_relative_tolerance_of_continuous_columns():
    _, ref = _rows("onearm-mc", "fig1")
    rows = [dict(r) for r in ref]
    value = float(rows[3]["rmse_std"])
    rows[3]["rmse_std"] = repr(value * (1 + 1e-14))
    assert _check(rows, ref) == []
    rows[3]["rmse_std"] = repr(value * (1 + 1e-9))
    assert any("rmse_std" in p for p in _check(rows, ref))


def test_monte_carlo_rows_under_another_seed_get_invariants_only():
    _, ref = _rows("hybrid-mc", "fig7")
    rows = _with_seed(ref, 7)
    rows[0]["tie"] = repr(float(rows[0]["tie"]) + 0.01)
    assert _check(rows, ref, seed=7) == []
    rows[0]["tie"] = "1.5"
    assert any("outside [0, 1]" in p for p in _check(rows, ref, seed=7))


def test_deterministic_rows_are_checked_under_every_seed():
    _, ref = _rows("deterministic", "fig8")
    rows = _with_seed(ref, 7)
    assert _check(rows, ref, seed=7) == []
    rows[2]["power"] = repr(float(rows[2]["power"]) * (1 + 1e-9))
    assert any("power" in p for p in _check(rows, ref, seed=7))


def test_exact_t_tolerance():
    _, ref = _rows("exact-t", "exact-t")
    rows = [dict(ref[4])]
    tie = float(rows[0]["tie"])
    rows[0]["tie"] = repr(tie * (1 + 1e-11))
    assert gate.check_rows(gate.HEADER, rows, ref, seed=gate.REF_SEED, expected_rows=1, exact_t=True) == []
    rows[0]["tie"] = repr(tie * (1 + 1e-7))
    assert gate.check_rows(gate.HEADER, rows, ref, seed=gate.REF_SEED, expected_rows=1, exact_t=True)


def test_header_and_row_count_are_enforced():
    _, ref = _rows("deterministic", "fig2")
    assert gate.check_rows(gate.HEADER[:-1], ref, ref, seed=gate.REF_SEED,
                           expected_rows=len(ref), exact_t=False)
    problems = _check(ref[:-1], ref)
    assert problems == [f"{len(ref) - 1} rows, expected {len(ref)}"]


def test_tracer_wraps_every_binding_and_restores_them():
    from borrowsim import hybrid, inference, onearm

    original = inference.posterior_bank
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = inference.posterior_bank
        assert wrapped is not original
        assert onearm.posterior_bank is wrapped and hybrid.posterior_bank is wrapped
        # Modules the package does not import itself are loaded and patched.
        assert sys.modules["borrowsim.cli"].run_config is sys.modules["borrowsim.sweep"].run_config
        assert hasattr(sys.modules["borrowsim.cli"].run_config, "__wrapped__")
    finally:
        t.uninstall()
    assert inference.posterior_bank is original
    assert onearm.posterior_bank is original and hybrid.posterior_bank is original


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracer.Span(1, None, "job", 0.0, 10.0, 1, 0.0),
        tracer.Span(2, 1, "a", 1.0, 4.0, 2, 0.0),
        tracer.Span(3, 1, "b", 3.0, 6.0, 3, 0.0),
        tracer.Span(4, 2, "c", 2.0, 3.0, 2, 0.0),
    ]
    own = tracer.self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_result_line(workload, trace):
    out = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        report = json.loads((STATE / f"report-{workload}-trace-smoke.json").read_text())
        assert report["counts_differing_across_threads"] == []
        if workload != "exact-t":
            assert result["metrics"]["sweep.run_config.calls"]["value"] > 0


def test_missing_program_exits_nonzero_without_a_result():
    bare = STATE / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = _run(["--workload", "onearm-mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
