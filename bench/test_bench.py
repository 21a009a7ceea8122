"""Tests of the benchmark itself: python -m pytest bench (from the repository root)."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _first(wl, command):
    return next(pool[0] for pool in wl.cycle if pool[0].command == command)


def test_checker_accepts_program_output_and_rejects_bad_outcomes(cli, tmp_path):
    op = _first(workloads.build("disc-analyze", 5, tmp_path, tiny=True), "analyze")
    ex = run.execute(cli, op)
    assert checks.check(op, ex.rc, ex.out, ex.err)[0] == []

    report = json.loads(ex.out)
    report["a_sq"] *= 1.0 + 1e-6
    problems, _ = checks.check(op, ex.rc, json.dumps(report), ex.err)
    assert any("a_sq" in p for p in problems)

    problems, _ = checks.check(op, 3, ex.out, "")
    assert any("exit code 3" in p for p in problems)

    problems, _ = checks.check(op, None, "", "", error="ValueError: boom")
    assert problems

    verify = _first(workloads.build("disc-suite", 5, tmp_path, tiny=True), "verify")
    ex = run.execute(cli, verify)
    assert checks.check(verify, ex.rc, ex.out, ex.err)[0] == []
    problems, _ = checks.check(verify, ex.rc, ex.out.replace("PASS", "FAIL", 1), ex.err)
    assert "printed a FAIL line" in problems


def test_checker_rejects_search_trace_that_is_not_monotone(cli, tmp_path):
    op = _first(workloads.build("search", 5, tmp_path, tiny=True), "search")
    ex = run.execute(cli, op)
    assert checks.check(op, ex.rc, ex.out, ex.err)[0] == []
    rows = ex.out.strip().splitlines()
    if len(rows) < 3:
        pytest.skip("trace too short to reorder")
    swapped = "\n".join([rows[0], rows[2], rows[1], *rows[3:]]) + "\n"
    assert checks.check(op, ex.rc, swapped, ex.err)[0]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_smoke_run(name):
    result, details, _ = run.run(name, 7, 0, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0, details["problems"]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert all(count >= 1 for count in details["commands"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_self_times_add_up_to_op_wall(name):
    result, details, (tracer, runs) = run.run(name, 7, 0, trace=True, tiny=True)
    assert result["correct"], details["problems"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in metrics.values())
    assert tracer.missing == []

    plain = sum(ex.wall for ex in runs if not ex.traced)
    traced = sum(ex.wall for ex in runs if ex.traced)
    assert metrics["trace.overhead_frac"] == pytest.approx(traced / plain - 1.0)
    ops = {i: spans for i, spans in tracing.by_op(tracer.spans).items() if i >= 0}
    self_sum = sum(tracing.main_thread_self_sum(spans) for spans in ops.values())
    # Per-layer self times cover the traced wall, which exceeds the
    # untraced wall by the reported overhead; only the capture of the
    # streams around each root span is left out.
    assert self_sum <= traced
    assert traced - self_sum <= 2e-3 * len(ops)
    assert abs(self_sum / plain - 1.0) <= abs(metrics["trace.overhead_frac"]) + 2e-3 * len(ops) / plain


def test_exits_without_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
