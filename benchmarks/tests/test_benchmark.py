"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/tests

The smoke tests run every workload once, untraced and traced; the other
tests show that the output checks reject wrong results.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import LayerTrace  # noqa: E402
from speed import SpeedTracker, reference_unit  # noqa: E402
from tristep import cli, scheme  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_every_workload_once(trace, tmp_path):
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seconds", "0",
            "--seed", "7", "--trace", str(trace), "--record", str(record),
        ],
        capture_output=True,
        text=True,
        cwd=workloads.ROOT,
        timeout=600,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = workloads.BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {f"{w}:{m['name']}" for w in workloads.WORKLOAD_NAMES for m in spec}
    assert set(result["metrics"]) == expected
    runs = json.loads(record.read_text())["runs"]
    assert [r["workload"] for r in runs] == list(workloads.WORKLOAD_NAMES)
    assert all(r["seed"] == 7 and r["error_ratio"] == 0 for r in runs)


def _invocation(workload: workloads.Workload, key: str) -> workloads.Invocation:
    return next(inv for inv in workload.invocations if inv.key == key)


@pytest.fixture
def blowup(tmp_path):
    workload = workloads.build("blowup-minus", tmp_path, seed=0)
    inv = _invocation(workload, "cameroon-1960")
    _, code, stderr = run.Runner(workload, tmp_path, seed=0).invoke(inv)
    return workload, inv, code, stderr


def test_check_accepts_the_recorded_output(blowup):
    workload, inv, code, stderr = blowup
    assert code == 4
    assert workloads.check(workload, inv, code, stderr) == []


def test_check_rejects_an_unexpected_exit_code(blowup):
    workload, inv, _, stderr = blowup
    problems = workloads.check(workload, inv, 0, stderr)
    assert problems == ["cameroon-1960: exit 0, expected 4"]


def test_check_rejects_a_tampered_csv(blowup):
    workload, inv, code, stderr = blowup
    (path,) = inv.outputs.values()
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace(",", ",-", 1)  # negate y1 of the initial state
    path.write_text("".join(lines))
    assert workloads.check(workload, inv, code, stderr) == [
        f"cameroon-1960: {path.name} differs from the recorded output"
    ]
    path.unlink()
    assert workloads.check(workload, inv, code, stderr) == [
        f"cameroon-1960: missing output {path.name}"
    ]


def test_sweep_check_rejects_a_tampered_summary_and_total(tmp_path):
    workload = workloads.build("sweep-decimated", tmp_path, seed=3)
    inv = workload.invocations[0]
    _, code, stderr = run.Runner(workload, tmp_path, seed=3).invoke(inv)
    assert workloads.check(workload, inv, code, stderr) == []

    trajectory, summary = inv.outputs.values()
    lines = summary.read_text().splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[1] = repr(math.nextafter(float(cells[1]), math.inf))
    summary.write_text("".join([lines[0], ",".join(cells), *lines[2:]]))
    assert workloads.check(workload, inv, code, stderr) == [
        f"{inv.key}: summary row y1 differs from run_scenario"
    ]

    lines = trajectory.read_text().splitlines(keepends=True)
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) + 1.0)
    trajectory.write_text("".join([*lines[:-1], ",".join(cells)]))
    problems = workloads.check(workload, inv, code, stderr)
    assert any("off the closed form" in p for p in problems)


def test_benchmark_json_lists_known_workloads_with_their_reasons():
    for entry in workloads.BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WHY[entry["name"]]


def test_sweep_inputs_follow_the_seed():
    assert workloads.sweep_config_texts(5) == workloads.sweep_config_texts(5)
    assert workloads.sweep_config_texts(5) != workloads.sweep_config_texts(6)
    for text in workloads.sweep_config_texts(5):
        scenario = workloads.preset_from_config(workloads.parse_config(text))
        assert scenario.alpha_warning is False


def test_layer_trace_counts_and_restores(tmp_path):
    workload = workloads.build("blowup-minus", tmp_path, seed=0)
    runner = run.Runner(workload, tmp_path, seed=0)
    original = scheme.integrate
    trace = LayerTrace()
    trace.install()
    try:
        assert cli.integrate is not original and scheme.integrate is not original
        runner.inprocess_round(trace)
    finally:
        trace.uninstall()
    assert cli.integrate is original and scheme.integrate is original
    values = run.layer_values(trace, runner)
    assert run.invariant_problems(values, trace, runner) == []
    assert runner.problems == [] and runner.failed == 0
    assert values["cpmodel.rhs_calls"] > 6 * values["scheme.steps"]
    assert values["manufactured.rhs_calls"] == 0


def test_speed_tracker_scales_each_sample_by_the_reference_speed():
    assert reference_unit() == reference_unit()
    tracker = SpeedTracker()
    scaled = [tracker.scale(raw) for raw in (0.05, 0.1)]
    assert len(tracker.factors) == 2
    assert scaled == [raw * f for raw, f in zip((0.05, 0.1), tracker.factors)]
    assert all(0.1 < f < 10 for f in tracker.factors)
