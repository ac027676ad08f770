"""The tristep benchmark: run time of the CLI and of the library, per workload.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload sweep-decimated --seed 1 --seconds 55 --trace 0
    python3 benchmarks/run.py --workload all --seconds 0      # every workload once

One client drives the program in a closed loop: each ``tristep`` process
starts only after the previous one exited.  A round runs every invocation of
the workload once, in a seeded order.  With ``--trace 0`` each invocation
runs as a fresh ``tristep`` process and then through ``tristep.cli.main`` in
this interpreter, round after round, and the end-to-end metrics are
medians of times scaled to a fixed host speed (see speed.py).  With ``--trace 1`` untraced and traced in-process
rounds alternate, and the per-layer metrics come from the traced ones.
Every invocation's exit code and output files are checked; the last line of
standard output is the JSON result, and the exit code is 1 when any check
failed.  See README.md in this directory."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

try:
    import workloads
    from layers import LayerTrace
    from speed import SpeedTracker
except ImportError as exc:  # no tristep sources next to the benchmark
    sys.exit(f"error: cannot load the program under test: {exc}")

import numpy as np
from tristep import cli

#: What a ``tristep`` console script runs.
ENTRY = "import sys; from tristep.cli import main; sys.exit(main())"
#: A fresh interpreter that imports the CLI and loads a workload's inputs
#: (presets, config files, problems, then their grids) without integrating;
#: it prints the time the import took.
SETUP = """\
import json, sys, time
start = time.perf_counter()
import tristep.cli
imported = time.perf_counter() - start
from tristep.config import parse_config, preset_from_config
from tristep.cpmodel import preset
from tristep.manufactured import problem
from tristep.numerics import build_grid
for kind, arg, exponents in json.loads(sys.argv[1]):
    if kind == "problem":
        p = problem(arg)
        for e in exponents:
            build_grid(p.t0, p.T, 2.0**-e)
        continue
    if kind == "preset":
        s = preset(arg)
    else:
        with open(arg, encoding="utf-8") as stream:
            s = preset_from_config(parse_config(stream.read()))
    build_grid(s.t0, s.T, s.k)
print(imported)
"""
CHILD_TIMEOUT_S = 150.0
WORK_ROOT = workloads.ROOT / "benchmarks" / ".work"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # An installed package imports from its bytecode cache, so the children
    # may write one (git ignores __pycache__) rather than compile every time.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(workloads.SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], stdout, stderr, cwd: Path) -> tuple[float, int, int]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=stdout, stderr=stderr, env=child_env(), cwd=cwd)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


class Runner:
    """Runs rounds of one workload and checks every invocation."""

    def __init__(self, workload: workloads.Workload, workdir: Path, seed: int) -> None:
        self.workload = workload
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: reference speed over host speed, one per scaled sample
        self.speed_factors: list[float] = []

    def order(self) -> list[workloads.Invocation]:
        """One round: every invocation once, in a seeded order."""
        order = list(self.workload.invocations)
        self.rng.shuffle(order)
        return order

    def rounds(self):
        """Invocations round after round."""
        while True:
            yield from self.order()

    def _checked(self, inv: workloads.Invocation, exit_code: int, stderr: str) -> None:
        self.attempted += 1
        problems = workloads.check(self.workload, inv, exit_code, stderr)
        if problems:
            self.failed += 1
            self.problems += problems

    @staticmethod
    def _clear(inv: workloads.Invocation) -> None:
        for path in inv.outputs.values():
            path.unlink(missing_ok=True)

    def process(self, inv: workloads.Invocation) -> tuple[float, int]:
        """One checked ``tristep`` process: (wall seconds, peak RSS in KiB)."""
        self._clear(inv)
        out, err = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out, "wb") as so, open(err, "wb") as se:
            wall, code, rss = spawn([sys.executable, "-c", ENTRY, *inv.argv], so, se, self.workdir)
        self._checked(inv, code, err.read_text(encoding="utf-8", errors="replace"))
        return wall, rss

    def inprocess(self, inv: workloads.Invocation, trace: LayerTrace | None = None) -> float:
        """One checked invocation through ``tristep.cli.main``: seconds."""
        seconds, code, stderr = self.invoke(inv)
        self._checked(inv, code, stderr)
        if trace is not None:
            self._count_outputs(inv, trace)
        return seconds

    def inprocess_round(self, trace: LayerTrace | None = None) -> float:
        """Every invocation once through ``tristep.cli.main``: total seconds."""
        return sum(self.inprocess(inv, trace) for inv in self.order())

    def invoke(self, inv: workloads.Invocation) -> tuple[float, int, str]:
        """One unchecked in-process invocation: (seconds, exit code, stderr)."""
        self._clear(inv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(inv.argv)
            seconds = time.perf_counter() - start
        return seconds, code, err.getvalue()

    @staticmethod
    def _count_outputs(inv: workloads.Invocation, trace: LayerTrace) -> None:
        if trace.last_blowup_step is not None:
            trace.counts[f"scheme.blowup_step.{inv.key}"] = trace.last_blowup_step
            trace.last_blowup_step = None
        for path in inv.outputs.values():
            if path.is_file():
                data = path.read_bytes()
                trace.counts["cli.csv_rows"] += data.count(b"\n") - 1
                trace.counts["cli.csv_bytes"] += len(data)

    def setup(self) -> tuple[float, float]:
        """A fresh interpreter loading the inputs: (wall seconds, import seconds)."""
        out = self.workdir / "setup.txt"
        with open(out, "wb") as so:
            wall, code, _ = spawn(
                [sys.executable, "-c", SETUP, json.dumps(self.workload.loads)], so, None, self.workdir
            )
        if code != 0:
            self.problems.append(f"set-up interpreter exited {code}")
            return wall, float("nan")
        return wall, float(out.read_text())


# ------------------------------------------------------------------ metrics


def summary(samples: dict[str, list[float]], unit: str, combine=statistics.fmean) -> dict:
    """Median, quartiles, min and sample count of one metric.

    ``samples`` holds each invocation's samples; every statistic is taken per
    invocation first and then combined over the invocations.
    """
    per_invocation = []
    for values in samples.values():
        if len(set(values)) == 1:  # a count that repeats stays an exact integer
            per_invocation.append(values[:1] * 4)
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        per_invocation.append((statistics.median(values), q1, q3, min(values)))
    if len(per_invocation) == 1:
        (median, q1, q3, least), = per_invocation
    else:
        median, q1, q3, least = (combine([s[i] for s in per_invocation]) for i in range(4))
    return {
        "unit": unit,
        "value": median,
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": least,
        "samples": sum(len(values) for values in samples.values()),
    }


def measure_end_to_end(runner: Runner, seconds: float) -> dict[str, dict]:
    """Alternate each invocation as a process and in-process until ``seconds`` pass.

    A set-up sample follows each pair, so that set-up, like the rest, is
    sampled across the whole run.  Every time is scaled to the reference
    speed by the reference segment that follows it and the one before it.  Every invocation runs at least once; the
    run stops before an invocation that would likely end after the deadline.
    """
    runner.setup()  # refreshes the bytecode cache; not counted
    runner.inprocess(runner.workload.invocations[0])  # warms this interpreter; not counted
    speed = SpeedTracker()
    setup = []
    invocations = runner.workload.invocations
    steps = {inv.key: inv.steps for inv in invocations}
    walls, rss, solves, rates = ({inv.key: [] for inv in invocations} for _ in range(4))
    deadline = time.perf_counter() + seconds
    for inv in runner.rounds():
        start = time.perf_counter()
        wall, peak = runner.process(inv)
        walls[inv.key].append(speed.scale(wall))
        rss[inv.key].append(peak / 1024.0)
        solve = speed.scale(runner.inprocess(inv))
        solves[inv.key].append(solve)
        rates[inv.key].append(inv.steps / solve)
        setup.append(speed.scale(runner.setup()[0]))
        now = time.perf_counter()
        if all(walls.values()) and now + (now - start) > deadline:
            break

    def workload_rate(per_invocation: list[float]) -> float:
        return sum(steps.values()) / sum(n / r for n, r in zip(steps.values(), per_invocation))

    units = {m["name"]: m["unit"] for m in workloads.BENCHMARK["end_to_end"]}
    runner.speed_factors = speed.factors
    return {
        "wall_s": summary(walls, units["wall_s"]),
        "solve_s": summary(solves, units["solve_s"]),
        "steps_per_s": summary(rates, units["steps_per_s"], workload_rate),
        "setup_s": summary({"set-up": setup}, units["setup_s"]),
        "peak_rss_mb": summary(rss, units["peak_rss_mb"], max),
    }


def layer_values(trace: LayerTrace, runner: Runner) -> dict[str, float]:
    """Per-layer figures of one traced round; names match BENCHMARK.json."""
    c, b = trace.counts, trace.busy
    n_inv = len(runner.workload.invocations)
    steps = c["scheme.steps"]

    def per(busy: float, count: int, scale: float) -> float:
        return busy * scale / count if count else 0.0

    values = {
        "scheme.steps": steps,
        "scheme.rhs_per_step": per(c["scheme.rhs_completed"], steps, 1.0),
        "scheme.integrate_us_per_step": per(b["scheme.integrate"], steps, 1e6),
        "scheme.self_us_per_step": per(b["scheme.self"], steps, 1e6),
        "scheme.states_bytes": trace.states_bytes,
        "cpmodel.rhs_calls": c["cpmodel.rhs.calls"],
        "cpmodel.rhs_us": per(b["cpmodel.rhs"], c["cpmodel.rhs.calls"], 1e6),
        "cpmodel.load_ms": per(b["cpmodel.load"], n_inv, 1e3),
        "manufactured.rhs_calls": c["manufactured.rhs.calls"],
        "manufactured.rhs_us": per(b["manufactured.rhs"], c["manufactured.rhs.calls"], 1e6),
        "manufactured.exact_us": per(b["manufactured.exact"], c["manufactured.exact.calls"], 1e6),
        "studies.era_summary_ms": per(b["studies.era_summary"], c["studies.era_summary.calls"], 1e3),
        "studies.converge_post_s": per(b["studies.converge_post"], n_inv, 1.0),
        "numerics.sup_norm_calls": c["numerics.sup_norm.calls"],
        "numerics.sup_norm_us": per(b["numerics.sup_norm"], c["numerics.sup_norm.calls"], 1e6),
        "config.parse_ms": per(b["config.parse"], n_inv, 1e3),
        "cli.csv_rows": c["cli.csv_rows"],
        "cli.csv_bytes": c["cli.csv_bytes"],
        "cli.csv_us_per_row": per(b["cli.csv"], c["cli.csv_rows"], 1e6),
    }
    for label in workloads.PRESETS:
        values[f"scheme.blowup_step.{label}"] = c[f"scheme.blowup_step.{label}"]
    return values


#: Per-layer figures that must repeat exactly: a change marks another program.
EXACT_COUNTS = (
    "scheme.steps",
    "scheme.rhs_per_step",
    "scheme.states_bytes",
    "cpmodel.rhs_calls",
    "manufactured.rhs_calls",
    "numerics.sup_norm_calls",
    "cli.csv_rows",
    "cli.csv_bytes",
) + tuple(f"scheme.blowup_step.{label}" for label in workloads.PRESETS)


def invariant_problems(values: dict[str, float], trace: LayerTrace, runner: Runner) -> list[str]:
    workload = runner.workload
    problems = []
    steps = sum(inv.steps for inv in workload.invocations)
    if values["scheme.steps"] != steps:
        problems.append(f"scheme.steps {values['scheme.steps']}, expected {steps}")
    if values["scheme.rhs_per_step"] != 6 or trace.counts["scheme.failed_step_out_of_range"]:
        problems.append(f"scheme.rhs_per_step {values['scheme.rhs_per_step']!r}, expected 6")
    for inv in workload.invocations:
        name = f"scheme.blowup_step.{inv.key}"
        if inv.blowup_step is not None and values[name] != inv.blowup_step:
            problems.append(f"{name} {values[name]}, expected {inv.blowup_step}")
    if values["cli.csv_rows"] != workload.expected_csv_rows:
        problems.append(f"cli.csv_rows {values['cli.csv_rows']}, expected {workload.expected_csv_rows}")
    return problems


def measure_layers(runner: Runner, seconds: float) -> dict[str, dict]:
    """Alternate untraced and traced in-process rounds until ``seconds`` pass."""
    runner.setup()  # refreshes the bytecode cache; not counted
    samples: dict[str, list[float]] = {"cli.import_s": [], "trace.overhead_ratio": []}
    counts = None
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        plain = runner.inprocess_round()
        trace = LayerTrace()
        trace.install()
        try:
            traced = runner.inprocess_round(trace)
        finally:
            trace.uninstall()
        values = layer_values(trace, runner)
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
        samples["trace.overhead_ratio"].append(traced / plain)
        samples["cli.import_s"].append(runner.setup()[1])
        if counts is None:
            counts = {name: values[name] for name in EXACT_COUNTS}
            runner.problems += invariant_problems(values, trace, runner)
        elif counts != {name: values[name] for name in EXACT_COUNTS}:
            runner.problems.append("per-layer counts differ between traced rounds")
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    return {
        m["name"]: summary({"round": samples[m["name"]]}, m["unit"])
        for m in workloads.BENCHMARK["per_layer"]
    }


# ------------------------------------------------------------------- output


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Build, measure and check one workload; returns its run record."""
    workdir = WORK_ROOT / f"{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = workloads.build(name, workdir, seed)
        runner = Runner(workload, workdir, seed)
        metrics = (measure_layers if traced else measure_end_to_end)(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run still uses it
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "invocations": [inv.argv for inv in workload.invocations],
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_ratio": runner.failed / max(runner.attempted, 1),
        "problems": runner.problems,
        "speed_factor": summary({"all": runner.speed_factors}, "ratio")
        if runner.speed_factors
        else None,
        "correct": runner.failed == 0 and not runner.problems and runner.attempted > 0,
    }


def print_record(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: {record['why']}")
    for name, m in record["metrics"].items():
        print(
            f"  {name:34} {m['value']:>14.6g} {m['unit']:6}"
            f" q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  min {m['min']:.6g}  n {m['samples']}"
        )
    print(
        f"  {'error_ratio':34} {record['error_ratio']:>14.6g} {'ratio':6}"
        f" {record['failed']} of {record['attempted']} invocations failed a check"
    )
    factor = record["speed_factor"]
    if factor is not None:
        print(
            f"  {'speed_factor':34} {factor['value']:>14.6g} {'ratio':6}"
            f" q1 {factor['q1']:.6g}  q3 {factor['q3']:.6g}  min {factor['min']:.6g}"
            "  (reference speed over host speed; times above are scaled by it)"
        )
    for problem in record["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    # On SIGTERM, unwind so the running child is killed and reaped and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=workloads.BENCHMARK["run_seconds"],
        help="measuring time per workload; 0 runs one round",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="also write the run record as JSON here")
    args = parser.parse_args(argv)

    names = workloads.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    print("environment: " + json.dumps(environment()))
    for record in records:
        print_record(record)
    if args.record is not None:
        args.record.write_text(
            json.dumps({"environment": environment(), "runs": records}, indent=2) + "\n"
        )

    def key(record: dict, name: str) -> str:
        return name if len(records) == 1 else f"{record['workload']}:{name}"

    correct = all(record["correct"] for record in records)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": {
                    key(r, name): {"value": m["value"], "unit": m["unit"]}
                    for r in records
                    for name, m in r["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
