"""Workloads of the tristep benchmark: argv sets, seeded inputs, output checks.

Every workload is a fixed set of ``tristep`` invocations ("a round").  The
benchmark runs each invocation both as a fresh ``tristep`` process and
through ``tristep.cli.main`` in the benchmark's own interpreter, and checks
the exit code and the files every single invocation leaves behind.

``BENCHMARK.json`` at the root of the repository names the metrics and the
workloads the repeated, bounded runs use.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Time the sources of this checkout, never an installed copy of the package.
sys.path.insert(0, str(SRC))

import tristep  # noqa: E402
from tristep.config import format_config, parse_config, preset_from_config  # noqa: E402
from tristep.cpmodel import preset  # noqa: E402
from tristep.studies import run_scenario  # noqa: E402

if Path(tristep.__file__).resolve().parent != SRC / "tristep":
    raise ImportError(f"tristep was imported from {tristep.__file__}, not from {SRC}")

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

PRESETS = ("cameroon-1960", "cameroon-1986", "cameroon-2002")
PROBLEMS = ("example1", "example2")
CONVERGE_EXPONENTS = range(4, 14)

#: Parameter points per sweep-decimated round.
SWEEP_CONFIGS = 3
SWEEP_EVERY = 1000
#: The scheme integrates the total population with an RK2 recurrence, so the
#: integrated total leaves the closed form by about t*gamma^3*(k/3)^2/6
#: relative (4e-9 for cameroon-1960's horizon and gamma = 0.2) plus rounding.
SWEEP_TOTAL_REL_TOL = 1e-8
#: Observed order of the finest pair of a convergence table.
CONVERGE_RATE = (1.95, 2.05)


@dataclass
class Invocation:
    """One ``tristep`` argv and what a correct run of it leaves behind."""

    key: str
    argv: list[str]
    expected_exit: int
    steps: int
    outputs: dict[str, Path]
    blowup_step: int | None = None


@dataclass
class Workload:
    name: str
    why: str
    invocations: list[Invocation]
    #: What a fresh interpreter loads for set-up: (kind, argument, exponents).
    loads: list[tuple[str, str, list[int] | None]]
    expected_csv_rows: int
    #: Values a round must reproduce exactly, e.g. parsed sweep summaries.
    reference: dict = field(default_factory=dict)


#: Why each workload exists.  BENCHMARK.json lists the ones the repeated,
#: bounded runs use (with these same reasons); the others run on request.
WHY = {
    "preset-full": "the default user run: all three presets with every trajectory row"
    " written, the one workload where CSV emission in cli shows",
    "sweep-decimated": "seeded policy points from config files, decimated output: scheme"
    " and cpmodel do nearly all the work, emission almost none; config is parsed here only",
    "converge": "dimension-3 manufactured fields and the studies per-grid-point error"
    " loop, which no scenario touches; cpmodel is unused here",
    "blowup-minus": "the minus sign diverges on every preset: exit 4 and partial CSV, the"
    " failure path of scheme and cli; short, so import weighs most",
}
WORKLOAD_NAMES = tuple(WHY)


# ------------------------------------------------------------------ builders


def _preset_full(workdir: Path, seed: int) -> Workload:
    expected = EXPECTED["preset-full"]
    invocations = []
    for label in PRESETS:
        out = workdir / f"{label}.csv"
        summary = workdir / f"{label}.summary.csv"
        invocations.append(
            Invocation(
                key=label,
                argv=["simulate", "--preset", label, "--out", str(out), "--summary-out", str(summary)],
                expected_exit=0,
                steps=expected["steps"][label],
                outputs={out.name: out, summary.name: summary},
            )
        )
    return Workload(
        name="preset-full",
        why=WHY["preset-full"],
        invocations=invocations,
        loads=[("preset", label, None) for label in PRESETS],
        expected_csv_rows=expected["csv_rows"],
    )


def _converge(workdir: Path, seed: int) -> Workload:
    expected = EXPECTED["converge"]
    invocations = []
    for label in PROBLEMS:
        out = workdir / f"{label}.csv"
        invocations.append(
            Invocation(
                key=label,
                argv=["converge", label, f"{CONVERGE_EXPONENTS[0]}..{CONVERGE_EXPONENTS[-1]}", "--out", str(out)],
                expected_exit=0,
                steps=expected["steps"][label],
                outputs={out.name: out},
            )
        )
    return Workload(
        name="converge",
        why=WHY["converge"],
        invocations=invocations,
        loads=[("problem", label, list(CONVERGE_EXPONENTS)) for label in PROBLEMS],
        expected_csv_rows=expected["csv_rows"],
    )


def _blowup_minus(workdir: Path, seed: int) -> Workload:
    expected = EXPECTED["blowup-minus"]
    invocations = []
    for label in PRESETS:
        out = workdir / f"{label}.minus.csv"
        step = expected["blowup_step"][label]
        invocations.append(
            Invocation(
                key=label,
                argv=["simulate", "--preset", label, "--sign", "minus", "--out", str(out)],
                expected_exit=4,
                steps=step,
                outputs={out.name: out},
                blowup_step=step,
            )
        )
    return Workload(
        name="blowup-minus",
        why=WHY["blowup-minus"],
        invocations=invocations,
        loads=[("preset", label, None) for label in PRESETS],
        expected_csv_rows=expected["csv_rows"],
    )


def sweep_config_texts(seed: int, count: int = SWEEP_CONFIGS) -> list[str]:
    """Seeded policy points on the cameroon-1960 horizon, as config text.

    The policy levers are drawn inside ``CpParams`` validity; the contact
    rates are derived as p*(1 - beta), so no mismatch warning fires.
    """
    rng = random.Random(seed)
    base = preset("cameroon-1960")
    texts = []
    for i in range(count):
        beta1 = rng.uniform(0.05, 0.95)
        beta2 = rng.uniform(0.05, 0.95)
        params = dataclasses.replace(
            base.params,
            beta1=beta1,
            beta2=beta2,
            alpha1=base.params.p1 * (1.0 - beta1),
            alpha2=base.params.p2 * (1.0 - beta2),
            tau=rng.uniform(0.1, 1.0),
            b1=rng.uniform(0.05, 0.6),
            b2=rng.uniform(0.05, 0.6),
            sigma=rng.uniform(0.1, 1.2),
        )
        scenario = dataclasses.replace(
            base, label=f"sweep-seed{seed}-{i}", params=params, alpha_warning=False
        )
        texts.append(format_config(scenario))
    return texts


def _sweep_decimated(workdir: Path, seed: int) -> Workload:
    expected = EXPECTED["sweep-decimated"]
    invocations, loads, reference = [], [], {}
    for i, text in enumerate(sweep_config_texts(seed)):
        cfg = workdir / f"sweep-{i}.cfg"
        cfg.write_text(text, encoding="utf-8")
        loads.append(("config", str(cfg), None))
        out = workdir / f"sweep-{i}.csv"
        summary = workdir / f"sweep-{i}.summary.csv"
        key = f"sweep-{i}"
        invocations.append(
            Invocation(
                key=key,
                argv=[
                    "simulate", "--config", str(cfg), "--every", str(SWEEP_EVERY),
                    "--out", str(out), "--summary-out", str(summary),
                ],
                expected_exit=0,
                steps=expected["steps_per_config"],
                outputs={out.name: out, summary.name: summary},
            )
        )
        scenario = preset_from_config(parse_config(text))
        _, rows = run_scenario(scenario)
        reference[key] = {
            "scenario": scenario,
            "summary": [
                (row.compartment, *row.era_averages, row.overall_average, row.share_percent)
                for row in rows
            ],
        }
    return Workload(
        name="sweep-decimated",
        why=WHY["sweep-decimated"],
        invocations=invocations,
        loads=loads,
        expected_csv_rows=expected["csv_rows_per_config"] * SWEEP_CONFIGS,
        reference=reference,
    )


_BUILDERS = {
    "preset-full": _preset_full,
    "sweep-decimated": _sweep_decimated,
    "converge": _converge,
    "blowup-minus": _blowup_minus,
}


def build(name: str, workdir: Path, seed: int) -> Workload:
    """Make the workload's inputs under ``workdir``; the same seed gives the same inputs."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](workdir, seed)


# -------------------------------------------------------------------- checks


def check(workload: Workload, inv: Invocation, exit_code: int, stderr: str) -> list[str]:
    """Problems with one finished invocation; an empty list means correct."""
    problems = []
    if exit_code != inv.expected_exit:
        problems.append(f"{inv.key}: exit {exit_code}, expected {inv.expected_exit}")
    missing = [name for name, path in inv.outputs.items() if not path.is_file()]
    if missing:
        return problems + [f"{inv.key}: missing output {', '.join(missing)}"]
    digests = EXPECTED[workload.name].get("sha256", {})
    for name, path in inv.outputs.items():
        if name in digests and hashlib.sha256(path.read_bytes()).hexdigest() != digests[name]:
            problems.append(f"{inv.key}: {name} differs from the recorded output")
    if inv.blowup_step is not None and f"numerical blow-up at step {inv.blowup_step} " not in stderr:
        problems.append(f"{inv.key}: stderr does not report blow-up at step {inv.blowup_step}")
    if workload.name == "converge":
        problems += _check_converge_rate(inv)
    if workload.name == "sweep-decimated":
        problems += _check_sweep(workload.reference[inv.key], inv)
    return problems


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as stream:
        return list(csv.reader(stream))


def _check_converge_rate(inv: Invocation) -> list[str]:
    (path,) = inv.outputs.values()
    rate = float(read_csv(path)[-1][4])
    lo, hi = CONVERGE_RATE
    if not lo <= rate <= hi:
        return [f"{inv.key}: finest-pair rate {rate!r} outside [{lo}, {hi}]"]
    return []


def _check_sweep(reference: dict, inv: Invocation) -> list[str]:
    problems = []
    scenario = reference["scenario"]
    trajectory_path, summary_path = inv.outputs.values()

    # compartment total against d(total)/dt = theta - gamma*total
    theta, gamma = scenario.params.theta, scenario.params.gamma
    equilibrium = theta / gamma
    total0 = float(sum(scenario.y0))
    rows = read_csv(trajectory_path)[1:]
    expected_rows = EXPECTED["sweep-decimated"]["trajectory_rows"]
    if len(rows) != expected_rows:
        problems.append(f"{inv.key}: {len(rows)} trajectory rows, expected {expected_rows}")
    for row in rows:
        t = float(row[0])
        total = math.fsum(float(v) for v in row[1:])
        closed = equilibrium + (total0 - equilibrium) * math.exp(-gamma * (t - scenario.t0))
        if not abs(total - closed) <= SWEEP_TOTAL_REL_TOL * abs(closed):
            problems.append(f"{inv.key}: total {total!r} at t={t!r} is off the closed form {closed!r}")
            break

    # the CLI summary must equal run_scenario bit for bit
    summary = read_csv(summary_path)[1:]
    if len(summary) != len(reference["summary"]):
        return problems + [f"{inv.key}: summary has {len(summary)} rows"]
    for got, want in zip(summary, reference["summary"]):
        name, *values, share = want
        share_ok = len(got) == len(values) + 2 and abs(float(got[-1]) - share) <= 0.05 + 1e-9
        if got[0] != name or not share_ok or [float(v) for v in got[1:-1]] != values:
            problems.append(f"{inv.key}: summary row {name} differs from run_scenario")
    return problems
