"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 2 compare the measured error norms against reference
convergence-table values at a factor-of-two tolerance.  The scheme as
specified (three chained Heun substeps of length k/3, plus sign) lands
roughly 35x BELOW those reference magnitudes, so the two error-magnitude
clauses fail and are expected to stay red; the rate, runtime and every
other criterion pass.  The README summarizes the analysis.
"""

from __future__ import annotations

import io
import time

import numpy as np

from tristep import (
    CpParams,
    PRESET_LABELS,
    SignConvention,
    advance_one_step,
    build_grid,
    composed_step,
    cp_rhs,
    example1,
    example2,
    format_config,
    integrate,
    parse_config,
    preset,
    run_convergence_study,
    run_scenario,
    sup_norm,
    zero_stability_root_moduli,
)
from tristep.cli import read_trajectory_csv, write_trajectory_csv
from tristep.scheme import RhsField

REFERENCE_ERRORS_EXAMPLE1 = (7.3475e-3, 2.1106e-3, 5.3296e-4, 1.3296e-4, 3.3238e-5)
REFERENCE_ERROR_EXAMPLE2_FINEST = 4.2566e-5


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}")


def test_criterion_01_example1_reference_table():
    start = time.perf_counter()
    rows = run_convergence_study(example1(), range(4, 9))
    elapsed = time.perf_counter() - start
    factors = [
        row.error_norm / reference
        for row, reference in zip(rows, REFERENCE_ERRORS_EXAMPLE1)
    ]
    errors_ok = all(0.5 <= factor <= 2.0 for factor in factors)
    finest_rate = rows[-1].rate
    rate_ok = finest_rate is not None and abs(finest_rate - 2.00) <= 0.05
    runtime_ok = elapsed < 1.0
    ok = errors_ok and rate_ok and runtime_ok
    _report(
        1,
        ok,
        "example1 errors/reference = "
        + ", ".join(f"{factor:.4f}" for factor in factors)
        + f" (need 0.5..2.0); finest rate {finest_rate:.4f} (need 2.00 +- 0.05); "
        + f"runtime {elapsed * 1e3:.0f} ms (need < 1 s)",
    )
    assert rate_ok, f"finest rate {finest_rate} outside 2.00 +- 0.05"
    assert runtime_ok, f"study took {elapsed:.3f} s"
    assert errors_ok, (
        "error norms are ~35x below the reference column "
        f"(factors {', '.join(f'{factor:.4f}' for factor in factors)}); "
        "the reference magnitudes are not reachable with the specified scheme"
    )


def test_criterion_02_example2_reference_table():
    start = time.perf_counter()
    rows = run_convergence_study(example2(), range(4, 9))
    elapsed = time.perf_counter() - start
    finest_rate = rows[-1].rate
    rate_ok = finest_rate is not None and abs(finest_rate - 1.99) <= 0.15
    factor = rows[-1].error_norm / REFERENCE_ERROR_EXAMPLE2_FINEST
    error_ok = 0.5 <= factor <= 2.0
    runtime_ok = elapsed < 1.0
    ok = rate_ok and error_ok and runtime_ok
    _report(
        2,
        ok,
        f"example2 finest rate {finest_rate:.4f} (need 1.99 +- 0.15); "
        f"error/reference at k=2^-8 = {factor:.4f} (need 0.5..2.0); "
        f"runtime {elapsed * 1e3:.0f} ms (need < 1 s)",
    )
    assert rate_ok, f"finest rate {finest_rate} outside 1.99 +- 0.15"
    assert runtime_ok, f"study took {elapsed:.3f} s"
    assert error_ok, (
        f"error at k=2^-8 is {factor:.4f}x the reference value; "
        "the reference magnitude is not reachable with the specified scheme"
    )


def test_criterion_03_order_property_and_sign_erratum():
    details = []
    ok = True
    for build in (example1, example2):
        problem = build()
        plus_rate = run_convergence_study(problem, [7, 8])[1].rate
        minus_rate = run_convergence_study(problem, [7, 8], SignConvention.MINUS)[1].rate
        plus_ok = plus_rate is not None and 1.9 <= plus_rate <= 2.1
        minus_ok = minus_rate is not None and not (1.75 <= minus_rate <= 2.15)
        ok = ok and plus_ok and minus_ok
        details.append(
            f"{problem.label}: plus {plus_rate:.4f} in [1.9, 2.1] -> {plus_ok}, "
            f"minus {minus_rate:.4f} outside [1.75, 2.15] -> {minus_ok}"
        )
    _report(3, ok, "; ".join(details))
    assert ok


def test_criterion_04_zero_stability():
    moduli = zero_stability_root_moduli()
    deviations = [abs(modulus - 1.0) for modulus in moduli]
    ok = len(moduli) == 3 and all(d <= 1e-15 for d in deviations)
    _report(
        4,
        ok,
        "root moduli deviate from 1 by "
        + ", ".join(f"{d:.2e}" for d in deviations)
        + " (need <= 1e-15)",
    )
    assert ok


def test_criterion_05_conservation_identity():
    rng = np.random.default_rng(20260809)
    worst = 0.0
    ok = True
    for _ in range(1000):
        p1, p2, beta1, beta2, mu = rng.uniform(0.0, 1.0, size=5)
        params = CpParams(
            theta=float(rng.uniform(0.0, 1e6)),
            gamma=float(rng.uniform(0.01, 1.0)),
            rho=float(rng.uniform(0.1, 5.0)),
            mu=float(mu),
            p1=float(p1),
            p2=float(p2),
            beta1=float(beta1),
            beta2=float(beta2),
            alpha1=float(rng.uniform(0.0, 1.5)),
            alpha2=float(rng.uniform(0.0, 1.5)),
            r1=float(rng.uniform(0.0, 2.0)),
            r2=float(rng.uniform(0.0, 2.0)),
            tau=float(rng.uniform(0.0, 2.0)),
            b1=float(rng.uniform(0.0, 2.0)),
            b2=float(rng.uniform(0.0, 2.0)),
            sigma=float(rng.uniform(0.0, 2.0)),
            N=float(rng.uniform(1e5, 5e7)),
        )
        y = rng.uniform(0.0, params.N, size=5)
        rates = cp_rhs(params).evaluate(0.0, y)
        residual = abs(float(rates.sum()) - (params.theta - params.gamma * y.sum()))
        bound = 1e-9 * max(1.0, params.gamma * float(y.sum()))
        worst = max(worst, residual / bound)
        ok = ok and residual <= bound
    _report(
        5,
        ok,
        f"1000 random draws; worst residual/bound = {worst:.2e} (need <= 1)",
    )
    assert ok


def test_criterion_06_composition_equivalence():
    rng = np.random.default_rng(77)
    manufactured = (example1().field, example2().field)
    mismatches = 0
    for trial in range(1000):
        if trial % 2 == 0:
            dim = int(rng.integers(2, 6))
            matrix = rng.normal(size=(dim, dim))
            field = RhsField(dim=dim, evaluate=lambda t, y, a=matrix: a @ y)
        else:
            field = manufactured[(trial // 2) % 2]
            dim = 3
        y = rng.normal(size=dim)
        t = float(rng.uniform(-2.0, 2.0))
        k = float(rng.uniform(0.01, 0.5))
        sign = SignConvention.PLUS if trial % 3 else SignConvention.MINUS
        chained = advance_one_step(field, t, y, k, sign)
        combined = composed_step(field, t, y, k, sign)
        if not np.array_equal(chained, combined):
            mismatches += 1
    ok = mismatches == 0
    _report(6, ok, f"1000 random inputs; bitwise mismatches = {mismatches} (need 0)")
    assert ok


def test_criterion_07_total_population_oracle():
    scenario = preset("cameroon-1960")
    params = scenario.params
    grid = build_grid(scenario.t0, scenario.t0 + 1.0, scenario.k)
    trajectory = integrate(cp_rhs(params), scenario.y0, grid)
    totals = trajectory.states.sum(axis=1)
    equilibrium = params.theta / params.gamma
    target = equilibrium + (float(np.asarray(scenario.y0).sum()) - equilibrium) * np.exp(
        -params.gamma * (grid.times() - scenario.t0)
    )
    worst = float(np.max(np.abs(totals - target) / target))
    ok = worst <= 5e-3
    _report(
        7,
        ok,
        f"one-year 1960 run at k=1e-3: worst relative deviation from the "
        f"closed-form total = {worst:.2e} (need <= 5e-3)",
    )
    assert ok


def test_criterion_08_scenario_tables():
    expected_eras = {"cameroon-1960": 5, "cameroon-1986": 4, "cameroon-2002": 5}
    ok = True
    details = []
    for label, n_eras in expected_eras.items():
        scenario = preset(label)
        trajectory_a, rows_a = run_scenario(scenario)
        trajectory_b, rows_b = run_scenario(scenario)
        shape_ok = len(rows_a) == 5 and all(
            len(row.era_averages) == n_eras for row in rows_a
        )
        deterministic = (
            np.array_equal(trajectory_a.states, trajectory_b.states) and rows_a == rows_b
        )
        initial_share = float(np.asarray(scenario.y0).sum() / scenario.params.N * 100.0)
        shares_ok = abs(initial_share - 100.0) <= 1e-9
        warning_ok = scenario.alpha_warning == (label == "cameroon-1960")
        ok = ok and shape_ok and deterministic and shares_ok and warning_ok
        details.append(
            f"{label}: 5x{n_eras} shape {shape_ok}, deterministic {deterministic}, "
            f"t0 shares {initial_share:.1f}%, alpha warning {scenario.alpha_warning}"
        )
    _report(8, ok, "; ".join(details))
    assert ok


def test_criterion_09_manufactured_residuals():
    worst = 0.0
    for build in (example1, example2):
        problem = build()
        for t in np.linspace(0.0, 1.0, 101):
            t = float(t)
            derivative = (
                np.asarray(problem.exact(t + 1e-6)) - np.asarray(problem.exact(t - 1e-6))
            ) / 2e-6
            residual = sup_norm(derivative - problem.field.evaluate(t, problem.exact(t)))
            worst = max(worst, residual)
    ok = worst <= 1e-8
    _report(
        9,
        ok,
        f"both problems, 101 points: worst residual {worst:.2e} (need <= 1e-8)",
    )
    assert ok


def test_criterion_10_round_trips():
    config_ok = True
    for label in PRESET_LABELS:
        scenario = preset(label)
        config = parse_config(format_config(scenario))
        config_ok = (
            config_ok
            and config.params == scenario.params
            and config.y0 == tuple(scenario.y0)
            and config.eras == scenario.era_boundaries
            and (config.t0, config.T, config.k) == (scenario.t0, scenario.T, scenario.k)
        )

    scenario = preset("cameroon-1986")
    grid = build_grid(scenario.t0, scenario.t0 + 1.0, 0.01)
    trajectory = integrate(cp_rhs(scenario.params), scenario.y0, grid)
    buffer = io.StringIO()
    write_trajectory_csv(buffer, trajectory)
    buffer.seek(0)
    times, states = read_trajectory_csv(buffer)
    trajectory_ok = np.array_equal(times, grid.times()) and np.array_equal(
        states, trajectory.states
    )

    ok = config_ok and trajectory_ok
    _report(
        10,
        ok,
        f"preset->config->parse identical: {config_ok}; "
        f"trajectory->CSV->parse identical: {trajectory_ok}",
    )
    assert ok
