"""Convergence tables and era summaries."""

from __future__ import annotations

import dataclasses
from array import array

import numpy as np
import pytest

from tristep import (
    CpParams,
    EraPreset,
    ManufacturedProblem,
    RhsField,
    SignConvention,
    Trajectory,
    build_grid,
    era_summary,
    example1,
    example2,
    preset,
    run_convergence_study,
    run_scenario,
)
from tristep.cli import trajectory_row_indices
from tristep.scheme import NumericalBlowupError

# Regression values confirmed against an independently coded run of the same
# scheme; the fourth-order reference oracle in test_scheme pins correctness.
FROZEN_ERROR_NORMS = {
    "example1": (2.511321e-04, 6.152731e-05, 1.522569e-05, 3.786951e-06, 9.443069e-07),
    "example2": (2.350672e-04, 5.765981e-05, 1.427645e-05, 3.551789e-06, 8.857812e-07),
}

# Published era tables for the three scenarios (values in persons).  The
# printed drifts of ~1% per era are not reachable from the stated flow rates
# by forward integration in calendar-year units, so these serve shape
# comparison only; the harness emits what the model and scheme produce.
REFERENCE_ERA_TABLE_1960 = {
    "y1": (3.5077e6, 3.5233e6, 3.5428e6, 3.5664e6, 3.5862e6),
    "y2": (1.5040e6, 1.5119e6, 1.5219e6, 1.5340e6, 1.5442e6),
    "y3": (1.5003e6, 1.5010e6, 1.5019e6, 1.5028e6, 1.5036e6),
    "y4": (0.4994e6, 0.4982e6, 0.4966e6, 0.4947e6, 0.4930e6),
    "y5": (2.9938e6, 2.9813e6, 2.9656e6, 2.9467e6, 2.9308e6),
}


def constant_trajectory(grid, values):
    states = np.tile(np.asarray(values, dtype=float), (grid.M + 1, 1))
    return Trajectory(grid=grid, values=array("d", states.tobytes()))


def balanced_preset():
    # theta = gamma*N with everyone susceptible and sigma = 0 freezes y1, y5
    params = CpParams(
        theta=2e5,
        gamma=0.2,
        rho=1.0,
        mu=0.5,
        p1=0.5,
        p2=0.5,
        beta1=0.0,
        beta2=0.0,
        alpha1=0.5,
        alpha2=0.5,
        r1=0.3,
        r2=0.3,
        tau=0.4,
        b1=0.1,
        b2=0.1,
        sigma=0.0,
        N=1e6,
    )
    return EraPreset(
        label="balanced",
        params=params,
        y0=np.array([1e6, 0.0, 0.0, 0.0, 0.0]),
        t0=0.0,
        T=1.0,
        k=1e-3,
        era_boundaries=(0.0, 0.5, 1.0),
    )


# -------------------------------------------------------- convergence studies


@pytest.mark.parametrize("build", [example1, example2])
def test_error_norms_match_frozen_regression_values(build):
    prob = build()
    rows = run_convergence_study(prob, range(4, 9))
    for row, frozen in zip(rows, FROZEN_ERROR_NORMS[prob.label]):
        assert row.error_norm == pytest.approx(frozen, rel=1e-4)


def test_rows_run_coarse_to_fine_and_first_rate_is_absent():
    rows = run_convergence_study(example1(), [4, 5, 6])
    assert [row.k for row in rows] == [2.0**-4, 2.0**-5, 2.0**-6]
    assert rows[0].rate is None
    assert all(row.rate is not None for row in rows[1:])


@pytest.mark.parametrize("build", [example1, example2])
def test_observed_rates_sit_in_the_second_order_window(build):
    rows = run_convergence_study(build(), range(4, 9))
    rates = [row.rate for row in rows[1:]]
    # pairs at k <= 2**-5 must sit inside [1.75, 2.15]
    for rate in rates[1:]:
        assert 1.75 <= rate <= 2.15
    # the trend tightens towards 2 and ends inside [1.9, 2.1]
    gaps = [abs(rate - 2.0) for rate in rates]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert 1.9 <= rates[-1] <= 2.1


def test_example2_fine_pair_rate_matches_reference():
    rows = run_convergence_study(example2(), [7, 8])
    assert rows[1].rate == pytest.approx(1.99, abs=0.15)


def test_exact_norm_column_is_step_insensitive():
    rows = run_convergence_study(example1(), [4, 8])
    assert rows[0].exact_norm == pytest.approx(rows[1].exact_norm, rel=1e-3)


@pytest.mark.parametrize("build", [example1, example2])
def test_minus_sign_mode_breaks_second_order(build):
    rows = run_convergence_study(build(), [7, 8], SignConvention.MINUS)
    assert rows[1].rate is not None
    assert not 1.75 <= rows[1].rate <= 2.15


def test_degenerate_zero_field_yields_zero_errors_and_no_rates():
    flat = ManufacturedProblem(
        label="flat",
        field=RhsField(dim=3, evaluate=lambda t, y: np.zeros(3)),
        exact=lambda t: np.zeros(3),
    )
    rows = run_convergence_study(flat, [2, 3])
    assert all(row.error_norm == 0.0 for row in rows)
    assert all(row.rate is None for row in rows)


def test_exponent_validation():
    with pytest.raises(ValueError):
        run_convergence_study(example1(), [])
    with pytest.raises(ValueError):
        run_convergence_study(example1(), [0, 1])
    with pytest.raises(ValueError):
        run_convergence_study(example1(), [4, 4])
    with pytest.raises(ValueError):
        run_convergence_study(example1(), [5, 4])


# --------------------------------------------------------------- era summary


def test_era_summary_of_constant_trajectory():
    grid = build_grid(1986.0, 2002.0, 0.1)
    values = np.array([2.4e6, 3.2e6, 6.4e6, 2.4e6, 1.6e6])
    rows = era_summary(
        constant_trajectory(grid, values),
        (1986.0, 1990.0, 1994.0, 1998.0, 2002.0),
        1.6e7,
    )
    assert [row.compartment for row in rows] == ["y1", "y2", "y3", "y4", "y5"]
    assert all(len(row.era_averages) == 4 for row in rows)
    for i, row in enumerate(rows):
        for average in row.era_averages:
            assert average == pytest.approx(values[i], rel=1e-15)
        assert row.overall_average == pytest.approx(values[i], rel=1e-15)
        assert row.share_percent == pytest.approx(values[i] / 1.6e7 * 100.0, rel=1e-12)
    share_total = sum(row.share_percent for row in rows)
    assert share_total == pytest.approx(100.0, abs=1e-9)


def test_era_summary_matches_sample_mean_oracle_on_a_ramp():
    grid = build_grid(0.0, 2.0, 0.25)
    states = np.outer(grid.times(), np.array([1.0, 2.0]))
    traj = Trajectory(grid=grid, values=array("d", states.tobytes()))
    rows = era_summary(traj, (0.0, 1.0, 2.0), 10.0)
    # era 1 holds t in {0, .25, .5, .75}; era 2 holds t in {1, ..., 2}
    assert rows[0].era_averages == pytest.approx((0.375, 1.5), rel=1e-15)
    assert rows[1].era_averages == pytest.approx((0.75, 3.0), rel=1e-15)
    assert rows[0].overall_average == pytest.approx(1.0, rel=1e-15)
    assert rows[0].share_percent == pytest.approx(10.0, rel=1e-13)
    # shares add up to (mean total population) / N * 100
    share_total = sum(row.share_percent for row in rows)
    mean_total = float(states.sum(axis=1).mean())
    assert share_total == pytest.approx(mean_total / 10.0 * 100.0, rel=1e-13)


def test_era_summary_rejects_mismatched_boundaries():
    grid = build_grid(0.0, 2.0, 0.25)
    traj = constant_trajectory(grid, np.ones(5))
    with pytest.raises(ValueError):
        era_summary(traj, (0.0, 1.0), 10.0)  # stops short of T
    with pytest.raises(ValueError):
        era_summary(traj, (0.5, 2.0), 10.0)  # starts after t0
    with pytest.raises(ValueError):
        era_summary(traj, (0.0, 2.0, 1.0), 10.0)  # not increasing
    with pytest.raises(ValueError):
        era_summary(traj, (0.0, 2.0), -1.0)  # bad population


def test_reference_table_shape_is_reproduced_for_1960():
    # the reference values themselves are not reachable (see module comment),
    # but the emitted table must carry the same rows and era columns
    scenario = preset("cameroon-1960")
    grid = build_grid(scenario.t0, scenario.T, 1.0)
    rows = era_summary(
        constant_trajectory(grid, scenario.y0),
        scenario.era_boundaries,
        scenario.params.N,
    )
    assert [row.compartment for row in rows] == list(REFERENCE_ERA_TABLE_1960)
    for row in rows:
        assert len(row.era_averages) == len(REFERENCE_ERA_TABLE_1960[row.compartment])


# -------------------------------------------------------------- run_scenario


def test_balanced_scenario_freezes_y1_and_y5():
    trajectory, rows = run_scenario(balanced_preset())
    y1 = trajectory.states[:, 0]
    y5 = trajectory.states[:, 4]
    assert np.max(np.abs(y1 - 1e6)) <= 1e-6 * 1e6
    assert np.max(np.abs(y5)) <= 1e-6 * 1e6
    assert len(rows) == 5
    assert all(len(row.era_averages) == 2 for row in rows)


def test_run_scenario_steps_the_presets_grid():
    scenario = dataclasses.replace(preset("cameroon-1986"), k=2e-3)
    trajectory, rows = run_scenario(scenario)
    assert trajectory.grid == build_grid(1986.0, 2002.0, 2e-3)
    assert trajectory.grid.M == 8000
    assert len(trajectory.values) == 5 * 8001
    assert all(len(row.era_averages) == 4 for row in rows)


def test_scenario_is_bitwise_deterministic():
    first_traj, first_rows = run_scenario(balanced_preset())
    second_traj, second_rows = run_scenario(balanced_preset())
    assert np.array_equal(first_traj.states, second_traj.states)
    assert first_rows == second_rows


def test_scenario_era_averages_are_step_size_robust():
    scenario = preset("cameroon-1986")
    _, rows = run_scenario(scenario)
    halved = EraPreset(
        label=scenario.label,
        params=scenario.params,
        y0=scenario.y0,
        t0=scenario.t0,
        T=scenario.T,
        k=scenario.k / 2.0,
        era_boundaries=scenario.era_boundaries,
        alpha_warning=scenario.alpha_warning,
    )
    _, halved_rows = run_scenario(halved)
    for row, other in zip(rows, halved_rows):
        for a, b in zip(row.era_averages, other.era_averages):
            assert abs(a - b) <= 1e-3 * max(abs(a), abs(b))


@pytest.mark.parametrize("label", ["cameroon-1960", "cameroon-1986", "cameroon-2002"])
def test_a_streamed_scenario_is_bitwise_the_stored_one(label):
    # the eras and the kept rows cross the kernel's blocks of BLOCK_ROWS steps
    scenario = preset(label)
    trajectory, rows = run_scenario(scenario)
    M = scenario.grid.M
    for every in (1, 7, 1000, M, M + 1, None):
        run, streamed_rows = run_scenario(scenario, streamed=True, every=every)
        assert repr(streamed_rows) == repr(rows)  # repr tells -0.0 from 0.0
        kept = trajectory_row_indices(M, every) if every else []
        assert run.rows.tobytes() == trajectory.states[kept].tobytes()
        assert run.negativity_flag is trajectory.negativity_flag


@pytest.mark.parametrize("label", ["cameroon-1960", "cameroon-1986", "cameroon-2002"])
def test_a_streamed_blowup_carries_the_kept_rows_of_the_stored_one(label):
    scenario = preset(label)
    with pytest.raises(NumericalBlowupError) as stored:
        run_scenario(scenario, SignConvention.MINUS)
    n = stored.value.step_index
    states = np.frombuffer(stored.value.partial_states).reshape(n + 1, 5)
    for every in (1, 7, 1000, n, n + 1, None):
        with pytest.raises(NumericalBlowupError) as streamed:
            run_scenario(scenario, SignConvention.MINUS, streamed=True, every=every)
        err = streamed.value
        assert (err.step_index, err.t, err.last_state) == (
            n,
            stored.value.t,
            stored.value.last_state,
        )
        kept = trajectory_row_indices(n, every) if every else []
        assert err.partial_states.tobytes() == states[kept].tobytes()
