"""Invariants of the model, the scheme and the config format over random inputs."""

from __future__ import annotations

import io
from dataclasses import fields

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tristep import (
    CpParams,
    EraPreset,
    RhsField,
    SignConvention,
    Trajectory,
    advance_one_step,
    build_grid,
    composed_step,
    conservation_residual,
    cp_rhs,
    format_config,
    integrate,
    parse_config,
    preset_from_config,
)
from tristep.cli import read_trajectory_csv, trajectory_row_indices, write_trajectory_csv

# seeded, so that every run of the suite draws the same examples
PROPERTY = settings(deadline=None, derandomize=True, database=None)

_UNIT_INTERVAL = {"mu", "p1", "p2", "beta1", "beta2"}
_MAX_RATE = 10.0


def _field_values(name: str) -> st.SearchStrategy[float]:
    if name in _UNIT_INTERVAL:
        return st.floats(0.0, 1.0)
    if name == "theta":
        return st.floats(0.0, 1e6)
    if name == "N":
        return st.floats(1.0, 1e9)
    if name == "rho":
        return st.floats(0.0, _MAX_RATE, exclude_min=True)
    return st.floats(0.0, _MAX_RATE)


cp_params = st.fixed_dictionaries(
    {f.name: _field_values(f.name) for f in fields(CpParams)}
).map(lambda values: CpParams(**values))


@st.composite
def params_and_state(draw):
    """Valid rates and a nonnegative state with every compartment at most N."""
    params = draw(cp_params)
    state = draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    return params, params.N * np.array(state)


@PROPERTY
@given(params_and_state())
def test_conservation_residual_is_rounding_level(case):
    params, y = case
    # every term of the summed field is at most a few rates times the total;
    # one person is the floor, below which rounding is absolute, not relative
    rates = [getattr(params, f.name) for f in fields(CpParams) if f.name not in {"theta", "N"}]
    scale = params.theta + max(1.0, *rates) * float(y.sum())
    assert abs(conservation_residual(params, y)) <= 1e-13 * max(1.0, scale)


@PROPERTY
@given(params_and_state(), st.floats(1e-4, 1.0), st.sampled_from(SignConvention))
def test_composed_step_is_bitwise_the_chained_step(case, k, sign):
    params, y = case
    field = cp_rhs(params)
    chained = advance_one_step(field, 0.0, y, k, sign)
    assert np.array_equal(composed_step(field, 0.0, y, k, sign), chained)


@PROPERTY
@given(params_and_state(), st.integers(1, 30))
def test_integrate_evaluates_the_field_six_times_per_step(case, steps):
    params, y = case
    # a recruitment far above N drives the contact terms to overflow
    assume(params.theta <= params.N)
    model = cp_rhs(params)
    calls = []

    def evaluate(t, state):
        calls.append(t)
        return model.evaluate(t, state)

    # k <= 1e-3 keeps every run well inside the explicit stability region
    grid = build_grid(0.0, 1e-3 * steps, 1e-3)
    integrate(RhsField(dim=5, evaluate=evaluate), y, grid)
    assert len(calls) == 6 * grid.M


@st.composite
def scenarios(draw):
    """A valid scenario whose eras each start on a point of its grid."""
    params = draw(cp_params)
    shares = draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    assume(sum(shares) > 0.0)
    y0 = params.N * np.array(shares) / sum(shares)
    t0 = draw(st.floats(-1e4, 1e4))
    T = t0 + draw(st.floats(1e-3, 1e3))
    k = (T - t0) / draw(st.floats(1.0, 200.0))
    grid = build_grid(t0, T, k)
    inner = draw(st.sets(st.integers(1, grid.M - 1), max_size=6)) if grid.M > 1 else ()
    eras = (t0, *(grid.time(n) for n in sorted(inner)), T)
    scenario = EraPreset(
        label="drawn", params=params, y0=y0, t0=t0, T=T, k=k, era_boundaries=eras
    )
    return scenario, draw(st.sampled_from(SignConvention))


@PROPERTY
@given(scenarios())
def test_config_round_trip_is_exact(case):
    scenario, sign = case
    config = parse_config(format_config(scenario, sign))
    rebuilt = preset_from_config(config)
    assert config.sign is sign
    assert rebuilt.params == scenario.params
    assert rebuilt.y0.tolist() == scenario.y0.tolist()
    assert (rebuilt.t0, rebuilt.T, rebuilt.k) == (scenario.t0, scenario.T, scenario.k)
    assert rebuilt.era_boundaries == scenario.era_boundaries


@st.composite
def trajectories(draw):
    """Any finite states, from -0.0 to subnormals to the largest doubles."""
    t0 = draw(st.floats(-1e4, 1e4))
    span = draw(st.floats(1e-3, 1e3))
    steps = draw(st.integers(1, 40))
    grid = build_grid(t0, t0 + span, span / steps)
    dim = draw(st.integers(1, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    states = draw(arrays(np.float64, (grid.M + 1, dim), elements=finite))
    return Trajectory(grid=grid, states=states)


@PROPERTY
@given(trajectories(), st.integers(1, 50))
def test_trajectory_csv_round_trip_is_exact(trajectory, every):
    stream = io.StringIO()
    write_trajectory_csv(stream, trajectory, every)
    stream.seek(0)
    times, states = read_trajectory_csv(stream)
    idx = trajectory_row_indices(trajectory.grid.M, every)
    assert times.tobytes() == trajectory.grid.times()[idx].tobytes()
    assert states.tobytes() == trajectory.states[idx].tobytes()
