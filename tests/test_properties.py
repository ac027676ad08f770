"""Invariants of the model, the scheme and the config format over random inputs."""

from __future__ import annotations

import io
import math
import textwrap
from array import array
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tristep import (
    CpParams,
    EraPreset,
    ManufacturedProblem,
    NumericalBlowupError,
    RhsField,
    SignConvention,
    Trajectory,
    advance_one_step,
    build_grid,
    composed_step,
    conservation_residual,
    cp_rhs,
    era_starts,
    era_summary,
    format_config,
    heun_substep,
    integrate,
    parse_config,
    positivity_step_bound,
    preset,
    preset_from_config,
)
from tristep import scheme, studies
from tristep.cli import read_trajectory_csv, write_trajectory_csv
from tristep.numerics import kept_indices

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


def _run(field, y0, grid, sign):
    """The states of a run, or what its blow-up carries."""
    try:
        return integrate(field, y0, grid, sign).states.tobytes()
    except NumericalBlowupError as err:
        return err.step_index, repr(err.t), array("d", err.last_state).tobytes(), err.partial_states.tobytes()


@PROPERTY
@given(
    params_and_state(),
    st.integers(1, 40),
    st.floats(1e-3, 2.0),
    st.sampled_from(SignConvention),
)
def test_array_field_steps_bitwise_as_its_component_form(case, steps, k, sign):
    params, y = case
    model = cp_rhs(params)
    # an array-only evaluate takes the kernel's adapter, not the component form
    wrapped = RhsField(dim=5, evaluate=lambda t, state: model.evaluate(t, state))
    grid = build_grid(0.0, k * steps, k)
    assert _run(wrapped, y, grid, sign) == _run(model, y, grid, sign)


def _forced_source(dim: int, u: str) -> str:
    """Rates of dimension ``dim``: quadratic in the state, forced by the time term ``u = {u}``."""
    rates = (f"f{j} = c{j} * y{j} * y{(j - 2) % dim + 1} - u" for j in range(1, dim + 1))
    return "\n".join([f"u = {u}", *rates])


@st.composite
def small_fields(draw):
    """A state and a field of dimension 1-8.

    The field is linear on arrays, quadratic as a component form, or
    quadratic as source forced by a term in t alone.
    """
    dim = draw(st.integers(1, 8))
    values = st.floats(-2.0, 2.0)
    c = draw(st.lists(values, min_size=dim, max_size=dim))
    form = draw(st.sampled_from(["array", "components", "source"]))
    if form == "array":
        a = draw(arrays(np.float64, (dim, dim), elements=values))
        field = RhsField(dim=dim, evaluate=lambda t, y: a @ y)
    elif form == "components":
        rates = ", ".join(f"f{j}" for j in range(1, dim + 1))
        state = ", ".join(f"y{j}" for j in range(1, dim + 1))
        field = RhsField.from_source(
            dim,
            f"{rates}, = g(t, ({state},))",
            constants={"g": lambda t, y: tuple(c[i] * y[i] * y[i - 1] - t for i in range(dim))},
        )
    else:
        constants = {"sin": math.sin, **{f"c{j}": c[j - 1] for j in range(1, dim + 1)}}
        field = RhsField.from_source(dim, _forced_source(dim, "t * sin(t)"), constants=constants)
    return field, draw(arrays(np.float64, dim, elements=values))


@PROPERTY
@given(
    small_fields(),
    st.floats(-10.0, 10.0),
    st.floats(1e-3, 1.0),
    st.sampled_from(SignConvention),
)
def test_generated_kernels_are_bitwise_the_ndarray_update(case, t, k, sign):
    field, y = case
    chained = advance_one_step(field, t, y, k, sign)
    assert chained.tobytes() == composed_step(field, t, y, k, sign).tobytes()
    h = k / 3.0
    f1 = field.evaluate(t, y)
    f2 = field.evaluate(t + h, y + h * f1)
    expected = y + sign.factor * (h / 2.0) * (f1 + f2)
    assert heun_substep(field, t, y, h, sign).tobytes() == expected.tobytes()


@PROPERTY
@given(st.integers(1, 6), st.floats(-10.0, 10.0), st.floats(1e-3, 1.0), st.integers(1, 5))
def test_time_terms_run_once_per_distinct_time(dim, t, k, steps):
    times = []

    def tick(at):
        times.append(at)
        return 0.0

    constants = {"tick": tick, **{f"c{j}": 0.5 for j in range(1, dim + 1)}}
    field = RhsField.from_source(dim, _forced_source(dim, "tick(t)"), constants=constants)
    y = np.full(dim, 0.25)
    h = k / 3.0
    heun_substep(field, t, y, h)
    assert times == [t, t + h]
    times.clear()
    advance_one_step(field, t, y, k)
    assert times == [t, t + h, (t + h) + h, ((t + h) + h) + h]
    times.clear()
    grid = build_grid(t, t + k * steps, k)
    integrate(field, y, grid)
    assert len(times) == 4 * grid.M


def _certified_grid(params, y, share, steps):
    """A grid of ``steps`` steps of about ``share`` times the positivity bound, never above it."""
    bound = positivity_step_bound(params, y)
    k = share * bound
    assume(0.0 < k and math.isfinite(k * steps))
    grid = build_grid(0.0, k * steps, k)
    assume(grid.k <= bound)
    return grid


@PROPERTY
@given(params_and_state(), st.floats(0.0, 1.0, exclude_min=True), st.integers(1, 40))
def test_steps_within_the_positivity_bound_keep_every_sample_nonnegative(case, share, steps):
    params, y = case
    grid = _certified_grid(params, y, share, steps)
    assert (integrate(cp_rhs(params), y, grid).states >= 0.0).all()


@PROPERTY
@given(params_and_state(), st.floats(0.0, 1.0, exclude_min=True), st.integers(1, 40))
def test_integrated_total_tracks_the_closed_form(case, share, steps):
    params, y = case
    assume(params.gamma > 0.0)
    # within the positivity bound every compartment stays in [0, P] and x = gamma*k/3 <= 1
    grid = _certified_grid(params, y, share, steps)
    totals = integrate(cp_rhs(params), y, grid).states.sum(axis=1)
    t = grid.times()
    gamma = params.gamma
    rest = params.theta / gamma
    deviation = float(y.sum()) - rest
    closed = rest + deviation * np.exp(-gamma * t)
    # the total obeys z' = theta - gamma*z, which each substep steps, in exact
    # arithmetic, as z - rest -> (1 - x + x^2/2) (z - rest); that factor and
    # e^-x both lie in [0, 1] and differ by at most x^3/6, so after t/h
    # substeps the total is off by t*gamma^3*h^2/6 of |deviation| at most
    defect = t * gamma**3 * (grid.k / 3.0) ** 2 / 6.0 * abs(deviation)
    # each step rounds a few dozen terms of size at most P = max(total0, rest);
    # 1e-13 P per step is about 450 ulps of P
    rounding = 1e-13 * (np.arange(grid.M + 1) + 1.0) * max(float(y.sum()), rest)
    assert (np.abs(totals - closed) <= defect + rounding).all()


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
    assert np.asarray(rebuilt.y0).tolist() == np.asarray(scenario.y0).tolist()
    assert (rebuilt.t0, rebuilt.T, rebuilt.k) == (scenario.t0, scenario.T, scenario.k)
    assert rebuilt.era_boundaries == scenario.era_boundaries


def _compiled_texts(run):
    """Every text compiled while ``run()`` runs on an empty kernel cache."""
    texts = []

    def spy(text, namespace):
        texts.append(text)
        exec(text, namespace)

    scheme._compiled.cache_clear()
    with mock.patch.object(scheme, "exec", spy, create=True):
        run()
    return texts


def _kernel_texts(params):
    """Every text compiled while a fresh field of ``params`` takes one step."""
    return _compiled_texts(lambda: advance_one_step(cp_rhs(params), 0.0, np.ones(5), 1e-3))


def test_each_use_compiles_only_the_function_it_runs():
    field = cp_rhs(preset("cameroon-1960").params)
    source = field.evaluate
    y = np.ones(5)

    def text(function):
        return scheme._kernel_text(function, 5, source.rates, tuple(source.constants))

    grid = build_grid(0.0, 1e-2, 1e-3)
    assert _compiled_texts(lambda: integrate(field, y, grid)) == [text("march")]
    # the substep runs on the component form; a fresh field compiles it again
    assert _compiled_texts(lambda: heun_substep(field, 0.0, y, 1e-3)) == [text("components")]
    fresh = cp_rhs(preset("cameroon-1960").params)
    assert _compiled_texts(lambda: fresh.evaluate(0.0, y)) == [text("components")]
    assert text("march").count("    def ") == 1  # the march alone
    # its per-step tail adds the state into two sums per component, and keeps the row
    assert text("march").count("+=") == 2 * 5 + 1
    # a run summed by eras and decimated compiles the same march
    fresh, eras = cp_rhs(preset("cameroon-1960").params), (0, 4, grid.M + 1)
    assert _compiled_texts(lambda: integrate(fresh, y, grid, eras=eras, every=3)) == [text("march")]


@PROPERTY
@given(scenarios())
def test_config_values_never_enter_the_kernel_source(case):
    scenario, sign = case
    params = preset_from_config(parse_config(format_config(scenario, sign))).params
    constants = cp_rhs(params).evaluate.constants
    assert all(type(value) is float for value in constants.values())
    assert _kernel_texts(params) == _kernel_texts(preset("cameroon-1960").params)


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
    return Trajectory(grid=grid, values=array("d", states.tobytes()))


def _round_trip(trajectory):
    """The (times, states) that ``trajectory``'s CSV reads back as."""
    stream = io.StringIO()
    write_trajectory_csv(stream, trajectory)
    stream.seek(0)
    return read_trajectory_csv(stream)


@PROPERTY
@given(params_and_state(), st.integers(1, 40), st.sampled_from([1e-3, 0.05, 0.5]), st.data())
def test_trajectory_csv_round_trip_is_exact(case, steps, k, data):
    """A run thinned by ``integrate(every=)`` reads back as the whole run's kept rows."""
    params, y0 = case
    field, grid = cp_rhs(params), build_grid(0.0, k * steps, k)
    every = data.draw(st.integers(0, grid.M + 5)) or None
    try:
        whole = integrate(field, y0, grid)
    except NumericalBlowupError:
        assume(False)
    times, states = _round_trip(integrate(field, y0, grid, every=every))
    idx = list(kept_indices(grid.M, every))
    assert times.tobytes() == grid.times()[idx].tobytes()
    assert states.tobytes() == whole.states[idx].tobytes()


@PROPERTY
@given(trajectories(), st.integers(1, 50))
def test_a_thinned_trajectory_of_any_floats_round_trips_exactly(trajectory, every):
    grid = trajectory.grid
    idx = list(kept_indices(grid.M, every))
    kept = trajectory.states[idx]
    times, states = _round_trip(Trajectory(grid, array("d", kept.tobytes()), every))
    assert times.tobytes() == grid.times()[idx].tobytes()
    assert states.tobytes() == kept.tobytes()


def _era_index_oracle(grid, bounds):
    """Era of every grid point by ``searchsorted`` over the grid's times, or the error text."""
    times = grid.times()
    n_eras = len(bounds) - 1
    index = np.minimum(np.searchsorted(bounds, times, side="right") - 1, n_eras - 1)
    held = np.bincount(index + 1, minlength=n_eras + 1)[1:]
    if not held.all():
        j = int(np.argmin(held))
        return f"era [{bounds[j]!r}, {bounds[j + 1]!r}) holds no grid point"
    return index


@st.composite
def grids_and_eras(draw):
    """A grid and increasing era boundaries, often on a grid point or one ulp below it."""
    t0 = draw(st.floats(-1e4, 1e4))
    span = draw(st.floats(1e-3, 1e3))
    grid = build_grid(t0, t0 + span, span / draw(st.integers(1, 300)))
    point = st.integers(0, grid.M).map(grid.time)
    bound = st.one_of(
        point,
        point.map(lambda t: math.nextafter(t, -math.inf)),
        st.floats(t0 - span / 8.0, grid.T + span / 8.0),
    )
    bounds = sorted(set(draw(st.lists(bound, min_size=2, max_size=8))))
    assume(len(bounds) >= 2)
    return grid, tuple(bounds)


@PROPERTY
@given(grids_and_eras())
def test_era_starts_agree_with_a_searchsorted_oracle(case):
    grid, bounds = case
    expected = _era_index_oracle(grid, bounds)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            era_starts(grid, bounds)
        assert str(info.value) == expected
        return
    starts = era_starts(grid, bounds)
    assert len(starts) == len(bounds) and starts[-1] == grid.M + 1
    index = np.full(grid.M + 1, -1)
    for j, (a, b) in enumerate(zip(starts, starts[1:])):
        index[a:b] = j
    assert np.array_equal(index, expected)


@PROPERTY
@given(
    grids_and_eras(),
    st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0]) | st.floats(-1e4, 1e4)),
)
def test_era_starts_rejects_any_boundaries_that_do_not_increase(case, offsets):
    grid, _ = case
    bounds = tuple(grid.t0 + offset for offset in offsets)
    assume(len(bounds) < 2 or any(b >= c for b, c in zip(bounds, bounds[1:])))
    with pytest.raises(ValueError, match="strictly increasing, two or more"):
        era_starts(grid, bounds)


@st.composite
def trajectories_and_eras(draw):
    """Any finite states over a grid, with era boundaries that leave no era empty."""
    trajectory = draw(trajectories())
    grid = trajectory.grid
    inner = draw(st.lists(st.integers(1, grid.M), max_size=6, unique=True))
    bounds = (grid.t0, *sorted(grid.time(n) for n in inner), grid.T)
    assume(all(a < b for a, b in zip(bounds, bounds[1:])))
    return trajectory, bounds


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # means of the largest doubles overflow
@PROPERTY
@given(trajectories_and_eras())
def test_era_means_are_bitwise_the_masked_means(case):
    trajectory, bounds = case
    index = _era_index_oracle(trajectory.grid, bounds)
    rows = era_summary(trajectory, bounds, 1.0)
    for j in range(len(bounds) - 1):
        masked = trajectory.states[index == j].mean(axis=0)
        sliced = np.array([row.era_averages[j] for row in rows])
        assert sliced.tobytes() == masked.tobytes()


@st.composite
def rows_and_eras(draw):
    """States of dimension 1-7, either sign, some columns all -0.0, over a grid
    split into random eras; magnitudes span a random range inside 1e-300 to
    1e300, narrow ranges included, where the order of the additions shows."""
    grid = build_grid(0.0, float(draw(st.integers(1, 60))), 1.0)
    dim = draw(st.integers(1, 7))
    low = draw(st.integers(-300, 299))
    magnitude = st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 10.0),
        st.integers(low, draw(st.integers(low, 299))),
    )
    element = st.one_of(magnitude, st.sampled_from([0.0, -0.0]))
    states = draw(arrays(np.float64, (grid.M + 1, dim), elements=element))
    for column in draw(st.sets(st.integers(0, dim - 1))):
        states[:, column] = -0.0
    inner = draw(st.sets(st.integers(1, grid.M - 1) if grid.M > 1 else st.nothing()))
    # a first bound inside era_summary's tolerance past t0 leaves row 0 in no era
    first = draw(st.sampled_from([0.0, 1e-12])) if min(inner, default=2) > 1 else 0.0
    bounds = (first, *map(float, sorted(inner)), float(grid.M))
    N = draw(st.floats(1.0, 1e9))
    return Trajectory(grid=grid, values=array("d", states.tobytes())), bounds, N


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # sums of the largest doubles overflow
@PROPERTY
@given(rows_and_eras())
def test_era_summary_is_bitwise_numpys_mean(case):
    trajectory, bounds, N = case
    states = trajectory.states
    starts = era_starts(trajectory.grid, bounds)
    rows = era_summary(trajectory, bounds, N)
    for j, (a, b) in enumerate(zip(starts, starts[1:])):
        era = np.array([row.era_averages[j] for row in rows])
        assert era.tobytes() == states[a:b].mean(axis=0).tobytes()
    overall = states.mean(axis=0)
    assert np.array([row.overall_average for row in rows]).tobytes() == overall.tobytes()
    shares = np.array([row.share_percent for row in rows])
    assert shares.tobytes() == (overall / N * 100.0).tobytes()
    assert trajectory.negativity_flag is None  # no kernel ran over a hand-built trajectory


@st.composite
def streamed_runs(draw):
    """Random policy levers and a state with some -0.0 entries, either sign,
    a step from safe to divergent, random era starts (row 0 in no era
    included) and ``every`` from 1 to M + 5 or None."""
    params, y0 = draw(params_and_state())
    y0[sorted(draw(st.sets(st.integers(0, 4))))] = -0.0
    steps = draw(st.integers(1, 60))
    k = draw(st.sampled_from([1e-3, 0.05, 0.5, 2.0]))
    grid = build_grid(0.0, k * steps, k)
    # era_summary cannot put an era boundary at T, so no era starts at M
    inner = draw(st.sets(st.integers(2, grid.M - 1))) if grid.M > 2 else ()
    first = draw(st.sampled_from([0, 1]))
    starts = (first, *sorted(inner), grid.M + 1)
    every = draw(st.integers(0, grid.M + 5)) or None
    return params, y0, grid, draw(st.sampled_from(SignConvention)), starts, every


def _floats(values):
    return array("d", values).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a divergent run overflows
# no shrink phase: shrinking a failure of this property takes minutes and hundreds of MB
@settings(PROPERTY, max_examples=300, phases=[p for p in Phase if p is not Phase.shrink])
@given(streamed_runs())
def test_a_streamed_run_is_bitwise_the_stored_run(case):
    """A run summed by eras and decimated, against the same run kept whole: the
    kept rows, the kernel's sums against era_summary's, the sign flag against
    the states."""
    params, y0, grid, sign, starts, every = case
    field = cp_rhs(params)
    try:
        whole = integrate(field, y0, grid, sign)
    except NumericalBlowupError as err:
        with pytest.raises(NumericalBlowupError) as decimated:
            integrate(field, y0, grid, sign, eras=starts, every=every)
        got, n, dim = decimated.value, err.step_index, len(err.last_state)
        assert (got.step_index, repr(got.t), got.last_state) == (n, repr(err.t), err.last_state)
        assert len(err.partial_states) == (n + 1) * dim
        kept = list(kept_indices(n, every))
        rows = b"".join(_floats(err.partial_states[m * dim : (m + 1) * dim]) for m in kept)
        assert got.partial_states.tobytes() == rows
        return
    run = integrate(field, y0, grid, sign, eras=starts, every=every)
    # a first era boundary inside era_summary's tolerance past t0 leaves row 0 in no era
    bounds = [1e-12 if n == 1 else grid.time(n) for n in starts[:-1]] + [grid.T]
    expected = era_summary(whole, bounds, params.N)
    got = studies._summary_rows(grid, starts, run.era_sums, run.overall_sums, params.N)
    assert [row.compartment for row in got] == [row.compartment for row in expected]
    for row, want in zip(got, expected):
        assert _floats(row.era_averages) == _floats(want.era_averages)
        assert _floats([row.overall_average, row.share_percent]) == _floats(
            [want.overall_average, want.share_percent]
        )
    assert era_starts(grid, bounds) == starts
    assert _floats(run.overall_sums) == _floats(whole.overall_sums)
    kept = list(kept_indices(grid.M, every))
    assert run.values.tobytes() == whole.states[kept].tobytes()
    assert run.negativity_flag is whole.negativity_flag is bool((whole.states < 0.0).any())


# lines of a shared margin, then more spaces and tabs, then text, whitespace or nothing
_INDENTED_TEXTS = st.builds(
    lambda margin, lines: "\n".join(margin + line for line in lines),
    st.text(" \t", max_size=4),
    st.lists(
        st.tuples(
            st.text(" \t", max_size=3),
            st.sampled_from(["", " ", "\t", " \t ", "f1 = y1", "a  b", "x\t", "\r", "\x0c"]),
        ).map("".join),
        max_size=8,
    ),
)


@PROPERTY
@given(st.one_of(_INDENTED_TEXTS, st.text(" \t\nab\r", max_size=40)))
def test_the_rates_dedent_is_textwraps(text):
    assert scheme._dedent(text) == textwrap.dedent(text)


@st.composite
def manufactured_problems(draw):
    """A dimension-3 problem whose solution is E_i(t) = c_i exp(l_i t) + d_i t**2.

    Each rate is E_i'(t) + l_i (y_i - E_i(t)), plus a bilinear coupling
    kap (y1 y2 - E1(t) E2(t)) that vanishes on the solution.  The scheme
    steps the t**2 terms exactly, so every l_i is kept away from 0: there
    the error would be rounding alone and have no order.
    """
    constants = {"exp": math.exp, "kap": draw(st.floats(-1.0, 1.0))}
    for i in (1, 2, 3):
        constants[f"l{i}"] = draw(st.floats(-2.0, 1.0).filter(lambda l: abs(l) >= 0.25))
        constants[f"c{i}"] = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from((-1.0, 1.0)))
        constants[f"d{i}"] = draw(st.floats(-1.0, 1.0))
    rates = "\n".join(
        [
            *(f"x{i} = c{i} * exp(l{i} * t)" for i in (1, 2, 3)),
            *(f"e{i} = x{i} + d{i} * t * t" for i in (1, 2, 3)),
            *(f"g{i} = l{i} * x{i} + 2.0 * d{i} * t" for i in (1, 2, 3)),
            "u = kap * (y1 * y2 - e1 * e2)",
            *(f"f{i} = g{i} + l{i} * (y{i} - e{i}) {sign} u" for i, sign in zip((1, 2, 3), "+-+")),
        ]
    )
    l, c, d = ([constants[f"{name}{i}"] for i in (1, 2, 3)] for name in "lcd")

    def exact(t):
        return tuple(ci * math.exp(li * t) + di * t * t for li, ci, di in zip(l, c, d))

    field = RhsField.from_source(3, rates, constants=constants)
    return ManufacturedProblem("random", field, exact)


@settings(PROPERTY, max_examples=100)
@given(manufactured_problems())
def test_the_finest_rate_is_second_order_on_random_problems(problem):
    rows = studies.run_convergence_study(problem, range(5, 9))
    assert rows[-1].rate == pytest.approx(2.0, abs=0.05)
