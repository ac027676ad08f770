"""Substeps, macro steps, trajectories and the stability diagnostics."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import pickle
from array import array

import numpy as np
import pytest

from tristep import (
    NumericalBlowupError,
    RhsField,
    SignConvention,
    advance_one_step,
    build_grid,
    composed_step,
    cp_rhs,
    example1,
    example2,
    heun_substep,
    integrate,
    preset,
    run_scenario,
    sup_norm,
    zero_stability_root_moduli,
    zero_stability_roots,
)
from tristep.numerics import BLOCK_ROWS, TimeGrid


def constant_field(values):
    vec = np.asarray(values, dtype=float)
    return RhsField(dim=vec.size, evaluate=lambda t, y: vec.copy())


def linear_field(matrix):
    a = np.asarray(matrix, dtype=float)
    return RhsField(dim=a.shape[0], evaluate=lambda t, y: a @ y)


def counting_field(dim=1):
    calls = []

    def evaluate(t, y):
        calls.append(t)
        return np.zeros(dim)

    return RhsField(dim=dim, evaluate=evaluate), calls


def component_field(dim, g):
    """The field of the component form ``g(t, (y1, ..., yd)) -> (f1, ..., fd)``."""
    rates = ", ".join(f"f{j}" for j in range(1, dim + 1))
    state = ", ".join(f"y{j}" for j in range(1, dim + 1))
    return RhsField.from_source(dim, f"{rates}, = g(t, ({state},))", constants={"g": g})


def failing_field(bad_call, as_components):
    """Zero dimension-2 field whose evaluation number ``bad_call`` (from 1) is infinite."""
    calls = []

    def components(t, y):
        calls.append(t)
        value = math.inf if len(calls) == bad_call else 0.0
        return (value, value)

    if as_components:
        return component_field(2, components), calls
    return RhsField(dim=2, evaluate=lambda t, y: np.array(components(t, y))), calls


#: scalar y' = y
GROWTH = RhsField(dim=1, evaluate=lambda t, y: y.copy())


def rk4_states(f, y0, steps):
    """Classical fourth-order one-step reference run over [0, 1]."""
    k = 1.0 / steps
    y = np.asarray(y0, dtype=float)
    out = [y]
    for n in range(steps):
        t = n * k
        s1 = f.evaluate(t, y)
        s2 = f.evaluate(t + k / 2.0, y + (k / 2.0) * s1)
        s3 = f.evaluate(t + k / 2.0, y + (k / 2.0) * s2)
        s4 = f.evaluate(t + k, y + k * s3)
        y = y + (k / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
        out.append(y)
    return np.array(out)


# ----------------------------------------------------------------- substeps


def test_substep_zero_field_is_identity():
    y = np.array([1.5, -2.0, 0.25])
    out = heun_substep(constant_field([0.0, 0.0, 0.0]), 0.7, y, 0.2)
    assert np.array_equal(out, y)


def test_substep_constant_field_advances_by_h_c():
    c = np.array([2.0, -1.0])
    y = np.array([0.5, 0.5])
    out = heun_substep(constant_field(c), 0.0, y, 0.25)
    np.testing.assert_allclose(out, y + 0.25 * c, rtol=1e-15)


def test_substep_linear_growth_hand_value():
    # 1 + 0.15 * (1 + 1.3) = 1.345 for y' = y, y = 1, h = 0.3
    out = heun_substep(GROWTH, 0.0, np.array([1.0]), 0.3)
    assert out[0] == pytest.approx(1.345, rel=1e-14)


def test_substep_minus_mode_mirrors_the_update():
    y = np.array([1.0])
    plus = heun_substep(GROWTH, 0.0, y, 0.3)
    minus = heun_substep(GROWTH, 0.0, y, 0.3, SignConvention.MINUS)
    assert minus[0] == pytest.approx(2.0 * y[0] - plus[0], rel=1e-14)


def test_substep_uses_exactly_two_evaluations():
    f, calls = counting_field()
    heun_substep(f, 0.0, np.zeros(1), 0.1)
    assert len(calls) == 2


def test_substep_validates_inputs():
    with pytest.raises(ValueError):
        heun_substep(GROWTH, 0.0, np.ones(1), 0.0)
    with pytest.raises(ValueError):
        heun_substep(GROWTH, 0.0, np.ones(1), -0.1)
    with pytest.raises(ValueError):
        heun_substep(GROWTH, 0.0, np.ones(2), 0.1)


def test_substep_blowup_carries_time():
    bad = RhsField(dim=1, evaluate=lambda t, y: np.array([math.inf]))
    with pytest.raises(NumericalBlowupError) as excinfo:
        heun_substep(bad, 1.25, np.array([0.0]), 0.1)
    assert excinfo.value.t == 1.25


# --------------------------------------------------------------- macro steps


def test_macro_step_zero_field_is_identity():
    y = np.array([3.0, -4.0])
    out = advance_one_step(constant_field([0.0, 0.0]), 0.3, y, 0.6)
    assert np.array_equal(out, y)


def test_macro_step_constant_field_advances_by_k_c():
    c = np.array([1.0, -2.0, 0.5])
    y = np.zeros(3)
    out = advance_one_step(constant_field(c), 0.0, y, 0.3)
    np.testing.assert_allclose(out, 0.3 * c, rtol=1e-14)


def test_macro_step_linear_growth_amplification():
    # each substep multiplies by 1 + z + z**2/2 with z = k/3 = 0.1
    out = advance_one_step(GROWTH, 0.0, np.array([1.0]), 0.3)
    assert out[0] == pytest.approx(1.349232625, rel=1e-12)


def test_macro_step_uses_exactly_six_evaluations():
    f, calls = counting_field()
    advance_one_step(f, 0.0, np.zeros(1), 0.3)
    assert len(calls) == 6


def test_macro_step_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        advance_one_step(GROWTH, 0.0, np.ones(1), 0.0)


# ------------------------------------------------------- composed equivalence


def test_composed_step_trivial_fields():
    y = np.array([1.0, 2.0])
    assert np.array_equal(composed_step(constant_field([0.0, 0.0]), 0.0, y, 0.3), y)
    c = np.array([2.0, -3.0])
    np.testing.assert_allclose(
        composed_step(constant_field(c), 0.0, y, 0.3), y + 0.3 * c, rtol=1e-14
    )


def test_composed_step_matches_chained_form_bitwise():
    rng = np.random.default_rng(2024)
    problems = (example1().field, example2().field)
    for _ in range(250):
        if rng.random() < 0.5:
            dim = int(rng.integers(2, 6))
            f = linear_field(rng.normal(size=(dim, dim)))
        else:
            f = problems[int(rng.integers(0, 2))]
            dim = 3
        y = rng.normal(size=dim)
        t = float(rng.uniform(-2.0, 2.0))
        k = float(rng.uniform(0.01, 0.5))
        for sign in SignConvention:
            chained = advance_one_step(f, t, y, k, sign)
            combined = composed_step(f, t, y, k, sign)
            assert np.array_equal(chained, combined)


# ---------------------------------------------------------------- integrate


def test_integrate_zero_field_keeps_initial_state():
    grid = build_grid(0.0, 1.0, 0.1)
    y0 = np.array([2.0, 3.0])
    traj = integrate(constant_field([0.0, 0.0]), y0, grid)
    assert traj.states.shape == (11, 2)
    assert np.array_equal(traj.states, np.tile(y0, (11, 1)))
    assert not traj.negativity_flag


def test_integrate_starts_from_the_supplied_state():
    grid = build_grid(0.0, 1.0, 0.5)
    y0 = np.array([0.125, -0.25, 8.0])
    traj = integrate(constant_field([0.0, 0.0, 0.0]), y0, grid)
    assert np.array_equal(traj.states[0], y0)


def test_integrate_flags_negative_entries():
    grid = build_grid(0.0, 1.0, 0.1)
    traj = integrate(constant_field([-1.0]), np.array([0.05]), grid)
    assert traj.negativity_flag


def test_integrate_matches_fourth_order_reference():
    # classical one-step fourth-order oracle at k = 2**-12
    prob = example1()
    grid = build_grid(0.0, 1.0, 2.0**-6)
    traj = integrate(prob.field, prob.y0, grid)
    reference = rk4_states(prob.field, prob.y0, 2**12)
    stride = 2**12 // 2**6
    for n in range(grid.M + 1):
        assert sup_norm(traj.states[n] - reference[n * stride]) <= 1e-3


def test_integrate_is_bitwise_deterministic():
    prob = example2()
    grid = build_grid(0.0, 1.0, 2.0**-5)
    first = integrate(prob.field, prob.y0, grid)
    second = integrate(prob.field, prob.y0, grid)
    assert np.array_equal(first.states, second.states)


def test_integrate_commutes_with_dyadic_state_scaling():
    rng = np.random.default_rng(5)
    f = linear_field(0.5 * rng.normal(size=(4, 4)))
    grid = build_grid(0.0, 1.0, 0.02)
    y0 = rng.normal(size=4)
    base = integrate(f, y0, grid)
    for alpha in (2.0, 0.25):
        scaled = integrate(f, alpha * y0, grid)
        assert np.array_equal(scaled.states, alpha * base.states)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_reports_blowup_step_and_partial_run():
    f = RhsField(dim=1, evaluate=lambda t, y: y * y)  # finite-time blow-up
    grid = build_grid(0.0, 1.0, 0.01)
    with pytest.raises(NumericalBlowupError) as excinfo:
        integrate(f, np.array([3.0]), grid)
    err = excinfo.value
    assert err.step_index is not None
    assert 0 < err.step_index < grid.M
    assert np.asarray(err.partial_states).shape == (err.step_index + 1,)
    assert np.isfinite(np.asarray(err.partial_states)).all()
    assert np.isfinite(np.asarray(err.last_state)).all()


@pytest.mark.parametrize("as_components", [False, True], ids=["array", "components"])
@pytest.mark.parametrize("substep", [2, 3])
def test_integrate_blowup_names_the_failing_substep_without_reevaluating(
    substep, as_components
):
    n = 4
    # evaluations 6n+1 .. 6n+6 belong to step n, two per substep
    f, calls = failing_field(6 * n + 2 * substep - 1, as_components)
    grid = build_grid(0.0, 3.0, 0.3)
    y0 = np.array([1.0, -2.0])
    with pytest.raises(NumericalBlowupError) as excinfo:
        integrate(f, y0, grid)
    err = excinfo.value
    h = grid.k / 3.0
    t13 = grid.time(n) + h
    assert err.step_index == n
    assert err.t == (t13 if substep == 2 else t13 + h)
    assert len(calls) <= 6 * (err.step_index + 1)
    assert np.array_equal(err.last_state, y0)
    assert err.partial_states.tobytes() == array("d", np.tile(y0, n + 1)).tobytes()


@pytest.mark.parametrize("substep", [1, 2, 3])
def test_macro_step_blowup_carries_the_failing_substep(substep):
    f, calls = failing_field(2 * substep - 1, as_components=True)
    y = np.array([0.5, 0.25])
    with pytest.raises(NumericalBlowupError) as excinfo:
        advance_one_step(f, 1.0, y, 0.3)
    h = 0.3 / 3.0
    err = excinfo.value
    assert str(err) == "integration diverged during step 0 (from t=1.0)"
    assert err.t == [1.0, 1.0 + h, (1.0 + h) + h][substep - 1]
    assert err.step_index == 0
    assert np.array_equal(err.last_state, y)
    assert err.partial_states is None
    assert len(calls) <= 6


def infinite_from(ts, as_components):
    """Dimension-2 field whose first rate is infinite at every time from ``ts`` on."""
    if as_components:
        return component_field(
            2, lambda t, y: ((math.inf if t >= ts else 0.0) - y[0], y[0] - y[1])
        )
    return RhsField.from_source(
        2,
        "b = big if t >= ts else 0.0\nf1 = b - y1\nf2 = y1 - y2",
        constants={"big": math.inf, "ts": ts},
    )


@pytest.mark.parametrize("as_components", [False, True], ids=["source", "components"])
@pytest.mark.parametrize(
    "n", [0, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]
)
def test_integrate_blowup_at_block_edges_matches_single_steps(n, as_components):
    grid = build_grid(0.0, 2.0 * BLOCK_ROWS + 2.0, 1.0)  # step n runs from n to n + 1
    assert grid.M == 2 * BLOCK_ROWS + 2
    f = infinite_from(n + 0.5, as_components)
    y0 = np.array([1.0, -2.0])
    y, states = y0, [y0]
    with pytest.raises(NumericalBlowupError) as stepped:
        for m in range(grid.M):
            y = advance_one_step(f, grid.time(m), y, grid.k)
            states.append(y)
    with pytest.raises(NumericalBlowupError) as excinfo:
        integrate(f, y0, grid)
    err = excinfo.value
    assert err.step_index == m == n
    assert err.t == stepped.value.t
    assert array("d", err.last_state).tobytes() == states[-1].tobytes()
    assert err.partial_states.tobytes() == np.array(states).tobytes()


#: (step_index, repr(t), last_state, digest of partial_states, message) of two blow-ups:
#: the MINUS run of cameroon-1960, and step BLOCK_ROWS of infinite_from(BLOCK_ROWS + 0.5)
#: on the 0 .. 2 * BLOCK_ROWS + 2 grid with eras from 0 and BLOCK_ROWS, keeping every 3rd row
ONE_ERROR_RECORDS = {
    "cameroon-1960": (
        2542,
        "1962.5423333333333",
        (
            1.3085996934647706e56,
            1.0010217556474695e69,
            -1.0010217556476001e69,
            1.0960046107490902e36,
            -5.969877655029968e24,
        ),
        "eebdfe2b25d28cb3f02422e62c88c2484c5281543eb7ba4fc7e14b9acf175dd4",
        "integration diverged during step 2542 (from t=1962.542)",
    ),
    "block-edge": (
        BLOCK_ROWS,
        "1024.3333333333333",
        (1e-323, 1.5e-323),
        "be2e7deb1fc4d11ab98e19a60e8b0c9e736629f8afdac7571853d999ec95ca08",
        "integration diverged during step 1024 (from t=1024.0)",
    ),
}


@pytest.mark.parametrize("case", sorted(ONE_ERROR_RECORDS))
def test_a_blown_up_run_raises_the_one_error_its_failing_step_built(case):
    with pytest.raises(NumericalBlowupError) as excinfo:
        if case == "cameroon-1960":
            run_scenario(preset(case), SignConvention.MINUS)
        else:
            grid = build_grid(0.0, 2.0 * BLOCK_ROWS + 2.0, 1.0)
            f = infinite_from(BLOCK_ROWS + 0.5, as_components=False)
            integrate(f, (1.0, -2.0), grid, eras=(0, BLOCK_ROWS, grid.M + 1), every=3)
    err = excinfo.value
    assert err.__cause__ is None and err.__context__ is None
    step_index, t_repr, last_state, digest, message = ONE_ERROR_RECORDS[case]
    assert err.step_index == step_index
    assert repr(err.t) == t_repr
    assert err.last_state == last_state
    assert hashlib.sha256(err.partial_states.tobytes()).hexdigest() == digest
    assert str(err) == message


@pytest.mark.parametrize("sign", list(SignConvention))
def test_macro_step_starts_at_exactly_t_n_even_at_negative_zero(sign):
    f = RhsField.from_source(
        1, "f1 = copysign(1.0, t) - y1", constants={"copysign": math.copysign}
    )
    y = np.array([0.25])
    steps = [advance_one_step(f, t_n, y, 0.3, sign).tobytes() for t_n in (-0.0, 0.0)]
    assert steps == [composed_step(f, t_n, y, 0.3, sign).tobytes() for t_n in (-0.0, 0.0)]
    assert steps[0] != steps[1]  # the rate reads the sign of t


def test_time_terms_start_at_exactly_negative_zero():
    times = []

    def tick(at):
        times.append(at)
        return 0.0

    f = RhsField.from_source(1, "u = tick(t)\nf1 = u - y1", constants={"tick": tick})
    h = 0.3 / 3.0
    advance_one_step(f, -0.0, np.ones(1), 0.3)
    expected = [-0.0, -0.0 + h, (-0.0 + h) + h, ((-0.0 + h) + h) + h]
    assert list(map(repr, times)) == list(map(repr, expected))
    times.clear()
    heun_substep(f, -0.0, np.ones(1), h)
    assert list(map(repr, times)) == ["-0.0", repr(h)]


@pytest.mark.parametrize("as_components", [False, True], ids=["array", "components"])
def test_huge_finite_components_are_not_a_blowup(as_components):
    # each component is finite even though their sum overflows
    if as_components:
        zero = component_field(2, lambda t, y: (0.0, 0.0))
    else:
        zero = constant_field([0.0, 0.0])
    y0 = np.array([1e308, 1e308])
    assert np.array_equal(heun_substep(zero, 0.0, y0, 0.1), y0)
    assert np.array_equal(advance_one_step(zero, 0.0, y0, 0.3), y0)
    traj = integrate(zero, y0, build_grid(0.0, 1.0, 0.25))
    assert np.array_equal(traj.states, np.tile(y0, (5, 1)))


@pytest.mark.parametrize(
    "field, message",
    [
        (RhsField(dim=3, evaluate=lambda t, y: y[:2]), "returned 2 values, expected 3"),
        (component_field(3, lambda t, y: (0.0, 0.0)), r"not enough values .*expected 3"),
        (component_field(3, lambda t, y: (0.0,) * 4), r"too many values .*expected 3"),
    ],
    ids=["array-short", "components-short", "components-long"],
)
def test_wrong_length_field_results_are_rejected(field, message):
    y = np.ones(3)
    with pytest.raises(ValueError, match=message):
        heun_substep(field, 0.0, y, 0.1)
    with pytest.raises(ValueError, match=message):
        advance_one_step(field, 0.0, y, 0.3)
    with pytest.raises(ValueError, match=message):
        integrate(field, y, build_grid(0.0, 1.0, 0.5))


def test_wrong_length_results_after_the_first_step_are_rejected():
    calls = []

    def evaluate(t, y):
        calls.append(t)
        return np.zeros(3 if len(calls) <= 6 else 4)

    field = RhsField(dim=3, evaluate=evaluate)
    with pytest.raises(ValueError):
        integrate(field, np.ones(3), build_grid(0.0, 1.0, 0.25))


@pytest.mark.parametrize(
    "dim, error", [(0, ValueError), (-1, ValueError), (2.0, TypeError)], ids=["0", "-1", "2.0"]
)
def test_field_dimension_must_be_a_positive_integer(dim, error):
    with pytest.raises(error):
        RhsField(dim=dim, evaluate=lambda t, y: y)


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_a_source_field_keeps_its_sources_dimension(dim):
    field = cp_rhs(preset("cameroon-1960").params)
    message = f"field dimension {dim} differs from its source's dimension 5"
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(field, dim=dim)
    with pytest.raises(ValueError, match=f"^{message}$"):
        RhsField(dim, field.evaluate)
    assert dataclasses.replace(field, dim=5) == field


def test_field_dimension_accepts_numpy_integers():
    field = RhsField(dim=np.int64(2), evaluate=lambda t, y: y)
    assert type(field.dim) is int and field.dim == 2
    assert advance_one_step(field, 0.0, np.ones(2), 0.3).shape == (2,)


def test_component_form_field_evaluates_arrays():
    field = component_field(2, lambda t, y: (t * y[1], -y[0]))
    out = field.evaluate(2.0, np.array([3.0, 4.0]))
    assert isinstance(out, np.ndarray)
    assert out.tolist() == [8.0, -3.0]


# ------------------------------------------------------------ source fields

#: constants named as the kernel's own locals, time terms and rate locals too
_SHADOWING = {"h": 0.5, "w": -1.25, "t13": 3.0, "y": 0.75, "g": 2.0, "a1": -0.5, "r1": 1.5}


def _shadowing_field():
    return RhsField.from_source(
        2,
        """
        e0 = t13 * t
        p0 = g - t
        a0 = a1 * y1 * y2 + e0
        f1 = h * y1 - w * y2 + a0
        f2 = y * y1 * y1 - r1 * y2 + p0
        """,
        constants=_SHADOWING,
    )


def _shadowing_by_hand(t, s):
    c = _SHADOWING
    a0 = c["a1"] * s[0] * s[1] + c["t13"] * t
    return np.array(
        [
            c["h"] * s[0] - c["w"] * s[1] + a0,
            c["y"] * s[0] * s[0] - c["r1"] * s[1] + (c["g"] - t),
        ]
    )


def test_source_names_never_meet_the_kernel_names():
    field = _shadowing_field()
    by_hand = RhsField(dim=2, evaluate=_shadowing_by_hand)
    y = np.array([0.3, -0.7])
    assert field.evaluate(0.4, y).tobytes() == _shadowing_by_hand(0.4, y).tobytes()
    for sign in SignConvention:
        expected = composed_step(by_hand, 0.4, y, 0.3, sign)
        assert advance_one_step(field, 0.4, y, 0.3, sign).tobytes() == expected.tobytes()
        assert composed_step(field, 0.4, y, 0.3, sign).tobytes() == expected.tobytes()
        expected = heun_substep(by_hand, 0.4, y, 0.1, sign)
        assert heun_substep(field, 0.4, y, 0.1, sign).tobytes() == expected.tobytes()
    grid = build_grid(0.0, 2.0, 0.01)
    expected = integrate(by_hand, y, grid).states
    assert integrate(field, y, grid).states.tobytes() == expected.tobytes()


def _steps(field, y):
    """The bytes of every way of stepping ``field`` from ``y`` at t = 0.4."""
    grid = build_grid(0.0, 0.5, 0.01)
    return [
        field.evaluate(0.4, y).tobytes(),
        *(advance_one_step(field, 0.4, y, 0.3, sign).tobytes() for sign in SignConvention),
        *(heun_substep(field, 0.4, y, 0.1, sign).tobytes() for sign in SignConvention),
        integrate(field, y, grid).states.tobytes(),
    ]


def test_time_terms_between_rate_statements_step_as_if_written_first():
    times = []

    def tick(at):
        times.append(at)
        return at

    rates = {
        "c0": "c0 = a1 * y1 * y2",
        "e0": "e0 = t13 * tick(t)",
        "f1": "f1 = h * y1 - w * y2 + c0 + e0",
        "p0": "p0 = g - t",
        "f2": "f2 = y * y1 * y1 - r1 * y2 + p0",
    }
    y = np.array([0.3, -0.7])
    runs = []
    for order in (("c0", "e0", "f1", "p0", "f2"), ("e0", "p0", "c0", "f1", "f2")):
        text = "\n".join(rates[name] for name in order)
        steps = _steps(RhsField.from_source(2, text, constants={**_SHADOWING, "tick": tick}), y)
        runs.append((steps, times[:]))
        times.clear()
    assert runs[0] == runs[1]


def test_a_t_only_statement_after_a_state_assignment_stays_a_rate():
    # u = t reassigns a rate local, so it must run where it is written
    field = RhsField.from_source(1, "u = y1\nu = t\nf1 = u * y1", constants={})
    by_hand = RhsField(dim=1, evaluate=lambda t, y: t * y)
    y = np.array([0.75])
    assert _steps(field, y) == _steps(by_hand, y)


def test_strings_and_f_strings_of_the_source_are_written_as_they_are():
    # the literal holds the first characters the generator could mark names with
    field = RhsField.from_source(
        1, "s = len(f'{y1!r}' + 'ĀāĂ')\nf1 = -y1 * s", constants={"len": len}
    )
    by_hand = RhsField(dim=1, evaluate=lambda t, y: -y * len(f"{float(y[0])!r}" + "ĀāĂ"))
    y = np.array([0.25])
    expected = composed_step(by_hand, 0.4, y, 0.3)
    assert advance_one_step(field, 0.4, y, 0.3).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "rates, first, constants, message",
    [
        ("f1 = y1\nprint(f1)\nf2 = y2", "", {}, "rates, line 2: only assignments"),
        ("f1 = y1 + z\nf2 = y2", "", {}, "unknown name 'z'"),
        ("f2 = f1\nf1 = y1", "", {}, "unknown name 'f1'"),
        ("y1 = 2.0\nf1 = y1\nf2 = y2", "", {}, "'y1' cannot be assigned"),
        ("c = 1.0\nf1 = c\nf2 = y2", "", {"c": 2.0}, "'c' cannot be assigned"),
        ("u = 1.0\nf1 = u\nf2 = y2", "u = t", {}, "'u' cannot be assigned"),
        ("f1 = y1", "", {}, "rates never assign f2"),
        # hoisting the time term u = t would let the later u = 2.0 change f1
        ("f1 = u * y1\nu = 2.0\nf2 = y2", "u = t", {}, "line 3: 'u' cannot be assigned"),
        ("f2 = y2\nu, f1 = t, y1", "u = t", {}, "line 3: 'u' cannot be assigned"),
        ("f1 = [x for x in (y1,)][0]\nf2 = y2", "", {}, "comprehension is not allowed"),
        ("f1 = (lambda: y1)()\nf2 = y2", "", {}, "Lambda is not allowed"),
        ("f1.x = y1\nf2 = y2", "", {}, "only names may be assigned"),
        ("f1 = y1 +\nf2 = y2", "", {}, "rates: invalid syntax"),
        ("f1 = y1\nf2 = y2", "", {"y1": 1.0}, "'y1' is reserved"),
        ("f1 = y1\nf2 = y2", "", {"not a name": 1.0}, "not an identifier"),
    ],
)
def test_malformed_source_is_rejected_on_first_use(rates, first, constants, message):
    # ``first`` is a line written before ``rates``
    text = f"{first}\n{rates}" if first else rates
    field = RhsField.from_source(2, text, constants=constants)
    y = np.ones(2)
    with pytest.raises(ValueError, match=message):
        field.evaluate(0.0, y)
    with pytest.raises(ValueError, match=message):
        advance_one_step(field, 0.0, y, 0.3)
    with pytest.raises(ValueError, match=message):
        integrate(field, y, build_grid(0.0, 1.0, 0.5))


def test_a_source_field_is_read_only_and_pickles_before_and_after_it_is_stepped():
    field = cp_rhs(preset("cameroon-1960").params)
    with pytest.raises(AttributeError, match="cannot assign to field 'rates'"):
        field.evaluate.rates = "f1 = 0.0"
    y = np.full(5, 2e6)
    before = pickle.loads(pickle.dumps(field))
    expected = advance_one_step(field, 1960.0, y, 1e-3)
    after = pickle.loads(pickle.dumps(field))
    for restored in (before, after):
        assert repr(restored) == repr(field)
        assert advance_one_step(restored, 1960.0, y, 1e-3).tobytes() == expected.tobytes()


def test_an_opening_blank_line_keeps_the_line_numbers_of_the_rates():
    field = RhsField.from_source(1, "\n    a = 1.0\n    f1 = undefined\n", constants={})
    with pytest.raises(ValueError, match="^rates, line 3: unknown name 'undefined'$"):
        field.evaluate(0.0, np.ones(1))


@pytest.mark.parametrize(
    "field", [cp_rhs(preset("cameroon-1960").params), example1().field, example2().field],
    ids=["cp_rhs", "example1", "example2"],
)
def test_a_replaced_evaluate_is_stepped_and_counted(field):
    # as a tracer replaces it: the inlined source must not bypass the replacement
    calls = []

    def evaluate(t, y):
        calls.append(t)
        return field.evaluate(t, y)

    traced = dataclasses.replace(field, evaluate=evaluate)
    y0 = np.linspace(0.5, 2.0, field.dim)
    grid = build_grid(0.0, 0.05, 1e-3)
    expected = integrate(field, y0, grid).states
    assert integrate(traced, y0, grid).states.tobytes() == expected.tobytes()
    assert len(calls) == 6 * grid.M


def test_integrate_rejects_dimension_mismatch():
    grid = build_grid(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        integrate(GROWTH, np.ones(3), grid)


def test_integrate_rejects_a_grid_whose_states_do_not_fit():
    # the size of 2**62 + 1 rows overflows before any allocation is asked for
    grid = TimeGrid(0.0, 1.0, 2**62)
    message = (
        f"step size k={grid.k!r} is too small: "
        f"the run's {2**62 + 1} states do not fit in memory"
    )
    with pytest.raises(ValueError) as excinfo:
        integrate(GROWTH, np.ones(1), grid)
    assert str(excinfo.value) == message


def test_integrate_rejects_maxima_that_do_not_fit_before_any_step(monkeypatch):
    # keeping no state, the run still asks for three arrays of 2**62 maxima,
    # whose size overflows before any allocation is asked for
    p = example1()
    grid = TimeGrid(0.0, 1.0, 2**62)

    def no_run(*args, **kwargs):
        raise AssertionError("stepped a run whose maxima do not fit")

    monkeypatch.setattr("tristep.scheme._run", no_run)
    with pytest.raises(ValueError) as excinfo:
        integrate(p.field, p.y0, grid, every=None, exact=p.exact)
    assert str(excinfo.value) == (
        f"step size k={grid.k!r} is too small: "
        "the run's 4611686018427387905 states do not fit in memory"
    )


@pytest.mark.parametrize("substep", [2, 3])
def test_composed_step_blowup_names_the_failing_substep(substep):
    # with k = 3 the substeps start at t = 0, 1 and 2, and each evaluates at
    # its start and one unit later; the field is infinite from t = 2 or t = 3
    ts = float(substep)
    f = RhsField(dim=2, evaluate=lambda t, y: np.array([math.inf if t >= ts else 1.0, 0.0]))
    y = np.array([0.5, 0.25])
    with pytest.raises(NumericalBlowupError) as excinfo:
        composed_step(f, 0.0, y, 3.0)
    err = excinfo.value
    start = float(substep - 1)
    assert str(err) == f"non-finite state in substep starting at t={start!r}"
    assert err.t == start
    # the state the failing substep started from: each substep before it added 0.5 * (1 + 1)
    assert err.last_state == (0.5 + (substep - 1), 0.25)


STEPPERS = {
    "heun_substep": lambda f, y: heun_substep(f, 0.0, y, 0.1),
    "advance_one_step": lambda f, y: advance_one_step(f, 0.0, y, 0.3),
    "composed_step": lambda f, y: composed_step(f, 0.0, y, 0.3),
}


@pytest.mark.parametrize("step", [*STEPPERS, "integrate"])
def test_a_blowup_carries_its_states_as_floats(step):
    f, _ = failing_field(1, as_components=False)
    y = np.array([0.5, 0.25])
    with pytest.raises(NumericalBlowupError) as excinfo:
        if step == "integrate":
            integrate(f, y, build_grid(0.0, 1.0, 0.1))
        else:
            STEPPERS[step](f, y)
    err = excinfo.value
    assert type(err.last_state) is tuple and err.last_state == (0.5, 0.25)
    assert all(type(v) is float for v in err.last_state)
    if step == "integrate":
        assert err.partial_states.typecode == "d"
        assert err.partial_states.tolist() == [0.5, 0.25]


@pytest.mark.parametrize(
    "y, message",
    [
        (np.ones((2, 5)), "1-D"),
        (np.array(1.0), "1-D"),
        ([[1.0] * 5] * 2, "1-D"),
        (np.array([1.0, 1.0, math.inf, 1.0, 1.0]), "finite"),
    ],
    ids=["2x5", "0-d", "nested-list", "non-finite"],
)
@pytest.mark.parametrize("step", STEPPERS)
def test_malformed_states_are_rejected_before_the_kernel(step, y, message):
    field = cp_rhs(preset("cameroon-1960").params)
    with pytest.raises(ValueError, match=message):
        STEPPERS[step](field, y)


@pytest.mark.parametrize(
    "y, message",
    [
        (np.ones(3), "dimension 3, expected 5"),
        (np.ones((2, 5)), "1-D"),
        (np.array(1.0), "1-D"),
        ([[1.0] * 5] * 2, "1-D"),
        ([], "1-D"),
        ("12345", "1-D"),
    ],
    ids=["dim-3", "2x5", "0-d", "nested-list", "empty", "text"],
)
def test_malformed_states_are_rejected_by_a_source_field_evaluate(y, message):
    field = cp_rhs(preset("cameroon-1960").params)
    with pytest.raises(ValueError, match=message):
        field.evaluate(0.0, y)


def test_a_source_field_evaluate_takes_overflowed_states():
    # stage inputs of a diverging step may hold inf or nan; the steppers report them
    field = cp_rhs(preset("cameroon-1960").params)
    rates = field.evaluate(0.0, np.array([math.inf, 1.0, math.nan, 1.0, 1.0]))
    assert rates.shape == (5,) and not np.isfinite(rates).all()


@pytest.mark.parametrize("step", STEPPERS)
def test_a_list_state_steps_as_its_array(step):
    field = cp_rhs(preset("cameroon-1960").params)
    y = np.asarray(preset("cameroon-1960").y0)
    assert STEPPERS[step](field, y.tolist()).tobytes() == STEPPERS[step](field, y).tobytes()


def test_update_ratio_tends_to_field_value():
    # (advance(y) - y)/k approaches f(t, y) linearly in k
    prob = example1()
    t = 0.3
    y = prob.exact(t)
    target = prob.field.evaluate(t, y)
    deviations = []
    for k in (1e-3, 1e-4, 1e-5):
        step = advance_one_step(prob.field, t, y, k)
        deviations.append(sup_norm((step - y) / k - target))
    assert deviations[0] > deviations[1] > deviations[2]
    assert 5.0 < deviations[0] / deviations[1] < 20.0
    assert 5.0 < deviations[1] / deviations[2] < 20.0


# ------------------------------------------------------------ zero stability


def test_characteristic_root_moduli_are_unit():
    moduli = zero_stability_root_moduli()
    assert len(moduli) == 3
    for modulus in moduli:
        assert abs(modulus - 1.0) <= 1e-15


def test_characteristic_roots_sum_and_product():
    roots = zero_stability_roots()
    total = sum(roots)
    assert abs(total.real) <= 1e-15
    assert abs(total.imag) <= 1e-15
    product = roots[0] * roots[1] * roots[2]
    assert abs(abs(product) - 1.0) <= 1e-15


def test_characteristic_roots_values():
    roots = zero_stability_roots()
    assert roots[0].real == pytest.approx(1.0, abs=1e-14)
    assert roots[0].imag == pytest.approx(0.0, abs=1e-14)
    assert roots[1].real == pytest.approx(-0.5, abs=1e-14)
    assert roots[1].imag == pytest.approx(-math.sqrt(3.0) / 2.0, abs=1e-14)
    assert roots[2].imag == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-14)


@pytest.mark.parametrize(
    "eras",
    [(0,), (0, 5), (0, 12), (-1, 11), (0, 4, 4, 11), (0, 7, 3, 11)],
    ids=["one", "short", "long", "negative", "repeated", "decreasing"],
)
def test_integrate_rejects_era_starts_that_do_not_split_the_grid(eras):
    grid = build_grid(0.0, 1.0, 0.1)  # M = 10, so the starts end at 11
    with pytest.raises(ValueError, match="era starts must increase strictly"):
        integrate(GROWTH, [1.0], grid, eras=eras)


def test_integrate_rejects_era_starts_that_are_not_ints():
    with pytest.raises(TypeError):
        integrate(GROWTH, [1.0], build_grid(0.0, 1.0, 0.1), eras=(0.0, 11))


@pytest.mark.parametrize("every", [0, -3, 2.0, "5"])
def test_integrate_rejects_an_every_that_is_not_a_positive_int(every):
    grid = build_grid(0.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="every must be None or a positive int"):
        integrate(GROWTH, [1.0], grid, every=every)


@pytest.mark.parametrize("every", [1, 2, 3])
@pytest.mark.parametrize(
    "n", [0, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]
)
def test_a_streamed_blowup_at_block_edges_keeps_the_stored_rows(n, every):
    grid = build_grid(0.0, 2.0 * BLOCK_ROWS + 2.0, 1.0)
    f = infinite_from(n + 0.5, as_components=False)
    y0 = (1.0, -2.0)
    # the whole run's rows are checked against single steps above
    with pytest.raises(NumericalBlowupError) as whole:
        integrate(f, y0, grid)
    with pytest.raises(NumericalBlowupError) as decimated:
        integrate(f, y0, grid, eras=(0, BLOCK_ROWS, grid.M + 1), every=every)
    assert decimated.value.step_index == whole.value.step_index == n
    assert decimated.value.t == whole.value.t
    assert decimated.value.last_state == whole.value.last_state
    rows = whole.value.partial_states
    kept = [*range(0, n + 1, every), *([n] if n % every else [])]
    assert decimated.value.partial_states.tolist() == [
        v for m in kept for v in rows[2 * m : 2 * m + 2]
    ]
