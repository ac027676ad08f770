"""Substeps, macro steps, trajectories and the stability diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tristep import (
    NumericalBlowupError,
    RhsField,
    SignConvention,
    advance_one_step,
    build_grid,
    composed_step,
    example1,
    example2,
    heun_substep,
    integrate,
    sup_norm,
    zero_stability_root_moduli,
    zero_stability_roots,
)


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
    assert err.partial_states.shape == (err.step_index + 1, 1)
    assert np.isfinite(err.partial_states).all()
    assert np.isfinite(err.last_state).all()


def test_integrate_rejects_dimension_mismatch():
    grid = build_grid(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        integrate(GROWTH, np.ones(3), grid)


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
