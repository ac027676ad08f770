"""Closed-form verification problems and their consistency with the fields."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tristep import example1, example2, problem, sup_norm


def central_difference(exact, t, h=1e-6):
    return (np.asarray(exact(t + h)) - np.asarray(exact(t - h))) / (2.0 * h)


@pytest.mark.parametrize("build", [example1, example2])
def test_exact_solution_starts_at_zero(build):
    prob = build()
    assert np.array_equal(prob.exact(0.0), np.zeros(3))
    assert np.array_equal(prob.y0, np.zeros(3))
    assert type(prob.y0) is tuple and prob.y0 == tuple(prob.exact(0.0))


def test_exact_solution_vanishes_at_one():
    # every factor t**2 - t and t - 1 vanishes at t = 1
    np.testing.assert_allclose(example1().exact(1.0), np.zeros(3), atol=1e-16)


def test_exact_solution_midpoint_values():
    y = example1().exact(0.5)
    assert y[0] == pytest.approx(-0.25, abs=1e-16)
    assert y[1] == pytest.approx(-0.25 * math.exp(-0.5), rel=1e-15)
    assert y[2] == pytest.approx(-0.5 * math.sin(0.5), rel=1e-15)


@pytest.mark.parametrize("build", [example1, example2])
def test_residual_vanishes_on_unit_interval(build):
    # primary guard against transcription slips in the forcing terms
    prob = build()
    for t in np.linspace(0.0, 1.0, 101):
        t = float(t)
        residual = central_difference(prob.exact, t) - prob.field.evaluate(
            t, prob.exact(t)
        )
        assert sup_norm(residual) <= 1e-8


def test_residual_at_interior_points_is_tiny():
    prob = example2()
    for t in np.arange(0.1, 0.95, 0.1):
        t = float(t)
        residual = central_difference(prob.exact, t) - prob.field.evaluate(
            t, prob.exact(t)
        )
        assert sup_norm(residual) <= 1e-10


def test_fields_differ_at_a_generic_point():
    t = 0.37
    y = np.array([0.2, -0.4, 0.6])
    f1 = example1().field.evaluate(t, y)
    f2 = example2().field.evaluate(t, y)
    assert not np.array_equal(f1, f2)


@pytest.mark.parametrize("build", [example1, example2])
def test_exact_solution_is_finite_and_smooth(build):
    prob = build()
    values = np.array([prob.exact(float(t)) for t in np.linspace(0.0, 1.0, 101)])
    assert np.isfinite(values).all()
    assert np.max(np.abs(values)) < 1.0


@pytest.mark.parametrize("build", [example1, example2])
def test_field_dimension_is_three(build):
    prob = build()
    assert prob.field.dim == 3
    assert prob.t0 == 0.0
    assert prob.T == 1.0


def test_problem_registry_lookup():
    assert problem("example1").label == "example1"
    assert problem("example2").label == "example2"
    with pytest.raises(ValueError):
        problem("example3")
