"""Norms, grids and convergence-rate arithmetic."""

from __future__ import annotations

import math
from array import array

import numpy as np
import pytest

from tristep import (
    TimeGrid,
    Trajectory,
    build_grid,
    convergence_rate,
    discrete_l2_time_norm,
    example1,
    sup_norm,
)


def test_sup_norm_zero_vector():
    assert sup_norm(np.zeros(5)) == 0.0


def test_sup_norm_mixed_signs():
    assert sup_norm([1.0, -2.0, 3.0, -4.0, 5.0]) == 5.0


def test_sup_norm_matches_elementwise_scan():
    rng = np.random.default_rng(42)
    for _ in range(100):
        y = rng.uniform(-10.0, 10.0, size=5)
        expected = 0.0
        for v in y:  # brute-force scan oracle
            expected = max(expected, abs(float(v)))
        assert sup_norm(y) == expected


def test_sup_norm_rejects_empty_vector():
    with pytest.raises(ValueError):
        sup_norm([])


def test_sup_norm_zero_only_for_zero_vector():
    rng = np.random.default_rng(11)
    for _ in range(50):
        y = rng.normal(size=5)
        if np.any(y != 0.0):
            assert sup_norm(y) > 0.0


def test_sup_norm_absolute_homogeneity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        y = rng.normal(size=5)
        a = float(rng.normal())
        assert sup_norm(a * y) == abs(a) * sup_norm(y)


def test_sup_norm_triangle_inequality():
    rng = np.random.default_rng(8)
    for _ in range(200):
        y = rng.normal(size=5)
        z = rng.normal(size=5)
        bound = sup_norm(y) + sup_norm(z)
        assert sup_norm(y + z) <= bound * (1.0 + 1e-15) + 1e-300


def test_l2_constant_sequence():
    # constant v over M steps with k*M = T - t0 aggregates to v*sqrt(T - t0)
    steps, span, v = 40, 2.5, 0.7
    k = span / steps
    assert discrete_l2_time_norm([v] * steps, k) == pytest.approx(
        v * math.sqrt(span), rel=1e-13
    )


def test_l2_single_step():
    assert discrete_l2_time_norm([3.0], 0.25) == pytest.approx(1.5, abs=1e-15)


def test_l2_of_exact_solution_matches_reference_table():
    prob = example1()
    k = 2.0**-4
    sup_values = [sup_norm(prob.exact(n * k)) for n in range(1, 17)]
    value = discrete_l2_time_norm(sup_values, k)
    # reference table prints 1.8235e-1 at five significant digits
    assert value == pytest.approx(0.18235, abs=5e-4)
    # sequential-sum oracle for the same aggregate
    assert value == pytest.approx(
        math.sqrt(k * sum(s * s for s in sup_values)), rel=1e-14
    )


def test_l2_monotone_in_each_entry():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.1, 1.0, size=20)
    base = discrete_l2_time_norm(values, 0.05)
    for i in range(values.size):
        bumped = values.copy()
        bumped[i] *= 1.5
        assert discrete_l2_time_norm(bumped, 0.05) >= base


def test_l2_rejects_empty_sequence_and_bad_step():
    with pytest.raises(ValueError):
        discrete_l2_time_norm([], 0.1)
    with pytest.raises(ValueError):
        discrete_l2_time_norm([1.0], 0.0)
    with pytest.raises(ValueError):
        discrete_l2_time_norm([1.0], -0.5)


def test_rate_of_reference_error_pair():
    assert convergence_rate(1.3296e-4, 3.3238e-5) == pytest.approx(2.0001, abs=5e-4)


def test_rate_of_equal_errors_is_zero():
    assert convergence_rate(0.37, 0.37) == 0.0


def test_rate_of_exact_quartering_is_two():
    assert convergence_rate(4.0 * 0.3, 0.3) == pytest.approx(2.0, abs=1e-12)


def test_rate_chain_additivity():
    rng = np.random.default_rng(19)
    for _ in range(200):
        a, b, c = np.exp(rng.uniform(-8.0, 2.0, size=3))
        lhs = convergence_rate(a, b) + convergence_rate(b, c)
        assert lhs == pytest.approx(convergence_rate(a, c), abs=1e-12)


def test_rate_rejects_nonpositive_errors():
    with pytest.raises(ValueError):
        convergence_rate(0.0, 1.0)
    with pytest.raises(ValueError):
        convergence_rate(1.0, -2.0)


def test_build_grid_exact_dyadic_division():
    grid = build_grid(0.0, 1.0, 2.0**-4)
    assert grid.M == 16
    assert grid.k == 0.0625
    assert grid.time(grid.M) == 1.0


def test_build_grid_calendar_scenario():
    grid = build_grid(1960.0, 1986.0, 1e-3)
    assert grid.M == 26000
    assert grid.k == 1e-3
    assert grid.time(grid.M) == 1986.0


def test_build_grid_rounds_step_count():
    grid = build_grid(0.0, 1.0, 0.3)
    assert grid.M == 3
    assert grid.k == pytest.approx(1.0 / 3.0, rel=1e-16)


def test_build_grid_clamps_to_one_step():
    grid = build_grid(0.0, 1.0, 5.0)
    assert grid.M == 1
    assert grid.k == 1.0


def test_build_grid_rejects_bad_spans():
    with pytest.raises(ValueError):
        build_grid(1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_grid(2.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="too small"):
        build_grid(1960.0, 1986.0, 5e-324)


def test_grid_lands_on_horizon():
    # measured worst case over wide sampling is two ulps of T; the operative
    # grids (dyadic spans, calendar presets) land exactly
    rng = np.random.default_rng(123)
    for _ in range(2000):
        t0 = float(rng.uniform(0.0, 2100.0))
        span = float(10.0 ** rng.uniform(-3.0, 3.0))
        k_request = span * float(10.0 ** rng.uniform(-6.0, -0.3))
        grid = build_grid(t0, t0 + span, k_request)
        assert abs(grid.time(grid.M) - grid.T) <= 2.0 * math.ulp(grid.T)


def test_grid_times_match_pointwise_formula():
    grid = build_grid(1986.0, 2002.0, 0.25)
    times = grid.times()
    assert times.shape == (grid.M + 1,)
    for n in range(0, grid.M + 1, 7):
        assert times[n] == grid.time(n)


def test_time_grid_rejects_inconsistent_step():
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, T=1.0, M=10, k=0.2)
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, T=1.0, M=0, k=0.1)


def test_trajectory_requires_full_sample_count():
    grid = build_grid(0.0, 1.0, 0.25)
    with pytest.raises(ValueError):
        Trajectory(grid=grid, values=array("d", [0.0]) * 6)
    traj = Trajectory(grid=grid, values=array("d", [0.0]) * 10)
    assert traj.dim == 2
