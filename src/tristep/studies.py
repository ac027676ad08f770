"""Convergence-study and era-summary harnesses over the integrator.

Each unit of work is pure; different step sizes or presets could run
concurrently, with result order fixed by input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cpmodel import EraPreset, cp_rhs
from .manufactured import ManufacturedProblem
from .numerics import (
    Trajectory,
    build_grid,
    convergence_rate,
    discrete_l2_time_norm,
    era_indices,
)
from .scheme import SignConvention, integrate

__all__ = [
    "ConvergenceRow",
    "EraSummaryRow",
    "era_summary",
    "run_convergence_study",
    "run_scenario",
]


@dataclass(frozen=True)
class ConvergenceRow:
    """One row of a convergence table.

    ``rate`` is the observed order log2 of the error ratio against the
    previous (coarser) row; it is absent on the first row and whenever an
    error norm vanishes.
    """

    k: float
    exact_norm: float
    numeric_norm: float
    error_norm: float
    rate: float | None = None


@dataclass(frozen=True)
class EraSummaryRow:
    """Per-compartment era averages, whole-run average and population share."""

    compartment: str
    era_averages: tuple[float, ...]
    overall_average: float
    share_percent: float


def run_convergence_study(
    problem: ManufacturedProblem,
    exponents: Iterable[int],
    sign: SignConvention = SignConvention.PLUS,
) -> list[ConvergenceRow]:
    """Integrate ``problem`` at k = 2**-e for each exponent, coarse to fine.

    Every grid is built before the first integration, so a step too small
    for its grid fails before any work.  Per grid point n = 1..M the study
    takes the sup norms (row maxima of magnitudes) of the exact solution,
    the numerical solution and their difference, then aggregates each
    sequence with the discrete L2-in-time norm.

    Raises:
      ValueError: If the exponents are not strictly increasing positive ints,
        or a step is too small for its grid or its states.
      NumericalBlowupError: Propagated from a diverging integration.
    """
    exps = [int(e) for e in exponents]
    if not exps or any(e < 1 for e in exps):
        raise ValueError("exponents must be integers >= 1")
    if any(b <= a for a, b in zip(exps, exps[1:])):
        raise ValueError("exponents must be strictly increasing")

    rows: list[ConvergenceRow] = []
    previous_error: float | None = None
    for grid in [build_grid(problem.t0, problem.T, 2.0**-e) for e in exps]:
        trajectory = integrate(problem.field, problem.y0, grid, sign)
        computed = trajectory.states[1:]
        reference = problem.exact_states(grid)[1:]
        sup_exact = np.abs(reference).max(axis=1)
        sup_numeric = np.abs(computed).max(axis=1)
        sup_error = np.abs(reference - computed).max(axis=1)
        error_norm = discrete_l2_time_norm(sup_error, grid.k)
        rate = None
        if previous_error is not None and previous_error > 0.0 and error_norm > 0.0:
            rate = convergence_rate(previous_error, error_norm)
        rows.append(
            ConvergenceRow(
                k=grid.k,
                exact_norm=discrete_l2_time_norm(sup_exact, grid.k),
                numeric_norm=discrete_l2_time_norm(sup_numeric, grid.k),
                error_norm=error_norm,
                rate=rate,
            )
        )
        previous_error = error_norm
    return rows


def era_summary(
    trajectory: Trajectory, boundaries: Iterable[float], N: float
) -> list[EraSummaryRow]:
    """Average each compartment over the grid samples of every era.

    Eras are left-closed and right-open, except the final era which also
    includes the right endpoint.  The overall average runs over all samples
    in [t0, T], and the share is overall_average / N * 100.  Rounding for
    display happens at emission only; the returned rows keep raw values.

    Raises:
      ValueError: If the boundaries do not span the trajectory's time range,
        are not strictly increasing, leave an era without a grid point, or
        N is not positive.
    """
    bounds = tuple(float(b) for b in boundaries)
    if len(bounds) < 2 or any(b >= c for b, c in zip(bounds, bounds[1:])):
        raise ValueError("era boundaries must be strictly increasing, two or more")
    if not N > 0.0:
        raise ValueError("population size N must be positive")
    grid = trajectory.grid
    tol = 1e-9 * max(1.0, abs(grid.t0), abs(grid.T))
    if abs(bounds[0] - grid.t0) > tol or abs(bounds[-1] - grid.T) > tol:
        raise ValueError("era boundaries must span exactly the trajectory's time range")

    n_eras = len(bounds) - 1
    era_index = era_indices(grid.times(), bounds)
    era_means = np.empty((n_eras, trajectory.dim))
    for j in range(n_eras):
        era_means[j] = trajectory.states[era_index == j].mean(axis=0)
    overall = trajectory.states.mean(axis=0)

    return [
        EraSummaryRow(
            compartment=f"y{i + 1}",
            era_averages=tuple(float(v) for v in era_means[:, i]),
            overall_average=float(overall[i]),
            share_percent=float(overall[i] / N * 100.0),
        )
        for i in range(trajectory.dim)
    ]


def run_scenario(
    preset: EraPreset, sign: SignConvention = SignConvention.PLUS
) -> tuple[Trajectory, list[EraSummaryRow]]:
    """Integrate a preset over its grid and summarize it by era.

    Negativity is surfaced through the trajectory flag; numerical blow-up
    propagates as ``NumericalBlowupError`` carrying the failing step index
    and the partial run.  Identical inputs produce bitwise-identical output.
    """
    grid = build_grid(preset.t0, preset.T, preset.k)
    trajectory = integrate(cp_rhs(preset.params), preset.y0, grid, sign)
    return trajectory, era_summary(trajectory, preset.era_boundaries, preset.params.N)
