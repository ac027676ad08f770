"""Convergence-study and era-summary harnesses over the integrator.

Each unit of work is pure; different step sizes or presets could run
concurrently, with result order fixed by input order.  A scenario run
(:func:`run_scenario`) stays on Python floats and imports no numpy.  Stored,
its states are one flat ``array('d')`` and :func:`era_summary` folds its
era sums from it by a function generated per state dimension.  Streamed,
the kernel adds each state into its era's sums as it steps and keeps only
every N-th state, and the summary is divided from those sums: bitwise the
stored run's, with no buffer of all states, no fold and no sign scan.  The
convergence study imports numpy for its norms, whose last bits can depend on
the BLAS thread count on long grids
(:func:`~tristep.numerics.discrete_l2_time_norm`).
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Sequence

from .cpmodel import EraPreset, cp_rhs
from .manufactured import ManufacturedProblem
from .numerics import (
    StreamedRun,
    TimeGrid,
    Trajectory,
    build_grid,
    convergence_rate,
    discrete_l2_time_norm,
    era_starts,
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
    for its grid fails before any work, at the first such exponent (k is
    0.0 for e > 1074, and no exponent is too large).  Per grid point
    n = 1..M the study takes the sup norms (row maxima of magnitudes) of the
    exact solution, the numerical solution and their difference, then
    aggregates each sequence with the discrete L2-in-time norm.

    Raises:
      ValueError: If the exponents are not strictly increasing positive ints,
        or a step is too small for its grid or its states.
      NumericalBlowupError: Propagated from a diverging integration.
    """
    grids: list[TimeGrid] = []
    previous = 0
    for e in map(int, exponents):
        if e < 1:
            raise ValueError("exponents must be integers >= 1")
        if e <= previous:
            raise ValueError("exponents must be strictly increasing")
        grids.append(build_grid(problem.t0, problem.T, math.ldexp(1.0, -e)))
        previous = e
    if not grids:
        raise ValueError("exponents must be integers >= 1")

    import numpy as np

    rows: list[ConvergenceRow] = []
    previous_error: float | None = None
    for grid in grids:
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


def _column_sums(
    values: array, starts: Sequence[int]
) -> tuple[list[tuple[float, ...]], tuple[float, ...]]:
    """The sums of a one-column trajectory, by numpy.

    numpy's mean sums a single column pairwise, not row by row, so its bits
    cannot be had from a fold in order.
    """
    import numpy as np

    column = np.frombuffer(values, dtype=np.float64)
    eras = [(float(np.add.reduce(column[a:b])),) for a, b in zip(starts, starts[1:])]
    return eras, (float(np.add.reduce(column)),)


@functools.cache
def _fold(dim: int) -> Callable[[array, Sequence[int]], tuple[list, tuple]]:
    """``fold(values, starts)``: the column sums of every era, then of all rows.

    ``values`` holds rows of ``dim`` floats one after the other, and
    ``starts`` is :func:`era_starts`' result.  Every sum starts from 0.0 and
    adds its rows in order, one local per column, which is bitwise how
    numpy's axis-0 mean of two or more columns sums them (an all -0.0 column
    sums to 0.0 there too).  The fold is generated once per dimension with
    the rows unpacked into locals, as the scheme's ``march`` is, and never
    calls ``sum``, which compensates its rounding since Python 3.12.
    """
    if dim == 1:
        return _column_sums

    def names(name: str, between: str = ", ") -> str:
        return between.join(f"{name}{i}" for i in range(dim))

    lines = [
        "def fold(values, starts):",
        f"    rows = zip(*[iter(values)] * {dim})",
        f"    {names('o', ' = ')} = 0.0",
        f"    for {names('y')} in islice(rows, starts[0]):",  # rows before the first era
        *(f"        o{i} += y{i}" for i in range(dim)),
        "    eras = []",
        "    for a, b in zip(starts, starts[1:]):",
        f"        {names('e', ' = ')} = 0.0",
        f"        for {names('y')} in islice(rows, b - a):",
        *(f"            {sums}{i} += y{i}" for i in range(dim) for sums in "eo"),
        f"        eras.append(({names('e')}))",
        f"    return eras, ({names('o')})",
    ]
    namespace = {"islice": islice}
    exec("\n".join(lines), namespace)
    return namespace["fold"]


def era_summary(
    trajectory: Trajectory, boundaries: Iterable[float], N: float
) -> list[EraSummaryRow]:
    """Average each compartment over the grid samples of every era.

    Eras are left-closed and right-open, except the final era which also
    includes the right endpoint.  The overall average runs over all samples
    in [t0, T], and the share is overall_average / N * 100.  Averages are
    sample means: the sum of an era's grid samples over their count,
    bitwise numpy's ``states[a:b].mean(axis=0)``.  Rounding for display
    happens at emission only; the returned rows keep raw values.

    Raises:
      ValueError: If the boundaries do not span the trajectory's time range,
        are not strictly increasing, leave an era without a grid point, or
        N is not positive.
    """
    bounds = tuple(float(b) for b in boundaries)
    grid = trajectory.grid
    starts = era_starts(grid, bounds)
    if not N > 0.0:
        raise ValueError("population size N must be positive")
    tol = 1e-9 * max(1.0, abs(grid.t0), abs(grid.T))
    if abs(bounds[0] - grid.t0) > tol or abs(bounds[-1] - grid.T) > tol:
        raise ValueError("era boundaries must span exactly the trajectory's time range")
    era_sums, overall_sums = _fold(trajectory.dim)(trajectory.values, starts)
    return _summary_rows(grid, starts, era_sums, overall_sums, N)


def _summary_rows(
    grid: TimeGrid,
    starts: Sequence[int],
    era_sums: Sequence[Sequence[float]],
    overall_sums: Sequence[float],
    N: float,
) -> list[EraSummaryRow]:
    """The summary rows of a run from its era and whole-run sums."""
    counts = [b - a for a, b in zip(starts, starts[1:])]
    samples = grid.M + 1
    return [
        EraSummaryRow(
            compartment=f"y{i + 1}",
            era_averages=tuple(sums[i] / count for sums, count in zip(era_sums, counts)),
            overall_average=overall_sums[i] / samples,
            share_percent=overall_sums[i] / samples / N * 100.0,
        )
        for i in range(len(overall_sums))
    ]


def run_scenario(
    preset: EraPreset,
    sign: SignConvention = SignConvention.PLUS,
    *,
    streamed: bool = False,
    every: int | None = 1,
) -> tuple[Trajectory | StreamedRun, list[EraSummaryRow]]:
    """Integrate a preset over its grid and summarize it by era.

    By default the run is stored: the :class:`Trajectory` holds every state,
    and :func:`era_summary` folds it.  With ``streamed=True`` the run is
    streamed by its era starts (see :func:`~tristep.scheme.integrate`): the
    :class:`StreamedRun` keeps the states at grid points 0, ``every``,
    2 * ``every``, ... and M (none when ``every`` is None), and the summary
    is taken from its sums, bitwise the stored run's.

    Negativity is surfaced through the run's flag; numerical blow-up
    propagates as ``NumericalBlowupError`` carrying the failing step index
    and the partial run (only its kept states when streamed).  Identical
    inputs produce bitwise-identical output.
    """
    field = cp_rhs(preset.params)
    if not streamed:
        trajectory = integrate(field, preset.y0, preset.grid, sign)
        return trajectory, era_summary(trajectory, preset.era_boundaries, preset.params.N)
    starts = era_starts(preset.grid, preset.era_boundaries)
    run = integrate(field, preset.y0, preset.grid, sign, eras=starts, every=every)
    return run, _summary_rows(run.grid, run.starts, run.era_sums, run.overall_sums, preset.params.N)
