"""Convergence-study and era-summary harnesses over the integrator.

Each scenario run is pure, and presets could run concurrently.  The grids
of a convergence study are not independent: their exact states are taken
first, finest grid first, and a grid that the next finer grid halves reads
every second row of that grid's states as a view instead of evaluating the
solution again; the grids then run coarse to fine.  A scenario run
(:func:`run_scenario`) stays on Python floats and imports no numpy: the
kernel adds each state into its era's sums as it steps and keeps every
N-th state, and the summary is divided from those sums.
:func:`era_summary` takes the same summary from a trajectory's stored
states as numpy's means; it is the reference those sums are checked
against.  It and the convergence study import numpy; the study's norms can
depend in their last bits on the OpenBLAS kernel the CPU selects, and on
the BLAS thread count on long grids
(:func:`~tristep.numerics.discrete_l2_time_norm`).  The rows of a table or
a summary are named tuples (``collections.namedtuple``).
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .cpmodel import EraPreset, cp_rhs
from .manufactured import ManufacturedProblem
from .numerics import (
    TimeGrid,
    Trajectory,
    build_grid,
    convergence_rate,
    discrete_l2_time_norm,
    era_starts,
    fits_in_memory,
    states_do_not_fit,
)
from .scheme import SignConvention, integrate

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Sequence

    import numpy as np

__all__ = [
    "ConvergenceRow",
    "EraSummaryRow",
    "era_summary",
    "run_convergence_study",
    "run_scenario",
]


class ConvergenceRow(
    namedtuple(
        "ConvergenceRow", "k exact_norm numeric_norm error_norm rate", defaults=(None,)
    )
):
    """One row of a convergence table.

    ``rate`` is the observed order log2 of the error ratio against the
    previous (coarser) row; it is absent on the first row and whenever an
    error norm vanishes.
    """

    __slots__ = ()


class EraSummaryRow(
    namedtuple("EraSummaryRow", "compartment era_averages overall_average share_percent")
):
    """Per-compartment era averages, whole-run average and population share."""

    __slots__ = ()


def run_convergence_study(
    problem: ManufacturedProblem,
    exponents: Iterable[int],
    sign: SignConvention = SignConvention.PLUS,
) -> list[ConvergenceRow]:
    """Integrate ``problem`` at k = 2**-e for each exponent, coarse to fine.

    Every grid is built before the first integration, so a step too small
    for its grid fails before any work, at the first such exponent (k is
    0.0 for e > 1074, and no exponent is too large); so does a finest grid
    whose states the allocator refuses.  Per grid point
    n = 1..M the study takes the sup norms (row maxima of magnitudes) of the
    exact solution, the numerical solution and their difference, then
    aggregates each sequence with the discrete L2-in-time norm.  The exact
    states of every grid are taken before the first integration, finest
    grid first: a grid that the next finer grid halves exactly is every
    second point of that grid, bit for bit, and reads its states as a
    ``[::2]`` view, so the exact solution is evaluated once per distinct
    grid point of the study.

    Raises:
      ValueError: If the exponents are not strictly increasing positive ints,
        or a step is too small for its grid or its states.
      NumericalBlowupError: Propagated from a diverging integration.
    """
    grids: list[TimeGrid] = []
    previous = 0
    for e in exponents:
        try:
            e = operator.index(e)
        except TypeError:
            raise ValueError("exponents must be integers >= 1") from None
        if e < 1:
            raise ValueError("exponents must be integers >= 1")
        if e <= previous:
            raise ValueError("exponents must be strictly increasing")
        grids.append(build_grid(problem.t0, problem.T, math.ldexp(1.0, -e)))
        previous = e
    if not grids:
        raise ValueError("exponents must be integers >= 1")
    finest = grids[-1]
    if not fits_in_memory((finest.M + 1) * problem.field.dim * 8):
        raise states_do_not_fit(finest.k, finest.M + 1)

    rows: list[ConvergenceRow] = []
    previous_error: float | None = None
    for grid, exact in zip(grids, _exact_states(problem, grids)):
        trajectory = integrate(problem.field, problem.y0, grid, sign)
        exact_norm, numeric_norm, error_norm = _norms(exact[1:], trajectory.states[1:], grid.k)
        rate = None
        if previous_error is not None and previous_error > 0.0 and error_norm > 0.0:
            rate = convergence_rate(previous_error, error_norm)
        rows.append(ConvergenceRow(grid.k, exact_norm, numeric_norm, error_norm, rate))
        previous_error = error_norm
    return rows


def _exact_states(problem: ManufacturedProblem, grids: Sequence[TimeGrid]) -> list[np.ndarray]:
    """``problem.exact_states`` of each grid, taken finest grid first.

    A grid that the next finer grid halves exactly (same t0, twice its M,
    half its k) is every second point of that grid: t0 + m * (2k) and
    t0 + (2m) * k round the same real number, so the times are bitwise
    equal, and so are the states.  Such a grid gets the view
    ``finer_states[::2]``; any other grid is evaluated in full.
    """
    states = [problem.exact_states(grids[-1])]
    for finer, grid in zip(reversed(grids), reversed(grids[:-1])):
        if grid.t0 == finer.t0 and finer.M == 2 * grid.M and grid.k == 2.0 * finer.k:
            states.append(states[-1][::2])
        else:
            states.append(problem.exact_states(grid))
    return states[::-1]


def _norms(reference: np.ndarray, computed: np.ndarray, k: float) -> tuple[float, float, float]:
    """L2-in-time norms of the row maxima of |reference|, |computed| and |reference - computed|.

    One array of magnitudes is alive at a time, and none outlives the call.
    """
    import numpy as np

    exact_norm = discrete_l2_time_norm(np.abs(reference).max(axis=1), k)
    numeric_norm = discrete_l2_time_norm(np.abs(computed).max(axis=1), k)
    error = reference - computed
    error_norm = discrete_l2_time_norm(np.abs(error, out=error).max(axis=1), k)
    return exact_norm, numeric_norm, error_norm


def era_summary(
    trajectory: Trajectory, boundaries: Iterable[float], N: float
) -> list[EraSummaryRow]:
    """Average each compartment over the grid samples of every era.

    Eras are left-closed and right-open, except the final era which also
    includes the right endpoint.  The overall average runs over all samples
    in [t0, T], and the share is overall_average / N * 100.  Averages are
    sample means: numpy's sum of an era's grid samples over their count,
    bitwise numpy's ``states[a:b].mean(axis=0)``.  Rounding for display
    happens at emission only; the returned rows keep raw values.  The
    trajectory must hold all M + 1 states; the sums its kernel took are not
    read.

    Raises:
      ValueError: If the trajectory does not hold every state, the
        boundaries do not span its time range, are not strictly increasing,
        leave an era without a grid point, or N is not positive.
    """
    if trajectory.every != 1:
        raise ValueError("era_summary needs a trajectory of all M + 1 states")
    bounds = tuple(float(b) for b in boundaries)
    grid = trajectory.grid
    starts = era_starts(grid, bounds)
    if not N > 0.0:
        raise ValueError("population size N must be positive")
    tol = 1e-9 * max(1.0, abs(grid.t0), abs(grid.T))
    if abs(bounds[0] - grid.t0) > tol or abs(bounds[-1] - grid.T) > tol:
        raise ValueError("era boundaries must span exactly the trajectory's time range")
    states = trajectory.states
    era_sums = [states[a:b].sum(axis=0).tolist() for a, b in zip(starts, starts[1:])]
    return _summary_rows(grid, starts, era_sums, states.sum(axis=0).tolist(), N)


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
    every: int | None = 1,
) -> tuple[Trajectory, list[EraSummaryRow]]:
    """Integrate a preset over its grid and summarize it by era.

    The run is summed by the preset's era starts (see
    :func:`~tristep.scheme.integrate`), and the summary is divided from its
    sums, bitwise :func:`era_summary` of the run's states.  The
    :class:`Trajectory` keeps the states at grid points 0, ``every``,
    2 * ``every``, ... and M: all of them by default, none when ``every`` is
    None.

    Negativity is surfaced through the run's flag; numerical blow-up
    propagates as ``NumericalBlowupError`` carrying the failing step index
    and the partial run's kept states.  Identical inputs produce
    bitwise-identical output.
    """
    grid, starts = preset.grid, preset.starts
    run = integrate(cp_rhs(preset.params), preset.y0, grid, sign, eras=starts, every=every)
    return run, _summary_rows(grid, starts, run.era_sums, run.overall_sums, preset.params.N)
