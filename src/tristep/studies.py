"""Convergence-study and era-summary harnesses over the integrator.

Each scenario run is pure, and presets could run concurrently.  The grids
of a convergence study are not independent: their exact states are taken
first, finest grid first, into flat ``array('d')``s, and a grid whose
points are every 2**j-th point of a grid evaluated before it reads that
grid's rows instead of evaluating the solution again; the grids then run
coarse to fine.  Where the process runs one thread, may run on two CPUs
or more and finds one of them idle, as a fresh ``tristep converge``
process does on such a host, and the finest grid has 8 192 steps or
more, that grid runs meanwhile in a forked child on another CPU, which
sends back its states alone; the parent takes every norm, so the table is
bitwise the serial one.  ``taskset -c 0 tristep converge ...`` runs
serially.  A scenario run (:func:`run_scenario`) stays on Python
floats and imports no numpy: the kernel adds each state into its era's
sums as it steps and keeps every N-th state, and the summary is divided
from those sums.  :func:`era_summary` takes the same summary from a
trajectory's stored states as numpy's means; it is the reference those
sums are checked against, and it imports numpy.  The convergence study
takes its per-point maxima with numpy where this interpreter has imported
numpy already, and with generated Python loops otherwise, as in a fresh
``tristep converge`` process; both give the same bits, and the study never
imports numpy for them.  It sums their squares with the OpenBLAS numpy's
wheel bundles, without importing numpy where that library is there; its
norms can depend in their last bits on the OpenBLAS kernel the CPU
selects, and on the BLAS thread count on long grids
(:func:`~tristep.numerics.discrete_l2_time_norm`).  The rows of a table or
a summary are named tuples (``collections.namedtuple``).
"""

from __future__ import annotations

import functools
import math
import operator
import os
import sys
from array import array
from collections import namedtuple
from itertools import islice

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
    load_l2_norm,
    states_do_not_fit,
)
from .scheme import SignConvention, integrate

TYPE_CHECKING = False
if TYPE_CHECKING:
    from types import ModuleType
    from typing import BinaryIO, Callable, Iterable, Sequence

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
    states are taken before the first integration, finest grid first: a
    grid whose points are every 2**j-th point of a grid evaluated before
    it, bit for bit, reads every 2**j-th row of that grid's states at its
    norms.  So where every grid's points are among the finest grid's, as
    for k = 2**-e over [0, 1], the exact solution is evaluated once per
    point of the finest grid.

    The row maxima are taken with numpy where this interpreter has imported
    numpy already, and with Python loops otherwise, as in a fresh
    ``tristep converge`` process; the study never imports numpy for them.
    Both give the same bits.  What the norms sum their squares with is
    loaded before the first integration
    (:func:`~tristep.numerics.load_l2_norm`).

    The finest grid runs in a forked child, while this process takes the
    exact states and runs the coarser grids, where ``os.fork`` exists,
    there are two grids or more, the finest has 8 192 steps or more, this
    process may run on two CPUs or more (``os.sched_getaffinity``) and
    runs one thread, and fewer tasks are runnable on the system than this
    process has CPUs, as Linux reports them.  A fresh ``tristep converge``
    process runs one thread, since its OpenBLAS starts none; an interpreter
    that has imported numpy runs OpenBLAS's threads, ``taskset -c 0``
    leaves one CPU, and a second busy process leaves no CPU idle, so there
    the study runs serially.  The child runs on every CPU of this process
    but the one this process runs on, runs no numpy or BLAS, and writes the
    flat states of its run, bitwise this process's own, down a pipe; this
    process takes their norms as any grid's, so the table is bitwise the
    serial one.  Where the child fails in any way, by a blow-up or a short
    write, or its states do not fit in this process as well, this process
    integrates the finest grid itself, and a blow-up raises the serial
    error.  The child is killed and reaped however the study ends, a
    coarser grid's blow-up or an interrupt included, and Linux kills it
    when a signal ends this process first.

    Raises:
      ValueError: If the exponents are not strictly increasing positive ints,
        a step is too small for its grid or its states, ``exact`` returns
        a row whose length is not the field's dimension, or neither numpy's
        bundled OpenBLAS nor numpy can be loaded for the norms.
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
    load_l2_norm()

    cpus = _child_cpus(grids)
    child = None if cpus is None else _FinestChild.start(problem, finest, sign, cpus)
    try:
        rows: list[ConvergenceRow] = []
        previous_error: float | None = None
        for grid, (values, largest, stride) in zip(grids, _exact_sources(problem, grids)):
            trajectory = None
            if child is not None and grid is finest:
                trajectory = child.trajectory(problem.field.dim)
            if trajectory is None:
                trajectory = integrate(problem.field, problem.y0, grid, sign)
            exact_norm, numeric_norm, error_norm = _norms(
                values, largest, stride, trajectory, grid.k
            )
            rate = None
            if previous_error is not None and previous_error > 0.0 and error_norm > 0.0:
                rate = convergence_rate(previous_error, error_norm)
            rows.append(ConvergenceRow(grid.k, exact_norm, numeric_norm, error_norm, rate))
            previous_error = error_norm
    finally:
        if child is not None:
            child.stop()
    return rows


# The fewest steps of a finest grid that a study runs in a forked child:
# the 8 192 of k = 2**-13 over [0, 1], the shortest grid whose forked study
# has been measured faster than its serial run.
_FORK_MIN_STEPS = 8192


def _child_cpus(grids: Sequence[TimeGrid]) -> set[int] | None:
    """The CPUs a forked child runs the finest grid of ``grids`` on; None to run serially.

    A study forks only where there are two grids or more, the finest has at
    least ``_FORK_MIN_STEPS`` steps, this process may run on two CPUs or
    more and runs one thread (:func:`_threads_and_cpu`), since forking a
    process that has threads is unsafe, and fewer tasks are runnable than
    it has CPUs (:func:`_runnable`): a child that shares a CPU with another
    busy process slows the study down.  The child gets every CPU of this
    process but the one it runs on now, since the scheduler may leave a new
    process on its parent's CPU while another one idles.
    """
    if len(grids) < 2 or grids[-1].M < _FORK_MIN_STEPS:
        return None
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    state = _threads_and_cpu()
    if state is None or state[0] != 1 or len(cpus) < 2:
        return None
    runnable = _runnable()
    if runnable is None or runnable >= len(cpus):
        return None
    return cpus - {state[1]}


def _threads_and_cpu() -> tuple[int, int] | None:
    """This process's thread count and the CPU it runs on, as Linux reports them; None elsewhere."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            # the fields after the command name, from the state on
            fields = stat.read().rpartition(b")")[2].split()
        return int(fields[17]), int(fields[36])
    except (OSError, IndexError, ValueError):
        return None


def _runnable() -> int | None:
    """How many tasks run or are ready to run now, this one included, as Linux counts them.

    The count is the whole system's, not only of this process's CPUs.
    None where it cannot be read.
    """
    try:
        with open("/proc/loadavg", "rb") as loadavg:
            # the load averages, then runnable/all tasks
            return int(loadavg.read().split()[3].partition(b"/")[0])
    except (OSError, IndexError, ValueError):
        return None


def _end_with(parent: int) -> None:
    """Have Linux kill this forked child as soon as its ``parent`` process ends.

    A parent killed by a signal runs no ``finally`` to stop its child, so
    the kernel does (``PR_SET_PDEATHSIG``).  Raises ``ProcessLookupError``
    where the parent ended before the request was made.
    """
    import ctypes
    import signal

    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:
        raise ProcessLookupError(parent)


class _FinestChild:
    """A forked child that integrates a study's finest grid and writes its states down a pipe.

    The child writes the flat ``array('d')`` of the run's states, nothing
    pickled, once the run has returned, and always ends in ``os._exit``: 0
    once every byte is written, 1 on any failure, a blow-up included.  It
    runs the parent's code on the parent's inputs, so its states are
    bitwise the parent's own run.
    """

    __slots__ = ("grid", "pid", "pipe")

    def __init__(self, grid: TimeGrid, pid: int, pipe: BinaryIO) -> None:
        self.grid, self.pid, self.pipe = grid, pid, pipe

    @classmethod
    def start(
        cls, problem: ManufacturedProblem, grid: TimeGrid, sign: SignConvention, cpus: set[int]
    ) -> _FinestChild | None:
        """Fork the child to run on ``cpus``; None where the pipe or the process cannot be made."""
        try:
            read_end, write_end = os.pipe()
        except OSError:
            return None
        parent = os.getpid()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            return None
        if pid == 0:
            status = 1
            try:
                os.close(read_end)
                _end_with(parent)
                os.sched_setaffinity(0, cpus)
                values = integrate(problem.field, problem.y0, grid, sign).values
                with open(write_end, "wb") as pipe:
                    pipe.write(values)
                status = 0
            except BaseException:  # the child reports through its exit status alone
                pass
            finally:
                os._exit(status)
        os.close(write_end)
        return cls(grid, pid, open(read_end, "rb", buffering=0))

    def trajectory(self, dim: int) -> Trajectory | None:
        """The child's run, read and reaped; None where it wrote short.

        The child writes only once its run has returned, so every byte read
        is a run that did not blow up, whatever its exit status, which this
        process may not get (``SIGCHLD`` ignored, or a handler that waits).
        Where the states do not fit in this process beside the child's, the
        child is stopped and None returned.
        """
        try:
            values = array("d", [0.0]) * ((self.grid.M + 1) * dim)
        except MemoryError:
            self.stop()
            return None
        view = memoryview(values).cast("B")
        got = 0
        with self.pipe:
            while got < len(view):
                n = self.pipe.readinto(view[got:])
                if not n:
                    break
                got += n
        self._reap(kill=False)
        if got < len(view):
            return None
        return Trajectory(self.grid, values)

    def stop(self) -> None:
        """Kill and reap the child unless it has ended, and close the pipe."""
        self._reap(kill=True)
        self.pipe.close()

    def _reap(self, kill: bool) -> None:
        """Wait for the child to end, killing it first if ``kill`` and it has not ended.

        A child already reaped, by the system where ``SIGCHLD`` is ignored
        or by a handler of this process's, is not waited for, and not
        killed, since its pid may be another process's by now.
        """
        pid, self.pid = self.pid, None
        if pid is None:
            return
        try:
            if kill:
                if os.waitpid(pid, os.WNOHANG)[0]:
                    return
                import signal

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):  # reaped already
            pass


def _exact_sources(
    problem: ManufacturedProblem, grids: Sequence[TimeGrid]
) -> list[tuple[array, array, int]]:
    """Per grid, ``(values, largest, stride)``: where its exact states and their maxima are.

    ``values`` are the flat exact states of a grid evaluated in full,
    ``largest`` holds max |row| of each of their rows, and the grid's
    states are every ``stride``-th row of ``values``.  The grids are
    walked finest first.  A grid whose points are every
    2**j-th point (j >= 1) of a grid evaluated before it, that is with the
    same t0, 2**j times fewer steps and a step 2**j times as long, reads
    that grid's states: t0 + m * (2**j * k) and t0 + (2**j * m) * k round
    the same real number, so the times are bitwise equal, and so are the
    states.  Any other grid is evaluated in full (stride 1), and the
    coarser grids may read it in turn.
    """
    np, dim = sys.modules.get("numpy"), problem.field.dim
    evaluated: list[tuple[TimeGrid, tuple[array, array]]] = []
    sources = []
    for grid in reversed(grids):
        for finer, source in evaluated:
            stride = finer.M // grid.M
            if (
                stride > 1
                and not stride & (stride - 1)
                and finer.M == stride * grid.M
                and grid.t0 == finer.t0
                and grid.k == stride * finer.k
            ):
                break
        else:
            values = problem.exact_values(grid)
            if np is None:
                largest = _row_maxima(dim, deviations=False)(values)
            else:
                largest = _numpy_row_maxima(np, np.frombuffer(values).reshape(-1, dim))
            source, stride = (values, largest), 1
            evaluated.append((grid, source))
        sources.append((*source, stride))
    return sources[::-1]


def _norms(
    values: array, largest: array, stride: int, trajectory: Trajectory, k: float
) -> tuple[float, float, float]:
    """L2-in-time norms of the row maxima of |exact|, |computed| and |exact - computed|.

    The exact states are every ``stride``-th row of ``values``, and their
    maxima every ``stride``-th value of ``largest``.  Where this interpreter
    has imported numpy, the maxima of |computed| and |exact - computed| are
    taken with numpy (:func:`_numpy_row_maxima`) on views of the states,
    which copy nothing; otherwise by :func:`_row_maxima`'s loops, and with
    a stride above 1 the exact states are copied out first, a copy that
    does not outlive the call.  Grid point 0 is not in the norms.
    """
    dim = trajectory.dim
    np = sys.modules.get("numpy")
    if np is None:
        exact = values
        if stride > 1:
            exact = array("d", [0.0]) * (dim * (trajectory.grid.M + 1))
            for c in range(dim):
                exact[c::dim] = values[c :: stride * dim]
        deviations = _row_maxima(dim, deviations=True)
        computed = trajectory.values
        computed_max, error_max = deviations(islice(exact, dim, None), islice(computed, dim, None))
    else:
        exact = np.frombuffer(values).reshape(-1, dim)[::stride]
        computed = np.frombuffer(trajectory.values).reshape(-1, dim)
        computed_max, error_max = _numpy_row_maxima(np, exact[1:], computed[1:])
    maxima = (largest[stride::stride], computed_max, error_max)
    return tuple(discrete_l2_time_norm(per_point, k) for per_point in maxima)


def _numpy_row_maxima(
    np: ModuleType, exact: np.ndarray, computed: np.ndarray | None = None
) -> array | tuple[array, array]:
    """:func:`_row_maxima`'s maxima with numpy, for ``(rows, dim)`` float64 arrays.

    ``_numpy_row_maxima(np, exact)`` gives max |exact| per row, and
    ``_numpy_row_maxima(np, exact, computed)`` max |computed| and
    max |exact - computed|, each an ``array('d')`` of one value per row,
    bitwise :func:`_row_maxima`'s: ``np.maximum`` lets a NaN win as the
    loops do, and ``np.abs`` maps -0.0 to 0.0.  Each maximum is taken
    column by column into its result, so the only temporary is one column.
    """
    rows, dim = exact.shape
    column = np.empty(rows)

    def largest(magnitude: Callable[[int, np.ndarray], np.ndarray]) -> array:
        result = array("d", [0.0]) * rows
        out = np.frombuffer(result)
        magnitude(0, out)
        for c in range(1, dim):
            np.maximum(out, magnitude(c, column), out=out)
        return result

    if computed is None:
        return largest(lambda c, out: np.abs(exact[:, c], out=out))
    with np.errstate(all="ignore"):  # inf - inf, and differences that overflow
        return (
            largest(lambda c, out: np.abs(computed[:, c], out=out)),
            largest(
                lambda c, out: np.abs(np.subtract(exact[:, c], computed[:, c], out=out), out=out)
            ),
        )


@functools.cache
def _row_maxima(dim: int, deviations: bool) -> Callable[..., array | tuple[array, array]]:
    """A loop, written out for rows of ``dim`` values, that takes row maxima of magnitudes.

    Without ``deviations`` it is ``maxima(exact)``, which gives max |exact|
    per row; with ``deviations``, ``maxima(exact, computed)``, which gives max
    |computed| and max |exact - computed| per row.  Each argument gives
    floats row after row, ``dim`` to a row, and each result is an
    ``array('d')`` of one value per row of the shortest argument.  A NaN
    anywhere in a row makes its maximum NaN and -0.0 counts as 0.0, as in
    numpy's ``np.abs(rows).max(axis=1)``.  The loop unpacks each row from
    ``zip`` into ``dim`` names and compares them in written-out
    expressions, so it builds no list or tuple per row.
    """
    if deviations:
        rows = {"e": "exact", "c": "computed"}
        terms = [[f"c{i}" for i in range(dim)], [f"e{i} - c{i}" for i in range(dim)]]
    else:
        rows = {"e": "exact"}
        terms = [[f"e{i}" for i in range(dim)]]
    outs = [f"out{j}" for j in range(len(terms))]

    def largest(values: list[str], out: str) -> list[str]:
        lines = [f"a{i} = abs({value})" for i, value in enumerate(values)]
        m = "a0"
        for i in range(1, dim):  # a NaN on either side wins
            lines.append(f"m = {m} if {m} > a{i} or {m} != {m} else a{i}")
            m = "m"
        return [*lines, f"{out}.append({m})"]

    text = "\n".join(
        [
            f"def maxima({', '.join(rows.values())}):",
            *(f"    {out} = array('d')" for out in outs),
            *(f"    {name} = iter({argument})" for name, argument in rows.items()),
            # each name with a comma, so that a row of one value unpacks too
            f"    for {''.join(f'{name}{i}, ' for name in rows for i in range(dim))}in zip(",
            f"        {', '.join(name for name in rows for _ in range(dim))}",
            "    ):",
            *(f"        {line}" for out, row in zip(outs, terms) for line in largest(row, out)),
            f"    return {', '.join(outs)}",
        ]
    )
    namespace = {"array": array}
    exec(text, namespace)
    return namespace["maxima"]


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
