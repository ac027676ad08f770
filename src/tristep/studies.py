"""Convergence-study and era-summary harnesses over the integrator.

Each scenario run is pure, and presets could run concurrently.  A
convergence study integrates each grid once, coarse to fine, with the
problem's exact solution: the kernel takes max |exact|, max |computed| and
max |exact - computed| at every grid point as it steps, keeps no state, and
the study takes the norms of those maxima.  The built-in problems write
their solution as text over their field's time terms, which the kernel
inlines.  Where the problem's solution is such text, the process runs one
thread, may run on two CPUs or more and finds one of them idle, and the
finest grid has 8 192 steps or more, that grid runs meanwhile in a forked
child on another CPU, which takes that grid's three norms as the parent
would and sends back those alone, so the table is bitwise the serial one.
The study holds numpy's OpenBLAS at one thread with its workers joined,
whether its norms or a caller's ``import numpy`` loaded the library, so a
``tristep converge`` process runs one thread on such a host, as does any
program that runs no other Python thread; one that does, and ``taskset -c 0
tristep converge ...``, run serially.  A scenario run (:func:`run_scenario`)
stays on Python floats and imports no numpy: the kernel adds each state into
its era's sums as it steps and keeps every N-th state, and the summary is
divided from those sums.  :func:`era_summary` takes the same summary from a
trajectory's stored states as numpy's means; it is the reference those sums
are checked against, and it imports numpy.  A convergence study imports no
numpy: it sums the squares of its maxima with the OpenBLAS numpy's wheel
bundles, loaded as numpy's import would load it and held at one thread for
the study; its norms can depend in their last bits on the OpenBLAS kernel
the CPU selects, and where there is no such library they add the squares in
order (:func:`~tristep.numerics.discrete_l2_time_norm`).  The rows of a table
or a summary are named tuples (``collections.namedtuple``).
"""

from __future__ import annotations

import _signal  # loaded at every CPython's start-up, unlike signal
import math
import operator
import os
from array import array
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
    one_blas_thread,
    probe_memory,
)
from .scheme import SignConvention, inlines_exact, integrate

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import BinaryIO, Iterable, Sequence

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
    whose maxima, 24 bytes per point, the allocator refuses: "the run's N
    states do not fit in memory" (:func:`~tristep.numerics.probe_memory`).
    Each grid is integrated once, keeping no state, against ``problem.exact``
    (:func:`~tristep.scheme.integrate`): per grid point n = 1..M the run
    takes the sup norms (row maxima of magnitudes) of the exact solution,
    the numerical solution and their difference, and the study aggregates
    each sequence with the discrete L2-in-time norm.  So the exact solution
    is evaluated at every point of every grid, inlined into the kernel
    where ``exact`` is the field's own solution text.  The OpenBLAS the
    norms sum their squares with is loaded before the first integration and
    held at one thread for the whole study, its workers joined where no
    other Python thread is alive (:class:`~tristep.numerics.one_blas_thread`).

    The finest grid runs in a forked child, while this process runs the
    coarser grids, where ``exact`` is the solution text of the problem's own
    field (:meth:`~tristep.scheme.RhsField.solution`), ``os.fork`` exists,
    there are two grids or more, the finest has 8 192 steps or more, this
    process may run on two CPUs or more (``os.sched_getaffinity``) and runs
    one thread, and fewer tasks are runnable on the system than this process
    has CPUs, as Linux reports them.  A called ``exact`` or a field of
    another ``evaluate`` is the caller's own code, whose effects, such as a
    count of its calls, a child would keep to itself
    (:func:`~tristep.scheme.inlines_exact`).  The process runs one thread,
    since the study joins OpenBLAS's workers first, whether the norms or a
    caller's ``import numpy`` loaded the library, unless another Python
    thread is alive.  Such a thread, ``taskset -c 0``, which leaves one CPU,
    and a second busy process, which leaves no CPU idle, make it run
    serially.  The child runs on every CPU of this process but the one this
    process runs on, takes the three norms of its grid as any grid's
    (:func:`_norms`), with the kernels this process compiled and the
    library it loaded before the fork, so it imports nothing, and writes
    them down a pipe: 24 bytes, bitwise this process's own, so the table is
    bitwise the serial one.  Where the child fails in any way, by a blow-up
    or a short write, this process integrates the finest grid itself, and a
    blow-up raises the serial error.  The child is killed and reaped however
    the study ends, a coarser grid's blow-up or an interrupt included, and
    Linux kills it when a signal ends this process first.

    Raises:
      ValueError: If the exponents are not strictly increasing positive ints,
        a step is too small for its grid or its maxima, or ``exact``
        returns a row whose length is not the field's dimension.
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
    probe_memory(3 * finest.M * 8, finest.k, finest.M + 1)  # its three arrays of maxima
    with one_blas_thread():
        # a called exact or field is the caller's code, whose effects, such as
        # a count of its calls, a child would keep to itself
        cpus = _child_cpus(grids) if inlines_exact(problem.field, problem.exact) else None
        child = None if cpus is None else _FinestChild.start(problem, finest, sign, cpus)
        try:
            rows: list[ConvergenceRow] = []
            previous_error: float | None = None
            for grid in grids:
                norms = child.norms() if child is not None and grid is finest else None
                exact_norm, numeric_norm, error_norm = norms or _norms(problem, grid, sign)
                rate = None
                if previous_error is not None and previous_error > 0.0 and error_norm > 0.0:
                    rate = convergence_rate(previous_error, error_norm)
                rows.append(ConvergenceRow(grid.k, exact_norm, numeric_norm, error_norm, rate))
                previous_error = error_norm
        finally:
            if child is not None:
                child.stop()
    return rows


def _norms(
    problem: ManufacturedProblem, grid: TimeGrid, sign: SignConvention
) -> tuple[float, ...]:
    """The L2-in-time norms of max |exact|, max |computed| and max |exact - computed| of one run."""
    run = integrate(problem.field, problem.y0, grid, sign, every=None, exact=problem.exact)
    return tuple(discrete_l2_time_norm(per_point, grid.k) for per_point in run.maxima)


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
    busy process slows the study down.  The study asks inside
    :class:`~tristep.numerics.one_blas_thread`, where the norms' OpenBLAS,
    whoever loaded it, has joined its workers.  The child gets every CPU of
    this process but the one it runs on now, since the scheduler may leave
    a new process on its parent's CPU while another one idles.
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


class _FinestChild:
    """A forked child that runs a study's finest grid and writes its three norms down a pipe.

    The child writes the norms as one ``array('d')`` of 3 floats, 24 bytes,
    which is less than ``PIPE_BUF``: the write is atomic and never blocks.
    It writes once its run has returned, and always ends in ``os._exit``: 0
    once the norms are written, 1 on any failure, a blow-up included.  It
    runs the parent's code on the parent's inputs: the kernels and the
    initial state the parent made before the fork, and its norms on the
    library the parent loaded for them, so they are bitwise the parent's
    own, and it imports nothing.
    """

    __slots__ = ("pid", "pipe")

    def __init__(self, pid: int, pipe: BinaryIO) -> None:
        self.pid, self.pipe = pid, pipe

    @classmethod
    def start(
        cls, problem: ManufacturedProblem, grid: TimeGrid, sign: SignConvention, cpus: set[int]
    ) -> _FinestChild | None:
        """Fork the child to run on ``cpus``; None without ``ctypes``, a pipe or a process."""
        problem.y0, problem.exact.march  # compiled here, so the child inherits them
        try:
            import ctypes

            read_end, write_end = os.pipe()
        except (ImportError, OSError):
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
                # a parent killed by a signal runs no finally to stop its child,
                # so Linux does, unless the parent ended before this request
                ctypes.CDLL(None).prctl(1, _signal.SIGKILL)  # PR_SET_PDEATHSIG
                if os.getppid() == parent:
                    os.sched_setaffinity(0, cpus)
                    os.write(write_end, array("d", _norms(problem, grid, sign)))
                    status = 0
            except BaseException:  # the child reports through its exit status alone
                pass
            finally:
                os._exit(status)
        os.close(write_end)
        return cls(pid, open(read_end, "rb"))

    def norms(self) -> array | None:
        """The child's three norms, read and reaped; None where it wrote short.

        The child writes only once its run has returned, so 24 bytes read
        are a run that did not blow up, whatever its exit status, which this
        process may not get (``SIGCHLD`` ignored, or a handler that waits).
        """
        with self.pipe:
            written = self.pipe.read(24)
        self._reap(kill=False)
        return array("d", written) if len(written) == 24 else None

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
                os.kill(pid, _signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):  # reaped already
            pass


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
