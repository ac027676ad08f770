"""State vectors, uniform time grids, era bounds and the discrete norms of the studies.

Everything here is a pure function of its inputs; values can be shared
freely across threads.  A grid is stated by its span and step count, and
derives its step from them.  Grids, era bounds, state checks and trajectories
run on Python floats and ints; a trajectory keeps its states in one flat
``array('d')``, and a streamed run keeps its era sums, a sign flag and every
N-th state.  numpy is imported only by the functions that make or read
numpy arrays (``as_state``, ``TimeGrid.times``, ``Trajectory.states`` and
the norms).
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "StreamedRun",
    "TimeGrid",
    "Trajectory",
    "as_state",
    "build_grid",
    "convergence_rate",
    "discrete_l2_time_norm",
    "era_starts",
    "sup_norm",
]

#: Rows a loop gathers flat in a Python list before one slice assignment
#: writes them into an array: far cheaper than a row assignment per row,
#: while the list stays small whatever the number of rows.
BLOCK_ROWS = 1024


_NOT_A_STATE = "state vector must be a nonempty 1-D sequence of reals"


def state_floats(values: Iterable[float], dim: int) -> tuple[float, ...]:
    """``values`` as a tuple of ``dim`` floats, checked to be a 1-D sequence of reals.

    Finiteness is not checked.

    Raises:
      ValueError: On empty input, text, an array that is not 1-D, an entry
        that is not a real, or a dimension other than ``dim``.
    """
    if isinstance(values, (str, bytes)) or getattr(values, "ndim", 1) != 1:
        raise ValueError(_NOT_A_STATE)
    try:
        y = tuple(map(float, values))
    except TypeError:
        raise ValueError(_NOT_A_STATE) from None
    if not y:
        raise ValueError(_NOT_A_STATE)
    if len(y) != dim:
        raise ValueError(f"state vector has dimension {len(y)}, expected {dim}")
    return y


def finite_state_floats(values: Iterable[float], dim: int) -> tuple[float, ...]:
    """:func:`state_floats`, with every entry also checked to be finite."""
    y = state_floats(values, dim)
    if not all(map(math.isfinite, y)):
        raise ValueError("state vector entries must be finite")
    return y


def as_state(values: Iterable[float], dim: int) -> np.ndarray:
    """Coerce ``values`` to a new 1-D float64 state vector of ``dim`` entries and validate it.

    Raises:
      ValueError: On empty input, a dimension mismatch, or non-finite entries.
    """
    import numpy as np

    return np.array(finite_state_floats(values, dim), dtype=np.float64)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [t0, T] into M steps of size k = (T - t0) / M.

    The step ``k`` is derived from the other three fields, never passed.
    Grid point ``n`` sits at ``t0 + n * k`` for n = 0..M; the last point
    lands on T up to one unit in the last place.
    """

    t0: float
    T: float
    M: int
    k: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.T > self.t0:
            raise ValueError("time grid requires T > t0")
        if self.M < 1:
            raise ValueError("time grid requires at least one step")
        object.__setattr__(self, "k", (self.T - self.t0) / self.M)

    def time(self, n: int) -> float:
        """The grid point t_n = t0 + n * k."""
        return self.t0 + n * self.k

    def times(self) -> np.ndarray:
        """All grid points t_0 .. t_M, equal to ``time(n)`` point by point."""
        import numpy as np

        return self.t0 + self.k * np.arange(self.M + 1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Grid samples of one integration run.

    ``values`` holds the M + 1 state vectors one after the other, starting
    with the initial condition, as one flat ``array('d')``; ``states`` reads
    it as an ``(M + 1, dim)`` float64 numpy array that shares its memory.
    ``negativity_flag`` is true when any stored entry is negative (-0.0 is
    not); negative values are reported, never clamped.
    """

    grid: TimeGrid
    values: array

    def __post_init__(self) -> None:
        if not self.values or len(self.values) % (self.grid.M + 1):
            raise ValueError("trajectory must hold exactly M + 1 state samples")

    @property
    def dim(self) -> int:
        return len(self.values) // (self.grid.M + 1)

    @property
    def states(self) -> np.ndarray:
        import numpy as np

        return np.frombuffer(self.values, dtype=np.float64).reshape(self.grid.M + 1, -1)

    @property
    def negativity_flag(self) -> bool:
        # from 0.0, neither -0.0 nor a NaN is ever smaller, so neither hides a negative entry
        return min(chain((0.0,), self.values)) < 0.0


class StreamedRun(
    namedtuple(
        "StreamedRun", "grid starts every rows era_sums overall_sums negativity_flag"
    )
):
    """What a streamed integration run keeps: sums, a sign flag and every N-th state.

    ``starts`` are the era starts the run was summed by, as
    :func:`era_starts` gives them.  ``era_sums`` holds one tuple of
    per-component sums per era, ``overall_sums`` the sums over all M + 1
    states; each sum starts from 0.0 and adds its states in grid order.
    ``rows`` holds the kept states one after the other as one flat
    ``array('d')``: those at grid points 0, ``every``, 2 * ``every``, ...
    and M, or none when ``every`` is None.  ``negativity_flag`` is true when
    any component of any state is negative (-0.0 is not), as for a
    :class:`Trajectory` of the same run.  A named tuple, built in a small
    fraction of the millisecond that a dataclass would add to every
    ``import tristep``.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.overall_sums)


def sup_norm(y: Sequence[float] | np.ndarray) -> float:
    """Max-magnitude norm max_i |y_i| of a state vector.

    Raises:
      ValueError: If ``y`` is empty.
    """
    import numpy as np

    v = np.asarray(y, dtype=np.float64)
    if v.size == 0:
        raise ValueError("sup_norm of an empty vector")
    return float(np.max(np.abs(v)))


def discrete_l2_time_norm(per_step_norms: Sequence[float] | np.ndarray, k: float) -> float:
    """Time-discrete L2 aggregate sqrt(k * sum_n v_n**2).

    The sequence covers grid points 1..M only; the initial sample is
    deliberately excluded from the sum.  The sum of squares is numpy's
    ``np.dot``, a BLAS call.  OpenBLAS 0.3.31 on x86-64 splits it across its
    threads above 10 000 values, and the split can change the last bits, so
    a longer sequence's result depends on the BLAS thread count.
    ``tristep.cli.main`` runs with OpenBLAS on one thread; a library caller's
    own setting applies here.

    Raises:
      ValueError: If the sequence is empty or ``k`` is not positive.
    """
    import numpy as np

    v = np.asarray(per_step_norms, dtype=np.float64)
    if v.size == 0:
        raise ValueError("discrete L2 norm of an empty sequence")
    if not k > 0.0:
        raise ValueError("step size k must be positive")
    return math.sqrt(k * float(np.dot(v, v)))


def convergence_rate(e_coarse: float, e_fine: float) -> float:
    """Observed order log2(e_coarse / e_fine) across one step halving.

    Raises:
      ValueError: If either error norm is not strictly positive.
    """
    if not (e_coarse > 0.0 and e_fine > 0.0):
        raise ValueError("convergence rate requires strictly positive error norms")
    return math.log2(e_coarse / e_fine)


def build_grid(t0: float, T: float, k_request: float) -> TimeGrid:
    """Uniform grid over [t0, T] whose last point lands on T.

    The step count is M = round((T - t0) / k_request), clamped to at least
    one step, and the realized step k = (T - t0) / M is recomputed from it,
    so k may differ slightly from the request.

    Raises:
      ValueError: If T <= t0, the requested step is negative or NaN, or it
        is so small (0.0 included) that the step count (T - t0) / k_request
        overflows.
    """
    if not T > t0:
        raise ValueError("build_grid requires T > t0")
    if not k_request >= 0.0:
        raise ValueError("build_grid requires a positive step request")
    steps = (T - t0) / k_request if k_request else math.inf
    if not math.isfinite(steps):
        raise ValueError(
            f"step request {k_request!r} is too small for a grid over [{t0!r}, {T!r}]"
        )
    return TimeGrid(t0=float(t0), T=float(T), M=max(1, round(steps)))


def era_starts(grid: TimeGrid, boundaries: Sequence[float]) -> tuple[int, ...]:
    """First grid index of every era, then M + 1, for strictly increasing ``boundaries``.

    Era j holds the grid points ``starts[j]`` to ``starts[j + 1] - 1``.  Eras
    are left-closed and right-open, except the final era, which holds every
    point from its left boundary on, the right endpoint included.  Points
    before the first boundary belong to no era.  Grid point n sits at
    ``t0 + n * k``, which never decreases with n, so each start is found by
    bisection over n, in O(log M) and with no array of times.

    Raises:
      ValueError: If the boundaries are fewer than two or not strictly
        increasing, or if some era holds no grid point; the message names
        the first such era.
    """
    bounds = tuple(float(b) for b in boundaries)
    if len(bounds) < 2 or not all(b < c for b, c in zip(bounds, bounds[1:])):  # NaN too
        raise ValueError("era boundaries must be strictly increasing, two or more")
    t0, k, end = grid.t0, grid.k, grid.M + 1
    starts: list[int] = []
    lo = 0
    for bound in bounds[:-1]:
        hi = end
        while lo < hi:  # the first n with t0 + n * k >= bound
            mid = (lo + hi) // 2
            if t0 + mid * k < bound:
                lo = mid + 1
            else:
                hi = mid
        starts.append(lo)
    starts.append(end)
    for j in range(len(starts) - 1):
        if starts[j] == starts[j + 1]:
            raise ValueError(f"era [{bounds[j]!r}, {bounds[j + 1]!r}) holds no grid point")
    return tuple(starts)
