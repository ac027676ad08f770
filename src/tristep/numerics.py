"""State vectors, uniform time grids, and the discrete norms of the studies.

Everything here is a pure function of its inputs; values can be shared
freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TimeGrid",
    "Trajectory",
    "as_state",
    "build_grid",
    "convergence_rate",
    "discrete_l2_time_norm",
    "era_indices",
    "sup_norm",
]

#: Rows a loop gathers flat in a Python list before one slice assignment
#: writes them into an array: far cheaper than a row assignment per row,
#: while the list stays small whatever the number of rows.
BLOCK_ROWS = 1024


def as_state(values: Iterable[float], dim: int | None = None) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 state vector and validate it.

    Args:
      values: Any sequence of reals.
      dim: Required dimension, when the caller knows it.

    Raises:
      ValueError: On empty input, a dimension mismatch, or non-finite entries.
    """
    y = np.asarray(values, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("state vector must be a nonempty 1-D sequence of reals")
    if dim is not None and y.size != dim:
        raise ValueError(f"state vector has dimension {y.size}, expected {dim}")
    if not np.isfinite(y).all():
        raise ValueError("state vector entries must be finite")
    return y


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [t0, T] into M steps of size k = (T - t0) / M.

    Grid point ``n`` sits at ``t0 + n * k`` for n = 0..M; the last point
    lands on T up to one unit in the last place.
    """

    t0: float
    T: float
    M: int
    k: float

    def __post_init__(self) -> None:
        if not self.T > self.t0:
            raise ValueError("time grid requires T > t0")
        if self.M < 1:
            raise ValueError("time grid requires at least one step")
        if not self.k > 0.0:
            raise ValueError("time grid requires a positive step size")
        span = self.T - self.t0
        if abs(self.M * self.k - span) > 4.0 * math.ulp(span):
            raise ValueError("inconsistent grid: M * k must equal T - t0")

    def time(self, n: int) -> float:
        """The grid point t_n = t0 + n * k."""
        return self.t0 + n * self.k

    def times(self) -> np.ndarray:
        """All grid points t_0 .. t_M."""
        return self.t0 + self.k * np.arange(self.M + 1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Grid samples of one integration run.

    ``states`` holds the M + 1 state vectors row-wise, starting with the
    initial condition.  ``negativity_flag`` is true when any stored entry
    is negative; negative values are reported, never clamped.
    """

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self) -> None:
        if self.states.ndim != 2 or self.states.shape[0] != self.grid.M + 1:
            raise ValueError("trajectory must hold exactly M + 1 state samples")

    @property
    def dim(self) -> int:
        return int(self.states.shape[1])

    @property
    def negativity_flag(self) -> bool:
        return bool((self.states < 0.0).any())


def sup_norm(y: Sequence[float] | np.ndarray) -> float:
    """Max-magnitude norm max_i |y_i| of a state vector.

    Raises:
      ValueError: If ``y`` is empty.
    """
    v = np.asarray(y, dtype=np.float64)
    if v.size == 0:
        raise ValueError("sup_norm of an empty vector")
    return float(np.max(np.abs(v)))


def discrete_l2_time_norm(per_step_norms: Sequence[float] | np.ndarray, k: float) -> float:
    """Time-discrete L2 aggregate sqrt(k * sum_n v_n**2).

    The sequence covers grid points 1..M only; the initial sample is
    deliberately excluded from the sum.

    Raises:
      ValueError: If the sequence is empty or ``k`` is not positive.
    """
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
    m = max(1, round(steps))
    return TimeGrid(t0=float(t0), T=float(T), M=m, k=(T - t0) / m)


def era_indices(times: np.ndarray, boundaries: Sequence[float]) -> np.ndarray:
    """Era index of every time, for strictly increasing era ``boundaries``.

    Eras are left-closed and right-open, except the final era which also
    includes its right endpoint.  A time before the first boundary gets -1.

    Raises:
      ValueError: If some era holds none of the times.
    """
    bounds = tuple(float(b) for b in boundaries)
    n_eras = len(bounds) - 1
    index = np.minimum(np.searchsorted(bounds, times, side="right") - 1, n_eras - 1)
    # slot 0 counts the times before the first boundary
    held = np.bincount(index + 1, minlength=n_eras + 1)[1:]
    if not held.all():
        j = int(np.argmin(held))
        raise ValueError(f"era [{bounds[j]!r}, {bounds[j + 1]!r}) holds no grid point")
    return index
