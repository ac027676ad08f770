"""Dimension-3 verification problems with known closed-form solutions.

Both problems share the solution

    y1 = t**2 - t,   y2 = (t**2 - t) * exp(-t),   y3 = (t - 1) * sin(t)

on [0, 1] with y(0) = (0, 0, 0).  Their vector fields differ in the
coupling term (y2**2 versus y2*y3), and each carries forcing terms chosen
so that the solution above satisfies the system exactly; integration
errors are therefore directly measurable at every grid point.
"""

from __future__ import annotations

import math
from array import array

from .numerics import BLOCK_ROWS, Record, TimeGrid
from .scheme import RhsField

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Sequence

    import numpy as np

__all__ = ["ManufacturedProblem", "PROBLEM_LABELS", "example1", "example2", "problem"]


class ManufacturedProblem(Record):
    """A vector field together with the closed-form solution it was built for.

    ``exact(t)`` gives the solution at ``t`` as a sequence of floats.
    """

    __slots__ = _fields = ("label", "field", "exact", "t0", "T")

    def __init__(
        self,
        label: str,
        field: RhsField,
        exact: Callable[[float], Sequence[float]],
        t0: float = 0.0,
        T: float = 1.0,
    ) -> None:
        self._set(label, field, exact, t0, T)

    @property
    def y0(self) -> tuple[float, ...]:
        """Initial state, by construction equal to ``exact(t0)``."""
        return tuple(self.exact(self.t0))

    def exact_values(self, grid: TimeGrid) -> array:
        """``exact`` at every grid point t_0..t_M, row after row, in one flat ``array('d')``.

        The rows are gathered in blocks of ``BLOCK_ROWS``.

        Raises:
          ValueError: If ``exact`` returns a row whose length is not the
            field's dimension.
        """
        exact, t0, k, dim, count = self.exact, grid.t0, grid.k, self.field.dim, grid.M + 1
        values = array("d")
        for a in range(0, count, BLOCK_ROWS):
            rows: list[float] = []
            for n in range(a, min(a + BLOCK_ROWS, count)):
                row = exact(t0 + n * k)  # t0 + n * k is grid.time(n)
                if len(row) != dim:
                    raise ValueError(f"exact returned {len(row)} values, expected {dim}")
                rows.extend(row)
            values.fromlist(rows)
        return values

    def exact_states(self, grid: TimeGrid) -> np.ndarray:
        """:meth:`exact_values` as a ``(M + 1, dim)`` float64 array that shares its memory."""
        import numpy as np

        values = self.exact_values(grid)
        return np.frombuffer(values, dtype=np.float64).reshape(grid.M + 1, self.field.dim)


def _solution(t: float) -> tuple[float, float, float]:
    q = t * t - t
    return (q, q * math.exp(-t), (t - 1.0) * math.sin(t))


#: The math functions the forcing terms call, bound as constants.
_MATH = {"exp": math.exp, "cos": math.cos, "sin": math.sin}


def example1() -> ManufacturedProblem:
    """Problem whose second and third equations couple through y2**2."""
    rates = """
    tt = t * t
    e1 = exp(-t)
    q = tt - t
    qq = q * q * exp(-2.0 * t)
    g1 = tt + t - 1.0
    g2 = qq - (tt - 3.0 * t + 1.0) * e1 - tt + t
    g3 = -qq + (t - 1.0) * cos(t) + sin(t)
    sq = y2 * y2
    f1 = -y1 + g1
    f2 = y1 - sq + g2
    f3 = sq + g3
    """
    field = RhsField.from_source(3, rates, constants=_MATH)
    return ManufacturedProblem(label="example1", field=field, exact=_solution)


def example2() -> ManufacturedProblem:
    """Problem whose first two equations couple through y2*y3."""
    rates = """
    tt = t * t
    tm = t - 1.0
    e1 = exp(-t)
    s = sin(t)
    # t*(t-1)**2 * exp(-t) * sin(t) equals y2*y3 along the exact solution
    w = t * tm ** 2 * e1 * s
    q = tt - t
    g1 = tt + t - 1.0 - w
    g2 = t - tt - (tt - 3.0 * t + 1.0) * e1 + w
    g3 = -(q * q) * exp(-2.0 * t) + tm * cos(t) + s
    y23 = y2 * y3
    f1 = -y1 + y23 + g1
    f2 = y1 - y23 + g2
    f3 = y2 * y2 + g3
    """
    field = RhsField.from_source(3, rates, constants=_MATH)
    return ManufacturedProblem(label="example2", field=field, exact=_solution)


_PROBLEM_BUILDERS = {"example1": example1, "example2": example2}

PROBLEM_LABELS = tuple(_PROBLEM_BUILDERS)


def problem(label: str) -> ManufacturedProblem:
    """Return the verification problem registered under ``label``.

    Raises:
      ValueError: If the label is unknown.
    """
    try:
        build = _PROBLEM_BUILDERS[label]
    except KeyError:
        known = ", ".join(PROBLEM_LABELS)
        raise ValueError(f"unknown problem {label!r}; expected one of: {known}") from None
    return build()
