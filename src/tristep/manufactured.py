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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .numerics import BLOCK_ROWS, TimeGrid
from .scheme import RhsField

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ManufacturedProblem", "PROBLEM_LABELS", "example1", "example2", "problem"]


class _ClosedForm:
    """The array ``exact`` derived from a closed form on floats, which it exposes."""

    __slots__ = ("solution",)

    def __init__(self, solution: Callable[[float], Sequence[float]]) -> None:
        self.solution = solution

    def __call__(self, t: float) -> np.ndarray:
        import numpy as np

        return np.array(self.solution(t))


@dataclass(frozen=True)
class ManufacturedProblem:
    """A vector field together with the closed-form solution it was built for."""

    label: str
    field: RhsField
    exact: Callable[[float], np.ndarray]
    t0: float = 0.0
    T: float = 1.0

    @property
    def y0(self) -> np.ndarray:
        """Initial state, by construction equal to ``exact(t0)``."""
        return self.exact(self.t0)

    def exact_states(self, grid: TimeGrid) -> np.ndarray:
        """``exact`` at every grid point t_0..t_M, one row each.

        When ``exact`` is derived from a closed form on floats, the rows
        come from that form, bitwise the same values; any other ``exact``
        is called once per grid point.
        """
        import numpy as np

        exact = self.exact
        solution = exact.solution if isinstance(exact, _ClosedForm) else exact
        states = np.empty((grid.M + 1, self.field.dim))
        flat = states.reshape(-1)
        t0, k, dim = grid.t0, grid.k, self.field.dim
        for first in range(0, grid.M + 1, BLOCK_ROWS):
            stop = min(first + BLOCK_ROWS, grid.M + 1)
            rows: list[float] = []
            for n in range(first, stop):
                rows.extend(solution(t0 + n * k))  # t0 + n * k is grid.time(n)
            flat[first * dim : stop * dim] = rows
        return states


def _solution(t: float) -> tuple[float, float, float]:
    q = t * t - t
    return (q, q * math.exp(-t), (t - 1.0) * math.sin(t))


#: The math functions the forcing terms call, bound as constants.
_MATH = {"exp": math.exp, "cos": math.cos, "sin": math.sin}


def example1() -> ManufacturedProblem:
    """Problem whose second and third equations couple through y2**2."""
    rates = """
    e1 = exp(-t)
    q = t * t - t
    qq = q * q * exp(-2.0 * t)
    g1 = t * t + t - 1.0
    g2 = qq - (t * t - 3.0 * t + 1.0) * e1 - t * t + t
    g3 = -qq + (t - 1.0) * cos(t) + sin(t)
    f1 = -y1 + g1
    f2 = y1 - y2 * y2 + g2
    f3 = y2 * y2 + g3
    """
    field = RhsField.from_source(3, rates, constants=_MATH)
    return ManufacturedProblem(label="example1", field=field, exact=_ClosedForm(_solution))


def example2() -> ManufacturedProblem:
    """Problem whose first two equations couple through y2*y3."""
    rates = """
    e1 = exp(-t)
    s = sin(t)
    # t*(t-1)**2 * exp(-t) * sin(t) equals y2*y3 along the exact solution
    w = t * (t - 1.0) ** 2 * e1 * s
    q = t * t - t
    g1 = t * t + t - 1.0 - w
    g2 = t - t * t - (t * t - 3.0 * t + 1.0) * e1 + w
    g3 = -(q * q) * exp(-2.0 * t) + (t - 1.0) * cos(t) + s
    y23 = y2 * y3
    f1 = -y1 + y23 + g1
    f2 = y1 - y23 + g2
    f3 = y2 * y2 + g3
    """
    field = RhsField.from_source(3, rates, constants=_MATH)
    return ManufacturedProblem(label="example2", field=field, exact=_ClosedForm(_solution))


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
