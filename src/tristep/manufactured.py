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
from typing import Callable

import numpy as np

from .scheme import RhsField

__all__ = ["ManufacturedProblem", "PROBLEM_LABELS", "example1", "example2", "problem"]


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


def _exact(t: float) -> np.ndarray:
    q = t * t - t
    return np.array((q, q * math.exp(-t), (t - 1.0) * math.sin(t)))


def example1() -> ManufacturedProblem:
    """Problem whose second and third equations couple through y2**2."""

    def components(t: float, y) -> tuple[float, float, float]:
        y1, y2, _ = y
        e1 = math.exp(-t)
        q = t * t - t
        qq = q * q * math.exp(-2.0 * t)
        g1 = t * t + t - 1.0
        g2 = qq - (t * t - 3.0 * t + 1.0) * e1 - t * t + t
        g3 = -qq + (t - 1.0) * math.cos(t) + math.sin(t)
        return (-y1 + g1, y1 - y2 * y2 + g2, y2 * y2 + g3)

    return ManufacturedProblem(
        label="example1", field=RhsField.from_components(3, components), exact=_exact
    )


def example2() -> ManufacturedProblem:
    """Problem whose first two equations couple through y2*y3."""

    def components(t: float, y) -> tuple[float, float, float]:
        y1, y2, y3 = y
        e1 = math.exp(-t)
        s = math.sin(t)
        # t*(t-1)**2 * exp(-t) * sin(t) equals y2*y3 along the exact solution
        w = t * (t - 1.0) ** 2 * e1 * s
        q = t * t - t
        g1 = t * t + t - 1.0 - w
        g2 = t - t * t - (t * t - 3.0 * t + 1.0) * e1 + w
        g3 = -(q * q) * math.exp(-2.0 * t) + (t - 1.0) * math.cos(t) + s
        return (-y1 + y2 * y3 + g1, y1 - y2 * y3 + g2, y2 * y2 + g3)

    return ManufacturedProblem(
        label="example2", field=RhsField.from_components(3, components), exact=_exact
    )


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
