"""Dimension-3 verification problems with known closed-form solutions.

Both problems share the solution

    y1 = t**2 - t,   y2 = (t**2 - t) * exp(-t),   y3 = (t - 1) * sin(t)

on [0, 1] with y(0) = (0, 0, 0).  Their vector fields differ in the
coupling term (y2**2 versus y2*y3), and each carries forcing terms chosen
so that the solution above satisfies the system exactly; integration
errors are therefore directly measurable at every grid point.  Each
problem writes the solution as text over its field's time terms
(:meth:`~tristep.scheme.RhsField.solution`), so a convergence study's
kernel takes it from the time terms it computes anyway.
"""

from __future__ import annotations

import math

from .numerics import Record, _DataclassFields
from .scheme import RhsField

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Sequence

__all__ = ["ManufacturedProblem", "PROBLEM_LABELS", "example1", "example2", "problem"]


class ManufacturedProblem(Record):
    """A vector field together with the closed-form solution it was built for.

    ``exact(t)`` gives the solution at ``t`` as a sequence of floats.  Given
    as text, ``exact`` is the field's :meth:`~tristep.scheme.RhsField.solution`
    of it, which :func:`~tristep.scheme.integrate` inlines into its kernel.
    """

    __slots__ = _fields = ("label", "field", "exact", "t0", "T")
    __dataclass_fields__ = _DataclassFields()

    def __init__(
        self,
        label: str,
        field: RhsField,
        exact: Callable[[float], Sequence[float]] | str,
        t0: float = 0.0,
        T: float = 1.0,
    ) -> None:
        if isinstance(exact, str):
            exact = field.solution(exact)
        self._set(label, field, exact, t0, T)

    @property
    def y0(self) -> tuple[float, ...]:
        """Initial state, by construction equal to ``exact(t0)``."""
        return tuple(self.exact(self.t0))


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
    exact = """
    y1 = q
    y2 = q * e1
    y3 = (t - 1.0) * sin(t)
    """
    return ManufacturedProblem(label="example1", field=field, exact=exact)


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
    exact = """
    y1 = q
    y2 = q * e1
    y3 = tm * s
    """
    return ManufacturedProblem(label="example2", field=field, exact=exact)


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
