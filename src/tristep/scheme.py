"""Second-order explicit one-step scheme built from three chained Heun substeps.

One macro step of size k is realized as three two-stage (trapezoidal
predictor-corrector) substeps of length k/3 starting at t_n, t_n + k/3 and
t_n + 2k/3, for six right-hand-side evaluations per step.  The recurrence is
self-starting: the initial state is used directly, no bootstrap integrator
is needed.

The default :class:`SignConvention` adds the averaged slopes, which is the
choice forced by the second-order conditions.  ``MINUS`` subtracts them
instead; that variant drives the state away from the solution and exists
only as an opt-in so the difference stays observable in the studies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import TimeGrid, Trajectory, as_state

__all__ = [
    "NumericalBlowupError",
    "RhsField",
    "SignConvention",
    "advance_one_step",
    "composed_step",
    "heun_substep",
    "integrate",
    "zero_stability_root_moduli",
    "zero_stability_roots",
]


class SignConvention(enum.Enum):
    """Sign applied to the averaged-slope update of every substep."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def factor(self) -> float:
        return 1.0 if self is SignConvention.PLUS else -1.0


@dataclass(frozen=True)
class RhsField:
    """Right-hand side f(t, y) of a first-order system y' = f(t, y).

    ``evaluate`` must be deterministic and side-effect free, and must return
    a vector of the same dimension as its input.
    """

    dim: int
    evaluate: Callable[[float, np.ndarray], np.ndarray]


class NumericalBlowupError(ArithmeticError):
    """A step produced a non-finite value; the run aborts, nothing is clamped.

    Attributes:
      t: time at which the failing substep started.
      step_index: macro-step index, when known.
      last_state: last finite accepted state, when known.
      partial_states: states accepted before the failure, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        t: float,
        step_index: int | None = None,
        last_state: np.ndarray | None = None,
        partial_states: np.ndarray | None = None,
    ) -> None:
        super().__init__(message)
        self.t = t
        self.step_index = step_index
        self.last_state = last_state
        self.partial_states = partial_states


def _check_dim(f: RhsField, y: np.ndarray) -> None:
    if f.dim != y.shape[-1]:
        raise ValueError(
            f"field dimension {f.dim} does not match state dimension {y.shape[-1]}"
        )


def _check_finite(out: np.ndarray, t: float, y: np.ndarray) -> None:
    """Raise on a non-finite result of the substep that started at (t, y)."""
    if not np.isfinite(out).all():
        raise NumericalBlowupError(
            f"non-finite state in substep starting at t={t!r}", t=t, last_state=y
        )


def _substep(f: RhsField, t: float, y: np.ndarray, h: float, w: float) -> np.ndarray:
    """Substep update y + w*(f1 + f2) with w = s*(h/2); arguments already valid."""
    f1 = f.evaluate(t, y)
    f2 = f.evaluate(t + h, y + h * f1)
    out = y + w * (f1 + f2)
    _check_finite(out, t, y)
    return out


def _step(f: RhsField, t_n: float, y: np.ndarray, h: float, w: float) -> np.ndarray:
    """Macro step as three chained substeps of length h = k/3."""
    y13 = _substep(f, t_n, y, h, w)
    t13 = t_n + h
    y23 = _substep(f, t13, y13, h, w)
    return _substep(f, t13 + h, y23, h, w)


def heun_substep(
    f: RhsField,
    t: float,
    y: np.ndarray,
    h: float,
    sign: SignConvention = SignConvention.PLUS,
) -> np.ndarray:
    """One two-stage substep of length h from (t, y).

    Computes ``y + s*(h/2) * [f(t, y) + f(t + h, y + h*f(t, y))]`` with
    s = +1 (default) or -1, using exactly two field evaluations.

    The general two-stage substep updates by h * [c1*f(t, y) + c2*f(t + 3*q1*h,
    y + 3*q2*h*f(t, y))]; the hard-coded weights c1 = c2 = 1/2 and
    q1 = q2 = 1/3 are the symmetric solution of the second-order conditions
    c1 + c2 = 1, 6*c2*q1 = 1 and 6*c2*q2 = 1.

    Raises:
      ValueError: If ``h`` is not positive or dimensions disagree.
      NumericalBlowupError: If the updated state is not finite.
    """
    if not h > 0.0:
        raise ValueError("substep length h must be positive")
    _check_dim(f, y)
    return _substep(f, t, y, h, sign.factor * (h / 2.0))


def advance_one_step(
    f: RhsField,
    t_n: float,
    y: np.ndarray,
    k: float,
    sign: SignConvention = SignConvention.PLUS,
) -> np.ndarray:
    """One macro step of size k: three chained substeps of length k/3.

    The substeps start at t_n, t_n + k/3 and t_n + 2k/3; six field
    evaluations in total.
    """
    if not k > 0.0:
        raise ValueError("step size k must be positive")
    _check_dim(f, y)
    h = k / 3.0
    return _step(f, t_n, y, h, sign.factor * (h / 2.0))


def composed_step(
    f: RhsField,
    t_n: float,
    y: np.ndarray,
    k: float,
    sign: SignConvention = SignConvention.PLUS,
) -> np.ndarray:
    """The macro step written as one combined six-evaluation update.

    Stage order and arithmetic match :func:`advance_one_step` exactly, so
    the two forms produce bit-identical results on identical inputs.
    """
    if not k > 0.0:
        raise ValueError("step size k must be positive")
    _check_dim(f, y)
    h = k / 3.0
    w = sign.factor * (h / 2.0)

    g1 = f.evaluate(t_n, y)
    g2 = f.evaluate(t_n + h, y + h * g1)
    y13 = y + w * (g1 + g2)
    _check_finite(y13, t_n, y)
    t13 = t_n + h
    g3 = f.evaluate(t13, y13)
    g4 = f.evaluate(t13 + h, y13 + h * g3)
    y23 = y13 + w * (g3 + g4)
    _check_finite(y23, t13, y13)
    t23 = t13 + h
    g5 = f.evaluate(t23, y23)
    g6 = f.evaluate(t23 + h, y23 + h * g5)
    out = y + w * (g1 + g2) + w * (g3 + g4) + w * (g5 + g6)
    _check_finite(out, t23, y23)
    return out


def integrate(
    f: RhsField,
    y0: np.ndarray,
    grid: TimeGrid,
    sign: SignConvention = SignConvention.PLUS,
) -> Trajectory:
    """March the scheme across the grid from the exact initial state.

    Returns a :class:`Trajectory` holding all M + 1 samples.

    Raises:
      ValueError: If ``y0`` is not a finite state of the field's dimension,
        or the grid's M + 1 states do not fit in memory.
      NumericalBlowupError: Carrying the failing step index, the last finite
        state and the partial run, as soon as any intermediate is non-finite.
    """
    y = as_state(y0, dim=f.dim)
    h = grid.k / 3.0
    w = sign.factor * (h / 2.0)
    try:
        states = np.empty((grid.M + 1, f.dim), dtype=np.float64)
    except (MemoryError, ValueError):  # numpy refuses sizes beyond its index range
        raise ValueError(
            f"step size k={grid.k!r} is too small: "
            f"the run's {grid.M + 1} states do not fit in memory"
        ) from None
    states[0] = y
    for n in range(grid.M):
        t_n = grid.time(n)
        try:
            y = _step(f, t_n, y, h, w)
        except NumericalBlowupError as err:
            raise NumericalBlowupError(
                f"integration diverged during step {n} (from t={t_n!r})",
                t=err.t,
                step_index=n,
                last_state=states[n].copy(),
                partial_states=states[: n + 1].copy(),
            ) from err
        states[n + 1] = y
    return Trajectory(grid=grid, states=states)


# First characteristic polynomial of the three-substep recurrence, in the
# one-substep shift variable z: P(z) = z**3 - 1.
_CHARACTERISTIC_COEFFS = (1.0, 0.0, 0.0, -1.0)


def zero_stability_roots() -> tuple[complex, complex, complex]:
    """Roots of the first characteristic polynomial z**3 - 1.

    Ordered by descending real part, then ascending imaginary part:
    1, -1/2 - i*sqrt(3)/2, -1/2 + i*sqrt(3)/2.
    """
    roots = sorted(
        (complex(r) for r in np.roots(_CHARACTERISTIC_COEFFS)),
        key=lambda z: (-z.real, z.imag),
    )
    return roots[0], roots[1], roots[2]


def zero_stability_root_moduli() -> tuple[float, float, float]:
    """Moduli of the three characteristic roots.

    All three equal one: every root sits on the unit circle and is simple,
    so the recurrence amplifies no parasitic mode.
    """
    r1, r2, r3 = zero_stability_roots()
    return abs(r1), abs(r2), abs(r3)
