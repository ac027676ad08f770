"""Second-order explicit one-step scheme built from three chained Heun substeps.

One macro step of size k is realized as three two-stage (trapezoidal
predictor-corrector) substeps of length k/3 starting at t_n, t_n + k/3 and
t_n + 2k/3, for six right-hand-side evaluations per step.  The recurrence is
self-starting: the initial state is used directly, no bootstrap integrator
is needed.

The stepping kernel runs on Python floats: on a field's component form when
it was built with :meth:`RhsField.from_components`, otherwise on its array
``evaluate`` through an adapter.  It is straight-line code generated once
per state dimension, and gives bitwise the results of the same update
written in numpy arithmetic, which :func:`composed_step` keeps.

The default :class:`SignConvention` adds the averaged slopes, which is the
choice forced by the second-order conditions.  ``MINUS`` subtracts them
instead; that variant drives the state away from the solution and exists
only as an opt-in so the difference stays observable in the studies.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

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


#: A field's component form: ``(t, (y1, ..., yd)) -> (f1, ..., fd)`` on floats.
Components = Callable[[float, tuple[float, ...]], Sequence[float]]


class _ComponentEvaluate:
    """The ndarray ``evaluate`` derived from a component form it exposes."""

    __slots__ = ("components",)

    def __init__(self, components: Components) -> None:
        self.components = components

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        return np.array(self.components(t, tuple(map(float, y))))


@dataclass(frozen=True)
class RhsField:
    """Right-hand side f(t, y) of a first-order system y' = f(t, y).

    ``dim`` is a positive integer.  ``evaluate`` must be deterministic and
    side-effect free, and must return a vector of the same dimension as its
    input.  A field built with :meth:`from_components` is stepped on its
    component form; any other ``evaluate`` is stepped through an adapter
    that calls it on arrays.
    """

    dim: int
    evaluate: Callable[[float, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        dim = operator.index(self.dim)
        if dim < 1:
            raise ValueError(f"field dimension must be at least 1, got {dim}")
        object.__setattr__(self, "dim", dim)

    @classmethod
    def from_components(cls, dim: int, components: Components) -> RhsField:
        """A field written once as a component form in plain float arithmetic.

        ``components(t, y)`` gets the state as a tuple of ``dim`` floats
        and returns the ``dim`` rates; ``evaluate`` applies it to arrays.
        """
        return cls(dim=dim, evaluate=_ComponentEvaluate(components))


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
        raise _blowup(t, y)


def _blowup(t: float, y: np.ndarray) -> NumericalBlowupError:
    """The error for a non-finite result of the substep that started at (t, y)."""
    return NumericalBlowupError(
        f"non-finite state in substep starting at t={t!r}", t=t, last_state=y
    )


def _components(f: RhsField) -> Components:
    """The component form the kernel steps: the field's own, or ``evaluate`` on arrays."""
    evaluate = f.evaluate
    if isinstance(evaluate, _ComponentEvaluate):
        return evaluate.components
    return lambda t, y: evaluate(t, np.array(y)).tolist()


def _checked(g: Components, dim: int) -> Components:
    """``g``, raising ``ValueError`` when a result does not hold ``dim`` values."""

    def checked(t: float, y: Sequence[float]) -> Sequence[float]:
        values = g(t, y)
        if len(values) != dim:
            raise ValueError(f"field returned {len(values)} values, expected {dim}")
        return values

    return checked


def _finite(y: Sequence[float]) -> bool:
    return all(map(math.isfinite, y))


def _step_blowup(
    t: float,
    y: Sequence[float],
    t13: float,
    y13: Sequence[float],
    t23: float,
    y23: Sequence[float],
) -> NumericalBlowupError:
    """The error for a macro step from (t, y) whose result is not finite.

    A non-finite component stays non-finite through every later update, so
    the first non-finite substep is found among the step's own intermediates
    without evaluating the field again.
    """
    if not _finite(y13):
        return _blowup(t, np.array(y))
    if not _finite(y23):
        return _blowup(t13, np.array(y13))
    return _blowup(t23, np.array(y23))


def _names(dim: int, template: str) -> str:
    """``template`` formatted for every component i, as a tuple display."""
    return ", ".join(template.format(i=i) for i in range(dim)) + ","


def _substep_lines(dim: int, t: str, y: str, out: str) -> list[str]:
    """Source of one substep from the state ``{y}i`` at time ``t`` into ``{out}i``.

    The update is y + w*(a + b) with a = g(t, y) and b = g(t + h, y + h*a),
    written out once per component: the float operations of the ndarray
    form, in the same order.
    """
    return [
        f"    {_names(dim, 'a{i}')} = g({t}, ({_names(dim, y + '{i}')}))",
        f"    {_names(dim, 'b{i}')} = g({t} + h, ({_names(dim, y + '{i} + h * a{i}')}))",
        *(f"    {out}{i} = {y}{i} + w * (a{i} + b{i})" for i in range(dim)),
    ]


@functools.cache
def _kernels(dim: int) -> tuple[Callable, Callable]:
    """The substep and the macro step on a state of ``dim`` floats.

    Both are straight-line functions ``(g, t, y, h, w) -> tuple`` generated
    from ``dim`` alone, with w = s*(h/2).  The macro step chains three
    substeps of length h from t, t + h and (t + h) + h, and checks
    finiteness once, on its result.  Unpacking every field result into
    exactly ``dim`` names rejects a result of any other length.
    """
    lines = [
        "def substep(g, t, y, h, w):",
        f"    {_names(dim, 'y{i}')} = y",
        *_substep_lines(dim, "t", "y", "r"),
        f"    return ({_names(dim, 'r{i}')})",
        "def step(g, t, y, h, w):",
        f"    {_names(dim, 'y{i}')} = y",
        *_substep_lines(dim, "t", "y", "p"),
        "    t13 = t + h",
        *_substep_lines(dim, "t13", "p", "q"),
        "    t23 = t13 + h",
        *_substep_lines(dim, "t23", "q", "r"),
        f"    if {' and '.join(f'isfinite(r{i})' for i in range(dim))}:",
        f"        return ({_names(dim, 'r{i}')})",
        f"    raise blowup(t, y, t13, ({_names(dim, 'p{i}')}), t23, ({_names(dim, 'q{i}')}))",
    ]
    namespace = {"isfinite": math.isfinite, "blowup": _step_blowup}
    exec("\n".join(lines), namespace)  # the source is built from dim and fixed names only
    return namespace["substep"], namespace["step"]


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
    substep = _kernels(f.dim)[0]
    g = _checked(_components(f), f.dim)
    out = substep(g, t, y.tolist(), h, sign.factor * (h / 2.0))
    if not _finite(out):
        raise _blowup(t, y)
    return np.array(out)


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
    step = _kernels(f.dim)[1]
    g = _checked(_components(f), f.dim)
    return np.array(step(g, t_n, y.tolist(), h, sign.factor * (h / 2.0)))


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
    y = y.tolist()
    step = _kernels(f.dim)[1]
    g = _components(f)
    form = _checked(g, f.dim)  # later steps reject a wrong length by unpacking alone
    for n in range(grid.M):
        t_n = grid.time(n)
        try:
            y = step(form, t_n, y, h, w)
        except NumericalBlowupError as err:
            raise NumericalBlowupError(
                f"integration diverged during step {n} (from t={t_n!r})",
                t=err.t,
                step_index=n,
                last_state=states[n].copy(),
                partial_states=states[: n + 1].copy(),
            ) from err
        states[n + 1] = y
        form = g
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
