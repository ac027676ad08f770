"""Second-order explicit one-step scheme built from three chained Heun substeps.

One macro step of size k is realized as three two-stage (trapezoidal
predictor-corrector) substeps of length k/3 starting at t_n, t_n + k/3 and
t_n + 2k/3, for six right-hand-side evaluations per step.  The recurrence is
self-starting: the initial state is used directly, no bootstrap integrator
is needed.

The stepping kernel runs on Python floats.  A field written as source text
(:meth:`RhsField.from_source`) is inlined into it once per stage; any other
field is called from it, through an adapter when it has only an array
``evaluate``.  The kernel is straight-line code generated once per source
text, and gives bitwise the results of the same update written in numpy
arithmetic, which :func:`composed_step` keeps.

The default :class:`SignConvention` adds the averaged slopes, which is the
choice forced by the second-order conditions.  ``MINUS`` subtracts them
instead; that variant drives the state away from the solution and exists
only as an opt-in so the difference stays observable in the studies.
"""

from __future__ import annotations

import ast
import enum
import functools
import keyword
import math
import operator
import textwrap
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .numerics import BLOCK_ROWS, TimeGrid, Trajectory, as_state

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


@dataclass(frozen=True, eq=False)
class _Source:
    """A field's equations as text, with the constants the text names.

    ``functions`` holds the component form, the substep and the macro step
    compiled from the text, once per text, and bound to ``constants`` by
    value, once per source, both on first use.
    """

    dim: int
    rates: str
    time_terms: str
    constants: Mapping[str, object]

    @functools.cached_property
    def functions(self) -> tuple[Components, Callable, Callable]:
        bind = _compiled(self.dim, self.rates, self.time_terms, tuple(self.constants))
        return bind(*self.constants.values())


class _SourceEvaluate:
    """The ndarray ``evaluate`` compiled from a field's source, which it exposes."""

    __slots__ = ("source",)

    def __init__(self, source: _Source) -> None:
        self.source = source

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        return np.array(self.source.functions[0](t, tuple(map(float, y))))


@dataclass(frozen=True)
class RhsField:
    """Right-hand side f(t, y) of a first-order system y' = f(t, y).

    ``dim`` is a positive integer.  ``evaluate`` must be deterministic and
    side-effect free, and must return a vector of the same dimension as its
    input.  A field built with :meth:`from_source` is stepped on its source,
    one built with :meth:`from_components` on its component form; any other
    ``evaluate`` is stepped through an adapter that calls it on arrays.
    """

    dim: int
    evaluate: Callable[[float, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        dim = operator.index(self.dim)
        if dim < 1:
            raise ValueError(f"field dimension must be at least 1, got {dim}")
        object.__setattr__(self, "dim", dim)

    @classmethod
    def from_source(
        cls,
        dim: int,
        rates: str,
        *,
        time_terms: str = "",
        constants: Mapping[str, object],
    ) -> RhsField:
        """A field whose equations are written once, as Python assignments.

        ``rates`` assigns the rates ``f1..fd`` from ``t``, the state
        ``y1..yd``, the ``constants`` and the names ``time_terms`` assigns;
        it may assign other names on the way.  ``time_terms`` assigns names
        from ``t`` and the constants alone; the kernel computes them once
        per distinct time, four times per macro step.  Constants are bound
        to the compiled code by value and never written into its text, and
        any name may be used for them except ``t``, ``y1..yd`` and
        ``f1..fd``.  The array ``evaluate`` is compiled from the same text.

        The text is parsed, checked and compiled the first time the field is
        stepped or evaluated, never here.  That first use raises
        ``ValueError`` when a statement is not an assignment to names, a
        name is used before it is known, a reserved, constant or time-term
        name is assigned, or a rate is never assigned.
        """
        source = _Source(dim, rates, time_terms, dict(constants))
        return cls(dim=dim, evaluate=_SourceEvaluate(source))

    @classmethod
    def from_components(cls, dim: int, components: Components) -> RhsField:
        """A field written once as a component form in plain float arithmetic.

        ``components(t, y)`` gets the state as a tuple of ``dim`` floats
        and returns the ``dim`` rates; a result of any other length raises
        ``ValueError``.  The field's source is the one line
        ``f1, ..., fd = g(t, (y1, ..., yd))`` with ``g`` bound to it.
        """
        return cls(dim=dim, evaluate=_SourceEvaluate(_calling(dim, components)))


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


def _source(f: RhsField) -> _Source:
    """What the kernel steps: the field's own source, or a call of its array ``evaluate``."""
    evaluate = f.evaluate
    if isinstance(evaluate, _SourceEvaluate):
        return evaluate.source
    return _calling(f.dim, lambda t, y: evaluate(t, np.array(y)).tolist())


def _calling(dim: int, g: Components) -> _Source:
    """The source of a field that calls the component form ``g``."""
    rates = f"{_names(dim, 'f{j}')} = g(t, ({_names(dim, 'y{j}')}))"
    return _Source(dim, rates, "", {"g": _checked(g, dim)})


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


# ------------------------------------------------------------ the generated kernel
#
# Every name of a field's text is renamed before it enters the kernel: t, yj
# and fj to the kernel's own time, state and slope names, a constant c to
# c__c, a time term x computed at the kernel's time number i to x__ti, and a
# rate local x of stage s to x__ss.  The kernel's own names hold no "__" and
# the suffixes hold no "_", so no renamed name can meet a kernel name or
# another renamed name, whatever names the field uses.

# expressions that bind names of their own, which the renaming does not
# follow, or that would turn the kernel into something else than a function
_NOT_ALLOWED = (
    ast.Lambda,
    ast.NamedExpr,
    ast.comprehension,
    ast.Await,
    ast.Yield,
    ast.YieldFrom,
)


def _target_names(target: ast.expr, where: str) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for item in target.elts for name in _target_names(item, where)]
    raise ValueError(f"{where}: only names may be assigned")


def _assignments(text: str, what: str, known: set[str], fixed: set[str]) -> list[str]:
    """The names the statements of ``text`` assign, in order.

    Every statement must be an assignment to names that are not ``fixed``,
    whose value uses only names ``known`` or assigned before it.
    """
    try:
        body = ast.parse(text).body
    except SyntaxError as err:
        raise ValueError(f"{what}: {err.msg} on line {err.lineno}") from None
    known = set(known)
    assigned: list[str] = []
    for statement in body:
        where = f"{what}, line {statement.lineno}"
        if not isinstance(statement, ast.Assign):
            raise ValueError(f"{where}: only assignments are allowed")
        nodes = list(ast.walk(statement.value))
        for node in nodes:
            if isinstance(node, _NOT_ALLOWED):
                raise ValueError(f"{where}: {type(node).__name__} is not allowed")
        for node in nodes:
            if isinstance(node, ast.Name) and node.id not in known:
                raise ValueError(f"{where}: unknown name {node.id!r}")
        names = [n for target in statement.targets for n in _target_names(target, where)]
        for name in names:
            if name in fixed:
                raise ValueError(f"{where}: {name!r} cannot be assigned")
        known.update(names)
        assigned.extend(names)
    return assigned


def _check(dim: int, rates: str, time_terms: str, constants: tuple[str, ...]) -> list[str]:
    """Check a field's text against the rules of :meth:`RhsField.from_source`.

    Returns the names its time terms assign; raises ``ValueError`` on the
    first rule broken.
    """
    state = {f"y{j}" for j in range(1, dim + 1)}
    slopes = {f"f{j}" for j in range(1, dim + 1)}
    for name in constants:
        if not name.isidentifier() or keyword.iskeyword(name):
            raise ValueError(f"constant name {name!r} is not an identifier")
        if name == "t" or name in state or name in slopes:
            raise ValueError(f"constant name {name!r} is reserved")
    fixed = {"t", *state, *constants}
    time_names = _assignments(time_terms, "time_terms", {"t", *constants}, fixed | slopes)
    fixed |= set(time_names)
    rate_names = _assignments(rates, "rates", fixed, fixed)
    missing = sorted(slopes - set(rate_names), key=lambda name: int(name[1:]))
    if missing:
        raise ValueError(f"rates never assign {', '.join(missing)}")
    return time_names


class _Renamer(ast.NodeTransformer):
    def __init__(self, names: Mapping[str, str], tag: str) -> None:
        self.names = names
        self.tag = tag

    def visit_Name(self, node: ast.Name) -> ast.Name:
        node.id = self.names.get(node.id, f"{node.id}__{self.tag}")
        return node


def _renamed(text: str, names: Mapping[str, str], tag: str) -> list[str]:
    """Kernel lines of ``text``: names renamed by ``names``, others suffixed ``__tag``."""
    renamed = ast.unparse(_Renamer(names, tag).visit(ast.parse(text)))
    return [f"        {line}" for line in renamed.splitlines()]


def _names(dim: int, template: str) -> str:
    """``template`` formatted for every component, as a tuple display.

    ``{i}`` counts components from 0 (the kernel's names), ``{j}`` from 1
    (the field's).
    """
    return ", ".join(template.format(i=i, j=i + 1) for i in range(dim)) + ","


def _kernel_text(dim: int, rates: str, time_terms: str, constants: tuple[str, ...]) -> str:
    """Source of ``bind(constants) -> (components, substep, step)`` for a field's text.

    It is written from the text and the constants' names alone, never from
    their values, which ``bind`` takes as arguments.  ``step`` chains three
    substeps of length h from t, t1 = t + h and t2 = t1 + h, so the time
    terms run at four distinct times; its result is finite when the sum of
    its components times 0.0 is 0.0, and otherwise exactly when every
    component passes ``isfinite``.
    """
    rates, time_terms = textwrap.dedent(rates), textwrap.dedent(time_terms)
    time_names = _check(dim, rates, time_terms, constants)
    bound = {name: f"{name}__c" for name in constants}

    def times(number: int, t: str) -> list[str]:
        """The time terms at the kernel's time number ``number``, held in ``t``."""
        return _renamed(time_terms, {"t": t, **bound}, f"t{number}")

    def stage(number: int, time: int, t: str, y: str, out: str) -> list[str]:
        """Stage ``number``: the rates at time number ``time``, from ``{y}i`` into ``{out}i``."""
        names = {
            "t": t,
            **{f"y{i + 1}": f"{y}{i}" for i in range(dim)},
            **{f"f{i + 1}": f"{out}{i}" for i in range(dim)},
            **bound,
            **{name: f"{name}__t{time}" for name in time_names},
        }
        return _renamed(rates, names, f"s{number}")

    def substep(number: int, t: str, t_next: str, y: str, out: str) -> list[str]:
        """Substep ``number`` (from 1) from the state ``{y}i`` at time ``t`` into ``{out}i``.

        The update is y + w*(a + b) with a = f(t, y) and b = f(t + h, y + h*a),
        written out once per component: the float operations of the ndarray
        form, in the same order.  The time terms at ``t`` must be computed
        already; those at ``t_next = t + h`` are computed here.
        """
        return [
            *stage(2 * number - 1, number - 1, t, y, "a"),
            f"        {t_next} = {t} + h",
            *(f"        e{i} = {y}{i} + h * a{i}" for i in range(dim)),
            *times(number, t_next),
            *stage(2 * number, number, t_next, "e", "b"),
            *(f"        {out}{i} = {y}{i} + w * (a{i} + b{i})" for i in range(dim)),
        ]

    state = f"        {_names(dim, 'y{i}')} = y"
    result = _names(dim, "r{i}")
    lines = [
        f"def bind({', '.join(bound.values())}):",
        "    def components(t, y):",
        state,
        *times(0, "t"),
        *stage(1, 0, "t", "y", "a"),
        f"        return ({_names(dim, 'a{i}')})",
        "    def substep(t, y, h, w):",
        state,
        *times(0, "t"),
        *substep(1, "t", "t1", "y", "r"),
        f"        return ({result})",
        "    def step(t, y, h, w):",
        state,
        *times(0, "t"),
        *substep(1, "t", "t1", "y", "p"),
        *substep(2, "t1", "t2", "p", "q"),
        *substep(3, "t2", "t3", "q", "r"),
        f"        if ({' + '.join(f'r{i}' for i in range(dim))}) * 0.0 == 0.0 or "
        f"{' and '.join(f'isfinite(r{i})' for i in range(dim))}:",
        f"            return ({result})",
        f"        raise blowup(t, y, t1, ({_names(dim, 'p{i}')}), t2, ({_names(dim, 'q{i}')}))",
        "    return components, substep, step",
    ]
    return "\n".join(lines)


@functools.cache
def _compiled(
    dim: int, rates: str, time_terms: str, constants: tuple[str, ...]
) -> Callable[..., tuple[Components, Callable, Callable]]:
    """``bind(*values)``: the component form, substep and macro step of one field text.

    The substep and the macro step are ``(t, y, h, w) -> tuple`` with
    w = s*(h/2).  Each stage of them is the field's text inlined, so the
    field is evaluated six times per macro step without a call.
    """
    namespace = {"isfinite": math.isfinite, "blowup": _step_blowup}
    exec(_kernel_text(dim, rates, time_terms, constants), namespace)
    return namespace["bind"]


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
    substep = _source(f).functions[1]
    out = substep(t, y.tolist(), h, sign.factor * (h / 2.0))
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
    step = _source(f).functions[2]
    return np.array(step(t_n, y.tolist(), h, sign.factor * (h / 2.0)))


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
    step = _source(f).functions[2]
    flat = states.reshape(-1)
    t0, k, dim = grid.t0, grid.k, f.dim
    y = y.tolist()
    for first in range(0, grid.M, BLOCK_ROWS):
        stop = min(first + BLOCK_ROWS, grid.M)
        rows: list[float] = []
        try:
            for n in range(first, stop):
                y = step(t0 + n * k, y, h, w)  # t0 + n * k is grid.time(n)
                rows += y
        except NumericalBlowupError as err:
            flat[(first + 1) * dim : (n + 1) * dim] = rows
            raise NumericalBlowupError(
                f"integration diverged during step {n} (from t={grid.time(n)!r})",
                t=err.t,
                step_index=n,
                last_state=states[n].copy(),
                partial_states=states[: n + 1].copy(),
            ) from err
        flat[(first + 1) * dim : (stop + 1) * dim] = rows
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
