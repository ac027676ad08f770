"""Second-order explicit one-step scheme built from three chained Heun substeps.

One macro step of size k is realized as three two-stage (trapezoidal
predictor-corrector) substeps of length k/3 starting at t_n, t_n + k/3 and
t_n + 2k/3, for six right-hand-side evaluations per step.  The recurrence is
self-starting: the initial state is used directly, no bootstrap integrator
is needed.

The stepping kernel runs on Python floats.  A field written as source text
(:meth:`RhsField.from_source`) is inlined into it once per stage, its
statements that read only the time and the constants once per distinct
time; a field with any other ``evaluate`` is called from it through a
one-line source.  The kernel is generated once per source text: ``march``
runs a block of macro steps in one call, with the state and the field's
constants in local variables, and ``stream`` runs the same steps with
another per-step tail, which adds each accepted state into era sums and
whole-run sums, tests its sign and keeps only every N-th state.  The
component form and the substep are generated apart; each function is
generated only when used.  The kernel gives bitwise the results of the
same update written in numpy arithmetic, which :func:`composed_step` keeps.

numpy is imported by the functions that make or read numpy arrays, when
first called, never by the generated kernel: building a field, checking its
text, the characteristic roots and an :func:`integrate` run that completes
need no numpy.  ``integrate`` keeps its states in one flat ``array('d')``;
streamed, it keeps the sums and the chosen states only.  Its blow-up error
carries floats: the last state as a tuple, the partial run as the accepted
rows (those kept, when streamed) in one flat ``array('d')``.

The default :class:`SignConvention` adds the averaged slopes, which is the
choice forced by the second-order conditions.  ``MINUS`` subtracts them
instead; that variant drives the state away from the solution and exists
only as an opt-in so the difference stays observable in the studies.
"""

from __future__ import annotations

import ast
import enum
import functools
import itertools
import keyword
import math
import operator
import textwrap
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .numerics import (
    BLOCK_ROWS,
    StreamedRun,
    TimeGrid,
    Trajectory,
    as_state,
    finite_state_floats,
    state_floats,
)

if TYPE_CHECKING:
    import numpy as np

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

    Called, it is the field's array ``evaluate``: it checks the state's
    shape and dimension, not its finiteness.  ``components``,
    ``substep``, ``march`` and ``stream`` are each generated from the text
    and compiled on first use, once per text, and bound to ``constants`` by
    value once per source; see :func:`_compiled`.
    """

    dim: int
    rates: str
    constants: Mapping[str, object]

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.array(self.components(t, state_floats(y, self.dim)))

    def _bound(self, function: str) -> Callable:
        bind = _compiled(function, self.dim, self.rates, tuple(self.constants))
        return bind(*self.constants.values())

    @functools.cached_property
    def components(self) -> Components:
        return self._bound("components")

    @functools.cached_property
    def substep(self) -> Callable:
        return self._bound("substep")

    @functools.cached_property
    def march(self) -> Callable:
        return self._bound("march")

    @functools.cached_property
    def stream(self) -> Callable:
        return self._bound("stream")


@dataclass(frozen=True)
class RhsField:
    """Right-hand side f(t, y) of a first-order system y' = f(t, y).

    ``dim`` is a positive integer.  ``evaluate`` must be deterministic and
    side-effect free, and must return a vector of the same dimension as its
    input.  A field built with :meth:`from_source` is stepped on its source;
    any other ``evaluate`` is stepped through a source that calls it on
    arrays.
    """

    dim: int
    evaluate: Callable[[float, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        dim = operator.index(self.dim)
        if dim < 1:
            raise ValueError(f"field dimension must be at least 1, got {dim}")
        object.__setattr__(self, "dim", dim)

    @classmethod
    def from_source(cls, dim: int, rates: str, *, constants: Mapping[str, object]) -> RhsField:
        """A field whose equations are written once, as Python assignments.

        ``rates`` assigns the rates ``f1..fd`` from ``t``, the state
        ``y1..yd`` and the ``constants``; it may assign other names on the
        way.  A statement that assigns no rate and no name assigned before
        it, and reads only ``t``, the constants and such statements before
        it, is a time term: the kernel computes it once per distinct time,
        four times per macro step, and no later statement may assign its
        names.  Constants are bound to the compiled code by value and never
        written into its text, and any name may be used for them except
        ``t``, ``y1..yd`` and ``f1..fd``.  The array ``evaluate`` is
        compiled from the same text.  A component form ``g(t, (y1, ...,
        yd)) -> (f1, ..., fd)`` on floats is the one line ``f1, ..., fd =
        g(t, (y1, ..., yd))`` with ``g`` a constant.

        The text is parsed, checked and compiled the first time the field is
        stepped or evaluated, never here.  That first use raises
        ``ValueError`` when a statement is not an assignment to names, a
        name is used before it is known, a reserved, constant or time-term
        name is assigned, or a rate is never assigned.
        """
        return cls(dim=dim, evaluate=_Source(dim, rates, dict(constants)))


class NumericalBlowupError(ArithmeticError):
    """A step produced a non-finite value; the run aborts, nothing is clamped.

    Attributes:
      t: time at which the failing substep started.
      step_index: macro-step index, when known.
      last_state: last finite accepted state as a tuple of floats, when known.
      partial_states: states accepted before the failure, one flat
        ``array('d')`` of rows as in ``Trajectory.values``, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        t: float,
        step_index: int | None = None,
        last_state: tuple[float, ...] | None = None,
        partial_states: array | None = None,
    ) -> None:
        super().__init__(message)
        self.t = t
        self.step_index = step_index
        self.last_state = last_state
        self.partial_states = partial_states


def _blowup(t: float, y: Sequence[float]) -> NumericalBlowupError:
    """The error for a non-finite result of the substep that started at (t, y)."""
    return NumericalBlowupError(
        f"non-finite state in substep starting at t={t!r}", t=t, last_state=tuple(y)
    )


def _source(f: RhsField) -> _Source:
    """What the kernel steps: the field's own source, or a line calling its array ``evaluate``."""
    evaluate, dim = f.evaluate, f.dim
    if isinstance(evaluate, _Source):
        return evaluate
    import numpy as np

    def g(t: float, y: tuple[float, ...]) -> list[float]:
        values = evaluate(t, np.array(y)).tolist()
        if len(values) != dim:
            raise ValueError(f"field returned {len(values)} values, expected {dim}")
        return values

    return _Source(dim, f"{_names(dim, 'f{j}')} = g(t, ({_names(dim, 'y{j}')}))", {"g": g})


def _finite(y: Sequence[float]) -> bool:
    return all(map(math.isfinite, y))


def _step_blowup(
    n: int,
    t: float,
    y: Sequence[float],
    t13: float,
    y13: Sequence[float],
    t23: float,
    y23: Sequence[float],
) -> NumericalBlowupError:
    """The error for macro step ``n`` from (t, y) whose result is not finite.

    A non-finite component stays non-finite through every later update, so
    the first non-finite substep is found among the step's own intermediates
    without evaluating the field again.  The error's ``t`` and
    ``last_state`` are the failing substep's start; its ``step_index`` is
    ``n`` and its ``partial_states`` holds ``y``, the state the step was
    taken from, the last one accepted.
    """
    if not _finite(y13):
        err = _blowup(t, y)
    elif not _finite(y23):
        err = _blowup(t13, y13)
    else:
        err = _blowup(t23, y23)
    err.step_index, err.partial_states = n, array("d", y)
    return err


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


def _check(
    dim: int, rates: str, constants: tuple[str, ...]
) -> tuple[list[ast.stmt], list[str], list[ast.stmt]]:
    """Check a field's text against the rules of :meth:`RhsField.from_source`.

    Returns the parsed time terms, the names they assign and the parsed
    rate statements, each in the order of the text; raises ``ValueError``
    on the first rule broken.
    """
    state = {f"y{j}" for j in range(1, dim + 1)}
    slopes = {f"f{j}" for j in range(1, dim + 1)}
    for name in constants:
        if not name.isidentifier() or keyword.iskeyword(name):
            raise ValueError(f"constant name {name!r} is not an identifier")
        if name == "t" or name in state or name in slopes:
            raise ValueError(f"constant name {name!r} is reserved")
    try:
        body = ast.parse(rates).body
    except SyntaxError as err:
        raise ValueError(f"rates: {err.msg} on line {err.lineno}") from None
    fixed = {"t", *state, *constants}  # names no statement may assign
    known = set(fixed)  # names a statement may read
    timely = {"t", *constants}  # names a time term may read
    taken = set(slopes)  # names a time term may not assign: the rates and all assigned before
    timed: list[ast.stmt] = []
    time_names: list[str] = []
    rated: list[ast.stmt] = []
    for statement in body:
        where = f"rates, line {statement.lineno}"
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
        reads = {node.id for node in nodes if isinstance(node, ast.Name)}
        if reads <= timely and taken.isdisjoint(names):
            timed.append(statement)
            time_names.extend(names)
            timely.update(names)
            fixed.update(names)
        else:
            rated.append(statement)
        known.update(names)
        taken.update(names)
    missing = sorted(slopes - known, key=lambda name: int(name[1:]))
    if missing:
        raise ValueError(f"rates never assign {', '.join(missing)}")
    return timed, time_names, rated


def _pieces(body: list[ast.stmt]) -> list[list[str]]:
    """The lines of ``body``, each split into text and names: names at the odd places.

    The statements are written with every name between two marks, a
    character that the statements written without marks do not hold.  It
    is printable, so a name inside an f-string keeps its marks as they are.
    """
    module = ast.Module(body=body, type_ignores=[])
    plain = ast.unparse(module)
    mark = next(c for c in map(chr, itertools.count(0x100)) if c.isprintable() and c not in plain)
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            node.id = f"{mark}{node.id}{mark}"
    return [line.split(mark) for line in ast.unparse(module).splitlines()]


def _renamed(pieces: list[list[str]], names: Mapping[str, str], tag: str) -> list[str]:
    """The lines of ``pieces``: names renamed by ``names``, others suffixed ``__tag``."""
    suffix = f"__{tag}"
    return [
        "".join([p if i % 2 == 0 else names.get(p, p + suffix) for i, p in enumerate(line)])
        for line in pieces
    ]


def _names(dim: int, template: str) -> str:
    """``template`` formatted for every component, as a tuple display.

    ``{i}`` counts components from 0 (the kernel's names), ``{j}`` from 1
    (the field's).
    """
    return ", ".join(template.format(i=i, j=i + 1) for i in range(dim)) + ","


def _kernel_text(function: str, dim: int, rates: str, constants: tuple[str, ...]) -> str:
    """Source of ``bind(constants) -> function`` for a field's text.

    ``function`` is one of ``components``, ``substep``, ``march`` and
    ``stream``.  The text is written from the field's text and the
    constants' names alone, never from their values, which ``bind`` takes
    as arguments and the function keeps as keyword defaults, so that they
    are its fast locals.  ``march`` chains three substeps of length h from
    t, t1 = t + h and t2 = t1 + h, so the time terms run at four distinct
    times per step; a step's result is finite when the sum of its
    components times 0.0 is 0.0, and otherwise exactly when every component
    passes ``isfinite``.  ``stream`` takes the same steps with another tail:
    each accepted state is added into the era sums ``s0..`` and the
    whole-run sums ``o0..``, in order and never through ``sum``, tested for
    a negative component, and kept when the countdown ``c`` to the next
    kept row reaches zero.
    """
    timed, time_names, rated = _check(dim, textwrap.dedent(rates), constants)
    timed, rated = _pieces(timed), _pieces(rated)
    bound = {name: f"{name}__c" for name in constants}
    # the kernel keeps its times t, t1, ... only when the text reads t
    ticks = any("t" in line[1::2] for line in (*timed, *rated))

    def times(number: int, t: str) -> list[str]:
        """The time terms at the kernel's time number ``number``, held in ``t``."""
        return _renamed(timed, {"t": t, **bound}, f"t{number}")

    def stage(number: int, time: int, t: str, y: str, out: str) -> list[str]:
        """Stage ``number``: the rates at time number ``time``, from ``{y}i`` into ``{out}i``."""
        names = {
            "t": t,
            **{f"y{i + 1}": f"{y}{i}" for i in range(dim)},
            **{f"f{i + 1}": f"{out}{i}" for i in range(dim)},
            **bound,
            **{name: f"{name}__t{time}" for name in time_names},
        }
        return _renamed(rated, names, f"s{number}")

    def substep(number: int, t: str, t_next: str, y: str, out: str) -> list[str]:
        """Substep ``number`` (from 1) from the state ``{y}i`` at time ``t`` into ``{out}i``.

        The update is y + w*(a + b) with a = f(t, y) and b = f(t + h, y + h*a),
        written out once per component: the float operations of the ndarray
        form, in the same order.  The time terms at ``t`` must be computed
        already; those at ``t_next = t + h`` are computed here.
        """
        return [
            *stage(2 * number - 1, number - 1, t, y, "a"),
            *([f"{t_next} = {t} + h"] if ticks else []),
            *(f"e{i} = {y}{i} + h * a{i}" for i in range(dim)),
            *times(number, t_next),
            *stage(2 * number, number, t_next, "e", "b"),
            *(f"{out}{i} = {y}{i} + w * (a{i} + b{i})" for i in range(dim)),
        ]

    state, p, q, r = (_names(dim, y + "{i}") for y in "ypqr")
    # the stream's era sums and whole-run sums, named apart from the stage locals
    sums = _names(dim, "s{i}") + " " + _names(dim, "o{i}")
    if function == "components":
        parameters = "t, y"
        body = [*times(0, "t"), *stage(1, 0, "t", "y", "a"), f"return ({_names(dim, 'a{i}')})"]
    elif function == "substep":
        parameters = "t, y, h, w"
        body = [*times(0, "t"), *substep(1, "t", "t1", "y", "r"), f"return ({r})"]
    else:
        step = [
            *(["t = t0 + n * k"] if ticks else []),
            *times(0, "t"),
            *substep(1, "t", "t1", "y", "p"),
            *substep(2, "t1", "t2", "p", "q"),
            *substep(3, "t2", "t3", "q", "r"),
            f"if not (({' + '.join(f'r{i}' for i in range(dim))}) * 0.0 == 0.0 or "
            f"{' and '.join(f'isfinite(r{i})' for i in range(dim))}):",
            "    t = t0 + n * k",
            "    t1 = t + h",
            "    t2 = t1 + h",
            f"    raise blowup(n, t, ({state}), t1, ({p}), t2, ({q}))",
            *(f"y{i} = r{i}" for i in range(dim)),
        ]
        if function == "march":
            parameters = "t0, k, first, stop, y, h, w, rows"
            head, tail = [], [f"rows += ({state})"]
            result = f"({state})"
        else:
            parameters = "t0, k, first, stop, y, h, w, rows, every, c, sums, negative"
            head = [f"{sums} = sums"]
            tail = [
                *(f"{total}{i} += y{i}" for i in range(dim) for total in "so"),
                f"if {' or '.join(f'y{i} < 0.0' for i in range(dim))}:",
                "    negative = True",
                "c -= 1",
                "if not c:",
                f"    rows += ({state})",
                "    c = every",
            ]
            result = f"({state}), c, ({sums}), negative"
        body = [
            *head,
            "for n in range(first, stop):",
            *(f"    {line}" for line in [*step, *tail]),
            f"return {result}",
        ]
    defaults = "".join(f", {name}={name}" for name in bound.values())
    lines = [
        f"def bind({', '.join(bound.values())}):",
        f"    def {function}({parameters}{defaults}):",
        f"        {state} = y",
        *(f"        {line}" for line in body),
        f"    return {function}",
    ]
    return "\n".join(lines)


@functools.cache
def _compiled(
    function: str, dim: int, rates: str, constants: tuple[str, ...]
) -> Callable[..., Callable]:
    """``bind(*values)``: ``function`` of one field text, bound to the constants' values.

    ``components`` is ``(t, y) -> tuple``; ``substep`` is ``(t, y, h, w) ->
    tuple`` with w = s*(h/2); ``march(t0, k, first, stop, y, h, w, rows)``
    steps from the state ``y`` at t0 + first * k, appends each accepted
    state's components to ``rows`` and returns the state at t0 + stop * k.
    ``stream(t0, k, first, stop, y, h, w, rows, every, c, sums, negative)``
    takes the same steps and returns ``(state, c, sums, negative)``:
    ``sums`` holds the era sums then the whole-run sums, one per component,
    and each accepted state is added into both; ``negative`` becomes true at
    a negative component; ``c`` counts down to the next kept row, which is
    appended to ``rows`` as ``c`` reaches zero and is reset to ``every``.
    Each stage is the field's text inlined, so the field is evaluated six
    times per macro step without a call.
    """
    namespace = {"isfinite": math.isfinite, "blowup": _step_blowup}
    exec(_kernel_text(function, dim, rates, constants), namespace)
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
      ValueError: If ``h`` is not positive or ``y`` is not a finite state of
        the field's dimension.
      NumericalBlowupError: If the updated state is not finite.
    """
    if not h > 0.0:
        raise ValueError("substep length h must be positive")
    import numpy as np

    y = finite_state_floats(y, dim=f.dim)
    out = _source(f).substep(t, y, h, sign.factor * (h / 2.0))
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
    import numpy as np

    y = finite_state_floats(y, dim=f.dim)
    h = k / 3.0
    rows: list[float] = []
    # with k = -0.0 the step starts at t_n + 0 * -0.0, which is t_n exactly, -0.0 too
    _source(f).march(t_n, -0.0, 0, 1, y, h, sign.factor * (h / 2.0), rows)
    return np.array(rows)


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
    y = as_state(y, dim=f.dim)
    h = k / 3.0
    w = sign.factor * (h / 2.0)

    g1 = f.evaluate(t_n, y)
    g2 = f.evaluate(t_n + h, y + h * g1)
    y13 = y + w * (g1 + g2)
    if not _finite(y13):
        raise _blowup(t_n, y.tolist())
    t13 = t_n + h
    g3 = f.evaluate(t13, y13)
    g4 = f.evaluate(t13 + h, y13 + h * g3)
    y23 = y13 + w * (g3 + g4)
    if not _finite(y23):
        raise _blowup(t13, y13.tolist())
    t23 = t13 + h
    g5 = f.evaluate(t23, y23)
    g6 = f.evaluate(t23 + h, y23 + h * g5)
    out = y + w * (g1 + g2) + w * (g3 + g4) + w * (g5 + g6)
    if not _finite(out):
        raise _blowup(t23, y23.tolist())
    return out


def integrate(
    f: RhsField,
    y0: np.ndarray,
    grid: TimeGrid,
    sign: SignConvention = SignConvention.PLUS,
    *,
    eras: Sequence[int] | None = None,
    every: int | None = 1,
) -> Trajectory | StreamedRun:
    """March the scheme across the grid from the exact initial state.

    With the defaults, returns a :class:`Trajectory` holding all M + 1
    samples in one flat ``array('d')``, allocated before the first step and
    written a block of ``BLOCK_ROWS`` steps at a time; a run that completes
    imports no numpy.

    Given ``eras`` (first grid index of every era, then M + 1, as
    :func:`~tristep.numerics.era_starts` gives them) or an ``every`` other
    than 1, the run is streamed instead and returns a :class:`StreamedRun`:
    the kernel adds each state into its era's sums and the whole-run sums
    as it is accepted, notes a negative component, and keeps only the states
    at grid points 0, ``every``, 2 * ``every``, ... and M (none when
    ``every`` is None), so memory does not grow with M unless rows are kept.
    Without ``eras`` the whole run is one era.  The sums start from 0.0 and
    add the states in grid order, bitwise the axis-0 sums numpy takes of
    two or more columns, so they give :func:`~tristep.studies.era_summary`'s
    means; the states are bitwise those of the stored run.

    Raises:
      ValueError: If ``y0`` is not a finite state of the field's dimension,
        the grid's M + 1 states do not fit in memory (stored runs only),
        ``eras`` are not strictly increasing from 0 or more to M + 1, or
        ``every`` is neither None nor a positive int.
      NumericalBlowupError: As soon as any intermediate is non-finite,
        carrying the failing step index n, the last finite state (that of
        grid point n) as a tuple and the accepted states as a flat
        ``array('d')``: all n + 1 of them for a stored run; for a streamed
        run the kept ones, at grid points 0, ``every``, ... up to n, then
        the state at n when n is not a multiple of ``every`` (none when
        ``every`` is None).
    """
    y = finite_state_floats(y0, dim=f.dim)
    h = grid.k / 3.0
    w = sign.factor * (h / 2.0)
    if eras is None and every == 1:
        return _stored(_source(f).march, y, grid, h, w)
    starts = (0, grid.M + 1) if eras is None else tuple(map(operator.index, eras))
    if not (
        len(starts) >= 2
        and starts[0] >= 0
        and starts[-1] == grid.M + 1
        and all(a < b for a, b in zip(starts, starts[1:]))
    ):
        raise ValueError("era starts must increase strictly from 0 or more to M + 1")
    if every is not None and not (type(every) is int and every >= 1):
        raise ValueError(f"every must be None or a positive int, got {every!r}")
    return _streamed(_source(f).stream, y, grid, h, w, starts, every)


def _diverged(err: NumericalBlowupError, grid: TimeGrid, partial: array) -> NumericalBlowupError:
    """The error of a run whose kernel raised ``err``, carrying the run's ``partial`` states."""
    n = err.step_index
    return NumericalBlowupError(
        f"integration diverged during step {n} (from t={grid.time(n)!r})",
        t=err.t,
        step_index=n,
        last_state=tuple(err.partial_states),
        partial_states=partial,
    )


def _stored(
    march: Callable, y: tuple[float, ...], grid: TimeGrid, h: float, w: float
) -> Trajectory:
    t0, k, dim = grid.t0, grid.k, len(y)
    try:
        values = array("d", [0.0]) * ((grid.M + 1) * dim)
    except (MemoryError, OverflowError):  # OverflowError beyond the index range
        raise ValueError(
            f"step size k={grid.k!r} is too small: "
            f"the run's {grid.M + 1} states do not fit in memory"
        ) from None
    values[:dim] = array("d", y)
    for first in range(0, grid.M, BLOCK_ROWS):
        stop = min(first + BLOCK_ROWS, grid.M)
        rows: list[float] = []
        try:
            # step n starts at t0 + n * k, which is grid.time(n)
            y = march(t0, k, first, stop, y, h, w, rows)
        except NumericalBlowupError as err:
            n = err.step_index
            values[(first + 1) * dim : (n + 1) * dim] = array("d", rows)
            raise _diverged(err, grid, values[: (n + 1) * dim]) from err
        values[(first + 1) * dim : (stop + 1) * dim] = array("d", rows)
    return Trajectory(grid, values)


def _streamed(
    stream: Callable,
    y: tuple[float, ...],
    grid: TimeGrid,
    h: float,
    w: float,
    starts: tuple[int, ...],
    every: int | None,
) -> StreamedRun:
    t0, k, dim = grid.t0, grid.k, len(y)
    kept = array("d", y if every else ())
    c = every or -1  # steps to the next kept row; counting down from -1 it keeps none
    sums = tuple(0.0 + v for v in y) * 2  # the era and the whole-run sums of row 0
    negative = any(v < 0.0 for v in y)
    era_sums = []
    first = 0  # the next step, from grid point first to first + 1
    for j, start in enumerate(starts):
        # step up to the last row before ``start``, in blocks of BLOCK_ROWS steps
        while first < start - 1:
            stop = min(first + BLOCK_ROWS, start - 1)
            rows: list[float] = []
            try:
                y, c, sums, negative = stream(
                    t0, k, first, stop, y, h, w, rows, every, c, sums, negative
                )
            except NumericalBlowupError as err:
                kept.fromlist(rows)
                if every and err.step_index % every:
                    kept.extend(err.partial_states)
                raise _diverged(err, grid, kept) from err
            kept.fromlist(rows)
            first = stop
        if j:  # era j - 1 ends before ``start``; the rows before starts[0] are in no era
            era_sums.append(sums[:dim])
        if start:
            sums = (0.0,) * dim + sums[dim:]
    if every and grid.M % every:
        kept.extend(y)
    return StreamedRun(grid, starts, every, kept, tuple(era_sums), sums[dim:], negative)


def zero_stability_roots() -> tuple[complex, complex, complex]:
    """Roots of the first characteristic polynomial z**3 - 1 of the recurrence.

    The polynomial is in the one-substep shift variable z, and its roots are
    the cube roots of unity, in closed form.  Ordered by descending real
    part, then ascending imaginary part: 1, -1/2 - i*sqrt(3)/2,
    -1/2 + i*sqrt(3)/2.
    """
    half_sqrt3 = math.sqrt(3.0) / 2.0
    return complex(1.0, 0.0), complex(-0.5, -half_sqrt3), complex(-0.5, half_sqrt3)


def zero_stability_root_moduli() -> tuple[float, float, float]:
    """Moduli of the three characteristic roots.

    All three equal one: every root sits on the unit circle and is simple,
    so the recurrence amplifies no parasitic mode.
    """
    r1, r2, r3 = zero_stability_roots()
    return abs(r1), abs(r2), abs(r3)
