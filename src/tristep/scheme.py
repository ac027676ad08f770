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
constants in local variables, and after each step adds the accepted state
into era sums and whole-run sums, tests its sign and keeps every N-th
state.  Against an exact solution (:meth:`RhsField.solution`), a
``march`` generated with the solution's text after each step also takes
the step's error maxima from the time terms at its end, which the next
step starts from; any other solution is called from it through a one-line
text.  The component form is generated apart, and :func:`heun_substep`
runs on it; each function is generated only when used.  The kernel gives
bitwise the results of the same update written in numpy arithmetic, which
:func:`composed_step` keeps.  Each generated function's code is kept in a
file beside this module's own bytecode, so a process that finds that file
neither generates nor compiles it (see :func:`_compiled`).

numpy is imported by the functions that make or read numpy arrays, when
first called, never by the generated kernel: building a field, checking its
text, the characteristic roots and an :func:`integrate` run that completes
need no numpy.  ``integrate`` has one path: one driver runs ``march`` block
by block and writes the kept states into one flat ``array('d')``, allocated
before the first step.  A run raises one blow-up error, which the failing
step builds and the driver completes; it carries floats: the last state as
a tuple, the partial run as the kept rows in one flat ``array('d')``.

``RhsField`` is a :class:`~tristep.numerics.Record`, which
``dataclasses.replace`` accepts; the source a field wraps is a plain
read-only class.  Importing the module imports neither ``dataclasses`` nor
``typing`` and generates no methods; ``ast`` is imported when a field's
text is first parsed, which a kernel found in its cache file skips, and the
text is dedented as ``textwrap.dedent`` would, without importing
``textwrap``.

The default :class:`SignConvention` adds the averaged slopes, which is the
choice forced by the second-order conditions.  ``MINUS`` subtracts them
instead; that variant drives the state away from the solution and exists
only as an opt-in so the difference stays observable in the studies.
"""

from __future__ import annotations

import enum
import functools
import itertools
import keyword
import math
import operator
import os
from array import array

from .numerics import (
    BLOCK_ROWS,
    Frozen,
    Record,
    TimeGrid,
    Trajectory,
    as_state,
    finite_state_floats,
    kept_count,
    state_floats,
    zeroed_array,
)

try:  # the file this module is loaded from, which its kernel cache files are checked against
    _SCHEME_STAT = os.stat(__file__)
except OSError:
    _SCHEME_STAT = None

TYPE_CHECKING = False
if TYPE_CHECKING:
    import ast
    from typing import Callable, Iterable, Mapping, Sequence

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


class _Source(Frozen):
    """A field's equations as text, with the constants the text names.

    Called, it is the field's array ``evaluate``: it checks the state's
    shape and dimension, not its finiteness.  ``components`` and ``march``
    are each generated from the text and compiled on first use, once per
    text and install, and bound to ``constants`` by value once per source;
    see :func:`_compiled`.  A source is read only and equal only to itself.
    """

    def __init__(self, dim: int, rates: str, constants: Mapping[str, object]) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "constants", constants)

    def __repr__(self) -> str:
        return f"_Source(dim={self.dim!r}, rates={self.rates!r}, constants={self.constants!r})"

    def __reduce__(self) -> tuple:
        return _Source, (self.dim, self.rates, self.constants)

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.array(self.components(t, state_floats(y, self.dim)))

    def _bound(self, function: str, solution: str | None = None) -> Callable:
        bind = _compiled(function, self.dim, self.rates, tuple(self.constants), solution)
        return bind(*self.constants.values())

    @functools.cached_property
    def components(self) -> Callable[[float, tuple[float, ...]], Sequence[float]]:
        """The field's component form: ``(t, (y1, ..., yd)) -> (f1, ..., fd)`` on floats."""
        return self._bound("components")

    @functools.cached_property
    def march(self) -> Callable:
        return self._bound("march")


class _Solution(Frozen):
    """A closed-form solution, as text over the time terms of a field's source.

    Called, it is ``exact(t)``: the solution at ``t`` as a tuple of floats,
    generated from the source's time terms and the text.  ``march`` is the
    source's, with the text inlined after each step (see
    :func:`_kernel_text`).  Each is compiled on first use, once per text and
    install.  A solution is read only and equal only to itself.
    """

    def __init__(self, source: _Source, text: str) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "text", text)

    def __repr__(self) -> str:
        return f"_Solution(text={self.text!r})"

    def __reduce__(self) -> tuple:
        return _Solution, (self.source, self.text)

    def __call__(self, t: float) -> tuple[float, ...]:
        return self.exact(t)

    @functools.cached_property
    def exact(self) -> Callable[[float], tuple[float, ...]]:
        return self.source._bound("exact", self.text)

    @functools.cached_property
    def march(self) -> Callable:
        return self.source._bound("march", self.text)


class RhsField(Record):
    """Right-hand side f(t, y) of a first-order system y' = f(t, y).

    ``dim`` is a positive integer.  ``evaluate`` must be deterministic and
    side-effect free, and must return a vector of the same dimension as its
    input.  A field built with :meth:`from_source` is stepped on its source,
    whose dimension ``dim`` must be; any other ``evaluate`` is stepped
    through a source that calls it on arrays.
    """

    __slots__ = _fields = ("dim", "evaluate")

    def __init__(self, dim: int, evaluate: Callable[[float, np.ndarray], np.ndarray]) -> None:
        dim = operator.index(dim)
        if dim < 1:
            raise ValueError(f"field dimension must be at least 1, got {dim}")
        if isinstance(evaluate, _Source) and evaluate.dim != dim:
            raise ValueError(
                f"field dimension {dim} differs from its source's dimension {evaluate.dim}"
            )
        self._set(dim, evaluate)

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
        stepped or evaluated, never here; a process that finds the compiled
        code in its cache file (see :func:`_compiled`) skips those steps.
        That first use raises ``ValueError`` when a statement is not an
        assignment to names, a name is used before it is known, a reserved,
        constant or time-term name is assigned, or a rate is never
        assigned; a text that does so is never cached.
        """
        return cls(dim=dim, evaluate=_Source(dim, rates, dict(constants)))

    def solution(self, text: str) -> Callable[[float], tuple[float, ...]]:
        """A closed-form solution of the field, written as Python assignments.

        ``text`` assigns the solution ``y1..yd`` from ``t``, the field's
        constants and the names its time terms assign (see
        :meth:`from_source`), and may assign other names on the way.  The
        callable returned gives the solution at ``t`` as a tuple of floats;
        :func:`integrate` inlines the text into its kernel for this field.
        The text is checked and compiled at first use, which raises
        ``ValueError`` as :meth:`from_source` does.
        """
        return _Solution(_source(self), text)


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


def inlines_exact(f: RhsField, exact: Callable[[float], Sequence[float]]) -> bool:
    """Whether ``f``'s kernel inlines ``exact``, a solution of its own text, rather than call it."""
    return isinstance(exact, _Solution) and exact.source is f.evaluate


def _called(source: _Source, exact: Callable[[float], Sequence[float]]) -> _Solution:
    """A solution for the kernel of ``source`` whose one-line text calls ``exact``."""
    dim = source.dim

    def x(t: float) -> array:
        values = array("d", exact(t))
        if len(values) != dim:
            raise ValueError(f"exact returned {len(values)} values, expected {dim}")
        return values

    name = "exact"  # a constant no name of the field's text is
    while name in source.rates or name in source.constants:
        name += "_"
    source = _Source(dim, source.rates, {**source.constants, name: x})
    return _Solution(source, f"{_names(dim, 'y{j}')} = {name}(t)")


def _finite(y: Sequence[float]) -> bool:
    return all(map(math.isfinite, y))


def _step_blowup(
    n: int, t0: float, k: float, h: float, y: Sequence[float], p: Sequence[float], q: Sequence[float]
) -> NumericalBlowupError:
    """The run's error for macro step ``n`` from the state ``y``, whose result is not finite.

    A non-finite component stays non-finite through every later update, so
    the first non-finite substep is found among the step's intermediates
    ``p`` and ``q`` without evaluating the field again.  The times are the
    kernel's, t = t0 + n * k then one substep length ``h`` at a time; the
    error's ``t`` is the failing substep's start, its ``step_index`` is
    ``n`` and its ``last_state`` is ``y``, the last state accepted.  A run
    adds its kept rows as ``partial_states`` and raises the same error.
    """
    t = t0 + n * k
    t1 = t + h
    start = t if not _finite(p) else t1 if not _finite(q) else t1 + h
    return NumericalBlowupError(
        f"integration diverged during step {n} (from t={t!r})",
        t=start,
        step_index=n,
        last_state=tuple(y),
    )


# ------------------------------------------------------------ the generated kernel
#
# Every name of a field's text is renamed before it enters the kernel: t, yj
# and fj to the kernel's own time, state and slope names, a constant c to
# c__c, a time term x computed at the kernel's time number i to x__ti, and a
# rate local x of stage s to x__ss.  The kernel's own names hold no "__" and
# the suffixes hold no "_", so no renamed name can meet a kernel name or
# another renamed name, whatever names the field uses.

def _dedent(text: str) -> str:
    """``textwrap.dedent(text)``, without importing ``textwrap``.

    Lines of spaces and tabs only are emptied, then the leading spaces and
    tabs that every other line shares are removed; lines are split at
    ``\\n`` alone.  No line is dropped, so a statement keeps its line number.
    """
    lines = [line if line.strip(" \t") else "" for line in text.split("\n")]
    shared = os.path.commonprefix([line for line in lines if line])
    margin = len(shared) - len(shared.lstrip(" \t"))
    return "\n".join(line[margin:] for line in lines)


def _target_names(target: ast.expr, where: str) -> list[str]:
    import ast

    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for item in target.elts for name in _target_names(item, where)]
    raise ValueError(f"{where}: only names may be assigned")


def _check(
    dim: int, rates: str, constants: tuple[str, ...], outputs: str = "f"
) -> tuple[list[ast.stmt], list[str], list[ast.stmt]]:
    """Check a field's text against the rules of :meth:`RhsField.from_source`.

    Returns the parsed time terms, the names they assign and the parsed
    rate statements, each in the order of the text; raises ``ValueError``
    on the first rule broken.  With ``outputs="y"`` it checks a solution's
    text (:meth:`RhsField.solution`) instead: the text must assign
    ``y1..yd`` and reads no state, and ``constants`` name the field's
    constants and time terms.
    """
    import ast

    # expressions that bind names of their own, which the renaming does not
    # follow, or that would turn the kernel into something else than a function
    not_allowed = (
        ast.Lambda,
        ast.NamedExpr,
        ast.comprehension,
        ast.Await,
        ast.Yield,
        ast.YieldFrom,
    )
    what = "rates" if outputs == "f" else "solution"
    state = {f"y{j}" for j in range(1, dim + 1)} if outputs == "f" else set()
    slopes = {f"{outputs}{j}" for j in range(1, dim + 1)}
    for name in constants:
        if not name.isidentifier() or keyword.iskeyword(name):
            raise ValueError(f"constant name {name!r} is not an identifier")
        if name == "t" or name in state or name in slopes:
            raise ValueError(f"constant name {name!r} is reserved")
    try:
        body = ast.parse(rates).body
    except SyntaxError as err:
        raise ValueError(f"{what}: {err.msg} on line {err.lineno}") from None
    fixed = {"t", *state, *constants}  # names no statement may assign
    known = set(fixed)  # names a statement may read
    timely = {"t", *constants}  # names a time term may read
    taken = set(slopes)  # names a time term may not assign: the rates and all assigned before
    timed: list[ast.stmt] = []
    time_names: list[str] = []
    rated: list[ast.stmt] = []
    for statement in body:
        where = f"{what}, line {statement.lineno}"
        if not isinstance(statement, ast.Assign):
            raise ValueError(f"{where}: only assignments are allowed")
        nodes = list(ast.walk(statement.value))
        for node in nodes:
            if isinstance(node, not_allowed):
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
        raise ValueError(f"{what} never assign{'' if state else 's'} {', '.join(missing)}")
    return timed, time_names, rated


def _read_by(statements: list[ast.stmt], terms: list[ast.Assign]) -> list[ast.Assign]:
    """The ``terms`` that ``statements`` read, directly or through other such terms, in order."""
    import ast

    def reads(nodes: Iterable[ast.AST]) -> set[str]:
        return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name)}

    needed = reads(statement.value for statement in statements)
    kept: list[ast.Assign] = []
    for term in reversed(terms):
        if not needed.isdisjoint(reads(term.targets)):
            kept.append(term)
            needed |= reads([term.value])
    return kept[::-1]


def _pieces(body: list[ast.stmt]) -> list[list[str]]:
    """The lines of ``body``, each split into text and names: names at the odd places.

    The statements are written with every name between two marks, a
    character that the statements written without marks do not hold.  It
    is printable, so a name inside an f-string keeps its marks as they are.
    """
    import ast

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


def _kernel_text(
    function: str, dim: int, rates: str, constants: tuple[str, ...], solution: str | None = None
) -> str:
    """Source of ``bind(constants) -> function`` for a field's text.

    ``function`` is ``components``, ``march`` or, for a ``solution``,
    ``exact``.  The text is written from the field's text, the solution's
    and the constants' names alone, never from their values, which ``bind``
    takes as arguments and the function keeps as keyword defaults, so that
    they are its fast locals.
    ``march`` chains three substeps of length h from t, t1 = t + h and
    t2 = t1 + h, so the time terms run at four distinct times per step; a
    step's result is finite when the sum of its components times 0.0 is
    0.0, and otherwise exactly when every component passes ``isfinite``.
    Each accepted state is then added into the era sums ``s0..`` and the
    whole-run sums ``o0..``, in order and never through ``sum``, tested for
    a negative component, and kept when the countdown ``c`` to the next
    kept row reaches zero.  With a ``solution``, the text of a closed-form
    solution over the field's time terms (:meth:`RhsField.solution`), each
    step ends at its end time t0 + (n + 1) * k: the time terms there, which
    the next step starts from, then the solution ``x0..`` and the maxima of
    its accepted state's magnitudes, as ``exact`` gives them at that time.
    ``exact`` itself computes only the time terms its solution reads,
    directly or through other time terms.
    """
    timed, time_names, rated = _check(dim, _dedent(rates), constants)
    bound = {name: f"{name}__c" for name in constants}
    solved: list[list[str]] = []
    if solution is not None:
        # a solution reads no state, so its time terms may run before its other statements
        terms, _, rest = _check(dim, _dedent(solution), (*constants, *time_names), "y")
        if function == "exact":  # no rate runs there, so only the time terms the solution reads
            timed = _read_by(terms + rest, timed)
        solved = _pieces(terms + rest)
    timed, rated = _pieces(timed), _pieces(rated)
    # the kernel keeps its times t, t1, ... only when a text reads t
    ticks = any("t" in line[1::2] for line in (*timed, *rated, *solved))
    # the solution's own names take the suffix of the time terms at t, which it cannot assign
    solved = _renamed(solved, {"t": "t", **{f"y{i + 1}": f"x{i}" for i in range(dim)}, **bound}, "t0")

    def times(number: int, t: str) -> list[str]:
        """The time terms at the kernel's time number ``number``, held in ``t``."""
        return _renamed(timed, {"t": t, **bound}, f"t{number}")

    def now(n: str) -> list[str]:
        """The time t = t0 + ``n`` * k and its time terms."""
        return [*([f"t = t0 + {n} * k"] if ticks else []), *times(0, "t")]

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

    def largest(values: list[str], out: str) -> list[str]:
        """max |value| of ``values`` into ``{out}[n]``: a NaN wins, and -0.0 counts as 0.0."""
        lines = [f"u{i} = abs({value})" for i, value in enumerate(values)]
        m = "u0"
        for i in range(1, dim):  # a NaN on either side wins
            lines.append(f"m = {m} if {m} > u{i} or {m} != {m} else u{i}")
            m = "m"
        return [*lines, f"{out}[n] = {m}"]

    state, p, q = (_names(dim, y + "{i}") for y in "ypq")
    if function == "components":
        parameters = "t, y"
        body = [*times(0, "t"), *stage(1, 0, "t", "y", "a"), f"return ({_names(dim, 'a{i}')})"]
    elif function == "exact":
        parameters = "t"
        body = [*times(0, "t"), *solved, f"return ({_names(dim, 'x{i}')})"]
    else:
        step = [
            *substep(1, "t", "t1", "y", "p"),
            *substep(2, "t1", "t2", "p", "q"),
            *substep(3, "t2", "t3", "q", "r"),
            f"if not (({' + '.join(f'r{i}' for i in range(dim))}) * 0.0 == 0.0 or "
            f"{' and '.join(f'isfinite(r{i})' for i in range(dim))}):",
            f"    raise blowup(n, t0, k, h, ({state}), ({p}), ({q}))",
            *(f"y{i} = r{i}" for i in range(dim)),
            *(f"{total}{i} += y{i}" for i in range(dim) for total in "so"),
            f"if {' or '.join(f'y{i} < 0.0' for i in range(dim))}:",
            "    negative = True",
            "c -= 1",
            "if not c:",
            f"    rows += ({state})",
            "    c = every",
        ]
        parameters = "t0, k, first, stop, y, h, w, rows, every, c, sums, negative"
        if solution is None:
            start, step = [], [*now("n"), *step]
        else:
            start = now("first")
            step += [
                *now("(n + 1)"),
                *solved,
                *largest([f"x{i}" for i in range(dim)], "exact"),
                *largest([f"y{i}" for i in range(dim)], "computed"),
                *largest([f"x{i} - y{i}" for i in range(dim)], "error"),
            ]
            parameters += ", exact, computed, error"
        # the era sums and whole-run sums, named apart from the stage locals
        sums = _names(dim, "s{i}") + " " + _names(dim, "o{i}")
        body = [
            f"{sums} = sums",
            *start,
            "for n in range(first, stop):",
            *(f"    {line}" for line in step),
            f"return ({state}), c, ({sums}), negative",
        ]
    defaults = "".join(f", {name}={name}" for name in bound.values())
    lines = [
        f"def bind({', '.join(bound.values())}):",
        f"    def {function}({parameters}{defaults}):",
        *([] if function == "exact" else [f"        {state} = y"]),
        *(f"        {line}" for line in body),
        f"    return {function}",
    ]
    return "\n".join(lines)


@functools.cache
def _compiled(
    function: str, dim: int, rates: str, constants: tuple[str, ...], solution: str | None = None
) -> Callable[..., Callable]:
    """``bind(*values)``: ``function`` of one field text, bound to the constants' values.

    ``components`` is ``(t, y) -> tuple``, and a ``solution``'s ``exact`` is
    ``t -> tuple``.  ``march(t0, k, first, stop, y, h, w, rows, every, c,
    sums, negative)``, with w = s*(h/2), steps from the state ``y`` at t0 +
    first * k and returns ``(state, c, sums, negative)``, the state at t0 +
    stop * k: ``sums`` holds the era sums then the whole-run sums, one per
    component, and each accepted state is added into both; ``negative``
    becomes true at a negative component; ``c`` counts down to the next
    kept row, whose components are appended to ``rows`` as ``c`` reaches
    zero, and is reset to ``every``.  With a ``solution`` it takes three
    more arguments, arrays that step n writes at index n: max |exact|,
    max |computed| and max |exact - computed| at grid point n + 1.
    Each stage is the field's text inlined, so the field is evaluated six
    times per macro step without a call.

    The code of ``bind`` is kept in a file beside scheme's own bytecode
    (:func:`_kernel_file`), so only a process that finds no file for these
    arguments generates the text and compiles it; one that finds it imports
    no ``ast``.  A file that cannot be read, or holds another key, is a miss
    and is replaced unless ``sys.dont_write_bytecode`` is set; a file that
    cannot be written is not written.  The file holds no constant's value.
    """
    import marshal
    import sys
    from types import FunctionType

    arguments = (function, dim, rates, constants, solution)
    namespace = {"isfinite": math.isfinite, "blowup": _step_blowup}
    path, key = _kernel_file(arguments)
    if path is not None:
        try:
            with open(path, "rb") as stream:
                stored, code = marshal.loads(stream.read())
            if stored == key:
                return FunctionType(code, namespace)
        except (OSError, ValueError, EOFError, TypeError):
            pass
    exec(_kernel_text(*arguments), namespace)
    bind = namespace["bind"]
    if path is not None and not sys.dont_write_bytecode:
        temporary = f"{path}.{os.getpid()}"  # this process's own; the replace is atomic
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(temporary, "xb") as stream:  # O_CREAT | O_EXCL
                stream.write(marshal.dumps((key, bind.__code__)))
            os.replace(temporary, path)
        except OSError:
            try:
                os.unlink(temporary)
            except OSError:
                pass
    return bind


def _kernel_file(arguments: tuple) -> tuple[str | None, tuple]:
    """The cache file of :func:`_compiled`'s ``arguments`` and the key it must hold.

    The file is in the directory of scheme's own bytecode, as
    ``importlib.util.cache_from_source`` names it (``__pycache__``, or a
    directory under ``sys.pycache_prefix``), and its name is a CRC-32 and
    an Adler-32 of the arguments and the interpreter's cache tag, so that a
    changed ``scheme.py`` replaces a file rather than adding one.  The key
    is the bytecode's magic number, ``sys.version``, the modification time
    in nanoseconds and the size of ``scheme.py`` as this module was loaded
    from it, as a ``.pyc`` is checked against its source, then the
    arguments as they are: the field's text and its constants' names, never
    their values.  The path is None where scheme has no file or the
    interpreter no bytecode cache.
    """
    import sys
    import zlib
    from importlib.util import MAGIC_NUMBER, cache_from_source

    tag = sys.implementation.cache_tag
    if _SCHEME_STAT is None or tag is None:
        return None, ()
    name = repr((arguments, tag)).encode()
    digest = f"{zlib.crc32(name):08x}{zlib.adler32(name):08x}"
    directory = os.path.dirname(cache_from_source(__file__))
    source = _SCHEME_STAT
    key = (MAGIC_NUMBER, sys.version, source.st_mtime_ns, source.st_size, *arguments)
    return os.path.join(directory, f"scheme.kernel-{digest}.{tag}"), key


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
    g, w = _source(f).components, sign.factor * (h / 2.0)
    # the float operations of march's substep, in the same order
    a = g(t, y)
    b = g(t + h, tuple(v + h * d for v, d in zip(y, a)))
    out = [v + w * (c + d) for v, c, d in zip(y, a, b)]
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

    Raises:
      NumericalBlowupError: If an intermediate is not finite, as
        :func:`integrate` raises it for step 0, without ``partial_states``.
    """
    if not k > 0.0:
        raise ValueError("step size k must be positive")
    import numpy as np

    y = finite_state_floats(y, dim=f.dim)
    h = k / 3.0
    # with k = -0.0 the step starts at t_n + 0 * -0.0, which is t_n exactly, -0.0 too;
    # counting down from -1 it keeps no row, and its sums are not read
    y, *_ = _source(f).march(
        t_n, -0.0, 0, 1, y, h, sign.factor * (h / 2.0), [], None, -1, y * 2, False
    )
    return np.array(y)


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
    exact: Callable[[float], Sequence[float]] | None = None,
) -> Trajectory:
    """March the scheme across the grid from the exact initial state.

    Returns a :class:`Trajectory` whose flat ``array('d')`` holds the states
    at grid points 0, ``every``, 2 * ``every``, ... and M: all M + 1 with
    the default ``every=1``, none when ``every`` is None, so memory does not
    grow with M unless states are kept.  The array is allocated before the
    first step and written a block of ``BLOCK_ROWS`` steps at a time; a run
    that completes imports no numpy.

    As each state is accepted, the kernel adds it into its era's sums and
    the whole-run sums and notes a negative component.  ``eras`` are the
    first grid index of every era, then M + 1, as
    :func:`~tristep.numerics.era_starts` gives them; without them the whole
    run is one era.  The sums start from 0.0 and add the states in grid
    order, bitwise the axis-0 sums numpy takes of two or more columns, so
    they give :func:`~tristep.studies.era_summary`'s means.  The states do
    not depend on ``eras``, ``every`` or ``exact``.

    Given the ``exact`` solution, the run also takes at every grid point
    n = 1..M max |exact|, max |computed| and max |exact - computed|, each
    into its own ``array('d')`` of M values, which ``maxima`` holds: a NaN
    anywhere in a row makes its maximum NaN, and -0.0 counts as 0.0.  A
    solution of the field's own text (:meth:`RhsField.solution`) is inlined
    into the kernel after each step, where it reads the step's time terms;
    any other ``exact`` is called there through a one-line text.

    Raises:
      ValueError: If ``y0`` is not a finite state of the field's dimension,
        ``eras`` are not strictly increasing from 0 or more to M + 1,
        ``every`` is neither None nor a positive int, the kept states or the
        maxima do not fit in memory (:func:`~tristep.numerics.zeroed_array`:
        "the run's N states do not fit in memory"), or ``exact`` returns a
        row whose length is not the field's dimension.
      NumericalBlowupError: As soon as any intermediate is non-finite,
        carrying the failing step index n, the last finite state (that of
        grid point n) as a tuple and as a flat ``array('d')`` the kept
        states, at grid points 0, ``every``, ... up to n, then the state at
        n when n is not a multiple of ``every`` (none when ``every`` is
        None).
    """
    y = finite_state_floats(y0, dim=f.dim)
    starts = (0, grid.M + 1) if eras is None else tuple(map(operator.index, eras))
    if not (
        len(starts) >= 2
        and starts[0] >= 0
        and starts[-1] == grid.M + 1
        and all(a < b for a, b in zip(starts, starts[1:]))
    ):
        raise ValueError("era starts must increase strictly from 0 or more to M + 1")
    h, source = grid.k / 3.0, _source(f)
    if exact is None:
        march, maxima = source.march, ()
    else:
        march = (exact if inlines_exact(f, exact) else _called(source, exact)).march
        maxima = tuple(zeroed_array(grid.M, grid.k, grid.M + 1) for _ in range(3))
    return _run(march, y, grid, h, sign.factor * (h / 2.0), starts, every, maxima)


def _run(
    march: Callable,
    y: tuple[float, ...],
    grid: TimeGrid,
    h: float,
    w: float,
    starts: tuple[int, ...],
    every: int | None,
    maxima: tuple[array, ...],
) -> Trajectory:
    """Run ``march`` over the grid by eras and blocks of steps into one :class:`Trajectory`.

    ``maxima`` are the arrays a march with a solution writes, none without; the kept
    states' array is allocated, or the run refused, by :func:`~tristep.numerics.zeroed_array`.
    Each block's kept rows go into it in one write: row 0 ahead of the first block's, and
    the state at the last grid point reached, M or a blow-up's, where no row was kept there.
    """
    t0, k, dim = grid.t0, grid.k, len(y)
    rows_kept = kept_count(grid.M, every)
    values = zeroed_array(rows_kept * dim, k, rows_kept)
    kept = 0  # floats of ``values`` written
    rows = list(y) if every else []  # the block's kept rows, flat
    c = every or -1  # steps to the next kept row; counting down from -1 it keeps none
    sums = tuple(0.0 + v for v in y) * 2  # the era and the whole-run sums of row 0
    negative = any(v < 0.0 for v in y)
    era_sums = []
    first = 0  # the next step, from grid point first to first + 1
    for j, start in enumerate(starts):
        # step up to the last row before ``start``, in blocks of BLOCK_ROWS steps
        while first < start - 1:
            stop, blowup = min(first + BLOCK_ROWS, start - 1), None
            try:
                y, c, sums, negative = march(
                    t0, k, first, stop, y, h, w, rows, every, c, sums, negative, *maxima
                )
            except NumericalBlowupError as err:  # the state step n started from is the last
                blowup, stop, y = err, err.step_index, err.last_state
            if every and stop % every and (blowup or stop == grid.M):
                rows += y  # the last state reached is kept, on an every-th point or not
            values[kept : kept + len(rows)] = array("d", rows)
            kept += len(rows)
            if blowup:
                blowup.partial_states = values[:kept]
                raise blowup
            rows, first = [], stop
        if j:  # era j - 1 ends before ``start``; the rows before starts[0] are in no era
            era_sums.append(sums[:dim])
        if start:
            sums = (0.0,) * dim + sums[dim:]
    return Trajectory(grid, values, every, tuple(era_sums), sums[dim:], negative, maxima or None)


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
