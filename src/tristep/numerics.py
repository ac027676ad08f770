"""State vectors, uniform time grids, era bounds and the discrete norms of the studies.

Everything here is a pure function of its inputs; values can be shared
freely across threads.  A grid is stated by its span and step count, and
derives its step from them.  Grids, era bounds, state checks and trajectories
run on Python floats and ints; a trajectory keeps the states its run kept,
every N-th or all of them, in one flat ``array('d')``, with the sums by
era and the sign flag its kernel took as it stepped, and, for a run
against an exact solution, its per-point error maxima; the era starts stay
with the caller that chose them.  numpy is imported only by the functions
that make or read numpy arrays (``as_state``, ``TimeGrid.times``,
``Trajectory.states`` and ``sup_norm``).  The L2 norm sums its squares with
the ``cblas_ddot`` of the OpenBLAS numpy's wheel bundles, loaded through
``ctypes`` without importing numpy, as numpy's own import would load it,
and run on one thread (:class:`one_blas_thread`), which holds the library
at one thread, its worker threads joined, for a block such as a whole
study, whoever loaded it; where there is no such library the squares are
added in order.
``TimeGrid`` and ``Trajectory`` are read-only ``__slots__`` classes on
:class:`Frozen`; the value types of the other modules are :class:`Record`
classes, which ``dataclasses.fields`` and ``dataclasses.replace`` accept.
Importing the module imports neither ``dataclasses`` nor ``typing``, and
generates and compiles no methods.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from array import array

TYPE_CHECKING = False
if TYPE_CHECKING:
    import ctypes
    from typing import Iterable, Iterator, Sequence

    import numpy as np

__all__ = [
    "TimeGrid",
    "Trajectory",
    "as_state",
    "build_grid",
    "convergence_rate",
    "discrete_l2_time_norm",
    "era_starts",
    "sup_norm",
]

#: Rows a loop gathers flat in a Python list before one slice assignment
#: writes them into an array: far cheaper than a row assignment per row,
#: while the list stays small whatever the number of rows.
BLOCK_ROWS = 1024


_NOT_A_STATE = "state vector must be a nonempty 1-D sequence of reals"


def state_floats(values: Iterable[float], dim: int) -> tuple[float, ...]:
    """``values`` as a tuple of ``dim`` floats, checked to be a 1-D sequence of reals.

    Finiteness is not checked.

    Raises:
      ValueError: On empty input, text, an array that is not 1-D, an entry
        that is not a real, or a dimension other than ``dim``.
    """
    if isinstance(values, (str, bytes)) or getattr(values, "ndim", 1) != 1:
        raise ValueError(_NOT_A_STATE)
    try:
        y = tuple(map(float, values))
    except TypeError:
        raise ValueError(_NOT_A_STATE) from None
    if not y:
        raise ValueError(_NOT_A_STATE)
    if len(y) != dim:
        raise ValueError(f"state vector has dimension {len(y)}, expected {dim}")
    return y


def finite_state_floats(values: Iterable[float], dim: int) -> tuple[float, ...]:
    """:func:`state_floats`, with every entry also checked to be finite."""
    y = state_floats(values, dim)
    if not all(map(math.isfinite, y)):
        raise ValueError("state vector entries must be finite")
    return y


def as_state(values: Iterable[float], dim: int) -> np.ndarray:
    """Coerce ``values`` to a new 1-D float64 state vector of ``dim`` entries and validate it.

    Raises:
      ValueError: On empty input, a dimension mismatch, or non-finite entries.
    """
    import numpy as np

    return np.array(finite_state_floats(values, dim), dtype=np.float64)


class Frozen:
    """Base of a value type whose attributes, once ``__init__`` has set them, are read only.

    Assigning or deleting an attribute raises ``AttributeError``; ``__init__``
    sets them through ``object.__setattr__``, as ``_set`` does.  The ``repr``
    names every attribute of ``__slots__``, in order.  A value type stated by
    its fields, which ``dataclasses`` accepts, is a :class:`Record`.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _set(self, *values: object) -> None:
        """Set the attributes of ``__slots__`` to ``values``, in order; for ``__init__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)


class _DataclassFields:
    """``__dataclass_fields__`` of a :class:`Record` class, built on first read.

    The fields are those :func:`dataclasses.make_dataclass` gives a class of
    the record's ``__slots__``, in order: each typed by its annotation on
    ``__init__`` or in the class body, each of ``_fields`` with its
    ``__init__`` default if it has one, every other one with ``init=False``
    and ``repr=False``.  The dict is then kept on the record's class, so it
    is built once.
    """

    def __get__(self, record: Record | None, cls: type[Record]) -> dict:
        if not cls._fields:  # Record itself
            raise AttributeError("__dataclass_fields__")
        import dataclasses

        init = cls.__init__
        annotations = {**cls.__annotations__, **init.__annotations__}
        defaults = dict(zip(reversed(cls._fields), reversed(init.__defaults__ or ())))
        specs = [
            (
                name,
                annotations.get(name, "object"),
                dataclasses.field(default=defaults.get(name, dataclasses.MISSING))
                if name in cls._fields
                else dataclasses.field(init=False, repr=False),
            )
            for name in cls.__slots__
        ]
        made = dataclasses.make_dataclass(cls.__name__, specs, init=False, repr=False, eq=False)
        cls.__dataclass_fields__ = fields = made.__dataclass_fields__
        return fields


class Record(Frozen):
    """A :class:`Frozen` value type stated by its fields, which ``dataclasses`` accepts.

    ``_fields`` names the arguments of ``__init__``, in order, as the first
    attributes of ``__slots__``; any attribute after them is derived by
    ``__init__``.  ``repr`` shows the fields; a record is equal to another of
    its class whose fields are equal, and hashes them.  It pickles, copies
    and ``__replace__``-s through ``__init__``, so its checks run again and
    its derived attributes are derived again.

    ``__dataclass_fields__`` is built on first read (see
    :class:`_DataclassFields`), so ``dataclasses.fields``,
    ``dataclasses.replace`` and ``dataclasses.is_dataclass`` accept a record
    class and its values, and only a caller of them imports ``dataclasses``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __dataclass_fields__ = _DataclassFields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __replace__(self, **changes: object) -> Record:
        import dataclasses

        return dataclasses.replace(self, **changes)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)


class TimeGrid(Frozen):
    """Uniform partition of [t0, T] into M steps of size k = (T - t0) / M.

    The step ``k`` is derived from the other three fields, never passed.
    Grid point ``n`` sits at ``t0 + n * k`` for n = 0..M; the last point
    lands on T up to one unit in the last place.  Grids are read only, equal
    when their four fields are, and hashable.  ``ValueError`` refuses an M
    that is not an integer of at least one or is beyond the float range, and
    a k that is not a positive finite float, as from an infinite t0 or T.
    """

    __slots__ = ("t0", "T", "M", "k")

    def __init__(self, t0: float, T: float, M: int) -> None:
        if not T > t0:
            raise ValueError("time grid requires T > t0")
        if not isinstance(M, int):
            raise ValueError(f"time grid requires an integer step count, got {M!r}")
        if M < 1:
            raise ValueError("time grid requires at least one step")
        try:
            k = (T - t0) / M
        except OverflowError:  # M has no float
            raise ValueError("time grid requires a step count within the float range") from None
        if not 0.0 < k < math.inf:  # T - t0 infinite, or (T - t0) / M rounded to 0 or inf
            raise ValueError(f"time grid requires a positive finite step, got k={k!r}")
        self._set(t0, T, M, k)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.t0, self.T, self.M, self.k) == (other.t0, other.T, other.M, other.k)

    def __hash__(self) -> int:
        return hash((self.t0, self.T, self.M, self.k))

    def __reduce__(self) -> tuple:
        return TimeGrid, (self.t0, self.T, self.M)

    def time(self, n: int) -> float:
        """The grid point t_n = t0 + n * k."""
        return self.t0 + n * self.k

    def times(self) -> np.ndarray:
        """All grid points t_0 .. t_M, equal to ``time(n)`` point by point."""
        import numpy as np

        return self.t0 + self.k * np.arange(self.M + 1)


def kept_count(last_index: int, every: int | None) -> int:
    """How many grid points of 0..``last_index`` :func:`kept_indices` gives, without them.

    Raises:
      ValueError: If ``every`` is neither None nor a positive int.
    """
    if every is not None and not (type(every) is int and every >= 1):
        raise ValueError(f"every must be None or a positive int, got {every!r}")
    return 0 if every is None else len(range(0, last_index, every)) + 1


def kept_indices(last_index: int, every: int | None) -> Iterator[int]:
    """The grid points a run keeps of 0..``last_index``, lazily, or ``ValueError`` at once.

    They are 0, ``every``, 2 * ``every``, ... below ``last_index``, then
    ``last_index``; none when ``every`` is None.
    """
    if not kept_count(last_index, every):
        return iter(())
    return itertools.chain(range(0, last_index, every), (last_index,))


def trajectory_row_indices(last_index: int, every: int | None) -> list[int]:
    """:func:`kept_indices` as a list."""
    return list(kept_indices(last_index, every))


#: The one refusal of a run at step k whose N states do not fit in memory,
#: which the probe and the allocation below alone raise, as a ValueError.
_DOES_NOT_FIT = "step size k={!r} is too small: the run's {} states do not fit in memory"


def probe_memory(size: int, k: float, rows: int) -> None:
    """Ask the allocator for ``size`` bytes, released untouched, or refuse the run."""
    try:
        bytes(size)
    except (MemoryError, OverflowError):  # OverflowError beyond the index range
        raise ValueError(_DOES_NOT_FIT.format(k, rows)) from None


def zeroed_array(n: int, k: float, rows: int) -> array:
    """An ``array('d')`` of ``n`` zeros, or the refusal of a ``rows``-state run at step ``k``."""
    try:
        return array("d", [0.0]) * n
    except (MemoryError, OverflowError):  # OverflowError beyond the index range
        raise ValueError(_DOES_NOT_FIT.format(k, rows)) from None


class Trajectory(Frozen):
    """Grid samples of one integration run, and the sums its kernel took.

    ``values`` holds the kept states one after the other as one flat
    ``array('d')``: those at the grid points ``kept_indices(M, every)``
    gives, that is 0, ``every``, 2 * ``every``, ... and M, all M + 1 of
    them by default and none when ``every`` is None.  ``states`` reads it as
    a ``(rows, dim)`` float64 numpy array that shares its memory.

    :func:`~tristep.scheme.integrate` fills in the fields its kernel computes
    as it steps; a trajectory built by hand may leave them None.
    ``era_sums`` holds one tuple of per-component sums per era of the run's
    era starts, ``overall_sums`` the sums over all M + 1 states; each sum
    starts from 0.0 and adds its states in grid order.  ``negativity_flag``
    is true when any component of any state is negative (-0.0 is not);
    negative values are reported, never clamped.  ``maxima``, of a run
    against an exact solution, holds max |exact|, max |computed| and
    max |exact - computed| at grid points 1..M, each in its own
    ``array('d')``.  A trajectory is read only and equal only to itself.
    """

    __slots__ = (
        "grid", "values", "every", "era_sums", "overall_sums", "negativity_flag", "maxima"
    )

    def __init__(
        self,
        grid: TimeGrid,
        values: array,
        every: int | None = 1,
        era_sums: tuple[tuple[float, ...], ...] | None = None,
        overall_sums: tuple[float, ...] | None = None,
        negativity_flag: bool | None = None,
        maxima: tuple[array, array, array] | None = None,
    ) -> None:
        rows = kept_count(grid.M, every)
        if rows:
            whole = values and not len(values) % rows
        else:  # no state kept: the sums tell the dimension
            whole = not values and overall_sums is not None
        if not whole:
            raise ValueError(f"trajectory must hold exactly {rows} state samples")
        self._set(grid, values, every, era_sums, overall_sums, negativity_flag, maxima)

    def __reduce__(self) -> tuple:
        return Trajectory, tuple(getattr(self, n) for n in self.__slots__)

    @property
    def dim(self) -> int:
        rows = kept_count(self.grid.M, self.every)
        return len(self.values) // rows if rows else len(self.overall_sums)

    @property
    def states(self) -> np.ndarray:
        import numpy as np

        rows = kept_count(self.grid.M, self.every)
        return np.frombuffer(self.values, dtype=np.float64).reshape(rows, self.dim)


def sup_norm(y: Sequence[float] | np.ndarray) -> float:
    """Max-magnitude norm max_i |y_i| of a state vector.

    Raises:
      ValueError: If ``y`` is empty.
    """
    import numpy as np

    v = np.asarray(y, dtype=np.float64)
    if v.size == 0:
        raise ValueError("sup_norm of an empty vector")
    return float(np.max(np.abs(v)))


def discrete_l2_time_norm(per_step_norms: Sequence[float] | np.ndarray, k: float) -> float:
    """Time-discrete L2 aggregate sqrt(k * sum_n v_n**2).

    The sequence covers grid points 1..M only; the initial sample is
    deliberately excluded from the sum.  The sum of squares is OpenBLAS's
    ``cblas_ddot`` of the sequence with itself, the function numpy's dot
    product of two float64 vectors calls, taken from the OpenBLAS that
    numpy's wheel bundles through ``ctypes`` without importing numpy
    (:func:`_openblas`).  Its last bits depend on the BLAS kernel that runs
    it.  OpenBLAS picks its kernel by CPU (``OPENBLAS_CORETYPE`` overrides
    the choice), once, when the library is loaded: at the first norm or
    study, or numpy's import, whichever comes first; the kernels' sums can
    differ at any length.  OpenBLAS 0.3.31 on x86-64 also splits the sum
    across its threads above 10 000 values, and the split can change the
    last bits, so each sum runs on one thread (:class:`one_blas_thread`),
    whatever thread count the environment loaded the library with.  Where
    there is no such library the squares are added in order, as Python
    floats.

    Raises:
      ValueError: If the sequence is empty or ``k`` is not positive.
    """
    v = per_step_norms
    if not (isinstance(v, array) and v.typecode == "d"):
        v = array("d", v)
    if not v:
        raise ValueError("discrete L2 norm of an empty sequence")
    if not k > 0.0:
        raise ValueError("step size k must be positive")
    library = _openblas()
    if library is None:
        total = 0.0
        for value in v:
            total += value * value
        return math.sqrt(k * total)
    address, size = v.buffer_info()
    with one_blas_thread():
        return math.sqrt(k * library.scipy_cblas_ddot64_(size, address, 1, address, 1))


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS numpy's wheel bundles, its functions typed, or None.

    The library is ``numpy.libs/libscipy_openblas64_*.so`` beside the numpy
    package, found with ``importlib.util.find_spec``, which imports no numpy,
    and loaded at the first call as numpy's import would load it: OpenBLAS
    reads its settings, its thread count among them, from the environment
    once, at its load, and this call changes none of them, so the library
    may start worker threads, which :class:`one_blas_thread` holds at one.
    Where numpy has loaded the library already, this is the same library,
    settings and all.  None where there is no such library, or it lacks
    ``cblas_ddot``, the thread count's getter or setter or
    ``blas_thread_shutdown_``, or there is no ``ctypes``.
    """
    import glob
    import importlib.util

    try:
        import ctypes

        spec = importlib.util.find_spec("numpy")
    except (ImportError, ValueError):  # no ctypes; numpy in sys.modules without a spec
        return None
    for location in (spec and spec.submodule_search_locations) or ():
        libs = os.path.join(os.path.dirname(location), "numpy.libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
            try:
                library = ctypes.CDLL(path)
                ddot = library.scipy_cblas_ddot64_
                threads = library.scipy_openblas_get_num_threads64_
                set_threads = library.scipy_openblas_set_num_threads64_
                shutdown = library.blas_thread_shutdown_
            except (OSError, AttributeError):
                continue
            # cblas_ddot(n, x, incx, y, incy) of the 64-bit-integer interface
            n, pointer = ctypes.c_int64, ctypes.c_void_p
            ddot.argtypes = [n, pointer, n, pointer, n]
            ddot.restype = ctypes.c_double
            threads.argtypes, threads.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            return library
    return None


class one_blas_thread:
    """A block in which the norms' OpenBLAS runs one thread.

    Entered where :func:`_openblas`'s library runs more than one thread, as
    it does on two CPUs or more unless the environment it was loaded in
    asks for one, whether the norms or numpy's import loaded it, it sets
    the library's thread count to one; where no other Python thread is
    alive, which could be inside a BLAS call, it also joins the library's
    workers with its ``blas_thread_shutdown_``, the function OpenBLAS's own
    ``pthread_atfork`` handler calls in the parent before every ``os.fork``,
    so the process runs one thread in the block.  Left, it sets the
    caller's count back, which starts the workers again, and, where it
    joined them on entry, joins them once more: the pool is stopped with
    the caller's count, as ``os.fork`` leaves it, and numpy starts it again
    at its next threaded call.  It is the one place that sets the library's
    thread count.  It does nothing where the library runs one thread
    already, as on one CPU, under an environment that asks for one or
    inside another such block, and where the library is missing;
    ``threading`` is imported only where the library runs more than one
    thread.
    """

    __slots__ = ("caller", "joined")

    def __enter__(self) -> None:
        self.caller = None
        library = _openblas()
        caller = 1 if library is None else library.scipy_openblas_get_num_threads64_()
        if caller == 1:
            return
        import threading

        library.scipy_openblas_set_num_threads64_(1)
        self.caller, self.joined = caller, threading.active_count() == 1
        if self.joined:
            library.blas_thread_shutdown_()

    def __exit__(self, *exception: object) -> None:
        if self.caller is not None:
            library = _openblas()
            library.scipy_openblas_set_num_threads64_(self.caller)
            if self.joined:
                library.blas_thread_shutdown_()


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
    return TimeGrid(t0=float(t0), T=float(T), M=max(1, round(steps)))


def era_starts(grid: TimeGrid, boundaries: Sequence[float]) -> tuple[int, ...]:
    """First grid index of every era, then M + 1, for strictly increasing ``boundaries``.

    Era j holds the grid points ``starts[j]`` to ``starts[j + 1] - 1``.  Eras
    are left-closed and right-open, except the final era, which holds every
    point from its left boundary on, the right endpoint included.  Points
    before the first boundary belong to no era.  Grid point n sits at
    ``t0 + n * k``, which never decreases with n, so each start is found by
    bisection over n, in O(log M) and with no array of times.

    Raises:
      ValueError: If the boundaries are fewer than two or not strictly
        increasing, or if some era holds no grid point; the message names
        the first such era.
    """
    bounds = tuple(float(b) for b in boundaries)
    if len(bounds) < 2 or not all(b < c for b, c in zip(bounds, bounds[1:])):  # NaN too
        raise ValueError("era boundaries must be strictly increasing, two or more")
    t0, k, end = grid.t0, grid.k, grid.M + 1
    starts: list[int] = []
    lo = 0
    for bound in bounds[:-1]:
        hi = end
        while lo < hi:  # the first n with t0 + n * k >= bound
            mid = (lo + hi) // 2
            if t0 + mid * k < bound:
                lo = mid + 1
            else:
                hi = mid
        starts.append(lo)
    starts.append(end)
    for j in range(len(starts) - 1):
        if starts[j] == starts[j + 1]:
            raise ValueError(f"era [{bounds[j]!r}, {bounds[j + 1]!r}) holds no grid point")
    return tuple(starts)
