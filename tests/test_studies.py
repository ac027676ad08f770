"""Convergence tables and era summaries."""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import functools
import hashlib
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tristep import (
    ConvergenceRow,
    CpParams,
    EraPreset,
    EraSummaryRow,
    ManufacturedProblem,
    RhsField,
    SignConvention,
    TimeGrid,
    Trajectory,
    build_grid,
    era_summary,
    example1,
    example2,
    integrate,
    preset,
    run_convergence_study,
    run_scenario,
)
from tristep import numerics, studies
from tristep.cli import main, trajectory_row_indices
from tristep.scheme import NumericalBlowupError

# Regression values confirmed against an independently coded run of the same
# scheme; the fourth-order reference oracle in test_scheme pins correctness.
FROZEN_ERROR_NORMS = {
    "example1": (2.511321e-04, 6.152731e-05, 1.522569e-05, 3.786951e-06, 9.443069e-07),
    "example2": (2.350672e-04, 5.765981e-05, 1.427645e-05, 3.551789e-06, 8.857812e-07),
}

# Published era tables for the three scenarios (values in persons).  The
# printed drifts of ~1% per era are not reachable from the stated flow rates
# by forward integration in calendar-year units, so these serve shape
# comparison only; the harness emits what the model and scheme produce.
REFERENCE_ERA_TABLE_1960 = {
    "y1": (3.5077e6, 3.5233e6, 3.5428e6, 3.5664e6, 3.5862e6),
    "y2": (1.5040e6, 1.5119e6, 1.5219e6, 1.5340e6, 1.5442e6),
    "y3": (1.5003e6, 1.5010e6, 1.5019e6, 1.5028e6, 1.5036e6),
    "y4": (0.4994e6, 0.4982e6, 0.4966e6, 0.4947e6, 0.4930e6),
    "y5": (2.9938e6, 2.9813e6, 2.9656e6, 2.9467e6, 2.9308e6),
}


def constant_trajectory(grid, values):
    states = np.tile(np.asarray(values, dtype=float), (grid.M + 1, 1))
    return Trajectory(grid=grid, values=array("d", states.tobytes()))


def balanced_preset():
    # theta = gamma*N with everyone susceptible and sigma = 0 freezes y1, y5
    params = CpParams(
        theta=2e5,
        gamma=0.2,
        rho=1.0,
        mu=0.5,
        p1=0.5,
        p2=0.5,
        beta1=0.0,
        beta2=0.0,
        alpha1=0.5,
        alpha2=0.5,
        r1=0.3,
        r2=0.3,
        tau=0.4,
        b1=0.1,
        b2=0.1,
        sigma=0.0,
        N=1e6,
    )
    return EraPreset(
        label="balanced",
        params=params,
        y0=np.array([1e6, 0.0, 0.0, 0.0, 0.0]),
        t0=0.0,
        T=1.0,
        k=1e-3,
        era_boundaries=(0.0, 0.5, 1.0),
    )


@pytest.fixture(autouse=True)
def serial_unless_allowed(monkeypatch):
    """Every study of this module runs serially unless its test lets it fork (allow_fork).

    A study holds numpy's OpenBLAS at one thread with its workers joined, so
    this process runs one thread in it, and its studies would fork; a forked
    study's child makes calls that the counting tests here would miss.
    """
    monkeypatch.setattr(studies, "_threads_and_cpu", lambda: (2, 0))


# -------------------------------------------------------- convergence studies


@pytest.mark.parametrize("build", [example1, example2])
def test_error_norms_match_frozen_regression_values(build):
    prob = build()
    rows = run_convergence_study(prob, range(4, 9))
    for row, frozen in zip(rows, FROZEN_ERROR_NORMS[prob.label]):
        assert row.error_norm == pytest.approx(frozen, rel=1e-4)


def test_rows_run_coarse_to_fine_and_first_rate_is_absent():
    rows = run_convergence_study(example1(), [4, 5, 6])
    assert [row.k for row in rows] == [2.0**-4, 2.0**-5, 2.0**-6]
    assert rows[0].rate is None
    assert all(row.rate is not None for row in rows[1:])


@pytest.mark.parametrize("build", [example1, example2])
def test_observed_rates_sit_in_the_second_order_window(build):
    rows = run_convergence_study(build(), range(4, 9))
    rates = [row.rate for row in rows[1:]]
    # pairs at k <= 2**-5 must sit inside [1.75, 2.15]
    for rate in rates[1:]:
        assert 1.75 <= rate <= 2.15
    # the trend tightens towards 2 and ends inside [1.9, 2.1]
    gaps = [abs(rate - 2.0) for rate in rates]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert 1.9 <= rates[-1] <= 2.1


def test_example2_fine_pair_rate_matches_reference():
    rows = run_convergence_study(example2(), [7, 8])
    assert rows[1].rate == pytest.approx(1.99, abs=0.15)


def test_exact_norm_column_is_step_insensitive():
    rows = run_convergence_study(example1(), [4, 8])
    assert rows[0].exact_norm == pytest.approx(rows[1].exact_norm, rel=1e-3)


@pytest.mark.parametrize("build", [example1, example2])
def test_minus_sign_mode_breaks_second_order(build):
    rows = run_convergence_study(build(), [7, 8], SignConvention.MINUS)
    assert rows[1].rate is not None
    assert not 1.75 <= rows[1].rate <= 2.15


def test_degenerate_zero_field_yields_zero_errors_and_no_rates():
    flat = ManufacturedProblem(
        label="flat",
        field=RhsField(dim=3, evaluate=lambda t, y: np.zeros(3)),
        exact=lambda t: np.zeros(3),
    )
    rows = run_convergence_study(flat, [2, 3])
    assert all(row.error_norm == 0.0 for row in rows)
    assert all(row.rate is None for row in rows)


def test_exponent_validation():
    with pytest.raises(ValueError):
        run_convergence_study(example1(), [])
    with pytest.raises(ValueError):
        run_convergence_study(example1(), [0, 1])
    with pytest.raises(ValueError):
        run_convergence_study(example1(), [4, 4])
    with pytest.raises(ValueError):
        run_convergence_study(example1(), [5, 4])
    # an exponent that is not an integer is an error, not truncated to one
    for exponents in ([4.5, 5.9], ["4", "5"], [4, 5.0], [np.float64(4.0)]):
        with pytest.raises(ValueError, match="integers"):
            run_convergence_study(example1(), exponents)
    numpy_ints = run_convergence_study(example1(), np.arange(4, 6))
    assert numpy_ints == run_convergence_study(example1(), [4, 5])


# ------------------------------------------------ the exact solution of each grid


def counting(build):
    """``build()`` with its ``exact`` wrapped to record every time it is called at."""
    built = build()
    times = []

    def exact(t):
        times.append(t)
        return built.exact(t)

    return dataclasses.replace(built, exact=exact), times


def test_a_called_exact_is_evaluated_at_every_point_of_every_grid():
    counted, times = counting(example1)
    run_convergence_study(counted, (4, 6, 9))
    grids = [build_grid(0.0, 1.0, 2.0**-e) for e in (4, 6, 9)]
    # per grid, t0 as y0, then grid points 1..M as the run steps
    assert times == [grid.time(n) for grid in grids for n in range(grid.M + 1)]


@pytest.mark.parametrize("row", [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0)])
def test_an_exact_row_of_the_wrong_length_is_rejected(row):
    # right at t0, so that only the rows after the first would be misaligned
    problem = dataclasses.replace(example1(), exact=lambda t: (0.0, 0.0, 0.0) if t == 0.0 else row)
    message = f"^exact returned {len(row)} values, expected 3$"
    with pytest.raises(ValueError, match=message):
        run_convergence_study(problem, [2, 3])


def test_an_exact_solution_of_numpy_arrays_gives_the_same_table():
    problem = example1()
    arrays = dataclasses.replace(problem, exact=lambda t: np.array(problem.exact(t)))
    expected = run_convergence_study(problem, range(4, 9))
    assert repr(run_convergence_study(arrays, range(4, 9))) == repr(expected)


def called(problem):
    """``problem`` with its exact solution called through a function, not inlined."""
    exact = problem.exact
    return dataclasses.replace(problem, exact=lambda t: exact(t))


def nan_at_one_point():
    """example1's field with an exact solution of -0.0 but for a NaN in y2 at t = 0.5."""
    source = example1().field.evaluate
    field = RhsField.from_source(3, source.rates, constants={**source.constants, "nan": math.nan})
    exact = "y1 = -0.0\ny2 = nan if t == 0.5 else -0.0\ny3 = -0.0"
    return ManufacturedProblem(label="nan", field=field, exact=exact)


@pytest.mark.parametrize("build", [example1, example2, nan_at_one_point])
@pytest.mark.parametrize("exponents", [range(4, 11), (4, 6, 9), (3, 7)])
def test_an_inlined_and_a_called_exact_give_one_study(build, exponents):
    inlined = run_convergence_study(build(), exponents)
    # repr tells every bit of a float apart, the sign of zero included
    assert repr(run_convergence_study(called(build()), exponents)) == repr(inlined)
    if build is nan_at_one_point:
        assert all(math.isnan(row.exact_norm) and math.isnan(row.error_norm) for row in inlined)
        assert not any(math.isnan(row.numeric_norm) for row in inlined)


def test_a_solution_of_another_field_is_called_not_inlined():
    problem = example1()
    other = dataclasses.replace(problem, field=example1().field)
    assert other.exact.source is not other.field.evaluate
    assert repr(run_convergence_study(other, range(4, 9))) == repr(
        run_convergence_study(problem, range(4, 9))
    )


@functools.cache
def traced_study_peak():
    """The traced peak, in bytes, of a serial example1 study over 4..13.

    Both memory tests read this one trace; call it inside a test, where
    serial_unless_allowed holds the study serial.
    """
    run_convergence_study(example1(), [4, 5])  # generates and compiles the kernel
    tracemalloc.start()
    try:
        run_convergence_study(example1(), range(4, 14))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_study_holds_at_most_four_grids_of_states_at_once():
    finest = (2**13 + 1) * 3 * 8  # bytes of the states of one k = 2^-13 grid
    # the finest grid's three arrays of maxima, 24 bytes per point, with room to spare
    assert traced_study_peak() < 4 * finest


def test_a_study_holds_at_most_40_bytes_per_finest_grid_point():
    # the finest grid's three arrays of maxima take 24 bytes per point; a
    # study that also kept a grid's three-float states would take 48 or more
    assert traced_study_peak() <= 40 * 2**13


def study_outcome(problem, exponents):
    """The study's rows, or the message of the integration that diverged."""
    try:
        return run_convergence_study(problem, exponents)
    except NumericalBlowupError as err:  # a coarse step diverges over some intervals
        return str(err)


# seeded, so that every run of the suite draws the same examples
@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(
    st.sampled_from([example1, example2]),
    st.floats(-2.0, 2.0),
    st.floats(0.01, 2.0) | st.sampled_from([0.25, 1.0, 2.0]),
    # at most three exponents from 1..9: the finest grid has at most 2 * 2**9 = 2**10 steps
    st.integers(1, 7),
    st.integers(1, 3),
)
def test_the_inlined_solution_is_the_called_one_over_random_intervals(
    build, t0, span, first, count
):
    problem = dataclasses.replace(build(), t0=t0, T=t0 + span)
    exponents = range(first, first + count)
    # repr tells every bit of a float apart, the sign of zero included
    assert repr(study_outcome(problem, exponents)) == repr(
        study_outcome(called(problem), exponents)
    )


# ----------------------------------------------- the finest grid in a child

SRC = os.path.dirname(os.path.dirname(os.path.abspath(studies.__file__)))


def tristep_env():
    """This environment, with this checkout's tristep first on the import path.

    ``OPENBLAS_NUM_THREADS`` is dropped, so a process started with it loads
    OpenBLAS with the thread count the host gives, whatever the shell that
    ran the tests set; a test that needs a count sets it.
    """
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


# the module's own; serial_unless_allowed replaces the first in every test
threads_and_cpu, runnable = studies._threads_and_cpu, studies._runnable
MAY_FORK = (
    hasattr(os, "fork")
    and hasattr(os, "sched_getaffinity")
    and len(os.sched_getaffinity(0)) >= 2
    and threads_and_cpu() is not None
)
FORKS = pytest.mark.skipif(
    not MAY_FORK, reason="a study forks only on two CPUs or more, where Linux reports its threads"
)


def allow_fork(monkeypatch):
    """Let a study fork in this process, as in one that runs one thread on an idle host.

    Returns the pids forked.
    """
    cpu = threads_and_cpu()[1]
    monkeypatch.setattr(studies, "_threads_and_cpu", lambda: (1, cpu))
    monkeypatch.setattr(studies, "_runnable", lambda: 1)
    forks, fork = [], os.fork

    def counted():
        with warnings.catch_warnings():  # from Python 3.12, forking with threads warns
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counted_integrate(monkeypatch, fail=None):
    """Count this process's integrations per grid size; ``fail(grid)`` may raise instead."""
    grids, real, parent = [], studies.integrate, os.getpid()

    def integrate(field, y0, grid, sign, **options):
        if os.getpid() == parent:
            grids.append(grid.M)
        if fail is not None:
            fail(grid)
        return real(field, y0, grid, sign, **options)

    monkeypatch.setattr(studies, "integrate", integrate)
    return grids


@FORKS
@pytest.mark.parametrize(
    "build, exponents",
    [
        (example1, range(4, 14)),
        (example2, range(4, 14)),
        (example1, (4, 6, 9, 12)),
        (example2, (4, 6, 9, 12)),
        (lambda: dataclasses.replace(example1(), t0=0.1, T=1.3), range(4, 14)),
    ],
)
def test_a_forked_study_is_bitwise_the_serial_one(build, exponents, monkeypatch):
    serial = run_convergence_study(build(), exponents)
    forks = allow_fork(monkeypatch)
    # (4, 6, 9, 12) ends on 4 096 steps, below the fewest a study forks for
    monkeypatch.setattr(studies, "_FORK_MIN_STEPS", 2**12)
    integrated = counted_integrate(monkeypatch)
    forked = run_convergence_study(build(), exponents)
    # repr tells every bit of a float apart, the sign of zero included
    assert repr(forked) == repr(serial)
    assert len(forks) == 1
    grids = [build_grid(build().t0, build().T, 2.0**-e) for e in exponents]
    assert integrated == [grid.M for grid in grids[:-1]]  # the child ran the finest
    assert_no_child_left()


# argv: label, CSV path, then, for an interpreter that imports numpy first,
# "numpy" or "numpy-and-a-thread"
CONVERGE_PROCESS = """
import os, sys

if sys.argv[3:]:
    import numpy as np  # with OPENBLAS_NUM_THREADS=2, OpenBLAS runs a worker thread from here on
if sys.argv[3:] == ["numpy-and-a-thread"]:
    import threading

    threading.Thread(target=threading.Event().wait, daemon=True).start()

forks, fork = [], os.fork
def counted():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted

from tristep import numerics, studies
studies._runnable = lambda: 1  # as on an idle host, which a test run's may not be
from tristep.cli import main

code = main(["converge", sys.argv[1], "4..13", "--out", sys.argv[2]])
print(len(forks), file=sys.stderr)
if sys.argv[3:]:
    # OpenBLAS's own thread count, and a product big enough for its workers,
    # checked against numpy's integer product, which runs no BLAS
    a = (np.arange(256 * 256) % 7).reshape(256, 256)
    right = np.array_equal(a.astype(float) @ a.astype(float), a @ a)
    print(numerics._openblas().scipy_openblas_get_num_threads64_(), right, file=sys.stderr)
sys.exit(code)
"""


def converge_process(label, out, *numpy_first, blas_threads=None):
    """Run ``CONVERGE_PROCESS``, check its CSV's digest, and return its stderr lines."""
    from test_bitwise_fence import CONVERGENCE_CSV_DIGESTS

    env = tristep_env()
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    result = subprocess.run(
        [sys.executable, "-c", CONVERGE_PROCESS, label, str(out), *numpy_first],
        capture_output=True,
        text=True,
        env=env,
        check=False,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONVERGENCE_CSV_DIGESTS[label]
    return result.stderr.splitlines()


@pytest.mark.parametrize("label", ["example1", "example2"])
def test_a_converge_process_writes_the_pinned_csv(label, tmp_path):
    # a fresh process runs one thread, so it forks wherever the study may
    forks = 1 if MAY_FORK else 0
    assert converge_process(label, tmp_path / f"{label}.csv") == [f"{forks}"]


@pytest.mark.skipif(numerics._openblas() is None, reason="numpy bundles no OpenBLAS here")
@pytest.mark.parametrize("label", ["example1", "example2"])
@pytest.mark.parametrize("first", ["numpy", "numpy-and-a-thread"])
def test_a_converge_process_that_imported_numpy_first_writes_the_pinned_csv(
    label, first, tmp_path
):
    # the study holds OpenBLAS at one thread, its worker joined, so it forks
    # wherever the study may; with another Python thread alive it runs serially
    forks = 1 if MAY_FORK and first == "numpy" else 0
    out = tmp_path / f"{label}.csv"
    forked, blas = converge_process(label, out, first, blas_threads="2")
    threads, right = blas.split()
    assert forked == f"{forks}" and right == "True"
    if MAY_FORK:  # numpy's OpenBLAS keeps the two threads it was loaded with
        assert threads == "2"


# the parent reports its child's pid, then runs until the test stops it
TERMINATED_PROCESS = """
import os, sys

fork = os.fork
def reported():
    pid = fork()
    if pid:
        print(pid, file=sys.stderr, flush=True)
    return pid
os.fork = reported

from tristep import studies
studies._runnable = lambda: 1  # as on an idle host, which a test run's may not be
from tristep.cli import main

sys.exit(main(["converge", "example1", "4..17"]))
"""


def running(pid):
    """Whether the process ``pid`` has not ended; a zombie has."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as stat:
            return stat.read().rpartition(b")")[2].split()[0] != b"Z"
    except (FileNotFoundError, ProcessLookupError):  # gone, or reaped between open and read
        return False


@FORKS
def test_the_child_ends_with_a_parent_killed_by_a_signal():
    process = subprocess.Popen(
        [sys.executable, "-c", TERMINATED_PROCESS],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=tristep_env(),
    )
    try:
        child = int(process.stderr.readline())
        process.terminate()  # the parent ends at once, running no finally
        process.wait(timeout=60)
        # the child's grid of 2^17 steps would take it ~0.5 s more
        deadline = time.monotonic() + 0.25
        while running(child) and time.monotonic() < deadline:
            time.sleep(0.005)
        assert not running(child)
    finally:
        process.kill()
        process.wait()
        process.stderr.close()


def refuse_fork():
    raise AssertionError("the study forked")


@pytest.mark.parametrize(
    "cpus, state, runnable, exponents",
    [
        ({0}, (1, 0), 1, range(4, 14)),  # one CPU
        ({0, 1}, (2, 0), 1, range(4, 14)),  # a second thread
        ({0, 1}, None, 1, range(4, 14)),  # no thread count to read
        ({0, 1}, (1, 0), 2, range(4, 14)),  # another task busy, so no CPU idle
        ({0, 1}, (1, 0), None, range(4, 14)),  # no count of runnable tasks to read
        ({0, 1}, (1, 0), 1, range(4, 13)),  # a finest grid of 4 096 steps
        ({0, 1}, (1, 0), 1, [13]),  # one grid
    ],
    ids=[
        "one-cpu",
        "two-threads",
        "no-thread-count",
        "no-idle-cpu",
        "no-runnable-count",
        "short-finest-grid",
        "one-grid",
    ],
)
def test_the_study_runs_serially_where_it_may_not_fork(
    cpus, state, runnable, exponents, monkeypatch
):
    serial = run_convergence_study(example1(), exponents)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    monkeypatch.setattr(studies, "_threads_and_cpu", lambda: state)
    monkeypatch.setattr(studies, "_runnable", lambda: runnable)
    monkeypatch.setattr(os, "fork", refuse_fork, raising=False)
    assert repr(run_convergence_study(example1(), exponents)) == repr(serial)


@FORKS
def test_a_study_that_cannot_fork_runs_serially(monkeypatch):
    serial = run_convergence_study(example1(), range(4, 14))
    allow_fork(monkeypatch)

    def no_process():  # as under a limit on processes
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_process)
    assert repr(run_convergence_study(example1(), range(4, 14))) == repr(serial)


@FORKS
def test_a_study_with_a_called_exact_runs_serially(monkeypatch):
    # a child would call the caller's exact out of its sight: here it sees every call
    counted, times = counting(example1)
    forks = allow_fork(monkeypatch)
    run_convergence_study(counted, range(4, 14))
    assert forks == []
    assert len(times) == sum(2**e + 1 for e in range(4, 14))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
def test_the_child_runs_on_every_cpu_but_the_parents(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(studies, "_threads_and_cpu", lambda: (1, 1))
    coarse = build_grid(0.0, 1.0, 0.5)
    least = studies._FORK_MIN_STEPS
    for steps, busy, cpus in ((least, 2, {0, 2}), (least - 1, 2, None), (least, 3, None)):
        monkeypatch.setattr(studies, "_runnable", lambda: busy)
        assert studies._child_cpus([coarse, build_grid(0.0, 1.0, 1.0 / steps)]) == cpus


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_the_thread_count_and_cpu_are_this_processs():
    threads, cpu = threads_and_cpu()
    assert threads == len(os.listdir("/proc/self/task"))
    assert cpu in os.sched_getaffinity(0)


@pytest.mark.skipif(not os.path.isfile("/proc/loadavg"), reason="needs /proc/loadavg")
def test_the_runnable_count_takes_in_this_process():
    assert runnable() >= 1  # this process runs as it reads the count


def blowup(grid):
    n = 5
    return NumericalBlowupError(
        f"integration diverged during step {n} (from t={grid.time(n)!r})",
        t=grid.time(n),
        step_index=n,
    )


def blows_up_at(steps):
    def fail(grid):
        if grid.M == steps:
            raise blowup(grid)

    return fail


@FORKS
def test_a_blowup_of_the_finest_grid_in_the_child_is_the_serial_error(monkeypatch):
    finest = 2**13
    integrated = counted_integrate(monkeypatch, blows_up_at(finest))
    with pytest.raises(NumericalBlowupError) as serial:
        run_convergence_study(example1(), range(4, 14))
    forks = allow_fork(monkeypatch)
    integrated.clear()
    with pytest.raises(NumericalBlowupError) as forked:
        run_convergence_study(example1(), range(4, 14))
    assert len(forks) == 1
    assert integrated[-1] == finest  # the child failed, so the parent ran the grid
    assert str(forked.value) == str(serial.value)
    assert forked.value.step_index == serial.value.step_index == 5
    assert_no_child_left()


@FORKS
def test_a_short_write_of_the_child_is_run_again_in_the_parent(monkeypatch):
    serial = run_convergence_study(example1(), range(4, 14))
    forks = allow_fork(monkeypatch)
    real, parent = studies._norms, os.getpid()

    def norms(problem, grid, sign):
        taken = real(problem, grid, sign)
        if os.getpid() != parent:  # the child writes 16 of its 24 bytes, then exits 0
            return taken[:2]
        return taken

    monkeypatch.setattr(studies, "_norms", norms)
    assert repr(run_convergence_study(example1(), range(4, 14))) == repr(serial)
    assert len(forks) == 1
    assert_no_child_left()


@FORKS
@pytest.mark.parametrize(
    "fail",
    [blows_up_at(2**4), blows_up_at(2**12)],
    ids=["coarsest", "next-to-finest"],
)
def test_a_blowup_of_a_coarser_grid_is_the_error_reported(fail, monkeypatch):
    counted_integrate(monkeypatch, fail)
    with pytest.raises(NumericalBlowupError) as serial:
        run_convergence_study(example1(), range(4, 14))
    forks = allow_fork(monkeypatch)
    with pytest.raises(NumericalBlowupError) as forked:
        run_convergence_study(example1(), range(4, 14))
    assert len(forks) == 1
    assert str(forked.value) == str(serial.value)
    assert forked.value.step_index == serial.value.step_index
    assert_no_child_left()


def interrupted_at(steps):
    parent = os.getpid()

    def fail(grid):
        if grid.M == steps and os.getpid() == parent:
            raise KeyboardInterrupt

    return fail


@FORKS
def test_an_interrupt_of_the_parent_propagates_and_leaves_no_child(monkeypatch):
    forks = allow_fork(monkeypatch)
    counted_integrate(monkeypatch, interrupted_at(2**8))
    with pytest.raises(KeyboardInterrupt):
        run_convergence_study(example1(), range(4, 14))
    assert len(forks) == 1
    assert_no_child_left()


@FORKS
@pytest.mark.parametrize(
    "fail, code, message",
    [
        (blows_up_at(2**13), 4, "error: numerical blow-up at step 5 (t=0.000610352); aborting\n"),
        (interrupted_at(2**8), 130, "error: interrupted\n"),
    ],
    ids=["blowup", "interrupt"],
)
def test_a_forked_studys_failures_keep_their_exit_codes(fail, code, message, monkeypatch, capsys):
    forks = allow_fork(monkeypatch)
    counted_integrate(monkeypatch, fail)
    assert main(["converge", "example1", "4..13"]) == code
    assert len(forks) == 1
    assert capsys.readouterr() == ("", message)
    assert_no_child_left()


def reap_every_child(signum, frame):
    """A ``SIGCHLD`` handler such as a caller may install: it waits for every child that ended."""
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass


@contextlib.contextmanager
def sigchld(handler):
    previous = signal.signal(signal.SIGCHLD, handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, previous)


# where a forked study's process does not get its child's exit status
CHILD_STATUS_TAKEN = pytest.mark.parametrize(
    "handler",
    [signal.SIG_IGN, reap_every_child],
    ids=["sigchld-ignored", "sigchld-handler-waits"],
)


@FORKS
@CHILD_STATUS_TAKEN
def test_a_forked_study_needs_no_exit_status_of_its_child(handler, monkeypatch):
    serial = run_convergence_study(example1(), range(4, 14))
    forks = allow_fork(monkeypatch)
    integrated = counted_integrate(monkeypatch)
    with sigchld(handler):
        forked = run_convergence_study(example1(), range(4, 14))
    assert repr(forked) == repr(serial)
    assert len(forks) == 1
    assert integrated == [2**e for e in range(4, 13)]  # the child's norms were taken
    assert_no_child_left()


@FORKS
@pytest.mark.parametrize(
    "handler, finest",
    [
        (signal.SIG_IGN, 5),
        (reap_every_child, 5),
        # a grid of 2**16 steps, whose child ends before the parent reads its norms
        (signal.SIG_IGN, 16),
        (reap_every_child, 16),
    ],
    ids=[
        "sigchld-ignored",
        "sigchld-handler-waits",
        "sigchld-ignored-finest-2^16",
        "sigchld-handler-waits-finest-2^16",
    ],
)
def test_a_child_that_ended_and_was_reaped_is_not_killed(handler, finest, monkeypatch):
    # the thread count the study's gate reads inside its one_blas_thread: one, with
    # OpenBLAS's workers joined, so the child ends as a converge process's does
    with numerics.one_blas_thread():
        assert threads_and_cpu()[0] == 1
    forks = allow_fork(monkeypatch)
    # down to a finest grid of 32 steps, whose child ends at once
    monkeypatch.setattr(studies, "_FORK_MIN_STEPS", 2**5)
    parent = os.getpid()

    def fail(grid):  # the parent blows up once its child has ended
        if os.getpid() == parent:
            deadline = time.monotonic() + 10.0
            while running(forks[0]) and time.monotonic() < deadline:
                time.sleep(0.001)
            raise blowup(grid)

    counted_integrate(monkeypatch, fail)
    kills = []
    monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append(pid))
    with sigchld(handler), pytest.raises(NumericalBlowupError):
        run_convergence_study(example1(), (4, finest))
    assert len(forks) == 1
    assert kills == []  # its pid may be another process's by now
    assert_no_child_left()


# ------------------------------------------------------- per-point row maxima

# every kind of float: signed zeros, infinities, subnormals and NaN
FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 1e-310, 1.0, -1.0]
)


def tail_maxima(exact, computed):
    """The kernel's maxima of one step of a constant field from ``computed`` against ``exact``.

    The step leaves each component as it is, -0.0 to 0.0 aside.  The same
    row is taken with ``exact`` inlined, as constants of the solution text,
    and called; both must give the same bits.
    """
    dim, grid = len(exact), TimeGrid(0.0, 1.0, 1)
    names = {f"v{j}": value for j, value in enumerate(exact, 1)}
    field = RhsField.from_source(
        dim, "\n".join(f"f{j} = 0.0" for j in range(1, dim + 1)), constants=names
    )
    inlined = field.solution("\n".join(f"y{j} = v{j}" for j in range(1, dim + 1)))
    runs = [
        integrate(field, computed, grid, every=None, exact=solution).maxima
        for solution in (inlined, lambda t: exact)
    ]
    got = [[m[0] for m in run] for run in runs]
    assert repr(got[0]) == repr(got[1])
    return got[0]


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(
    st.integers(1, 5).flatmap(
        lambda dim: st.tuples(
            st.lists(FLOATS, min_size=dim, max_size=dim),
            # a computed state is finite, or the step has blown up
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim),
        )
    )
)
def test_row_maxima_are_numpys(case):
    exact, computed = (np.array(row, dtype=np.float64) for row in case)
    with np.errstate(all="ignore"):  # inf - inf, and differences that overflow
        error = exact - computed
    expected = [float(np.abs(a).max()) for a in (exact, computed, error)]
    # repr tells every bit of a float apart, but not one NaN from another
    assert repr(tail_maxima(*case)) == repr(expected)


@pytest.mark.parametrize("position", range(3))
def test_a_nan_in_any_position_makes_its_rows_maxima_nan(position):
    row = [1.0, -2.0, math.inf]
    row[position] = math.nan
    exact_max, computed_max, error_max = tail_maxima(row, [-0.0, 0.5, -3.0])
    assert math.isnan(exact_max) and math.isnan(error_max)
    assert repr(computed_max) == "3.0"
    # -0.0 counts as 0.0 in every maximum
    assert repr(tail_maxima([-0.0, -0.0, -0.0], [-0.0, -0.0, -0.0])) == "[0.0, 0.0, 0.0]"


# --------------------------------------------------------------- era summary


def test_era_summary_of_constant_trajectory():
    grid = build_grid(1986.0, 2002.0, 0.1)
    values = np.array([2.4e6, 3.2e6, 6.4e6, 2.4e6, 1.6e6])
    rows = era_summary(
        constant_trajectory(grid, values),
        (1986.0, 1990.0, 1994.0, 1998.0, 2002.0),
        1.6e7,
    )
    assert [row.compartment for row in rows] == ["y1", "y2", "y3", "y4", "y5"]
    assert all(len(row.era_averages) == 4 for row in rows)
    for i, row in enumerate(rows):
        for average in row.era_averages:
            assert average == pytest.approx(values[i], rel=1e-15)
        assert row.overall_average == pytest.approx(values[i], rel=1e-15)
        assert row.share_percent == pytest.approx(values[i] / 1.6e7 * 100.0, rel=1e-12)
    share_total = sum(row.share_percent for row in rows)
    assert share_total == pytest.approx(100.0, abs=1e-9)


def test_era_summary_matches_sample_mean_oracle_on_a_ramp():
    grid = build_grid(0.0, 2.0, 0.25)
    states = np.outer(grid.times(), np.array([1.0, 2.0]))
    traj = Trajectory(grid=grid, values=array("d", states.tobytes()))
    rows = era_summary(traj, (0.0, 1.0, 2.0), 10.0)
    # era 1 holds t in {0, .25, .5, .75}; era 2 holds t in {1, ..., 2}
    assert rows[0].era_averages == pytest.approx((0.375, 1.5), rel=1e-15)
    assert rows[1].era_averages == pytest.approx((0.75, 3.0), rel=1e-15)
    assert rows[0].overall_average == pytest.approx(1.0, rel=1e-15)
    assert rows[0].share_percent == pytest.approx(10.0, rel=1e-13)
    # shares add up to (mean total population) / N * 100
    share_total = sum(row.share_percent for row in rows)
    mean_total = float(states.sum(axis=1).mean())
    assert share_total == pytest.approx(mean_total / 10.0 * 100.0, rel=1e-13)


def test_era_summary_rejects_a_decimated_trajectory():
    run, _ = run_scenario(preset("cameroon-1960"), every=2)
    with pytest.raises(ValueError, match="all M \\+ 1 states"):
        era_summary(run, preset("cameroon-1960").era_boundaries, 1.0)


def test_era_summary_rejects_mismatched_boundaries():
    grid = build_grid(0.0, 2.0, 0.25)
    traj = constant_trajectory(grid, np.ones(5))
    with pytest.raises(ValueError):
        era_summary(traj, (0.0, 1.0), 10.0)  # stops short of T
    with pytest.raises(ValueError):
        era_summary(traj, (0.5, 2.0), 10.0)  # starts after t0
    with pytest.raises(ValueError):
        era_summary(traj, (0.0, 2.0, 1.0), 10.0)  # not increasing
    with pytest.raises(ValueError):
        era_summary(traj, (0.0, 2.0), -1.0)  # bad population


def test_reference_table_shape_is_reproduced_for_1960():
    # the reference values themselves are not reachable (see module comment),
    # but the emitted table must carry the same rows and era columns
    scenario = preset("cameroon-1960")
    grid = build_grid(scenario.t0, scenario.T, 1.0)
    rows = era_summary(
        constant_trajectory(grid, scenario.y0),
        scenario.era_boundaries,
        scenario.params.N,
    )
    assert [row.compartment for row in rows] == list(REFERENCE_ERA_TABLE_1960)
    for row in rows:
        assert len(row.era_averages) == len(REFERENCE_ERA_TABLE_1960[row.compartment])


# -------------------------------------------------------------- run_scenario


def test_balanced_scenario_freezes_y1_and_y5():
    trajectory, rows = run_scenario(balanced_preset())
    y1 = trajectory.states[:, 0]
    y5 = trajectory.states[:, 4]
    assert np.max(np.abs(y1 - 1e6)) <= 1e-6 * 1e6
    assert np.max(np.abs(y5)) <= 1e-6 * 1e6
    assert len(rows) == 5
    assert all(len(row.era_averages) == 2 for row in rows)


def test_run_scenario_steps_the_presets_grid():
    scenario = dataclasses.replace(preset("cameroon-1986"), k=2e-3)
    trajectory, rows = run_scenario(scenario)
    assert trajectory.grid == build_grid(1986.0, 2002.0, 2e-3)
    assert trajectory.grid.M == 8000
    assert len(trajectory.values) == 5 * 8001
    assert all(len(row.era_averages) == 4 for row in rows)


def test_scenario_is_bitwise_deterministic():
    first_traj, first_rows = run_scenario(balanced_preset())
    second_traj, second_rows = run_scenario(balanced_preset())
    assert np.array_equal(first_traj.states, second_traj.states)
    assert first_rows == second_rows


def test_scenario_era_averages_are_step_size_robust():
    scenario = preset("cameroon-1986")
    _, rows = run_scenario(scenario)
    halved = EraPreset(
        label=scenario.label,
        params=scenario.params,
        y0=scenario.y0,
        t0=scenario.t0,
        T=scenario.T,
        k=scenario.k / 2.0,
        era_boundaries=scenario.era_boundaries,
        alpha_warning=scenario.alpha_warning,
    )
    _, halved_rows = run_scenario(halved)
    for row, other in zip(rows, halved_rows):
        for a, b in zip(row.era_averages, other.era_averages):
            assert abs(a - b) <= 1e-3 * max(abs(a), abs(b))


@pytest.mark.parametrize("label", ["cameroon-1960", "cameroon-1986", "cameroon-2002"])
def test_a_streamed_scenario_is_bitwise_the_stored_one(label):
    # the eras and the kept rows cross the kernel's blocks of BLOCK_ROWS steps
    scenario = preset(label)
    trajectory, rows = run_scenario(scenario)
    states = trajectory.states
    expected = era_summary(trajectory, scenario.era_boundaries, scenario.params.N)
    assert repr(rows) == repr(expected)  # repr tells -0.0 from 0.0
    assert trajectory.negativity_flag is bool((states < 0.0).any())
    M = scenario.grid.M
    for every in (7, 1000, M, M + 1, None):
        run, decimated_rows = run_scenario(scenario, every=every)
        assert repr(decimated_rows) == repr(rows)
        assert run.values.tobytes() == states[trajectory_row_indices(M, every)].tobytes()
        assert run.negativity_flag is trajectory.negativity_flag


@pytest.mark.parametrize("label", ["cameroon-1960", "cameroon-1986", "cameroon-2002"])
def test_a_streamed_blowup_carries_the_kept_rows_of_the_stored_one(label):
    scenario = preset(label)
    with pytest.raises(NumericalBlowupError) as whole:
        run_scenario(scenario, SignConvention.MINUS)
    n = whole.value.step_index
    states = np.frombuffer(whole.value.partial_states).reshape(n + 1, 5)
    for every in (7, 1000, n, n + 1, None):
        with pytest.raises(NumericalBlowupError) as decimated:
            run_scenario(scenario, SignConvention.MINUS, every=every)
        err = decimated.value
        assert (err.step_index, err.t, err.last_state) == (
            n,
            whole.value.t,
            whole.value.last_state,
        )
        kept = trajectory_row_indices(n, every)
        assert err.partial_states.tobytes() == states[kept].tobytes()


def test_convergence_and_summary_rows_are_named_tuples():
    row = ConvergenceRow(k=0.5, exact_norm=1.0, numeric_norm=2.0, error_norm=0.25)
    assert (row.k, row.exact_norm, row.numeric_norm, row.error_norm, row.rate) == (
        0.5, 1.0, 2.0, 0.25, None
    )
    assert repr(row) == (
        "ConvergenceRow(k=0.5, exact_norm=1.0, numeric_norm=2.0, error_norm=0.25, rate=None)"
    )
    assert row == (0.5, 1.0, 2.0, 0.25, None) and row._replace(rate=2.0).rate == 2.0
    summary = EraSummaryRow("y1", (1.0, 2.0), 1.5, 25.0)
    assert summary.compartment == "y1" and summary.era_averages == (1.0, 2.0)
    assert summary.overall_average == 1.5 and summary.share_percent == 25.0
    assert repr(summary) == (
        "EraSummaryRow(compartment='y1', era_averages=(1.0, 2.0), "
        "overall_average=1.5, share_percent=25.0)"
    )
    with pytest.raises(AttributeError):
        summary.share_percent = 1.0
