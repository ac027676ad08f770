"""Norms, grids and convergence-rate arithmetic."""

from __future__ import annotations

import copy
import math
import os
import pickle
import random
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

from tristep import (
    TimeGrid,
    Trajectory,
    build_grid,
    convergence_rate,
    discrete_l2_time_norm,
    era_starts,
    example1,
    sup_norm,
)
from tristep import numerics, run_convergence_study
from tristep.numerics import kept_count, trajectory_row_indices

SRC = Path(numerics.__file__).resolve().parent.parent


def test_sup_norm_zero_vector():
    assert sup_norm(np.zeros(5)) == 0.0


def test_sup_norm_mixed_signs():
    assert sup_norm([1.0, -2.0, 3.0, -4.0, 5.0]) == 5.0


def test_sup_norm_matches_elementwise_scan():
    rng = np.random.default_rng(42)
    for _ in range(100):
        y = rng.uniform(-10.0, 10.0, size=5)
        expected = 0.0
        for v in y:  # brute-force scan oracle
            expected = max(expected, abs(float(v)))
        assert sup_norm(y) == expected


def test_sup_norm_rejects_empty_vector():
    with pytest.raises(ValueError):
        sup_norm([])


def test_sup_norm_zero_only_for_zero_vector():
    rng = np.random.default_rng(11)
    for _ in range(50):
        y = rng.normal(size=5)
        if np.any(y != 0.0):
            assert sup_norm(y) > 0.0


def test_sup_norm_absolute_homogeneity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        y = rng.normal(size=5)
        a = float(rng.normal())
        assert sup_norm(a * y) == abs(a) * sup_norm(y)


def test_sup_norm_triangle_inequality():
    rng = np.random.default_rng(8)
    for _ in range(200):
        y = rng.normal(size=5)
        z = rng.normal(size=5)
        bound = sup_norm(y) + sup_norm(z)
        assert sup_norm(y + z) <= bound * (1.0 + 1e-15) + 1e-300


def test_l2_constant_sequence():
    # constant v over M steps with k*M = T - t0 aggregates to v*sqrt(T - t0)
    steps, span, v = 40, 2.5, 0.7
    k = span / steps
    assert discrete_l2_time_norm([v] * steps, k) == pytest.approx(
        v * math.sqrt(span), rel=1e-13
    )


def test_l2_single_step():
    assert discrete_l2_time_norm([3.0], 0.25) == pytest.approx(1.5, abs=1e-15)


def test_l2_of_exact_solution_matches_reference_table():
    prob = example1()
    k = 2.0**-4
    sup_values = [sup_norm(prob.exact(n * k)) for n in range(1, 17)]
    value = discrete_l2_time_norm(sup_values, k)
    # reference table prints 1.8235e-1 at five significant digits
    assert value == pytest.approx(0.18235, abs=5e-4)
    # sequential-sum oracle for the same aggregate
    assert value == pytest.approx(
        math.sqrt(k * sum(s * s for s in sup_values)), rel=1e-14
    )


def test_l2_monotone_in_each_entry():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.1, 1.0, size=20)
    base = discrete_l2_time_norm(values, 0.05)
    for i in range(values.size):
        bumped = values.copy()
        bumped[i] *= 1.5
        assert discrete_l2_time_norm(bumped, 0.05) >= base


def test_l2_rejects_empty_sequence_and_bad_step():
    with pytest.raises(ValueError):
        discrete_l2_time_norm([], 0.1)
    with pytest.raises(ValueError):
        discrete_l2_time_norm([1.0], 0.0)
    with pytest.raises(ValueError):
        discrete_l2_time_norm([1.0], -0.5)


# The library is loaded before numpy is imported, as in a converge process; numpy's
# import then finds it loaded and calls the same function.  tristep loads it as
# numpy's import would, so it runs the thread count the environment asks for, up
# to the CPUs this process may run on.  The norm and a ddot inside
# one_blas_thread run on one thread and leave the library's thread count as it
# was, so they are np.dot on one thread, whatever count the library runs.
DDOT_IS_NP_DOT = r"""
import math
import os
import random
from array import array

from tristep import numerics

library = numerics._openblas()
import numpy as np

threads = library.scipy_openblas_get_num_threads64_
set_threads = library.scipy_openblas_set_num_threads64_
assert threads() == min(int(os.environ["OPENBLAS_NUM_THREADS"]), len(os.sched_getaffinity(0)))
set_threads(int(os.environ["OPENBLAS_NUM_THREADS"]))
loaded = threads()
rng = random.Random(20)
lengths = [1, 2, 3, 10_000, 10_001, 20_000, *(rng.randint(1, 20_000) for _ in range(60))]
differ = []
for n in lengths:
    # magnitudes over 16 decades, so that the order of the additions shows in the bits
    v = array("d", (rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-8.0, 8.0) for _ in range(n)))
    w = np.frombuffer(v, dtype=np.float64)
    address = v.buffer_info()[0]
    set_threads(1)
    expected = float(np.dot(w, w))
    set_threads(loaded)
    with numerics.one_blas_thread():
        got = library.scipy_cblas_ddot64_(n, address, 1, address, 1)
    norm = numerics.discrete_l2_time_norm(v.tolist(), 0.125)
    if repr(got) != repr(expected) or repr(norm) != repr(math.sqrt(0.125 * expected)):
        differ.append(n)
    if threads() != loaded:
        differ.append(("threads", n, threads()))
print(library._name, differ)
"""


@pytest.mark.skipif(numerics._openblas() is None, reason="numpy bundles no OpenBLAS here")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_the_bound_ddot_is_np_dot_bitwise_at_any_length(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", DDOT_IS_NP_DOT],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    path, differ = result.stdout.split(maxsplit=1)
    assert os.path.basename(path).startswith("libscipy_openblas64_")
    assert differ.strip() == "[]"


# A norm taken outside a study, with the library on two threads and a second
# Python thread alive, which may be inside a BLAS call: the norm sets the count to
# one for its sum, without joining the workers, and back to two after.
NORM_BESIDE_A_THREAD = r"""
import math
import random
import threading
from array import array

from tristep import numerics

import numpy as np

library = numerics._openblas()
threads = library.scipy_openblas_get_num_threads64_
set_threads = library.scipy_openblas_set_num_threads64_
set_threads(2)
loaded = threads()
alive = threading.Event()
other = threading.Thread(target=alive.wait)
other.start()
differ = []
for seed in range(4):
    rng = random.Random(seed)
    v = array("d", (rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-8.0, 8.0) for _ in range(20_000)))
    w = np.frombuffer(v, dtype=np.float64)
    set_threads(1)
    expected = math.sqrt(0.5 * float(np.dot(w, w)))
    set_threads(loaded)
    if repr(numerics.discrete_l2_time_norm(v, 0.5)) != repr(expected) or threads() != loaded:
        differ.append((seed, threads()))
alive.set()
other.join()
print(loaded, differ)
"""


@pytest.mark.skipif(numerics._openblas() is None, reason="numpy bundles no OpenBLAS here")
def test_a_norm_beside_another_python_thread_sums_on_one_blas_thread():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", NORM_BESIDE_A_THREAD],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split(maxsplit=1) == ["2", "[]\n"]


def _in_order_norm(values, k):
    total = 0.0
    for value in values:
        total += value * value
    return math.sqrt(k * total)


def test_without_the_library_the_norm_adds_the_squares_in_order(monkeypatch):
    monkeypatch.setattr(numerics, "_openblas", lambda: None)
    rng = random.Random(5)
    vectors = [
        [rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-8.0, 8.0) for _ in range(n)]
        for n in (1, 2, 3, 17, 1000, 10_001)
    ]
    vectors += [
        np.linspace(0.0, 1.0, 33),
        [1.0, math.nan, 2.0],
        [1e200, 1e200, 1.0],  # the squares' sum overflows to inf
        [-0.0],
        [-0.0, 0.0, -0.0],
        array("d", [3.0, -4.0]),
    ]
    for v in vectors:
        assert repr(discrete_l2_time_norm(v, 0.25)) == repr(_in_order_norm(v, 0.25))
    assert discrete_l2_time_norm([1e200, 1e200], 0.25) == math.inf
    assert math.isnan(discrete_l2_time_norm([math.nan], 0.25))
    with pytest.raises(ValueError, match="empty"):
        discrete_l2_time_norm([], 0.1)


def test_rate_of_reference_error_pair():
    assert convergence_rate(1.3296e-4, 3.3238e-5) == pytest.approx(2.0001, abs=5e-4)


def test_rate_of_equal_errors_is_zero():
    assert convergence_rate(0.37, 0.37) == 0.0


def test_rate_of_exact_quartering_is_two():
    assert convergence_rate(4.0 * 0.3, 0.3) == pytest.approx(2.0, abs=1e-12)


def test_rate_chain_additivity():
    rng = np.random.default_rng(19)
    for _ in range(200):
        a, b, c = np.exp(rng.uniform(-8.0, 2.0, size=3))
        lhs = convergence_rate(a, b) + convergence_rate(b, c)
        assert lhs == pytest.approx(convergence_rate(a, c), abs=1e-12)


def test_rate_rejects_nonpositive_errors():
    with pytest.raises(ValueError):
        convergence_rate(0.0, 1.0)
    with pytest.raises(ValueError):
        convergence_rate(1.0, -2.0)


def test_build_grid_exact_dyadic_division():
    grid = build_grid(0.0, 1.0, 2.0**-4)
    assert grid.M == 16
    assert grid.k == 0.0625
    assert grid.time(grid.M) == 1.0


def test_build_grid_calendar_scenario():
    grid = build_grid(1960.0, 1986.0, 1e-3)
    assert grid.M == 26000
    assert grid.k == 1e-3
    assert grid.time(grid.M) == 1986.0


def test_build_grid_rounds_step_count():
    grid = build_grid(0.0, 1.0, 0.3)
    assert grid.M == 3
    assert grid.k == pytest.approx(1.0 / 3.0, rel=1e-16)


def test_build_grid_clamps_to_one_step():
    grid = build_grid(0.0, 1.0, 5.0)
    assert grid.M == 1
    assert grid.k == 1.0


def test_build_grid_rejects_bad_spans():
    with pytest.raises(ValueError):
        build_grid(1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_grid(2.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="too small"):
        build_grid(1960.0, 1986.0, 5e-324)
    for k_request in (-0.1, -math.inf, math.nan):
        with pytest.raises(ValueError) as excinfo:
            build_grid(0.0, 1.0, k_request)
        assert str(excinfo.value) == "build_grid requires a positive step request"


def test_grid_lands_on_horizon():
    # measured worst case over wide sampling is two ulps of T; the operative
    # grids (dyadic spans, calendar presets) land exactly
    rng = np.random.default_rng(123)
    for _ in range(2000):
        t0 = float(rng.uniform(0.0, 2100.0))
        span = float(10.0 ** rng.uniform(-3.0, 3.0))
        k_request = span * float(10.0 ** rng.uniform(-6.0, -0.3))
        grid = build_grid(t0, t0 + span, k_request)
        assert abs(grid.time(grid.M) - grid.T) <= 2.0 * math.ulp(grid.T)


def test_grid_times_match_pointwise_formula():
    grid = build_grid(1986.0, 2002.0, 0.25)
    times = grid.times()
    assert times.shape == (grid.M + 1,)
    for n in range(0, grid.M + 1, 7):
        assert times[n] == grid.time(n)


def test_time_grid_rejects_inconsistent_step():
    with pytest.raises(ValueError, match="^time grid requires at least one step$"):
        TimeGrid(t0=0.0, T=1.0, M=0)
    with pytest.raises(ValueError, match="^time grid requires T > t0$"):
        TimeGrid(t0=1.0, T=1.0, M=4)
    with pytest.raises(ValueError, match="^time grid requires T > t0$"):
        TimeGrid(t0=0.0, T=math.nan, M=4)
    with pytest.raises(ValueError, match=r"^time grid requires an integer step count, got 2\.5$"):
        TimeGrid(t0=0.0, T=1.0, M=2.5)
    message = "^time grid requires a step count within the float range$"
    with pytest.raises(ValueError, match=message):
        TimeGrid(t0=0.0, T=1.0, M=10**400)
    # an infinite end, and a span past the largest float, give k = inf;
    # 5e-324 / 2 rounds to zero
    for t0, T, M, k in [
        (0.0, math.inf, 10, "inf"),
        (-math.inf, 0.0, 10, "inf"),
        (-math.inf, math.inf, 10, "inf"),
        (-1e308, 1e308, 1, "inf"),
        (0.0, 5e-324, 2, "0.0"),
    ]:
        message = f"^time grid requires a positive finite step, got k={k}$"
        with pytest.raises(ValueError, match=message):
            TimeGrid(t0=t0, T=T, M=M)


@pytest.mark.parametrize(
    "t0, T, k_request",
    [(0.0, 1.0, 0.3), (1960.0, 1986.0, 1e-3), (0.1, 0.7, 0.01), (-3.5, 2e3, 0.07)],
)
def test_time_grid_derives_build_grids_step(t0, T, k_request):
    built = build_grid(t0, T, k_request)
    grid = TimeGrid(t0, T, built.M)
    assert grid.k.hex() == built.k.hex() == ((T - t0) / built.M).hex()
    assert grid == built
    with pytest.raises(TypeError):
        TimeGrid(t0=t0, T=T, M=built.M, k=built.k)  # the step is derived, never passed


@pytest.mark.parametrize(
    "boundaries",
    [(1.0, 0.0), (), (0.5,), (0.0, math.nan, 1.0)],
    ids=["decreasing", "none", "one", "nan"],
)
def test_era_starts_rejects_boundaries_that_do_not_increase(boundaries):
    grid = build_grid(0.0, 1.0, 0.25)
    with pytest.raises(ValueError, match="strictly increasing, two or more"):
        era_starts(grid, boundaries)


def test_a_time_grid_is_a_read_only_hashable_value():
    grid = TimeGrid(0.0, 1.0, 4)
    assert grid.k == 0.25
    assert repr(grid) == "TimeGrid(t0=0.0, T=1.0, M=4, k=0.25)"
    same = TimeGrid(t0=0.0, T=1.0, M=4)
    assert grid == same and hash(grid) == hash(same) and len({grid, same}) == 1
    assert grid != TimeGrid(0.0, 1.0, 5) and grid != TimeGrid(0.0, 2.0, 4)
    assert grid != (0.0, 1.0, 4, 0.25)
    assert pickle.loads(pickle.dumps(grid)) == copy.copy(grid) == grid
    for name in ("t0", "T", "M", "k"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(grid, name, 2)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(grid, name)
    with pytest.raises(AttributeError):
        grid.other = 1


def test_a_trajectory_is_read_only_and_equal_only_to_itself():
    grid = build_grid(0.0, 1.0, 0.5)
    traj = Trajectory(grid, array("d", [1.0, 2.0, 3.0]), overall_sums=(6.0,))
    assert repr(traj) == (
        "Trajectory(grid=TimeGrid(t0=0.0, T=1.0, M=2, k=0.5), "
        "values=array('d', [1.0, 2.0, 3.0]), every=1, era_sums=None, "
        "overall_sums=(6.0,), negativity_flag=None, maxima=None)"
    )
    twin = Trajectory(grid, array("d", [1.0, 2.0, 3.0]), overall_sums=(6.0,))
    assert traj == traj and traj != twin and len({traj, twin}) == 2
    with pytest.raises(AttributeError, match="cannot assign to field 'values'"):
        traj.values = array("d")
    restored = pickle.loads(pickle.dumps(traj))
    assert restored.grid == grid and restored.values == traj.values
    assert restored.overall_sums == (6.0,)


def test_trajectory_requires_full_sample_count():
    grid = build_grid(0.0, 1.0, 0.25)
    with pytest.raises(ValueError):
        Trajectory(grid=grid, values=array("d", [0.0]) * 6)
    traj = Trajectory(grid=grid, values=array("d", [0.0]) * 10)
    assert traj.dim == 2
    assert traj.era_sums is traj.overall_sums is traj.negativity_flag is None


def test_a_decimated_trajectory_holds_its_kept_rows():
    grid = build_grid(0.0, 1.0, 0.2)  # M = 5, rows 0, 2, 4 and 5 kept at every 2
    assert trajectory_row_indices(grid.M, 2) == [0, 2, 4, 5]
    assert Trajectory(grid, array("d", range(8)), every=2).states.tolist() == [
        [0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]
    ]
    with pytest.raises(ValueError, match="exactly 4 state samples"):
        Trajectory(grid, array("d", range(10)), every=2)
    kept_none = Trajectory(grid, array("d"), every=None, overall_sums=(1.0, 2.0))
    assert kept_none.dim == 2 and kept_none.states.shape == (0, 2)
    with pytest.raises(ValueError, match="exactly 0 state samples"):
        Trajectory(grid, array("d"), every=None)
    for every in (0, -1, 2.0):
        with pytest.raises(ValueError, match="every must be None or a positive int"):
            Trajectory(grid, array("d", range(12)), every=every)


def test_kept_count_is_the_number_of_kept_rows():
    for last in range(30):
        for every in (*range(1, 9), last + 1, None):
            assert kept_count(last, every) == len(trajectory_row_indices(last, every))
