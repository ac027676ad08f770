"""Where the reference column of criteria 1 and 2 comes from.

The error magnitudes the acceptance criteria compare against are those of
plain Heun, one two-stage substep per step, taken at twice the nominal
step size: H = 2k on [0, 1], measured with the study's own norm, the
discrete L2-in-time norm over grid points 1..M of max |exact - computed|.
The scheme's three substeps of length k/3 have a leading error term
(2k)**2 / (k/3)**2 = 36 times smaller, so its own norms sit about 36x below
the column, which is why the criteria's error clauses stay red.
"""

from __future__ import annotations

import pytest

from tristep import build_grid, example1, example2, heun_substep, run_convergence_study
from tristep.numerics import discrete_l2_time_norm

from test_acceptance import REFERENCE_ERROR_EXAMPLE2_FINEST, REFERENCE_ERRORS_EXAMPLE1

#: (problem, exponent e of k = 2**-e, reference error norm at that k)
CASES = [
    *((example1, e, reference) for e, reference in zip(range(4, 9), REFERENCE_ERRORS_EXAMPLE1)),
    (example2, 8, REFERENCE_ERROR_EXAMPLE2_FINEST),
]


def heun_at_twice_the_step(problem, e):
    """The study's error norm of plain Heun with step H = 2 * 2**-e."""
    grid = build_grid(problem.t0, problem.T, 2.0 * 2.0**-e)
    y, errors = problem.y0, []
    for n in range(grid.M):
        y = heun_substep(problem.field, grid.time(n), y, grid.k)
        exact = problem.exact(grid.time(n + 1))
        errors.append(max(abs(x - v) for x, v in zip(exact, y)))
    return discrete_l2_time_norm(errors, grid.k)


@pytest.mark.parametrize(
    "build, e, reference", CASES, ids=[f"{b.__name__}-e{e}" for b, e, _ in CASES]
)
def test_heun_at_twice_the_step_lies_within_the_criteria_band_of_the_column(build, e, reference):
    assert 0.5 <= heun_at_twice_the_step(build(), e) / reference <= 2.0


@pytest.mark.parametrize("build", [example1, example2])
def test_heun_at_twice_the_step_is_36_times_the_scheme_at_the_finest_grid(build):
    problem = build()
    (row,) = run_convergence_study(problem, [8])
    assert heun_at_twice_the_step(problem, 8) / row.error_norm == pytest.approx(36.0, rel=0.02)
