"""Closed-form verification problems and their consistency with the fields."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tristep import (
    NumericalBlowupError,
    RhsField,
    TimeGrid,
    build_grid,
    example1,
    example2,
    integrate,
    problem,
    scheme,
    sup_norm,
)

# seeded, so that every run of the suite draws the same examples
PROPERTY = settings(deadline=None, derandomize=True, database=None)

#: The fields' texts as first written, each repeated subexpression spelled
#: out where it is used; the built-in texts name each one once.
ORIGINAL_RATES = {
    "example1": """
    e1 = exp(-t)
    q = t * t - t
    qq = q * q * exp(-2.0 * t)
    g1 = t * t + t - 1.0
    g2 = qq - (t * t - 3.0 * t + 1.0) * e1 - t * t + t
    g3 = -qq + (t - 1.0) * cos(t) + sin(t)
    f1 = -y1 + g1
    f2 = y1 - y2 * y2 + g2
    f3 = y2 * y2 + g3
    """,
    "example2": """
    e1 = exp(-t)
    s = sin(t)
    w = t * (t - 1.0) ** 2 * e1 * s
    q = t * t - t
    g1 = t * t + t - 1.0 - w
    g2 = t - t * t - (t * t - 3.0 * t + 1.0) * e1 + w
    g3 = -(q * q) * exp(-2.0 * t) + (t - 1.0) * cos(t) + s
    y23 = y2 * y3
    f1 = -y1 + y23 + g1
    f2 = y1 - y23 + g2
    f3 = y2 * y2 + g3
    """,
}

_MATH = {"exp": math.exp, "cos": math.cos, "sin": math.sin}


def original_solution(t: float) -> tuple[float, float, float]:
    """The problems' exact solution as first written, a Python function of its own."""
    q = t * t - t
    return (q, q * math.exp(-t), (t - 1.0) * math.sin(t))


def original_field(label: str) -> RhsField:
    return RhsField.from_source(3, ORIGINAL_RATES[label], constants=_MATH)


def bits(values) -> bytes:
    values = list(values)
    return struct.pack(f"{len(values)}d", *values)


def central_difference(exact, t, h=1e-6):
    return (np.asarray(exact(t + h)) - np.asarray(exact(t - h))) / (2.0 * h)


@pytest.mark.parametrize("build", [example1, example2])
def test_exact_solution_starts_at_zero(build):
    prob = build()
    assert np.array_equal(prob.exact(0.0), np.zeros(3))
    assert np.array_equal(prob.y0, np.zeros(3))
    assert type(prob.y0) is tuple and prob.y0 == tuple(prob.exact(0.0))


def test_exact_solution_vanishes_at_one():
    # every factor t**2 - t and t - 1 vanishes at t = 1
    np.testing.assert_allclose(example1().exact(1.0), np.zeros(3), atol=1e-16)


def test_exact_solution_midpoint_values():
    y = example1().exact(0.5)
    assert y[0] == pytest.approx(-0.25, abs=1e-16)
    assert y[1] == pytest.approx(-0.25 * math.exp(-0.5), rel=1e-15)
    assert y[2] == pytest.approx(-0.5 * math.sin(0.5), rel=1e-15)


@pytest.mark.parametrize("build", [example1, example2])
def test_residual_vanishes_on_unit_interval(build):
    # primary guard against transcription slips in the forcing terms
    prob = build()
    for t in np.linspace(0.0, 1.0, 101):
        t = float(t)
        residual = central_difference(prob.exact, t) - prob.field.evaluate(
            t, prob.exact(t)
        )
        assert sup_norm(residual) <= 1e-8


def test_residual_at_interior_points_is_tiny():
    prob = example2()
    for t in np.arange(0.1, 0.95, 0.1):
        t = float(t)
        residual = central_difference(prob.exact, t) - prob.field.evaluate(
            t, prob.exact(t)
        )
        assert sup_norm(residual) <= 1e-10


def test_fields_differ_at_a_generic_point():
    t = 0.37
    y = np.array([0.2, -0.4, 0.6])
    f1 = example1().field.evaluate(t, y)
    f2 = example2().field.evaluate(t, y)
    assert not np.array_equal(f1, f2)


@pytest.mark.parametrize("build", [example1, example2])
def test_exact_solution_is_finite_and_smooth(build):
    prob = build()
    values = np.array([prob.exact(float(t)) for t in np.linspace(0.0, 1.0, 101)])
    assert np.isfinite(values).all()
    assert np.max(np.abs(values)) < 1.0


@pytest.mark.parametrize("build", [example1, example2])
def test_field_dimension_is_three(build):
    prob = build()
    assert prob.field.dim == 3
    assert prob.t0 == 0.0
    assert prob.T == 1.0


def test_problem_registry_lookup():
    assert problem("example1").label == "example1"
    assert problem("example2").label == "example2"
    with pytest.raises(ValueError):
        problem("example3")


@settings(PROPERTY, max_examples=300)
@given(
    st.sampled_from(sorted(ORIGINAL_RATES)),
    st.floats(-2.0, 2.0) | st.floats(-100.0, 100.0),
    st.tuples(*[st.floats(-10.0, 10.0) | st.floats(allow_nan=False, allow_infinity=False)] * 3),
)
def test_field_text_is_bitwise_its_original(label, t, y):
    # times and states near the solution's scale, where rounding differs
    # most often, and any finite state: overflow to inf or nan is compared
    # bit for bit too
    rewritten = problem(label).field.evaluate.components(t, y)
    assert bits(rewritten) == bits(original_field(label).evaluate.components(t, y))


@PROPERTY
@given(
    st.sampled_from(sorted(ORIGINAL_RATES)),
    st.floats(-2.0, 2.0),
    st.integers(1, 40),
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
)
def test_integrate_on_the_field_text_is_bitwise_its_original(label, t0, M, y0):
    grid = TimeGrid(t0=t0, T=t0 + 1.0, M=M)
    runs = []
    for field in (problem(label).field, original_field(label)):
        try:
            runs.append(bits(integrate(field, y0, grid).values))
        except NumericalBlowupError as err:
            runs.append((err.step_index, err.t, bits(err.partial_states)))
    assert runs[0] == runs[1]


@settings(PROPERTY, max_examples=300)
@given(st.sampled_from(sorted(ORIGINAL_RATES)), st.floats(-2.0, 2.0) | st.floats(-100.0, 100.0))
def test_solution_text_is_bitwise_its_original(label, t):
    assert bits(problem(label).exact(t)) == bits(original_solution(t))


@pytest.mark.parametrize(
    "label, terms", [("example1", ["tt", "e1", "q"]), ("example2", ["tt", "tm", "e1", "s", "q"])]
)
def test_the_solution_computes_only_the_time_terms_it_reads(label, terms):
    # example1's field also has qq, g1, g2 and g3, with exp(-2.0 * t) and cos(t)
    exact = problem(label).exact
    text = scheme._kernel_text(
        "exact", 3, exact.source.rates, tuple(exact.source.constants), exact.text
    )
    assigned = [line.split()[0] for line in text.splitlines() if "__t0 = " in line]
    assert assigned == [f"{term}__t0" for term in terms]
    assert "cos__c(" not in text
    for t in (0.0, -0.0, 0.375, 1.0, 2.5, -0.7, 1e-300, -50.0):
        assert bits(exact(t)) == bits(original_solution(t))


@PROPERTY
@given(
    st.sampled_from(sorted(ORIGINAL_RATES)),
    st.floats(-2.0, 2.0),
    st.integers(4, 12),
    st.integers(1, 40),
)
def test_the_inlined_solution_is_bitwise_its_original_at_grid_times(label, t0, e, M):
    # M steps of about 2**-e from t0; the kernel takes the solution at t0 + n * k
    built = problem(label)
    grid = build_grid(t0, t0 + M * 2.0**-e, 2.0**-e)
    times = [grid.time(n) for n in range(grid.M + 1)]
    assert all(bits(built.exact(t)) == bits(original_solution(t)) for t in times)
    try:
        computed = integrate(built.field, built.y0, grid).states[1:]
    except NumericalBlowupError as err:  # some coarse grids diverge before t = 0
        with pytest.raises(NumericalBlowupError) as inlined:
            integrate(built.field, built.y0, grid, every=None, exact=built.exact)
        assert inlined.value.step_index == err.step_index
        return
    exact = np.array([original_solution(t) for t in times[1:]])
    expected = [np.abs(a).max(axis=1) for a in (exact, computed, exact - computed)]
    inlined = integrate(built.field, built.y0, grid, every=None, exact=built.exact).maxima
    assert [bits(m) for m in inlined] == [bits(m.tolist()) for m in expected]


@pytest.mark.parametrize(
    "text, message",
    [
        ("y1 = q\ny2 = sq\ny3 = 0.0", "solution, line 2: unknown name 'sq'"),
        ("y1 = y2\ny2 = q\ny3 = q", "solution, line 1: unknown name 'y2'"),
        ("q = 1.0\ny1 = q\ny2 = q\ny3 = q", "solution, line 1: 'q' cannot be assigned"),
        ("y1 = q\ny3 = q", "solution never assigns y2"),
        ("y1 = q\ny2 = q\ny3 = (lambda: q)()", "Lambda is not allowed"),
    ],
)
def test_a_malformed_solution_text_is_rejected_on_first_use(text, message):
    # the solution reads the time terms of the field's text, not its rate statements
    exact = example1().field.solution(text)
    with pytest.raises(ValueError, match=message):
        exact(0.5)


@pytest.mark.parametrize("build", [example1, example2])
def test_a_run_against_the_solution_keeps_the_states_and_sums_of_a_plain_run(build):
    built = build()
    grid = TimeGrid(t0=0.0, T=1.0, M=3000)  # three blocks of steps
    plain = integrate(built.field, built.y0, grid)
    run = integrate(built.field, built.y0, grid, exact=built.exact)
    assert plain.maxima is None and [len(m) for m in run.maxima] == [3000] * 3
    assert bits(run.values) == bits(plain.values)
    assert run.overall_sums == plain.overall_sums and run.era_sums == plain.era_sums
