"""Compartment model: rates, conservation identity, and era presets."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from tristep import (
    CpParams,
    EraPreset,
    PRESET_LABELS,
    alpha_mismatch,
    build_grid,
    conservation_residual,
    cp_rhs,
    effective_contact_rates,
    era_starts,
    positivity_step_bound,
    preset,
)


def example3_params():
    return preset("cameroon-1960").params


def random_params(rng):
    p1, p2, beta1, beta2, mu = rng.uniform(0.0, 1.0, size=5)
    return CpParams(
        theta=float(rng.uniform(0.0, 1e6)),
        gamma=float(rng.uniform(0.01, 1.0)),
        rho=float(rng.uniform(0.1, 5.0)),
        mu=float(mu),
        p1=float(p1),
        p2=float(p2),
        beta1=float(beta1),
        beta2=float(beta2),
        alpha1=float(rng.uniform(0.0, 1.5)),
        alpha2=float(rng.uniform(0.0, 1.5)),
        r1=float(rng.uniform(0.0, 2.0)),
        r2=float(rng.uniform(0.0, 2.0)),
        tau=float(rng.uniform(0.0, 2.0)),
        b1=float(rng.uniform(0.0, 2.0)),
        b2=float(rng.uniform(0.0, 2.0)),
        sigma=float(rng.uniform(0.0, 2.0)),
        N=float(rng.uniform(1e5, 5e7)),
    )


# -------------------------------------------------------------- contact rates


def test_effective_contact_rates_scenario_1986():
    assert effective_contact_rates(0.8, 0.1, 0.4, 0.15) == pytest.approx(
        (0.72, 0.34), rel=1e-15
    )


def test_effective_contact_rates_scenario_2002():
    assert effective_contact_rates(0.75, 0.25, 0.38, 0.4) == pytest.approx(
        (0.5625, 0.228), rel=1e-15
    )


def test_effective_contact_rates_zero_effort_is_identity():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p, q = rng.uniform(0.0, 1.0, size=2)
        assert effective_contact_rates(p, 0.0, q, 0.0) == (p, q)


def test_effective_contact_rates_reject_out_of_range():
    with pytest.raises(ValueError):
        effective_contact_rates(1.2, 0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        effective_contact_rates(0.5, -0.1, 0.5, 0.0)


# ---------------------------------------------------------------- the field


def test_rhs_prosecuted_equation_hand_value():
    # tau*y2 - (release + death)*y4 at the 1960 starting state:
    # 0.6 * 1.5e6 - (0.45 + 0.55 + 0.2) * 0.5e6 = 3.0e5
    field = cp_rhs(example3_params())
    rates = field.evaluate(1960.0, preset("cameroon-1960").y0)
    assert rates[3] == pytest.approx(3.0e5, rel=1e-9)


def test_rhs_zero_state_leaves_only_recruitment():
    params = example3_params()
    rates = cp_rhs(params).evaluate(0.0, np.zeros(5))
    assert rates[0] == params.theta
    assert np.array_equal(rates[1:], np.zeros(4))


def test_rhs_sum_identity_on_random_states():
    rng = np.random.default_rng(33)
    for _ in range(200):
        params = random_params(rng)
        y = rng.uniform(0.0, params.N, size=5)
        rates = cp_rhs(params).evaluate(0.0, y)
        expected = params.theta - params.gamma * y.sum()
        scale = max(1.0, abs(params.gamma * y.sum()))
        assert abs(float(rates.sum()) - expected) <= 1e-9 * scale


def test_rhs_is_autonomous():
    params = example3_params()
    field = cp_rhs(params)
    y = np.array([1.1e6, 2.2e6, 3.3e6, 0.4e6, 3.0e6])
    assert np.array_equal(field.evaluate(0.0, y), field.evaluate(1973.25, y))


def test_rhs_no_spontaneous_corruption_or_prosecution():
    # with y2 = y4 = 0 nothing flows into the corrupt or jailed classes
    rng = np.random.default_rng(4)
    for _ in range(50):
        params = random_params(rng)
        y = rng.uniform(0.0, params.N, size=5)
        y[1] = 0.0
        y[3] = 0.0
        rates = cp_rhs(params).evaluate(0.0, y)
        assert rates[1] == 0.0
        assert rates[3] == 0.0


def test_rhs_rejects_wrong_dimension():
    field = cp_rhs(example3_params())
    for state in (np.zeros(3), np.zeros(6)):
        with pytest.raises(ValueError):
            field.evaluate(0.0, state)


# ---------------------------------------------------------------- conservation


def test_conservation_residual_is_rounding_level():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        params = random_params(rng)
        y = rng.uniform(0.0, params.N, size=5)
        residual = conservation_residual(params, y)
        bound = 1e-9 * max(1.0, params.gamma * float(y.sum()))
        assert abs(residual) <= bound


def test_total_outflow_at_1960_start():
    # sum_i F_i = theta - gamma*N = 0.2 - 0.2e7 at the starting state
    scenario = preset("cameroon-1960")
    rates = cp_rhs(scenario.params).evaluate(0.0, scenario.y0)
    assert float(rates.sum()) == pytest.approx(-1_999_999.8, rel=1e-12)


def test_balanced_inflow_freezes_the_total():
    scenario = preset("cameroon-1960")
    params = CpParams(
        **{
            **{f: getattr(scenario.params, f) for f in scenario.params.__dataclass_fields__},
            "theta": scenario.params.gamma * float(np.asarray(scenario.y0).sum()),
        }
    )
    rates = cp_rhs(params).evaluate(0.0, scenario.y0)
    assert abs(float(rates.sum())) <= 1e-9 * params.theta


# -------------------------------------------------------------------- params


def test_params_release_split_identity():
    params = example3_params()
    split = params.rho * params.mu + params.rho * (1.0 - params.mu)
    assert split == pytest.approx(params.rho, abs=1e-12)


def test_params_validation_rejects_bad_values():
    good = example3_params()
    fields = {f: getattr(good, f) for f in good.__dataclass_fields__}
    with pytest.raises(ValueError):
        CpParams(**{**fields, "mu": 1.5})
    with pytest.raises(ValueError):
        CpParams(**{**fields, "rho": 0.0})
    with pytest.raises(ValueError):
        CpParams(**{**fields, "N": -1.0})
    with pytest.raises(ValueError):
        CpParams(**{**fields, "gamma": -0.2})
    with pytest.raises(ValueError):
        CpParams(**{**fields, "p1": float("nan")})


# ------------------------------------------------------------------- presets


def test_preset_1960_values_and_warning():
    scenario = preset("cameroon-1960")
    p = scenario.params
    assert (p.theta, p.gamma) == (0.2, 0.2)
    assert (p.alpha1, p.alpha2) == (0.018, 0.03)
    assert p.N == 1e7
    assert np.array_equal(scenario.y0, np.array([3.5e6, 1.5e6, 1.5e6, 0.5e6, 3.0e6]))
    assert scenario.era_boundaries == (1960.0, 1965.0, 1970.0, 1975.0, 1980.0, 1986.0)
    assert scenario.k == 1e-3
    # stored alpha1 = 0.018 while p1*(1-beta1) = 0.12, hence the warning
    assert scenario.alpha_warning
    assert p.rho * p.mu == pytest.approx(0.55, abs=1e-15)
    assert p.rho * (1.0 - p.mu) == pytest.approx(0.45, abs=1e-15)


def test_preset_1986_matches_derived_contact_rates():
    scenario = preset("cameroon-1986")
    p = scenario.params
    assert p.alpha1 == 0.72
    assert p.alpha2 == 0.34
    assert p.N == 1.6e7
    assert scenario.era_boundaries == (1986.0, 1990.0, 1994.0, 1998.0, 2002.0)
    assert not scenario.alpha_warning
    derived = effective_contact_rates(p.p1, p.beta1, p.p2, p.beta2)
    assert derived == pytest.approx((p.alpha1, p.alpha2), abs=1e-12)


def test_preset_2002_population_and_rates():
    scenario = preset("cameroon-2002")
    p = scenario.params
    assert p.N == 2.5e7
    assert float(np.asarray(scenario.y0).sum()) == p.N
    assert (p.alpha1, p.alpha2) == (0.5625, 0.228)
    assert p.p2 == 0.38
    assert scenario.era_boundaries == (2002.0, 2006.0, 2010.0, 2014.0, 2018.0, 2022.0)
    assert not scenario.alpha_warning


@pytest.mark.parametrize("label", PRESET_LABELS)
def test_preset_initial_population_sums_to_n(label):
    scenario = preset(label)
    assert float(np.asarray(scenario.y0).sum()) == scenario.params.N


def test_preset_labels_keep_their_order():
    assert PRESET_LABELS == ("cameroon-1960", "cameroon-1986", "cameroon-2002")


@pytest.mark.parametrize("label", PRESET_LABELS)
def test_preset_grid_is_derived_from_its_step(label):
    scenario = preset(label)
    assert scenario.grid == build_grid(scenario.t0, scenario.T, 1e-3)
    finer = dataclasses.replace(scenario, k=2e-3)
    assert finer.grid == build_grid(scenario.t0, scenario.T, 2e-3)
    assert finer.grid.M == round((scenario.T - scenario.t0) / 2e-3)
    assert "grid" not in repr(finer)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(scenario, grid=finer.grid)


@pytest.mark.parametrize("label", PRESET_LABELS)
def test_preset_starts_are_its_era_starts_also_after_replace(label):
    scenario = preset(label)
    assert scenario.starts == era_starts(scenario.grid, scenario.era_boundaries)
    coarser = dataclasses.replace(scenario, k=0.25)
    assert coarser.starts == era_starts(coarser.grid, coarser.era_boundaries)
    assert coarser.starts != scenario.starts
    assert "starts" not in repr(coarser)


def test_preset_unknown_label_is_usage_error():
    with pytest.raises(ValueError):
        preset("cameroon-2023")


def test_alpha_mismatch_helper():
    assert alpha_mismatch(preset("cameroon-1960").params)
    assert not alpha_mismatch(preset("cameroon-1986").params)
    assert not alpha_mismatch(preset("cameroon-2002").params)


def test_preset_y0_is_a_tuple_of_floats_checked_again_on_replace():
    scenario = preset("cameroon-1960")
    assert scenario.y0 == (3.5e6, 1.5e6, 1.5e6, 0.5e6, 3.0e6)
    assert all(type(v) is float for v in scenario.y0)
    moved = dataclasses.replace(scenario, y0=np.array([3.0e6, 2.0e6, 1.5e6, 0.5e6, 3.0e6]))
    assert moved.y0 == (3.0e6, 2.0e6, 1.5e6, 0.5e6, 3.0e6)
    assert all(type(v) is float for v in moved.y0)
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(moved, y0=(3.0e6, 2.0e6, math.inf, 0.5e6, 3.0e6))
    with pytest.raises(ValueError, match="sum to"):
        dataclasses.replace(moved, y0=(3.0e6, 2.0e6, 1.5e6, 0.5e6, 4.0e6))


@pytest.mark.parametrize(
    "y0, message",
    [
        ((1.0, 2.0, 3.0, 4.0), "dimension 4, expected 5"),
        (np.ones((1, 5)), "1-D"),
        ((1.0, 2.0, math.nan, 4.0, 5.0), "finite"),
        ("12345", "1-D"),
    ],
    ids=["four", "2-D", "nan", "text"],
)
def test_era_preset_rejects_a_malformed_initial_state(y0, message):
    scenario = preset("cameroon-1986")
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(scenario, y0=y0)


def test_era_preset_validation():
    scenario = preset("cameroon-1986")
    with pytest.raises(ValueError):
        EraPreset(
            label="bad-eras",
            params=scenario.params,
            y0=scenario.y0,
            t0=scenario.t0,
            T=scenario.T,
            k=scenario.k,
            era_boundaries=(1986.0, 1990.0),  # must end at T
        )
    with pytest.raises(ValueError):
        EraPreset(
            label="bad-total",
            params=scenario.params,
            y0=np.array([1.0, 1.0, 1.0, 1.0, 1.0]),  # nowhere near N
            t0=scenario.t0,
            T=scenario.T,
            k=scenario.k,
            era_boundaries=scenario.era_boundaries,
        )


@pytest.mark.parametrize(
    "bounds",
    [(), (1986.0,), (1986.0, 1994.0, 1994.0, 2002.0), (1986.0, 1998.0, 1994.0, 2002.0)],
    ids=["none", "one", "repeated", "decreasing"],
)
def test_era_preset_rejects_eras_that_are_not_strictly_increasing(bounds):
    scenario = preset("cameroon-1986")
    with pytest.raises(ValueError, match="strictly increasing, two or more"):
        dataclasses.replace(scenario, era_boundaries=bounds)


# ---------------------------------------------------------- positivity bound


@pytest.mark.parametrize(
    "label, bound",
    [("cameroon-1960", 1.94), ("cameroon-1986", 1.53), ("cameroon-2002", 1.63)],
)
def test_positivity_step_bound_of_the_presets(label, bound):
    scenario = preset(label)
    assert positivity_step_bound(scenario.params, scenario.y0) == pytest.approx(bound, abs=0.005)


def test_positivity_step_bound_hand_value():
    # P = max(10, theta/gamma = 20); the corrupt outflow 0.5 + 1 + 2 + 0 dominates
    params = CpParams(
        theta=10.0, gamma=0.5, rho=1.0, mu=0.5, p1=0.0, p2=0.0, beta1=0.0, beta2=0.0,
        alpha1=0.5, alpha2=0.5, r1=0.0, r2=0.0, tau=2.0, b1=1.0, b2=0.0, sigma=0.0, N=20.0,
    )
    assert positivity_step_bound(params, np.array([2.0, 2.0, 2.0, 2.0, 2.0])) == 3.0 / 3.5


def test_positivity_step_bound_is_zero_when_the_total_grows_without_bound():
    scenario = preset("cameroon-1960")
    params = dataclasses.replace(scenario.params, gamma=0.0)
    assert positivity_step_bound(params, scenario.y0) == 0.0
