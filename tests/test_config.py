"""Configuration parsing, emission, and the preset round-trip."""

from __future__ import annotations

import numpy as np
import pytest

from tristep import (
    ConfigError,
    PRESET_LABELS,
    RunConfig,
    SignConvention,
    format_config,
    parse_config,
    preset,
    preset_from_config,
)

EXAMPLE_1960_CONFIG = """\
# scenario: cameroon-1960
t0 = 1960
T = 1986
k = 0.001
theta = 0.2
gamma = 0.2
rho = 1.0
mu = 0.55
p1 = 0.3
p2 = 0.1
beta1 = 0.6
beta2 = 0.7
alpha1 = 0.018
alpha2 = 0.03
r1 = 0.45
r2 = 0.5
tau = 0.6
b1 = 0.3
b2 = 0.3
sigma = 0.9
bign = 1e7
y0 = 3.5e6, 1.5e6, 1.5e6, 0.5e6, 3e6
eras = 1960, 1965, 1970, 1975, 1980, 1986
"""


def test_full_key_set_matches_builtin_preset():
    config = parse_config(EXAMPLE_1960_CONFIG)
    assert config.params == preset("cameroon-1960").params
    assert config.y0 == (3.5e6, 1.5e6, 1.5e6, 0.5e6, 3e6)
    assert config.eras == (1960.0, 1965.0, 1970.0, 1975.0, 1980.0, 1986.0)
    assert (config.t0, config.T, config.k) == (1960.0, 1986.0, 1e-3)
    assert config.sign is SignConvention.PLUS


def test_empty_file_lists_missing_keys():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("")
    # every key of the emitted format except the optional sign, in its order
    keys = [
        line.partition("=")[0].strip().lower()
        for line in format_config(preset("cameroon-1960")).splitlines()
        if not line.startswith("#")
    ]
    keys.remove("sign")
    assert str(excinfo.value) == "missing required keys: " + ", ".join(keys)


def test_duplicate_key_errors_at_second_occurrence():
    text = EXAMPLE_1960_CONFIG + "gamma = 0.25\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.line == EXAMPLE_1960_CONFIG.count("\n") + 1
    assert "duplicate" in str(excinfo.value)


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("t0 = 0\nzeta = 1\n")
    assert excinfo.value.line == 2
    assert "unknown key" in str(excinfo.value)


def test_malformed_number_reports_line():
    text = EXAMPLE_1960_CONFIG.replace("tau = 0.6", "tau = six")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert "malformed number" in str(excinfo.value)
    assert excinfo.value.line == 17


def test_keys_are_case_insensitive_and_comments_ignored():
    text = EXAMPLE_1960_CONFIG.replace("theta = 0.2", "THETA = 0.2  # inflow")
    config = parse_config(text)
    assert config.params.theta == 0.2


def test_sign_key_is_optional_and_parsed():
    config = parse_config(EXAMPLE_1960_CONFIG + "sign = minus\n")
    assert config.sign is SignConvention.MINUS
    with pytest.raises(ConfigError):
        parse_config(EXAMPLE_1960_CONFIG + "sign = times\n")


def test_y0_must_have_five_entries():
    text = EXAMPLE_1960_CONFIG.replace(
        "y0 = 3.5e6, 1.5e6, 1.5e6, 0.5e6, 3e6", "y0 = 1, 2, 3"
    )
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert "y0" in str(excinfo.value)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("k = 0.001", "k 0.001", "line 4: expected `key = value`"),
        ("k = 0.001", "k =  # no step", "line 4: empty value for key 'k'"),
        ("tau = 0.6", "tau = inf", "line 17: non-finite value for key 'tau'"),
        ("tau = 0.6", "tau = nan", "line 17: non-finite value for key 'tau'"),
        ("0.5e6, 3e6", "0.5e6, -inf", "line 22: non-finite value for key 'y0'"),
        (", 1965, 1970, 1975, 1980, 1986", "", "line 23: eras must hold at least 2 values"),
    ],
    ids=["no-equals", "empty", "inf", "nan", "list-inf", "one-era-bound"],
)
def test_malformed_lines_are_rejected_with_their_line(old, new, message):
    text = EXAMPLE_1960_CONFIG.replace(old, new)
    assert text != EXAMPLE_1960_CONFIG
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert str(excinfo.value) == message


def test_parameter_range_violations_are_config_errors():
    text = EXAMPLE_1960_CONFIG.replace("mu = 0.55", "mu = 1.55")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert "mu" in str(excinfo.value)


@pytest.mark.parametrize("label", PRESET_LABELS)
def test_preset_config_round_trip_is_exact(label):
    scenario = preset(label)
    config = parse_config(format_config(scenario))
    assert config.params == scenario.params
    assert config.y0 == tuple(scenario.y0)
    assert config.eras == scenario.era_boundaries
    assert (config.t0, config.T, config.k) == (scenario.t0, scenario.T, scenario.k)


@pytest.mark.parametrize("label", PRESET_LABELS)
def test_round_tripped_preset_behaves_identically(label):
    scenario = preset(label)
    rebuilt = preset_from_config(parse_config(format_config(scenario)), label=label)
    assert rebuilt.params == scenario.params
    assert np.array_equal(rebuilt.y0, scenario.y0)
    assert rebuilt.era_boundaries == scenario.era_boundaries
    assert rebuilt.alpha_warning == scenario.alpha_warning


def test_preset_from_config_flags_alpha_mismatch():
    config = parse_config(EXAMPLE_1960_CONFIG)
    assert preset_from_config(config).alpha_warning


def test_a_run_config_is_a_named_tuple_of_its_fields():
    config = parse_config(EXAMPLE_1960_CONFIG)
    scenario = preset("cameroon-1960")
    assert isinstance(config, RunConfig)
    assert (config.t0, config.T, config.k) == (1960.0, 1986.0, 0.001)
    assert config.sign is SignConvention.PLUS and config.params == scenario.params
    assert config.y0 == scenario.y0 and config.eras == scenario.era_boundaries
    assert repr(config) == (
        f"RunConfig(t0=1960.0, T=1986.0, k=0.001, sign={SignConvention.PLUS!r}, "
        f"params={scenario.params!r}, y0={scenario.y0!r}, eras={scenario.era_boundaries!r})"
    )
    assert config == tuple(config) and hash(config) == hash(parse_config(EXAMPLE_1960_CONFIG))
    with pytest.raises(AttributeError):
        config.k = 0.01
