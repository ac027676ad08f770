"""The contract of the four value types that ``dataclasses`` accepts.

``CpParams``, ``EraPreset``, ``RhsField`` and ``ManufacturedProblem``: their
``repr``, equality and hash, pickling, read-only attributes, and what
``dataclasses.replace`` and ``dataclasses.fields`` make of them.
"""

import dataclasses
import pickle

import pytest

from tristep import (
    PRESET_LABELS,
    CpParams,
    EraPreset,
    RhsField,
    cp_rhs,
    format_config,
    preset,
    problem,
)
from tristep.manufactured import ManufacturedProblem

PRESET_REPRS = {
    "cameroon-1960": (
        "EraPreset(label='cameroon-1960', params=CpParams(theta=0.2, gamma=0.2, rho=1.0, "
        "mu=0.55, p1=0.3, p2=0.1, beta1=0.6, beta2=0.7, alpha1=0.018, alpha2=0.03, r1=0.45, "
        "r2=0.5, tau=0.6, b1=0.3, b2=0.3, sigma=0.9, N=10000000.0), "
        "y0=(3500000.0, 1500000.0, 1500000.0, 500000.0, 3000000.0), t0=1960.0, T=1986.0, "
        "k=0.001, era_boundaries=(1960.0, 1965.0, 1970.0, 1975.0, 1980.0, 1986.0), "
        "alpha_warning=True)"
    ),
    "cameroon-1986": (
        "EraPreset(label='cameroon-1986', params=CpParams(theta=0.3, gamma=0.3, rho=1.0, "
        "mu=0.3, p1=0.8, p2=0.4, beta1=0.1, beta2=0.15, alpha1=0.72, alpha2=0.34, r1=0.8, "
        "r2=0.9, tau=0.15, b1=0.1, b2=0.12, sigma=0.6, N=16000000.0), "
        "y0=(2400000.0, 3200000.0, 6400000.0, 2400000.0, 1600000.0), t0=1986.0, T=2002.0, "
        "k=0.001, era_boundaries=(1986.0, 1990.0, 1994.0, 1998.0, 2002.0), "
        "alpha_warning=False)"
    ),
    "cameroon-2002": (
        "EraPreset(label='cameroon-2002', params=CpParams(theta=0.25, gamma=0.25, rho=1.0, "
        "mu=0.35, p1=0.75, p2=0.38, beta1=0.25, beta2=0.4, alpha1=0.5625, alpha2=0.228, "
        "r1=0.75, r2=0.8, tau=0.3, b1=0.15, b2=0.15, sigma=0.8, N=25000000.0), "
        "y0=(5000000.0, 4250000.0, 9500000.0, 3000000.0, 3250000.0), t0=2002.0, T=2022.0, "
        "k=0.001, era_boundaries=(2002.0, 2006.0, 2010.0, 2014.0, 2018.0, 2022.0), "
        "alpha_warning=False)"
    ),
}

#: The rates in the order of the config keys (``N`` is the key ``bign``).
RATE_NAMES = (
    "theta", "gamma", "rho", "mu", "p1", "p2", "beta1", "beta2", "alpha1", "alpha2",
    "r1", "r2", "tau", "b1", "b2", "sigma", "N",
)


def values():
    """One value of each of the four types."""
    scenario = preset("cameroon-1960")
    return [scenario.params, scenario, cp_rhs(scenario.params), problem("example1")]


@pytest.mark.parametrize("label", PRESET_LABELS)
def test_preset_and_params_repr_leave_out_the_derived_fields(label):
    scenario = preset(label)
    assert repr(scenario) == PRESET_REPRS[label]
    params = PRESET_REPRS[label].partition("params=")[2].partition("), y0=")[0] + ")"
    assert repr(scenario.params) == params
    assert "grid=" not in repr(scenario) and "starts=" not in repr(scenario)


def test_problem_repr_names_its_field_source_and_solution():
    p = problem("example1")
    rates = p.field.evaluate.rates
    constants = (
        "{'exp': <built-in function exp>, 'cos': <built-in function cos>, "
        "'sin': <built-in function sin>}"
    )
    assert repr(p) == (
        f"ManufacturedProblem(label='example1', field=RhsField(dim=3, evaluate=_Source(dim=3, "
        f"rates={rates!r}, constants={constants})), exact={p.exact!r}, t0=0.0, T=1.0)"
    )


def test_params_are_equal_by_value_and_hashable():
    a, b = preset("cameroon-1960").params, preset("cameroon-1960").params
    assert a == b and a is not b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != preset("cameroon-1986").params
    assert a != tuple(getattr(a, name) for name in RATE_NAMES)
    assert dataclasses.replace(a, gamma=0.25) != a


def test_a_preset_is_equal_only_to_itself():
    a, b = preset("cameroon-1960"), preset("cameroon-1960")
    assert a == a and a != b and len({a, b, a}) == 2
    assert hash(a) != hash(b) or a is b  # hashed by identity, like object


def test_fields_and_problems_are_equal_by_their_field_values():
    scenario = preset("cameroon-1960")
    field = cp_rhs(scenario.params)
    # a field's source is equal only to itself, so two builds differ
    assert field != cp_rhs(scenario.params)
    assert dataclasses.replace(field) == field and hash(dataclasses.replace(field)) == hash(field)
    p = problem("example1")
    assert p != problem("example1")
    assert dataclasses.replace(p) == p and hash(dataclasses.replace(p)) == hash(p)
    assert dataclasses.replace(p, T=0.5) != p


@pytest.mark.parametrize("index", range(4), ids=["CpParams", "EraPreset", "RhsField", "Problem"])
def test_each_value_type_pickles_and_rebuilds_its_derived_fields(index):
    value = values()[index]
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and repr(copy) == repr(value)
    if isinstance(value, CpParams):
        assert copy == value
    if isinstance(value, EraPreset):
        assert copy.grid == value.grid and copy.starts == value.starts
    if isinstance(value, RhsField):
        assert copy.evaluate(0.5, (1.0,) * 5).tolist() == value.evaluate(0.5, (1.0,) * 5).tolist()
    if isinstance(value, ManufacturedProblem):
        # the solution text comes back on the copy's own field, so the kernel still inlines it
        assert copy.exact.text == value.exact.text and copy.exact.source is copy.field.evaluate
        assert copy.y0 == value.y0 and copy.exact(0.5) == value.exact(0.5)


@pytest.mark.parametrize("index", range(4), ids=["CpParams", "EraPreset", "RhsField", "Problem"])
def test_each_value_type_is_read_only(index):
    value = values()[index]
    name = dataclasses.fields(value)[0].name
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, name) is before


def test_replace_checks_again_and_refuses_the_derived_fields():
    scenario = preset("cameroon-1960")
    with pytest.raises(ValueError, match="parameter rho must be finite and > 0"):
        dataclasses.replace(scenario.params, rho=0.0)
    with pytest.raises(ValueError, match="preset step size k must be positive"):
        dataclasses.replace(scenario, k=0.0)
    with pytest.raises(ValueError, match="field dimension must be at least 1"):
        dataclasses.replace(cp_rhs(scenario.params), dim=0)
    for name in ("grid", "starts"):
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            dataclasses.replace(scenario, **{name: getattr(scenario, name)})
    coarser = dataclasses.replace(scenario, k=0.25)
    assert coarser.grid.M == 104 and coarser.starts == (0, 20, 40, 60, 80, 105)


def test_fields_of_the_rates_are_in_config_key_order():
    assert tuple(f.name for f in dataclasses.fields(CpParams)) == RATE_NAMES
    assert all(f.type == "float" and f.init and f.repr for f in dataclasses.fields(CpParams))
    text = format_config(preset("cameroon-1960"))
    keys = [line.partition(" = ")[0] for line in text.splitlines()]
    assert keys[5:22] == [("bign" if name == "N" else name) for name in RATE_NAMES]


def test_fields_of_a_preset_and_a_problem_keep_their_flags_and_defaults():
    missing = dataclasses.MISSING
    fields = dataclasses.fields(EraPreset)
    assert [(f.name, f.type, f.init, f.repr, f.default) for f in fields] == [
        ("label", "str", True, True, missing),
        ("params", "CpParams", True, True, missing),
        ("y0", "tuple[float, ...]", True, True, missing),
        ("t0", "float", True, True, missing),
        ("T", "float", True, True, missing),
        ("k", "float", True, True, missing),
        ("era_boundaries", "tuple[float, ...]", True, True, missing),
        ("alpha_warning", "bool", True, True, False),
        ("grid", "TimeGrid", False, False, missing),
        ("starts", "tuple[int, ...]", False, False, missing),
    ]
    assert [(f.name, f.default) for f in dataclasses.fields(ManufacturedProblem)] == [
        ("label", missing), ("field", missing), ("exact", missing), ("t0", 0.0), ("T", 1.0)
    ]
    assert [f.name for f in dataclasses.fields(RhsField)] == ["dim", "evaluate"]
    assert all(dataclasses.is_dataclass(value) for value in values())
