"""Five-compartment corruption-poverty population model.

Compartments, all measured in persons:

  y1  susceptible   never yet drawn into corruption or poverty
  y2  corrupt       actively corrupt, able to recruit susceptibles
  y3  poor          income below the poverty line
  y4  prosecuted    jailed for corrupt acts, temporarily inactive
  y5  honest        permanently immune to corruption

Flows: recruitment feeds y1 at the absolute rate theta (persons/time);
every compartment is removed by death at rate gamma.  Contact terms
alpha1*y1*y2/N and alpha2*y1*y3/N move susceptibles into the corrupt and
poor classes; r1 and r2 exchange corrupt and poor; tau prosecutes the
corrupt; released prisoners split at rho*mu into honest and rho*(1-mu)
back into corrupt; b1, b2 and sigma reform corrupt, poor and susceptible
people into the honest class.

Summing the five equations cancels every exchange term pairwise and leaves
d(total)/dt = theta - gamma*total, the model's conservation identity.

The presets are one table, ``_PRESETS``, of each scenario's horizon,
initial state, eras and rates.  Presets load without numpy: an
:class:`EraPreset` keeps its initial state as a tuple of checked floats and
builds and checks its grid and eras on Python numbers.  numpy is imported
only by :func:`positivity_step_bound` and :func:`conservation_residual`.
"""

from __future__ import annotations

import math

from .numerics import (
    Record,
    TimeGrid,
    as_state,
    build_grid,
    era_starts,
    finite_state_floats,
    probe_memory,
)
from .scheme import RhsField

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CpParams",
    "EraPreset",
    "PRESET_LABELS",
    "alpha_mismatch",
    "conservation_residual",
    "cp_rhs",
    "effective_contact_rates",
    "positivity_step_bound",
    "preset",
]

_NONNEGATIVE_FIELDS = (
    "theta",
    "gamma",
    "alpha1",
    "alpha2",
    "r1",
    "r2",
    "tau",
    "b1",
    "b2",
    "sigma",
)
_UNIT_INTERVAL_FIELDS = ("mu", "p1", "p2", "beta1", "beta2")


class CpParams(Record):
    """Model rates; the module docstring names the flow each one drives."""

    __slots__ = _fields = (
        "theta",  # recruitment inflow, persons/time
        "gamma",  # death removal rate, 1/time
        "rho",  # prison release rate, 1/time
        "mu",  # fraction of released prisoners who turn honest
        "p1",  # corruption transmission probability per contact
        "p2",  # poverty transmission probability per contact
        "beta1",  # anti-corruption effort, in [0, 1]
        "beta2",  # anti-poverty effort, in [0, 1]
        "alpha1",  # effective corruption contact rate
        "alpha2",  # effective poverty contact rate
        "r1",  # corrupt -> poor rate
        "r2",  # poor -> corrupt rate
        "tau",  # prosecution rate of the corrupt
        "b1",  # corrupt -> honest rate
        "b2",  # poor -> honest rate
        "sigma",  # susceptible -> honest rate
        "N",  # constant population size, persons
    )

    def __init__(
        self,
        theta: float,
        gamma: float,
        rho: float,
        mu: float,
        p1: float,
        p2: float,
        beta1: float,
        beta2: float,
        alpha1: float,
        alpha2: float,
        r1: float,
        r2: float,
        tau: float,
        b1: float,
        b2: float,
        sigma: float,
        N: float,
    ) -> None:
        self._set(
            theta, gamma, rho, mu, p1, p2, beta1, beta2, alpha1, alpha2, r1, r2, tau, b1, b2,
            sigma, N,
        )
        for name in _NONNEGATIVE_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"parameter {name} must be finite and >= 0, got {value!r}")
        for name in _UNIT_INTERVAL_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"parameter {name} must lie in [0, 1], got {value!r}")
        if not (math.isfinite(rho) and rho > 0.0):
            raise ValueError(f"parameter rho must be finite and > 0, got {rho!r}")
        if not (math.isfinite(N) and N > 0.0):
            raise ValueError(f"parameter N must be finite and > 0, got {N!r}")


def effective_contact_rates(
    p1: float, beta1: float, p2: float, beta2: float
) -> tuple[float, float]:
    """Effort-damped transmission rates (p1*(1 - beta1), p2*(1 - beta2)).

    Raises:
      ValueError: If any argument falls outside [0, 1].
    """
    for name, value in (("p1", p1), ("beta1", beta1), ("p2", p2), ("beta2", beta2)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return p1 * (1.0 - beta1), p2 * (1.0 - beta2)


#: The five equations.  Each bilinear contact term is computed once, as
#: the same float product the equations would each compute.
_CP_RATES = """
c12 = a1 * y1 * y2
c13 = a2 * y1 * y3
c23 = r2 * y2 * y3
f1 = theta - inv_n * (c12 + c13) - drain1 * y1
f2 = inv_n * (c12 + c23) - drain2 * y2 + jail_to_corrupt * y4
f3 = inv_n * (c13 - c23) + r1 * y2 - drain3 * y3
f4 = tau * y2 - drain4 * y4
f5 = sigma * y1 + b1 * y2 + b2 * y3 + jail_to_honest * y4 - gamma * y5
"""


def cp_rhs(params: CpParams) -> RhsField:
    """Vector field of the five-compartment system, written as source.

    The field is autonomous: the equations do not use the time.  Bilinear
    contact terms are scaled by 1/N.
    """
    jail_to_corrupt = params.rho * (1.0 - params.mu)
    jail_to_honest = params.rho * params.mu
    constants = {
        "theta": params.theta,
        "gamma": params.gamma,
        "sigma": params.sigma,
        "a1": params.alpha1,
        "a2": params.alpha2,
        "r1": params.r1,
        "r2": params.r2,
        "tau": params.tau,
        "b1": params.b1,
        "b2": params.b2,
        "inv_n": 1.0 / params.N,
        "jail_to_corrupt": jail_to_corrupt,
        "jail_to_honest": jail_to_honest,
        "drain1": params.gamma + params.sigma,
        "drain2": params.gamma + params.b1 + params.tau + params.r1,
        "drain3": params.gamma + params.b2,
        "drain4": jail_to_corrupt + jail_to_honest + params.gamma,
    }
    return RhsField.from_source(5, _CP_RATES, constants=constants)


def positivity_step_bound(params: CpParams, y0: np.ndarray) -> float:
    """Largest step size k certified to keep every compartment nonnegative.

    Chained Heun substeps are strong-stability preserving with coefficient
    1: with the PLUS sign a substep of length h = k/3 keeps a nonnegative
    state nonnegative whenever one forward-Euler step of length h does.
    Forward Euler does so when h times every compartment's per-capita
    outflow is at most 1.  The contact terms scale those outflows with the
    total, which stays below P = max(sum(y0), theta/gamma) once h*gamma <= 1,
    so every ``k <= 3 / max(gamma + sigma + (alpha1 + alpha2)*P/N,
    gamma + b1 + tau + r1, gamma + b2 + r2*P/N, rho + gamma, gamma)`` is
    certified from a nonnegative ``y0``.

    Returns 0.0 when the total grows without bound (gamma = 0 < theta).
    """
    p = params
    total = float(as_state(y0, dim=5).sum())
    if p.gamma > 0.0:
        cap = max(total, p.theta / p.gamma)
    elif p.theta == 0.0:
        cap = total
    else:
        return 0.0
    outflow = max(
        p.gamma + p.sigma + (p.alpha1 + p.alpha2) * cap / p.N,
        p.gamma + p.b1 + p.tau + p.r1,
        p.gamma + p.b2 + p.r2 * cap / p.N,
        p.rho + p.gamma,
        p.gamma,
    )
    return 3.0 / outflow


def conservation_residual(params: CpParams, y: np.ndarray) -> float:
    """Total-balance defect sum_i F_i(y) - (theta - gamma * sum_i y_i).

    Analytically zero for every state, because the exchange terms cancel
    pairwise in the sum; in floating point it stays at rounding level.
    """
    state = as_state(y, dim=5)
    rates = cp_rhs(params).evaluate(0.0, state)
    return float(rates.sum() - (params.theta - params.gamma * state.sum()))


def alpha_mismatch(params: CpParams) -> bool:
    """True when a stored contact rate differs from p*(1 - beta) by more than 1e-6."""
    derived1, derived2 = effective_contact_rates(
        params.p1, params.beta1, params.p2, params.beta2
    )
    return abs(params.alpha1 - derived1) > 1e-6 or abs(params.alpha2 - derived2) > 1e-6


class EraPreset(Record):
    """A ready-to-run scenario: rates, initial state, horizon and eras.

    ``y0`` must hold five finite reals and sum to N within 0.1%; it is kept
    as a tuple of floats, checked before anything else.  ``grid`` is
    ``build_grid(t0, T, k)``, derived and never passed; its points, 8 bytes
    each, must fit in memory, or :func:`~tristep.numerics.probe_memory`
    refuses k: "the run's N states do not fit in memory".  ``era_boundaries``
    partitions [t0, T] for the summary tables: ``era_starts`` checks them
    against ``grid``, and they must start at t0 and end at T; ``starts``,
    derived and never passed like ``grid``, keeps that check's result.
    ``alpha_warning`` marks presets whose stored contact rates disagree with
    p*(1 - beta); the stored values drive the dynamics, the flag surfaces the
    discrepancy.  A preset is equal only to itself.
    """

    _fields = ("label", "params", "y0", "t0", "T", "k", "era_boundaries", "alpha_warning")
    __slots__ = _fields + ("grid", "starts")
    grid: TimeGrid  # derived: the annotations give ``dataclasses.fields`` their types
    starts: tuple[int, ...]
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        label: str,
        params: CpParams,
        y0: tuple[float, ...],
        t0: float,
        T: float,
        k: float,
        era_boundaries: tuple[float, ...],
        alpha_warning: bool = False,
    ) -> None:
        y0 = finite_state_floats(y0, dim=5)
        bounds = tuple(float(b) for b in era_boundaries)
        if not k > 0.0:
            raise ValueError("preset step size k must be positive")
        grid = build_grid(t0, T, k)
        probe_memory(8 * (grid.M + 1), k, grid.M + 1)  # the grid's points as float64
        starts = era_starts(grid, bounds)
        if bounds[0] != t0 or bounds[-1] != T:
            raise ValueError("era boundaries must start at t0 and end at T")
        total, *rest = y0
        for value in rest:  # left to right, as numpy sums five values
            total += value
        if abs(total - params.N) > 1e-3 * params.N:
            raise ValueError(f"initial compartments sum to {total!r}, expected N={params.N!r}")
        self._set(label, params, y0, t0, T, k, bounds, alpha_warning, grid, starts)


_PRESETS = {
    "cameroon-1960": dict(
        t0=1960.0,
        T=1986.0,
        y0=(3.5e6, 1.5e6, 1.5e6, 0.5e6, 3.0e6),
        era_boundaries=(1960.0, 1965.0, 1970.0, 1975.0, 1980.0, 1986.0),
        # alpha1 = 0.018 is the scenario's stated contact rate even though
        # p1*(1 - beta1) = 0.12; the mismatch flag warns downstream consumers.
        # rho and mu are chosen so the prison outflow splits exactly into
        # rho*mu = 0.55 toward honest and rho*(1 - mu) = 0.45 back to corrupt.
        rates=dict(
            theta=0.2,
            gamma=0.2,
            rho=1.0,
            mu=0.55,
            p1=0.3,
            p2=0.1,
            beta1=0.6,
            beta2=0.7,
            alpha1=0.018,
            alpha2=0.03,
            r1=0.45,
            r2=0.5,
            tau=0.6,
            b1=0.3,
            b2=0.3,
            sigma=0.9,
            N=1.0e7,
        ),
    ),
    "cameroon-1986": dict(
        t0=1986.0,
        T=2002.0,
        y0=(2.4e6, 3.2e6, 6.4e6, 2.4e6, 1.6e6),
        era_boundaries=(1986.0, 1990.0, 1994.0, 1998.0, 2002.0),
        rates=dict(
            theta=0.3,
            gamma=0.3,
            rho=1.0,
            mu=0.3,
            p1=0.8,
            p2=0.4,
            beta1=0.1,
            beta2=0.15,
            alpha1=0.72,
            alpha2=0.34,
            r1=0.8,
            r2=0.9,
            tau=0.15,
            b1=0.1,
            b2=0.12,
            sigma=0.6,
            N=1.6e7,
        ),
    ),
    "cameroon-2002": dict(
        t0=2002.0,
        T=2022.0,
        y0=(5.0e6, 4.25e6, 9.5e6, 3.0e6, 3.25e6),
        era_boundaries=(2002.0, 2006.0, 2010.0, 2014.0, 2018.0, 2022.0),
        rates=dict(
            theta=0.25,
            gamma=0.25,
            rho=1.0,
            mu=0.35,
            p1=0.75,
            p2=0.38,
            beta1=0.25,
            beta2=0.4,
            alpha1=0.5625,
            alpha2=0.228,
            r1=0.75,
            r2=0.8,
            tau=0.3,
            b1=0.15,
            b2=0.15,
            sigma=0.8,
            N=2.5e7,
        ),
    ),
}

PRESET_LABELS = tuple(_PRESETS)


def preset(label: str) -> EraPreset:
    """Return a new era preset registered under ``label``, stepped at k = 1e-3.

    Raises:
      ValueError: If the label is not one of :data:`PRESET_LABELS`.
    """
    try:
        spec = dict(_PRESETS[label])
    except KeyError:
        known = ", ".join(PRESET_LABELS)
        raise ValueError(f"unknown preset {label!r}; expected one of: {known}") from None
    params = CpParams(**spec.pop("rates"))
    return EraPreset(
        label=label, params=params, k=1e-3, alpha_warning=alpha_mismatch(params), **spec
    )
