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

Presets load without numpy: an :class:`EraPreset` keeps its initial state
as checked floats and checks its grid and eras on Python numbers.  numpy is
imported when a state is first read as an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .numerics import as_state, build_grid, era_starts, finite_state_floats
from .scheme import RhsField

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


@dataclass(frozen=True)
class CpParams:
    """Model rates; the module docstring names the flow each one drives."""

    theta: float  # recruitment inflow, persons/time
    gamma: float  # death removal rate, 1/time
    rho: float  # prison release rate, 1/time
    mu: float  # fraction of released prisoners who turn honest
    p1: float  # corruption transmission probability per contact
    p2: float  # poverty transmission probability per contact
    beta1: float  # anti-corruption effort, in [0, 1]
    beta2: float  # anti-poverty effort, in [0, 1]
    alpha1: float  # effective corruption contact rate
    alpha2: float  # effective poverty contact rate
    r1: float  # corrupt -> poor rate
    r2: float  # poor -> corrupt rate
    tau: float  # prosecution rate of the corrupt
    b1: float  # corrupt -> honest rate
    b2: float  # poor -> honest rate
    sigma: float  # susceptible -> honest rate
    N: float  # constant population size, persons

    def __post_init__(self) -> None:
        for name in _NONNEGATIVE_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"parameter {name} must be finite and >= 0, got {value!r}")
        for name in _UNIT_INTERVAL_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"parameter {name} must lie in [0, 1], got {value!r}")
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError(f"parameter rho must be finite and > 0, got {self.rho!r}")
        if not (math.isfinite(self.N) and self.N > 0.0):
            raise ValueError(f"parameter N must be finite and > 0, got {self.N!r}")


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


def alpha_mismatch(params: CpParams, tol: float = 1e-6) -> bool:
    """True when the stored contact rates disagree with p*(1 - beta) beyond tol."""
    derived1, derived2 = effective_contact_rates(
        params.p1, params.beta1, params.p2, params.beta2
    )
    return abs(params.alpha1 - derived1) > tol or abs(params.alpha2 - derived2) > tol


class _CompartmentState:
    """A dataclass field holding five finite compartments, read as a new array.

    Assigned, the value is checked as five finite reals and kept as a tuple
    of floats in the instance attribute ``_<name>``.  Read on an instance, it
    is a new float64 array, so changing that array leaves the instance as it
    was.  Read on the class, it raises ``AttributeError``, which a dataclass
    takes for a field without default.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.floats = f"_{name}"

    def __get__(self, instance: object, owner: type | None = None) -> np.ndarray:
        if instance is None:
            raise AttributeError(f"{self.floats[1:]} is a field of each instance")
        import numpy as np

        return np.array(getattr(instance, self.floats), dtype=np.float64)

    def __set__(self, instance: object, values: Iterable[float]) -> None:
        vars(instance)[self.floats] = finite_state_floats(values, dim=5)


@dataclass(frozen=True, eq=False)
class EraPreset:
    """A ready-to-run scenario: rates, initial state, horizon and eras.

    ``y0`` must hold five finite reals and sum to N within 0.1%; it is kept
    as floats and reads as a new float64 array.  ``era_boundaries``
    partitions [t0, T] for the summary tables; it must be strictly
    increasing, start at t0, end at T and leave no era without a point of the
    grid ``build_grid(t0, T, k)``, whose points must fit in memory.
    ``alpha_warning`` marks presets whose stored contact rates disagree with
    p*(1 - beta); the stored values drive the dynamics, the flag surfaces the
    discrepancy.
    """

    label: str
    params: CpParams
    y0: np.ndarray = _CompartmentState()
    t0: float
    T: float
    k: float
    era_boundaries: tuple[float, ...]
    alpha_warning: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "era_boundaries", tuple(float(b) for b in self.era_boundaries)
        )
        bounds = self.era_boundaries
        if len(bounds) < 2 or any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("era boundaries must be strictly increasing")
        if bounds[0] != self.t0 or bounds[-1] != self.T:
            raise ValueError("era boundaries must start at t0 and end at T")
        if not self.k > 0.0:
            raise ValueError("preset step size k must be positive")
        grid = build_grid(self.t0, self.T, self.k)
        try:
            # ask the allocator for the grid's points as float64, untouched
            bytes(8 * (grid.M + 1))
        except (MemoryError, OverflowError):  # OverflowError beyond the index range
            raise ValueError(
                f"step size k={self.k!r} is too small: "
                f"the grid's {grid.M + 1} points do not fit in memory"
            ) from None
        era_starts(grid, bounds)
        total, *rest = self._y0
        for value in rest:  # left to right, as numpy sums five values
            total += value
        if abs(total - self.params.N) > 1e-3 * self.params.N:
            raise ValueError(
                f"initial compartments sum to {total!r}, expected N={self.params.N!r}"
            )


PRESET_LABELS = ("cameroon-1960", "cameroon-1986", "cameroon-2002")


def _era_preset(label, *, t0, T, y0, eras, **rates) -> EraPreset:
    params = CpParams(**rates)
    return EraPreset(
        label=label,
        params=params,
        y0=y0,
        t0=t0,
        T=T,
        k=1e-3,
        era_boundaries=eras,
        alpha_warning=alpha_mismatch(params),
    )


def _preset_1960() -> EraPreset:
    # alpha1 = 0.018 is the scenario's stated contact rate even though
    # p1*(1 - beta1) = 0.12; the mismatch flag warns downstream consumers.
    # rho and mu are chosen so the prison outflow splits exactly into
    # rho*mu = 0.55 toward honest and rho*(1 - mu) = 0.45 back to corrupt.
    return _era_preset(
        "cameroon-1960",
        t0=1960.0,
        T=1986.0,
        y0=(3.5e6, 1.5e6, 1.5e6, 0.5e6, 3.0e6),
        eras=(1960.0, 1965.0, 1970.0, 1975.0, 1980.0, 1986.0),
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
    )


def _preset_1986() -> EraPreset:
    return _era_preset(
        "cameroon-1986",
        t0=1986.0,
        T=2002.0,
        y0=(2.4e6, 3.2e6, 6.4e6, 2.4e6, 1.6e6),
        eras=(1986.0, 1990.0, 1994.0, 1998.0, 2002.0),
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
    )


def _preset_2002() -> EraPreset:
    return _era_preset(
        "cameroon-2002",
        t0=2002.0,
        T=2022.0,
        y0=(5.0e6, 4.25e6, 9.5e6, 3.0e6, 3.25e6),
        eras=(2002.0, 2006.0, 2010.0, 2014.0, 2018.0, 2022.0),
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
    )


_PRESET_BUILDERS = {
    "cameroon-1960": _preset_1960,
    "cameroon-1986": _preset_1986,
    "cameroon-2002": _preset_2002,
}


def preset(label: str) -> EraPreset:
    """Return the era preset registered under ``label``.

    Raises:
      ValueError: If the label is not one of :data:`PRESET_LABELS`.
    """
    try:
        build = _PRESET_BUILDERS[label]
    except KeyError:
        known = ", ".join(PRESET_LABELS)
        raise ValueError(f"unknown preset {label!r}; expected one of: {known}") from None
    return build()
