"""Markovian population relaxation, bath-rate models and conduction laws.

Both rate parametrizations obey detailed balance gamma_minus/gamma_plus =
exp(beta*omega) by construction: the decay rate is computed from the
excitation rate via a shared factor, so the ratio is exact to a couple of
ulp rather than merely to analytic identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ParameterError
from .statistics import Statistics, population, require_statistics, weight_function

# Beyond this product the direct exp(beta*omega) factor would overflow and
# the rates are computed from explicit exponents instead.
_X_DIRECT_LIMIT = 700.0

# Default regime windows: exp(-8) ~ 3e-4 keeps neglected terms sub-percent.
LOW_TEMP_THRESHOLD = 8.0
HIGH_TEMP_THRESHOLD = 0.1


def _require_positive(**values):
    for name, value in values.items():
        if not value > 0.0:
            raise ParameterError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class GevaKosloff:
    """Bath coupling gamma_plus = a*e^{q*beta*omega}, gamma_minus = a*e^{(1+q)*beta*omega}.

    ``1/a`` sets the relaxation timescale; q must lie in (-1, 0) so that
    gamma_plus vanishes and gamma_minus diverges at zero temperature.
    """

    a: float
    q: float

    def __post_init__(self):
        _require_positive(a=self.a)
        if not -1.0 < self.q < 0.0:
            raise ParameterError(f"q must lie in (-1, 0), got {self.q!r}")

    def rates(self, beta: float, omega: float) -> tuple[float, float]:
        _require_positive(beta=beta, omega=omega)
        x = beta * omega
        gamma_plus = self.a * math.exp(self.q * x)
        if x <= _X_DIRECT_LIMIT and gamma_plus > 0.0:
            gamma_minus = gamma_plus * math.exp(x)
        else:
            gamma_minus = self.a * math.exp((1.0 + self.q) * x)
        return gamma_plus, gamma_minus


@dataclass(frozen=True)
class ThermalField:
    """Thermal radiation field with density of states rho(omega) = rho0*omega^m."""

    rho0: float
    m: float

    def __post_init__(self):
        _require_positive(rho0=self.rho0)

    def spectral_class(self) -> str:
        if self.m == 1.0:
            return "ohmic"
        return "super-ohmic" if self.m > 1.0 else "sub-ohmic"

    def rates(self, stat: Statistics, beta: float, omega: float) -> tuple[float, float]:
        _require_positive(beta=beta, omega=omega)
        require_statistics(stat)
        x = beta * omega
        gamma_minus = self.rho0 * omega ** self.m / weight_function(stat)(x)
        return gamma_minus * math.exp(-x), gamma_minus


RateModel = GevaKosloff | ThermalField


def rates(model: RateModel, beta: float, omega: float, stat: Statistics | None = None):
    """Excitation/decay rate pair (gamma_plus, gamma_minus) for either model.

    The thermal-field variant needs the medium statistics; the Geva-Kosloff
    variant ignores it.
    """
    if isinstance(model, GevaKosloff):
        return model.rates(beta, omega)
    if isinstance(model, ThermalField):
        if stat is None:
            raise ParameterError("thermal-field rates require the medium statistics")
        return model.rates(stat, beta, omega)
    raise ParameterError(f"unknown rate model: {model!r}")


@dataclass(frozen=True)
class RelaxationSetup:
    """One relaxation scenario: medium, bath model, bath state and initial occupation."""

    stat: Statistics
    model: RateModel
    beta: float
    omega: float
    n0: float

    def __post_init__(self):
        require_statistics(self.stat)
        _require_positive(beta=self.beta, omega=self.omega)
        if self.n0 < 0.0 or (self.stat is Statistics.FERMIONIC and self.n0 > 0.5):
            raise ParameterError("n0 outside the statistics domain")
        if relaxation_rate(self) <= 0.0:
            raise ParameterError("relaxation rate must be positive")


def relaxation_rate(setup: RelaxationSetup) -> float:
    """Exponential rate 2*(gamma_minus - gamma_plus) bosonic, 2*(gamma_minus + gamma_plus) fermionic.

    The bosonic difference is positive by detailed balance.
    """
    gamma_plus, gamma_minus = rates(setup.model, setup.beta, setup.omega, setup.stat)
    if setup.stat is Statistics.BOSONIC:
        return 2.0 * (gamma_minus - gamma_plus)
    return 2.0 * (gamma_minus + gamma_plus)


def equilibrium_population(setup: RelaxationSetup) -> float:
    """Stationary occupation; equals population(stat, beta*omega) by detailed balance."""
    return population(setup.stat, setup.beta * setup.omega)


def relax(setup: RelaxationSetup, t: float) -> float:
    """Occupation n(t) = n_eq + (n0 - n_eq) * exp(-rate * t) for t >= 0."""
    if t < 0.0:
        raise ParameterError("time must be nonnegative")
    n_eq = equilibrium_population(setup)
    return n_eq + (setup.n0 - n_eq) * math.exp(-relaxation_rate(setup) * t)


def heat_current(stat: Statistics, model: GevaKosloff, beta: float, beta_s: float,
                 omega: float) -> float:
    """Instantaneous bath-to-medium heat flow at system temperature 1/beta_s.

    ``-2*omega*a*e^{q*beta*omega} * (e^{beta*omega} - e^{beta_s*omega}) / (e^{beta_s*omega} +- 1)``,
    evaluated through expm1 so large exponents cancel before they overflow.
    Positive when the bath is hotter than the medium (beta < beta_s).
    """
    if not isinstance(model, GevaKosloff):
        raise ParameterError("heat_current is defined for the Geva-Kosloff parametrization only")
    _require_positive(beta=beta, beta_s=beta_s, omega=omega)
    require_statistics(stat)
    x = beta * omega
    x_s = beta_s * omega
    growth = math.expm1(x - x_s)
    return -2.0 * omega * model.a * math.exp(model.q * x) * growth / weight_function(stat)(x_s)


class Regime(Enum):
    """Limiting conduction laws with their transfer coefficients."""

    HIGH_TEMP_BOSONIC = "high_temp_bosonic"
    HIGH_TEMP_FERMIONIC = "high_temp_fermionic"
    LOW_TEMP = "low_temp"
    LOW_TEMP_LINEAR = "low_temp_linear"


@dataclass(frozen=True)
class LimitCurrent:
    """Approximate heat current, its conduction coefficient, and how far the
    inputs sit outside the regime's validity window (0 = inside)."""

    value: float
    coefficient: float
    validity_distance: float


def limit_heat_current(regime: Regime, model: GevaKosloff, beta: float, beta_s: float,
                       omega: float) -> LimitCurrent:
    """Evaluate one limiting form of the heat current.

    High-temperature media follow different laws: Newtonian conduction
    ``L = 2*a*omega*beta`` for the bosonic medium versus the linear
    irreversible-thermodynamics law ``L = a*omega^2`` for the fermionic one.
    At low temperature both collapse onto the q-dependent coefficient
    ``L = 2*a*omega^2*e^{q*beta*omega}``.
    """
    if not isinstance(model, GevaKosloff):
        raise ParameterError("limit_heat_current requires the Geva-Kosloff parametrization")
    _require_positive(beta=beta, beta_s=beta_s, omega=omega)
    x = beta * omega
    x_s = beta_s * omega
    a = model.a
    if regime is Regime.HIGH_TEMP_BOSONIC:
        value = 2.0 * omega * a * (beta_s - beta) / beta_s
        return LimitCurrent(value, 2.0 * a * omega * beta, max(0.0, max(x, x_s) - HIGH_TEMP_THRESHOLD))
    if regime is Regime.HIGH_TEMP_FERMIONIC:
        value = a * omega * omega * (beta_s - beta)
        return LimitCurrent(value, a * omega * omega, max(0.0, max(x, x_s) - HIGH_TEMP_THRESHOLD))
    if regime is Regime.LOW_TEMP:
        value = -2.0 * omega * a * math.exp(model.q * x) * math.expm1(x - x_s)
        coeff = 2.0 * a * omega * omega * math.exp(model.q * x)
        return LimitCurrent(value, coeff, max(0.0, LOW_TEMP_THRESHOLD - min(x, x_s)))
    if regime is Regime.LOW_TEMP_LINEAR:
        coeff = 2.0 * a * omega * omega * math.exp(model.q * x)
        return LimitCurrent(coeff * (beta_s - beta), coeff, max(0.0, LOW_TEMP_THRESHOLD - min(x, x_s)))
    raise ParameterError(f"unknown regime: {regime!r}")


def conduction_ratio(q: float, x: float) -> float:
    """Quantum-to-classical fermionic conduction coefficient ratio 2*e^{q*x}.

    Equals one exactly on the |q|*x = ln 2 curve, exceeds one below it.
    """
    if not -1.0 < q < 0.0:
        raise ParameterError(f"q must lie in (-1, 0), got {q!r}")
    if not x > 0.0:
        raise ParameterError(f"x must be positive, got {x!r}")
    return 2.0 * math.exp(q * x)
