"""Bath-rate models and the heat current; relaxation dynamics and limiting
conduction laws live in :mod:`.studies`.

Both rate parametrizations obey detailed balance gamma_minus/gamma_plus =
exp(beta*omega) by construction: the decay rate is computed from the
excitation rate via a shared factor, so the ratio is exact to a couple of
ulp rather than merely to analytic identity.  That holds only where
exp(beta*omega) is finite and gamma_plus is a normal float: a subnormal one
has lost bits, and so has the ratio.  Past that the Geva-Kosloff decay rate
takes its own exponent.  A gamma_minus past the float range raises
ParameterError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ParameterError, require_positive
from .statistics import Statistics, require_statistics, weight_function

_LOG_MAX = math.log(sys.float_info.max)
_GK_DECAY = "a*e^{(1+q)*beta*omega}"

# Default regime windows: exp(-8) ~ 3e-4 keeps neglected terms sub-percent.
LOW_TEMP_THRESHOLD = 8.0
HIGH_TEMP_THRESHOLD = 0.1


@dataclass(frozen=True)
class GevaKosloff:
    """Bath coupling gamma_plus = a*e^{q*beta*omega}, gamma_minus = a*e^{(1+q)*beta*omega}.

    ``1/a`` sets the relaxation timescale, so a must be positive and finite;
    q must lie in (-1, 0) so that gamma_plus vanishes and gamma_minus
    diverges at zero temperature.
    """

    a: float
    q: float

    def __post_init__(self):
        require_positive({"a": self.a})
        if not -1.0 < self.q < 0.0:
            raise ParameterError(f"q must lie in (-1, 0), got {self.q!r}")

    def rates(self, beta: float, omega: float) -> tuple[float, float]:
        require_positive({"beta": beta, "omega": omega})
        x = beta * omega
        gamma_plus = self.a * math.exp(self.q * x)
        # the shared factor where e^x is finite and gamma_plus normal
        shared = x <= _LOG_MAX and gamma_plus >= sys.float_info.min
        return gamma_plus, _gamma_minus(
            lambda: gamma_plus * math.exp(x) if shared else self.a * math.exp((1.0 + self.q) * x),
            _GK_DECAY, x)


@dataclass(frozen=True)
class ThermalField:
    """Thermal radiation field with density of states rho(omega) = rho0*omega^m."""

    rho0: float
    m: float

    def __post_init__(self):
        require_positive({"rho0": self.rho0})
        if not math.isfinite(self.m):
            raise ParameterError(f"m must be finite, got {self.m!r}")

    def rates(self, stat: Statistics, beta: float, omega: float) -> tuple[float, float]:
        require_positive({"beta": beta, "omega": omega})
        require_statistics(stat)
        x = beta * omega
        gamma_minus = _gamma_minus(lambda: self.rho0 * omega ** self.m / weight_function(stat)(x),
                                   "rho0*omega^m/(1 -+ e^{-beta*omega})", x)
        return gamma_minus * math.exp(-x), gamma_minus


def _gamma_minus(rate, formula: str, x: float) -> float:
    """``rate()``, the decay rate ``formula``; ParameterError where it overflows (``rate``
    raises OverflowError or returns inf)."""
    try:
        gamma_minus = rate()
    except OverflowError:
        gamma_minus = math.inf
    if gamma_minus == math.inf:
        raise ParameterError(f"gamma_minus = {formula} overflows at beta*omega = {x!r}")
    return gamma_minus


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


def heat_current(stat: Statistics, model: GevaKosloff, beta: float, beta_s: float,
                 omega: float) -> float:
    """Instantaneous bath-to-medium heat flow at system temperature 1/beta_s.

    ``-2*omega*a*e^{q*beta*omega} * (e^{beta*omega} - e^{beta_s*omega}) / (e^{beta_s*omega} +- 1)``,
    evaluated through expm1 so large exponents cancel before they overflow.
    Positive when the bath is hotter than the medium (beta < beta_s).
    """
    if not isinstance(model, GevaKosloff):
        raise ParameterError("heat_current is defined for the Geva-Kosloff parametrization only")
    require_positive({"beta": beta, "beta_s": beta_s, "omega": omega})
    require_statistics(stat)
    x = beta * omega
    x_s = beta_s * omega
    growth = math.expm1(x - x_s)
    return -2.0 * omega * model.a * math.exp(model.q * x) * growth / weight_function(stat)(x_s)


def conduction_ratio(q: float, x: float) -> float:
    """Quantum-to-classical fermionic conduction coefficient ratio 2*e^{q*x}.

    Equals one exactly on the |q|*x = ln 2 curve, exceeds one below it.
    """
    if not -1.0 < q < 0.0:
        raise ParameterError(f"q must lie in (-1, 0), got {q!r}")
    if not x > 0.0:
        raise ParameterError(f"x must be positive, got {x!r}")
    return 2.0 * math.exp(q * x)
