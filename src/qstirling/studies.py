"""Equivalence reports, power sweeps, the path oracle, relaxation dynamics and
limiting conduction laws: code the engine and fridge commands never import.

Each name stays an attribute of its home module (see ``qstirling/__init__.py``),
and the cycle pipeline is called through those modules at call time."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from . import performance, relaxation, statistics
from .cycles import EngineSpec, Mode
from .errors import ParameterError, require_positive
from .quadrature import QuadratureConfig
from .relaxation import HIGH_TEMP_THRESHOLD, LOW_TEMP_THRESHOLD, GevaKosloff
from .statistics import Statistics, internal_energy, require_statistics
from .timing import LinearEngineRegenerator

EQUIVALENCE_QUANTITIES = ("q_h", "q_c", "w_tot", "figure_of_merit", "power", "sigma", "tau")


@dataclass(frozen=True)
class EquivalenceReport:
    """Relative bosonic/fermionic deviations against the 2*e^{-x_min} bound."""

    deviations: dict
    bound: float
    x_min: float
    exceeding: tuple


def _relative_deviation(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def equivalence_report(spec_a, spec_b, model: GevaKosloff, regen,
                       cfg: QuadratureConfig | None = None,
                       mode: Mode = Mode.EXACT) -> EquivalenceReport:
    """Compare two specs that may differ only in their statistics.

    The relative deviation of every report quantity is tabulated against
    the theoretical low-temperature bound 2*e^{-x_min}; identical statistics
    trivially give zero deviations.
    """
    if type(spec_a) is not type(spec_b):
        raise ParameterError("specs must be of the same cycle kind")
    for field in spec_a.__dataclass_fields__:
        if field != "stat" and getattr(spec_a, field) != getattr(spec_b, field):
            raise ParameterError(f"specs differ in {field}; only the statistics may differ")
    first = performance.cycle_performance(spec_a, model, regen, cfg, mode)
    second = performance.cycle_performance(spec_b, model, regen, cfg, mode)
    quantities = EQUIVALENCE_QUANTITIES
    if first.cooling_rate is not None:
        quantities = quantities + ("cooling_rate",)
    deviations = {
        name: _relative_deviation(getattr(first, name), getattr(second, name))
        for name in quantities
    }
    bound = 2.0 * math.exp(-first.x_min)
    exceeding = tuple(name for name, dev in deviations.items() if dev > bound)
    return EquivalenceReport(deviations, bound, first.x_min, exceeding)


@dataclass(frozen=True)
class SweepTemplate:
    """Shape of the power sweep: every ratio fixed, only x = beta1*omega1 varies.

    The medium statistics is irrelevant because the sweep evaluates the
    statistics-independent low-temperature closed forms.
    """

    beta2_ratio: float
    omega2_ratio: float
    alpha_h: float
    alpha_c: float
    gamma1: float
    gamma2: float
    q: float
    a: float = 1.0

    def __post_init__(self):
        if not self.beta2_ratio > 1.0 or not self.omega2_ratio > 1.0:
            raise ParameterError("beta2_ratio and omega2_ratio must exceed 1")
        if not 0.0 < self.alpha_h < 1.0:
            raise ParameterError("alpha_h must lie in (0, 1)")
        if not self.alpha_c > 1.0:
            raise ParameterError("alpha_c must exceed 1")

    def engine_spec(self, x: float) -> EngineSpec:
        """Engine spec at scaled point x, with omega1 = 1 as reference energy."""
        beta1 = x
        beta2 = self.beta2_ratio * x
        return EngineSpec(
            stat=Statistics.BOSONIC,
            omega1=1.0,
            omega2=self.omega2_ratio,
            beta_h=self.alpha_h * beta1,
            beta1=beta1,
            beta2=beta2,
            beta_c=self.alpha_c * beta2,
        )

    def model(self) -> GevaKosloff:
        return GevaKosloff(self.a, self.q)

    def regenerator(self) -> LinearEngineRegenerator:
        return LinearEngineRegenerator(self.gamma1, self.gamma2)

    def curzon_ahlborn_bound(self) -> float:
        """1 - sqrt(T_c/T_h); constant along the sweep since ratios are fixed."""
        return 1.0 - math.sqrt(self.alpha_h / (self.alpha_c * self.beta2_ratio))


@dataclass(frozen=True)
class SweepRecord:
    x: float
    eta: float
    p_star: float
    ca_bound: float
    ref_curve: float


@dataclass(frozen=True)
class SweepSummary:
    """Power-maximum location after one bisection refinement pass.

    The reference curve 1/(1+x) is the leading-order low-temperature
    efficiency; the closed-form eta keeps every exponential and approaches it
    from above, so eta_below_ref_curve is False for the shipped template
    (omega2_ratio = beta2_ratio = 2).  The constant Curzon-Ahlborn bound is
    reported alongside because the two are easy to conflate and the
    comparisons genuinely disagree.
    """

    x_star: float
    p_star_max: float
    eta_at_max: float
    ca_bound: float
    ref_curve_at_max: float
    eta_below_ref_curve: bool
    eta_below_ca_bound: bool
    grid_argmax_x: float


@dataclass(frozen=True)
class SweepResult:
    records: tuple
    summary: SweepSummary


def _sweep_point(template: SweepTemplate, x: float) -> tuple[float, float]:
    spec = template.engine_spec(x)
    report = performance.engine_performance(spec, template.model(), template.regenerator(),
                                            mode=Mode.LOW_TEMP)
    p_star = report.power * spec.beta1 / template.a
    return report.figure_of_merit, p_star


def power_sweep(template: SweepTemplate, grid: Sequence[float]) -> SweepResult:
    """Sweep x = beta1*omega1 over a strictly increasing positive grid.

    Emits eta, dimensionless power P* = P/(a*k_B*T1), the constant
    Curzon-Ahlborn bound and the 1/(1+x) reference per point; the summary
    refines the grid argmax (ties toward smaller x) with one bisection pass.
    """
    xs = [float(x) for x in grid]
    if not xs:
        raise ParameterError("sweep grid must not be empty")
    if xs[0] <= 0.0:
        raise ParameterError("sweep grid must be positive")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ParameterError("sweep grid must be strictly increasing")
    ca = template.curzon_ahlborn_bound()
    records = []
    for x in xs:
        eta, p_star = _sweep_point(template, x)
        records.append(SweepRecord(x, eta, p_star, ca, 1.0 / (1.0 + x)))
    best = max(range(len(records)), key=lambda i: (records[i].p_star, -records[i].x))
    candidates = [(records[best].x, records[best].p_star, records[best].eta)]
    for neighbour in (best - 1, best + 1):
        if 0 <= neighbour < len(records):
            mid = 0.5 * (records[best].x + records[neighbour].x)
            eta, p_star = _sweep_point(template, mid)
            candidates.append((mid, p_star, eta))
    candidates.sort(key=lambda c: (-c[1], c[0]))
    x_star, p_max, eta_star = candidates[0]
    ref = 1.0 / (1.0 + x_star)
    summary = SweepSummary(
        x_star=x_star,
        p_star_max=p_max,
        eta_at_max=eta_star,
        ca_bound=ca,
        ref_curve_at_max=ref,
        eta_below_ref_curve=eta_star < ref,
        eta_below_ca_bound=eta_star < ca,
        grid_argmax_x=records[best].x,
    )
    return SweepResult(tuple(records), summary)


@dataclass(frozen=True)
class PathSpec:
    """Piecewise-smooth control path ``u -> (omega(u), beta_s(u))``, u in [0, 1].

    Both callables must accept numpy arrays and stay positive on [0, 1].
    """

    stat: Statistics
    omega: Callable
    beta: Callable
    step_count: int


class PathIntegral(NamedTuple):
    delta_e: float
    heat: float
    work: float


def integrate_path(path: PathSpec) -> PathIntegral:
    """Midpoint-rule discretization of dQ = omega*dn and dW = (n +- 1/2)*domega.

    Returns ``(delta_e, heat, work)`` with ``delta_e`` evaluated from the
    endpoint internal energies; ``heat + work`` converges to it at second
    order in ``1/step_count``.

    The work is ordered so that each ``step_count``-long array dies as soon
    as its last use is done: about five are alive at once.  Arrays the path
    callables return are only read.
    """
    import numpy as np

    if path.step_count < 2:
        raise ParameterError("step_count must be at least 2")
    u = np.linspace(0.0, 1.0, path.step_count + 1)
    omega = _on_path(path.omega, u)
    x = _on_path(path.beta, u) * omega
    d_omega = np.diff(omega)
    omega_ends = omega[0], omega[-1]
    del omega
    n = statistics.population(path.stat, x)
    del x
    d_n = np.diff(n)
    n_ends = n[0], n[-1]
    del n
    mid = 0.5 * (u[:-1] + u[1:])
    del u
    omega_mid = _on_path(path.omega, mid)
    heat = float(np.sum(np.multiply(omega_mid, d_n, out=d_n)))
    del d_n
    x = _on_path(path.beta, mid) * omega_mid
    del mid, omega_mid
    n_mid = statistics.population(path.stat, x)
    del x
    n_mid += 0.5 if path.stat is Statistics.BOSONIC else -0.5
    work = float(np.sum(np.multiply(n_mid, d_omega, out=n_mid)))
    delta_e = float(
        internal_energy(path.stat, omega_ends[1], n_ends[1])
        - internal_energy(path.stat, omega_ends[0], n_ends[0])
    )
    return PathIntegral(delta_e, heat, work)


def _on_path(func: Callable, u):
    """``func(u)`` as a float array, rejected unless positive everywhere."""
    import numpy as np

    values = np.asarray(func(u), dtype=float)
    if np.any(values <= 0.0):
        raise ParameterError("omega(u) and beta_s(u) must stay positive on [0, 1]")
    return values


@dataclass(frozen=True)
class RelaxationSetup:
    """One relaxation scenario: medium, bath model, bath state and initial occupation."""

    stat: Statistics
    model: relaxation.RateModel
    beta: float
    omega: float
    n0: float

    def __post_init__(self):
        require_statistics(self.stat)
        require_positive({"beta": self.beta, "omega": self.omega})
        if self.n0 < 0.0 or (self.stat is Statistics.FERMIONIC and self.n0 > 0.5):
            raise ParameterError("n0 outside the statistics domain")
        if relaxation.relaxation_rate(self) <= 0.0:
            raise ParameterError("relaxation rate must be positive")


def relaxation_rate(setup: RelaxationSetup) -> float:
    """Exponential rate 2*(gamma_minus - gamma_plus) bosonic, 2*(gamma_minus + gamma_plus) fermionic.

    The bosonic difference is positive by detailed balance.
    """
    gamma_plus, gamma_minus = relaxation.rates(setup.model, setup.beta, setup.omega, setup.stat)
    if setup.stat is Statistics.BOSONIC:
        return 2.0 * (gamma_minus - gamma_plus)
    return 2.0 * (gamma_minus + gamma_plus)


def equilibrium_population(setup: RelaxationSetup) -> float:
    """Stationary occupation; equals population(stat, beta*omega) by detailed balance."""
    return statistics.population(setup.stat, setup.beta * setup.omega)


def relax(setup: RelaxationSetup, t: float) -> float:
    """Occupation n(t) = n_eq + (n0 - n_eq) * exp(-rate * t) for t >= 0."""
    if t < 0.0:
        raise ParameterError("time must be nonnegative")
    n_eq = relaxation.equilibrium_population(setup)
    return n_eq + (setup.n0 - n_eq) * math.exp(-relaxation.relaxation_rate(setup) * t)


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
    require_positive({"beta": beta, "beta_s": beta_s, "omega": omega})
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
