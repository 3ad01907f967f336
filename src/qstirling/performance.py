"""Cycle performance: power, cooling rate, entropy production, regime
closed forms, statistics-equivalence reports and power sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .cycles import (  # Mode stays importable from here
    STATUS_OK,
    EngineSpec,
    FridgeSpec,
    LinearEngineRegenerator,
    Mode,
    StrokeLedger,
    cycle_kind,
    cycle_ledger,
)
from .errors import ParameterError, SingularityError
from .quadrature import QuadratureConfig
from .relaxation import GevaKosloff
from .statistics import Statistics
from .timing import TimingReport, closed_form_cycle_time, cycle_time, regime_extents


@dataclass(frozen=True, slots=True)
class PerformanceReport:
    """Complete per-cycle result for one operating point.

    ``w_tot`` keeps the ledger sign convention (negative when the machine
    delivers work); ``power`` is |w_tot|/tau for both machine kinds, the
    cooling rate is fridge-only, and sigma = -(beta_h*q_h + beta_c*q_c)/tau.
    """

    kind: str
    statistics: Statistics
    ledger: StrokeLedger
    timing: TimingReport
    figure_of_merit: float
    power: float
    cooling_rate: float | None
    sigma: float
    tau: float
    regime: Mode
    status: str
    x_min: float
    x_max: float

    @property
    def q_h(self) -> float:
        return self.ledger.q_h

    @property
    def q_c(self) -> float:
        return self.ledger.q_c

    @property
    def w_tot(self) -> float:
        return self.ledger.w_tot


def cycle_performance(spec: EngineSpec | FridgeSpec, model: GevaKosloff, regen,
                      cfg: QuadratureConfig | None = None,
                      mode: Mode = Mode.EXACT) -> PerformanceReport:
    """Run the engine or refrigerator pipeline in the requested mode.

    EXACT combines the exact ledger with quadrature stroke times; LOW_TEMP
    and HIGH_TEMP evaluate the closed-form set the kind's stroke table lists
    for that mode (the engine has both, the refrigerator LOW_TEMP only; any
    other mode is rejected).  The refrigerator adds the cooling rate
    R = Q_c/tau.  Regime validity is reported via x_min/x_max, not enforced.
    SingularityError names a period that is not positive and finite, or a
    power, sigma, cooling rate or (at status ok) figure of merit that is not
    finite.  Every ledger heat feeds w_tot, hence power, or q_h and q_c,
    hence sigma, so a heat that is not finite is caught through them.
    """
    kind = cycle_kind(spec)
    if not isinstance(model, GevaKosloff):
        raise ParameterError("cycle pipelines require the Geva-Kosloff rate model")
    if mode is Mode.EXACT:
        cycle = cycle_ledger(spec)
        timing = cycle_time(spec, model, regen, cfg)
    else:
        cycle = kind.closed_form(mode)(spec)
        timing = closed_form_cycle_time(mode, spec, model, regen)
    ledger, tau = cycle.ledger, timing.tau
    if tau <= 0.0:
        raise SingularityError("cycle period underflowed to zero at these parameters")
    power = abs(ledger.w_tot) / tau
    cooling_rate = ledger.q_c / tau if kind.rate_column == "cooling_rate" else None
    sigma = -(spec.beta_h * ledger.q_h + spec.beta_c * ledger.q_c) / tau
    # a not-ok cycle's figure of merit is NaN by design
    merit = getattr(cycle, kind.merit) if cycle.status == STATUS_OK else 0.0
    for name, value in zip(("cycle period", "power", "sigma", "cooling_rate", kind.merit),
                           (tau, power, sigma, cooling_rate or 0.0, merit)):
        if not math.isfinite(value):
            raise SingularityError(f"{name} is not finite at these parameters: {value!r}")
    x_min, x_max = regime_extents(spec, regen)
    return PerformanceReport(
        kind=kind.name,
        statistics=spec.stat,
        ledger=ledger,
        timing=timing,
        figure_of_merit=getattr(cycle, kind.merit),
        power=power,
        cooling_rate=cooling_rate,
        sigma=sigma,
        tau=tau,
        regime=mode,
        status=cycle.status,
        x_min=x_min,
        x_max=x_max,
    )


engine_performance = fridge_performance = cycle_performance


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
    first = cycle_performance(spec_a, model, regen, cfg, mode)
    second = cycle_performance(spec_b, model, regen, cfg, mode)
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
    report = engine_performance(spec, template.model(), template.regenerator(),
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
