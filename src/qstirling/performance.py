"""Cycle performance: power, cooling rate, entropy production and regime
closed forms; equivalence reports and power sweeps live in :mod:`.studies`."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cycles import (  # Mode stays importable from here
    STATUS_OK,
    EngineSpec,
    FridgeSpec,
    Mode,
    StrokeLedger,
    check_corner_overflow,
    cycle_kind,
    cycle_ledger,
)
from .errors import ParameterError, SingularityError
from .quadrature import QuadratureConfig
from .relaxation import GevaKosloff
from .statistics import Statistics
from .timing import TimingReport, closed_form_cycle_time, cycle_time, regime_extents


@dataclass(slots=True)
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
    hence sigma, so a heat that is not finite is caught through them.  A
    corner product beta*omega past the float range is the exact ledger's
    ParameterError in every mode.
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
    x_min, x_max = regime_extents(spec, regen)
    if x_max == math.inf:  # a closed-form set names a corner product as the ledger does
        check_corner_overflow(kind, spec)
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
