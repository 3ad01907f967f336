"""Finite-time thermodynamics of regenerative bosonic and fermionic Stirling cycles."""

from .cycles import (
    STATUS_NOT_A_REFRIGERATOR,
    STATUS_NOT_AN_ENGINE,
    STATUS_OK,
    EngineCycle,
    EngineSpec,
    FridgeCycle,
    FridgeSpec,
    StrokeLedger,
    cycle_ledger,
    engine_carnot_bound,
    engine_ledger,
    engine_work_closed_form,
    fridge_ledger,
    fridge_work_closed_form,
    isochoric_heat,
    isothermal_heat,
    work_closed_form,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    OrderingError,
    ParameterError,
    SingularityError,
)
from .performance import (
    Mode,
    PerformanceReport,
    cycle_performance,
    engine_performance,
    fridge_performance,
)
from .quadrature import QuadratureConfig, QuadratureResult, integrate
from .relaxation import (
    GevaKosloff,
    ThermalField,
    conduction_ratio,
    heat_current,
    rates,
)
from .statistics import (
    Statistics,
    internal_energy,
    population,
)
from .timing import (
    LinearEngineRegenerator,
    LinearFridgeRegenerator,
    StrokeTime,
    TimingReport,
    closed_form_cycle_time,
    cycle_time,
    engine_cycle_time,
    engine_regime_extents,
    fridge_cycle_time,
    fridge_regime_extents,
    isochoric_time,
    isothermal_time,
    regime_extents,
)

__version__ = "0.1.0"


# what .studies defines, by the home module whose PEP 562 __getattr__ hands it
# out and binds it there on first use; `engine` and `fridge` never load .studies
_STUDY_NAMES = {
    performance: ("EQUIVALENCE_QUANTITIES", "EquivalenceReport", "_relative_deviation",
                  "equivalence_report", "SweepTemplate", "SweepRecord", "SweepSummary",
                  "SweepResult", "_sweep_point", "power_sweep"),
    relaxation: ("RelaxationSetup", "relaxation_rate", "equilibrium_population", "relax",
                 "Regime", "LimitCurrent", "limit_heat_current"),
    statistics: ("PathSpec", "PathIntegral", "integrate_path", "_on_path"),
}


def _home_getattr(home, names):
    def __getattr__(name):
        if name not in names:
            raise AttributeError(f"module {home.__name__!r} has no attribute {name!r}")
        from . import studies

        value = vars(home)[name] = getattr(studies, name)
        return value
    return __getattr__


for _home, _names in _STUDY_NAMES.items():
    _home.__getattr__ = _home_getattr(_home, _names)
del _home, _names


def __getattr__(name):
    # not bound here, so a function rebound on its home module is the one seen
    for home, names in _STUDY_NAMES.items():
        if name in names:
            return getattr(home, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
