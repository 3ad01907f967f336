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
    EquivalenceReport,
    Mode,
    PerformanceReport,
    SweepRecord,
    SweepResult,
    SweepSummary,
    SweepTemplate,
    cycle_performance,
    engine_performance,
    equivalence_report,
    fridge_performance,
    power_sweep,
)
from .quadrature import QuadratureConfig, QuadratureResult, integrate
from .relaxation import (
    GevaKosloff,
    LimitCurrent,
    Regime,
    RelaxationSetup,
    ThermalField,
    conduction_ratio,
    equilibrium_population,
    heat_current,
    limit_heat_current,
    rates,
    relax,
    relaxation_rate,
)
from .statistics import (
    PathIntegral,
    PathSpec,
    Statistics,
    integrate_path,
    internal_energy,
    inverse_population,
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
