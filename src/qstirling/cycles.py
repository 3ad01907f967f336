"""Quasistatic stroke heats, regenerator bookkeeping and figures of merit.

Cycle corners follow the n-omega diagrams: the engine visits
A(omega2, T1) -> B(omega1, T1) -> C(omega1, T2) -> D(omega2, T2) -> A,
absorbing heat on the hot isotherm A->B; the refrigerator runs the same
corners in reverse, A -> D -> C -> B -> A.  Both are described by one
stroke table (:data:`ENGINE`, :data:`FRIDGE`) that the ledger, timing,
performance and CLI layers iterate; it also names each kind's regenerator
class and the regime closed-form sets that exist for it.  Every heat is signed into the
working medium.  The ledger stores ``w_tot = -(sum of stroke heats)``,
which is negative when the cycle delivers net work (engine) and positive
when work is consumed (refrigerator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .errors import OrderingError, ParameterError, require_positive
from .statistics import Statistics, log_weight, population, require_statistics

STATUS_OK = "ok"
STATUS_NOT_AN_ENGINE = "not_an_engine"
STATUS_NOT_A_REFRIGERATOR = "not_a_refrigerator"


class Mode(Enum):
    """Pipeline selector: exact quadrature or a regime closed-form set."""

    EXACT = "exact"
    LOW_TEMP = "low_temp"
    HIGH_TEMP = "high_temp"


def isothermal_heat(stat: Statistics, temperature: float, omega_i: float, omega_f: float) -> float:
    """Heat absorbed while the frequency sweeps omega_i -> omega_f at fixed T_s.

    Closed form of ``integral omega dn`` along an isotherm:
    ``omega_f n_f - omega_i n_i +- T ln[(1 +- e^{-omega_f/T})/(1 +- e^{-omega_i/T})]``.
    Antisymmetric under swapping the endpoints.
    """
    require_positive({"temperature": temperature, "omega_i": omega_i, "omega_f": omega_f})
    return _isotherm_heat(temperature, omega_i, _corner(stat, omega_i / temperature),
                          omega_f, _corner(stat, omega_f / temperature))


def isochoric_heat(stat: Statistics, omega: float, t_i: float, t_f: float) -> float:
    """Heat absorbed at fixed frequency while T_s moves t_i -> t_f: omega*(n_f - n_i)."""
    require_positive({"omega": omega, "t_i": t_i, "t_f": t_f})
    return _isochore_heat(omega, population(stat, omega / t_i), population(stat, omega / t_f))


def _corner(stat: Statistics, x: float) -> tuple[float, float]:
    """Occupation and log weight at ``x``; population goes first and rejects x outside (0, inf)."""
    return population(stat, x), log_weight(stat, x)


def _isotherm_heat(temperature: float, omega_i: float, corner_i: tuple,
                   omega_f: float, corner_f: tuple) -> float:
    """Isotherm heat from the (occupation, log weight) pairs of its two ends."""
    (n_i, lw_i), (n_f, lw_f) = corner_i, corner_f
    return omega_f * n_f - omega_i * n_i + temperature * (lw_f - lw_i)


def _isochore_heat(omega: float, n_i: float, n_f: float) -> float:
    """Isochore heat from the occupations of its two ends."""
    return omega * (n_f - n_i)


def _validate_spec(spec):
    # the fields after stat: omega1, omega2, then the four inverse
    # temperatures in the ascending order each cycle kind requires
    require_statistics(spec.stat)
    numeric = vars(spec).copy()
    del numeric["stat"]
    require_positive(numeric)
    omega1, omega2, first, second, third, fourth = numeric.values()
    if not (omega1 < omega2 and first < second < third < fourth):
        items = list(numeric.items())
        violated = [f"{a} < {b}" for (a, lo), (b, hi) in zip(items, items[1:])
                    if a != "omega2" and not lo < hi]
        raise OrderingError(f"{type(spec).__name__} ordering violated: requires "
                            + ", ".join(violated))


@dataclass(frozen=True)
class EngineSpec:
    """Engine cycle parameters; temperatures obey T_h > T_1 > T_2 > T_c.

    Equivalently beta_h < beta1 < beta2 < beta_c, with omega1 < omega2.
    """

    stat: Statistics
    omega1: float
    omega2: float
    beta_h: float
    beta1: float
    beta2: float
    beta_c: float

    def __post_init__(self):
        _validate_spec(self)


@dataclass(frozen=True)
class FridgeSpec:
    """Refrigerator cycle parameters; T'_1 > T_h > T_c > T'_2.

    Equivalently beta1p < beta_h < beta_c < beta2p, with omega1 < omega2.
    """

    stat: Statistics
    omega1: float
    omega2: float
    beta1p: float
    beta_h: float
    beta_c: float
    beta2p: float

    def __post_init__(self):
        _validate_spec(self)


def _require_slopes(regen):
    # both regenerators: first slope above 1, second in (0, 1)
    (name1, slope1), (name2, slope2) = vars(regen).items()
    if not slope1 > 1.0:
        raise ParameterError(f"{name1} must exceed 1, got {slope1!r}")
    if slope1 == math.inf:
        raise ParameterError(f"{name1} must be finite, got {slope1!r}")
    if not 0.0 < slope2 < 1.0:
        raise ParameterError(f"{name2} must lie in (0, 1), got {slope2!r}")


@dataclass(frozen=True)
class LinearEngineRegenerator:
    """Regenerator temperature proportional to the medium's: beta_r = c*beta_s.

    gamma1 > 1 keeps the regenerator colder than the medium while it absorbs
    heat on the low-frequency isochore; gamma2 < 1 keeps it hotter while it
    returns heat on the high-frequency one.
    """

    gamma1: float
    gamma2: float

    def __post_init__(self):
        _require_slopes(self)


@dataclass(frozen=True)
class LinearFridgeRegenerator:
    """Refrigerator analogue with beta'_1r = b*beta_s and beta'_2r = bp*beta_s.

    b > 1 keeps the regenerator colder than the medium while it absorbs heat
    on the high-frequency isochore; 0 < bp < 1 keeps it hotter while it
    returns heat on the low-frequency one.
    """

    b: float
    bp: float

    def __post_init__(self):
        _require_slopes(self)


@dataclass(slots=True)
class StrokeLedger:
    """Per-cycle heat bookkeeping.

    ``delta_q`` is the regenerator imbalance and ``delta`` the switch that
    selects which bath compensates it.  ``q_h``/``q_c`` are the net heats
    exchanged with the hot/cold baths after compensation, and
    ``w_tot = -(q_iso_hot + q_iso_cold + q_isochore_low + q_isochore_high)``.
    """

    q_iso_hot: float
    q_iso_cold: float
    q_isochore_low: float
    q_isochore_high: float
    delta_q: float
    delta: int
    q_h: float
    q_c: float
    w_tot: float


@dataclass(slots=True)
class EngineCycle:
    ledger: StrokeLedger
    eta: float
    status: str


@dataclass(slots=True)
class FridgeCycle:
    ledger: StrokeLedger
    epsilon: float
    status: str


class Stroke(NamedTuple):
    """One branch of a cycle; attribute names refer to the spec unless noted.

    An isotherm holds the medium inverse temperature ``fixed`` while the
    frequency runs ``start`` -> ``end`` against the bath ``drive``; an
    isochore holds the frequency ``fixed`` while the medium inverse
    temperature runs ``start`` -> ``end`` against the regenerator slope
    ``drive`` (an attribute of the regenerator).
    """

    label: str
    heat: str         # StrokeLedger field
    isotherm: bool
    fixed: str
    start: str
    end: str
    drive: str


def _assemble(kind: CycleKind, q_iso_hot: float, q_iso_cold: float, q_isochore_low: float,
              q_isochore_high: float, delta: int | None = None):
    """Ledger and figure of merit from the four stroke heats.

    ``delta`` defaults to the flag the imbalance itself sets; closed-form
    sets with a regenerator branch baked in pass it explicitly.
    """
    heat_sum = kind.heat_sum(q_iso_hot, q_iso_cold, q_isochore_low, q_isochore_high)
    delta_q = q_isochore_low + q_isochore_high
    if delta is None:
        delta = 1 if kind.delta_sign * delta_q > 0.0 else 0
    to_hot = delta if kind.delta_sign > 0.0 else 1 - delta
    q_h = q_iso_hot + to_hot * delta_q
    q_c = q_iso_cold + (1 - to_hot) * delta_q
    ledger = StrokeLedger(q_iso_hot, q_iso_cold, q_isochore_low, q_isochore_high,
                          delta_q, delta, q_h, q_c, -heat_sum)
    gain, cost = kind.merit_terms(ledger)
    if gain <= 0.0 or cost <= 0.0:
        return kind.cycle(ledger, float("nan"), kind.not_ok)
    return kind.cycle(ledger, gain / cost, STATUS_OK)


def _low_temp_engine_cycle(spec: EngineSpec) -> EngineCycle:
    """Low-temperature closed-form set, evaluated literally.

    The set has the delta = 0 regenerator branch baked in (the imbalance is
    negative inside the validity window, and sweep plots extend the
    same equations below it), so Q_h is the hot-isotherm form and the full
    imbalance is vented to the cold bath.
    """
    b1, b2, w1, w2 = spec.beta1, spec.beta2, spec.omega1, spec.omega2
    e11 = math.exp(-b1 * w1)
    e12 = math.exp(-b1 * w2)
    e21 = math.exp(-b2 * w1)
    e22 = math.exp(-b2 * w2)
    q_ab = (w1 + 1.0 / b1) * e11 - (w2 + 1.0 / b1) * e12
    q_cd = w2 * e22 - w1 * e21 + (e22 - e21) / b2
    q_bc = w1 * (e21 - e11)
    q_da = w2 * (e12 - e22)
    return _assemble(ENGINE, q_ab, q_cd, q_bc, q_da, delta=0)


def _high_temp_engine_cycle(spec: EngineSpec) -> EngineCycle:
    b1, b2, w1, w2 = spec.beta1, spec.beta2, spec.omega1, spec.omega2
    if spec.stat is Statistics.BOSONIC:
        # equipartition: perfect regeneration, Carnot-like efficiency
        log_w = math.log(w2 / w1)
        q_ab = log_w / b1
        q_cd = -log_w / b2
        q_bc = 1.0 / b2 - 1.0 / b1
        q_da = 1.0 / b1 - 1.0 / b2
    else:
        # two-level medium: regeneration deficit charged to the hot bath
        span = w2 * w2 - w1 * w1
        q_ab = b1 * span / 8.0
        q_cd = -b2 * span / 8.0
        q_bc = w1 * w1 * (b1 - b2) / 4.0
        q_da = w2 * w2 * (b2 - b1) / 4.0
    return _assemble(ENGINE, q_ab, q_cd, q_bc, q_da)


def _low_temp_fridge_cycle(spec: FridgeSpec) -> FridgeCycle:
    """Low-temperature closed-form set for the refrigerator, delta = 0 baked in
    (the imbalance is positive inside the window, so the cooling heat is the
    undisturbed cold-isotherm form and the deficit is charged to the hot bath)."""
    b1p, b2p, w1, w2 = spec.beta1p, spec.beta2p, spec.omega1, spec.omega2
    e11 = math.exp(-b1p * w1)
    e12 = math.exp(-b1p * w2)
    e21 = math.exp(-b2p * w1)
    e22 = math.exp(-b2p * w2)
    q_ba = w2 * e12 - w1 * e11 + (e12 - e11) / b1p
    q_dc = w1 * e21 - w2 * e22 + (e21 - e22) / b2p
    q_cb = w1 * (e11 - e21)
    q_ad = w2 * (e22 - e12)
    return _assemble(FRIDGE, q_ba, q_dc, q_cb, q_ad, delta=0)


class CycleKind(NamedTuple):
    """Everything that distinguishes the engine from the refrigerator.

    ``strokes`` are in output order (t1..t4).  ``regen`` is the regenerator
    class whose slopes drive the isochores, and ``closed_forms`` maps each
    regime ``Mode`` that has a closed-form set to its ledger function; no
    other closed-form set exists.  ``heat_sum`` adds the stroke heats (hot,
    cold, low, high) into -w_tot in the kind's own order, which the outputs
    depend on bitwise.  The regenerator imbalance goes to the hot bath when
    positive and to the cold bath otherwise; ``delta = 1`` flags
    ``delta_sign * delta_q > 0``.  ``merit_terms`` returns the (gain, cost)
    whose ratio is the figure of merit, and ``rate_column`` names the
    twelfth CSV column.
    """

    name: str
    machine: str
    spec: type
    regen: type
    strokes: tuple
    closed_forms: dict
    heat_sum: Callable[[float, float, float, float], float]
    delta_sign: float
    merit: str
    merit_terms: Callable[[StrokeLedger], tuple]
    rate_column: str
    cycle: type
    not_ok: str

    def stroke(self, heat: str) -> Stroke:
        """The stroke whose heat lands in ledger field ``heat``."""
        return next(s for s in self.strokes if s.heat == heat)

    def closed_form(self, mode: Mode) -> Callable:
        """The ledger function of the closed-form set for ``mode``; ParameterError if none."""
        ledger = self.closed_forms.get(mode)
        if ledger is None:
            regime = getattr(mode, "value", repr(mode)).replace("_temp", "-temperature")
            raise ParameterError(f"no {regime} closed forms exist for the {self.machine}")
        return ledger


ENGINE = CycleKind(
    name="engine", machine="engine", spec=EngineSpec, regen=LinearEngineRegenerator,
    strokes=(Stroke("A->B", "q_iso_hot", True, "beta1", "omega2", "omega1", "beta_h"),
             Stroke("B->C", "q_isochore_low", False, "omega1", "beta1", "beta2", "gamma1"),
             Stroke("C->D", "q_iso_cold", True, "beta2", "omega1", "omega2", "beta_c"),
             Stroke("D->A", "q_isochore_high", False, "omega2", "beta2", "beta1", "gamma2")),
    closed_forms={Mode.LOW_TEMP: _low_temp_engine_cycle, Mode.HIGH_TEMP: _high_temp_engine_cycle},
    heat_sum=lambda hot, cold, low, high: hot + low + cold + high,
    delta_sign=1.0, merit="eta", merit_terms=lambda ledger: (-ledger.w_tot, ledger.q_h),
    rate_column="sigma", cycle=EngineCycle, not_ok=STATUS_NOT_AN_ENGINE)

FRIDGE = CycleKind(
    name="fridge", machine="refrigerator", spec=FridgeSpec, regen=LinearFridgeRegenerator,
    strokes=(Stroke("D->C", "q_iso_cold", True, "beta2p", "omega2", "omega1", "beta_c"),
             Stroke("C->B", "q_isochore_low", False, "omega1", "beta2p", "beta1p", "bp"),
             Stroke("B->A", "q_iso_hot", True, "beta1p", "omega1", "omega2", "beta_h"),
             Stroke("A->D", "q_isochore_high", False, "omega2", "beta1p", "beta2p", "b")),
    closed_forms={Mode.LOW_TEMP: _low_temp_fridge_cycle},
    heat_sum=lambda hot, cold, low, high: hot + cold + low + high,
    delta_sign=-1.0, merit="epsilon", merit_terms=lambda ledger: (ledger.q_c, ledger.w_tot),
    rate_column="cooling_rate", cycle=FridgeCycle, not_ok=STATUS_NOT_A_REFRIGERATOR)

CYCLE_KINDS = {kind.name: kind for kind in (ENGINE, FRIDGE)}
# the distinct (beta, omega) spec attribute pairs at the stroke ends, in stroke order
_CORNERS = {kind.name: tuple(dict.fromkeys(
    (fixed, corner) if isotherm else (corner, fixed)
    for _, _, isotherm, fixed, start, end, _ in kind.strokes for corner in (start, end)))
    for kind in (ENGINE, FRIDGE)}
_KIND_OF_SPEC = {kind.spec: kind for kind in (ENGINE, FRIDGE)}


def cycle_kind(spec: EngineSpec | FridgeSpec) -> CycleKind:
    """The stroke table of the cycle kind that ``spec`` parametrizes."""
    kind = _KIND_OF_SPEC.get(type(spec))
    if kind is None:
        raise ParameterError(f"expected an EngineSpec or FridgeSpec, got {type(spec).__name__}")
    return kind


def _out_of_range(beta: str, omega: str, v: dict, x: float) -> ParameterError:
    return ParameterError(f"{beta}*{omega} {'overflows' if x else 'underflows'}: "
                          f"{v[beta]!r} * {v[omega]!r} = {x!r}")


def check_corner_overflow(kind: CycleKind, spec: EngineSpec | FridgeSpec) -> None:
    """Raise :func:`cycle_ledger`'s error for the first corner product of ``spec`` that overflows.

    The closed-form sets need no more: they form beta*omega itself, which
    stays in range where the ledger's omega/(1/beta) underflows.
    """
    v = vars(spec)
    for beta, omega in _CORNERS[kind.name]:
        x = v[omega] / (1.0 / v[beta])
        if x == math.inf:
            raise _out_of_range(beta, omega, v, x)


def cycle_ledger(spec: EngineSpec | FridgeSpec) -> EngineCycle | FridgeCycle:
    """Assemble the exact stroke heats and the figure of merit of either cycle kind.

    The engine's efficiency is eta = -W_tot/Q_h; the refrigerator's COP is
    epsilon = Q_c/W_tot.  A positive imbalance ``delta_q`` (the two
    isochore heats) is charged to the hot bath, a negative one dumped into
    the cold bath.  The engine flags the first with delta = 1, the
    refrigerator the second, where the vented surplus reduces the useful
    cooling heat; perfect regeneration keeps delta = 0.

    The heats depend on the spec only through the four corner occupations,
    so each corner's occupation and log weight is evaluated once: four
    ``population`` calls per ledger, not one per stroke end.
    """
    kind, v, stat = cycle_kind(spec), vars(spec), spec.stat
    # (beta, omega) attribute pair -> omega/(1/beta), 0 where 1/beta overflows;
    # all are checked before any occupation, whose overflow is named second
    products = {}
    for beta, omega in _CORNERS[kind.name]:
        x = products[beta, omega] = v[omega] / (1.0 / v[beta])
        if not 0.0 < x < math.inf:
            raise _out_of_range(beta, omega, v, x)
    # (beta, omega) attribute pair -> (occupation, log weight)
    corners = {}
    for (beta, omega), x in products.items():
        try:
            corners[beta, omega] = _corner(stat, x)
        except ParameterError as exc:  # x is in range, so the occupation overflowed
            raise ParameterError(f"{beta}*{omega} = {v[beta]!r} * {v[omega]!r} = {x!r}: "
                                 f"{exc}") from exc
    heats = {}
    for _, heat, isotherm, fixed, start, end, _ in kind.strokes:
        if isotherm:
            heats[heat] = _isotherm_heat(1.0 / v[fixed], v[start], corners[fixed, start],
                                         v[end], corners[fixed, end])
        else:
            heats[heat] = _isochore_heat(v[fixed], corners[start, fixed][0],
                                         corners[end, fixed][0])
    return _assemble(kind, **heats)


engine_ledger = fridge_ledger = cycle_ledger


def work_closed_form(spec: EngineSpec | FridgeSpec) -> float:
    """Signed total work from the two-isotherm closed form (ledger convention)."""
    lw = lambda x: log_weight(spec.stat, x)
    v, terms = vars(spec), []
    for _, _, isotherm, fixed, start, end, _ in cycle_kind(spec).strokes:
        if isotherm:
            beta = v[fixed]
            terms.append((lw(beta * v[end]) - lw(beta * v[start])) / beta)
    return -(terms[0] + terms[1])


engine_work_closed_form = fridge_work_closed_form = work_closed_form


def engine_carnot_bound(spec: EngineSpec) -> float:
    """Upper efficiency bound 1 - T_c/T_h set by the bath temperatures."""
    return 1.0 - spec.beta_h / spec.beta_c
