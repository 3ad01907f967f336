"""Finite-time stroke durations and closed-form cycle periods.

Stroke times follow from integrating the population rate equation along
each branch.  All integrands share the structure

    1 / [ e^{q*beta*omega} * (e^{beta*omega} - e^{beta_s*omega}) * (1 +- e^{-beta_s*omega}) ]

where ``beta`` is the bath (isotherms) or regenerator (isochores) inverse
temperature.  Every stroke of the cycles is linear in its integration
variable u: x = A*u and x_s = B*u, with u = omega, A = beta, B = beta_s on
isotherms and u = beta_s, A = c*omega, B = omega on isochores, whose
regenerator is linear, beta_r = c*beta_s.  A stroke is summed as an
exponential series (:mod:`qstirling.series`) to machine precision when that
fits ``SERIES_TERM_BUDGET`` terms.  One whose every product stays below
2^-60 takes the high-temperature form, exact there to rounding, and one
that starts below u* = 2^-60/max(A, B) is split there, that form taking the
head.  Any other range is integrated in the anchored log variable
v = ln(u/lo), where the integrand times u is nearly flat: by Gauss-Legendre,
again to machine precision, where a node count fixed a priori from the
integrand's poles is small, and by adaptive GK15 otherwise, which no pool
stroke needs: a range whose ends lie more than about 100-fold apart, the
rest of a split stroke or a cold stroke from a value 1,000-fold its
neighbour's.  The gap ``x - x_s`` is carried as ``(A - B)*u``, so a slope
within ulps of 1 keeps its digits.  In the integrand in v the exponential
difference is taken as ``e^{max} * (1 - e^{-|gap|})``, e^{max} kept out of
the quotient, so large products never overflow.  Every method sums the
stroke's magnitude over its ascending range; the sweep direction is checked
once, before any of them: a stroke run away from the equilibrium its bath
or regenerator drives would take a negative time, and is rejected.  Each
method's error estimate is held to ``rel_tol`` times its duration t, and a
quadrature's to ``max(rel_tol*t, abs_tol*2^(k-1)/a)``, GK15's own rule, with
2^(k-1)/a the stroke's leading term rounded up to a power of two: one that
misses it raises a ``ConvergenceError`` at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import exp, expm1, inf
from typing import Iterator, NamedTuple

from .cycles import (  # the regenerator classes stay importable from here
    EngineSpec,
    FridgeSpec,
    LinearEngineRegenerator,
    LinearFridgeRegenerator,
    Mode,
    cycle_kind,
)
from .errors import ConvergenceError, ParameterError, SingularityError, require_positive
from .quadrature import (ROUNDOFF_FLOOR, QuadratureConfig, QuadratureResult, gauss_legendre,
                         integrate)
from .relaxation import _LOG_MAX, GevaKosloff
from .series import integrate_linear, leading_exponential
from .statistics import Statistics, require_statistics, weight_function

_EPS, _MIN = sys.float_info.epsilon, sys.float_info.min
# below this largest product the high-temperature integrand is exact to rounding
_HIGH_TEMP_EXACT = 2.0 ** -60
# Gauss-Legendre takes a declined stroke needing at most this many nodes.  The
# benchmark's seed-0 pools need at most 23 (exact_crossover) and 31
# (exact_lowtemp), so GK15 takes no pool stroke.  It keeps what no count fixed in
# advance covers: a range whose ends lie more than about 100-fold apart (even a
# hot stroke needs more than 32 nodes past ln(hi/lo) = 4.5).  Among the inputs
# of tools/output_parity.py only the rests of its four split float-range STROKES
# and of 2 of its 1,433 config mutations (omega1 set to 1e-310 or 5e-324), and
# the cold strokes of 19 more (a value set to 1e308 or 1_000), make one.
# _LOG_TARGET: ln(32/15 / eps), Theorem 4.5's constant over the error target
# eps (see _gauss_legendre); _GL_ERROR: that target plus GK15's round-off
# floor, relative to the stroke
_GL_MAX_NODES = 32
_LOG_TARGET, _LN2, _GL_ERROR = math.log(32.0 / 15.0 / _EPS), math.log(2.0), _EPS + ROUNDOFF_FLOOR


class StrokeTime(NamedTuple):
    duration: float
    error_estimate: float


@dataclass(slots=True)
class TimingReport:
    """Stroke durations in cycle order plus each one's error estimate.

    A series stroke reports a bound (its tail bound plus a rounding
    allowance); a Gauss-Legendre stroke its a-priori truncation bound plus
    GK15's round-off floor; a GK15 stroke the quadrature's error estimate.
    """

    t1: float
    t2: float
    t3: float
    t4: float
    tau: float
    error_estimates: tuple[float, float, float, float]


def isothermal_time(stat: Statistics, model: GevaKosloff, beta: float, beta_s: float,
                    omega_i: float, omega_f: float,
                    cfg: QuadratureConfig | None = None) -> StrokeTime:
    """Duration of an isothermal stroke sweeping omega_i -> omega_f at fixed beta_s.

    ``t = (beta_s / 2a) * integral domega / [e^{q*beta*omega} (e^{beta*omega} -
    e^{beta_s*omega}) (1 +- e^{-beta_s*omega})]``.  The bath must sit on the
    side that drives the stroke: relaxation toward equilibrium takes forever
    when beta = beta_s, and a stroke swept away from the bath's equilibrium
    raises a ``ParameterError`` (its time would be negative), however small
    its magnitude.
    """
    if not (0.0 < beta < inf and 0.0 < beta_s < inf and 0.0 < omega_i < inf
            and 0.0 < omega_f < inf):  # inline: the helper only names the offender
        require_positive({"beta": beta, "beta_s": beta_s, "omega_i": omega_i, "omega_f": omega_f})
    require_statistics(stat)
    if beta == beta_s:
        raise SingularityError("bath and medium temperatures coincide: "
                               "infinite relaxation time")
    return _linear_time(stat, model, beta, 1.0, beta_s, beta - beta_s, omega_i, omega_f,
                        cfg, "bath")


def isochoric_time(stat: Statistics, model: GevaKosloff, regenerator: float,
                   omega: float, beta_i: float, beta_f: float,
                   cfg: QuadratureConfig | None = None) -> StrokeTime:
    """Duration of a constant-frequency stroke with beta_s sweeping beta_i -> beta_f.

    ``regenerator`` is the slope c of the linear regenerator ``beta_r =
    c*beta_s``, a positive finite int or float; a unit slope never relaxes.
    """
    if not isinstance(regenerator, (int, float)):
        raise ParameterError(f"regenerator slope must be a number, got {regenerator!r}")
    if not (0.0 < regenerator < inf and 0.0 < omega < inf and 0.0 < beta_i < inf
            and 0.0 < beta_f < inf):
        require_positive({"regenerator slope": regenerator, "omega": omega,
                          "beta_i": beta_i, "beta_f": beta_f})
    require_statistics(stat)
    gap = (regenerator - 1.0) * omega
    if not gap:  # a unit slope, or a gap past the float range
        raise SingularityError("regenerator and medium temperatures coincide: "
                               "infinite relaxation time")
    return _linear_time(stat, model, regenerator, omega, omega, gap, beta_i, beta_f, cfg,
                        "regenerator")


def _linear_time(stat: Statistics, model: GevaKosloff, a1: float, a2: float, b: float,
                 d: float, u_i: float, u_f: float, cfg, reservoir: str) -> StrokeTime:
    """Duration of a stroke with x = a1*a2*u, x_s = b*u and gap d*u: b/(2a) times the integral."""
    if u_i == u_f:
        return StrokeTime(0.0, 0.0)
    # the stroke runs toward its reservoir when the sweep direction agrees with the
    # sign of the gap; every method then sums its magnitude over [lo, hi]
    if (u_f > u_i) != (d > 0.0):
        raise ParameterError("integration direction yields a negative duration; the stroke "
                             f"must run toward the {reservoir}-driven equilibrium")
    duration, error = _ascending_time(stat, model, a1, a2, b, abs(d), min(u_i, u_f),
                                      max(u_i, u_f), cfg or QuadratureConfig())
    if not duration < math.inf:
        raise SingularityError("duration is past the float range")
    return StrokeTime(duration, error)


def _ascending_time(stat: Statistics, model: GevaKosloff, a1: float, a2: float, b: float,
                    dd: float, lo: float, hi: float, cfg) -> tuple[float, float]:
    """Duration and error estimate of the stroke's magnitude over [lo, hi], its gap dd*u.

    The exponential series when it fits the term budget, the high-temperature
    form up to u* = 2^-60/max(A, B), where that is exact to rounding, the
    head [lo, u*] and the rest [u*, hi] of a stroke that neither takes but
    that starts below u*, Gauss-Legendre where its a-priori node count fits
    ``_GL_MAX_NODES``, GK15 otherwise.  Each method's estimate is held to
    ``rel_tol`` times its duration; a quadrature's also to ``abs_tol`` times
    its scale 2^(k-1)/a, the unit in which GK15 compares it.
    """
    a, q, span = a1 * a2, model.q, hi - lo
    # the series and GK15 both read lambda00 = (1+q)A + (B - A if B > A), a sum of
    # positive parts, its factor e^{-lambda00 lo} and T00 / e^{-lambda00 lo} from here
    base = (1.0 + q) * a + (dd if b > a else 0.0)
    leading = leading_exponential(q, a1, a2, b, lo)
    width = -expm1(-base * span) / base if base * span else span
    series = integrate_linear(stat, b, dd, base, leading, width, lo, hi)
    if series is not None:
        duration = b / (2.0 * model.a) * series[0]
        return _held(duration, b / (2.0 * model.a) * series[1], cfg.rel_tol * duration)
    # hi <= u*, not max(A, B)*hi <= 2^-60: a subnormal u* may round up, and a head
    # [lo, u*] must end here
    cut = _HIGH_TEMP_EXACT / max(a, b)
    if hi <= cut:
        # 1/[(x - x_s) x_s] (bosonic) or 1/[2 (x - x_s)] (fermionic) is the integrand
        # to a relative 2 max(A, B) hi, below rounding; b cancels or stays
        # as b/dd, so a duration whose raw integral would overflow stays finite
        if stat is Statistics.BOSONIC:
            den = 2.0 * model.a * dd  # may underflow to zero
            # lo last: the quotient leaves the range only where the duration does
            duration = span / hi / den / lo if den else math.inf
        else:
            duration = b / dd * math.log(hi / lo) / (4.0 * model.a)
        return _held(duration, duration * (2.0 * max(a, b) * hi + 4.0 * _EPS),
                     cfg.rel_tol * duration)
    if lo < cut:
        # the head holds the 1/u^2 or ln(u*/lo) of an end near the float range's
        # bottom; one past the range spends no quadrature on the rest
        head, head_error = _ascending_time(stat, model, a1, a2, b, dd, lo, cut, cfg)
        rest, rest_error = (_ascending_time(stat, model, a1, a2, b, dd, cut, hi, cfg)
                            if head < math.inf else (0.0, 0.0))
        return head + rest, head_error + rest_error
    # the quadrature integrates x_s f(u), the integrand in v times b, over 2^k,
    # the power of two just above b T00, a floor on the integral: abs_tol then
    # acts relative to the stroke.  Near lo, where a cold stroke's time accrues,
    # the exponent lambda00 (u - lo) is small and keeps its digits;
    # e^{-lambda00 lo} comes in once, as a factor
    if math.isnan(leading):
        leading = math.exp(-base * lo)
    k = min(max(math.frexp(b * leading * width)[1], -1000), 1000)
    # 2^-k divides the gap factor when k > 0 and multiplies e^{-lambda00 lo}
    # otherwise: either is exact, and near a tiny lo the scaled gap factor
    # keeps the bosonic 1/u^2 from overflowing before the weight divides it
    gap_scale, factor = math.ldexp(1.0, max(k, 0)), math.ldexp(leading, -min(k, 0))
    w, exponent = weight_function(stat), base * lo
    if not (dd * lo and w(b * lo)):  # w(0) = 0 for bosons; the fermion weight is >= 1
        raise SingularityError(f"the integrand's gap or weight underflows to zero at u = {lo!r}")

    def integrand(v: float) -> float:
        try:
            e = expm1(v)  # u/lo - 1
        except OverflowError:  # u/lo is past the float range
            u = exp(v + math.log(lo))
            decay = exp(-base * (u - lo))
        else:
            u = lo + lo * e
            decay = exp(-exponent * e)
        x_s = b * u
        # left to right: near u -> 0 the gap and a bosonic weight each give 1/u,
        # and x_s cancels one of them before the quotient can overflow
        return x_s * decay / (-expm1(-dd * u) * gap_scale) / w(x_s) * factor

    # v runs up [0, ln(hi/lo)]: Gauss-Legendre where its a-priori node count
    # fits, GK15 otherwise
    ratio = hi / lo
    end = math.log(ratio) if ratio < math.inf else math.log(hi) - math.log(lo)
    result = (_gauss_legendre(integrand, stat is Statistics.FERMIONIC, dd * lo, b * lo, exponent,
                              ratio, end) or integrate(integrand, 0.0, end, cfg))
    # the scale 2^(k-1)/a in one rounding, inf rather than OverflowError past the
    # range; where it is subnormal it would drop digits, so the integral is divided by a last
    half = 2.0 ** (k - 1)
    scale, over = (half / model.a, 1.0) if half / model.a >= _MIN else (half, model.a)
    # integrate's own acceptance rule, so only a Gauss-Legendre sum can fail it
    return _held(scale * result.value / over, scale * result.error_estimate / over,
                 scale * max(cfg.rel_tol * result.value, cfg.abs_tol) / over)


def _held(duration: float, error: float, tolerance: float) -> tuple[float, float]:
    """``(duration, error)``, unless ``error`` exceeds ``tolerance``: a ``ConvergenceError``."""
    if error > tolerance:
        rel = error / duration if duration else math.inf
        raise ConvergenceError(f"error estimate {error:.3e} ({rel:.1e} relative) above tolerance")
    return duration, error


def _gauss_legendre(f, fermi: bool, dl: float, bl: float, c: float, ratio: float,
                    length: float) -> QuadratureResult | None:
    """``f`` over [0, L], L = ``length``, by Gauss-Legendre at a node count fixed a priori.

    Up to constants ``f`` is e^{-c (e^v - 1)} h(dl e^v) h(bl e^v)/(dl e^v) for
    bosons and h(dl e^v)/(1 + e^{-bl e^v}) for fermions, with h(w) =
    w/(1 - e^{-w}) and e^L = ``ratio``.  Its poles all lie on Im v = +-pi/2:
    at Re v = ln(2 pi k/dl) (the gap), ln(2 pi k/bl) (the boson weight) or
    ln(pi (2k + 1)/bl) (the fermion weight).

    Theorem 4.5 of Trefethen (SIAM Review 50, 2008): where |f| <= M on the
    Bernstein ellipse E_rho of [0, L], the n-point error is at most
    (L/2)(64/15) M rho^{-2(n-1)}/(rho^2 - 1).  E_rho here is the largest
    ellipse within |Im v| <= pi/2, semi-minor axis pi/2, which no pole enters.
    With its semi-major axis A, X = e^{L/2 + A} and I >= L min f, the error is
    at most (32/15) R rho^{-2(n-1)}/(rho^2 - 1) of I, where R bounds max |f| on
    E_rho over min f on [0, L] factor by factor:
    - the boson 1/(dl e^v): e^{A + L/2}, exactly;
    - the decay: e^{c e^L}, since Re e^v >= 0 on E_rho;
    - each h: 1 + dl X and 1 + bl X, and the fermion weight: 2.  These are
      heuristic: E_rho touches the poles' line at Re v = L/2, and a pole
      there would make h or the weight unbounded.
    Against a 40-point rule on the benchmark's seed-0 pools, for 2 to 20
    nodes, the bound exceeded every truncation error above rounding at least
    13-fold.  An ellipse through the nearest pole itself, reaching past
    Im v = pi/2 where the decay grows, saved about one node on average but
    took three times as long to place, more than the node saves.

    n is the least count, at least 2, whose bound is at most eps, as for the
    series; the error estimate is eps plus GK15's round-off floor of 50 eps,
    times I.  Returns None when n exceeds ``_GL_MAX_NODES``, when the bound
    cannot be formed (a product past the float range) or when the sum is not
    finite.
    """
    # relative to [-1, 1] the semi-minor axis is beta = sinh(ln rho); cosh(ln rho)
    # then fixes A, and rho^2 - 1 = 2 beta rho
    beta = math.pi / length
    cosh = math.sqrt(1.0 + beta * beta)
    reach = 0.5 * length * (1.0 + cosh)  # L/2 + A, so X = e^reach
    if not reach < _LOG_MAX:
        return None
    x, log_rho = exp(reach), math.log(cosh + beta)
    log_ratio = c * ratio + math.log1p(dl * x) + (_LN2 if fermi else reach + math.log1p(bl * x))
    # the least n - 1 whose bound is at most eps
    need = (_LOG_TARGET + log_ratio - math.log(2.0 * beta) - log_rho) / (2.0 * log_rho)
    if not need <= _GL_MAX_NODES - 1:
        return None
    try:
        total = math.fsum([w * f(length * t)
                           for t, w in zip(*gauss_legendre(max(2, 1 + math.ceil(need))))])
    except OverflowError:  # the sum passed the float range
        return None
    # the error estimate: the bound, at most eps, plus GK15's floor
    return QuadratureResult(length * total, length * total * _GL_ERROR, 0) if total < inf else None


def _stroke(label: str, fn, *args) -> StrokeTime:
    try:
        return fn(*args)
    except (SingularityError, ParameterError, ConvergenceError) as exc:
        raise type(exc)(f"stroke {label}: {exc}") from exc


def _strokes(spec: EngineSpec | FridgeSpec, regen) -> Iterator[tuple]:
    """``spec``'s stroke table as ``(label, isotherm, held, start, end, by)`` numbers.

    ``by`` is the bath beta on an isotherm and the regenerator slope on an
    isochore; ``regen`` is first checked to be the kind's regenerator.
    """
    kind = cycle_kind(spec)
    if not isinstance(regen, kind.regen):
        raise ParameterError(f"{kind.spec.__name__} requires a {kind.regen.__name__}, "
                             f"got {type(regen).__name__}")
    v, slopes = vars(spec), vars(regen)
    return ((label, isotherm, v[fixed], v[start], v[end], (v if isotherm else slopes)[drive])
            for label, _, isotherm, fixed, start, end, drive in kind.strokes)


def cycle_time(spec: EngineSpec | FridgeSpec, model: GevaKosloff, regen,
               cfg: QuadratureConfig | None = None) -> TimingReport:
    """Per-stroke durations of either cycle kind, in its stroke-table order.

    Engine (A->B->C->D->A): t1 hot isotherm at beta1 against the beta_h bath
    (omega2 -> omega1); t2 low-frequency isochore against the gamma1
    regenerator branch; t3 cold isotherm at beta2 against beta_c
    (omega1 -> omega2); t4 high-frequency isochore against the gamma2 branch.
    Refrigerator: t1 cold isotherm D->C at beta2p against beta_c
    (omega2 -> omega1); t2 low-frequency isochore C->B against the bp branch;
    t3 hot isotherm B->A at beta1p against beta_h (omega1 -> omega2); t4
    high-frequency isochore A->D against the b branch.
    """
    # both stroke functions take (drive, held, start, end) in table order
    durations, errors = zip(*(
        _stroke(label, isothermal_time if isotherm else isochoric_time, spec.stat, model,
                by, held, start, end, cfg)
        for label, isotherm, held, start, end, by in _strokes(spec, regen)))
    t1, t2, t3, t4 = durations
    return TimingReport(t1, t2, t3, t4, t1 + t2 + t3 + t4, errors)


engine_cycle_time = fridge_cycle_time = cycle_time


def closed_form_cycle_time(mode: Mode, spec: EngineSpec | FridgeSpec, model: GevaKosloff,
                           regen) -> TimingReport:
    """Evaluate the low- or high-temperature closed-form stroke times.

    The cycle kind comes from ``spec``, and a ``mode`` its stroke table has
    no closed-form set for is rejected.  Each stroke's time follows from its
    table row; the high-temperature times depend on ``spec.stat`` and
    assume the linear regenerator mapping.  A time whose denominator
    underflows to zero is infinite.  Validity of the regime is not
    enforced; compare against the quadrature pipeline to judge it.
    """
    strokes = _strokes(spec, regen)
    cycle_kind(spec).closed_form(mode)  # rejects a mode without a closed-form set
    a, q = model.a, model.q
    low_temp = mode is Mode.LOW_TEMP
    bosonic = spec.stat is Statistics.BOSONIC
    times = []
    for _, isotherm, held, lo, hi, by in strokes:
        if lo > hi:
            lo, hi = hi, lo
        # the bath or regenerator sits at c times the medium's beta
        c = by / held if isotherm else by
        if low_temp:
            # its exponential dominates the integrand for c > 1, the medium's below
            rate = (1.0 + q) * c if c > 1.0 else 1.0 + q * c
            num = math.exp(-rate * (held * lo)) - math.exp(-rate * (held * hi))
            den = 2.0 * a * rate
        # high temperature: e^x ~ 1 + x leaves 1/[(x - x_s) x_s] (bosonic)
        # or 1/[2 (x - x_s)] (fermionic) as the integrand
        elif isotherm:
            gap = abs(held - by)
            num, den = ((hi - lo, 2.0 * a * lo * hi * gap) if bosonic
                        else (held * math.log(hi / lo), 4.0 * a * gap))
        else:
            gap = abs(c - 1.0)
            num, den = ((1.0 / lo - 1.0 / hi, 2.0 * a * held * gap) if bosonic
                        else (math.log(hi / lo), 4.0 * a * gap))
        times.append(num / den if den else math.inf)  # den may underflow to zero
    t1, t2, t3, t4 = times
    return TimingReport(t1, t2, t3, t4, t1 + t2 + t3 + t4, (0.0, 0.0, 0.0, 0.0))


def regime_extents(spec: EngineSpec | FridgeSpec, regen) -> tuple[float, float]:
    """Smallest and largest beta*omega product visited by the cycle.

    Scans the bath, medium and regenerator inverse temperatures at the
    stroke endpoints against both frequencies; used to score
    low/high-temperature regime validity.
    """
    betas = []
    for _, isotherm, held, start, end, by in _strokes(spec, regen):
        betas += (by, held) if isotherm else (by * start, by * end)
    return min(betas) * spec.omega1, max(betas) * spec.omega2


engine_regime_extents = fridge_regime_extents = regime_extents
