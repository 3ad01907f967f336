"""Exponential-series and GK15-fallback stroke times against a 40-digit mpmath oracle.

A linear stroke whose series fits ``series.SERIES_TERM_BUDGET`` makes no
GK15 call; setting the budget to 0 pins every stroke to GK15, which stays
the in-package reference.  The strokes the series declines (crossover
temperatures) take GK15 in v = ln(u/lo).
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

import qstirling.series
import qstirling.timing
from qstirling import (
    GevaKosloff,
    LinearEngineRegenerator,
    LinearFridgeRegenerator,
    ParameterError,
    QuadratureConfig,
    SingularityError,
    Statistics,
    cycle_time,
    isochoric_time,
    isothermal_time,
    regime_extents,
)
from qstirling.cycles import EngineSpec, cycle_kind
from conftest import (
    _mp_quad,
    mp_isochoric_time,
    mp_isothermal_time,
    random_engine_spec,
    random_fridge_spec,
    rel,
)

EPS = sys.float_info.epsilon
B = Statistics.BOSONIC
F = Statistics.FERMIONIC
GK15 = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-300, max_subdivisions=200)


def _rescaled(spec, regen, x_min):
    # scale every inverse temperature so the cycle's smallest product is x_min
    factor = x_min / regime_extents(spec, regen)[0]
    fields = vars(spec).copy()
    stat, omega1, omega2 = fields.pop("stat"), fields.pop("omega1"), fields.pop("omega2")
    return type(spec)(stat, omega1, omega2, *(factor * v for v in fields.values()))


def _seeded_strokes(count, x_lo=8.0, x_hi=40.0, seed=6):
    """``count`` cycles with x_min log-uniform in [x_lo, x_hi]; kind and statistics alternate."""
    rng = np.random.default_rng(seed)
    strokes = []
    for i in range(count):
        stat = (B, F)[i % 2]
        x_min = float(np.exp(rng.uniform(np.log(x_lo), np.log(x_hi))))
        model = GevaKosloff(rng.uniform(0.1, 5.0), rng.uniform(-0.99, -0.01))
        slopes = (rng.uniform(1.1, 2.0), rng.uniform(0.3, 0.9))
        if i % 4 < 2:
            regen = LinearEngineRegenerator(*slopes)
            spec = random_engine_spec(rng, stat, 1.0, 2.0)
        else:
            regen = LinearFridgeRegenerator(*slopes)
            spec = random_fridge_spec(rng, stat, 1.0, 2.0)
        strokes += _cycle_strokes(_rescaled(spec, regen, x_min), model, regen)
    return strokes


def _cycle_strokes(spec, model, regen):
    """(label, stat, model, isotherm, bath beta or slope, held, start, end) per stroke."""
    v = vars(spec)
    rows = []
    for label, _, isotherm, fixed, start, end, drive in cycle_kind(spec).strokes:
        reservoir = v[drive] if isotherm else getattr(regen, drive)
        rows.append((label, spec.stat, model, isotherm, reservoir, v[fixed], v[start], v[end]))
    return rows


def _oracle(stroke):
    _, stat, model, isotherm, reservoir, held, start, end = stroke
    fn = mp_isothermal_time if isotherm else mp_isochoric_time
    return fn(stat, model, reservoir, held, start, end)


def _timed(stroke, monkeypatch, budget=None):
    """(StrokeTime, GK15 calls) of one stroke, with the series budget optionally replaced."""
    _, stat, model, isotherm, reservoir, held, start, end = stroke
    calls = []
    real_integrate = qstirling.timing.integrate

    def counting_integrate(f, a, b, cfg=None):
        calls.append(1)
        return real_integrate(f, a, b, cfg)

    with monkeypatch.context() as patch:
        patch.setattr(qstirling.timing, "integrate", counting_integrate)
        if budget is not None:
            patch.setattr(qstirling.series, "SERIES_TERM_BUDGET", budget)
        fn = isothermal_time if isotherm else isochoric_time
        return fn(stat, model, reservoir, held, start, end, GK15), len(calls)


POOL = _seeded_strokes(24)


def test_pool_covers_both_statistics_stroke_kinds_and_cycles():
    assert len(POOL) >= 64
    labels = {s[0] for s in POOL}
    assert {"A->B", "B->C", "D->C", "A->D"} <= labels  # engine and fridge rows
    assert {s[1] for s in POOL} == {B, F}
    assert {s[3] for s in POOL} == {True, False}


def test_series_strokes_match_the_oracle_at_least_as_well_as_gk15(monkeypatch):
    series_strokes = 0
    for stroke in POOL:
        exact = _oracle(stroke)
        out, gk15_calls = _timed(stroke, monkeypatch)
        if gk15_calls:
            continue
        series_strokes += 1
        pinned, _ = _timed(stroke, monkeypatch, budget=0)
        err = abs(out.duration - exact)
        assert err <= abs(pinned.duration - exact) + 4.0 * EPS * exact, stroke
        # the reported error bounds the true one
        assert err <= out.error_estimate, stroke
        assert out.error_estimate <= 1e-13 * exact
    assert series_strokes >= 64


def _boundary_pair(make_stroke, grid, monkeypatch):
    """Adjacent strokes of ``grid`` on either side of the term budget: (inside, outside)."""
    inside = None
    for value in grid:
        stroke = make_stroke(value)
        if _timed(stroke, monkeypatch)[1]:
            assert inside is not None, "grid starts past the budget"
            return inside, stroke
        inside = stroke
    raise AssertionError("grid never leaves the budget")


MODEL = GevaKosloff(1.3, -0.4)
BOUNDARY_FAMILIES = {
    # hot isotherm at beta_s = 20: K = 2, so J crosses 32 as the bath nears the medium
    "isotherm": lambda stat: (lambda beta: ("A->B", stat, MODEL, True, beta, 20.0, 2.0, 1.0),
                              [float(v) for v in np.linspace(16.0, 19.9, 400)]),
    # low-frequency isochore from beta_s = 10: K = 4, so J crosses 16 as the slope nears 1
    "isochore": lambda stat: (lambda c: ("B->C", stat, MODEL, False, c, 1.0, 10.0, 20.0),
                              [float(v) for v in np.linspace(1.5, 1.01, 400)]),
}


@pytest.mark.parametrize("stat", [B, F])
@pytest.mark.parametrize("family", sorted(BOUNDARY_FAMILIES))
def test_paths_agree_at_the_term_budget(family, stat, monkeypatch):
    make_stroke, grid = BOUNDARY_FAMILIES[family](stat)
    inside, outside = _boundary_pair(make_stroke, grid, monkeypatch)
    for stroke in (inside, outside):
        exact = _oracle(stroke)
        series, calls = _timed(stroke, monkeypatch, budget=10**6)
        assert calls == 0
        pinned, _ = _timed(stroke, monkeypatch, budget=0)
        assert rel(series.duration, pinned.duration) < 1e-13, stroke
        err = abs(series.duration - exact)
        assert err <= abs(pinned.duration - exact) + 4.0 * EPS * exact, stroke
        assert err <= series.error_estimate, stroke
    # the default path is the series inside the budget, GK15 past it
    assert _timed(inside, monkeypatch)[0] == _timed(inside, monkeypatch, budget=10**6)[0]
    assert _timed(outside, monkeypatch)[0] == _timed(outside, monkeypatch, budget=0)[0]


@pytest.mark.parametrize("x", [20.0, 30.0, 40.0])
def test_default_tolerances_hold_rel_tol_at_low_temperature(x):
    # omega 1/2, beta2 = 2 beta1, alpha 0.6/1.4, slopes 1.4/0.6 at the default
    # abs_tol = 1e-14, far above these stroke times
    model = GevaKosloff(1.0, -0.05)
    regen = LinearEngineRegenerator(1.4, 0.6)
    for stat in (B, F):
        spec = EngineSpec(stat, 1.0, 2.0, 0.6 * x, x, 2.0 * x, 1.4 * 2.0 * x)
        report = cycle_time(spec, model, regen, QuadratureConfig())
        times = (report.t1, report.t2, report.t3, report.t4)
        for stroke, value in zip(_cycle_strokes(spec, model, regen), times):
            assert rel(value, _oracle(stroke)) < 1e-10, stroke[0]


CROSSOVER_POOL = _seeded_strokes(24, 1e-3, 8.0, seed=7)


@pytest.mark.parametrize("cfg", [GK15, QuadratureConfig()], ids=["abs_tol_1e-300", "default"])
def test_crossover_fallback_strokes_hold_rel_tol(cfg, monkeypatch):
    # strokes the series declines go to GK15 in v = ln(u/lo): each within
    # rel_tol of the oracle, with an error estimate that bounds its true error
    fallback = 0
    for stroke in CROSSOVER_POOL:
        _, stat, model, isotherm, reservoir, held, start, end = stroke
        if _timed(stroke, monkeypatch)[1] == 0:
            continue
        fallback += 1
        fn = isothermal_time if isotherm else isochoric_time
        out = fn(stat, model, reservoir, held, start, end, cfg)
        exact = _oracle(stroke)
        err = abs(out.duration - exact)
        assert err <= cfg.rel_tol * exact, stroke
        assert err <= out.error_estimate <= cfg.rel_tol * out.duration, stroke
    assert fallback >= 64


def test_default_abs_tol_holds_rel_tol_on_a_declined_stroke():
    # alpha_c = 1.01 puts C->D past the series budget; its time (3.3e-17) sits
    # far below the default abs_tol = 1e-14, which GK15 now takes relative to
    # the stroke's (0, 0) series term
    model, regen = GevaKosloff(1.0, -0.05), LinearEngineRegenerator(1.4, 0.6)
    spec = EngineSpec(B, 1.0, 2.0, 12.0, 20.0, 40.0, 40.4)
    cfg = QuadratureConfig()
    report = cycle_time(spec, model, regen, cfg)
    times = (report.t1, report.t2, report.t3, report.t4)
    for stroke, value, estimate in zip(_cycle_strokes(spec, model, regen), times,
                                       report.error_estimates):
        exact = _oracle(stroke)
        assert abs(value - exact) <= cfg.rel_tol * exact, stroke[0]
        assert estimate <= cfg.rel_tol * value, stroke[0]


@pytest.mark.parametrize("stat", [B, F])
def test_nan_leading_exponential_falls_back_to_gk15(stat):
    # beta*lo and beta_s*lo are ~10 and ~15, but splitting beta = 1e301 into
    # Dekker halves overflows: the T00 factor is NaN and the series declines
    model = GevaKosloff(1.0, -0.05)
    assert math.isnan(qstirling.series.leading_exponential(-0.05, 1e301, 1.0, 1.5e301, 1e-300))
    out = isothermal_time(stat, model, 1e301, 1.5e301, 2e-300, 1e-300)
    exact = mp_isothermal_time(stat, model, 1e301, 1.5e301, 2e-300, 1e-300)
    assert rel(out.duration, exact) <= QuadratureConfig().rel_tol


@pytest.mark.parametrize("stat", [B, F])
def test_deep_high_temperature_stroke_is_finite(stat):
    # beta_s = 1e-300: the raw integral (1.25e600) overflows, the duration
    # does not; below products of 2^-60 the high-temperature form is exact
    model = GevaKosloff(1.0, -0.05)
    out = isothermal_time(stat, model, 6e-301, 1e-300, 2.0, 1.0)
    with mp.workdps(40):
        gap = mp.mpf(1e-300) - mp.mpf(6e-301)
        if stat is B:
            exact = (1 - mp.mpf(1) / 2) / (2 * gap)
        else:
            exact = mp.mpf(1e-300) * mp.log(2) / (4 * gap)
    assert rel(out.duration, float(exact)) < 4.0 * EPS
    assert abs(out.duration - float(exact)) <= out.error_estimate


@pytest.mark.parametrize("stat", [B, F])
def test_high_temperature_form_meets_gk15_at_its_threshold(stat, monkeypatch):
    # the same isotherm just below and just above products of 2^-60
    model = GevaKosloff(1.0, -0.05)
    limit = 2.0 ** -60 / 2.0  # omega_f = 2 is the stroke's largest frequency
    below, calls = _timed(("A->B", stat, model, True, 0.6 * limit, limit, 2.0, 1.0), monkeypatch)
    assert calls == 0
    above, calls = _timed(("A->B", stat, model, True, 0.6 * limit * (1 + 2 * EPS),
                           limit * (1 + 2 * EPS), 2.0, 1.0), monkeypatch)
    assert calls == 1
    assert rel(below.duration * (1 + 2 * EPS), above.duration) < 1e-13


@pytest.mark.parametrize("stat", [B, F])
def test_oracle_resolves_a_stroke_over_300_decades(stat):
    # beta_s 1e-300 -> 33.3: near lo the integrand behaves like 1/beta_s^2
    # (bosonic), a spike no substitution in e^{-lam u} alone resolves
    model, hi = GevaKosloff(1.0, -0.05), 33.333333333333336
    values = {mp_isochoric_time(stat, model, 1.4, 1.0, 1e-300, hi, dps) for dps in (30, 40, 50)}
    assert len(values) == 1
    value = values.pop()
    if stat is B:
        # omega/(2a) * integral of 1/[(c - 1) omega u * omega u], to O(lo)
        with mp.workdps(40):
            exact = 1 / (2 * (mp.mpf(1.4) - 1) * mp.mpf(1e-300))
        assert rel(value, float(exact)) < EPS
    program = isochoric_time(stat, model, 1.4, 1.0, 1e-300, hi, GK15)
    assert abs(program.duration - value) <= GK15.rel_tol * value


def test_oracle_raises_on_an_unresolved_quadrature():
    with pytest.raises(ArithmeticError, match="unresolved"):
        _mp_quad(lambda t: 1 / t, [0, 1])


@pytest.mark.parametrize("slope", [0.0, -1.4, math.inf, math.nan, lambda b: 1.4 * b])
def test_invalid_linear_slope_rejected(slope):
    with pytest.raises(ParameterError, match="slope"):
        isochoric_time(B, GevaKosloff(1.0, -0.05), slope, 1.0, 10.0, 20.0, GK15)


def test_unit_slope_is_singular():
    with pytest.raises(SingularityError, match="infinite relaxation time"):
        isochoric_time(B, GevaKosloff(1.0, -0.05), 1.0, 1.0, 10.0, 20.0, GK15)
