"""Exponential-series and quadrature stroke times against a 40-digit mpmath oracle.

A linear stroke whose series fits ``series.SERIES_TERM_BUDGET`` reaches no
quadrature.  The strokes the series declines (crossover temperatures) are
integrated in v = ln(u/lo): by Gauss-Legendre where its a-priori node count
fits ``timing._GL_MAX_NODES``, which covers every declined stroke of the
benchmark's pools, and by GK15 otherwise (ends more than about 100-fold
apart, or a tolerance below 51 eps).  The oracle of ``tests/conftest.py`` is
the only reference: a sample of each seed-0 EXACT pool and the shipped EXACT
configs are gated stroke by stroke against it, and the tiny pools' stroke-time
work is gated per method.
"""

import functools
import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import qstirling.series
import qstirling.timing
from qstirling import (
    GevaKosloff,
    LinearEngineRegenerator,
    LinearFridgeRegenerator,
    Mode,
    ParameterError,
    QuadratureConfig,
    SingularityError,
    Statistics,
    cycle_time,
    isochoric_time,
    isothermal_time,
    regime_extents,
)
from qstirling.config import load_run_config
from qstirling.cycles import EngineSpec, cycle_kind
from conftest import (
    _mp_quad,
    mp_isochoric_time,
    mp_isothermal_time,
    random_engine_spec,
    random_fridge_spec,
    rel,
)

ROOT = Path(__file__).resolve().parents[1]
EPS = sys.float_info.epsilon
B = Statistics.BOSONIC
F = Statistics.FERMIONIC
# the numerics of the shipped configs and the benchmark
SHIPPED = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-300, max_subdivisions=200)
# the most ulp any stroke of either seed-0 EXACT pool lies from the oracle
# (tools/ulp_report.py over every stroke)
ULPS = 4


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


@functools.cache  # several tests judge the same strokes
def _oracle(stroke):
    _, stat, model, isotherm, reservoir, held, start, end = stroke
    fn = mp_isothermal_time if isotherm else mp_isochoric_time
    return fn(stat, model, reservoir, held, start, end)


def _within(out, stroke, ulps=ULPS):
    """Whether ``out`` lies within ``ulps`` ulp of the oracle and within its own estimate."""
    err = abs(out.duration - _oracle(stroke))
    return err <= ulps * math.ulp(_oracle(stroke)) and err <= out.error_estimate


def _timed(stroke, monkeypatch, budget=None):
    """(StrokeTime, 1 if the stroke was declined to quadrature else 0) of one stroke.

    ``budget`` replaces the series term budget.
    """
    _, stat, model, isotherm, reservoir, held, start, end = stroke
    calls = []
    real_gauss_legendre = qstirling.timing._gauss_legendre

    def counting_gauss_legendre(*args):
        calls.append(1)  # neither the series nor the high-temperature form took the stroke
        return real_gauss_legendre(*args)

    with monkeypatch.context() as patch:
        patch.setattr(qstirling.timing, "_gauss_legendre", counting_gauss_legendre)
        if budget is not None:
            patch.setattr(qstirling.series, "SERIES_TERM_BUDGET", budget)
        fn = isothermal_time if isotherm else isochoric_time
        return fn(stat, model, reservoir, held, start, end, SHIPPED), len(calls)


POOL = _seeded_strokes(24)


def test_pool_covers_both_statistics_stroke_kinds_and_cycles():
    assert len(POOL) >= 64
    labels = {s[0] for s in POOL}
    assert {"A->B", "B->C", "D->C", "A->D"} <= labels  # engine and fridge rows
    assert {s[1] for s in POOL} == {B, F}
    assert {s[3] for s in POOL} == {True, False}


def test_series_strokes_match_the_oracle_at_least_as_well_as_gk15(monkeypatch):
    # every series stroke within ULPS ulp of the oracle and within its own bound
    series_strokes = 0
    for stroke in POOL:
        out, declined = _timed(stroke, monkeypatch)
        if declined:
            continue
        series_strokes += 1
        assert _within(out, stroke), stroke
        assert out.error_estimate <= 1e-13 * _oracle(stroke)
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
        # the series and the quadrature each within ULPS ulp of the oracle, so within
        # 2 ULPS of each other, and each within its own estimate
        series, calls = _timed(stroke, monkeypatch, budget=10**6)
        assert calls == 0
        assert _within(series, stroke), stroke
        quadrature, calls = _timed(stroke, monkeypatch, budget=0)
        assert calls == 1
        assert _within(quadrature, stroke), stroke
    # the default path is the series inside the budget, the quadrature past it
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


@pytest.mark.parametrize("cfg", [SHIPPED, QuadratureConfig()], ids=["abs_tol_1e-300", "default"])
def test_crossover_fallback_strokes_hold_rel_tol(cfg, monkeypatch):
    # strokes the series declines go to Gauss-Legendre or GK15 in v = ln(u/lo):
    # each within rel_tol of the oracle, with an error estimate that bounds its
    # true error
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


@functools.cache
def _workloads():
    """``bench/workloads.py``, which draws the benchmark's pools, imported."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _benchmark_strokes(workload, count):
    """Every stroke of ``count`` evenly spaced points of a seed-0 benchmark pool, and the
    benchmark's quadrature config."""
    workloads = _workloads()
    pool = workloads.make_pool(workload, 0)
    strokes = []
    for point in pool[::len(pool) // count][:count]:
        strokes += _cycle_strokes(*workloads.build(qstirling, point))
    return strokes, QuadratureConfig(*workloads.NUMERICS)


def _recording_work(monkeypatch) -> Counter:
    """A counter of each stroke's method and work, filled as strokes are timed.

    Keys: ``strokes``; the strokes the ``series`` and ``gauss_legendre``
    returned; ``gk15``, its calls, one per stroke it takes (``high_temp`` takes
    the rest); ``series_terms``; the Gauss-Legendre ``nodes`` summed, declined
    sums included.
    """
    timing, work = qstirling.timing, Counter()
    real = {name: getattr(timing, name) for name in
            ("_linear_time", "integrate_linear", "_gauss_legendre", "gauss_legendre", "integrate")}

    def stroke(*args):
        work["strokes"] += 1
        return real["_linear_time"](*args)

    def series(*args):
        result = real["integrate_linear"](*args)
        if result is not None:
            work["series"] += 1
            work["series_terms"] += result[2]
        return result

    def gauss_legendre_sum(*args):
        result = real["_gauss_legendre"](*args)
        work["gauss_legendre"] += result is not None
        return result

    def rule(n):
        work["nodes"] += n
        return real["gauss_legendre"](n)

    def gk15(*args):
        work["gk15"] += 1
        return real["integrate"](*args)

    for name, wrapper in (("_linear_time", stroke), ("integrate_linear", series),
                          ("_gauss_legendre", gauss_legendre_sum), ("gauss_legendre", rule),
                          ("integrate", gk15)):
        monkeypatch.setattr(timing, name, wrapper)
    return work


def _shipped_exact_strokes():
    """(stroke, quadrature config) for every stroke of the shipped EXACT configs."""
    out = []
    for path in sorted((ROOT / "configs").glob("*.ini")):
        cfg = load_run_config(str(path))
        if cfg.mode is Mode.EXACT:
            out += [(stroke, cfg.quad) for stroke in _cycle_strokes(cfg.spec, cfg.model, cfg.regen)]
    return out


# evenly spaced points of each seed-0 EXACT pool the ulp gate judges: four strokes
# each.  The oracle takes ~20 ms on a crossover stroke and ~33 ms on a low-temperature one
GATE_POINTS = {"exact_crossover": 64, "exact_lowtemp": 32}


def test_sampled_pool_and_shipped_strokes_lie_within_4_ulp_of_the_oracle(monkeypatch):
    # every stroke of the sample within ULPS ulp of the oracle and within its own
    # error estimate, whichever method summed it
    work = _recording_work(monkeypatch)
    judged = []
    for workload, count in GATE_POINTS.items():
        strokes, cfg = _benchmark_strokes(workload, count)
        judged += [(stroke, cfg) for stroke in strokes]
    judged += _shipped_exact_strokes()
    outside = []
    for stroke, cfg in judged:
        _, stat, model, isotherm, reservoir, held, start, end = stroke
        out = (isothermal_time if isotherm else isochoric_time)(stat, model, reservoir, held,
                                                                start, end, cfg)
        if not _within(out, stroke):
            outside.append((stroke, out, _oracle(stroke)))
    assert outside == []
    # both methods the pools use are judged, and GK15 takes none of their strokes
    assert work["series"] >= 128 and work["gauss_legendre"] >= 128, work
    assert work["gk15"] == 0, work


# upper bounds on the stroke-time work of the tiny seed-0 EXACT pools (96 strokes
# each): strokes per method, series terms, Gauss-Legendre nodes and GK15 calls.
# More of any is a regression; a change that moves strokes between methods
# restates the split
TINY_POOL_WORK = {
    "exact_crossover": {"series": 4, "high_temp": 0, "gauss_legendre": 92, "gk15": 0,
                        "series_terms": 148, "nodes": 899},
    "exact_lowtemp": {"series": 95, "high_temp": 0, "gauss_legendre": 1, "gk15": 0,
                      "series_terms": 533, "nodes": 17},
}


@pytest.mark.parametrize("workload", sorted(TINY_POOL_WORK))
def test_tiny_pool_stroke_time_work(workload, monkeypatch):
    workloads = _workloads()
    work = _recording_work(monkeypatch)
    cfg = QuadratureConfig(*workloads.NUMERICS)
    for point in workloads.make_pool(workload, 0, tiny=True):
        cycle_time(*workloads.build(qstirling, point), cfg)
    assert work["strokes"] == 4 * workloads.TINY_POOL_SIZE
    work["high_temp"] = work["strokes"] - work["series"] - work["gauss_legendre"] - work["gk15"]
    over = {key: work[key] for key, bound in TINY_POOL_WORK[workload].items()
            if work[key] > bound}
    assert over == {}, dict(work)


def test_gauss_legendre_strokes_lie_within_their_estimate(monkeypatch):
    # the a-priori node count is set against a heuristic bound on the integrand
    # in the complex plane: on a fixed sample of the benchmark's crossover
    # strokes, each Gauss-Legendre duration lies within its estimate of the
    # oracle, and the estimate meets rel_tol
    strokes, cfg = _benchmark_strokes("exact_crossover", 16)
    taken = []
    real_gauss_legendre = qstirling.timing._gauss_legendre

    def recording_gauss_legendre(*args):
        result = real_gauss_legendre(*args)
        taken.append(result is not None)
        return result

    monkeypatch.setattr(qstirling.timing, "_gauss_legendre", recording_gauss_legendre)
    judged = 0
    for stroke in strokes:
        _, stat, model, isotherm, reservoir, held, start, end = stroke
        taken.clear()
        fn = isothermal_time if isotherm else isochoric_time
        out = fn(stat, model, reservoir, held, start, end, cfg)
        if taken != [True]:
            continue
        judged += 1
        assert abs(out.duration - _oracle(stroke)) <= out.error_estimate, stroke
        assert out.error_estimate <= cfg.rel_tol * out.duration, stroke
    assert judged >= 48


def test_default_abs_tol_holds_rel_tol_on_a_declined_stroke():
    # alpha_c = 1.01 puts C->D past the series budget; its time (3.3e-17) sits
    # far below the default abs_tol = 1e-14, which the quadrature takes relative
    # to the stroke's (0, 0) series term
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
    # Dekker halves overflows: the T00 factor is NaN and the series declines;
    # the quadrature (Gauss-Legendre, since the node cap is 32) takes the stroke
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
    # the same isotherm just below and just above products of 2^-60, where
    # the quadrature takes over: each within ULPS ulp of the oracle and within its
    # estimate, and the two within 1e-13 of each other
    model = GevaKosloff(1.0, -0.05)
    limit = 2.0 ** -60 / 2.0  # omega_f = 2 is the stroke's largest frequency
    below = ("A->B", stat, model, True, 0.6 * limit, limit, 2.0, 1.0)
    above = ("A->B", stat, model, True, 0.6 * limit * (1 + 2 * EPS), limit * (1 + 2 * EPS),
             2.0, 1.0)
    (form, form_calls), (quadrature, quadrature_calls) = (_timed(stroke, monkeypatch)
                                                          for stroke in (below, above))
    assert (form_calls, quadrature_calls) == (0, 1)
    assert _within(form, below) and _within(quadrature, above)
    assert rel(form.duration * (1 + 2 * EPS), quadrature.duration) < 1e-13


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
    program = isochoric_time(stat, model, 1.4, 1.0, 1e-300, hi, SHIPPED)
    assert abs(program.duration - value) <= SHIPPED.rel_tol * value


def test_oracle_raises_on_an_unresolved_quadrature():
    with pytest.raises(ArithmeticError, match="unresolved"):
        _mp_quad(lambda t: 1 / t, [0, 1])


@pytest.mark.parametrize("slope", [0.0, -1.4, math.inf, math.nan, lambda b: 1.4 * b])
def test_invalid_linear_slope_rejected(slope):
    with pytest.raises(ParameterError, match="slope"):
        isochoric_time(B, GevaKosloff(1.0, -0.05), slope, 1.0, 10.0, 20.0, SHIPPED)


def test_unit_slope_is_singular():
    with pytest.raises(SingularityError, match="infinite relaxation time"):
        isochoric_time(B, GevaKosloff(1.0, -0.05), 1.0, 1.0, 10.0, 20.0, SHIPPED)
