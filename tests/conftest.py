"""Shared helpers: relative deviation, random-but-reproducible cycle specs and
an mpmath stroke-time oracle that raises rather than return a stroke it did
not resolve."""

import functools

import mpmath as mp
import numpy as np
import pytest

from qstirling import EngineSpec, FridgeSpec, Statistics


def rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def random_engine_spec(rng: np.random.Generator, stat: Statistics,
                       x_lo: float = 0.05, x_hi: float = 25.0) -> EngineSpec:
    """Valid engine spec with x = beta1*omega1 log-uniform in [x_lo, x_hi]."""
    omega1 = rng.uniform(0.5, 2.0)
    omega2 = omega1 * rng.uniform(1.2, 3.0)
    x = float(np.exp(rng.uniform(np.log(x_lo), np.log(x_hi))))
    beta1 = x / omega1
    beta2 = beta1 * rng.uniform(1.2, 3.0)
    alpha_h = rng.uniform(0.5, 0.95)
    alpha_c = rng.uniform(1.05, 2.0)
    return EngineSpec(stat, omega1, omega2, alpha_h * beta1, beta1, beta2, alpha_c * beta2)


def random_fridge_spec(rng: np.random.Generator, stat: Statistics,
                       x_lo: float = 0.05, x_hi: float = 25.0) -> FridgeSpec:
    """Valid fridge spec (beta1p < beta_h < beta_c < beta2p)."""
    omega1 = rng.uniform(0.5, 2.0)
    omega2 = omega1 * rng.uniform(1.2, 3.0)
    x = float(np.exp(rng.uniform(np.log(x_lo), np.log(x_hi))))
    beta1p = x / omega1
    ratio = rng.uniform(1.5, 3.0)
    beta2p = beta1p * ratio
    beta_h = beta1p * rng.uniform(1.02, 1.0 + 0.45 * (ratio - 1.0))
    beta_c = rng.uniform(beta_h * 1.02, beta2p * 0.98)
    return FridgeSpec(stat, omega1, omega2, beta1p, beta_h, beta_c, beta2p)


def lowtemp_engine_spec(stat: Statistics, x_min: float, omega_ratio: float = 2.0,
                        beta_ratio: float = 2.0, alpha_h: float = 0.6,
                        alpha_c: float = 1.4, gamma2: float = 0.6) -> EngineSpec:
    """Engine spec from the reference sweep family with a prescribed cycle x_min.

    x_min = min(alpha_h, gamma2) * beta1 * omega1 given gamma2 <= 1 <= gamma1.
    """
    omega1 = 1.0
    beta1 = x_min / (min(alpha_h, gamma2) * omega1)
    beta2 = beta_ratio * beta1
    return EngineSpec(stat, omega1, omega_ratio * omega1,
                      alpha_h * beta1, beta1, beta2, alpha_c * beta2)


def lowtemp_fridge_spec(stat: Statistics, x_min: float, omega_ratio: float = 2.0,
                        beta_ratio: float = 2.0, alpha_hp: float = 1.4,
                        alpha_cp: float = 0.8, bp: float = 0.6) -> FridgeSpec:
    """Fridge analogue; x_min = bp * beta1p * omega1 for bp < 1."""
    omega1 = 1.0
    beta1p = x_min / (bp * omega1)
    beta2p = beta_ratio * beta1p
    return FridgeSpec(stat, omega1, omega_ratio * omega1, beta1p,
                      alpha_hp * beta1p, alpha_cp * beta2p, beta2p)


def mp_isothermal_time(stat, model, beta, beta_s, omega_i, omega_f, dps=40):
    """``isothermal_time`` to ``dps`` digits, from the exact float inputs."""
    with mp.workdps(dps):
        return float(_mp_stroke(stat, model, mp.mpf(beta), mp.mpf(beta_s), mp.mpf(beta_s),
                                omega_i, omega_f))


def mp_isochoric_time(stat, model, slope, omega, beta_i, beta_f, dps=40):
    """``isochoric_time`` with the linear regenerator ``slope``, to ``dps`` digits."""
    with mp.workdps(dps):
        w = mp.mpf(omega)
        return float(_mp_stroke(stat, model, mp.mpf(slope) * w, w, w, beta_i, beta_f))


def _mp_stroke(stat, model, a, b, held, u_i, u_f):
    # held/(2a) * integral du / [e^{q a u} (e^{a u} - e^{b u}) (1 -+ e^{-b u})]; the
    # integral does not depend on the rate a, so strokes that differ only in a share it
    integral = _mp_integral(stat, mp.mpf(model.q), a, b, u_i, u_f, mp.mp.dps)
    return (1 if u_f > u_i else -1) * held / (2 * mp.mpf(model.a)) * integral


@functools.cache
def _mp_integral(stat, q, a, b, u_i, u_f, dps):
    """The stroke integral over [min(u_i, u_f), max(u_i, u_f)] at ``dps`` digits, the
    working precision, which is part of the cache key."""
    # The integrand is e^{-lam u} g(u), with g like a power of u below the
    # decay length 1/lam and smooth above it.  The range is split there, each
    # piece in the variable that makes it smooth:
    # - below, v = ln(u/lo), breakpoints doubling away from both ends: times u
    #   the integrand behaves like e^{-v} or 1, over however many decades;
    # - above, t = e^{-lam (u - split)} removes the exponential, which tanh-sinh
    #   alone resolves poorly over a span of many decay lengths.
    # A stroke with lam*lo >= 1 is all t, one with lam*hi <= 2 all v.
    weight_sign = -1 if stat is Statistics.BOSONIC else 1
    lam = q * a + max(a, b)
    lo, hi = sorted((mp.mpf(u_i), mp.mpf(u_f)))
    split = lo if lam * lo >= 1 else hi if lam * hi <= 2 else 1 / lam
    integral = 0
    if split > lo:
        def f(v):
            u = lo * mp.exp(v)
            weight = -mp.expm1(-b * u) if weight_sign < 0 else 1 + mp.exp(-b * u)
            return u / (mp.exp((q * a + b) * u) * mp.expm1((a - b) * u) * weight)

        # mp.quad stops refining a subinterval on an absolute error, so f is
        # integrated relative to f(0): near a bosonic lo of 1e-300, f of 1e300
        # would take every subinterval to the highest degree
        scale = f(0)
        end = mp.log(split / lo)
        steps = [mp.mpf(2) ** j for j in range(int(mp.log(end, 2)) + 1)] if end > 1 else []
        integral += scale * _mp_quad(lambda v: f(v) / scale,
                                     sorted({mp.mpf(0), end, *steps, *(end - s for s in steps)}))
    if hi > split:
        def g(t):
            u = split - mp.log(t) / lam
            return 1 / (-mp.expm1(-abs(a - b) * u) * (1 + weight_sign * mp.exp(-b * u)))

        t_hi = mp.exp(-lam * (hi - split))
        integral += ((1 if a > b else -1) * mp.exp(-lam * split) / lam
                     * _mp_quad(g, [t_hi, (t_hi + 1) / 2, 1]))
    return integral


def _mp_quad(f, points):
    """``mp.quad`` over ``points``; raises unless its error estimate is below 1e-20 relative."""
    value, error = mp.quad(f, points, error=True)
    if not error <= 1e-20 * abs(value):
        raise ArithmeticError(f"oracle quadrature unresolved: estimate {mp.nstr(error, 3)} "
                              f"on {mp.nstr(value, 10)}")
    return value


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
