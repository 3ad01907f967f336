"""Shared helpers: relative deviation, random-but-reproducible cycle specs and
an mpmath stroke-time oracle."""

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


def mp_isochoric_time_log(stat, model, slope, omega, beta_i, beta_f, dps=40):
    """``mp_isochoric_time`` by quadrature in v = ln(beta_s/lo), for a stroke
    whose lower end lies many decades below its upper one.

    Near a vanishing ``lo`` the integrand behaves like 1/beta_s^2, a spike
    at the end of ``_mp_stroke``'s t range that tanh-sinh cannot resolve; times
    beta_s it decays like e^{-v}.
    """
    with mp.workdps(dps):
        w, c, q = mp.mpf(omega), mp.mpf(slope), mp.mpf(model.q)
        lo, hi = sorted((mp.mpf(beta_i), mp.mpf(beta_f)))

        def integrand(v):
            u = lo * mp.exp(v)
            weight = -mp.expm1(-w * u) if stat is Statistics.BOSONIC else 1 + mp.exp(-w * u)
            return u / (mp.exp((q * c + 1) * w * u) * mp.expm1((c - 1) * w * u) * weight)

        end = mp.log(hi / lo)
        points = [0] + [p for p in (1, 4, 16, 64, 256) if p < end] + [end]
        value = w / (2 * mp.mpf(model.a)) * mp.quad(integrand, points)
        return float(value if beta_f > beta_i else -value)


def _mp_stroke(stat, model, a, b, held, u_i, u_f):
    # held/(2a) * integral du / [e^{q a u} (e^{a u} - e^{b u}) (1 -+ e^{-b u})].
    # The integrand is e^{-lam u} g(u) with g smooth and bounded; substituting
    # t = e^{-lam (u - lo)} removes the exponential, which tanh-sinh alone
    # resolves poorly over a span of many decay lengths.
    q = mp.mpf(model.q)
    weight_sign = -1 if stat is Statistics.BOSONIC else 1
    lam = q * a + max(a, b)
    lo, hi = sorted((mp.mpf(u_i), mp.mpf(u_f)))

    def g(t):
        u = lo - mp.log(t) / lam
        return 1 / (-mp.expm1(-abs(a - b) * u) * (1 + weight_sign * mp.exp(-b * u)))

    t_hi = mp.exp(-lam * (hi - lo))
    integral = mp.exp(-lam * lo) / lam * mp.quad(g, [t_hi, (t_hi + 1) / 2, 1])
    orientation = (1 if a > b else -1) * (1 if u_f > u_i else -1)
    return orientation * held / (2 * mp.mpf(model.a)) * integral


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
