import math

import mpmath
import pytest
from scipy.integrate import quad as scipy_quad

from qstirling import ConvergenceError, ParameterError, QuadratureConfig, integrate
from qstirling.quadrature import gauss_legendre
from conftest import rel


def test_polynomial_exactness():
    # the 15-point Kronrod rule is exact through degree 22 on one panel
    out = integrate(lambda x: x ** 20, -1.0, 1.0, QuadratureConfig(1e-13, 1e-15, 50))
    assert rel(out.value, 2.0 / 21.0) < 1e-14


@pytest.mark.parametrize("f,a,b,exact", [
    (math.exp, 0.0, 1.0, math.e - 1.0),
    (math.sin, 0.0, math.pi, 2.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    (lambda x: math.exp(-100.0 * x * x), -5.0, 5.0,
     math.sqrt(math.pi) / 10.0 * math.erf(50.0)),
])
def test_known_integrals(f, a, b, exact):
    out = integrate(f, a, b, QuadratureConfig(1e-12, 1e-16, 100))
    assert rel(out.value, exact) < 1e-11
    assert abs(out.value - exact) <= max(out.error_estimate, 1e-15 * abs(exact))


def test_agrees_with_scipy_on_peaked_integrand():
    f = lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2)
    mine = integrate(f, 0.0, 1.0, QuadratureConfig(1e-12, 1e-16, 200))
    reference, _ = scipy_quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)
    assert rel(mine.value, reference) < 1e-10


def test_empty_interval():
    out = integrate(math.exp, 2.0, 2.0)
    assert out.value == 0.0
    assert out.error_estimate == 0.0
    assert out.panels == 0


def test_orientation():
    forward = integrate(math.exp, 0.0, 1.0)
    backward = integrate(math.exp, 1.0, 0.0)
    assert rel(forward.value, -backward.value) < 1e-14


def test_error_contract():
    cfg = QuadratureConfig(1e-9, 1e-14, 100)
    out = integrate(lambda x: math.exp(-10.0 * x * x), -3.0, 3.0, cfg)
    assert out.error_estimate <= max(cfg.rel_tol * abs(out.value), cfg.abs_tol)


def test_convergence_error_names_the_achieved_error():
    # absolute, and relative to the integral, which reads the same in any units
    cfg = QuadratureConfig(1e-13, 1e-300, 3)
    with pytest.raises(ConvergenceError, match=r"^quadrature error \d\.\d{3}e[+-]\d+ "
                                                r"\(1\.9e\+00 relative\) still above "
                                                r"tolerance after 3 subdivisions$"):
        integrate(lambda x: 1.0 / (1e-8 + x * x), -1.0, 1.0, cfg)


def test_convergence_error_on_a_zero_integral_is_inf_relative():
    # an odd integrand sums to exactly zero: no ZeroDivisionError
    cfg = QuadratureConfig(1e-13, 1e-300, 3)
    with pytest.raises(ConvergenceError, match=r"^quadrature error \d\.\d{3}e[+-]\d+ "
                                                r"\(inf relative\) still above "
                                                r"tolerance after 3 subdivisions$"):
        integrate(lambda x: x / (1e-8 + x * x), -1.0, 1.0, cfg)


def test_overflow_at_one_node_is_bisected_away():
    # the centre node of [-1, 1] overflows; after one bisection it is a panel
    # end, which GK15 never evaluates
    f = lambda x: 1e300 * 1e300 if x == 0.0 else 1.0
    out = integrate(f, -1.0, 1.0)
    assert out.value == 2.0
    assert math.isfinite(out.error_estimate)
    assert out.panels == 2


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0)])
def test_overflow_on_a_subinterval_raises_not_finite(a, b):
    f = lambda x: 1e300 * 1e300 if x < 0.25 else 1.0
    with pytest.raises(ConvergenceError,
                       match=r"^quadrature error (inf|nan) is not finite after 40 subdivisions$"):
        integrate(f, a, b, QuadratureConfig(1e-10, 1e-300, 40))


def test_interval_at_float_resolution_raises():
    # four ulp of 1.0: after two bisections a panel's midpoint is one of its ends,
    # long before the 200-subdivision budget or a tolerance no sum can reach
    with pytest.raises(ConvergenceError, match=r"^interval \[1\.0000000000000007, "
                                                r"1\.0000000000000009\] cannot be subdivided "
                                                r"further$"):
        integrate(lambda x: x, 1.0, 1.0 + 4 * math.ulp(1.0),
                  QuadratureConfig(1e-300, 5e-324, 200))


def test_tolerance_halving_stays_within_estimate():
    f = lambda x: math.exp(-40.0 * (x - 0.37) ** 2)
    coarse = integrate(f, 0.0, 1.0, QuadratureConfig(1e-6, 1e-300, 200))
    fine = integrate(f, 0.0, 1.0, QuadratureConfig(5e-7, 1e-300, 200))
    assert abs(coarse.value - fine.value) <= coarse.error_estimate


def test_config_validation():
    with pytest.raises(ParameterError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ParameterError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ParameterError):
        QuadratureConfig(max_subdivisions=0)
    # a NaN tolerance never compares <= 0 and an infinite one stops after one panel
    for tolerances in ({"rel_tol": math.nan}, {"rel_tol": math.inf},
                       {"abs_tol": math.nan}, {"abs_tol": math.inf}):
        with pytest.raises(ParameterError):
            QuadratureConfig(**tolerances)


@pytest.mark.parametrize("n", range(2, 16))
def test_gauss_legendre_rule_matches_mpmath(n):
    # nodes and weights on [0, 1] from mpmath's Legendre roots at 30 digits,
    # within 2 ulp; the weights sum to the interval's length
    nodes, weights = gauss_legendre(n)
    assert gauss_legendre(n) is gauss_legendre(n)  # built once per n
    with mpmath.workdps(30):
        for x, w in zip(nodes, weights):
            t = mpmath.findroot(lambda y: mpmath.legendre(n, y), mpmath.mpf(2 * x - 1))
            dp = mpmath.diff(lambda y: mpmath.legendre(n, y), t)
            for got, exact in ((x, (1 + t) / 2), (w, 1 / ((1 - t * t) * dp * dp))):
                assert abs(got - float(exact)) <= 2 * math.ulp(float(exact)), (n, got)
    assert len(set(nodes)) == n
    assert abs(math.fsum(weights) - 1.0) <= 2e-16
    # exact through degree 2n - 1
    moment = math.fsum(w * x ** (2 * n - 1) for x, w in zip(nodes, weights))
    assert rel(moment, 1 / (2 * n)) < 1e-14
