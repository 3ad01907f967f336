import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstirling import (
    GevaKosloff,
    ParameterError,
    Regime,
    RelaxationSetup,
    Statistics,
    ThermalField,
    conduction_ratio,
    equilibrium_population,
    heat_current,
    limit_heat_current,
    population,
    rates,
    relax,
    relaxation_rate,
)
from conftest import rel

B = Statistics.BOSONIC
F = Statistics.FERMIONIC
LN2 = math.log(2.0)


class TestRates:
    def test_geva_kosloff_example(self):
        # a=1, q=-1/2, beta*omega = 2 ln 2: gamma_plus = 1/2, gamma_minus = 2
        gp, gm = GevaKosloff(1.0, -0.5).rates(2.0 * LN2, 1.0)
        assert rel(gp, 0.5) < 1e-14
        assert rel(gm, 2.0) < 1e-14

    def test_thermal_field_fermionic_example(self):
        gp, gm = ThermalField(1.0, 1.0).rates(F, math.log(3.0), 1.0)
        assert rel(gp, 0.25) < 1e-14
        assert rel(gm, 0.75) < 1e-14

    @pytest.mark.parametrize("bad", [0.0, -1.0, 0.5, 1.0])
    def test_geva_kosloff_q_domain(self, bad):
        with pytest.raises(ParameterError):
            GevaKosloff(1.0, bad)

    def test_geva_kosloff_a_domain(self):
        with pytest.raises(ParameterError):
            GevaKosloff(0.0, -0.5)

    def test_geva_kosloff_a_must_be_finite(self):
        # a = inf was accepted, and a cycle on it ended in a zero period
        with pytest.raises(ParameterError, match="a must be positive and finite, got inf"):
            GevaKosloff(math.inf, -0.5)

    @pytest.mark.parametrize("rho0, m", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan),
                                         (1.0, math.inf), (1.0, -math.inf)])
    def test_thermal_field_domain(self, rho0, m):
        with pytest.raises(ParameterError, match="must be"):
            ThermalField(rho0, m)

    @pytest.mark.parametrize("call", [
        lambda: GevaKosloff(1.0, -0.05).rates(750.0, 1.0),
        lambda: ThermalField(1.0, 1e308).rates(B, 10.0, 1.5),
        lambda: rates(GevaKosloff(1.0, -0.05), 750.0, 1.0),
        lambda: rates(ThermalField(1.0, 1e308), 10.0, 1.5, B),
    ], ids=["geva-kosloff", "thermal-field", "rates-geva-kosloff", "rates-thermal-field"])
    def test_rate_past_float_range_is_a_parameter_error(self, call):
        # each used to raise a bare OverflowError, in math.exp or in omega ** m
        with pytest.raises(ParameterError, match="gamma_minus = .* overflows"):
            call()

    @pytest.mark.parametrize("x", [700.5, 709.0, 709.782712893384])
    def test_geva_kosloff_detailed_balance_up_to_the_exp_edge(self, x):
        # past x = 700 gamma_minus took its own exponent, 148 ulp off e^x at
        # x = 700.5 and 350 at 709; the last x is ln of the largest float
        gp, gm = GevaKosloff(1.0, -0.05).rates(x, 1.0)
        reference = math.exp(x)
        assert abs(gm / gp - reference) <= 4.0 * math.ulp(reference)

    def test_thermal_field_needs_statistics(self):
        with pytest.raises(ParameterError):
            rates(ThermalField(1.0, 1.0), 1.0, 1.0)

    def test_detailed_balance_both_variants(self, rng):
        for _ in range(1000):
            beta = rng.uniform(0.05, 10.0)
            omega = rng.uniform(0.05, 5.0)
            stat = B if rng.integers(2) else F
            for model in (GevaKosloff(rng.uniform(0.1, 5.0), rng.uniform(-0.99, -0.01)),
                          ThermalField(rng.uniform(0.1, 5.0), rng.uniform(0.5, 2.0))):
                gp, gm = rates(model, beta, omega, stat)
                assert gp > 0.0 and gm > 0.0
                reference = math.exp(beta * omega)
                assert abs(gm / gp - reference) <= 4.0 * math.ulp(reference)


class TestRelax:
    def _setup(self, stat=F, n0=0.0):
        return RelaxationSetup(stat, GevaKosloff(1.0, -0.5), 2.0 * LN2, 1.0, n0)

    def test_fixed_point(self):
        setup = self._setup(B, n0=population(B, 2.0 * LN2))
        for t in (0.0, 0.3, 5.0):
            assert relax(setup, t) == equilibrium_population(setup)

    def test_initial_value(self):
        setup = self._setup(n0=0.37)
        assert relax(setup, 0.0) == 0.37

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            relax(self._setup(), -1.0)

    def test_fermionic_example_value(self):
        # rate 2(gamma_minus + gamma_plus) = 5, n_eq = 1/5
        setup = self._setup()
        assert rel(relaxation_rate(setup), 5.0) < 1e-14
        assert rel(equilibrium_population(setup), 0.2) < 1e-14
        expected = 0.2 * (1.0 - math.exp(-5.0))
        assert rel(relax(setup, 1.0), expected) < 1e-14

    def test_explicit_euler_cross_check(self):
        # independent first-order integration of dn/dt = -2a e^{q x}[(e^x + 1)n - 1];
        # forward Euler at step 1e-6 has a ~8.5e-8 first-order floor here, so the
        # agreement bound is 1e-7 (see decisions ledger); the acceptance suite
        # cross-checks with RK4 at the spec's 1e-8.
        setup = self._setup()
        x = setup.beta * setup.omega
        c = 2.0 * setup.model.a * math.exp(setup.model.q * x)
        growth = math.exp(x) + 1.0
        h = 1e-6
        n = 0.0
        for _ in range(10 ** 6):
            n += h * (-c * (growth * n - 1.0))
        assert rel(relax(setup, 1.0), n) < 1e-7

    @pytest.mark.parametrize("stat", [B, F])
    def test_monotone_and_convergent(self, stat):
        setup = RelaxationSetup(stat, GevaKosloff(0.7, -0.3), 1.3, 1.1, 0.01)
        n_eq = equilibrium_population(setup)
        times = np.linspace(0.0, 20.0, 200)
        values = [relax(setup, t) for t in times]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert rel(values[-1], n_eq) < 1e-6

    @pytest.mark.parametrize("stat", [B, F])
    def test_half_life(self, stat):
        setup = RelaxationSetup(stat, GevaKosloff(1.3, -0.6), 0.9, 1.4, 0.002)
        n_eq = equilibrium_population(setup)
        half = LN2 / relaxation_rate(setup)
        for t in (0.0, 0.5, 2.0):
            # subtracting n_eq costs ~5 digits by cancellation at the later times
            gap = abs(relax(setup, t) - n_eq)
            gap_next = abs(relax(setup, t + half) - n_eq)
            assert rel(gap_next, 0.5 * gap) < 1e-9

    @pytest.mark.parametrize("stat", [B, F])
    def test_ode_consistency(self, stat):
        # central difference of n(t) against the rate equation itself
        model = GevaKosloff(1.1, -0.4)
        setup = RelaxationSetup(stat, model, 1.7, 0.8, 0.01)
        x = setup.beta * setup.omega
        sign = -1.0 if stat is B else 1.0
        growth = math.exp(x) + sign
        for t in (0.05, 0.4, 1.5):
            h = 1e-6
            derivative = (relax(setup, t + h) - relax(setup, t - h)) / (2.0 * h)
            n = relax(setup, t)
            expected = -2.0 * model.a * math.exp(model.q * x) * (growth * n - 1.0)
            assert rel(derivative, expected) < 1e-6


class TestHeatCurrent:
    def test_equilibrium_vanishes(self):
        for stat in (B, F):
            assert heat_current(stat, GevaKosloff(1.0, -0.5), 1.3, 1.3, 0.9) == 0.0

    def test_sign(self):
        for stat in (B, F):
            assert heat_current(stat, GevaKosloff(1.0, -0.5), 1.0, 2.0, 1.0) > 0.0
            assert heat_current(stat, GevaKosloff(1.0, -0.5), 2.0, 1.0, 1.0) < 0.0

    def test_requires_geva_kosloff(self):
        with pytest.raises(ParameterError):
            heat_current(B, ThermalField(1.0, 1.0), 1.0, 2.0, 1.0)

    def test_newtonian_limit_bosonic(self):
        model = GevaKosloff(1.0, -0.05)
        exact = heat_current(B, model, 1e-3, 1.1e-3, 1.0)
        approx = limit_heat_current(Regime.HIGH_TEMP_BOSONIC, model, 1e-3, 1.1e-3, 1.0)
        assert rel(exact, approx.value) < 1e-2

    def test_low_temperature_limit(self):
        model = GevaKosloff(1.0, -0.5)
        exact = heat_current(B, model, 25.0, 26.0, 1.0)
        approx = limit_heat_current(Regime.LOW_TEMP, model, 25.0, 26.0, 1.0)
        assert rel(exact, approx.value) < 1e-6

    @pytest.mark.parametrize("stat,regime", [
        (B, Regime.HIGH_TEMP_BOSONIC),
        (F, Regime.HIGH_TEMP_FERMIONIC),
    ])
    def test_high_temperature_first_order_convergence(self, stat, regime):
        model = GevaKosloff(1.0, -0.2)
        errors = []
        for x in (0.1, 0.05, 0.025):
            exact = heat_current(stat, model, x, 1.3 * x, 1.0)
            approx = limit_heat_current(regime, model, x, 1.3 * x, 1.0)
            errors.append(rel(exact, approx.value))
        assert errors[0] > errors[1] > errors[2]
        for a, b in zip(errors, errors[1:]):
            assert 1.4 < a / b < 3.0  # first order in the expansion parameter

    def test_low_temperature_convergence(self):
        model = GevaKosloff(1.0, -0.5)
        errors = []
        for x in (8.0, 12.0, 16.0):
            exact = heat_current(F, model, x, 1.05 * x, 1.0)
            approx = limit_heat_current(Regime.LOW_TEMP, model, x, 1.05 * x, 1.0)
            errors.append(rel(exact, approx.value))
        assert errors[0] > errors[1] > errors[2]


class TestLimitHeatCurrent:
    def test_low_temp_equilibrium_zero(self):
        out = limit_heat_current(Regime.LOW_TEMP, GevaKosloff(1.0, -0.5), 9.0, 9.0, 1.0)
        assert out.value == 0.0

    def test_high_temp_fermionic_value(self):
        out = limit_heat_current(Regime.HIGH_TEMP_FERMIONIC, GevaKosloff(1.0, -0.5),
                                 1.0, 1.1, 1.0)
        assert rel(out.value, 0.1) < 1e-12
        assert rel(out.coefficient, 1.0) < 1e-12

    def test_coefficients(self):
        model = GevaKosloff(2.0, -0.3)
        hi_b = limit_heat_current(Regime.HIGH_TEMP_BOSONIC, model, 0.05, 0.06, 1.5)
        assert rel(hi_b.coefficient, 2.0 * 2.0 * 1.5 * 0.05) < 1e-12
        low = limit_heat_current(Regime.LOW_TEMP_LINEAR, model, 10.0, 10.5, 1.5)
        assert rel(low.coefficient, 2.0 * 2.0 * 1.5 ** 2 * math.exp(-0.3 * 15.0)) < 1e-12

    def test_validity_distance(self):
        model = GevaKosloff(1.0, -0.5)
        inside = limit_heat_current(Regime.LOW_TEMP, model, 9.0, 10.0, 1.0)
        outside = limit_heat_current(Regime.LOW_TEMP, model, 2.0, 3.0, 1.0)
        assert inside.validity_distance == 0.0
        assert outside.validity_distance == 6.0

    def test_unknown_regime(self):
        with pytest.raises(ParameterError):
            limit_heat_current("nonsense", GevaKosloff(1.0, -0.5), 1.0, 1.1, 1.0)


class TestConductionRatio:
    def test_unity_on_curve(self):
        assert rel(conduction_ratio(-0.5, 2.0 * LN2), 1.0) < 1e-14

    def test_extended_precision_point(self):
        mpmath.mp.dps = 40
        expected = float(2 * mpmath.exp(mpmath.mpf("-0.1") * mpmath.log(2)))
        assert rel(conduction_ratio(-0.1, LN2), expected) < 1e-14

    def test_q_to_zero_limit(self):
        assert rel(conduction_ratio(-1e-12, 5.0), 2.0) < 1e-9

    def test_domain(self):
        with pytest.raises(ParameterError):
            conduction_ratio(0.0, 1.0)
        with pytest.raises(ParameterError):
            conduction_ratio(-0.5, 0.0)

    def test_region_signs_on_grid(self):
        # 50x50 module-level check; acceptance runs the full 200x200
        qs = np.linspace(-0.99, -0.01, 50)
        xs = np.linspace(0.05, 15.0, 50)
        for q in qs:
            for x in xs:
                lr = conduction_ratio(q, x)
                gap = LN2 - abs(q) * x
                if gap != 0.0:
                    assert (lr > 1.0) == (gap > 0.0)


class TestRelaxationSetupValidation:
    def test_fermionic_occupation_domain(self):
        with pytest.raises(ParameterError):
            RelaxationSetup(F, GevaKosloff(1.0, -0.5), 1.0, 1.0, 0.7)

    def test_negative_occupation(self):
        with pytest.raises(ParameterError):
            RelaxationSetup(B, GevaKosloff(1.0, -0.5), 1.0, 1.0, -0.1)

    @given(st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=-0.95, max_value=-0.05))
    @settings(max_examples=100)
    def test_bosonic_rate_positive(self, beta, omega, q):
        setup = RelaxationSetup(B, GevaKosloff(1.0, q), beta, omega, 0.1)
        assert relaxation_rate(setup) > 0.0
