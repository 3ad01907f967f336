import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qstirling.series
import qstirling.timing
from qstirling import (
    ConvergenceError,
    EngineSpec,
    GevaKosloff,
    LinearEngineRegenerator,
    LinearFridgeRegenerator,
    Mode,
    ParameterError,
    QuadratureConfig,
    SingularityError,
    Statistics,
    closed_form_cycle_time,
    cycle_performance,
    engine_cycle_time,
    engine_regime_extents,
    fridge_cycle_time,
    fridge_regime_extents,
    isochoric_time,
    isothermal_time,
)
from qstirling.config import load_run_config
from conftest import (
    lowtemp_engine_spec,
    lowtemp_fridge_spec,
    mp_isochoric_time,
    mp_isothermal_time,
    rel,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

B = Statistics.BOSONIC
F = Statistics.FERMIONIC

TIGHT = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-300, max_subdivisions=400)
MODEL = GevaKosloff(1.0, -0.05)
ENGINE_REGEN = LinearEngineRegenerator(1.4, 0.6)
FRIDGE_REGEN = LinearFridgeRegenerator(1.4, 0.6)


def reference_engine_spec(stat, x, alpha_h=0.6, alpha_c=1.4):
    beta1 = x
    return EngineSpec(stat, 1.0, 2.0, alpha_h * beta1, beta1, 2.0 * beta1,
                      alpha_c * 2.0 * beta1)


class TestIsothermalTime:
    def test_empty_sweep(self):
        out = isothermal_time(B, MODEL, 0.6, 1.0, 1.5, 1.5, TIGHT)
        assert out.duration == 0.0

    def test_equal_temperatures_singular(self):
        with pytest.raises(SingularityError, match="infinite relaxation"):
            isothermal_time(B, MODEL, 1.0, 1.0, 1.0, 2.0, TIGHT)

    def test_wrong_direction_rejected(self):
        # hot-bath stroke must sweep downward in frequency
        with pytest.raises(ParameterError, match="negative duration"):
            isothermal_time(B, MODEL, 0.6, 1.0, 1.0, 2.0, TIGHT)

    @pytest.mark.parametrize("x,tol", [(10.0, 0.02), (20.0, 0.001)])
    def test_engine_hot_stroke_low_temperature_form(self, x, tol):
        # A->B at beta_s = beta1 against beta_h = 0.6*beta1, omega2 = 2*omega1
        beta1 = x
        beta_h = 0.6 * beta1
        out = isothermal_time(B, MODEL, beta_h, beta1, 2.0, 1.0, TIGHT)
        k = 1.0 + 0.6 * MODEL.q
        closed = (math.exp(-k * beta1 * 1.0) - math.exp(-k * beta1 * 2.0)) / (2.0 * MODEL.a * k)
        assert rel(out.duration, closed) < tol

    def test_high_temperature_bosonic_form(self):
        beta1 = 1e-4
        beta_h = 0.6 * beta1
        out = isothermal_time(B, MODEL, beta_h, beta1, 2.0, 1.0, TIGHT)
        closed = (2.0 - 1.0) / (2.0 * MODEL.a * 1.0 * 2.0 * (beta1 - beta_h))
        assert rel(out.duration, closed) < 0.01

    @pytest.mark.parametrize("beta,beta_s,omega_i,omega_f", [
        (26.66666666666667, 33.333333333333336, 2.0, 1e-310),
        (23.333333333333332, 16.666666666666668, 1e-310, 2.0)])
    def test_frequency_ratio_past_the_float_range(self, beta, beta_s, omega_i, omega_f):
        # the two isotherms of fridge_lowtemp.ini with omega1 = 1e-310: the
        # frequency ratio overflows, and so does e^v at the upper GK15 nodes
        # in v = ln(u/lo); the fermionic durations themselves are modest
        t = isothermal_time(F, MODEL, beta, beta_s, omega_i, omega_f,
                            QuadratureConfig(1e-10, 1e-300, 200))
        assert rel(t.duration, mp_isothermal_time(F, MODEL, beta, beta_s, omega_i, omega_f)) < 1e-13

    def test_positive_with_error_estimate(self):
        out = isothermal_time(F, MODEL, 0.5, 1.0, 2.0, 1.0, TIGHT)
        assert out.duration > 0.0
        assert out.error_estimate <= max(TIGHT.rel_tol * out.duration, TIGHT.abs_tol)


class TestIsochoricTime:
    def test_empty_sweep(self):
        out = isochoric_time(B, MODEL, 1.4, 1.0, 2.0, 2.0, TIGHT)
        assert out.duration == 0.0

    @pytest.mark.parametrize("stat", [B, F])
    def test_engine_cooling_stroke_low_temperature_form(self, stat):
        # B->C with gamma1 = 1.4 at beta1*omega1 = 10, beta2 = 2*beta1
        beta1, gamma1 = 10.0, 1.4
        out = isochoric_time(stat, MODEL, gamma1, 1.0, beta1, 2.0 * beta1, TIGHT)
        k = gamma1 * (1.0 + MODEL.q)
        closed = (math.exp(-k * beta1) - math.exp(-k * 2.0 * beta1)) / (2.0 * MODEL.a * k)
        assert rel(out.duration, closed) < 0.02

    def test_fermionic_high_temperature_logarithm(self):
        beta1, gamma1 = 1e-4, 1.4
        out = isochoric_time(F, MODEL, gamma1, 1.0, beta1, 2.0 * beta1, TIGHT)
        closed = math.log(2.0) / (4.0 * MODEL.a * (gamma1 - 1.0))
        assert rel(out.duration, closed) < 0.01

    def test_temperature_ratio_past_the_float_range(self):
        # beta_f/beta_i overflows, yet the fermionic duration stays modest
        out = isochoric_time(F, MODEL, 1.4, 1.0, 1e-310, 2.0, TIGHT)
        assert rel(out.duration, mp_isochoric_time(F, MODEL, 1.4, 1.0, 1e-310, 2.0)) < 1e-11

    def test_high_temperature_form_denominator_underflow_is_infinite(self):
        # B->C of engine_lowtemp.ini with a = omega1 = 1e-300: 2a*dd underflows to
        # zero, so the duration is infinite, named as the series and GK15 name it
        with pytest.raises(SingularityError, match="^duration is past the float range$"):
            isochoric_time(B, GevaKosloff(1e-300, -0.05), 1.4, 1e-300,
                           16.666666666666668, 33.333333333333336)


class TestEngineCycleTime:
    def test_doubling_a_halves_every_stroke(self):
        spec = reference_engine_spec(B, 12.0)
        slow = engine_cycle_time(spec, GevaKosloff(1.0, -0.05), ENGINE_REGEN, TIGHT)
        fast = engine_cycle_time(spec, GevaKosloff(2.0, -0.05), ENGINE_REGEN, TIGHT)
        for a, b in zip((slow.t1, slow.t2, slow.t3, slow.t4, slow.tau),
                        (fast.t1, fast.t2, fast.t3, fast.t4, fast.tau)):
            assert b == 0.5 * a

    @pytest.mark.parametrize("x_min,tol", [(10.0, 0.02), (20.0, 0.001)])
    def test_low_temperature_closed_form(self, x_min, tol):
        spec = lowtemp_engine_spec(B, x_min)
        report = engine_cycle_time(spec, MODEL, ENGINE_REGEN, TIGHT)
        closed = closed_form_cycle_time(Mode.LOW_TEMP, spec, MODEL, ENGINE_REGEN)
        assert rel(report.tau, closed.tau) < tol

    def test_high_temperature_bosonic_closed_form(self):
        beta1 = 1e-4 / (2.8 * 2.0)
        spec = EngineSpec(B, 1.0, 2.0, 0.6 * beta1, beta1, 2 * beta1, 2.8 * beta1)
        report = engine_cycle_time(spec, MODEL, ENGINE_REGEN, TIGHT)
        closed = closed_form_cycle_time(Mode.HIGH_TEMP, spec, MODEL, ENGINE_REGEN)
        assert rel(report.tau, closed.tau) < 0.01

    @pytest.mark.parametrize("x_min", [8.0, 12.0])
    def test_statistics_agree_at_low_temperature(self, x_min):
        spec_b = lowtemp_engine_spec(B, x_min)
        spec_f = lowtemp_engine_spec(F, x_min)
        tau_b = engine_cycle_time(spec_b, MODEL, ENGINE_REGEN, TIGHT).tau
        tau_f = engine_cycle_time(spec_f, MODEL, ENGINE_REGEN, TIGHT).tau
        assert rel(tau_b, tau_f) < 2.0 * math.exp(-x_min)

    def test_statistics_differ_at_high_temperature(self):
        beta1 = 1e-3 / (2.8 * 2.0)  # x_max <= 1e-3
        spec_b = EngineSpec(B, 1.0, 2.0, 0.6 * beta1, beta1, 2 * beta1, 2.8 * beta1)
        spec_f = EngineSpec(F, 1.0, 2.0, 0.6 * beta1, beta1, 2 * beta1, 2.8 * beta1)
        tau_b = engine_cycle_time(spec_b, MODEL, ENGINE_REGEN, TIGHT).tau
        tau_f = engine_cycle_time(spec_f, MODEL, ENGINE_REGEN, TIGHT).tau
        assert rel(tau_b, tau_f) > 0.10

    def test_closed_form_agreement_improves_with_x(self):
        deviations = []
        for x_min in (8.0, 10.0, 15.0, 20.0):
            spec = lowtemp_engine_spec(B, x_min)
            report = engine_cycle_time(spec, MODEL, ENGINE_REGEN, TIGHT)
            closed = closed_form_cycle_time(Mode.LOW_TEMP, spec, MODEL, ENGINE_REGEN)
            deviations.append(rel(report.tau, closed.tau))
        assert all(b < a for a, b in zip(deviations, deviations[1:]))

    def test_positivity_and_error_estimates(self):
        spec = reference_engine_spec(F, 3.0)
        report = engine_cycle_time(spec, MODEL, ENGINE_REGEN, TIGHT)
        assert min(report.t1, report.t2, report.t3, report.t4) > 0.0
        assert report.tau == report.t1 + report.t2 + report.t3 + report.t4
        assert all(e >= 0.0 for e in report.error_estimates)

    def test_tolerance_halving_within_previous_estimate(self, rng):
        coarse_cfg = QuadratureConfig(1e-6, 1e-300, 400)
        fine_cfg = QuadratureConfig(5e-7, 1e-300, 400)
        from conftest import random_engine_spec
        for i in range(10):
            spec = random_engine_spec(rng, B if i % 2 else F, x_lo=0.5, x_hi=12.0)
            coarse = engine_cycle_time(spec, MODEL, ENGINE_REGEN, coarse_cfg)
            fine = engine_cycle_time(spec, MODEL, ENGINE_REGEN, fine_cfg)
            assert abs(coarse.tau - fine.tau) <= sum(coarse.error_estimates)


class TestFridgeCycleTime:
    def test_doubling_a_halves_tau(self):
        spec = lowtemp_fridge_spec(B, 9.0)
        slow = fridge_cycle_time(spec, GevaKosloff(1.0, -0.05), FRIDGE_REGEN, TIGHT)
        fast = fridge_cycle_time(spec, GevaKosloff(2.0, -0.05), FRIDGE_REGEN, TIGHT)
        assert fast.tau == 0.5 * slow.tau

    @pytest.mark.parametrize("x_min,tol", [(10.0, 0.02), (20.0, 0.001)])
    def test_low_temperature_closed_form(self, x_min, tol):
        spec = lowtemp_fridge_spec(B, x_min)
        report = fridge_cycle_time(spec, MODEL, FRIDGE_REGEN, TIGHT)
        closed = closed_form_cycle_time(Mode.LOW_TEMP, spec, MODEL, FRIDGE_REGEN)
        assert rel(report.tau, closed.tau) < tol

    @pytest.mark.parametrize("x_min", [8.0, 12.0])
    def test_statistics_agree_at_low_temperature(self, x_min):
        tau_b = fridge_cycle_time(lowtemp_fridge_spec(B, x_min), MODEL, FRIDGE_REGEN, TIGHT).tau
        tau_f = fridge_cycle_time(lowtemp_fridge_spec(F, x_min), MODEL, FRIDGE_REGEN, TIGHT).tau
        assert rel(tau_b, tau_f) < 2.0 * math.exp(-x_min)

    def test_positivity(self):
        spec = lowtemp_fridge_spec(F, 6.0)
        report = fridge_cycle_time(spec, MODEL, FRIDGE_REGEN, TIGHT)
        assert min(report.t1, report.t2, report.t3, report.t4) > 0.0

    def test_foreign_regenerator_rejected(self):
        with pytest.raises(ParameterError, match="requires a LinearFridgeRegenerator"):
            fridge_cycle_time(lowtemp_fridge_spec(B, 9.0), MODEL, ENGINE_REGEN, TIGHT)
        with pytest.raises(ParameterError, match="requires a LinearEngineRegenerator"):
            engine_cycle_time(lowtemp_engine_spec(B, 9.0), MODEL, FRIDGE_REGEN, TIGHT)


class TestClosedForms:
    def test_engine_low_q_to_zero_collapse(self):
        spec = reference_engine_spec(B, 5.0)
        model = GevaKosloff(1.0, -1e-12)
        regen = ENGINE_REGEN
        report = closed_form_cycle_time(Mode.LOW_TEMP, spec, model, regen)
        b1, b2, w1, w2 = spec.beta1, spec.beta2, spec.omega1, spec.omega2
        t1 = (math.exp(-b1 * w1) - math.exp(-b1 * w2)) / 2.0
        t2 = (math.exp(-1.4 * b1 * w1) - math.exp(-1.4 * b2 * w1)) / (2.0 * 1.4)
        t3 = (math.exp(-1.4 * b2 * w1) - math.exp(-1.4 * b2 * w2)) / (2.0 * 1.4)
        t4 = (math.exp(-b1 * w2) - math.exp(-b2 * w2)) / 2.0
        assert rel(report.tau, t1 + t2 + t3 + t4) < 1e-9

    def test_engine_high_bosonic_contact_divergence(self):
        # t1 carries the 1/(beta1 - beta_h) endoreversible divergence
        def tau_with_gap(gap):
            beta1 = 1e-4
            spec = EngineSpec(B, 1.0, 2.0, beta1 * (1.0 - gap), beta1, 2 * beta1,
                              2.8 * beta1)
            return closed_form_cycle_time(Mode.HIGH_TEMP, spec, MODEL, ENGINE_REGEN)
        wide = tau_with_gap(0.2)
        narrow = tau_with_gap(0.1)
        assert rel(narrow.t1, 2.0 * wide.t1) < 1e-12

    def test_mismatched_spec_kind_rejected(self):
        # the cycle kind comes from the spec: the engine's regenerator and a
        # mode without a fridge closed-form set are both rejected
        spec = lowtemp_fridge_spec(B, 9.0)
        with pytest.raises(ParameterError, match="requires a LinearFridgeRegenerator"):
            closed_form_cycle_time(Mode.LOW_TEMP, spec, MODEL, ENGINE_REGEN)
        with pytest.raises(ParameterError,
                           match="no high-temperature closed forms exist for the refrigerator"):
            closed_form_cycle_time(Mode.HIGH_TEMP, spec, MODEL, FRIDGE_REGEN)

    def test_underflowing_denominator_gives_infinite_time(self):
        # 2a*lo*hi*gap of the bosonic isotherms underflows to 0; the other
        # strokes keep their finite values
        spec = EngineSpec(B, 1e-200, 2e-200, 0.6e-4, 1e-4, 2e-4, 2.8e-4)
        report = closed_form_cycle_time(Mode.HIGH_TEMP, spec, MODEL, ENGINE_REGEN)
        assert report.t1 == report.t3 == report.tau == math.inf
        assert 0.0 < report.t2 < math.inf and 0.0 < report.t4 < math.inf

    def test_unknown_kind_rejected(self):
        spec = reference_engine_spec(B, 9.0)
        with pytest.raises(ParameterError):
            closed_form_cycle_time("nonsense", spec, MODEL, ENGINE_REGEN)

    def test_golden_value_reference_family(self):
        # self-generated golden: EngineLow at the reference sweep parameter set, x = 10
        spec = reference_engine_spec(B, 10.0)
        report = closed_form_cycle_time(Mode.LOW_TEMP, spec, MODEL, ENGINE_REGEN)
        assert report.tau > 0.0
        assert rel(report.tau, 3.221893916514918e-05) < 1e-12


class TestIndependentQuadratureOracle:
    @pytest.mark.parametrize("stat", [B, F])
    def test_cycle_time_matches_scipy(self, stat):
        # same integrands handed to an unrelated adaptive integrator
        from scipy.integrate import quad as scipy_quad
        spec = reference_engine_spec(stat, 5.0)
        mine = engine_cycle_time(spec, MODEL, ENGINE_REGEN, TIGHT)
        sign = -1.0 if stat is B else 1.0

        def iso(beta, beta_s, lo, hi):
            f = lambda w: 1.0 / (math.exp(MODEL.q * beta * w)
                                 * (math.exp(beta * w) - math.exp(beta_s * w))
                                 * (1.0 + sign * math.exp(-beta_s * w)))
            value, _ = scipy_quad(f, lo, hi, epsabs=1e-300, epsrel=1e-11, limit=400)
            return beta_s * value / (2.0 * MODEL.a)

        def isochore(c, omega, lo, hi):
            f = lambda b: 1.0 / (math.exp(MODEL.q * c * b * omega)
                                 * (math.exp(c * b * omega) - math.exp(b * omega))
                                 * (1.0 + sign * math.exp(-b * omega)))
            value, _ = scipy_quad(f, lo, hi, epsabs=1e-300, epsrel=1e-11, limit=400)
            return omega * value / (2.0 * MODEL.a)

        t1 = iso(spec.beta_h, spec.beta1, spec.omega2, spec.omega1)
        t3 = iso(spec.beta_c, spec.beta2, spec.omega1, spec.omega2)
        t2 = isochore(1.4, spec.omega1, spec.beta1, spec.beta2)
        t4 = isochore(0.6, spec.omega2, spec.beta2, spec.beta1)
        for ours, reference in zip((mine.t1, mine.t2, mine.t3, mine.t4), (t1, t2, t3, t4)):
            assert rel(ours, reference) < 1e-9


class TestConvergenceFailure:
    def test_failure_names_stroke(self):
        # alpha_h = 0.99 puts A->B past the series term budget, on GK15
        spec = reference_engine_spec(B, 10.0, alpha_h=0.99)
        starved = QuadratureConfig(1e-14, 1e-300, 1)
        with pytest.raises(ConvergenceError, match=r"^stroke A->B: quadrature error \S+ "
                                                   r"\(\d\.\de-\d\d relative\) still above "
                                                   r"tolerance after 1 subdivisions$"):
            engine_cycle_time(spec, MODEL, ENGINE_REGEN, starved)

    @pytest.mark.parametrize("fn, args", [
        (isochoric_time, (1.4, 1.0, 1e-310, 2.0)),
        (isothermal_time, (0.5, 1.0, 2.0, 1e-310)),
    ])
    def test_duration_past_float_range_named_before_quadrature(self, fn, args, monkeypatch):
        # bosonic strokes down to u = 1e-310 last ~1e310: named as such, with
        # no GK15 panel spent on them
        def no_quadrature(*_):
            raise AssertionError("GK15 ran")

        monkeypatch.setattr(qstirling.timing, "integrate", no_quadrature)
        with pytest.raises(SingularityError, match="duration is past the float range"):
            fn(B, MODEL, *args)


class TestFloatRangeEdges:
    @pytest.mark.parametrize("a, lo", [(1e10, 1e-310), (1.0, 1e-308)])
    def test_bosonic_duration_near_the_float_range(self, a, lo):
        # the integrand grows like 1/u^2 down to lo; scaled by the (0, 0) series
        # term alone it overflowed on every GK15 panel near lo, and the stroke
        # ended in "ConvergenceError: quadrature error nan is not finite"
        model = GevaKosloff(a, -0.05)
        out = isochoric_time(B, model, 1.4, 1.0, lo, 2.0)
        assert rel(out.duration, mp_isochoric_time(B, model, 1.4, 1.0, lo, 2.0)) < 1e-12
        assert out.error_estimate <= 1e-10 * out.duration

    @pytest.mark.parametrize("a", [1e306, 1e307, 3e307, 1e308])
    def test_huge_bath_rate_keeps_the_duration_digits(self, a):
        # stroke A->B of configs/engine_hightemp_bosonic.ini takes GK15 with
        # k = -12; the scale 0.5/a * 2^k was subnormal and the duration lost
        # digits: 1.8e-14, 9.8e-14, 3.1e-13 and 1.1e-12 relative
        model = GevaKosloff(a, -0.05)
        args = (0.00010714285714285714, 0.00017857142857142857, 2.0, 1.0)
        out = isothermal_time(B, model, *args)
        assert rel(out.duration, mp_isothermal_time(B, model, *args)) < 1e-15

    @pytest.mark.parametrize("ends", [(2.0, 5e-324), (5e-324, 2.0)])
    def test_gap_underflowing_to_zero_is_named(self, ends):
        # the gap 0.5 * 5e-324 rounds to zero, which GK15 divided by: a bare
        # ZeroDivisionError escaped
        with pytest.raises(SingularityError, match="gap or weight underflows to zero at "
                                                   "u = 5e-324"):
            isothermal_time(F, MODEL, 0.5, 1.0, *ends)


# endpoints across the whole float range: normal values, the bottom of the
# range (subnormals included) and the top
_ENDPOINT = st.one_of(st.floats(1e-3, 1e3), st.floats(5e-324, 1e-308),
                      st.floats(1e306, sys.float_info.max))


@given(st.sampled_from([B, F]), st.sampled_from([isothermal_time, isochoric_time]),
       st.sampled_from([0.5, 1.4]), _ENDPOINT, _ENDPOINT)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_stroke_time_is_finite_or_a_named_error(stat, fn, drive, start, end):
    # drive is the bath beta against beta_s = 1, or the regenerator slope
    try:
        out = fn(stat, MODEL, drive, 1.0, start, end)
    except (ParameterError, SingularityError, ConvergenceError):
        return  # any other exception, ZeroDivisionError and OverflowError among them, fails
    # zero for an empty sweep, and where the duration lies below the least
    # subnormal (e^{-745} at u = 560 on a 1.4 bath isotherm)
    assert 0.0 <= out.duration < math.inf


class TestRegeneratorValidation:
    def test_engine_regenerator_domain(self):
        with pytest.raises(ParameterError):
            LinearEngineRegenerator(0.9, 0.6)
        with pytest.raises(ParameterError):
            LinearEngineRegenerator(1.4, 1.2)

    def test_fridge_regenerator_domain(self):
        # b > 1 and 0 < bp < 1, as gamma1 and gamma2 for the engine
        for b, bp in ((-1.0, 0.6), (0.9, 0.6), (1.0, 0.6), (1.4, 0.0), (1.4, 1.0), (1.4, 1.1)):
            with pytest.raises(ParameterError):
                LinearFridgeRegenerator(b, bp)


class TestRegimeExtents:
    def test_engine(self):
        spec = reference_engine_spec(B, 10.0)
        x_min, x_max = engine_regime_extents(spec, ENGINE_REGEN)
        assert rel(x_min, 6.0) < 1e-12      # min(0.6, 0.6)*10*1
        assert rel(x_max, 56.0) < 1e-12  # max(beta_c, gamma1*beta2) * omega2

    def test_fridge(self):
        spec = lowtemp_fridge_spec(B, 9.0)
        x_min, x_max = fridge_regime_extents(spec, FRIDGE_REGEN)
        assert rel(x_min, 9.0) < 1e-12

    def test_foreign_regenerator_rejected(self):
        # the same check and message as cycle_time, not a KeyError on a slope name
        with pytest.raises(ParameterError, match="requires a LinearEngineRegenerator"):
            engine_regime_extents(reference_engine_spec(B, 10.0), FRIDGE_REGEN)
        with pytest.raises(ParameterError, match="requires a LinearFridgeRegenerator"):
            fridge_regime_extents(lowtemp_fridge_spec(B, 9.0), ENGINE_REGEN)


@pytest.mark.parametrize("name", ["engine_lowtemp.ini", "fridge_lowtemp.ini"])
def test_shipped_lowtemp_exact_point_work_budget(name, monkeypatch):
    # deterministic GK15 work of the shipped EXACT points with every stroke
    # pinned to GK15: 22 panel evaluations (2*panels - 1 per stroke) and 330
    # integrand calls; more is a regression
    counts = {"panel_evals": 0, "integrand_evals": 0}
    real_integrate = qstirling.timing.integrate

    def counting_integrate(f, a, b, cfg=None):
        def counted(x):
            counts["integrand_evals"] += 1
            return f(x)
        result = real_integrate(counted, a, b, cfg)
        counts["panel_evals"] += max(2 * result.panels - 1, 0)
        return result

    monkeypatch.setattr(qstirling.timing, "integrate", counting_integrate)
    monkeypatch.setattr(qstirling.series, "SERIES_TERM_BUDGET", 0)
    cfg = load_run_config(str(CONFIG_DIR / name))
    report = cycle_performance(cfg.spec, cfg.model, cfg.regen, cfg.quad, cfg.mode)
    assert report.status == "ok"
    assert 0 < counts["panel_evals"] <= 22
    assert counts["integrand_evals"] <= 330
    assert counts["integrand_evals"] == 15 * counts["panel_evals"]


@pytest.mark.parametrize("name,budget", [("engine_lowtemp.ini", 48), ("fridge_lowtemp.ini", 54)])
def test_shipped_lowtemp_exact_point_series_budget(name, budget, monkeypatch):
    # the shipped EXACT points take the series on every stroke: no GK15 call
    # and, summed over the four strokes, this many j*k terms; more is a regression
    terms, gk15_calls = [], []
    real_series, real_integrate = qstirling.timing.integrate_linear, qstirling.timing.integrate

    def counting_series(*args):
        result = real_series(*args)
        terms.append(result[2])
        return result

    monkeypatch.setattr(qstirling.timing, "integrate_linear", counting_series)
    monkeypatch.setattr(qstirling.timing, "integrate",
                        lambda *a, **k: gk15_calls.append(1) or real_integrate(*a, **k))
    cfg = load_run_config(str(CONFIG_DIR / name))
    report = cycle_performance(cfg.spec, cfg.model, cfg.regen, cfg.quad, cfg.mode)
    assert report.status == "ok"
    assert gk15_calls == []
    assert len(terms) == 4
    assert sum(terms) <= budget
