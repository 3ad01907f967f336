import dataclasses
import math
import pickle

import pytest

from qstirling import (
    EngineSpec,
    GevaKosloff,
    LinearEngineRegenerator,
    LinearFridgeRegenerator,
    Mode,
    ParameterError,
    QuadratureConfig,
    Statistics,
    closed_form_cycle_time,
    cycle_ledger,
    cycle_performance,
    cycle_time,
    engine_performance,
    equivalence_report,
    fridge_performance,
    power_sweep,
    SweepTemplate,
    ThermalField,
    integrate,
)
from conftest import (
    lowtemp_engine_spec,
    lowtemp_fridge_spec,
    random_engine_spec,
    random_fridge_spec,
    rel,
)

B = Statistics.BOSONIC
F = Statistics.FERMIONIC

TIGHT = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-300, max_subdivisions=400)
MODEL = GevaKosloff(1.0, -0.05)
ENGINE_REGEN = LinearEngineRegenerator(1.4, 0.6)
FRIDGE_REGEN = LinearFridgeRegenerator(1.4, 0.6)

REFERENCE = SweepTemplate(beta2_ratio=2.0, omega2_ratio=2.0, alpha_h=0.6, alpha_c=1.4,
                     gamma1=1.4, gamma2=0.6, q=-0.05)


def high_temp_engine_spec(stat, x_max=1e-3):
    beta1 = x_max / (2.8 * 2.0)
    return EngineSpec(stat, 1.0, 2.0, 0.6 * beta1, beta1, 2.0 * beta1, 2.8 * beta1)


@pytest.mark.parametrize("call", [
    lambda spec: cycle_performance(spec, MODEL, ENGINE_REGEN),
    lambda spec: cycle_time(spec, MODEL, ENGINE_REGEN),
    lambda spec: closed_form_cycle_time(Mode.LOW_TEMP, spec, MODEL, ENGINE_REGEN),
], ids=["cycle_performance", "cycle_time", "closed_form_cycle_time"])
def test_non_spec_rejected_by_type(call):
    with pytest.raises(ParameterError, match="expected an EngineSpec or FridgeSpec, got NoneType"):
        call(None)


class TestEnginePerformance:
    def test_high_temp_bosonic_carnot_like(self):
        report = engine_performance(high_temp_engine_spec(B), MODEL, ENGINE_REGEN,
                                    mode=Mode.HIGH_TEMP)
        assert report.figure_of_merit == 0.5
        assert report.ledger.delta_q == 0.0
        assert report.ledger.delta == 0

    def test_high_temp_fermionic(self):
        report = engine_performance(high_temp_engine_spec(F), MODEL, ENGINE_REGEN,
                                    mode=Mode.HIGH_TEMP)
        assert rel(report.figure_of_merit, 1.0 / 3.0) < 1e-14
        assert report.ledger.delta_q > 0.0
        assert report.ledger.delta == 1

    def test_low_temp_first_law_identity(self):
        # Q_h + Q_c - (-W) cancels algebraically in the closed-form set
        spec = lowtemp_engine_spec(B, 12.0)
        report = engine_performance(spec, MODEL, ENGINE_REGEN, mode=Mode.LOW_TEMP)
        ledger = report.ledger
        assert rel(ledger.q_h + ledger.q_c, -ledger.w_tot) < 1e-13
        minus_w = (math.exp(-spec.beta1 * spec.omega1) - math.exp(-spec.beta1 * spec.omega2)) / spec.beta1 \
            + (math.exp(-spec.beta2 * spec.omega2) - math.exp(-spec.beta2 * spec.omega1)) / spec.beta2
        assert rel(-ledger.w_tot, minus_w) < 1e-13

    def test_exact_vs_low_temp_modes(self):
        # every neglected exponent must dominate x_min for the 5e^{-x_min}
        # bound; alpha_h = gamma_2 = 1/2 and alpha_c = gamma_1 = 3/2 achieve it
        regen = LinearEngineRegenerator(1.5, 0.5)
        for x_min in (8.0, 12.0, 16.0):
            spec = lowtemp_engine_spec(B, x_min, alpha_h=0.5, alpha_c=1.5, gamma2=0.5)
            exact = engine_performance(spec, MODEL, regen, TIGHT, Mode.EXACT)
            low = engine_performance(spec, MODEL, regen, mode=Mode.LOW_TEMP)
            bound = 5.0 * math.exp(-x_min)
            for field in ("q_h", "q_c", "w_tot", "figure_of_merit", "power", "sigma", "tau"):
                assert rel(getattr(exact, field), getattr(low, field)) < bound

    def test_mode_deviation_decreases(self):
        devs = []
        for x_min in (8.0, 12.0, 16.0):
            spec = lowtemp_engine_spec(B, x_min)
            exact = engine_performance(spec, MODEL, ENGINE_REGEN, TIGHT, Mode.EXACT)
            low = engine_performance(spec, MODEL, ENGINE_REGEN, mode=Mode.LOW_TEMP)
            devs.append(rel(exact.tau, low.tau))
        assert devs[0] > devs[1] > devs[2]

    def test_power_tau_identity(self, rng):
        for _ in range(25):
            spec = random_engine_spec(rng, B, x_lo=0.5, x_hi=15.0)
            report = engine_performance(spec, MODEL, ENGINE_REGEN, TIGHT)
            assert rel(report.power * report.tau, abs(report.w_tot)) < 1e-12

    def test_sigma_nonnegative_low_temperature(self, rng):
        for _ in range(100):
            stat = B if rng.integers(2) else F
            spec = random_engine_spec(rng, stat, x_lo=14.0, x_hi=40.0)
            report = engine_performance(spec, MODEL, ENGINE_REGEN, TIGHT)
            assert report.sigma >= 0.0 or report.status != "ok"

    def test_regime_extents_reported(self):
        spec = lowtemp_engine_spec(B, 10.0)
        report = engine_performance(spec, MODEL, ENGINE_REGEN, TIGHT)
        assert rel(report.x_min, 10.0) < 1e-12
        assert report.x_max > report.x_min


class TestFridgePerformance:
    def test_power_and_cooling_identities(self, rng):
        for _ in range(25):
            spec = random_fridge_spec(rng, F, x_lo=0.5, x_hi=12.0)
            report = fridge_performance(spec, MODEL, FRIDGE_REGEN, TIGHT)
            assert rel(report.power * report.tau, abs(report.w_tot)) < 1e-12
            assert rel(report.cooling_rate * report.tau, report.q_c) < 1e-12

    def test_power_tau_identity_large_sample(self, rng):
        # closed-form timing keeps this cheap at the spec's 10^3 sample size
        for i in range(1000):
            stat = B if i % 2 else F
            spec = random_fridge_spec(rng, stat, x_lo=6.0, x_hi=25.0)
            report = fridge_performance(spec, MODEL, FRIDGE_REGEN, mode=Mode.LOW_TEMP)
            assert rel(report.power * report.tau, abs(report.w_tot)) < 1e-12

    def test_low_temp_matches_exact(self):
        for x_min in (10.0, 14.0):
            spec = lowtemp_fridge_spec(F, x_min)
            exact = fridge_performance(spec, MODEL, FRIDGE_REGEN, TIGHT, Mode.EXACT)
            low = fridge_performance(spec, MODEL, FRIDGE_REGEN, mode=Mode.LOW_TEMP)
            assert rel(exact.figure_of_merit, low.figure_of_merit) < 2.0 * math.exp(-x_min)

    def test_statistics_equivalence_of_fridge_quantities(self):
        x_min = 12.0
        rep_b = fridge_performance(lowtemp_fridge_spec(B, x_min), MODEL, FRIDGE_REGEN, TIGHT)
        rep_f = fridge_performance(lowtemp_fridge_spec(F, x_min), MODEL, FRIDGE_REGEN, TIGHT)
        bound = 2.0 * math.exp(-x_min)
        for field in ("figure_of_merit", "power", "cooling_rate"):
            assert rel(getattr(rep_b, field), getattr(rep_f, field)) < bound

    def test_high_temp_mode_rejected(self):
        spec = lowtemp_fridge_spec(B, 9.0)
        with pytest.raises(ParameterError):
            fridge_performance(spec, MODEL, FRIDGE_REGEN, mode=Mode.HIGH_TEMP)


class TestEquivalenceReport:
    def test_low_temperature_all_within_bound(self):
        spec_b = lowtemp_engine_spec(B, 20.0)
        spec_f = lowtemp_engine_spec(F, 20.0)
        out = equivalence_report(spec_b, spec_f, MODEL, ENGINE_REGEN, TIGHT)
        assert out.x_min == 20.0
        assert out.bound == 2.0 * math.exp(-20.0)
        assert out.exceeding == ()
        assert max(out.deviations.values()) <= 4.1e-9

    def test_classical_regime_engines_differ(self):
        # x_min = 0.01: bosonic eta ~ 1/2 vs fermionic ~ 1/3
        spec_b = lowtemp_engine_spec(B, 0.01)
        spec_f = lowtemp_engine_spec(F, 0.01)
        out = equivalence_report(spec_b, spec_f, MODEL, ENGINE_REGEN, TIGHT)
        assert out.deviations["figure_of_merit"] > 0.1

    def test_identical_statistics_trivial(self):
        spec = lowtemp_engine_spec(B, 10.0)
        out = equivalence_report(spec, spec, MODEL, ENGINE_REGEN, TIGHT)
        assert all(v == 0.0 for v in out.deviations.values())

    def test_mismatched_parameters_rejected(self):
        spec_b = lowtemp_engine_spec(B, 10.0)
        spec_f = lowtemp_engine_spec(F, 11.0)
        with pytest.raises(ParameterError, match="differ in"):
            equivalence_report(spec_b, spec_f, MODEL, ENGINE_REGEN, TIGHT)

    def test_fridge_includes_cooling_rate(self):
        out = equivalence_report(lowtemp_fridge_spec(B, 12.0), lowtemp_fridge_spec(F, 12.0),
                                 MODEL, FRIDGE_REGEN, TIGHT)
        assert "cooling_rate" in out.deviations
        assert out.exceeding == ()


class TestPowerSweep:
    def test_reference_sweep_shape(self):
        xs = [0.5 + 9.5 * i / 95 for i in range(96)]
        result = power_sweep(REFERENCE, xs)
        etas = [r.eta for r in result.records]
        assert all(b < a for a, b in zip(etas, etas[1:]))
        p = [r.p_star for r in result.records]
        best = p.index(max(p))
        assert 0 < best < len(p) - 1
        rises = [b > a for a, b in zip(p, p[1:])]
        assert rises.index(False) == rises.count(True)  # single maximum

    def test_curzon_ahlborn_golden(self):
        assert rel(REFERENCE.curzon_ahlborn_bound(), 0.5370899501137243) < 1e-14
        result = power_sweep(REFERENCE, [1.0, 2.0])
        assert all(rel(r.ca_bound, 0.5370899501137243) < 1e-14 for r in result.records)

    def test_reference_curve(self):
        result = power_sweep(REFERENCE, [1.0, 3.0])
        assert result.records[0].ref_curve == 0.5
        assert result.records[1].ref_curve == 0.25

    def test_power_vanishes_at_large_x(self):
        # the slowest surviving exponent is |q|*alpha_h*x, so the decay is
        # gentle but strictly monotone toward zero
        result = power_sweep(REFERENCE, [100.0, 200.0, 400.0])
        p = [r.p_star for r in result.records]
        assert p[0] > p[1] > p[2] > 0.0
        assert p[2] < 0.01 * power_sweep(REFERENCE, [6.13]).records[0].p_star

    def test_single_point_grid(self):
        result = power_sweep(REFERENCE, [0.7])
        assert result.summary.x_star == 0.7
        assert result.summary.grid_argmax_x == 0.7
        assert result.summary.p_star_max == result.records[0].p_star

    def test_refinement_improves_or_keeps_maximum(self):
        xs = [0.5 + 9.5 * i / 19 for i in range(20)]
        result = power_sweep(REFERENCE, xs)
        grid_max = max(r.p_star for r in result.records)
        assert result.summary.p_star_max >= grid_max

    def test_summary_reports_both_comparisons(self):
        xs = [0.5 + 9.5 * i / 95 for i in range(96)]
        summary = power_sweep(REFERENCE, xs).summary
        assert summary.eta_below_ca_bound is True
        assert isinstance(summary.eta_below_ref_curve, bool)
        assert summary.ref_curve_at_max == 1.0 / (1.0 + summary.x_star)

    def test_records_finite_and_nonnegative(self):
        import math
        xs = [0.5 + 9.5 * i / 47 for i in range(48)]
        for record in power_sweep(REFERENCE, xs).records:
            assert math.isfinite(record.eta)
            assert math.isfinite(record.p_star)
            assert record.p_star >= 0.0

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            power_sweep(REFERENCE, [])
        with pytest.raises(ParameterError):
            power_sweep(REFERENCE, [2.0, 1.0])
        with pytest.raises(ParameterError):
            power_sweep(REFERENCE, [-1.0, 1.0])

    @pytest.mark.parametrize("grid, bad", [
        ([1.0, math.inf], "point 1 must be positive and finite, got inf"),
        ([math.nan], "point 0 must be positive and finite, got nan"),
        ([-math.inf, 1.0], "point 0 must be positive and finite, got -inf"),
    ])
    def test_grid_names_a_non_finite_point(self, grid, bad):
        # a non-finite point was named as the spec field it became (beta_h),
        # and NaN passed the positivity check
        with pytest.raises(ParameterError, match=f"^sweep grid {bad}$"):
            power_sweep(REFERENCE, grid)

    def test_template_validation(self):
        with pytest.raises(ParameterError):
            SweepTemplate(0.9, 2.0, 0.6, 1.4, 1.4, 0.6, -0.05)
        with pytest.raises(ParameterError):
            SweepTemplate(2.0, 2.0, 1.2, 1.4, 1.4, 0.6, -0.05)


def test_result_classes_are_slotted_and_round_trip():
    # slotted results keep no per-instance __dict__; pickle and
    # dataclasses.replace (used by bench/selfcheck.py) still work
    engine = lowtemp_engine_spec(B, 10.0)
    report = cycle_performance(engine, MODEL, ENGINE_REGEN)
    results = (report, report.ledger, report.timing, cycle_ledger(engine),
               cycle_ledger(lowtemp_fridge_spec(F, 10.0)),
               integrate(math.exp, 0.0, 1.0))
    assert {type(r).__name__ for r in results} == {
        "PerformanceReport", "StrokeLedger", "TimingReport", "EngineCycle", "FridgeCycle",
        "QuadratureResult"}
    for result in results:
        assert not hasattr(result, "__dict__")
        assert pickle.loads(pickle.dumps(result)) == result
        assert dataclasses.replace(result) == result
    assert dataclasses.replace(report, tau=2.0 * report.tau).tau == 2.0 * report.tau


@pytest.mark.parametrize("value", [
    lowtemp_engine_spec(B, 10.0),
    lowtemp_fridge_spec(F, 10.0),
    ENGINE_REGEN,
    FRIDGE_REGEN,
    MODEL,
    ThermalField(1.0, 2.0),
    QuadratureConfig(),
], ids=lambda value: type(value).__name__)
def test_input_classes_stay_frozen(value):
    # inputs are validated once in __post_init__, so assignment must stay
    # impossible; results (above) are plain records and may be assigned
    name = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, getattr(value, name))
