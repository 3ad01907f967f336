import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstirling import (
    EngineSpec,
    FridgeSpec,
    OrderingError,
    ParameterError,
    PathSpec,
    Statistics,
    engine_carnot_bound,
    engine_ledger,
    engine_work_closed_form,
    fridge_ledger,
    fridge_work_closed_form,
    integrate_path,
    isochoric_heat,
    isothermal_heat,
)
from qstirling import cycles
from conftest import (
    lowtemp_engine_spec,
    lowtemp_fridge_spec,
    random_engine_spec,
    random_fridge_spec,
    rel,
)


def unchecked_spec(spec_type, *values):
    """A spec with its fields set directly, past the checks ``__init__`` makes,
    so a test can reach the degenerate corners no valid spec has."""
    spec = object.__new__(spec_type)
    for field, value in zip(dataclasses.fields(spec_type), values):
        object.__setattr__(spec, field.name, value)
    return spec

B = Statistics.BOSONIC
F = Statistics.FERMIONIC
LN2 = math.log(2.0)


class TestIsothermalHeat:
    @pytest.mark.parametrize("stat", [B, F])
    def test_degenerate_endpoints(self, stat):
        assert isothermal_heat(stat, 1.0, 1.0, 1.0) == 0.0

    def test_antisymmetry(self):
        forward = isothermal_heat(B, 1.0, 1.0, 2.0)
        backward = isothermal_heat(B, 1.0, 2.0, 1.0)
        assert forward == -backward

    def test_against_path_oracle(self):
        closed = isothermal_heat(F, 1.0, 1.0, 2.0)
        path = PathSpec(F, lambda u: 1.0 + u, lambda u: 1.0 + 0.0 * u, 10 ** 6)
        assert rel(closed, integrate_path(path).heat) < 1e-9

    def test_domain(self):
        with pytest.raises(ParameterError):
            isothermal_heat(B, 0.0, 1.0, 2.0)
        with pytest.raises(ParameterError):
            isothermal_heat(B, 1.0, -1.0, 2.0)


class TestIsochoricHeat:
    @pytest.mark.parametrize("stat", [B, F])
    def test_degenerate_temperatures(self, stat):
        assert isochoric_heat(stat, 1.0, 2.0, 2.0) == 0.0

    def test_bosonic_unit_step(self):
        # x from ln 2 to ln 1.5 moves the population 1 -> 2
        q = isochoric_heat(B, 1.0, 1.0 / LN2, 1.0 / math.log(1.5))
        assert rel(q, 1.0) < 1e-13

    def test_fermionic_example(self):
        q = isochoric_heat(F, 1.0, 1.0 / math.log(3.0), 1.0 / math.log(7.0))
        assert rel(q, -0.125) < 1e-13

    def test_sign_follows_temperature_change(self):
        assert isochoric_heat(B, 1.0, 1.0, 2.0) > 0.0
        assert isochoric_heat(F, 1.0, 2.0, 1.0) < 0.0


class TestSpecValidation:
    def test_engine_ordering_message_names_chain(self):
        with pytest.raises(OrderingError, match="beta_h < beta1"):
            EngineSpec(B, 1.0, 2.0, 1.5, 1.0, 2.0, 3.0)
        with pytest.raises(OrderingError, match="omega1 < omega2"):
            EngineSpec(B, 2.0, 1.0, 0.5, 1.0, 2.0, 3.0)

    def test_fridge_ordering(self):
        with pytest.raises(OrderingError, match="beta_c < beta2p"):
            FridgeSpec(B, 1.0, 2.0, 1.0, 1.5, 2.5, 2.0)

    def test_positivity(self):
        with pytest.raises(ParameterError):
            EngineSpec(B, -1.0, 2.0, 0.5, 1.0, 2.0, 3.0)


class TestEngineLedger:
    def test_degenerate_equal_system_temperatures(self):
        spec = unchecked_spec(EngineSpec, B, 1.0, 2.0, 0.5, 1.0, 1.0, 3.0)
        out = engine_ledger(spec)
        assert out.ledger.w_tot == 0.0
        assert out.ledger.delta_q == 0.0
        assert out.status == "not_an_engine"

    @pytest.mark.parametrize("stat,expected", [(B, 0.5), (F, 1.0 / 3.0)])
    def test_high_temperature_efficiency(self, stat, expected):
        # x_max <= 1e-3 and beta2 = 2 beta1
        beta1 = 1e-3 / (2.8 * 2.0)
        spec = EngineSpec(stat, 1.0, 2.0, 0.6 * beta1, beta1, 2 * beta1, 2.8 * beta1)
        out = engine_ledger(spec)
        assert rel(out.eta, expected) < 1e-2

    @pytest.mark.parametrize("stat", [B, F])
    def test_low_temperature_matches_closed_form(self, stat):
        from qstirling.cycles import _low_temp_engine_cycle
        spec = lowtemp_engine_spec(stat, 10.0)
        exact = engine_ledger(spec)
        low = _low_temp_engine_cycle(spec)
        bound = 2.0 * math.exp(-10.0)
        assert rel(exact.eta, low.eta) < bound

    def test_hot_isotherm_absorbs(self, rng):
        for _ in range(50):
            for stat in (B, F):
                spec = random_engine_spec(rng, stat)
                out = engine_ledger(spec)
                assert out.ledger.q_iso_hot > 0.0
                assert out.ledger.q_iso_cold < 0.0


class TestFridgeLedger:
    def test_degenerate_equal_system_temperatures(self):
        spec = unchecked_spec(FridgeSpec, F, 1.0, 2.0, 1.0, 1.2, 1.6, 1.0)
        out = fridge_ledger(spec)
        assert out.ledger.w_tot == 0.0
        assert out.ledger.delta_q == 0.0

    def test_fermionic_low_temperature_cop_matches_closed_form(self):
        from qstirling.cycles import _low_temp_fridge_cycle
        spec = lowtemp_fridge_spec(F, 10.0)
        exact = fridge_ledger(spec)
        low = _low_temp_fridge_cycle(spec)
        assert rel(exact.epsilon, low.epsilon) < 2.0 * math.exp(-10.0)

    def test_first_law_identity(self, rng):
        for _ in range(200):
            for stat in (B, F):
                spec = random_fridge_spec(rng, stat)
                out = fridge_ledger(spec)
                ledger = out.ledger
                total = (ledger.q_iso_hot + ledger.q_iso_cold
                         + ledger.q_isochore_low + ledger.q_isochore_high)
                assert rel(total, -ledger.w_tot) == 0.0
                assert rel(ledger.w_tot, fridge_work_closed_form(spec)) < 1e-12

    def test_cooling_heat_positive_for_valid_fridge(self, rng):
        ok = 0
        for _ in range(100):
            spec = random_fridge_spec(rng, B)
            out = fridge_ledger(spec)
            if out.status == "ok":
                ok += 1
                assert out.ledger.q_c > 0.0
                assert out.epsilon > 0.0
        assert ok > 50


class TestFirstLawClosure:
    @pytest.mark.parametrize("stat", [B, F])
    def test_engine_against_independent_work(self, stat, rng):
        for _ in range(500):
            spec = random_engine_spec(rng, stat)
            out = engine_ledger(spec)
            assert rel(out.ledger.w_tot, engine_work_closed_form(spec)) < 1e-12

    def test_regenerator_balance_consistency(self, rng):
        for _ in range(200):
            spec = random_engine_spec(rng, B)
            ledger = engine_ledger(spec).ledger
            # q_h + q_c always re-absorbs the full imbalance
            assert rel(ledger.q_h + ledger.q_c, -ledger.w_tot) < 1e-12


class TestRegeneratorTrichotomy:
    def test_positive_imbalance_charges_hot_bath(self):
        # fermionic high-temperature: delta_q > 0, delta = 1
        beta1 = 1e-4
        spec = EngineSpec(F, 1.0, 2.0, 0.6 * beta1, beta1, 2 * beta1, 2.8 * beta1)
        ledger = engine_ledger(spec).ledger
        assert ledger.delta_q > 0.0
        assert ledger.delta == 1
        assert ledger.q_h == ledger.q_iso_hot + ledger.delta_q
        assert ledger.q_c == ledger.q_iso_cold

    def test_negative_imbalance_vents_to_cold_bath(self):
        spec = lowtemp_engine_spec(B, 9.0)
        ledger = engine_ledger(spec).ledger
        assert ledger.delta_q < 0.0
        assert ledger.delta == 0
        assert ledger.q_h == ledger.q_iso_hot
        assert ledger.q_c == ledger.q_iso_cold + ledger.delta_q

    def test_perfect_regeneration_keeps_delta_zero(self):
        spec = unchecked_spec(EngineSpec, B, 1.0, 2.0, 0.5, 1.0, 1.0, 3.0)
        ledger = engine_ledger(spec).ledger
        assert ledger.delta_q == 0.0
        assert ledger.delta == 0


class TestFridgeRegeneratorTrichotomy:
    def test_surplus_vents_to_cold_bath(self):
        # fermionic classical window: delta_q < 0, the vented surplus cuts Q_c
        beta1p = 1e-4
        spec = FridgeSpec(F, 1.0, 2.0, beta1p, 1.4 * beta1p, 1.6 * beta1p, 2 * beta1p)
        ledger = fridge_ledger(spec).ledger
        assert ledger.delta_q < 0.0
        assert ledger.delta == 1
        assert ledger.q_c == ledger.q_iso_cold - abs(ledger.delta_q)
        assert ledger.q_h == ledger.q_iso_hot

    def test_deficit_charged_to_hot_bath(self):
        spec = lowtemp_fridge_spec(B, 9.0)
        ledger = fridge_ledger(spec).ledger
        assert ledger.delta_q > 0.0
        assert ledger.delta == 0
        assert ledger.q_c == ledger.q_iso_cold
        assert ledger.q_h == ledger.q_iso_hot + ledger.delta_q

    def test_balanced_keeps_delta_zero(self):
        spec = unchecked_spec(FridgeSpec, B, 1.0, 2.0, 1.0, 1.2, 1.6, 1.0)
        ledger = fridge_ledger(spec).ledger
        assert ledger.delta_q == 0.0
        assert ledger.delta == 0


class TestReversal:
    @pytest.mark.parametrize("stat", [B, F])
    def test_fridge_stroke_heats_negate_engine(self, stat, rng):
        # the refrigerator runs the engine's corners backwards, so on the same
        # frequencies and medium temperatures every stroke heat flips sign
        # exactly; ledger heats ignore the baths, so each spec uses its own
        for _ in range(500):
            engine = random_engine_spec(rng, stat)
            b1, b2 = engine.beta1, engine.beta2
            fridge = FridgeSpec(stat, engine.omega1, engine.omega2, b1,
                                b1 + (b2 - b1) / 3.0, b1 + 2.0 * (b2 - b1) / 3.0, b2)
            forward = engine_ledger(engine).ledger
            backward = fridge_ledger(fridge).ledger
            for name in ("q_iso_hot", "q_iso_cold", "q_isochore_low", "q_isochore_high",
                         "delta_q"):
                assert getattr(backward, name) == -getattr(forward, name), name


class TestCarnotCeiling:
    """The bath Carnot bound holds in the regimes the claims are scoped to;
    the intermediate regime genuinely violates it (see decisions ledger)."""

    @pytest.mark.parametrize("stat", [B, F])
    def test_low_temperature_window(self, stat, rng):
        for _ in range(300):
            spec = random_engine_spec(rng, stat, x_lo=12.0, x_hi=40.0)
            out = engine_ledger(spec)
            assert out.eta < engine_carnot_bound(spec)

    @pytest.mark.parametrize("stat", [B, F])
    def test_high_temperature_window(self, stat, rng):
        for _ in range(300):
            spec = random_engine_spec(rng, stat, x_lo=1e-4, x_hi=0.02)
            out = engine_ledger(spec)
            assert out.eta < engine_carnot_bound(spec)


class TestOracleEquivalence:
    @pytest.mark.parametrize("stat", [B, F])
    def test_stroke_heats_match_path_integration(self, stat, rng):
        for _ in range(5):
            spec = random_engine_spec(rng, stat, x_lo=0.2, x_hi=5.0)
            t1 = 1.0 / spec.beta1
            closed = isothermal_heat(stat, t1, spec.omega2, spec.omega1)
            path = PathSpec(stat,
                            lambda u: spec.omega2 + (spec.omega1 - spec.omega2) * u,
                            lambda u: spec.beta1 + 0.0 * u, 10 ** 6)
            assert rel(closed, integrate_path(path).heat) < 1e-8

            closed = isochoric_heat(stat, spec.omega1, t1, 1.0 / spec.beta2)
            path = PathSpec(stat, lambda u: spec.omega1 + 0.0 * u,
                            lambda u: spec.beta1 + (spec.beta2 - spec.beta1) * u, 10 ** 6)
            assert rel(closed, integrate_path(path).heat) < 1e-8


@given(st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=50, deadline=None)
def test_degenerate_work_scales(alpha):
    # same system temperatures: no net work for any spec shape
    beta = 1.0
    spec = unchecked_spec(EngineSpec, B, alpha, 2.0, 0.5 * beta, beta, beta, 3.0 * beta)
    assert engine_ledger(spec).ledger.w_tot == 0.0


class TestLedgerWorkCount:
    """The ledger evaluates each of the four corner occupations once."""

    @pytest.mark.parametrize("stat", [B, F])
    @pytest.mark.parametrize("make_spec", [lowtemp_engine_spec, lowtemp_fridge_spec])
    def test_four_population_calls_per_ledger(self, stat, make_spec, monkeypatch):
        # rebind the name the ledger looks up, as a profiler's wrapper does
        calls = []
        population = cycles.population

        def counting(*args):
            calls.append(args)
            return population(*args)

        monkeypatch.setattr(cycles, "population", counting)
        cycles.cycle_ledger(make_spec(stat, 10.0))
        assert len(calls) == 4


# log-uniform over [1e-310, 1e300]: subnormal and huge spec values
_MAGNITUDE = st.floats(math.log(1e-310), math.log(1e300)).map(math.exp)


@given(st.sampled_from([EngineSpec, FridgeSpec]), st.sampled_from([B, F]),
       st.lists(_MAGNITUDE, min_size=6, max_size=6))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_ledger_heats_equal_per_stroke_functions(spec_type, stat, values):
    # either every stroke heat is the public per-stroke function's, bit for
    # bit, or the ledger rejects the spec with exactly ParameterError
    spec = unchecked_spec(spec_type, stat, *values)
    try:
        ledger = cycles.cycle_ledger(spec).ledger
    except ParameterError as exc:  # any other exception fails the test
        assert type(exc) is ParameterError
        return
    v = vars(spec)
    for _, heat, isotherm, fixed, start, end, _ in cycles.cycle_kind(spec).strokes:
        if isotherm:
            expected = isothermal_heat(stat, 1.0 / v[fixed], v[start], v[end])
        else:
            expected = isochoric_heat(stat, v[fixed], 1.0 / v[start], 1.0 / v[end])
        assert float.hex(getattr(ledger, heat)) == float.hex(expected), heat
