import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstirling import (
    EngineSpec,
    FridgeSpec,
    GevaKosloff,
    ParameterError,
    PathSpec,
    RelaxationSetup,
    Statistics,
    ThermalField,
    heat_current,
    integrate_path,
    internal_energy,
    isochoric_time,
    isothermal_time,
    population,
)
from conftest import rel

B = Statistics.BOSONIC
F = Statistics.FERMIONIC
LN2 = math.log(2.0)


MODEL = GevaKosloff(1.0, -0.5)

# every public entry that takes a statistics value, called with valid other arguments
STATISTICS_ENTRIES = {
    "population": lambda stat: population(stat, 1.0),
    "internal_energy": lambda stat: internal_energy(stat, 1.0, 0.25),
    "EngineSpec": lambda stat: EngineSpec(stat, 1.0, 2.0, 0.5, 1.0, 2.0, 3.0),
    "FridgeSpec": lambda stat: FridgeSpec(stat, 1.0, 2.0, 0.5, 1.0, 2.0, 3.0),
    "RelaxationSetup": lambda stat: RelaxationSetup(stat, MODEL, 1.0, 1.0, 0.1),
    "isothermal_time": lambda stat: isothermal_time(stat, MODEL, 0.5, 1.0, 2.0, 1.0),
    "isochoric_time": lambda stat: isochoric_time(stat, MODEL, 1.4, 1.0, 1.0, 2.0),
    "heat_current": lambda stat: heat_current(stat, MODEL, 0.5, 1.0, 1.0),
    "ThermalField.rates": lambda stat: ThermalField(1.0, 1.0).rates(stat, 1.0, 1.0),
}


@pytest.mark.parametrize("entry", sorted(STATISTICS_ENTRIES))
def test_every_entry_rejects_a_non_member_statistics(entry):
    # a member's value is not the member; past the check, "bosonic" would take
    # the fermionic side of every two-way dispatch
    call = STATISTICS_ENTRIES[entry]
    for stat in (B, F):
        call(stat)
    with pytest.raises(ParameterError, match="unknown statistics kind: 'bosonic'"):
        call("bosonic")


class TestPopulation:
    @pytest.mark.parametrize("stat,x,expected", [
        (F, LN2, 1.0 / 3.0),
        (B, LN2, 1.0),
        (B, math.log(1.5), 2.0),
        (F, math.log(3.0), 0.25),
        (F, math.log(7.0), 0.125),
    ])
    def test_values(self, stat, x, expected):
        assert rel(population(stat, x), expected) < 1e-14

    def test_fermionic_approaches_half_from_below(self):
        n = population(F, 1e-9)
        assert n < 0.5
        assert 0.5 - n < 1e-9

    def test_fermionic_large_x_extended_precision(self):
        # extended-precision oracle for 1/(e^30 + 1)
        mpmath.mp.dps = 40
        expected = float(1 / (mpmath.e ** 30 + 1))
        assert rel(population(F, 30.0), expected) < 1e-14

    def test_overflow_guard(self):
        # x above the exp overflow threshold (~709) but above underflow (~745)
        assert 0.0 < population(B, 720.0) < 1e-300
        assert 0.0 < population(F, 720.0) < 1e-300
        assert math.isfinite(population(B, 720.0))

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_domain(self, x):
        # the math scalar path and the numpy array path reject alike, and the
        # x check runs before the statistics check
        message = r"^population requires x = beta_s\*omega > 0$"
        for stat in (B, F, "bosonic"):
            for arg in (x, np.array([x]), np.array(x)):
                with pytest.raises(ParameterError, match=message):
                    population(stat, arg)

    def test_scalar_accepts_int_and_numpy_float(self):
        assert population(B, 1) == population(B, 1.0)
        n = population(B, np.float64(LN2))
        assert type(n) is float and rel(n, 1.0) < 1e-14

    def test_bosonic_overflow_raises_without_warning(self):
        # below x ~ 5.6e-309 the occupation ~ 1/x is not representable
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (5e-310, np.array([1.0, 5e-310])):
                with pytest.raises(ParameterError, match="bosonic population overflows"):
                    population(B, x)
            assert population(F, 5e-310) == 0.5

    @pytest.mark.parametrize("stat", [B, F])
    def test_array_input_left_unchanged(self, stat):
        # the array path writes only into work arrays of its own
        for xs in (np.linspace(0.1, 5.0, 101), np.array(1.5), np.linspace(0.1, 5.0, 9)[::2]):
            before = xs.copy()
            out = population(stat, xs)
            assert np.array_equal(xs, before)
            assert np.array_equal(out, np.exp(-before) / (
                -np.expm1(-before) if stat is B else 1.0 + np.exp(-before)))

    def test_array_input(self):
        xs = np.array([LN2, math.log(3.0)])
        out = population(F, xs)
        assert out.shape == (2,)
        assert rel(out[0], 1.0 / 3.0) < 1e-14

    @given(st.floats(min_value=1e-3, max_value=50.0),
           st.floats(min_value=1e-3, max_value=50.0))
    @settings(max_examples=300)
    def test_monotone_decreasing(self, x1, x2):
        if abs(x1 - x2) <= 1e-9 * max(x1, x2):
            return  # below float resolution of the comparison
        lo, hi = min(x1, x2), max(x1, x2)
        for stat in (B, F):
            assert population(stat, lo) > population(stat, hi)

    @given(st.floats(min_value=1e-3, max_value=30.0))
    @settings(max_examples=300)
    def test_bounds(self, x):
        nf = population(F, x)
        nb = population(B, x)
        assert 0.0 < nf < 0.5
        assert nb > nf


class TestInternalEnergy:
    @pytest.mark.parametrize("stat,omega,n,expected", [
        (B, 1.0, 1.0, 1.5),
        (F, 1.0, 1.0 / 3.0, -1.0 / 6.0),
        (F, 2.0, 1e-15, -1.0),
    ])
    def test_values(self, stat, omega, n, expected):
        assert rel(internal_energy(stat, omega, n), expected) < 1e-12

    def test_ranges(self):
        for x in (0.3, 3.0, 12.0):
            e_f = internal_energy(F, 1.0, population(F, x))
            e_b = internal_energy(B, 1.0, population(B, x))
            assert -0.5 < e_f < 0.0
            assert e_b > 0.5

    def test_domain(self):
        with pytest.raises(ParameterError):
            internal_energy(B, 0.0, 1.0)
        with pytest.raises(ParameterError):
            internal_energy(F, 1.0, 0.7)

    @pytest.mark.parametrize("stat", [B, F])
    @pytest.mark.parametrize("omega, n, name", [
        (math.inf, 0.1, "omega"), (math.nan, 0.1, "omega"),
        (np.array([1.0, math.inf]), 0.1, "omega"), (np.array([math.nan, 1.0]), 0.1, "omega"),
        (1.0, math.inf, "occupation"), (1.0, math.nan, "occupation"),
        (1.0, np.array([0.1, math.inf]), "occupation"),
        (1.0, np.array([0.1, math.nan]), "occupation"),
    ])
    def test_non_finite_input_is_rejected(self, stat, omega, n, name):
        # inf and NaN passed the sign checks and came back as an inf or NaN energy
        with pytest.raises(ParameterError, match=f"^{name} must be .* and finite$"):
            internal_energy(stat, omega, n)


def _linear_path(stat, omega_span, beta_span, steps):
    w0, w1 = omega_span
    b0, b1 = beta_span
    return PathSpec(stat,
                    lambda u: w0 + (w1 - w0) * u,
                    lambda u: b0 + (b1 - b0) * u,
                    steps)


class TestIntegratePath:
    def test_constant_path_vanishes(self):
        out = integrate_path(_linear_path(B, (1.0, 1.0), (0.7, 0.7), 100))
        assert out == (0.0, 0.0, 0.0)

    def test_isochoric_path(self):
        # omega = 1, x from ln 2 to ln 1.5: bosonic n goes 1 -> 2
        out = integrate_path(_linear_path(B, (1.0, 1.0), (LN2, math.log(1.5)), 10 ** 6))
        assert out.work == 0.0
        assert rel(out.heat, 1.0) < 1e-9
        assert rel(out.delta_e, 1.0) < 1e-9

    def test_isothermal_path_against_closed_form(self):
        from qstirling import isothermal_heat
        out = integrate_path(_linear_path(F, (1.0, 2.0), (1.0, 1.0), 10 ** 6))
        assert rel(out.heat, isothermal_heat(F, 1.0, 1.0, 2.0)) < 1e-9

    def test_step_count_domain(self):
        with pytest.raises(ParameterError):
            integrate_path(_linear_path(B, (1.0, 2.0), (1.0, 1.0), 1))

    def test_rejects_nonpositive_path(self):
        spec = PathSpec(B, lambda u: 1.0 - 2.0 * u, lambda u: 1.0 + 0.0 * u, 100)
        with pytest.raises(ParameterError):
            integrate_path(spec)

    @pytest.mark.parametrize("stat", [B, F])
    def test_first_law_convergence_order(self, stat):
        # wiggly but smooth path; defect |dE - (Q+W)| must fall at order >= 1.9
        path = lambda n: PathSpec(
            stat,
            lambda u: 1.0 + 0.5 * np.sin(2.3 * u) + 0.3 * u,
            lambda u: 0.8 + 0.4 * np.cos(1.7 * u),
            n)
        defects = []
        for steps in (500, 1000, 2000):
            out = integrate_path(path(steps))
            defects.append(abs(out.delta_e - (out.heat + out.work)))
        orders = [math.log2(defects[i] / defects[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    @pytest.mark.parametrize("steps", [10 ** 3, 10 ** 6])
    @pytest.mark.parametrize("stat", [B, F])
    def test_bit_identical_to_all_arrays_alive(self, stat, steps):
        # the first formulation, every array alive at once and population's
        # numpy formula inline; the lean ordering must not move a bit
        path = PathSpec(stat, lambda u: 1.0 + 0.5 * np.sin(2.3 * u) + 0.3 * u,
                        lambda u: 0.8 + 0.4 * np.cos(1.7 * u), steps)
        occupation = lambda x: np.exp(-x) / (-np.expm1(-x) if stat is B else 1.0 + np.exp(-x))
        u = np.linspace(0.0, 1.0, steps + 1)
        mid = 0.5 * (u[:-1] + u[1:])
        omega, beta = path.omega(u), path.beta(u)
        omega_mid, beta_mid = path.omega(mid), path.beta(mid)
        n, n_mid = occupation(beta * omega), occupation(beta_mid * omega_mid)
        heat = float(np.sum(omega_mid * np.diff(n)))
        half = 0.5 if stat is B else -0.5
        work = float(np.sum((n_mid + half) * np.diff(omega)))
        delta_e = float(internal_energy(stat, omega[-1], n[-1])
                        - internal_energy(stat, omega[0], n[0]))
        out = integrate_path(path)
        assert (out.delta_e, out.heat, out.work) == (delta_e, heat, work)

    @pytest.mark.parametrize("stat", [B, F])
    def test_leaves_callable_arrays_unchanged(self, stat):
        # omega returns arrays it holds; beta returns a held array on the grid
        # and its own argument (inside (0, 1)) on the midpoints
        steps = 1000
        u = np.linspace(0.0, 1.0, steps + 1)
        held = {steps + 1: 1.0 + u, steps: 1.0 + 0.5 * (u[:-1] + u[1:]),
                "beta": 0.5 + 0.5 * u}
        before = {key: arr.copy() for key, arr in held.items()}
        arguments = []

        def omega(v):
            arguments.append((v, v.copy()))
            return held[v.size]

        def beta(v):
            arguments.append((v, v.copy()))
            return held["beta"] if v.size == steps + 1 else v

        integrate_path(PathSpec(stat, omega, beta, steps))
        assert len(arguments) == 4
        for key, arr in held.items():
            assert np.array_equal(arr, before[key])
        for arg, copy in arguments:
            assert np.array_equal(arg, copy)

    @given(st.floats(min_value=0.5, max_value=2.0),
           st.floats(min_value=1.1, max_value=3.0),
           st.floats(min_value=0.3, max_value=3.0),
           st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_work_sign_on_rising_frequency(self, w0, ratio, b0, b1):
        # d(omega) > 0 throughout: bosonic work positive, fermionic negative
        bos = integrate_path(_linear_path(B, (w0, w0 * ratio), (b0, b1), 400))
        fer = integrate_path(_linear_path(F, (w0, w0 * ratio), (b0, b1), 400))
        assert bos.work > 0.0
        assert fer.work < 0.0
