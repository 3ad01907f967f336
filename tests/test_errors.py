"""Every positive physical input is checked by ``errors.require_positive``: a
value outside (0, inf), NaN included, raises ParameterError naming it."""

import math

import pytest

from qstirling import (
    EngineSpec,
    FridgeSpec,
    GevaKosloff,
    ParameterError,
    QuadratureConfig,
    Regime,
    RelaxationSetup,
    Statistics,
    ThermalField,
    heat_current,
    isochoric_heat,
    isochoric_time,
    isothermal_heat,
    isothermal_time,
    limit_heat_current,
    rates,
)
from qstirling.errors import require_positive

B = Statistics.BOSONIC
MODEL = GevaKosloff(1.0, -0.5)
BAD = (math.inf, -math.inf, math.nan, 0.0, -0.0, -1.0)
# each entry with valid keyword arguments; every float argument but q, m and n0,
# which have domains of their own, must lie in (0, inf)
ENTRIES = {
    "isothermal_time": (isothermal_time, dict(stat=B, model=MODEL, beta=0.5, beta_s=1.0,
                                              omega_i=2.0, omega_f=1.0)),
    "isochoric_time": (isochoric_time, dict(stat=B, model=MODEL, regenerator=1.4, omega=1.0,
                                            beta_i=1.0, beta_f=2.0)),
    "GevaKosloff": (GevaKosloff, dict(a=1.0, q=-0.5)),
    "GevaKosloff.rates": (MODEL.rates, dict(beta=1.0, omega=1.0)),
    "ThermalField": (ThermalField, dict(rho0=1.0, m=1.0)),
    "ThermalField.rates": (ThermalField(1.0, 1.0).rates, dict(stat=B, beta=1.0, omega=1.0)),
    "rates": (rates, dict(model=MODEL, beta=1.0, omega=1.0)),
    "heat_current": (heat_current, dict(stat=B, model=MODEL, beta=0.5, beta_s=1.0,
                                        omega=1.0)),
    "limit_heat_current": (limit_heat_current, dict(regime=Regime.LOW_TEMP, model=MODEL,
                                                    beta=0.5, beta_s=1.0, omega=1.0)),
    "RelaxationSetup": (RelaxationSetup, dict(stat=B, model=MODEL, beta=1.0, omega=1.0,
                                              n0=0.1)),
    "QuadratureConfig": (QuadratureConfig, dict(rel_tol=1e-10, abs_tol=1e-14)),
    "isothermal_heat": (isothermal_heat, dict(stat=B, temperature=1.0, omega_i=1.0,
                                              omega_f=2.0)),
    "isochoric_heat": (isochoric_heat, dict(stat=B, omega=1.0, t_i=1.0, t_f=2.0)),
    "EngineSpec": (EngineSpec, dict(stat=B, omega1=1.0, omega2=2.0, beta_h=0.5, beta1=1.0,
                                    beta2=2.0, beta_c=3.0)),
    "FridgeSpec": (FridgeSpec, dict(stat=B, omega1=1.0, omega2=2.0, beta1p=0.5, beta_h=1.0,
                                    beta_c=2.0, beta2p=3.0)),
}
# the name a message gives an argument, where it is not the argument's own
NAMES = {"regenerator": "regenerator slope"}
CASES = [(entry, arg) for entry, (_, kwargs) in ENTRIES.items()
         for arg, value in kwargs.items()
         if isinstance(value, float) and arg not in ("q", "m", "n0")]


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_valid_arguments_pass(entry):
    fn, kwargs = ENTRIES[entry]
    fn(**kwargs)


@pytest.mark.parametrize("entry, arg", CASES, ids=[f"{e}-{a}" for e, a in CASES])
@pytest.mark.parametrize("value", BAD, ids=repr)
def test_input_outside_positive_finite_is_named(entry, arg, value):
    fn, kwargs = ENTRIES[entry]
    with pytest.raises(ParameterError) as info:
        fn(**{**kwargs, arg: value})
    assert str(info.value) == f"{NAMES.get(arg, arg)} must be positive and finite, got {value!r}"


def test_first_offender_is_named():
    require_positive({"x": 1.0, "y": 5e-324, "z": 1.7e308})
    with pytest.raises(ParameterError, match=r"^y must be positive and finite, got nan$"):
        require_positive({"x": 1.0, "y": math.nan, "z": math.inf})


def test_non_number_regenerator_slope_is_named():
    with pytest.raises(ParameterError, match="^regenerator slope must be a number, got"):
        isochoric_time(B, MODEL, lambda beta_s: 1.4 * beta_s, 1.0, 1.0, 2.0)
