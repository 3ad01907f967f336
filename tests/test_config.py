import pytest

from qstirling import ConfigError, GevaKosloff, OrderingError, Statistics, ThermalField
from qstirling.config import load_run_config
from qstirling.cycles import cycle_kind
from qstirling.performance import Mode

BASE = """
[working_medium]
statistics = bosonic

[cycle]
kind = engine
omega1 = 1.0
omega2 = 2.0
beta1 = 16.0
beta2 = 32.0
alpha_h = 0.6
alpha_c = 1.4

[bath]
a = 1.0
q = -0.05

[regenerator]
gamma1 = 1.4
gamma2 = 0.6
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_engine_config_resolves(tmp_path):
    cfg = load_run_config(write(tmp_path, BASE))
    assert cycle_kind(cfg.spec).name == "engine"
    assert cfg.spec.stat is Statistics.BOSONIC
    assert cfg.spec.beta_h == 0.6 * 16.0
    assert cfg.spec.beta_c == 1.4 * 32.0
    assert isinstance(cfg.model, GevaKosloff)
    assert cfg.mode is Mode.EXACT
    assert cfg.quad.rel_tol == 1e-10
    assert cfg.particle_count == 1


def fridge_text():
    text = BASE.replace("kind = engine", "kind = fridge")
    text = text.replace("beta1 = 16.0", "beta1p = 16.0").replace("beta2 = 32.0", "beta2p = 32.0")
    text = text.replace("alpha_h = 0.6", "alpha_h = 1.4").replace("alpha_c = 1.4", "alpha_c = 0.8")
    return text.replace("gamma1 = 1.4", "b = 1.4").replace("gamma2 = 0.6", "bp = 0.6")


def test_fridge_config_resolves(tmp_path):
    cfg = load_run_config(write(tmp_path, fridge_text()))
    assert cycle_kind(cfg.spec).name == "fridge"
    assert cfg.spec.beta_h == 1.4 * 16.0


def test_absolute_betas_accepted(tmp_path):
    text = BASE.replace("alpha_h = 0.6", "beta_h = 9.6").replace("alpha_c = 1.4", "beta_c = 44.8")
    cfg = load_run_config(write(tmp_path, text))
    assert cfg.spec.beta_h == 9.6


def test_both_ratio_and_absolute_rejected(tmp_path):
    text = BASE.replace("alpha_h = 0.6", "alpha_h = 0.6\nbeta_h = 9.6\nbeta_c = 44.8")
    with pytest.raises(ConfigError, match="not both"):
        load_run_config(write(tmp_path, text))


def test_unknown_key_rejected(tmp_path):
    text = BASE.replace("omega1 = 1.0", "omega1 = 1.0\nfrequency = 3")
    with pytest.raises(ConfigError, match="unknown key cycle.frequency"):
        load_run_config(write(tmp_path, text))


@pytest.mark.parametrize("kind, cycle_key, regen_key", [
    ("engine", "beta2p", "b"),
    ("fridge", "beta2", "gamma1"),
])
def test_other_kinds_keys_rejected(tmp_path, kind, cycle_key, regen_key):
    # each kind takes only its own [cycle] and [regenerator] keys
    text = BASE if kind == "engine" else fridge_text()
    regen_only = text.replace("[regenerator]\n", f"[regenerator]\n{regen_key} = 7.0\n")
    with pytest.raises(ConfigError, match=f"unknown key regenerator.{regen_key}$"):
        load_run_config(write(tmp_path, regen_only))
    both = regen_only.replace("[cycle]\n", f"[cycle]\n{cycle_key} = 99.0\n")
    with pytest.raises(ConfigError, match=f"unknown key cycle.{cycle_key}$"):
        load_run_config(write(tmp_path, both))


def test_duplicate_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot parse"):
        load_run_config(write(tmp_path, BASE + "\n[cycle]\nomega1 = 3\n"))


def test_unknown_key_in_existing_section(tmp_path):
    text = BASE.replace("a = 1.0", "a = 1.0\ncoupling = 2")
    with pytest.raises(ConfigError, match="unknown key bath.coupling"):
        load_run_config(write(tmp_path, text))
    # the regime thresholds are constants of qstirling.relaxation and --out is the only
    # output path, so a config cannot turn validate's equivalence check into a SKIP
    for section, key, value in [("numerics", "x_low_threshold", "nan"),
                                ("numerics", "x_low_threshold", "inf"),
                                ("numerics", "x_high_threshold", "nan"),
                                ("numerics", "x_high_threshold", "-inf"),
                                ("output", "path", "out.json")]:
        text = BASE + f"\n[{section}]\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=f"^unknown key {section}.{key}$"):
            load_run_config(write(tmp_path, text))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
        load_run_config(write(tmp_path, BASE + "\n[extras]\nfoo = 1\n"))


def test_missing_key_named(tmp_path):
    text = BASE.replace("omega1 = 1.0\n", "")
    with pytest.raises(ConfigError, match="missing key cycle.omega1"):
        load_run_config(write(tmp_path, text))


def test_invalid_number_named(tmp_path):
    text = BASE.replace("omega1 = 1.0", "omega1 = fast")
    with pytest.raises(ConfigError, match="cycle.omega1"):
        load_run_config(write(tmp_path, text))


def test_q_out_of_range_is_config_error(tmp_path):
    text = BASE.replace("q = -0.05", "q = 0.5")
    with pytest.raises(ConfigError, match="bath"):
        load_run_config(write(tmp_path, text))


def test_ordering_violation_is_ordering_error(tmp_path):
    text = BASE.replace("alpha_h = 0.6", "alpha_h = 1.2")
    with pytest.raises(OrderingError, match="beta_h < beta1"):
        load_run_config(write(tmp_path, text))


def test_thermal_field_bath(tmp_path):
    text = BASE.replace("a = 1.0\nq = -0.05", "rho0 = 1.0\nm = 1.0")
    cfg = load_run_config(write(tmp_path, text))
    assert isinstance(cfg.model, ThermalField)


def test_mixed_bath_keys_rejected(tmp_path):
    text = BASE.replace("q = -0.05", "q = -0.05\nrho0 = 1.0\nm = 1.0")
    with pytest.raises(ConfigError, match="bath"):
        load_run_config(write(tmp_path, text))


def test_numerics_and_output_sections(tmp_path):
    text = BASE + """
[numerics]
rel_tol = 1e-8
abs_tol = 1e-200
max_subdivisions = 64
regime_mode = low_temp

[output]
format = json
particle_count = 3
"""
    cfg = load_run_config(write(tmp_path, text))
    assert cfg.quad.rel_tol == 1e-8
    assert cfg.quad.max_subdivisions == 64
    assert cfg.mode is Mode.LOW_TEMP
    assert cfg.out_format == "json"
    assert cfg.particle_count == 3


def test_bad_regime_mode(tmp_path):
    text = BASE + "\n[numerics]\nregime_mode = warm\n"
    with pytest.raises(ConfigError, match="regime_mode"):
        load_run_config(write(tmp_path, text))


def test_bad_particle_count(tmp_path):
    text = BASE + "\n[output]\nparticle_count = 0\n"
    with pytest.raises(ConfigError, match="particle_count"):
        load_run_config(write(tmp_path, text))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config("/nonexistent/run.ini")
