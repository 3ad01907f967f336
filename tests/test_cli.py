import importlib
import importlib.util
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qstirling import FridgeSpec, GevaKosloff, LinearFridgeRegenerator, Statistics, cycle_ledger
from qstirling import cli
from qstirling.cli import COLUMNS, _csv_text, main
from qstirling.config import load_run_config
from conftest import mp_isochoric_time, mp_isothermal_time

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
ENGINE_CFG = str(CONFIG_DIR / "engine_lowtemp.ini")
FRIDGE_CFG = str(CONFIG_DIR / "fridge_lowtemp.ini")
SWEEP_CFG = str(CONFIG_DIR / "power_sweep_reference.ini")
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
# every name ``qstirling`` exported before the study code moved to qstirling.studies
PACKAGE_EXPORTS = (
    "STATUS_NOT_A_REFRIGERATOR", "STATUS_NOT_AN_ENGINE", "STATUS_OK", "EngineCycle",
    "EngineSpec", "FridgeCycle", "FridgeSpec", "StrokeLedger", "cycle_ledger",
    "engine_carnot_bound", "engine_ledger", "engine_work_closed_form", "fridge_ledger",
    "fridge_work_closed_form", "isochoric_heat", "isothermal_heat", "work_closed_form",
    "ConfigError", "ConvergenceError", "OrderingError", "ParameterError", "SingularityError",
    "EquivalenceReport", "Mode", "PerformanceReport", "SweepRecord", "SweepResult",
    "SweepSummary", "SweepTemplate", "cycle_performance", "engine_performance",
    "equivalence_report", "fridge_performance", "power_sweep", "GevaKosloff", "LimitCurrent",
    "Regime", "RelaxationSetup", "ThermalField", "conduction_ratio", "equilibrium_population",
    "heat_current", "limit_heat_current", "rates", "relax", "relaxation_rate", "PathIntegral",
    "PathSpec", "Statistics", "integrate_path", "internal_energy", "population",
    "LinearEngineRegenerator", "LinearFridgeRegenerator", "StrokeTime",
    "TimingReport", "closed_form_cycle_time", "cycle_time", "engine_cycle_time",
    "engine_regime_extents", "fridge_cycle_time", "fridge_regime_extents", "isochoric_time",
    "isothermal_time", "regime_extents", "QuadratureConfig", "QuadratureResult", "integrate",
    "__version__",
)


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestEngineCommand:
    def test_valid_config_emits_14_columns(self, tmp_path, capsys):
        out = tmp_path / "engine.csv"
        assert main(["engine", "--config", ENGINE_CFG, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == list(COLUMNS["engine"])
        assert len(header) == 14
        assert len(rows) == 1
        assert rows[0][-1] == "ok"

    def test_broken_ordering_exits_2(self, tmp_path, capsys):
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "alpha_h = 0.6", "alpha_h = 1.2")
        rc = main(["engine", "--config", write_cfg(tmp_path, text)])
        assert rc == 2
        assert "beta_h < beta1" in capsys.readouterr().err

    def test_q_out_of_range_exits_1(self, tmp_path, capsys):
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "q = -0.05", "q = 0.5")
        rc = main(["engine", "--config", write_cfg(tmp_path, text)])
        assert rc == 1

    def test_kind_mismatch_exits_1(self):
        assert main(["engine", "--config", FRIDGE_CFG]) == 1

    def test_convergence_failure_exits_3_naming_stroke(self, tmp_path, capsys):
        # a hot bath this close to the medium needs more series terms than the
        # budget, and rel_tol = 1e-14 is below Gauss-Legendre's 51 eps estimate,
        # so the hot isotherm goes to the starved GK15
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "alpha_h = 0.6", "alpha_h = 0.99").replace(
            "rel_tol = 1e-10", "rel_tol = 1e-14").replace(
            "max_subdivisions = 200", "max_subdivisions = 1")
        rc = main(["engine", "--config", write_cfg(tmp_path, text)])
        assert rc == 3
        assert "stroke" in capsys.readouterr().err

    def test_vanishing_beta1_b_to_c_matches_oracle(self, tmp_path):
        # B->C runs beta_s from 1e-300 to 33.3; its integrand ~1/beta_s^2
        # overflows near 1e-300, but the duration 1.25e300 does not
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "beta1 = 16.666666666666668", "beta1 = 1e-300")
        path, out = write_cfg(tmp_path, text), tmp_path / "engine.json"
        rc = main(["engine", "--config", path, "--format", "json", "--out", str(out)])
        assert rc == 0
        result = json.loads(out.read_text(encoding="utf-8"))
        assert result["status"] == "ok"
        cfg = load_run_config(path)
        spec = cfg.spec
        exact = mp_isochoric_time(spec.stat, cfg.model, cfg.regen.gamma1, spec.omega1,
                                  spec.beta1, spec.beta2)
        t2 = result["timing"]["t2"]
        assert abs(t2 - exact) <= 100.0 * cfg.quad.rel_tol * exact

    def test_regenerator_slope_one_ulp_above_1(self, tmp_path, capsys):
        # the gap (gamma1 - 1)*omega*beta_s must keep its digits: exit 3, or
        # every stroke time within 100 rel_tol of a 50-digit oracle
        gamma1 = 1.0000000000000002
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "gamma1 = 1.4", f"gamma1 = {gamma1!r}")
        out = tmp_path / "engine.json"
        rc = main(["engine", "--config", write_cfg(tmp_path, text), "--format", "json",
                   "--out", str(out)])
        if rc == 3:
            return
        assert rc == 0
        timing = json.loads(out.read_text(encoding="utf-8"))["timing"]
        cfg = load_run_config(write_cfg(tmp_path, text))
        spec, model, stat = cfg.spec, cfg.model, cfg.spec.stat
        exact = (
            mp_isothermal_time(stat, model, spec.beta_h, spec.beta1, spec.omega2, spec.omega1, 50),
            mp_isochoric_time(stat, model, gamma1, spec.omega1, spec.beta1, spec.beta2, 50),
            mp_isothermal_time(stat, model, spec.beta_c, spec.beta2, spec.omega1, spec.omega2, 50),
            mp_isochoric_time(stat, model, 0.6, spec.omega2, spec.beta2, spec.beta1, 50),
        )
        for name, value in zip(("t1", "t2", "t3", "t4"), exact):
            assert abs(timing[name] - value) <= 100.0 * cfg.quad.rel_tol * value, name

    def test_unconvertible_particle_count_exits_1(self, tmp_path, capsys):
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "particle_count = 1", "particle_count = 1" + "0" * 400)
        rc = main(["engine", "--config", write_cfg(tmp_path, text)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: output.particle_count:")
        assert "Traceback" not in err

    def test_overflowing_product_names_keys_exits_1(self, tmp_path, capsys):
        # beta1*omega2 overflows to inf in the exact ledger: the error names
        # the factors, not population's argument
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "omega2 = 2.0", "omega2 = 1e308")
        rc = main(["engine", "--config", write_cfg(tmp_path, text)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: beta1*omega2 overflows: 16.666666666666668 * 1e+308 = inf\n"

    @pytest.mark.parametrize("mode", ["exact", "low_temp", "high_temp"])
    @pytest.mark.parametrize("omega2,code,message", [
        ("1e308", 1, "beta1*omega2 overflows: 16.666666666666668 * 1e+308 = inf"),
        # every corner product is in range, the cold bath's beta_c*omega2 is not
        ("4.5e306", 3, "regime extent x_max overflows: the cycle's largest beta*omega "
                       "product is past the float range"),
    ], ids=["corner", "bath"])
    def test_overflowing_product_named_in_every_mode(self, tmp_path, capsys, omega2, code,
                                                     message, mode):
        # each used to exit 0 writing "x_max": Infinity, except the corner
        # product in EXACT mode, which the exact ledger names
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "omega2 = 2.0", f"omega2 = {omega2}").replace(
            "regime_mode = exact", f"regime_mode = {mode}")
        rc = main(["engine", "--config", write_cfg(tmp_path, text), "--format", "json"])
        assert (rc, *capsys.readouterr()) == (code, "", f"error: {message}\n")

    def test_subnormal_beta_names_keys_exits_1(self, tmp_path, capsys):
        # beta1*omega is in range, but the ledger forms omega/(1/beta1) and
        # 1/1e-310 is inf: the error names the corner, not population's x
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "beta1 = 16.666666666666668", "beta1 = 1e-310")
        rc = main(["engine", "--config", write_cfg(tmp_path, text)])
        assert rc == 1
        assert capsys.readouterr().err == "error: beta1*omega2 underflows: 1e-310 * 2.0 = 0.0\n"

    def test_overflowing_occupation_names_corner_exits_1(self, tmp_path):
        # beta1*omega1 = 1e-310 is positive, but its bosonic occupation ~1/x
        # overflows: a named error, and no numpy warning on stderr
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "beta1 = 16.666666666666668", "beta1 = 1e-300").replace(
            "omega1 = 1.0", "omega1 = 1e-10")
        proc = subprocess.run([sys.executable, "-m", "qstirling", "engine", "--config",
                               write_cfg(tmp_path, text)], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: beta1*omega1 = 1e-300 * 1e-10 = 1e-310: ")
        assert "bosonic population overflows" in proc.stderr
        assert "Warning" not in proc.stderr

    def test_thermal_field_bath_rejected(self, tmp_path, capsys):
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "a = 1.0\nq = -0.05", "rho0 = 1.0\nm = 1.0")
        rc = main(["engine", "--config", write_cfg(tmp_path, text)])
        assert rc == 1
        assert "geva-kosloff" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        out = tmp_path / "engine.json"
        assert main(["engine", "--config", ENGINE_CFG, "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["status"] == "ok"
        assert payload["performance"]["eta"] > 0.0
        assert payload["timing"]["tau"] > 0.0
        assert payload["regime_extents"]["x_min"] == 10.0

    def test_regime_mode_low_temp(self, tmp_path):
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "regime_mode = exact", "regime_mode = low_temp")
        out = tmp_path / "low.json"
        rc = main(["engine", "--config", write_cfg(tmp_path, text),
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["regime"] == "low_temp"
        assert payload["timing"]["error_estimates"] == [0.0, 0.0, 0.0, 0.0]

    def test_fridge_high_temp_mode_exits_1(self, tmp_path):
        text = Path(FRIDGE_CFG).read_text(encoding="utf-8").replace(
            "regime_mode = exact", "regime_mode = high_temp")
        assert main(["fridge", "--config", write_cfg(tmp_path, text)]) == 1

    def test_high_temp_mode_carnot_like_efficiency(self, tmp_path):
        cfg = CONFIG_DIR / "engine_hightemp_bosonic.ini"
        text = cfg.read_text(encoding="utf-8").replace(
            "regime_mode = exact", "regime_mode = high_temp")
        out = tmp_path / "ht.json"
        rc = main(["engine", "--config", write_cfg(tmp_path, text),
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["regime"] == "high_temp"
        assert payload["performance"]["eta"] == 0.5
        assert payload["ledger"]["delta_q"] == 0.0

    def test_validate_skips_equivalence_outside_low_temp_window(self, capsys):
        rc = main(["validate", "--config",
                   str(CONFIG_DIR / "engine_hightemp_bosonic.ini")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SKIP statistics_equivalence" in out

    def test_csv_round_trips_to_json_values(self, tmp_path):
        csv_out = tmp_path / "e.csv"
        json_out = tmp_path / "e.json"
        main(["engine", "--config", ENGINE_CFG, "--out", str(csv_out)])
        main(["engine", "--config", ENGINE_CFG, "--format", "json", "--out", str(json_out)])
        header, rows = read_csv(csv_out)
        row = dict(zip(header, rows[0]))
        payload = json.loads(json_out.read_text(encoding="utf-8"))
        assert float(row["q_h"]) == payload["ledger"]["q_h"]
        assert float(row["w_tot"]) == payload["ledger"]["w_tot"]
        assert float(row["eta"]) == payload["performance"]["eta"]
        assert float(row["tau"]) == payload["performance"]["tau"]

    def test_particle_count_scales_extensive_quantities(self, tmp_path):
        base = Path(ENGINE_CFG).read_text(encoding="utf-8")
        single = tmp_path / "n1.csv"
        double = tmp_path / "n2.csv"
        main(["engine", "--config", write_cfg(tmp_path, base, "n1.ini"), "--out", str(single)])
        main(["engine", "--config",
              write_cfg(tmp_path, base.replace("particle_count = 1", "particle_count = 2"),
                        "n2.ini"),
              "--out", str(double)])
        h1, r1 = read_csv(single)
        h2, r2 = read_csv(double)
        one = dict(zip(h1, r1[0]))
        two = dict(zip(h2, r2[0]))
        for extensive in ("q_h", "q_c", "w_tot", "power", "sigma", "delta_q"):
            assert float(two[extensive]) == 2.0 * float(one[extensive])
        for intensive in ("eta", "tau"):
            assert float(two[intensive]) == float(one[intensive])

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["engine", "--config", ENGINE_CFG, "--out", str(a)])
        main(["engine", "--config", ENGINE_CFG, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestFridgeCommand:
    def test_valid_config(self, tmp_path):
        out = tmp_path / "fridge.csv"
        assert main(["fridge", "--config", FRIDGE_CFG, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == list(COLUMNS["fridge"])
        assert len(header) == 14
        assert rows[0][-1] == "ok"
        row = dict(zip(header, rows[0]))
        assert float(row["epsilon"]) > 0.0
        assert float(row["cooling_rate"]) > 0.0

    def test_not_a_refrigerator_row(self, tmp_path):
        # the one non-finite number allowed at exit 0: the NaN figure of merit of a
        # cycle whose status says why
        spec = FridgeSpec(Statistics.FERMIONIC, 1.0, 2.0, 0.1, 0.15, 0.3, 0.4)
        cycle = cycle_ledger(spec)
        assert cycle.status == "not_a_refrigerator"
        assert math.isnan(cycle.epsilon)
        text = Path(FRIDGE_CFG).read_text(encoding="utf-8")
        for line, edit in (("beta1p = 16.666666666666668", "beta1p = 0.1"),
                           ("beta2p = 33.333333333333336", "beta2p = 0.4"),
                           ("alpha_h = 1.4", "beta_h = 0.15"), ("alpha_c = 0.8", "beta_c = 0.3")):
            assert line in text
            text = text.replace(line, edit)
        config = write_cfg(tmp_path, text)
        cfg = load_run_config(config)
        assert (cfg.spec, cfg.model, cfg.regen) == (
            spec, GevaKosloff(1.0, -0.05), LinearFridgeRegenerator(1.4, 0.6))
        csv_out, json_out = tmp_path / "row.csv", tmp_path / "row.json"
        assert main(["fridge", "--config", config, "--out", str(csv_out)]) == 0
        assert main(["fridge", "--config", config, "--format", "json",
                     "--out", str(json_out)]) == 0
        header, rows = read_csv(csv_out)
        row = dict(zip(header, rows[0]))
        assert row.pop("status") == "not_a_refrigerator"
        assert [name for name, value in row.items() if not math.isfinite(float(value))] == \
            ["epsilon"]
        assert row["epsilon"] == "nan"
        document = json_out.read_text(encoding="utf-8")
        assert "Infinity" not in document
        assert document.count("NaN") == 1
        payload = json.loads(document)
        assert payload["status"] == "not_a_refrigerator"
        assert math.isnan(payload["performance"]["epsilon"])

    def test_broken_ordering_exits_2(self, tmp_path, capsys):
        text = Path(FRIDGE_CFG).read_text(encoding="utf-8").replace(
            "alpha_h = 1.4", "alpha_h = 0.9")
        rc = main(["fridge", "--config", write_cfg(tmp_path, text)])
        assert rc == 2
        assert "beta1p < beta_h" in capsys.readouterr().err

    def test_q_out_of_range_exits_1(self, tmp_path):
        text = Path(FRIDGE_CFG).read_text(encoding="utf-8").replace(
            "q = -0.05", "q = -1.5")
        assert main(["fridge", "--config", write_cfg(tmp_path, text)]) == 1

    @pytest.mark.parametrize("mode", ["exact", "low_temp"])
    def test_regenerator_slope_out_of_range_exits_1(self, tmp_path, capsys, mode):
        # b = 0.9 leaves the regenerator hotter than the medium it should cool;
        # both modes reject it while loading the config
        text = Path(FRIDGE_CFG).read_text(encoding="utf-8").replace(
            "b = 1.4", "b = 0.9").replace("regime_mode = exact", f"regime_mode = {mode}")
        assert main(["fridge", "--config", write_cfg(tmp_path, text)]) == 1
        assert capsys.readouterr().err == "error: regenerator: b must exceed 1, got 0.9\n"


@pytest.mark.parametrize("command,config,line,edit,mode,code,message", [
    ("engine", ENGINE_CFG, "omega2 = 2.0", "omega2 = inf", "low_temp", 1,
     "error: cycle: omega2 must be positive and finite, got inf\n"),
    ("engine", ENGINE_CFG, "omega2 = 2.0", "omega2 = inf", "high_temp", 1,
     "error: cycle: omega2 must be positive and finite, got inf\n"),
    ("engine", ENGINE_CFG, "gamma1 = 1.4", "gamma1 = inf", "exact", 1,
     "error: regenerator: gamma1 must be finite, got inf\n"),
    ("fridge", FRIDGE_CFG, "\nb = 1.4", "\nb = inf", "exact", 1,
     "error: regenerator: b must be finite, got inf\n"),
    # the series' b/(2a) overflows on every stroke; the first is named
    ("engine", ENGINE_CFG, "\na = 1.0", "\na = 1e-320", "exact", 3,
     "error: stroke A->B: duration is past the float range\n"),
    # accepted, a = inf ended in "cycle period underflowed to zero" at exit 3
    ("engine", ENGINE_CFG, "\na = 1.0", "\na = inf", "exact", 1,
     "error: bath: a must be positive and finite, got inf\n"),
], ids=["omega2-low_temp", "omega2-high_temp", "gamma1", "fridge-b", "a-subnormal", "a-inf"])
def test_non_finite_cycle_exits_nonzero(tmp_path, capsys, command, config, line, edit,
                                        mode, code, message):
    # without the checks each run exits 0 writing nan or inf fields with status ok
    text = Path(config).read_text(encoding="utf-8")
    assert line in text
    text = text.replace(line, edit).replace("regime_mode = exact", f"regime_mode = {mode}")
    assert main([command, "--config", write_cfg(tmp_path, text)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


HIGHTEMP_CFG = str(CONFIG_DIR / "engine_hightemp_bosonic.ini")
HIGHTEMP_BETAS = ("beta1 = 1.7857142857142857e-4", "beta2 = 3.5714285714285714e-4")


@pytest.mark.parametrize("edits,mode,message", [
    # the bosonic high-temperature isotherm divides by 2a*lo*hi*gap = 0
    ((("omega1 = 1.0", "omega1 = 1e-200"), ("omega2 = 2.0", "omega2 = 2e-200")), "high_temp",
     "error: cycle period is not finite at these parameters: inf\n"),
    ((("statistics = bosonic", "statistics = fermionic"), ("omega1 = 1.0", "omega1 = 1e200"),
      ("omega2 = 2.0", "omega2 = 2e200")), "high_temp",
     "error: power is not finite at these parameters: nan\n"),
    (((HIGHTEMP_BETAS[0], "beta1 = 1e-310"), (HIGHTEMP_BETAS[1], "beta2 = 2e-310"),
      ("omega1 = 1.0", "omega1 = 1e300"), ("omega2 = 2.0", "omega2 = 2e300")), "low_temp",
     "error: power is not finite at these parameters: nan\n"),
    # finite heats that overflow once scaled by the particle count
    ((("particle_count = 1", "particle_count = 1" + "0" * 308),), "exact",
     "error: q_iso_hot overflows when scaled by output.particle_count\n"),
], ids=["high_temp-zero-denominator", "high_temp-fermionic-nan", "low_temp-nan",
        "particle_count-overflow"])
@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_non_finite_result_exits_3(tmp_path, capsys, edits, mode, message, out_format):
    # each run used to exit 0 with nan or inf fields and status ok, or with a traceback
    text = Path(HIGHTEMP_CFG).read_text(encoding="utf-8")
    for line, edit in edits:
        assert line in text
        text = text.replace(line, edit)
    text = text.replace("regime_mode = exact", f"regime_mode = {mode}")
    rc = main(["engine", "--config", write_cfg(tmp_path, text), "--format", out_format])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (3, "", message)


@pytest.mark.parametrize("command,config,edits,code,message", [
    # a Dekker split of the slope overflows: the leading exponential falls back
    ("engine", ENGINE_CFG, {"gamma1 = 1.4": "gamma1 = 1e308"}, 0, ""),
    # the hot isotherm lasts ~1/(2a*dd*omega1), past the float range (and 2a*dd
    # of the high-temperature bosonic form of B->C underflows to zero)
    ("engine", ENGINE_CFG, {"\na = 1.0": "\na = 1e-300", "omega1 = 1.0": "omega1 = 1e-300"}, 3,
     "error: stroke A->B: duration is past the float range"),
    # (gamma1 - 1)*omega1 underflows to zero
    ("engine", ENGINE_CFG, {"bosonic": "fermionic", "omega1 = 1.0": "omega1 = 1e-310",
                            "gamma1 = 1.4": "gamma1 = 1.0000000000000002"}, 3,
     "error: stroke B->C: regenerator and medium temperatures coincide: "
     "infinite relaxation time\n"),
    # omega2/omega1 is past the float range, and so is e^v at the GK15 nodes
    ("fridge", FRIDGE_CFG, {"omega1 = 1.0": "omega1 = 5e-324"}, 3,
     "error: stroke D->C: quadrature error "),
], ids=["gamma1-huge", "a-omega1-tiny", "gap-underflow", "omega-ratio-overflow"])
def test_extreme_stroke_ends_named(tmp_path, capsys, command, config, edits, code, message):
    # each run used to end in a ValueError, ZeroDivisionError or OverflowError traceback
    text = Path(config).read_text(encoding="utf-8")
    for line, edit in edits.items():
        assert line in text
        text = text.replace(line, edit)
    assert main([command, "--config", write_cfg(tmp_path, text)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) if message else err == ""


@pytest.mark.parametrize("argv", [
    ["engine", "--config", ENGINE_CFG, "--out", "{tmp}"],
    ["regime-map", "--q-min=-0.9", "--q-max=-0.1", "--x-min", "1", "--x-max", "2",
     "--grid", "3", "--out", "{tmp}/missing/map.csv"],
    ["power-sweep", "--config", SWEEP_CFG, "--x-grid", "0.5:10:4", "--out", "{tmp}/sweep.csv",
     "--summary-out", "{tmp}/missing/summary.json"],
], ids=["cycle-into-directory", "regime-map-missing-directory",
        "sweep-summary-missing-directory"])
def test_unwritable_output_path_exits_1(tmp_path, capsys, argv):
    # each run used to end in an IsADirectoryError or FileNotFoundError traceback
    rc = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: cannot write output file: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # power-sweep used to leave its rows file behind


_SWEEP = ["power-sweep", "--config", SWEEP_CFG, "--x-grid"]


@pytest.mark.parametrize("argv, edit, message", [
    (_SWEEP + ["1:2:x"], None, "--x-grid: invalid literal for int() with base 10: 'x'"),
    (_SWEEP + ["1:2:0"], None, "--x-grid: N must be at least 1"),
    (_SWEEP + ["1:2:1"], None, "--x-grid: single-point grid requires START == STOP"),
    (["power-sweep", "--config", FRIDGE_CFG, "--x-grid", "1:2:3"], None,
     "power-sweep requires an engine configuration"),
    (["engine"], lambda text: text[:text.index("[cycle]")] + text[text.index("[bath]"):],
     "missing section [cycle]"),
    (["engine"], lambda text: text.replace("alpha_h = 0.6\nalpha_c = 1.4\n", ""),
     "cycle: requires either beta_h/beta_c or alpha_h/alpha_c"),
    (["engine"], lambda text: text.replace("kind = engine", "kind = motor"),
     "cycle.kind: expected engine or fridge, got 'motor'"),
    (["engine"], lambda text: text.replace("format = csv", "format = xml"),
     "output.format: expected csv or json, got 'xml'"),
], ids=["x-grid-count", "x-grid-zero", "x-grid-single", "sweep-fridge", "missing-cycle",
        "requires-either", "cycle-kind", "output-format"])
def test_rejected_input_exits_1_naming_it(tmp_path, capsys, argv, edit, message):
    if edit is not None:
        text = Path(ENGINE_CFG).read_text(encoding="utf-8")
        assert edit(text) != text
        argv = argv + ["--config", write_cfg(tmp_path, edit(text))]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


class TestRegimeMapCommand:
    def test_on_curve_classification(self, tmp_path):
        x0 = 2.0 * math.log(2.0)
        out = tmp_path / "map.csv"
        rc = main(["regime-map", "--q-min", "-0.9", "--q-max", "-0.1",
                   "--x-min", repr(x0), "--x-max", repr(x0 + 4.0),
                   "--grid", "5", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["q", "x", "l_r", "region"]
        assert len(rows) == 25
        target = [r for r in rows if float(r[0]) == -0.5 and float(r[1]) == x0]
        assert len(target) == 1
        assert abs(float(target[0][2]) - 1.0) < 1e-12
        assert target[0][3] == "on"

    def test_below_region(self, tmp_path):
        out = tmp_path / "map.csv"
        main(["regime-map", "--q-min", "-0.9", "--q-max", "-0.1",
              "--x-min", "10.0", "--x-max", "11.0", "--grid", "2", "--out", str(out)])
        header, rows = read_csv(out)
        first = rows[0]  # q = -0.9, x = 10
        assert abs(float(first[2]) - 2.0 * math.exp(-9.0)) < 1e-15
        assert first[3] == "below"

    def test_degenerate_grid(self, tmp_path):
        out = tmp_path / "map.csv"
        rc = main(["regime-map", "--q-min", "-0.6", "--q-max", "-0.4",
                   "--x-min", "1.0", "--x-max", "2.0", "--grid", "2", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 4

    @pytest.mark.parametrize("args", [
        ["--q-min", "-0.1", "--q-max", "-0.9", "--x-min", "1", "--x-max", "2", "--grid", "3"],
        ["--q-min", "-0.5", "--q-max", "0.5", "--x-min", "1", "--x-max", "2", "--grid", "3"],
        ["--q-min", "-0.9", "--q-max", "-0.1", "--x-min", "2", "--x-max", "1", "--grid", "3"],
        ["--q-min", "-0.9", "--q-max", "-0.1", "--x-min", "1", "--x-max", "2", "--grid", "1"],
    ])
    def test_invalid_ranges_exit_1(self, args):
        assert main(["regime-map", *args]) == 1

    def test_csv_values_round_trip_exactly(self, tmp_path):
        import qstirling
        out = tmp_path / "map.csv"
        main(["regime-map", "--q-min", "-0.77", "--q-max", "-0.13",
              "--x-min", "0.31", "--x-max", "9.7", "--grid", "7", "--out", str(out)])
        _, rows = read_csv(out)
        for row in rows:
            q, x, l_r = float(row[0]), float(row[1]), float(row[2])
            # 17-significant-digit formatting must reproduce the exact doubles
            assert l_r == qstirling.conduction_ratio(q, x)

    def test_grid_ends_exactly_at_the_upper_bounds(self, tmp_path):
        # q_min + (q_max - q_min) rounds to 0.0 here, outside (-1, 0)
        out = tmp_path / "map.csv"
        rc = main(["regime-map", "--q-min=-0.9", "--q-max=-1e-20", "--x-min", "0.7",
                   "--x-max", "2.9", "--grid", "3", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert float(rows[-1][0]) == -1e-20
        assert float(rows[-1][1]) == 2.9

    def test_threads_do_not_change_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        common = ["--q-min", "-0.9", "--q-max", "-0.1", "--x-min", "0.5",
                  "--x-max", "12.0", "--grid", "20"]
        main(["regime-map", *common, "--out", str(a)])
        main(["regime-map", *common, "--threads", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def test_csv_rows_match_per_value_format():
    # one %-format per table: %.17g for a float column, %s for any other type
    cases = [
        ([(0.1, 2, "on", np.float64(1 / 3))], "h\n0.10000000000000001,2,on,0.33333333333333331\n"),
        ([(0.1, 1e300), (5e-324, -0.0), (math.inf, math.nan)],
         "h\n0.10000000000000001,1.0000000000000001e+300\n4.9406564584124654e-324,-0\ninf,nan\n"),
        ([[0.1, "ok"], [0.2, "bad"]], "h\n0.10000000000000001,ok\n0.20000000000000001,bad\n"),
        ([], "h\n"),
    ]
    for rows, expected in cases:
        assert _csv_text(("h",), rows) == expected


class TestPowerSweepCommand:
    def test_reference_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["power-sweep", "--config", SWEEP_CFG, "--x-grid", "0.5:10:96",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["x", "eta", "p_star", "ca_bound", "ref_curve"]
        etas = [float(r[1]) for r in rows]
        assert all(b < a for a, b in zip(etas, etas[1:]))
        p = [float(r[2]) for r in rows]
        best = p.index(max(p))
        assert 0 < best < len(p) - 1
        summary = json.loads((tmp_path / "sweep.csv.summary.json").read_text(encoding="utf-8"))
        assert summary["eta_below_ca_bound"] is True
        assert abs(summary["ca_bound"] - 0.5370899501137243) < 1e-14

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "one.csv"
        rc = main(["power-sweep", "--config", SWEEP_CFG, "--x-grid", "0.7:0.7:1",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((tmp_path / "one.csv.summary.json").read_text(encoding="utf-8"))
        assert summary["x_star"] == 0.7

    def test_grid_ends_exactly_at_stop(self, tmp_path):
        # 0.7 + (2.9 - 0.7) is 2.9000000000000004
        out = tmp_path / "sweep.json"
        rc = main(["power-sweep", "--config", SWEEP_CFG, "--x-grid", "0.7:2.9:3",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        records = json.loads(out.read_text(encoding="utf-8"))["records"]
        assert (records[0]["x"], records[-1]["x"]) == (0.7, 2.9)

    def test_descending_grid_exits_1(self):
        assert main(["power-sweep", "--config", SWEEP_CFG, "--x-grid", "10:0.5:96"]) == 1

    def test_malformed_grid_exits_1(self):
        assert main(["power-sweep", "--config", SWEEP_CFG, "--x-grid", "1:2"]) == 1

    @pytest.mark.parametrize("command, flag", [
        (["power-sweep", "--config", SWEEP_CFG, "--x-grid", "nan:1:3"], "--x-grid"),
        (["power-sweep", "--config", SWEEP_CFG, "--x-grid", "1:inf:3"], "--x-grid"),
        (["regime-map", "--q-min=-0.9", "--q-max=-0.1", "--x-min", "1", "--x-max", "inf",
          "--grid", "3"], "x-max"),
    ])
    def test_non_finite_flag_named(self, command, flag, capsys):
        assert main(command) == 1
        assert flag in capsys.readouterr().err

    def test_json_format_single_document(self, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main(["power-sweep", "--config", SWEEP_CFG, "--x-grid", "1:5:9",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload["records"]) == 9
        assert "summary" in payload

    def test_summary_out_without_out(self, tmp_path, capsys):
        # the rows go to stdout and the summary to --summary-out, not after the rows
        summary = tmp_path / "summary.json"
        rc = main(["power-sweep", "--config", SWEEP_CFG, "--x-grid", "1:5:3",
                   "--summary-out", str(summary)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "x,eta,p_star,ca_bound,ref_curve"
        assert len(out.splitlines()) == 4
        assert json.loads(summary.read_text(encoding="utf-8"))["ca_bound"] > 0.0

    def test_json_refuses_summary_out(self, tmp_path, capsys):
        # the JSON document holds the summary, so --summary-out would be dropped
        out, summary = tmp_path / "sweep.json", tmp_path / "summary.json"
        rc = main(["power-sweep", "--config", SWEEP_CFG, "--x-grid", "1:5:3",
                   "--format", "json", "--out", str(out), "--summary-out", str(summary)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--summary-out" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["power-sweep", "--config", SWEEP_CFG, "--x-grid", "0.5:10:40"]
        main([*args, "--out", str(a)])
        main([*args, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.summary.json").read_bytes() == \
            (tmp_path / "b.csv.summary.json").read_bytes()


RANGE_SKIP = ("SKIP detailed_balance (skipped: the rates or exp(beta_h*omega1) leave the "
              "float range)\n")


class TestValidateCommand:
    def test_valid_config_passes(self, capsys):
        rc = main(["validate", "--config", ENGINE_CFG])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 failed" in out
        assert out.count("PASS") >= 5

    def test_equivalence_deviation_reported_small_at_x_min_20(self, tmp_path, capsys):
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "beta1 = 16.666666666666668", "beta1 = 33.333333333333336").replace(
            "beta2 = 33.333333333333336", "beta2 = 66.66666666666667")
        rc = main(["validate", "--config", write_cfg(tmp_path, text)])
        out = capsys.readouterr().out
        assert rc == 0
        line = [l for l in out.splitlines() if "statistics_equivalence" in l][0]
        worst = float(line.split("worst deviation ")[1].split(" ")[0])
        assert worst <= 4.1e-9

    def test_broken_ordering_exits_2(self, tmp_path):
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "alpha_c = 1.4", "alpha_c = 0.9")
        assert main(["validate", "--config", write_cfg(tmp_path, text)]) == 2

    def test_format_is_refused(self, capsys):
        # validate writes text only; --format json used to print that text at exit 0.
        # Only regime-map takes --threads; the other commands accepted and ignored it.
        for argv in (["validate", "--config", ENGINE_CFG, "--format", "json"],
                     ["engine", "--config", ENGINE_CFG, "--threads", "2"],
                     ["fridge", "--config", FRIDGE_CFG, "--threads", "2"],
                     ["power-sweep", "--config", SWEEP_CFG, "--x-grid", "1:5:3", "--threads", "2"],
                     ["validate", "--config", ENGINE_CFG, "--threads", "2"]):
            rc = main(argv)
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.out == ""
            assert argv[-2] in captured.err

    def test_path_oracle_memory_peak(self, capsys):
        # the two 10^6-step path integrals keep about five 8 MB arrays alive
        # at once, not eleven; a count of traced bytes, not a timing
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert main(["validate", "--config", ENGINE_CFG]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 48 * 2 ** 20

    def test_thermal_field_skips_pipeline_checks(self, tmp_path, capsys):
        text = Path(ENGINE_CFG).read_text(encoding="utf-8").replace(
            "a = 1.0\nq = -0.05", "rho0 = 1.0\nm = 1.0")
        rc = main(["validate", "--config", write_cfg(tmp_path, text)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SKIP" in out

    @pytest.mark.parametrize("edits,code,skip,out,err", [
        # beta_h*omega1 = 750: e^{(1+q)*750} overflows in the rates; the period underflows
        # once the first four checks are decided, so those print and no summary does
        ({"beta1 = 16.666666666666668": "beta1 = 1250.0",
          "beta2 = 33.333333333333336": "beta2 = 2500.0"}, 3, RANGE_SKIP,
         "PASS first_law_closure (relative deviation 0.000e+00)\n"
         "PASS isothermal_heat_oracle (relative deviation 0.000e+00)\n"
         "PASS isochoric_heat_oracle (relative deviation 0.000e+00)\n" + RANGE_SKIP,
         "error: cycle period underflowed to zero at these parameters\n"),
        # the rates are finite, e^{750} is not, and the pipeline checks still run
        ({"beta1 = 16.666666666666668": "beta1 = 1250.0",
          "beta2 = 33.333333333333336": "beta2 = 2500.0", "q = -0.05": "q = -0.9"}, 0,
         RANGE_SKIP, "5 passed, 0 failed, 1 skipped\n", ""),
        ({"a = 1.0\nq = -0.05": "rho0 = 1.0\nm = 1e308", "omega1 = 1.0": "omega1 = 1.5"}, 0,
         RANGE_SKIP, "3 passed, 0 failed, 3 skipped\n", ""),
        ({"a = 1.0\nq = -0.05": "rho0 = 1.0\nm = -1e308", "omega1 = 1.0": "omega1 = 1.5"}, 0,
         RANGE_SKIP, "3 passed, 0 failed, 3 skipped\n", ""),
        # gamma_plus = gamma_minus*e^{-x} is subnormal: the ratio was off by 86259 and
        # 2.3e15 ulp, a false FAIL at exit 3
        ({"a = 1.0\nq = -0.05": "rho0 = 1.0\nm = -1740", "omega1 = 1.0": "omega1 = 1.5"}, 0,
         "SKIP detailed_balance (skipped: gamma_plus 1.221e-313 is subnormal, so the rate "
         "ratio is inexact)\n", "3 passed, 0 failed, 3 skipped\n", ""),
        ({"a = 1.0\nq = -0.05": "rho0 = 1.0\nm = -1800", "omega1 = 1.0": "omega1 = 1.5"}, 0,
         "SKIP detailed_balance (skipped: gamma_plus 4.941e-324 is subnormal, so the rate "
         "ratio is inexact)\n", "3 passed, 0 failed, 3 skipped\n", ""),
        ({"a = 1.0\nq = -0.05": "rho0 = 1.0\nm = nan", "omega1 = 1.0": "omega1 = 1.5"}, 1,
         None, "", "error: bath: m must be finite, got nan\n"),
    ], ids=["gk-rate-overflow", "gk-exp-overflow", "thermal-m-huge", "thermal-m-tiny",
            "thermal-m-subnormal", "thermal-m-least-subnormal", "thermal-m-nan"])
    def test_detailed_balance_probe_past_float_range(self, tmp_path, capsys, edits, code,
                                                      skip, out, err):
        # each run used to end in an OverflowError or ZeroDivisionError traceback, or
        # (m = nan) in "FAIL detailed_balance (nan ulp)" at exit 3
        text = Path(ENGINE_CFG).read_text(encoding="utf-8")
        for line, edit in edits.items():
            assert line in text
            text = text.replace(line, edit)
        report = tmp_path / "report.txt"
        rc = main(["validate", "--config", write_cfg(tmp_path, text), "--out", str(report)])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (code, err)
        if skip is not None:
            assert skip in captured.out.splitlines(keepends=True)
        if code == 0:
            assert captured.out.endswith(out)
            assert report.read_text(encoding="utf-8") == captured.out
        else:  # no report file behind an error
            assert captured.out == out
            assert not report.exists()

    def test_detailed_balance_at_the_exp_edge(self, tmp_path, capsys):
        # beta_h*omega1 = 709, inside e^x's range: gamma_minus took its own
        # exponent past 700 and printed "FAIL detailed_balance (350.0 ulp)"
        text = Path(ENGINE_CFG).read_text(encoding="utf-8")
        text = text.replace("beta1 = 16.666666666666668", "beta1 = 1181.6666666666667")
        text = text.replace("beta2 = 33.333333333333336", "beta2 = 2400.0")
        # the period underflows once the first four checks are decided
        assert main(["validate", "--config", write_cfg(tmp_path, text)]) == 3
        assert "PASS detailed_balance (0.0 ulp)\n" in capsys.readouterr().out

    def test_out_file_holds_the_report_printed(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        rc = main(["validate", "--config", ENGINE_CFG, "--out", str(report)])
        captured = capsys.readouterr()
        assert rc == 0
        assert report.read_text(encoding="utf-8") == captured.out
        assert captured.out.endswith("6 passed, 0 failed, 0 skipped\n")

    def test_failed_check_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "work_closed_form", lambda spec: 0.0)
        rc = main(["validate", "--config", ENGINE_CFG])
        out = capsys.readouterr().out
        assert rc == 3
        assert out.startswith("FAIL first_law_closure (relative deviation 1.000e+00)\n")
        assert out.endswith("5 passed, 1 failed, 0 skipped\n")

    @pytest.mark.parametrize("key,value", [
        ("rel_tol", "nan"), ("rel_tol", "inf"), ("abs_tol", "nan"), ("abs_tol", "inf"),
        ("x_low_threshold", "nan"), ("x_low_threshold", "inf"),
        ("x_high_threshold", "nan"), ("x_high_threshold", "-inf"),
    ])
    def test_non_finite_numerics_exit_1(self, tmp_path, capsys, key, value):
        text = "\n".join(line for line in Path(ENGINE_CFG).read_text(encoding="utf-8")
                         .splitlines() if not line.startswith(f"{key} ="))
        text = text.replace("[numerics]", f"[numerics]\n{key} = {value}")
        rc = main(["validate", "--config", write_cfg(tmp_path, text)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        if key.endswith("_threshold"):
            # the regime thresholds are constants of qstirling.relaxation, not keys
            assert captured.err == f"error: unknown key numerics.{key}\n"
        else:
            assert captured.err.startswith("error: numerics")


class TestEntryPoints:
    def test_module_help(self):
        proc = subprocess.run([sys.executable, "-m", "qstirling", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "regime-map" in proc.stdout

    def test_module_engine_run(self, tmp_path):
        out = tmp_path / "engine.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "qstirling", "engine", "--config", ENGINE_CFG,
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()

    @pytest.mark.parametrize("argv,loads_numpy", [
        (["engine", "--config", ENGINE_CFG], False),
        (["fridge", "--config", FRIDGE_CFG], False),
        (["power-sweep", "--config", SWEEP_CFG, "--x-grid", "0.5:5:8"], False),
        (["regime-map", "--q-min=-0.9", "--q-max=-0.1", "--x-min", "0.1", "--x-max", "5",
          "--grid", "4"], False),
        (["validate", "--config", ENGINE_CFG], True),
    ], ids=lambda v: v[0] if isinstance(v, list) else str(v))
    def test_only_validate_imports_numpy(self, tmp_path, argv, loads_numpy):
        # scalar occupations use math; numpy is for validate's path oracle
        code = ("import sys; from qstirling.cli import main; "
                f"rc = main({argv + ['--out', str(tmp_path / 'out')]!r}); "
                "print(rc, 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.splitlines()[-1] == f"0 {loads_numpy}", proc.stderr

    @pytest.mark.parametrize("argv", [["engine", "--config", ENGINE_CFG],
                                      ["fridge", "--config", FRIDGE_CFG]], ids=lambda v: v[0])
    def test_cycle_commands_load_no_study_code(self, tmp_path, argv):
        # sweeps, validate's oracle and relaxation dynamics live in
        # qstirling.studies; only JSON output needs json
        code = ("import sys, qstirling; from qstirling.cli import main; "
                f"rc = main({argv + ['--out', str(tmp_path / 'out')]!r}); "
                "assert not hasattr(qstirling, 'no_such_name'); "
                "assert not hasattr(qstirling.performance, 'no_such_name'); "
                "print(rc, 'qstirling.studies' in sys.modules, 'json' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.splitlines()[-1] == "0 False False", proc.stderr

    def test_moved_names_resolve_where_they_did(self):
        import qstirling
        from qstirling import studies

        for name in PACKAGE_EXPORTS:
            exec(f"from qstirling import {name}", {})
        # the package looks a study name up in its home module on every access
        assert "power_sweep" not in vars(qstirling)
        assert qstirling.power_sweep is qstirling.performance.power_sweep is studies.power_sweep
        # the benchmark's tracer rebinds these module attributes
        spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        for _, _, module, attr in spans._FUNCTIONS:
            assert callable(getattr(importlib.import_module(f"qstirling.{module}"), attr))
        for _, _, module, cls, attr in spans._CLASS_ATTRS:
            assert attr in vars(getattr(importlib.import_module(f"qstirling.{module}"), cls))

    def test_unknown_command_exits_1(self):
        assert main(["melt"]) == 1

    def test_stdout_output(self, capsys):
        rc = main(["engine", "--config", ENGINE_CFG])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("q_iso_hot,")
