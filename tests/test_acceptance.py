"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 10's reference-curve clause checks the exact gap between
the closed-form sweep efficiency and its leading-order term 1/(1+x): with
r = omega2/omega1 and s = beta2/beta1,

    eta - 1/(1+x) = [(r-1) x e^{-rx} - (1+x)(e^{-sx} - e^{-rsx})/s]
                    / [(1+x)((1+x) e^{-x} - (1+rx) e^{-rx})],

which is positive at every x > 0 for the shipped r = s = 2 (README,
"Tests and acceptance suite").
"""

import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np

from qstirling import (
    EngineSpec,
    GevaKosloff,
    LinearEngineRegenerator,
    LinearFridgeRegenerator,
    Mode,
    PathSpec,
    QuadratureConfig,
    Regime,
    Statistics,
    SweepTemplate,
    ThermalField,
    closed_form_cycle_time,
    conduction_ratio,
    engine_cycle_time,
    engine_ledger,
    engine_performance,
    engine_work_closed_form,
    equivalence_report,
    fridge_cycle_time,
    fridge_ledger,
    fridge_work_closed_form,
    heat_current,
    integrate_path,
    isochoric_heat,
    isothermal_heat,
    limit_heat_current,
    power_sweep,
    rates,
    relax,
    relaxation_rate,
    RelaxationSetup,
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

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
TIGHT = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-300, max_subdivisions=400)
MODEL = GevaKosloff(1.0, -0.05)
ENGINE_REGEN = LinearEngineRegenerator(1.4, 0.6)
FRIDGE_REGEN = LinearFridgeRegenerator(1.4, 0.6)

SWEEP_GRID = "0.5:10:96"
SWEEP_TEMPLATE = SweepTemplate(beta2_ratio=2.0, omega2_ratio=2.0, alpha_h=0.6,
                               alpha_c=1.4, gamma1=1.4, gamma2=0.6, q=-0.05)


def check(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_first_law_closure(rng):
    worst = 0.0
    for stat in (B, F):
        for _ in range(1000):
            spec = random_engine_spec(rng, stat)
            ledger = engine_ledger(spec).ledger
            heats = (ledger.q_iso_hot + ledger.q_iso_cold
                     + ledger.q_isochore_low + ledger.q_isochore_high)
            worst = max(worst, rel(heats, -engine_work_closed_form(spec)))
        for _ in range(1000):
            spec = random_fridge_spec(rng, stat)
            ledger = fridge_ledger(spec).ledger
            heats = (ledger.q_iso_hot + ledger.q_iso_cold
                     + ledger.q_isochore_low + ledger.q_isochore_high)
            worst = max(worst, rel(heats, -fridge_work_closed_form(spec)))
    check("1 first-law closure", worst <= 1e-12,
          f"worst relative deviation {worst:.3e} over 4000 specs, tolerance 1e-12")


def test_criterion_02_closed_forms_vs_path_oracle(rng):
    steps = 10 ** 6
    worst = 0.0
    for i in range(100):
        stat = B if i % 2 else F
        t = rng.uniform(0.4, 2.5)
        w_i = rng.uniform(0.5, 2.0)
        w_f = w_i * rng.uniform(1.2, 2.5)
        closed = isothermal_heat(stat, t, w_i, w_f)
        path = PathSpec(stat, lambda u: w_i + (w_f - w_i) * u,
                        lambda u: 1.0 / t + 0.0 * u, steps)
        worst = max(worst, rel(closed, integrate_path(path).heat))

        omega = rng.uniform(0.5, 2.0)
        t_i = rng.uniform(0.4, 2.5)
        t_f = t_i * rng.uniform(1.2, 2.5)
        closed = isochoric_heat(stat, omega, t_i, t_f)
        path = PathSpec(stat, lambda u: omega + 0.0 * u,
                        lambda u: 1.0 / t_i + (1.0 / t_f - 1.0 / t_i) * u, steps)
        worst = max(worst, rel(closed, integrate_path(path).heat))
    check("2 stroke heats vs 1e6-step midpoint oracle", worst <= 1e-8,
          f"worst relative deviation {worst:.3e} over 100 specs, tolerance 1e-8")


def test_criterion_03_detailed_balance(rng):
    worst = 0.0
    for _ in range(1000):
        beta = rng.uniform(0.05, 10.0)
        omega = rng.uniform(0.05, 5.0)
        stat = B if rng.integers(2) else F
        for model in (GevaKosloff(rng.uniform(0.1, 5.0), rng.uniform(-0.99, -0.01)),
                      ThermalField(rng.uniform(0.1, 5.0), rng.uniform(0.5, 2.0))):
            gamma_plus, gamma_minus = rates(model, beta, omega, stat)
            reference = math.exp(beta * omega)
            ulps = abs(gamma_minus / gamma_plus - reference) / math.ulp(reference)
            worst = max(worst, ulps)
    check("3 detailed balance", worst <= 4.0,
          f"worst deviation {worst:.2f} ulp over 1000 inputs x 2 variants, tolerance 4 ulp")


def _rk4_population(c0: float, c1: float, n0: float, h: float, steps: int) -> float:
    n = n0
    for _ in range(steps):
        k1 = c0 + c1 * n
        k2 = c0 + c1 * (n + 0.5 * h * k1)
        k3 = c0 + c1 * (n + 0.5 * h * k2)
        k4 = c0 + c1 * (n + h * k3)
        n += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return n


def test_criterion_04_relaxation_vs_fixed_step_ode():
    worst = 0.0
    for stat, n0 in ((B, 0.05), (F, 0.0)):
        setup = RelaxationSetup(stat, GevaKosloff(1.0, -0.5), 2.0 * math.log(2.0), 1.0, n0)
        gamma_plus, gamma_minus = rates(setup.model, setup.beta, setup.omega, stat)
        rate = relaxation_rate(setup)
        c0 = 2.0 * gamma_plus
        c1 = -rate
        h = 1e-6 / rate
        for factor, steps in ((0.1, 10 ** 5), (1.0, 10 ** 6), (10.0, 10 ** 7)):
            t = factor / rate
            oracle = _rk4_population(c0, c1, n0, h, steps)
            worst = max(worst, rel(relax(setup, t), oracle))
    check("4 relaxation vs RK4 oracle", worst <= 1e-8,
          f"worst relative deviation {worst:.3e} at t in {{0.1,1,10}}/rate, tolerance 1e-8")


def test_criterion_05_heat_conduction_regime_limits():
    model = GevaKosloff(1.0, -0.05)
    details = []
    ok = True
    # classical window: x = 1e-3, medium slightly colder than the bath
    exact_b = heat_current(B, model, 1e-3, 1.2e-3, 1.0)
    approx_b = limit_heat_current(Regime.HIGH_TEMP_BOSONIC, model, 1e-3, 1.2e-3, 1.0)
    dev = rel(exact_b, approx_b.value)
    ok &= dev <= 1e-2
    details.append(f"bosonic high-temp {dev:.2e}")
    exact_f = heat_current(F, model, 1e-3, 1.2e-3, 1.0)
    approx_f = limit_heat_current(Regime.HIGH_TEMP_FERMIONIC, model, 1e-3, 1.2e-3, 1.0)
    dev = rel(exact_f, approx_f.value)
    ok &= dev <= 1e-2
    details.append(f"fermionic high-temp {dev:.2e}")
    # quantum window: x = 25
    for stat in (B, F):
        exact = heat_current(stat, model, 25.0, 26.0, 1.0)
        approx = limit_heat_current(Regime.LOW_TEMP, model, 25.0, 26.0, 1.0)
        dev = rel(exact, approx.value)
        ok &= dev <= 1e-6
        details.append(f"{stat.value} low-temp {dev:.2e}")
    check("5 heat-conduction regime limits", ok, "; ".join(details))


def test_criterion_06_conduction_ratio_map():
    qs = np.linspace(-0.999, -0.001, 200)
    xs = np.linspace(15.0 / 200.0, 15.0, 200)
    sign_ok = True
    for q in qs:
        for x in xs:
            lr = conduction_ratio(q, x)
            gap = math.log(2.0) - abs(q) * x
            if gap != 0.0 and (lr > 1.0) != (gap > 0.0):
                sign_ok = False
    worst_on_curve = 0.0
    for q in np.linspace(-0.95, -0.05, 19):
        x = math.log(2.0) / abs(q)
        worst_on_curve = max(worst_on_curve, abs(conduction_ratio(q, x) - 1.0))
    ok = sign_ok and worst_on_curve <= 1e-12
    check("6 conduction-ratio map", ok,
          f"sign agreement on 200x200 grid: {sign_ok}; "
          f"|L_r - 1| on curve {worst_on_curve:.2e}, tolerance 1e-12")


def test_criterion_07_cycle_time_asymptotics():
    details = []
    ok = True
    for x_min, tol in ((10.0, 0.02), (20.0, 0.001)):
        for stat in (B, F):
            spec = lowtemp_engine_spec(stat, x_min)
            tau = engine_cycle_time(spec, MODEL, ENGINE_REGEN, TIGHT).tau
            closed = closed_form_cycle_time(Mode.LOW_TEMP, spec, MODEL, ENGINE_REGEN).tau
            dev = rel(tau, closed)
            ok &= dev <= tol
            details.append(f"engine {stat.value} x_min={x_min:g}: {dev:.2e}")
            fspec = lowtemp_fridge_spec(stat, x_min)
            tau = fridge_cycle_time(fspec, MODEL, FRIDGE_REGEN, TIGHT).tau
            closed = closed_form_cycle_time(Mode.LOW_TEMP, fspec, MODEL, FRIDGE_REGEN).tau
            dev = rel(tau, closed)
            ok &= dev <= tol
            details.append(f"fridge {stat.value} x_min={x_min:g}: {dev:.2e}")
    beta1 = 1e-3 / (2.8 * 2.0)  # x_max = 1e-3
    spec = EngineSpec(B, 1.0, 2.0, 0.6 * beta1, beta1, 2 * beta1, 2.8 * beta1)
    tau = engine_cycle_time(spec, MODEL, ENGINE_REGEN, TIGHT).tau
    closed = closed_form_cycle_time(Mode.HIGH_TEMP, spec, MODEL, ENGINE_REGEN).tau
    dev = rel(tau, closed)
    ok &= dev <= 0.01
    details.append(f"bosonic high-temp: {dev:.2e}")
    check("7 cycle-time asymptotics", ok, "; ".join(details))


def test_criterion_08_high_temperature_efficiencies():
    beta1 = 1e-3 / (2.8 * 2.0)  # x_max = 1e-3, beta2 = 2*beta1
    details = []
    ok = True
    for stat, target in ((B, 0.5), (F, 1.0 / 3.0)):
        spec = EngineSpec(stat, 1.0, 2.0, 0.6 * beta1, beta1, 2 * beta1, 2.8 * beta1)
        report = engine_performance(spec, MODEL, ENGINE_REGEN, TIGHT, Mode.EXACT)
        dev = rel(report.figure_of_merit, target)
        ok &= dev <= 1e-2
        details.append(f"{stat.value}: eta={report.figure_of_merit:.6f} vs {target:.6f} ({dev:.2e})")
    check("8 high-temperature efficiencies", ok, "; ".join(details))


def test_criterion_09_low_temperature_equivalence():
    details = []
    ok = True
    for x_min, bound in ((20.0, 4.1e-9), (8.0, 2.0 * math.exp(-8.0))):
        eq = equivalence_report(lowtemp_engine_spec(B, x_min), lowtemp_engine_spec(F, x_min),
                                MODEL, ENGINE_REGEN, TIGHT)
        worst = max(eq.deviations.values())
        ok &= worst <= bound and not eq.exceeding
        details.append(f"engine x_min={x_min:g}: worst {worst:.3e} vs {bound:.3e}")
        eq = equivalence_report(lowtemp_fridge_spec(B, x_min), lowtemp_fridge_spec(F, x_min),
                                MODEL, FRIDGE_REGEN, TIGHT)
        assert "cooling_rate" in eq.deviations
        worst = max(eq.deviations.values())
        ok &= worst <= bound and not eq.exceeding
        details.append(f"fridge x_min={x_min:g}: worst {worst:.3e} vs {bound:.3e}")
    check("9 low-temperature statistical equivalence", ok, "; ".join(details))


def _reference_sweep():
    xs = [0.5 + 9.5 * i / 95 for i in range(96)]
    return power_sweep(SWEEP_TEMPLATE, xs)


def test_criterion_10_sweep_shape_and_golden(tmp_path):
    result = _reference_sweep()
    etas = [r.eta for r in result.records]
    monotone = all(b < a for a, b in zip(etas, etas[1:]))
    p = [r.p_star for r in result.records]
    best = p.index(max(p))
    interior = 0 < best < len(p) - 1
    rises = [b > a for a, b in zip(p, p[1:])]
    single_max = rises.index(False) == rises.count(True)
    out = tmp_path / "sweep.csv"
    rc = subprocess.run(
        [sys.executable, "-m", "qstirling", "power-sweep",
         "--config", str(ROOT / "configs" / "power_sweep_reference.ini"),
         "--x-grid", SWEEP_GRID, "--out", str(out),
         "--summary-out", str(tmp_path / "sweep.summary.json")],
        capture_output=True, text=True)
    golden_ok = (rc.returncode == 0
                 and out.read_bytes() == (GOLDEN / "power_sweep_reference.csv").read_bytes()
                 and (tmp_path / "sweep.summary.json").read_bytes()
                 == (GOLDEN / "power_sweep_reference.summary.json").read_bytes())
    ok = monotone and interior and single_max and golden_ok
    check("10 sweep shape and golden file", ok,
          f"eta monotone: {monotone}; unique interior P* max: {interior and single_max} "
          f"(argmax x={result.records[best].x:g}); golden byte-identical: {golden_ok}")


def _reference_curve_gap(x: float, r: float, s: float) -> float:
    """eta - 1/(1+x) of the low-temperature closed forms, at 50 digits."""
    with mpmath.workdps(50):
        x, r, s = mpmath.mpf(x), mpmath.mpf(r), mpmath.mpf(s)
        e = mpmath.exp
        num = (r - 1) * x * e(-r * x) - (1 + x) * (e(-s * x) - e(-r * s * x)) / s
        den = (1 + x) * ((1 + x) * e(-x) - (1 + r * x) * e(-r * x))
        return float(num / den)


def test_criterion_10_efficiency_below_reference_curve():
    # 1/(1+x) is only the leading-order low-temperature efficiency; the
    # closed-form set keeps every exponential, so eta approaches it from
    # above and eta(x*) < 1/(1+x*) is false.  The check is the exact gap
    # identity (module docstring), evaluated without qstirling, at x* and at
    # every grid point; a 1e-9 relative shift of eta moves the gap at x* by
    # ~1e-6 relative.
    result = _reference_sweep()
    summary = result.summary
    assert summary.eta_below_ca_bound, "eta(x*) must stay below the Curzon-Ahlborn bound"
    r = SWEEP_TEMPLATE.omega2_ratio
    s = SWEEP_TEMPLATE.beta2_ratio
    points = [(summary.x_star, summary.eta_at_max - summary.ref_curve_at_max)]
    points += [(rec.x, rec.eta - rec.ref_curve) for rec in result.records]
    gaps = [(gap, _reference_curve_gap(x, r, s)) for x, gap in points]
    gap_star, expected_star = gaps[0]
    worst = max(abs(gap - expected) / expected for gap, expected in gaps)
    all_positive = all(gap > 0.0 and expected > 0.0 for gap, expected in gaps)
    ok = worst <= 1e-9 and all_positive and summary.eta_below_ref_curve is False
    check("10 eta - 1/(1+x) gap identity", ok,
          f"at x*={summary.x_star:g}: gap {gap_star:.9e} vs identity {expected_star:.9e} "
          f"(rel diff {abs(gap_star - expected_star) / expected_star:.1e}); worst rel diff "
          f"over x* and {len(result.records)} grid points {worst:.1e} (bound 1e-9); "
          f"gap positive everywhere: {all_positive}; "
          f"eta_below_ref_curve={summary.eta_below_ref_curve}; "
          f"Curzon-Ahlborn bound {summary.ca_bound:.4f} holds")


def test_criterion_11_second_law_low_temperature(rng):
    violations = 0
    worst = math.inf
    for i in range(1000):
        stat = B if i % 2 else F
        # alpha_h >= 0.5 and gamma2 = 0.6, so beta1*omega1 >= 16 keeps x_min >= 8
        spec = random_engine_spec(rng, stat, x_lo=16.0, x_hi=45.0)
        report = engine_performance(spec, MODEL, ENGINE_REGEN, TIGHT)
        assert report.x_min >= 8.0
        worst = min(worst, report.sigma)
        if report.sigma < 0.0 and report.status == "ok":
            violations += 1
    check("11 second law at low temperature", violations == 0,
          f"{violations} sigma<0 cases with ok status over 1000 specs; "
          f"smallest sigma {worst:.3e}")


def test_criterion_12_cli_determinism(tmp_path):
    runs = [
        ("engine", ["engine", "--config", str(ROOT / "configs" / "engine_lowtemp.ini")]),
        ("engine-ht", ["engine", "--config",
                       str(ROOT / "configs" / "engine_hightemp_bosonic.ini")]),
        ("fridge", ["fridge", "--config", str(ROOT / "configs" / "fridge_lowtemp.ini")]),
        ("sweep", ["power-sweep", "--config", str(ROOT / "configs" / "power_sweep_reference.ini"),
                   "--x-grid", "0.5:10:40"]),
        ("map", ["regime-map", "--q-min", "-0.9", "--q-max", "-0.1",
                 "--x-min", "0.5", "--x-max", "12", "--grid", "25"]),
    ]
    identical = True
    for name, args in runs:
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        for path in (a, b):
            rc = subprocess.run([sys.executable, "-m", "qstirling", *args,
                                 "--out", str(path)], capture_output=True, text=True)
            assert rc.returncode == 0, rc.stderr
        if a.read_bytes() != b.read_bytes():
            identical = False
    check("12 CLI determinism", identical,
          f"{len(runs)} commands re-run byte-identically" if identical
          else "byte mismatch between repeated runs")
