"""Command-line interface: engine, fridge, regime-map, power-sweep, validate.

Outputs are plot-ready CSV (17-significant-digit floats) or JSON and are
byte-identical across repeated runs of the same configuration.  Exit codes:
0 ok, 1 configuration error, 2 physics validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

from . import performance, statistics
from .config import RunConfig, load_run_config
from .cycles import (
    CYCLE_KINDS,
    EngineSpec,
    StrokeLedger,
    cycle_kind,
    cycle_ledger,
    isochoric_heat,
    isothermal_heat,
    work_closed_form,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    OrderingError,
    ParameterError,
    SingularityError,
)
from .performance import Mode, PerformanceReport, cycle_performance
from .relaxation import HIGH_TEMP_THRESHOLD, LOW_TEMP_THRESHOLD, GevaKosloff, conduction_ratio, rates
from .statistics import Statistics

_LN2 = math.log(2.0)
_ON_CURVE_TOL = 1e-12

_LEDGER_FIELDS = tuple(f.name for f in dataclasses.fields(StrokeLedger))
COLUMNS = {name: _LEDGER_FIELDS + (kind.merit, "power", kind.rate_column, "tau", "status")
           for name, kind in CYCLE_KINDS.items()}
REGIME_MAP_COLUMNS = ("q", "x", "l_r", "region")


def _csv_text(columns, rows) -> str:
    """One ``%`` format per table, read off its first row: ``%.17g`` for a float, else ``%s``.

    Every table the CLI writes holds one non-bool type per column.
    """
    rows = [tuple(row) for row in rows]
    fmt = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0]) if rows else ""
    return "\n".join([",".join(columns), *(fmt % row for row in rows)]) + "\n"


def _json_text(payload) -> str:
    import json

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors (exit 1)
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qstirling",
                     description="Regenerative bosonic/fermionic Stirling cycle "
                                 "simulator (natural units hbar = k_B = 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="INI configuration file")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    def add_formatted(p):  # the commands that read output.format
        add_common(p)
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override output.format from the config")

    for kind in CYCLE_KINDS.values():
        cycle = sub.add_parser(kind.name, help=f"run one {kind.machine} operating point")
        add_formatted(cycle)
        cycle.set_defaults(handler=functools.partial(_cmd_cycle, kind=kind.name))

    regime = sub.add_parser("regime-map", help="grid of the conduction-coefficient ratio")
    regime.add_argument("--q-min", type=float, required=True)
    regime.add_argument("--q-max", type=float, required=True)
    regime.add_argument("--x-min", type=float, required=True)
    regime.add_argument("--x-max", type=float, required=True)
    regime.add_argument("--grid", type=int, required=True, metavar="N")
    regime.add_argument("--out", default=None)
    regime.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; the map runs single-threaded")
    regime.set_defaults(handler=_cmd_regime_map)

    sweep = sub.add_parser("power-sweep", help="efficiency/power sweep over beta1*omega1")
    add_formatted(sweep)
    sweep.add_argument("--x-grid", required=True, metavar="START:STOP:N",
                       help="inclusive grid of x = beta1*omega1 values")
    sweep.add_argument("--summary-out", default=None,
                       help="summary JSON path for csv output (default: <out>.summary.json, "
                            "or stdout after the rows without --out)")
    sweep.set_defaults(handler=_cmd_power_sweep)

    validate = sub.add_parser("validate", help="run the invariant suite on a configuration")
    add_common(validate)
    validate.set_defaults(handler=_cmd_validate)
    return parser


_EXIT_CODES = {ConfigError: 1, ParameterError: 1, OrderingError: 2, SingularityError: 3,
               ConvergenceError: 3}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))


def _require_geva_kosloff(cfg: RunConfig, command: str):
    if not isinstance(cfg.model, GevaKosloff):
        raise ConfigError(f"the {command} pipeline requires the geva-kosloff bath "
                          f"parametrization (bath.a, bath.q)")


def _report_values(report: PerformanceReport, count: int) -> tuple[dict, dict]:
    """Ledger and performance values, extensive ones scaled by the particle count."""
    n, merit = float(count), CYCLE_KINDS[report.kind].merit
    ledger = {name: value if name == "delta" else value * n
              for name, value in zip(_LEDGER_FIELDS, dataclasses.astuple(report.ledger))}
    figures = {
        merit: report.figure_of_merit,
        "power": report.power * n,
        "sigma": report.sigma * n,
        "tau": report.tau,
    }
    if report.cooling_rate is not None:
        figures["cooling_rate"] = report.cooling_rate * n
    for name, value in (*ledger.items(), *figures.items()):
        if name != merit and not math.isfinite(value):
            raise SingularityError(f"{name} overflows when scaled by output.particle_count")
    return ledger, figures


def _cmd_cycle(args, kind: str) -> int:
    cfg = load_run_config(args.config)
    configured = cycle_kind(cfg.spec).name
    if configured != kind:
        raise ConfigError(f"cycle.kind is {configured!r}; the {kind} command needs {kind!r}")
    _require_geva_kosloff(cfg, kind)
    report = cycle_performance(cfg.spec, cfg.model, cfg.regen, cfg.quad, cfg.mode)
    out_format = args.format or cfg.out_format
    ledger, figures = _report_values(report, cfg.particle_count)
    if out_format == "csv":
        values = {**ledger, **figures, "status": report.status}
        text = _csv_text(COLUMNS[kind], [[values[c] for c in COLUMNS[kind]]])
    else:
        if report.x_max == math.inf:  # the CSV row has no regime extents
            raise SingularityError("regime extent x_max overflows: the cycle's largest "
                                   "beta*omega product is past the float range")
        text = _json_text({
            "kind": report.kind,
            "statistics": report.statistics.value,
            "regime": report.regime.value,
            "status": report.status,
            "particle_count": cfg.particle_count,
            "ledger": ledger,
            "performance": figures,
            "timing": dataclasses.asdict(report.timing),
            "regime_extents": {
                "x_min": report.x_min,
                "x_max": report.x_max,
                "x_low_threshold": LOW_TEMP_THRESHOLD,
                "x_high_threshold": HIGH_TEMP_THRESHOLD,
            },
        })
    _emit(text, args.out)
    return 0


def _classify(q: float, x: float) -> str:
    gap = _LN2 - abs(q) * x
    if abs(gap) <= _ON_CURVE_TOL:
        return "on"
    return "above" if gap > 0.0 else "below"


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """``count`` >= 2 evenly spaced points; the last is ``hi`` exactly, not lo + (hi - lo)."""
    return [lo + (hi - lo) * i / (count - 1) for i in range(count - 1)] + [hi]


def _cmd_regime_map(args) -> int:
    if not (-1.0 < args.q_min < args.q_max < 0.0):
        raise ConfigError("require -1 < q-min < q-max < 0")
    if not (0.0 < args.x_min < args.x_max < math.inf):
        raise ConfigError("require 0 < x-min < x-max < inf")
    if args.grid < 2:
        raise ConfigError("grid must be at least 2")
    qs = _linspace(args.q_min, args.q_max, args.grid)
    xs = _linspace(args.x_min, args.x_max, args.grid)
    # each grid coordinate is spelled once, not once for every row it is in
    x_cells = [(x, "%.17g" % x) for x in xs]
    rows = [("%.17g" % q, x_text, conduction_ratio(q, x), _classify(q, x))
            for q in qs for x, x_text in x_cells]
    _emit(_csv_text(REGIME_MAP_COLUMNS, rows), args.out)
    return 0


def _parse_x_grid(raw: str):
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--x-grid: expected START:STOP:N, got {raw!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--x-grid: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"--x-grid: START and STOP must be finite, got {raw!r}")
    if count < 1:
        raise ConfigError("--x-grid: N must be at least 1")
    if count == 1:
        if start != stop:
            raise ConfigError("--x-grid: single-point grid requires START == STOP")
        return [start]
    return _linspace(start, stop, count)


def _sweep_template(cfg: RunConfig):
    spec = cfg.spec
    if not isinstance(spec, EngineSpec):
        raise ConfigError("power-sweep requires an engine configuration")
    return performance.SweepTemplate(
        beta2_ratio=spec.beta2 / spec.beta1,
        omega2_ratio=spec.omega2 / spec.omega1,
        alpha_h=spec.beta_h / spec.beta1,
        alpha_c=spec.beta_c / spec.beta2,
        gamma1=cfg.regen.gamma1,
        gamma2=cfg.regen.gamma2,
        q=cfg.model.q,
        a=cfg.model.a,
    )


def _cmd_power_sweep(args) -> int:
    cfg = load_run_config(args.config)
    _require_geva_kosloff(cfg, "power-sweep")
    out_format = args.format or cfg.out_format
    if out_format == "json" and args.summary_out is not None:
        raise ConfigError("--summary-out applies to csv output; the json document "
                          "holds the summary")
    template = _sweep_template(cfg)
    grid = _parse_x_grid(args.x_grid)
    result = performance.power_sweep(template, grid)
    summary = dataclasses.asdict(result.summary)
    if out_format == "json":
        _emit(_json_text({"records": [dataclasses.asdict(r) for r in result.records],
                          "summary": summary}), args.out)
        return 0
    columns = [f.name for f in dataclasses.fields(performance.SweepRecord)]
    _emit(_csv_text(columns, map(dataclasses.astuple, result.records)), args.out)
    default_summary = f"{args.out}.summary.json" if args.out else None
    try:
        _emit(_json_text(summary), args.summary_out or default_summary)
    except ConfigError:  # leave no rows file behind a failed run
        if args.out is not None:
            Path(args.out).unlink(missing_ok=True)
        raise
    return 0


def _deviation(name: str, tol: float, value: float, reference: float):
    dev = performance._relative_deviation(value, reference)
    return name, dev <= tol, f"relative deviation {dev:.3e}"


def _path_heat(stat: Statistics, omega_i: float, omega_f: float, beta_i: float,
               beta_f: float) -> float:
    """Heat along the 10^6-step straight path from (omega_i, beta_i) to (omega_f, beta_f)."""
    path = statistics.PathSpec(stat, lambda u: omega_i + (omega_f - omega_i) * u,
                               lambda u: beta_i + (beta_f - beta_i) * u, 10 ** 6)
    return statistics.integrate_path(path).heat


def _validation_checks(cfg: RunConfig):
    """(name, verdict, detail) of each check in report order; verdict None is a SKIP."""
    spec = cfg.spec
    kind = cycle_kind(spec)
    hot_stroke = kind.stroke("q_iso_hot")
    hot_t = 1.0 / getattr(spec, hot_stroke.fixed)
    cold_t = 1.0 / getattr(spec, kind.stroke("q_iso_cold").fixed)
    iso_omegas = getattr(spec, hot_stroke.start), getattr(spec, hot_stroke.end)
    # first-law closure: stroke-heat sum against the closed-form total work
    yield _deviation("first_law_closure", 1e-12, cycle_ledger(spec).ledger.w_tot,
                     work_closed_form(spec))

    # quadrature spot checks of both stroke-heat closed forms
    oracle = _path_heat(spec.stat, *iso_omegas, 1.0 / hot_t, 1.0 / hot_t)
    yield _deviation("isothermal_heat_oracle", 1e-8,
                     isothermal_heat(spec.stat, hot_t, *iso_omegas), oracle)
    oracle = _path_heat(spec.stat, spec.omega1, spec.omega1, 1.0 / hot_t, 1.0 / cold_t)
    yield _deviation("isochoric_heat_oracle", 1e-8,
                     isochoric_heat(spec.stat, spec.omega1, hot_t, cold_t), oracle)

    # detailed balance of the configured bath model, judged where its rate ratio and
    # the Boltzmann factor are finite and gamma_plus is normal (a subnormal one has
    # lost bits, and so has the ratio)
    try:
        gamma_plus, gamma_minus = rates(cfg.model, spec.beta_h, spec.omega1, spec.stat)
        ratio, reference = gamma_minus / gamma_plus, math.exp(spec.beta_h * spec.omega1)
    except (ParameterError, OverflowError, ZeroDivisionError):
        ratio = reference = math.inf
    if not (math.isfinite(ratio) and math.isfinite(reference)):
        yield ("detailed_balance", None,
               "skipped: the rates or exp(beta_h*omega1) leave the float range")
    elif gamma_plus < sys.float_info.min:
        yield ("detailed_balance", None,
               f"skipped: gamma_plus {gamma_plus:.3e} is subnormal, so the rate ratio is inexact")
    else:
        ulps = abs(ratio - reference) / math.ulp(reference)
        yield "detailed_balance", ulps <= 4.0, f"{ulps:.1f} ulp"

    if not isinstance(cfg.model, GevaKosloff):
        for name in ("power_tau_identity", "statistics_equivalence"):
            yield name, None, "skipped: requires geva-kosloff bath"
        return
    report = cycle_performance(spec, cfg.model, cfg.regen, cfg.quad, cfg.mode)
    yield _deviation("power_tau_identity", 1e-12, report.power * report.tau, abs(report.w_tot))
    mirrored = (dataclasses.replace(spec, stat=stat) for stat in Statistics)
    eq = performance.equivalence_report(*mirrored, cfg.model, cfg.regen, cfg.quad, Mode.EXACT)
    if eq.x_min >= LOW_TEMP_THRESHOLD:
        yield ("statistics_equivalence", not eq.exceeding,
               f"worst deviation {max(eq.deviations.values()):.3e} vs bound {eq.bound:.3e}")
    else:
        yield ("statistics_equivalence", None,
               f"skipped: x_min {eq.x_min:.3g} below low-temperature "
               f"threshold {LOW_TEMP_THRESHOLD:.3g}")


def _cmd_validate(args) -> int:
    lines, verdicts = [], []
    try:
        for name, ok, detail in _validation_checks(load_run_config(args.config)):
            verdicts.append("SKIP" if ok is None else "PASS" if ok else "FAIL")
            lines.append(f"{verdicts[-1]} {name} ({detail})\n")
    except tuple(_EXIT_CODES):  # the lines decided so far, then main's error line
        sys.stdout.write("".join(lines))
        raise
    lines.append(f"{verdicts.count('PASS')} passed, {verdicts.count('FAIL')} failed, "
                 f"{verdicts.count('SKIP')} skipped\n")
    text = "".join(lines)
    _emit(text, args.out)
    if args.out is not None:
        sys.stdout.write(text)
    return 3 if "FAIL" in verdicts else 0
