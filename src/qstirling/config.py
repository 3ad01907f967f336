"""Run-configuration parsing: INI sections with key = value lines.

Unknown sections or keys are hard errors so typos fail fast.  Temperatures
may be given either as absolute inverse temperatures (beta_h, beta_c) or as
the ratio parameters alpha_h, alpha_c natural for sweeps; supplying both
is an error.
"""

from __future__ import annotations

import configparser
import sys
from dataclasses import dataclass, fields

from .cycles import CYCLE_KINDS, CycleKind, EngineSpec, FridgeSpec, Mode
from .errors import ConfigError, ParameterError
from .quadrature import QuadratureConfig
from .relaxation import GevaKosloff, ThermalField
from .statistics import Statistics
from .timing import LinearEngineRegenerator, LinearFridgeRegenerator

# [cycle] also takes the chosen kind's spec fields but stat, and [regenerator]
# its regenerator fields (see _check_keys)
_SCHEMA = {
    "working_medium": {"statistics"},
    "cycle": {"kind", "alpha_h", "alpha_c"},
    "bath": {"a", "q", "rho0", "m"},
    "regenerator": set(),
    "numerics": {"rel_tol", "abs_tol", "max_subdivisions", "regime_mode"},
    "output": {"format", "particle_count"},
}


@dataclass
class RunConfig:
    """Fully resolved configuration ready for the pipelines."""

    spec: EngineSpec | FridgeSpec
    model: GevaKosloff | ThermalField
    regen: LinearEngineRegenerator | LinearFridgeRegenerator
    quad: QuadratureConfig
    mode: Mode
    out_format: str
    particle_count: int


def _read_ini(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file: {exc}") from exc
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
    return parser


def _check_keys(parser: configparser.ConfigParser, kind: CycleKind):
    own = {"cycle": {f.name for f in fields(kind.spec)} - {"stat"},
           "regenerator": {f.name for f in fields(kind.regen)}}
    for section in parser.sections():
        for key in parser[section]:
            if key not in _SCHEMA[section] and key not in own.get(section, ()):
                raise ConfigError(f"unknown key {section}.{key}")


def _section(parser: configparser.ConfigParser, name: str, required: bool = True):
    """The section ``name``; an optional one that is absent reads as empty.

    Every key read from an optional section therefore needs a default.
    """
    if parser.has_section(name):
        return parser[name]
    if required:
        raise ConfigError(f"missing section [{name}]")
    return {}


def _get(section, key: str, convert=str, default=None):
    """``convert`` of the stripped value of ``section.key``, or ``default`` if it is absent."""
    if key not in section:
        if default is None:
            raise ConfigError(f"missing key {section.name}.{key}")
        return default
    raw = section[key].strip()
    try:
        return convert(raw)
    except ValueError as exc:
        what = "integer" if convert is int else "number"
        raise ConfigError(f"{section.name}.{key}: invalid {what} {raw!r}") from exc


def _exactly_one(section, first: tuple, second: tuple) -> bool:
    """True if ``section`` gives all keys of ``first``, False if all of ``second``."""
    options = f"{'/'.join(first)} or {'/'.join(second)}"
    given_first, given_second = ([key in section for key in keys] for keys in (first, second))
    if any(given_first) and any(given_second):
        raise ConfigError(f"{section.name}: give either {options}, not both")
    if all(given_first) or all(given_second):
        return all(given_first)
    raise ConfigError(f"{section.name}: requires either {options}")


def _statistics(raw: str) -> Statistics:
    try:
        return Statistics(raw.lower())
    except ValueError as exc:
        raise ConfigError(
            f"working_medium.statistics: expected bosonic or fermionic, got {raw!r}") from exc


def load_run_config(path: str) -> RunConfig:
    """Parse and resolve a configuration file into pipeline-ready objects."""
    parser = _read_ini(path)
    cycle = _section(parser, "cycle")
    kind = _get(cycle, "kind").lower()
    if kind not in CYCLE_KINDS:
        raise ConfigError(f"cycle.kind: expected engine or fridge, got {kind!r}")
    table = CYCLE_KINDS[kind]
    _check_keys(parser, table)
    medium = _section(parser, "working_medium")
    bath = _section(parser, "bath")
    regen_section = _section(parser, "regenerator")

    stat = _statistics(_get(medium, "statistics"))
    omega1 = _get(cycle, "omega1", float)
    omega2 = _get(cycle, "omega2", float)

    # medium inverse temperatures of the hot and cold isotherms
    # (beta1/beta2 or beta1p/beta2p); the alpha ratios scale them
    hot = table.stroke("q_iso_hot").fixed
    cold = table.stroke("q_iso_cold").fixed
    betas = {hot: _get(cycle, hot, float), cold: _get(cycle, cold, float)}
    if _exactly_one(cycle, ("beta_h", "beta_c"), ("alpha_h", "alpha_c")):
        betas["beta_h"] = _get(cycle, "beta_h", float)
        betas["beta_c"] = _get(cycle, "beta_c", float)
    else:
        betas["beta_h"] = _get(cycle, "alpha_h", float) * betas[hot]
        betas["beta_c"] = _get(cycle, "alpha_c", float) * betas[cold]
    spec = _build(table.spec, "cycle", stat, omega1, omega2, **betas)
    regen = _build(table.regen, "regenerator",
                   *(_get(regen_section, f.name, float) for f in fields(table.regen)))

    factory = GevaKosloff if _exactly_one(bath, ("a", "q"), ("rho0", "m")) else ThermalField
    model = _build(factory, "bath", *(_get(bath, f.name, float) for f in fields(factory)))

    numerics = _section(parser, "numerics", required=False)
    quad = _build(QuadratureConfig, "numerics",
                  _get(numerics, "rel_tol", float, QuadratureConfig.rel_tol),
                  _get(numerics, "abs_tol", float, QuadratureConfig.abs_tol),
                  _get(numerics, "max_subdivisions", int, QuadratureConfig.max_subdivisions))
    mode_raw = _get(numerics, "regime_mode", default="exact").lower()
    try:
        mode = Mode(mode_raw)
    except ValueError as exc:
        raise ConfigError(
            f"numerics.regime_mode: expected exact, low_temp or high_temp, "
            f"got {mode_raw!r}") from exc

    output = _section(parser, "output", required=False)
    out_format = _get(output, "format", default="csv").lower()
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format: expected csv or json, got {out_format!r}")
    particle_count = _get(output, "particle_count", int, 1)
    if particle_count < 1:
        raise ConfigError("output.particle_count: must be at least 1")
    if particle_count > sys.float_info.max:  # extensive outputs are scaled by float(count)
        raise ConfigError(f"output.particle_count: must not exceed {sys.float_info.max!r}")

    return RunConfig(spec, model, regen, quad, mode, out_format, particle_count)


def _build(factory, section: str, *args, **kwargs):
    try:
        return factory(*args, **kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{section}: {exc}") from exc
