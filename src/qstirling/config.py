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


class _Section:
    """Typed accessors over one section with section.key error messages.

    An optional section that is absent reads as empty, so every key takes
    its default.
    """

    def __init__(self, parser: configparser.ConfigParser, name: str, required: bool = True):
        if required and not parser.has_section(name):
            raise ConfigError(f"missing section [{name}]")
        self._name = name
        self._section = parser[name] if parser.has_section(name) else {}

    def has(self, key: str) -> bool:
        return key in self._section

    def text(self, key: str, default=None) -> str:
        if key not in self._section:
            if default is None:
                raise ConfigError(f"missing key {self._name}.{key}")
            return default
        return self._section[key].strip()

    def number(self, key: str, default: float | None = None) -> float:
        return self._convert(key, default, float, "number")

    def integer(self, key: str, default: int | None = None) -> int:
        return self._convert(key, default, int, "integer")

    def _convert(self, key: str, default, convert, what: str):
        raw = self.text(key, default)
        if key not in self._section:
            return raw
        try:
            return convert(raw)
        except ValueError as exc:
            raise ConfigError(f"{self._name}.{key}: invalid {what} {raw!r}") from exc


def _exactly_one(section: _Section, name: str, first: tuple, second: tuple):
    has_first = all(section.has(k) for k in first)
    has_second = all(section.has(k) for k in second)
    any_first = any(section.has(k) for k in first)
    any_second = any(section.has(k) for k in second)
    if any_first and any_second:
        raise ConfigError(f"{name}: give either {'/'.join(first)} or "
                          f"{'/'.join(second)}, not both")
    if has_first:
        return "first"
    if has_second:
        return "second"
    raise ConfigError(f"{name}: requires either {'/'.join(first)} or {'/'.join(second)}")


def _statistics(raw: str) -> Statistics:
    try:
        return Statistics(raw.lower())
    except ValueError as exc:
        raise ConfigError(
            f"working_medium.statistics: expected bosonic or fermionic, got {raw!r}") from exc


def load_run_config(path: str) -> RunConfig:
    """Parse and resolve a configuration file into pipeline-ready objects."""
    parser = _read_ini(path)
    cycle = _Section(parser, "cycle")
    kind = cycle.text("kind").lower()
    if kind not in CYCLE_KINDS:
        raise ConfigError(f"cycle.kind: expected engine or fridge, got {kind!r}")
    table = CYCLE_KINDS[kind]
    _check_keys(parser, table)
    medium = _Section(parser, "working_medium")
    bath = _Section(parser, "bath")
    regen_section = _Section(parser, "regenerator")

    stat = _statistics(medium.text("statistics"))
    omega1 = cycle.number("omega1")
    omega2 = cycle.number("omega2")

    try:
        # medium inverse temperatures of the hot and cold isotherms
        # (beta1/beta2 or beta1p/beta2p); the alpha ratios scale them
        hot = table.stroke("q_iso_hot").fixed
        cold = table.stroke("q_iso_cold").fixed
        betas = {hot: cycle.number(hot), cold: cycle.number(cold)}
        which = _exactly_one(cycle, "cycle", ("beta_h", "beta_c"), ("alpha_h", "alpha_c"))
        if which == "first":
            betas["beta_h"] = cycle.number("beta_h")
            betas["beta_c"] = cycle.number("beta_c")
        else:
            betas["beta_h"] = cycle.number("alpha_h") * betas[hot]
            betas["beta_c"] = cycle.number("alpha_c") * betas[cold]
        spec = table.spec(stat, omega1, omega2, **betas)
        regen = _build(table.regen, "regenerator",
                       *(regen_section.number(f.name) for f in fields(table.regen)))
    except ParameterError as exc:
        raise ConfigError(f"cycle: {exc}") from exc

    which_bath = _exactly_one(bath, "bath", ("a", "q"), ("rho0", "m"))
    if which_bath == "first":
        model = _build(GevaKosloff, "bath", bath.number("a"), bath.number("q"))
    else:
        model = _build(ThermalField, "bath", bath.number("rho0"), bath.number("m"))

    numerics = _Section(parser, "numerics", required=False)
    try:
        quad = QuadratureConfig(
            rel_tol=numerics.number("rel_tol", QuadratureConfig.rel_tol),
            abs_tol=numerics.number("abs_tol", QuadratureConfig.abs_tol),
            max_subdivisions=numerics.integer("max_subdivisions",
                                              QuadratureConfig.max_subdivisions),
        )
    except ParameterError as exc:
        raise ConfigError(f"numerics: {exc}") from exc
    mode_raw = numerics.text("regime_mode", "exact").lower()
    try:
        mode = Mode(mode_raw)
    except ValueError as exc:
        raise ConfigError(
            f"numerics.regime_mode: expected exact, low_temp or high_temp, "
            f"got {mode_raw!r}") from exc

    output = _Section(parser, "output", required=False)
    out_format = output.text("format", "csv").lower()
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format: expected csv or json, got {out_format!r}")
    particle_count = output.integer("particle_count", 1)
    if particle_count < 1:
        raise ConfigError("output.particle_count: must be at least 1")
    if particle_count > sys.float_info.max:  # extensive outputs are scaled by float(count)
        raise ConfigError(f"output.particle_count: must not exceed {sys.float_info.max!r}")

    return RunConfig(spec, model, regen, quad, mode, out_format, particle_count)


def _build(factory, section: str, *args):
    try:
        return factory(*args)
    except ParameterError as exc:
        raise ConfigError(f"{section}: {exc}") from exc
