"""Seeded inputs and the operation each workload times.

Inputs are plain numbers drawn from ``random.Random(seed)`` (and, for
``cli_cold``, INI files written from them).  Every op builds its own
spec, Geva-Kosloff bath and regenerator from those numbers, as a caller of
the library does.  Distributions follow ``tests/conftest.py`` (frequencies
and temperature ratios) and ``tests/test_relaxation.py`` (bath ``a`` and
``q``); regenerator slopes straddle the tests' 1.4/0.6.
"""

from __future__ import annotations

import math
import os
import random
from typing import NamedTuple

IN_PROCESS = ("exact_lowtemp", "exact_crossover", "closed_form_scan")
WORKLOADS = IN_PROCESS + ("cli_cold",)

# cycle x_min = smallest beta*omega product the cycle visits, log-uniform in [lo, hi)
X_RANGES = {
    "exact_lowtemp": (8.0, 40.0),
    "exact_crossover": (1e-3, 8.0),
    "closed_form_scan": (1e-3, 40.0),
    "cli_cold": (1e-3, 40.0),
}
# distinct points per run; the timed loop cycles through them
POOL_SIZE = {"exact_lowtemp": 1024, "exact_crossover": 1024, "closed_form_scan": 4096}
TINY_POOL_SIZE = 24

# rel_tol, abs_tol, max_subdivisions of the shipped configs
NUMERICS = (1e-10, 1e-300, 200)


class Point(NamedTuple):
    """One operating point as plain numbers.

    ``betas`` follow the spec field order: (beta_h, beta1, beta2, beta_c)
    for an engine, (beta1p, beta_h, beta_c, beta2p) for a fridge; ``slopes``
    are (gamma1, gamma2) or (b, bp).
    """

    kind: str
    stat: str
    x_min: float
    a: float
    q: float
    omega1: float
    omega2: float
    betas: tuple
    slopes: tuple


def draw_point(rng: random.Random, x_lo: float, x_hi: float, kind: str | None = None) -> Point:
    """Engine or fridge (50/50), bosonic or fermionic (50/50), with the given x_min range."""
    kind = kind or rng.choice(("engine", "fridge"))
    stat = rng.choice(("bosonic", "fermionic"))
    x_min = math.exp(rng.uniform(math.log(x_lo), math.log(x_hi)))
    a = rng.uniform(0.1, 5.0)
    q = rng.uniform(-0.99, -0.01)
    omega1 = rng.uniform(0.5, 2.0)
    omega2 = omega1 * rng.uniform(1.2, 3.0)
    if kind == "engine":
        gamma1, gamma2 = rng.uniform(1.1, 2.0), rng.uniform(0.3, 0.9)
        alpha_h, alpha_c = rng.uniform(0.5, 0.95), rng.uniform(1.05, 2.0)
        # engine x_min = min(beta_h, gamma2*beta1) * omega1
        beta1 = x_min / (min(alpha_h, gamma2) * omega1)
        beta2 = beta1 * rng.uniform(1.2, 3.0)
        betas = (alpha_h * beta1, beta1, beta2, alpha_c * beta2)
        return Point(kind, stat, x_min, a, q, omega1, omega2, betas, (gamma1, gamma2))
    b, bp = rng.uniform(1.1, 2.0), rng.uniform(0.3, 0.9)
    # fridge x_min = bp * beta1p * omega1 because bp < 1 < b
    beta1p = x_min / (bp * omega1)
    ratio = rng.uniform(1.5, 3.0)
    beta2p = beta1p * ratio
    beta_h = beta1p * rng.uniform(1.02, 1.0 + 0.45 * (ratio - 1.0))
    beta_c = rng.uniform(beta_h * 1.02, beta2p * 0.98)
    return Point(kind, stat, x_min, a, q, omega1, omega2,
                 (beta1p, beta_h, beta_c, beta2p), (b, bp))


def make_pool(workload: str, seed: int, tiny: bool = False) -> list[Point]:
    rng = random.Random(f"{workload}:{seed}")
    size = TINY_POOL_SIZE if tiny else POOL_SIZE[workload]
    x_lo, x_hi = X_RANGES[workload]
    return [draw_point(rng, x_lo, x_hi) for _ in range(size)]


def build(qs, p: Point):
    """(spec, bath model, regenerator) for one point, as a library user builds them."""
    stat = qs.Statistics(p.stat)
    model = qs.GevaKosloff(p.a, p.q)
    if p.kind == "engine":
        return (qs.EngineSpec(stat, p.omega1, p.omega2, *p.betas), model,
                qs.LinearEngineRegenerator(*p.slopes))
    return (qs.FridgeSpec(stat, p.omega1, p.omega2, *p.betas), model,
            qs.LinearFridgeRegenerator(*p.slopes))


def performance_fn(qs, kind: str):
    return qs.engine_performance if kind == "engine" else qs.fridge_performance


def exact_op(qs, p: Point):
    """One EXACT operating point: exact ledger plus GK15 stroke times."""
    spec, model, regen = build(qs, p)
    cfg = qs.QuadratureConfig(*NUMERICS)
    return performance_fn(qs, p.kind)(spec, model, regen, cfg, qs.Mode.EXACT)


def closed_form_op(qs, p: Point):
    """Exact ledger, then the LOW_TEMP point and (engine only) the HIGH_TEMP point."""
    spec, model, regen = build(qs, p)
    if p.kind == "engine":
        cycle = qs.engine_ledger(spec)
        points = (qs.engine_performance(spec, model, regen, mode=qs.Mode.LOW_TEMP),
                  qs.engine_performance(spec, model, regen, mode=qs.Mode.HIGH_TEMP))
    else:
        cycle = qs.fridge_ledger(spec)
        points = (qs.fridge_performance(spec, model, regen, mode=qs.Mode.LOW_TEMP),)
    return cycle, points


OPS = {"exact_lowtemp": exact_op, "exact_crossover": exact_op,
       "closed_form_scan": closed_form_op}


# -- cli_cold ------------------------------------------------------------------

# every valid (command, regime_mode) pair; each runs once as csv and once as json
CLI_CYCLE_MODES = (("engine", "exact"), ("engine", "low_temp"), ("engine", "high_temp"),
                   ("fridge", "exact"), ("fridge", "low_temp"))
CLI_ROTATIONS = 8           # distinct INI sets written in set-up; more rotations reuse them
SWEEP_ARGS = ("power-sweep", "--config", "configs/power_sweep_reference.ini",
              "--x-grid", "0.5:10:96")
REGIME_MAP_ARGS = ("regime-map", "--q-min", "-0.9", "--q-max", "-0.1", "--x-min", "0.5",
                   "--x-max", "12", "--grid", "200", "--threads", "2")
VALIDATE_ARGS = ("validate", "--config", "configs/engine_lowtemp.ini")


class CliOp(NamedTuple):
    """One ``python -m qstirling`` invocation and what it must produce."""

    label: str                 # command[/regime_mode/format]
    argv: tuple
    expect_exit: int
    point: Point | None = None
    mode: str | None = None
    fmt: str | None = None


def _ini_text(p: Point, mode: str, fmt: str) -> str:
    stat_line = f"[working_medium]\nstatistics = {p.stat}\n\n"
    if p.kind == "engine":
        names, slope_names = ("beta_h", "beta1", "beta2", "beta_c"), ("gamma1", "gamma2")
    else:
        names, slope_names = ("beta1p", "beta_h", "beta_c", "beta2p"), ("b", "bp")
    cycle = "".join(f"{n} = {v!r}\n" for n, v in zip(names, p.betas))
    regen = "".join(f"{n} = {v!r}\n" for n, v in zip(slope_names, p.slopes))
    rel_tol, abs_tol, max_sub = NUMERICS
    return (stat_line
            + f"[cycle]\nkind = {p.kind}\nomega1 = {p.omega1!r}\nomega2 = {p.omega2!r}\n{cycle}\n"
            + f"[bath]\na = {p.a!r}\nq = {p.q!r}\n\n"
            + f"[regenerator]\n{regen}\n"
            + f"[numerics]\nrel_tol = {rel_tol!r}\nabs_tol = {abs_tol!r}\n"
            + f"max_subdivisions = {max_sub}\nregime_mode = {mode}\n\n"
            + f"[output]\nformat = {fmt}\nparticle_count = 1\n")


def write_cli_inputs(workdir: str, seed: int, rotations: int = CLI_ROTATIONS) -> list[list[CliOp]]:
    """Write the seeded INI files and return the op list of each rotation.

    A rotation runs every engine/fridge regime mode in csv and json on fresh
    seeded points, then power-sweep, regime-map, validate and one config
    that breaks the engine ordering chain (beta1 and beta2 swapped).
    """
    rng = random.Random(f"cli_cold:{seed}")
    x_lo, x_hi = X_RANGES["cli_cold"]
    os.makedirs(workdir, exist_ok=True)
    plan = []
    for r in range(rotations):
        ops = []
        for kind, mode in CLI_CYCLE_MODES:
            for fmt in ("csv", "json"):
                p = draw_point(rng, x_lo, x_hi, kind)
                path = os.path.join(workdir, f"r{r}_{kind}_{mode}_{fmt}.ini")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(_ini_text(p, mode, fmt))
                ops.append(CliOp(f"{kind}/{mode}/{fmt}", (kind, "--config", path), 0,
                                 p, mode, fmt))
        bad = draw_point(rng, x_lo, x_hi, "engine")
        beta_h, beta1, beta2, beta_c = bad.betas
        bad = bad._replace(betas=(beta_h, beta2, beta1, beta_c))
        path = os.path.join(workdir, f"r{r}_ordering_violation.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_ini_text(bad, "exact", "csv"))
        ops.append(CliOp("power-sweep", SWEEP_ARGS, 0))
        ops.append(CliOp("regime-map", REGIME_MAP_ARGS, 0))
        ops.append(CliOp("validate", VALIDATE_ARGS, 0))
        ops.append(CliOp("ordering-violation", ("engine", "--config", path), 2, bad, "exact", "csv"))
        plan.append(ops)
    return plan
