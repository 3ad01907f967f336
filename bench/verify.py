"""Correctness checks on every benchmark output, run outside the timed loop.

In-process ops are checked against invariants (first-law closure against
the two-isotherm closed form, ``power*tau == |w_tot|``, positive finite
``tau``, no non-finite field under ``status = ok``); a seeded sample of
exact points is also checked against an independent stroke-time oracle.
CLI ops are checked for exit code, tracebacks and output content.
"""

from __future__ import annotations

import json
import math
import re
import warnings

# first-law closure: |w_ledger - w_closed| relative to the summed magnitudes
# of every term either side adds up (four stroke heats, four closed-form log
# terms).  Near x ~ 1e-3 those terms reach T*ln2 ~ 1e3 while w_tot ~ 1e-3,
# so rounding alone costs ~1e-11 of |w_tot|; on this scale it stays ~10 eps.
CLOSURE_TOL = 1e-13
POWER_TAU_TOL = 1e-12
ORACLE_POINTS = 6
TINY_ORACLE_POINTS = 2


def rel_err(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


class Verdict:
    """Largest error seen per check, the points checked and every failure."""

    def __init__(self):
        self.max_err: dict[str, float] = {}
        self.failures: list[str] = []
        self.oracle_points = 0

    def record(self, check: str, err: float, tol: float, where: str) -> bool:
        if math.isnan(err):
            err = math.inf
        self.max_err[check] = max(self.max_err.get(check, 0.0), err)
        if err > tol:
            self.failures.append(f"{where}: {check} error {err:.3e} exceeds {tol:.0e}")
            return False
        return True

    def fail(self, where: str, reason: str) -> bool:
        self.failures.append(f"{where}: {reason}")
        return False

    @property
    def max_rel_err(self) -> float:
        return max(self.max_err.values(), default=0.0)


def _report_fields(report) -> dict[str, float]:
    ledger = report.ledger
    fields = {name: getattr(ledger, name) for name in
              ("q_iso_hot", "q_iso_cold", "q_isochore_low", "q_isochore_high",
               "delta_q", "q_h", "q_c", "w_tot")}
    fields.update(figure_of_merit=report.figure_of_merit, power=report.power,
                  sigma=report.sigma, tau=report.tau, t1=report.timing.t1,
                  t2=report.timing.t2, t3=report.timing.t3, t4=report.timing.t4)
    if report.cooling_rate is not None:
        fields["cooling_rate"] = report.cooling_rate
    return fields


def check_report(v: Verdict, report, where: str) -> bool:
    """Invariants every PerformanceReport must satisfy, in any Mode."""
    ok = True
    if not (math.isfinite(report.tau) and report.tau > 0.0):
        ok = v.fail(where, f"tau = {report.tau!r} is not finite and positive")
    if report.status == "ok":
        bad = [k for k, x in _report_fields(report).items() if not math.isfinite(x)]
        if bad:
            ok = v.fail(where, f"non-finite {', '.join(bad)} with status ok")
    err = rel_err(report.power * report.tau, abs(report.w_tot))
    return v.record("power_tau", err, POWER_TAU_TOL, where) and ok


def _log_weight(bosonic: bool, x: float) -> float:
    # -ln(1 - e^{-x}) bosonic, ln(1 + e^{-x}) fermionic
    return -math.log(-math.expm1(-x)) if bosonic else math.log1p(math.exp(-x))


def check_closure(v: Verdict, qs, spec, ledger, where: str) -> bool:
    if isinstance(spec, qs.EngineSpec):
        closed, betas = qs.engine_work_closed_form(spec), (spec.beta1, spec.beta2)
    else:
        closed, betas = qs.fridge_work_closed_form(spec), (spec.beta1p, spec.beta2p)
    bosonic = spec.stat.value == "bosonic"
    scale = (abs(ledger.q_iso_hot) + abs(ledger.q_iso_cold)
             + abs(ledger.q_isochore_low) + abs(ledger.q_isochore_high)
             + sum(abs(_log_weight(bosonic, beta * omega)) / beta
                   for beta in betas for omega in (spec.omega1, spec.omega2)))
    err = abs(ledger.w_tot - closed) / scale if scale > 0.0 else abs(ledger.w_tot - closed)
    return v.record("first_law_closure", err, CLOSURE_TOL, where)


def check_exact(v: Verdict, qs, build, point, report, where: str) -> bool:
    spec, _, _ = build(qs, point)
    ok = check_report(v, report, where)
    return check_closure(v, qs, spec, report.ledger, where) and ok


def check_closed_form(v: Verdict, qs, build, point, result, where: str) -> bool:
    spec, _, _ = build(qs, point)
    cycle, reports = result
    ok = check_closure(v, qs, spec, cycle.ledger, where)
    if cycle.status == "ok" and not all(math.isfinite(getattr(cycle.ledger, f))
                                        for f in cycle.ledger.__dataclass_fields__):
        ok = v.fail(where, "non-finite ledger field with status ok")
    for report in reports:
        ok = check_report(v, report, f"{where} {report.regime.value}") and ok
    return ok


# -- independent stroke-time oracle ------------------------------------------------

def oracle_stroke_times(point) -> list[float]:
    """The four stroke durations of the ``timing`` module docstring formula.

    The integrand is evaluated literally, ``1/[e^{q*beta*omega} (e^{beta*omega}
    - e^{beta_s*omega}) (1 +- e^{-beta_s*omega})]``, in 30-digit mpmath (no
    log-space rewriting), scaled to O(1) and integrated by QUADPACK.
    """
    import mpmath
    from scipy.integrate import IntegrationWarning, quad

    sign = -1 if point.stat == "bosonic" else 1
    q, a = mpmath.mpf(point.q), point.a

    def denominator(beta, beta_s, omega):
        return (mpmath.exp(q * beta * omega)
                * (mpmath.exp(beta * omega) - mpmath.exp(beta_s * omega))
                * (1 + sign * mpmath.exp(-beta_s * omega)))

    def integral(f, lo, hi):
        scale = max(abs(f(mpmath.mpf(lo))), abs(f(mpmath.mpf(hi))))
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            value, _ = quad(lambda t: float(f(mpmath.mpf(t)) / scale), lo, hi,
                            epsabs=0.0, epsrel=1e-12, limit=500)
        return value * scale

    def isotherm(beta, beta_s, omega_i, omega_f):
        beta, beta_s = mpmath.mpf(beta), mpmath.mpf(beta_s)
        f = lambda w: 1 / denominator(beta, beta_s, w)
        return float(beta_s * integral(f, omega_i, omega_f) / (2 * a))

    def isochore(slope, omega, beta_i, beta_f):
        omega = mpmath.mpf(omega)
        f = lambda b: 1 / denominator(slope * b, b, omega)
        return float(omega * integral(f, beta_i, beta_f) / (2 * a))

    w1, w2 = point.omega1, point.omega2
    with mpmath.workdps(30):
        if point.kind == "engine":
            beta_h, beta1, beta2, beta_c = point.betas
            gamma1, gamma2 = point.slopes
            return [isotherm(beta_h, beta1, w2, w1), isochore(gamma1, w1, beta1, beta2),
                    isotherm(beta_c, beta2, w1, w2), isochore(gamma2, w2, beta2, beta1)]
        beta1p, beta_h, beta_c, beta2p = point.betas
        b, bp = point.slopes
        return [isotherm(beta_c, beta2p, w2, w1), isochore(bp, w1, beta2p, beta1p),
                isotherm(beta_h, beta1p, w1, w2), isochore(b, w2, beta1p, beta2p)]


def check_oracle(v: Verdict, point, report, rel_tol: float, where: str) -> bool:
    try:
        reference = oracle_stroke_times(point)
    except Exception as exc:  # the oracle itself failed: report, do not guess
        return v.fail(where, f"oracle failed: {type(exc).__name__}: {exc}")
    v.oracle_points += 1
    ours = (report.timing.t1, report.timing.t2, report.timing.t3, report.timing.t4)
    ok = True
    for k, (mine, ref) in enumerate(zip(ours, reference), start=1):
        ok = v.record("oracle_stroke_time", rel_err(mine, ref), rel_tol, f"{where} t{k}") and ok
    return ok


# -- cli_cold outputs -----------------------------------------------------------

_ENGINE_CSV = ("q_iso_hot", "q_iso_cold", "q_isochore_low", "q_isochore_high", "delta_q",
               "delta", "q_h", "q_c", "w_tot", "eta", "power", "sigma", "tau", "status")
_FRIDGE_CSV = ("q_iso_hot", "q_iso_cold", "q_isochore_low", "q_isochore_high", "delta_q",
               "delta", "q_h", "q_c", "w_tot", "epsilon", "power", "cooling_rate", "tau",
               "status")
_LEDGER = ("q_iso_hot", "q_iso_cold", "q_isochore_low", "q_isochore_high", "delta_q",
           "delta", "q_h", "q_c", "w_tot")
_VALIDATE_SUMMARY = re.compile(r"^(\d+) passed, (\d+) failed, (\d+) skipped$")


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float) and a != a and b != b)


def expected_cycle_fields(report) -> dict:
    """The values the CLI must write for ``report`` (particle_count = 1)."""
    led = report.ledger
    fields = {name: getattr(led, name) for name in _LEDGER}
    merit = "eta" if report.kind == "engine" else "epsilon"
    fields.update({merit: report.figure_of_merit, "power": report.power, "sigma": report.sigma,
                   "tau": report.tau, "status": report.status,
                   "t1": report.timing.t1, "t2": report.timing.t2,
                   "t3": report.timing.t3, "t4": report.timing.t4})
    if report.cooling_rate is not None:
        fields["cooling_rate"] = report.cooling_rate
    return fields


def parse_cycle_output(text: str, kind: str, fmt: str) -> dict:
    if fmt == "json":
        payload = json.loads(text)
        fields = dict(payload["ledger"])
        fields.update(payload["performance"])
        fields.update({k: payload["timing"][k] for k in ("t1", "t2", "t3", "t4")})
        fields["status"] = payload["status"]
        return fields
    header, row, *rest = text.split("\n")
    columns = _ENGINE_CSV if kind == "engine" else _FRIDGE_CSV
    if tuple(header.split(",")) != columns or rest != [""]:
        raise ValueError(f"unexpected csv layout: {header!r}")
    fields = {}
    for name, raw in zip(columns, row.split(",")):
        fields[name] = raw if name == "status" else int(raw) if name == "delta" else float(raw)
    return fields


def check_cycle_output(v: Verdict, text: str, op, expected: dict, where: str) -> bool:
    try:
        got = parse_cycle_output(text, op.point.kind, op.fmt)
    except (ValueError, KeyError) as exc:
        return v.fail(where, f"unparseable output: {exc}")
    # csv completeness is checked by its header; json must carry every field
    missing = [k for k in expected if k not in got] if op.fmt == "json" else []
    wrong = [k for k, x in got.items() if k not in expected or not _same(x, expected[k])]
    if wrong or missing:
        return v.fail(where, f"fields differ from the library result: {wrong + missing}")
    if got["status"] == "ok":
        bad = [k for k, x in got.items() if isinstance(x, float) and not math.isfinite(x)]
        if bad:
            return v.fail(where, f"non-finite {bad} with status ok")
    return True


def check_regime_map(v: Verdict, qs, text: str, grid: int, where: str) -> bool:
    lines = text.split("\n")
    if lines[0] != "q,x,l_r,region" or lines[-1] != "" or len(lines) != grid * grid + 2:
        return v.fail(where, f"expected header and {grid * grid} rows, got {len(lines) - 2}")
    qs_seen, xs_seen = set(), set()
    for line in lines[1:-1]:
        q_raw, x_raw, l_raw, region = line.split(",")
        q, x, l_r = float(q_raw), float(x_raw), float(l_raw)
        qs_seen.add(q)
        xs_seen.add(x)
        if l_r != qs.conduction_ratio(q, x):
            return v.fail(where, f"l_r at q={q!r}, x={x!r} differs from conduction_ratio")
        gap = l_r - 1.0
        expected = "on" if abs(gap) < 1e-9 else ("above" if gap > 0.0 else "below")
        if region != expected and not (abs(gap) < 1e-9 and region in ("above", "below")):
            return v.fail(where, f"region {region!r} at q={q!r}, x={x!r} but l_r = {l_r!r}")
    if len(qs_seen) != grid or len(xs_seen) != grid:
        return v.fail(where, "grid is not the full q-by-x product")
    return True


def check_validate(v: Verdict, text: str, where: str) -> bool:
    last = text.rstrip("\n").split("\n")[-1]
    match = _VALIDATE_SUMMARY.match(last)
    if not match or match.group(2) != "0" or match.group(1) == "0":
        return v.fail(where, f"validate summary line {last!r}")
    return True
