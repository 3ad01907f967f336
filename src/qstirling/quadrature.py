"""Globally adaptive 15-point Gauss-Kronrod integration on finite intervals."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import ConvergenceError, ParameterError, require_positive

# 15-point Kronrod extension of 7-point Gauss-Legendre: positive abscissae
# (centre node handled separately), Kronrod weights, embedded Gauss weights.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.02293532201052922,
    0.06309209262997855,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
)
_WGK_CENTRE = 0.2094821410847278
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
)
_WG_CENTRE = 0.4179591836734694

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision budget for the adaptive integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self):
        require_positive({"rel_tol": self.rel_tol, "abs_tol": self.abs_tol})
        if self.max_subdivisions < 1:
            raise ParameterError("max_subdivisions must be at least 1")


@dataclass(slots=True)
class QuadratureResult:
    value: float
    error_estimate: float
    panels: int


def _kronrod_panel(f, a: float, b: float) -> tuple[float, float]:
    """One GK15 evaluation on [a, b]; returns (integral, error estimate)."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(centre)
    resk = _WGK_CENTRE * fc
    resg = _WG_CENTRE * fc
    resabs = _WGK_CENTRE * abs(fc)
    values = []
    for j in range(7):
        f1 = f(centre - half * _XGK[j])
        f2 = f(centre + half * _XGK[j])
        values.append((f1, f2))
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    mean = 0.5 * resk
    resasc = _WGK_CENTRE * abs(fc - mean)
    for j in range(7):
        resasc += _WGK[j] * (abs(values[j][0] - mean) + abs(values[j][1] - mean))
    width = abs(half)
    resabs *= width
    resasc *= width
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    # round-off floor as in QUADPACK
    err = max(err, 50.0 * _EPS * resabs)
    return resk * half, err


def integrate(f, a: float, b: float, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Integrate f on [a, b] (either orientation) to the configured tolerance.

    Bisects the panel with the largest error estimate until the summed
    estimate drops below ``max(rel_tol*|integral|, abs_tol)`` or the
    subdivision budget runs out, in which case a :class:`ConvergenceError`
    names the achieved error, absolute and relative to the integral.  A
    panel whose value or estimate is not finite (the integrand overflowed at
    a node) is bisected before any other, so an isolated overflow drops out;
    if the sum is still not finite when the budget runs out, the error says
    so.  A non-finite result is never returned.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    value, err = _kronrod_panel(f, a, b)
    total, total_err = value, err
    heap = [(_priority(value, err), a, b, value, err)]
    splits = 0
    while True:
        finite = math.isfinite(total) and math.isfinite(total_err)
        if finite and total_err <= max(cfg.rel_tol * abs(total), cfg.abs_tol):
            return QuadratureResult(total, total_err, splits + 1)
        if splits >= cfg.max_subdivisions:
            # relative to the integral, the error reads the same in any units f is scaled by
            state = (f"({total_err / abs(total) if total else math.inf:.1e} relative) still "
                     "above tolerance" if finite else "is not finite")
            raise ConvergenceError(
                f"quadrature error {total_err:.3e} {state} after {splits} subdivisions")
        _, pa, pb, pv, pe = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid == pa or mid == pb:
            # interval already at floating-point resolution
            state = "" if finite else f" and quadrature error {total_err:.3e} is not finite"
            raise ConvergenceError(
                f"interval [{pa!r}, {pb!r}] cannot be subdivided further{state}")
        v1, e1 = _kronrod_panel(f, pa, mid)
        v2, e2 = _kronrod_panel(f, mid, pb)
        heapq.heappush(heap, (_priority(v1, e1), pa, mid, v1, e1))
        heapq.heappush(heap, (_priority(v2, e2), mid, pb, v2, e2))
        if finite:
            total += (v1 + v2) - pv
            total_err += (e1 + e2) - pe
        else:
            # inf - inf left no usable running sum: add the leaves up afresh
            total = sum(panel[3] for panel in heap)
            total_err = sum(panel[4] for panel in heap)
        splits += 1


def _priority(value: float, err: float) -> float:
    """Heap key: the largest estimate first, a non-finite panel before all others."""
    return -err if math.isfinite(value) and math.isfinite(err) else -math.inf
