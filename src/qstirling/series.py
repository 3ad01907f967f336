"""Exponential-series integration of the stroke-time integrand on linear strokes.

On a stroke with x = A*u and x_s = B*u the stroke-time integrand
``1 / [e^{qx} (e^x - e^{x_s}) (1 -+ e^{-x_s})]`` expands, through
``1/(1 - e^{-|A-B|u})`` in j and ``1/(1 -+ e^{-Bu})`` in k, into terms
``e^{-lambda_jk u}`` that integrate exactly.  The (0, 0) term is the
low-temperature closed form; the term counts follow a priori from a tail
bound set against machine epsilon, so the sum is as accurate as double
precision allows.  Strokes whose series converges slowly (bath or
regenerator close to the medium, or small ``B*u``) are declined and left
to :mod:`qstirling.timing`'s other methods: the high-temperature form and
Gauss-Legendre, which take every declined stroke of the benchmark's pools,
and GK15 quadrature (:mod:`qstirling.quadrature`) for a range whose ends
lie more than about 100-fold apart, such as the rest of a stroke whose
high-temperature head below 2^-60/max(A, B) was split off.
"""

from __future__ import annotations

import math
import sys

from .statistics import Statistics

# a stroke needing more terms than this is left to timing's other methods
SERIES_TERM_BUDGET = 64

_EPS = sys.float_info.epsilon
# J >= ln(2/eps)/(|A-B| lo) and K >= ln(2/eps)/(B lo), both at least 1, so a
# stroke whose either decay is below this cannot fit the budget
_MIN_DECAY = math.log(2.0 / _EPS) / SERIES_TERM_BUDGET
# past e^{-708} the stroke's magnitude leaves the normal range; the quadrature,
# which scales it by a power of two, keeps it
_MAX_EXPONENT = -math.log(sys.float_info.min)
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def _two_product(x: float, y: float) -> tuple[float, float]:
    """``(p, e)`` with p = fl(x*y) and p + e = x*y exactly (Dekker)."""
    p = x * y
    t = _SPLIT * x
    x_hi = t - (t - x)
    x_lo = x - x_hi
    t = _SPLIT * y
    y_hi = t - (t - y)
    y_lo = y - y_hi
    return p, ((x_hi * y_hi - p) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo


def leading_exponential(q: float, a1: float, a2: float, b: float, lo: float) -> float:
    """``e^{-lambda00 lo}``, lambda00 = qA + max(A, B) with A = a1*a2; nan if a part overflowed.

    It carries a low-temperature stroke's magnitude.  Its exponent (tens to
    hundreds) is summed exactly from Dekker products: one rounding of
    x = A*lo alone would cost ~x/2 ulps of the duration.
    """
    p, e = _two_product(a1, a2)
    x_hi, x_err = _two_product(p, lo)
    x_rest = x_err + e * lo
    qx, qx_err = _two_product(q, x_hi)
    parts = [qx, qx_err, q * x_rest]
    parts += (x_hi, x_rest) if p > b else _two_product(b, lo)
    try:
        exponent = math.fsum(parts)
        parts.append(-exponent)
        return math.exp(-exponent) * (1.0 - math.fsum(parts))
    except (ValueError, OverflowError):  # a part overflowed: fsum met inf - inf
        return math.nan


def integrate_linear(stat: Statistics, b: float, dd: float, base: float, leading: float,
                     width: float, lo: float, hi: float) -> tuple[float, float, int] | None:
    """Integral of |rate denominator| over [lo, hi] for x = A*u, x_s = b*u and gap dd*u.

    The caller forms the stroke's leading decay rate ``base`` = lambda00,
    ``leading`` = e^{-lambda00 lo} (nan if :func:`leading_exponential`
    overflowed) and ``width`` = (1 - e^{-lambda00 (hi - lo)})/lambda00, so the
    (0, 0) term is T00 = leading*width.  The integrand is
    ``e^{-lambda00 u} sum_j e^{-j dd u} sum_k (+-1)^k e^{-kBu}``, the sign
    alternating for fermions, with ``lambda_jk = qA + max(A, B) + j dd + kB``.
    With r = e^{-dd lo} and s = e^{-B lo} the terms past J and K sum to at
    most ``(r^J + s^K)/((1-r)(1-s))`` times T00, and the value is at least
    T00 (bosons) or T00/(1+s) (fermions); J and K hold that ratio under
    machine epsilon.  Returns (value, error bound, J*K), or None when the
    stroke needs more than SERIES_TERM_BUDGET terms.
    """
    dl, bl = dd * lo, b * lo
    if not (dl >= _MIN_DECAY and bl >= _MIN_DECAY and 0.0 < base * lo < _MAX_EXPONENT):
        return None
    fermi = stat is Statistics.FERMIONIC
    r, s = math.exp(-dl), math.exp(-bl)
    one_r, one_s = -math.expm1(-dl), -math.expm1(-bl)
    # r^J and s^K each at most eps (1-r)(1-s) / (2w), w the fermion floor 1+s
    log_ratio = math.log((2.0 + 2.0 * s if fermi else 2.0) / _EPS / (one_r * one_s))
    n_j = max(1, math.ceil(log_ratio / dl))
    n_k = max(1, math.ceil(log_ratio / bl))
    if n_j * n_k > SERIES_TERM_BUDGET:
        return None
    if not leading > 0.0:  # nan where a Dekker split overflowed
        return None
    span = hi - lo
    r_powers = [math.exp(-j * dl) for j in range(n_j)]
    total = 0.0
    for k in range(n_k - 1, -1, -1):  # smallest terms first
        lam_k = base + k * b
        row = 0.0
        for j in range(n_j - 1, -1, -1):
            lam = lam_k + j * dd
            row += r_powers[j] * -math.expm1(-lam * span) / lam
        total += (-row if fermi and k % 2 else row) * math.exp(-k * bl)
    # the tail bound plus 8 eps of rounding on the absolute series
    bound = width * (r ** n_j + s ** n_k + 8.0 * _EPS) / (one_r * one_s)
    return leading * total, leading * bound, n_j * n_k
