"""Single-oscillator occupation statistics and path thermodynamics.

Natural units hbar = k_B = 1 throughout: frequencies, temperatures and
energies are plain positive floats, and every formula depends only on
products beta * omega.  Heat is positive when it flows into the working
medium; work is negative when done by the medium.

This module owns every Bose/Fermi scalar factor of the package (occupation,
the weight ``1 -+ e^{-x}`` and its signed logarithm) and the one check that
rejects a value that is not a :class:`Statistics` member.  Public entry
points run that check once per call, so each inner dispatch is two-way;
other modules branch on the statistics only where the physical laws differ.

Scalars are computed with :mod:`math`.  numpy is imported only by the array
paths (array ``population``, ``internal_energy``, ``integrate_path``), so the
engine, refrigerator, sweep and regime-map pipelines never load it.  The
path oracle (``PathSpec``, ``integrate_path``) lives in :mod:`.studies`.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

from .errors import ParameterError


class Statistics(Enum):
    """Working-medium family: unbounded harmonic mode or two-level mode."""

    BOSONIC = "bosonic"
    FERMIONIC = "fermionic"


def require_statistics(stat) -> None:
    """Reject ``stat`` unless it is a :class:`Statistics` member."""
    if not isinstance(stat, Statistics):
        raise ParameterError(f"unknown statistics kind: {stat!r}")


def weight_function(stat: Statistics) -> Callable[[float], float]:
    """``x -> 1 -+ e^{-x}`` for one statistics (bosonic upper sign); ``stat`` is not checked."""
    return _bose_weight if stat is Statistics.BOSONIC else _fermi_weight


def _bose_weight(x: float) -> float:
    return -math.expm1(-x)


def _fermi_weight(x: float) -> float:
    return 1.0 + math.exp(-x)


def log_weight(stat: Statistics, x: float) -> float:
    """``+-ln(1 +- e^{-x})``, the per-statistics piece of the isothermal log term."""
    if stat is Statistics.BOSONIC:
        e = math.exp(-x)
        # where e^{-x} rounds to 1, log1p(-e) would be log(0); expm1 keeps x
        return -math.log1p(-e) if e < 1.0 else -math.log(-math.expm1(-x))
    return math.log1p(math.exp(-x))


_DOMAIN_MESSAGE = "population requires x = beta_s*omega > 0"
_OVERFLOW_MESSAGE = "bosonic population overflows: x = beta_s*omega is below ~5.6e-309"


def population(stat: Statistics, x):
    """Mean occupation number at scaled energy ``x = beta_s * omega``.

    Parameters
    ----------
    stat : Statistics
        Bosonic gives ``1/(exp(x) - 1)``, fermionic ``1/(exp(x) + 1)``.
    x : float or ndarray
        Positive product of inverse temperature and frequency.  A Python
        ``int`` or ``float`` (``np.float64`` included) is evaluated with
        :mod:`math`; anything else goes through numpy, which is imported
        only then.  The two paths may differ in the last bit.

    Returns
    -------
    float or ndarray
        Occupation, in ``(0, inf)`` for bosonic and ``(0, 1/2)`` for
        fermionic media; strictly decreasing in ``x``.  A bosonic ``x``
        below ~5.6e-309, whose occupation overflows, raises
        :class:`ParameterError`.
    """
    # exp(-x)/(1 -+ exp(-x)) never overflows, unlike 1/(exp(x) -+ 1), as long
    # as 1 - exp(-x) ~ x has a representable reciprocal
    if isinstance(x, (int, float)):
        if not 0.0 < x < math.inf:
            raise ParameterError(_DOMAIN_MESSAGE)
        require_statistics(stat)
        decay = math.exp(-x)
        if stat is Statistics.BOSONIC:
            out = decay / -math.expm1(-x)
            if out == math.inf:
                raise ParameterError(_OVERFLOW_MESSAGE)
            return out
        return decay / (1.0 + decay)
    import numpy as np

    xa = np.asarray(x, dtype=float)
    if xa.size == 0 or np.any(xa <= 0.0) or not np.all(np.isfinite(xa)):
        raise ParameterError(_DOMAIN_MESSAGE)
    require_statistics(stat)
    # two work arrays written in place (xa may be the caller's, so only read);
    # each element sees the same operations as exp(-x)/(1 -+ exp(-x))
    work = np.negative(xa, out=np.empty_like(xa))
    out = np.exp(work, out=np.empty_like(xa))
    if stat is Statistics.BOSONIC:
        np.negative(np.expm1(work, out=work), out=work)
        with np.errstate(over="ignore"):
            np.divide(out, work, out=out)
        if not np.all(np.isfinite(out)):
            raise ParameterError(_OVERFLOW_MESSAGE)
    else:
        np.divide(out, np.add(1.0, out, out=work), out=out)
    return float(out) if np.ndim(x) == 0 else out


def internal_energy(stat: Statistics, omega: float, n: float):
    """Oscillator energy ``omega*(n + 1/2)`` bosonic, ``omega*(n - 1/2)`` fermionic.

    The zero-point shift makes fermionic energies live in ``[-omega/2, 0]``
    while bosonic ones exceed ``omega/2``.
    """
    import numpy as np

    w, m = np.asarray(omega), np.asarray(n)
    if not np.all((w > 0.0) & (w < np.inf)):  # NaN fails both comparisons
        raise ParameterError("omega must be positive and finite")
    if not np.all((m >= 0.0) & (m < np.inf)):
        raise ParameterError("occupation must be nonnegative and finite")
    require_statistics(stat)
    if stat is Statistics.BOSONIC:
        return omega * (n + 0.5)
    if np.any(m > 0.5):
        raise ParameterError("fermionic occupation cannot exceed 1/2")
    return omega * (n - 0.5)
