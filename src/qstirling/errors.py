"""Exception types shared across the package, and the one positive-and-finite check."""

import math


class ParameterError(ValueError):
    """An argument or model parameter lies outside its admissible domain."""


class OrderingError(ValueError):
    """A frequency/temperature ordering chain required by a cycle is violated."""


class SingularityError(ArithmeticError):
    """An integrand denominator vanishes on the integration domain."""


class ConvergenceError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


class ConfigError(ValueError):
    """A run-configuration file cannot be parsed or fails key validation."""


def require_positive(values: dict[str, float]) -> None:
    """Reject, by name, the first of ``values`` outside (0, inf); NaN is outside too."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ParameterError(f"{name} must be positive and finite, got {value!r}")
