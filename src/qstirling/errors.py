"""Exception types shared across the package."""


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
