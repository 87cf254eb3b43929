"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration value or structure."""


class ShapeError(ValueError):
    """Array shape or dimension mismatch."""


class NumericError(ArithmeticError):
    """Non-finite value encountered where finite numbers are required."""


class FormatError(ValueError):
    """Malformed or truncated serialized data."""


class MismatchError(ValueError):
    """A checkpoint whose structure or digest does not match the config it
    is resumed or evaluated with."""
