"""The package's error hierarchy: a base class and three families, each
with the exit code and label the CLI reports. Every error class derives
from one family and keeps the ValueError or RuntimeError base it had; the
modules that raise it export it too."""


class AugridgeError(Exception):
    exit_code = 1
    label = "error"


class ConfigError(AugridgeError, ValueError):
    """A config value or a call parameter outside its domain."""

    exit_code = 2
    label = "config error"


class DataError(AugridgeError, ValueError):
    """Input data of the wrong format, size or count."""

    exit_code = 3
    label = "data error"


class NumericalError(AugridgeError, RuntimeError):
    """A computation that failed on valid input."""

    exit_code = 4
    label = "numerical failure"


class InvalidParameterError(ConfigError):
    pass


class PreconditionViolationError(ConfigError):
    pass


class FormatError(DataError):
    pass


class InvalidDimensionError(DataError):
    pass


class InsufficientSamplesError(DataError):
    pass


class EmptyInputError(DataError):
    pass


class NumericalFailureError(NumericalError):
    pass


class NotConvergedError(NumericalError):
    pass
