"""Exception types shared across the toolkit, and the JSON type predicates that
the file loaders use to raise them."""
import sys


class SalienceError(Exception):
    """Base class for toolkit errors."""


class DataError(SalienceError):
    """Malformed input data or a violated document/model invariant."""


class ModelFormatError(DataError):
    """Model file is missing, has the wrong version, or the wrong type."""


class NumericError(SalienceError):
    """A NaN or Inf showed up where finite numbers are required."""


def is_int(val) -> bool:
    # bool is an int subclass; reject it where an int is required
    return isinstance(val, int) and not isinstance(val, bool)


def is_number(val) -> bool:
    """A JSON number that converts to float64 without overflow (NaN and Inf included)."""
    if is_int(val):  # JSON integers are unbounded
        return abs(val) <= sys.float_info.max
    return isinstance(val, float)
