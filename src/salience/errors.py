"""Exception types shared across the toolkit, and the JSON type predicates that
the file loaders use to raise them."""
import math
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


def is_finite_number(val) -> bool:
    return is_number(val) and math.isfinite(val)


def check_fields(obj: dict, rules: dict, prefix: str = "", error: type = DataError) -> None:
    """Raise ``error`` naming the first field of ``obj`` that is missing or breaks its rule.

    A rule is either a nested dict of rules or a ``(predicate, description)`` pair.
    """
    for key, rule in rules.items():
        name = prefix + key
        if key not in obj:
            raise error(f"missing field {name}")
        if isinstance(rule, dict):
            if not isinstance(obj[key], dict):
                raise error(f"field {name} must be an object")
            check_fields(obj[key], rule, name + ".", error)
        elif not rule[0](obj[key]):
            raise error(f"field {name} must be {rule[1]}")


def config_from_json(cfg, obj, rules: dict, what: str):
    """Set each field of ``obj`` on ``cfg`` after its ``(predicate, description)`` rule passes."""
    if not isinstance(obj, dict):
        raise DataError(f"{what} must be a JSON object")
    for key, val in obj.items():
        if key not in rules:
            raise DataError(f"unknown {what} field {key!r}")
        valid, expected = rules[key]
        if not valid(val):
            raise DataError(f"{what} field {key!r} must be {expected}, got {val!r}")
        setattr(cfg, key, val)
    return cfg
