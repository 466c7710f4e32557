"""Exception hierarchy. Every failure mode the library raises deliberately
derives from BlaschkeLabError so the CLI can map them to exit codes. The
config readers at the end raise ConfigError for a value that would
otherwise be truncated or ignored."""

import numbers


class BlaschkeLabError(Exception):
    """Base class for all library errors."""


class ConfigError(BlaschkeLabError):
    """Malformed or inconsistent configuration (CLI exit code 2)."""


class EvaluationDomainError(BlaschkeLabError):
    """Point evaluation requested outside the closed unit disc."""


class PoleError(BlaschkeLabError):
    """A Blaschke denominator came numerically too close to zero."""


class DimensionMismatchError(BlaschkeLabError):
    """Operator/vector truncation degrees are incompatible."""


class ZeroFunctionError(BlaschkeLabError):
    """An operation that divides by a norm received the zero function."""


class NotInCommutantError(BlaschkeLabError):
    """Symbol extraction requested for an operator that does not commute with T_B."""


class ConditioningError(BlaschkeLabError):
    """A Gram matrix or least-squares system is too ill conditioned to trust."""


class MembershipError(BlaschkeLabError):
    """A function claimed to lie in the model space fails the membership check."""


def known_keys(obj, where: str, valid: tuple[str, ...]) -> dict:
    """obj, once it is a mapping whose every key is in valid."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    for key in obj:
        if key not in valid:
            raise ConfigError(f"unknown {where} key {key!r}; valid keys: {', '.join(valid)}")
    return obj


def config_int(value, key: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """value as an int in [minimum, maximum]. A bool, a string or a
    non-integral number is an error, never truncated."""
    integral = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {int(value)}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{key} must be <= {maximum}, got {int(value)}")
    return int(value)


def config_float(value, key: str) -> float:
    """value as a float. A bool, a string or an integer past the float range is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key} must be a finite number, got one past the float range") from None
