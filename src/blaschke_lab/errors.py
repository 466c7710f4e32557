"""Exception hierarchy. Every failure mode the library raises deliberately
derives from BlaschkeLabError so the CLI can map them to exit codes."""


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


class DimensionGapError(BlaschkeLabError):
    """Singular-value gap detection failed (truncation degree too small)."""


class ConditioningError(BlaschkeLabError):
    """A Gram matrix or least-squares system is too ill conditioned to trust."""


class MembershipError(BlaschkeLabError):
    """A function claimed to lie in the model space fails the membership check."""


class NotSelfAdjointError(BlaschkeLabError):
    """Self-adjoint block analysis requested for a non-self-adjoint operator."""
