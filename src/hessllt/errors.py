"""Shared exception types."""


class BudgetExceededError(ValueError):
    """An input is outside the supported size budget for an operation."""


class PoleError(ZeroDivisionError):
    """A rational function was evaluated at a pole of its reduced form."""


class VerificationError(ArithmeticError):
    """A built-in self-check of a computed result failed."""
