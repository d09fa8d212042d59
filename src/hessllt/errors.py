"""Shared exception types, and the check record that every verification
report returns and the CLI prints."""


class BudgetExceededError(ValueError):
    """An input is outside the supported size budget for an operation."""


class PoleError(ZeroDivisionError):
    """A rational function was evaluated at a pole of its reduced form."""


class VerificationError(ArithmeticError):
    """A built-in self-check of a computed result failed."""


def check(name: str, passed: bool, detail: str = "") -> dict:
    """One verification record: {"name", "passed", "detail"}."""
    return {"name": name, "passed": bool(passed), "detail": detail}
