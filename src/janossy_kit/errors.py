"""Error types shared across the package.

Numerical failures carry enough context (matrix name, reciprocal condition
estimate) for a caller to report them without re-deriving anything.
"""

from __future__ import annotations


class SingularOperatorError(ArithmeticError):
    """A matrix that must be inverted is singular or too ill-conditioned.

    Parameters
    ----------
    name : str
        Human-readable name of the offending matrix ("gram matrix",
        "complement gram matrix", "Id - restricted kernel", ...).
    rcond : float
        Reciprocal condition number estimate at the point of failure.
    detail : str, optional
        Extra context, e.g. which windows produced the matrix.
    """

    def __init__(self, name: str, rcond: float, detail: str = ""):
        self.name = name
        self.rcond = rcond
        self.detail = detail
        msg = f"{name} is numerically singular (rcond ~ {rcond:.3e})"
        if detail:
            msg += f"; {detail}"
        super().__init__(msg)


class BudgetExceededError(RuntimeError):
    """A table, law or dump would hold more items than the budget allows.

    ``counted`` names the items and what holds them, e.g. "entries for
    the oracle's state chain", "entries for the count law" or "rows for a
    kernel dump".
    """

    def __init__(self, required: int, budget: int, counted: str):
        self.required = required
        self.budget = budget
        self.counted = counted
        super().__init__(
            f"needs {required} {counted}, budget is {budget}"
        )


class ConfigError(ValueError):
    """A run configuration is malformed or references unknown names."""
