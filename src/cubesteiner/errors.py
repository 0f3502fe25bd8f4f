"""Shared error types and the explicit resource-budget guard.

Budgets are always explicit call parameters, never ambient globals: every
enumeration or search that can blow up takes a limit and fails with a
projection of the work it refused to do.
"""

from __future__ import annotations

# Default cap on enumerated items / DP states / search nodes. Large enough
# for every desk-scale run in the test suite, small enough to refuse
# accidentally huge instances quickly.
DEFAULT_BUDGET = 1 << 22


class ParseError(ValueError):
    """Malformed textual input (vertex strings, instance files, CLI sets)."""


def _units_text(units: int) -> str:
    """Decimal up to 2^64; above it "2^<floor log2>+", since str() of an
    int past 4300 digits raises."""
    if units > 1 << 64:
        return f"2^{units.bit_length() - 1}+"
    return str(units)


class BudgetExceededError(RuntimeError):
    """An operation projected more work than its budget allows."""

    def __init__(self, what: str, projected: int, limit: int):
        self.what = what
        self.projected = projected
        self.limit = limit
        super().__init__(
            f"{what}: projected {_units_text(projected)} units exceeds budget "
            f"{_units_text(limit)}"
        )


def check_budget(what: str, projected: int, limit: int) -> None:
    """Raise BudgetExceededError if projected work exceeds the limit."""
    if projected > limit:
        raise BudgetExceededError(what, projected, limit)
