"""Shared error types and the enumeration budget guard."""

from __future__ import annotations

from dataclasses import dataclass


class BudgetExceededError(Exception):
    """An exhaustive enumeration was refused because the universe is too big."""


class ProgramClassError(ValueError):
    """A program does not belong to the syntactic class an operation requires."""


class SynthesisPreconditionError(ValueError):
    """An SE-set fails the closure preconditions of a synthesis construction."""


@dataclass(frozen=True)
class OracleBudget:
    """Caps for brute-force enumeration (these operations are exponential)."""

    max_atoms: int = 22

    def check(self, universe_size: int, what: str = "enumeration") -> None:
        if universe_size > self.max_atoms:
            raise BudgetExceededError(
                f"{what} over {universe_size} atoms exceeds the budget "
                f"(max_atoms={self.max_atoms})"
            )


DEFAULT_BUDGET = OracleBudget()
