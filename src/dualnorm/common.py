"""Shared error types, the enumeration budget guard and the collector pause."""

from __future__ import annotations

import gc
from functools import wraps
from typing import NamedTuple


class BudgetExceededError(Exception):
    """An exhaustive enumeration was refused because the universe is too big."""


class ProgramClassError(ValueError):
    """A program does not belong to the syntactic class an operation requires."""


class SynthesisPreconditionError(ValueError):
    """An SE-set fails the closure preconditions of a synthesis construction."""


class OracleBudget(NamedTuple):
    """Caps for brute-force enumeration (these operations are exponential)."""

    max_atoms: int = 22

    def check(self, universe_size: int, what: str = "enumeration") -> None:
        if universe_size > self.max_atoms:
            raise BudgetExceededError(
                f"{what} over {universe_size} atoms exceeds the budget "
                f"(max_atoms={self.max_atoms})"
            )


DEFAULT_BUDGET = OracleBudget()


def collector_paused(fn):
    """``fn`` with the cyclic collector off for the call, and left as the
    caller had it on every exit: for calls that build no reference cycle."""

    @wraps(fn)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()

    return paused
