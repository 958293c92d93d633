"""Polynomial machinery for dual-Horn programs.

A dual-Horn program (at most one positive body atom per rule, no negation)
either has no models or a unique inclusion-maximal one.  The maximal model
is computed by an elimination fixpoint: reading every empty positive body
as a fresh atom ``t``, grow the set of atoms that cannot belong to any
model::

    E_0 = {},   E_i = { b | (H <- b) a rule, H a subset of E_{i-1} }

The complement of the fixpoint (within the atoms plus ``t``) is the maximal
model, and the program is unsatisfiable exactly when ``t`` gets eliminated.
The loop runs as counter-based unit propagation on the reversed definite
rules ``b <- H`` (the Dowling-Gallier scheme), linear in the program size.
The trace keeps each eliminated atom once, with the level boundaries, so it
is linear too; the levels E_i, whose total size can be quadratic, are built
only on request.

On top of this sits the answer-set check for dual-normal programs: ``M`` is
an answer set iff ``M`` is a model and, for every ``m`` in ``M``, the
minimality witness program ``pmm(P, M, m)`` (which is dual-Horn) eliminates
its ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .common import DEFAULT_BUDGET, OracleBudget, ProgramClassError
from .core import Program, Rule, is_model
# Bound under private names: perfbench/tracing.py pins the code, names included,
# of functions here that call them.
from .core import require_dual_normal as _require_dual_normal


# The id of the padding atom t.  An AtomTable hands out ids from 0 up and its
# ``name_of`` raises IndexError on this one; -1 would silently name the last atom.
_T_ATOM = -(1 << 62)


@dataclass(frozen=True)
class EliminationTrace:
    """The chain E_0, E_1, ... up to its fixpoint, over at(P) plus ``t``.

    Each eliminated atom is stored once, in level order, with the level
    boundaries; the levels themselves are built only when asked for.
    """

    eliminated: tuple[int, ...]
    bounds: tuple[int, ...]
    max_model: frozenset[int]
    t_atom: int
    t_eliminated: bool
    t_name: str

    @property
    def levels(self) -> tuple[frozenset[int], ...]:
        """E_i is the first ``bounds[i]`` eliminated atoms."""
        return tuple(frozenset(self.eliminated[:b]) for b in self.bounds)

    def to_dict(self, table) -> dict:
        def names(atoms):
            return sorted(self.t_name if a == self.t_atom else table.name_of(a) for a in atoms)

        return {
            "t": self.t_name,
            "t_eliminated": self.t_eliminated,
            "levels": [names(level) for level in self.levels],
            "max_model": names(self.max_model),
        }


def _require_dual_horn(prog: Program) -> None:
    for r in prog.rules:
        if not r.is_dual_horn:
            raise ProgramClassError(
                f"rule '{r}' is not dual-Horn (needs |body_pos| <= 1 and no negation)"
            )


def elimination_fixpoint(prog: Program, t_stem: str = "__t") -> EliminationTrace:
    """Run the elimination chain on a dual-Horn program to its fixpoint.

    The padding atom ``t`` is not interned: its id is ``_T_ATOM``, and
    ``t_stem`` gives it a display name that the table does not hold.  The
    chain is monotone and stabilizes within |at(P)| + 1 steps.
    """
    _require_dual_horn(prog)
    t = _T_ATOM

    # Reversed rule b <- H, an empty positive body read as t: the counter
    # tracks head atoms not yet eliminated.
    rules = prog.rules
    bodies = [r.body_pos[0] if r.body_pos else t for r in rules]
    counters = [len(r.head) for r in rules]
    occurs: dict[int, list[int]] = {}
    for idx, r in enumerate(rules):
        for h in r.head:
            occurs.setdefault(h, []).append(idx)

    eliminated: set[int] = set()
    order: list[int] = []
    bounds = [0]
    ready = [idx for idx, c in enumerate(counters) if c == 0]
    while True:
        new_atoms = {bodies[idx] for idx in ready} - eliminated
        if not new_atoms:
            break
        eliminated.update(new_atoms)
        order.extend(new_atoms)
        bounds.append(len(order))
        ready = []
        for a in new_atoms:
            for idx in occurs.get(a, ()):
                counters[idx] -= 1
                if counters[idx] == 0:
                    ready.append(idx)

    universe = prog.atom_ids | {t}
    return EliminationTrace(
        eliminated=tuple(order),
        bounds=tuple(bounds),
        max_model=frozenset(universe - eliminated),
        t_atom=t,
        t_eliminated=t in eliminated,
        t_name=prog.table.unused_name(t_stem),
    )


def max_model_dual_horn(
    prog: Program, universe: Optional[frozenset[int]] = None
) -> Optional[frozenset[int]]:
    """Unique maximal model of a dual-Horn program, or None if unsatisfiable.

    With a ``universe`` larger than at(P), unconstrained atoms belong to the
    maximal model.
    """
    trace = elimination_fixpoint(prog)
    if trace.t_eliminated:
        return None
    model = trace.max_model - {trace.t_atom}
    if universe is not None:
        model |= universe - prog.atom_ids
    return model


def pmm(prog: Program, interp: frozenset[int], m: int) -> Program:
    """Minimality witness program for excluding ``m`` from ``M``.

    Reduct of the proper part w.r.t. M, plus constraints forbidding every
    atom outside M and forbidding m itself: it has a model exactly when some
    model of the reduct sits strictly below M at m.  Dual-Horn whenever the
    input is dual-normal.
    """
    if m not in interp:
        raise ValueError(f"atom {prog.table.name_of(m)!r} is not in the interpretation")
    rules = [
        Rule(r.head, r.body_pos, ())
        for r in prog.rules
        if r.head and not any(a in interp for a in r.body_neg)
    ]
    rules.extend(Rule.of((), (b,)) for b in sorted(prog.atom_ids - interp))
    rules.append(Rule.of((), (m,)))
    return Program.of(prog.table, rules)


def is_answer_set_dn(prog: Program, interp: frozenset[int]) -> bool:
    """Answer-set check for dual-normal programs: polynomially many
    elimination runs, one per member of the interpretation."""
    _require_dual_normal(prog)
    if not is_model(interp, prog):
        return False
    for m in sorted(interp):
        witness = pmm(prog, interp, m)
        trace = elimination_fixpoint(witness, t_stem="__t_" + prog.table.name_of(m))
        if not trace.t_eliminated:
            return False
    return True


def answer_sets_dn(
    prog: Program, budget: OracleBudget = DEFAULT_BUDGET
) -> list[frozenset[int]]:
    """All answer sets of a dual-normal program.

    Candidate models are found by subset enumeration (desk scale; the SAT
    route scales further), each checked with the polynomial test.
    """
    _require_dual_normal(prog)
    atoms = sorted(prog.atom_ids)
    budget.check(len(atoms), "answer-set enumeration")
    out = []
    for mask in range(1 << len(atoms)):
        interp = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        if is_model(interp, prog) and is_answer_set_dn(prog, interp):
            out.append(interp)
    return out
