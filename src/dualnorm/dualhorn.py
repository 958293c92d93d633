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
its ``t``.  ``pmm`` takes its rules from the program's cached reduct view
(``Program.reduct_view``): the proper rules with their negative bodies
stripped and the constraint ``:- a.`` of every atom are built once per
program, and each call only filters them by ``M``.  Each check still builds
one witness program and runs one elimination per member of ``M``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .common import DEFAULT_BUDGET, OracleBudget, ProgramClassError
from .core import AtomTable, Program, is_model
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
    boundaries; the levels themselves are built only when asked for.  The
    maximal model and the display name of ``t`` are computed on first read
    (the name against the table as it is then).
    """

    eliminated: tuple[int, ...]
    bounds: tuple[int, ...]
    t_atom: int
    t_eliminated: bool
    _heads: dict[int, list[int]] = field(repr=False, compare=False)
    _bodies: list[int] = field(repr=False, compare=False)
    _table: AtomTable = field(repr=False, compare=False)
    _t_stem: str = field(repr=False, compare=False)

    @cached_property
    def max_model(self) -> frozenset[int]:
        """The head atoms, the positive bodies (``t`` for an empty one) and
        ``t``, less the eliminated atoms: with no negative bodies, these are
        the atoms of P plus ``t``."""
        universe = self._heads.keys() | self._bodies
        universe.add(self.t_atom)
        return frozenset(universe.difference(self.eliminated))

    @cached_property
    def t_name(self) -> str:
        return self._table.unused_name(self._t_stem)

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


def elimination_fixpoint(prog: Program, t_stem: str = "__t") -> EliminationTrace:
    """Run the elimination chain on a dual-Horn program to its fixpoint.

    The padding atom ``t`` is not interned: its id is ``_T_ATOM``, and
    ``t_stem`` gives it a display name that the table does not hold.  The
    chain is monotone and stabilizes within |at(P)| + 1 steps.
    """
    t = _T_ATOM

    # Reversed rule b <- H, an empty positive body read as t: the counter
    # tracks head atoms not yet eliminated.  One pass sets these up and
    # rejects the first rule that is not dual-Horn.
    bodies: list[int] = []
    counters: list[int] = []
    occurs: dict[int, list[int]] = {}
    ready: list[int] = []
    for idx, r in enumerate(prog.rules):
        pos = r.body_pos
        if len(pos) > 1 or r.body_neg:
            raise ProgramClassError(
                f"rule '{r}' is not dual-Horn (needs |body_pos| <= 1 and no negation)"
            )
        bodies.append(pos[0] if pos else t)
        head = r.head
        counters.append(len(head))
        if not head:
            ready.append(idx)
        for h in head:
            occurs.setdefault(h, []).append(idx)

    eliminated: set[int] = set()
    order: list[int] = []
    bounds = [0]
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

    return EliminationTrace(tuple(order), tuple(bounds), t, t in eliminated, occurs, bodies, prog.table, t_stem)


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
    view = prog.reduct_view
    rules = view.reduct_proper(interp)
    rules.extend(c for a, c in view.forbid.items() if a not in interp)
    rules.append(view.forbidding(m))
    return Program(prog.table, tuple(rules))


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
