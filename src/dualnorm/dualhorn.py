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
program, and the first witness for an ``M`` only filters them by ``M``;
its elimination compiles it (``compile_elimination``) like any program.
The view remembers that witness.  Every other witness for the same ``M``
differs from it only in the atom of its last rule ``:- m``, which has no
head, so the second one compiles the shared rules once, and each later run
copies the compiled bodies and counters and changes one body.  A check still
runs one elimination per member of ``M``; the trace of each is the one a
fresh compile of its rules gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from .common import DEFAULT_BUDGET, OracleBudget, ProgramClassError
from .core import AtomTable, Program, Rule, is_model
from .textio import render_rule
# Bound under private names: perfbench/tracing.py pins the code, names included,
# of functions here that call them.
from .core import require_dual_normal as _require_dual_normal


# The id of the padding atom t.  An AtomTable hands out ids from 0 up and its
# ``name_of`` raises IndexError on this one; -1 would silently name the last atom.
T_ATOM = -(1 << 62)


@dataclass(frozen=True, init=False)
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

    def __init__(self, eliminated, bounds, t_atom, t_eliminated, _heads, _bodies, _table, _t_stem) -> None:
        # One write to the instance dict, as cached_property does: the frozen
        # dataclass __init__ costs one object.__setattr__ a field, which is
        # a sizeable share of a small elimination.
        self.__dict__.update(
            eliminated=eliminated, bounds=bounds, t_atom=t_atom, t_eliminated=t_eliminated,
            _heads=_heads, _bodies=_bodies, _table=_table, _t_stem=_t_stem,
        )

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


# A rule list compiled for the elimination, as reversed rules ``b <- H`` with
# an empty positive body read as ``t``: the index of the first rule that is
# not dual-Horn (or None), each rule's body atom, each rule's head count, the
# rules each head atom occurs in (in rule order), and the rules with an empty
# head, which fire at the start.  A plain tuple, as it is built and unpacked
# once per elimination.
EliminationView = tuple[Optional[int], list[int], list[int], dict[int, list[int]], list[int]]


def compile_elimination(rules: Sequence[Rule]) -> EliminationView:
    """Compile a rule list for the elimination in one pass.  A rule that is
    not dual-Horn is recorded, not rejected: the elimination rejects it when
    it runs."""
    t = T_ATOM
    bad = None
    bodies: list[int] = []
    counters: list[int] = []
    occurs: dict[int, list[int]] = {}
    ready: list[int] = []
    for idx, (head, pos, neg) in enumerate(rules):
        if (len(pos) > 1 or neg) and bad is None:
            bad = idx
        bodies.append(pos[0] if pos else t)
        counters.append(len(head))
        if not head:
            ready.append(idx)
        for h in head:
            occurs.setdefault(h, []).append(idx)
    return bad, bodies, counters, occurs, ready


def eliminate(
    bodies: list[int],
    occurs: dict[int, list[int]],
    counters: list[int],
    eliminated: set[int],
    new_atoms: set[int],
) -> tuple[list[int], list[int]]:
    """Eliminate ``new_atoms`` (none of them in ``eliminated``) and, level by
    level, every body whose rule has lost all its head atoms.

    Consumes ``counters`` and adds to ``eliminated``.  Returns the atoms it
    eliminated, in level order, and the level bounds, starting at 0.
    """
    order: list[int] = []
    bounds = [0]
    while new_atoms:
        eliminated.update(new_atoms)
        order.extend(new_atoms)
        bounds.append(len(order))
        ready = []
        for a in new_atoms:
            for idx in occurs.get(a, ()):
                counters[idx] -= 1
                if counters[idx] == 0:
                    ready.append(idx)
        new_atoms = {bodies[idx] for idx in ready} - eliminated
    return order, bounds


def elimination_fixpoint(prog: Program, t_stem: str = "__t") -> EliminationTrace:
    """Run the elimination chain on a dual-Horn program to its fixpoint.

    The padding atom ``t`` is not interned: its id is ``T_ATOM``, and
    ``t_stem`` gives it a display name that the table does not hold.  The
    chain is monotone and stabilizes within |at(P)| + 1 steps.  A witness
    that ``pmm`` derived from an earlier one for the same M is seeded from
    the compiled rules they share; any other program is compiled here.
    """
    if type(prog) is _Witness:
        bad, bodies, counters, occurs, ready = prog.base.seeded(prog.rules)
    else:
        bad, bodies, counters, occurs, ready = compile_elimination(prog.rules)
    if bad is not None:
        raise ProgramClassError(
            f"rule '{render_rule(prog.rules[bad], prog.table)}' is not dual-Horn "
            "(needs |body_pos| <= 1 and no negation)"
        )
    eliminated: set[int] = set()
    # the first level is built by the same set expression as every later one,
    # so the order of ``eliminated`` within it does not depend on the route
    order, bounds = eliminate(bodies, occurs, counters, eliminated, {bodies[idx] for idx in ready} - eliminated)
    t = T_ATOM
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


class _WitnessBase:
    """The first minimality witness built for one ``M``, kept in the
    program's reduct view: its rules (the reduct's proper rules, ``:- a.``
    for every atom outside ``M``, then ``:- m``) and, from the second
    witness for ``M`` on, their compiled view.  Every other witness for
    ``M`` differs only in the atom of its last rule."""

    __slots__ = ("interp", "rules", "view")

    def __init__(self, interp: frozenset[int], rules: tuple[Rule, ...]) -> None:
        self.interp = interp
        self.rules = rules
        self.view: Optional[EliminationView] = None

    def seeded(self, rules: tuple[Rule, ...]) -> EliminationView:
        """The compiled view of the witness for this ``M`` with the given
        rules, with counters of its own.  Its last rule ``:- m`` has no head,
        so the occurrence lists and the ready rules are the base's."""
        if self.view is None:
            self.view = compile_elimination(self.rules)
        bad, bodies, counters, occurs, ready = self.view
        bodies = bodies.copy()
        bodies[-1] = rules[-1].body_pos[0]
        return bad, bodies, counters.copy(), occurs, ready


@dataclass(frozen=True, eq=False)
class _Witness(Program):
    """A witness program from ``pmm`` for an ``M`` it has built a witness
    for before, linked to the first one."""

    base: _WitnessBase = field(repr=False)


def pmm(prog: Program, interp: frozenset[int], m: int) -> Program:
    """Minimality witness program for excluding ``m`` from ``M``.

    Reduct of the proper part w.r.t. M, plus constraints forbidding every
    atom outside M and forbidding m itself: it has a model exactly when some
    model of the reduct sits strictly below M at m.  Dual-Horn whenever the
    input is dual-normal.  The program's reduct view remembers the first
    witness for the last ``M`` it was asked about; a later witness for the
    same ``M`` is that one with another last rule.
    """
    if m not in interp:
        raise ValueError(f"atom {prog.table.name_of(m)!r} is not in the interpretation")
    view = prog.reduct_view
    base = view.witness_memo
    if base is not None and (base.interp is interp or base.interp == interp):
        return _Witness(prog.table, base.rules[:-1] + (view.forbidding(m),), base)
    rules = view.reduct_proper(interp)
    rules += [c for a, c in view.forbid.items() if a not in interp]
    rules.append(view.forbidding(m))
    rules = tuple(rules)
    view.witness_memo = _WitnessBase(frozenset(interp), rules)
    return Program(prog.table, rules)


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
