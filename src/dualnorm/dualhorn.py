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
its ``t``.  The witnesses for one ``M`` share all their rules but the last,
``:- m.``: the proper rules of P^M and ``:- a.`` for every atom a of P
outside ``M``.  What they share is the reduct closure of ``M``
(:class:`ReductClosure`), which the program's reduct view
(``Program.reduct_view``) keeps for the last interpretation asked about.
On first use it compiles P^M alone, seeds the elimination with every atom
of P outside ``M`` (what the ``:- a.`` rules would eliminate) and closes
to the fixpoint C0.  The witness for ``m`` eliminates ``t`` iff the
elimination continued from C0 with ``m`` does; that run stops at ``t`` or
at a settled atom, one known to eliminate ``t``, and is undone from a log.
An ``m`` that succeeds is settled, and the first one also sets off one
reverse search from ``t`` along the rules left with one live head after
C0, which settles every atom it reaches.  On a chain that settles every
atom, so the check is linear; rules that keep two live heads after C0 can
still make the continued runs cost |M| * |P| in all.
The UE test (``seue.is_ue_model_dn``) reads the same closure for its
there-component Y: the same run, continued from C0 with an atom a of Y,
gives the atoms of Y that survive it.
A witness builds its rule tuple only when it is read.  Its trace is the
one class every elimination returns, built without the run (the eliminated
atoms, the level bounds and the compiled rules): the run comes from a fresh
compile of the witness's rules on first read, so every trace is the one a
fresh compile gives.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .common import DEFAULT_BUDGET, OracleBudget, ProgramClassError, collector_paused
from .core import AtomTable, Program, Rule, is_model
from .textio import render_rule
# Bound under private names: perfbench/tracing.py pins the code, names included,
# of functions here that call them.
from .core import require_dual_normal as _require_dual_normal


# The id of the padding atom t.  An AtomTable hands out ids from 0 up and its
# ``name_of`` raises IndexError on this one; -1 would silently name the last atom.
T_ATOM = -(1 << 62)


# An elimination run: the eliminated atoms in level order, the level bounds
# (from 0), the rules each head atom occurs in and each rule's body atom.
EliminationRun = tuple[tuple[int, ...], tuple[int, ...], dict[int, list[int]], list[int]]


class EliminationTrace:
    """The chain E_0, E_1, ... up to its fixpoint, over at(P) plus ``t``.

    It holds the program, the stem of ``t``'s display name, ``t_eliminated``
    and the run, which stores each eliminated atom once, in level order,
    with the level boundaries; the levels themselves are built only when
    asked for.  The maximal model and the name of ``t`` are computed on
    first read (the name against the table as it is then).  The elimination
    of a plain program passes its run; the trace of a ``pmm`` witness has
    none, and computes it from a fresh compile of the witness's rules when
    it is first read.
    """

    t_atom = T_ATOM

    def __init__(self, prog: Program, t_stem: str, t_eliminated: bool, run: Optional[EliminationRun] = None) -> None:
        self.prog = prog
        self.t_stem = t_stem
        self.t_eliminated = t_eliminated
        if run is not None:
            self.run = run

    @cached_property
    def run(self) -> EliminationRun:
        """The run of a witness's trace, from a fresh compile of its rules."""
        prog = self.prog
        return elimination_fixpoint(Program(prog.table, prog.rules)).run

    @property
    def eliminated(self) -> tuple[int, ...]:
        return self.run[0]

    @property
    def bounds(self) -> tuple[int, ...]:
        return self.run[1]

    @cached_property
    def max_model(self) -> frozenset[int]:
        """The head atoms, the positive bodies (``t`` for an empty one) and
        ``t``, less the eliminated atoms: with no negative bodies, these are
        the atoms of P plus ``t``."""
        eliminated, _, heads, bodies = self.run
        universe = heads.keys() | bodies
        universe.add(T_ATOM)
        return frozenset(universe.difference(eliminated))

    @cached_property
    def t_name(self) -> str:
        return self.prog.table.unused_name(self.t_stem)

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
    new_atoms: Iterable[int],
) -> tuple[list[int], list[int]]:
    """Eliminate ``new_atoms`` (distinct, none of them in ``eliminated``)
    and, level by level, every body whose rule has lost all its head atoms.

    Consumes ``counters`` and adds to ``eliminated``.  Returns the atoms it
    eliminated, in level order, and the level bounds, starting at 0.  Each
    level is a slice of the one order list, which every newly eliminated
    body is appended to once, in the order it is reached.
    """
    order = list(new_atoms)
    eliminated.update(order)
    bounds = [0]
    start = 0
    while start < len(order):
        end = len(order)
        bounds.append(end)
        for a in order[start:end]:
            for idx in occurs.get(a, ()):
                counters[idx] -= 1
                if counters[idx] == 0:
                    body = bodies[idx]
                    if body not in eliminated:
                        eliminated.add(body)
                        order.append(body)
        start = end
    return order, bounds


def elimination_fixpoint(prog: Program, t_stem: str = "__t") -> EliminationTrace:
    """Run the elimination chain on a dual-Horn program to its fixpoint.

    The padding atom ``t`` is not interned: its id is ``T_ATOM``, and
    ``t_stem`` gives it a display name that the table does not hold.  The
    chain is monotone and stabilizes within |at(P)| + 1 steps.  A witness
    from ``pmm`` is answered from the reduct closure of its M; its trace holds
    ``t_eliminated`` and computes the run on first read.  Any other program
    is compiled and run by :func:`_plain_fixpoint`, and its trace holds the
    run.
    """
    if type(prog) is not _Witness:
        return _plain_fixpoint(prog, t_stem)
    bad = prog.closure.close()
    if bad is not None:
        raise _not_dual_horn(prog, bad)
    return EliminationTrace(prog, t_stem, prog.closure.eliminates_t(prog.m))


def _not_dual_horn(prog: Program, idx: int) -> ProgramClassError:
    return ProgramClassError(
        f"rule '{render_rule(prog.rules[idx], prog.table)}' is not dual-Horn "
        "(needs |body_pos| <= 1 and no negation)"
    )


@collector_paused
def _plain_fixpoint(prog: Program, t_stem: str) -> EliminationTrace:
    """The elimination of a program that is not a witness, with the cyclic
    collector paused: the compile and the run build no reference cycle, and
    on a large program a collection would only walk the lists they keep.  A
    witness's check stays unpaused, as a pause per atom of M would add its
    fixed cost to every atom."""
    bad, bodies, counters, occurs, ready = compile_elimination(prog.rules)
    if bad is not None:
        raise _not_dual_horn(prog, bad)
    eliminated: set[int] = set()
    # the first level holds the bodies of the rules with an empty head, each
    # once, in rule order, as every later level holds the bodies it reaches
    # in the order it reaches them
    order, bounds = eliminate(bodies, occurs, counters, eliminated, dict.fromkeys(bodies[idx] for idx in ready))
    return EliminationTrace(prog, t_stem, T_ATOM in eliminated, (tuple(order), tuple(bounds), occurs, bodies))


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


class ReductClosure:
    """The reduct closure of an interpretation I: the proper rules of P^I,
    compiled for the elimination and closed to C0 from every atom of P
    outside I.  It is built by :func:`reduct_closure`, which keeps the last
    one in the program's reduct view.

    Both polynomial checks continue C0 with one atom of I, in one loop,
    :meth:`_continue`.  ``settled`` holds atoms known to eliminate ``t``
    from C0: ``t``, every atom whose run reached a settled atom, and what
    :meth:`_search` found after the first of them.  A run that meets a
    settled atom stops, since its closure holds that atom's.  The search
    waits for such a run because only a run that reaches ``t`` can use it,
    and an answer-set check ends at its first failure.
    """

    def __init__(self, prog: Program, interp: frozenset[int]) -> None:
        self.interp = interp
        self.rules = tuple(prog.reduct_view.reduct_proper(interp))
        self.outside = prog.atom_ids - interp
        # P's table and rules, not P, whose reduct view holds this closure:
        # no reference cycle, and P is rebuilt only for the model test
        self.table, self.program_rules = prog.table, prog.rules
        self.bodies: Optional[list[int]] = None

    @cached_property
    def model(self) -> bool:
        """Whether I is a model of P."""
        return is_model(self.interp, Program(self.table, self.program_rules))

    def close(self) -> Optional[int]:
        """Compile the rules and close them to C0, on the first call.
        Returns the index of the first rule that is not dual-Horn, or None;
        with such a rule nothing is eliminated."""
        if self.bodies is not None:
            return self.bad
        # the rules all have a head, so none fires before the seed
        self.bad, self.bodies, self.counters, self.occurs, _ = compile_elimination(self.rules)
        self.eliminated: set[int] = set()
        if self.bad is None:
            eliminate(self.bodies, self.occurs, self.counters, self.eliminated, self.outside)
        self.settled, self.searched, self.t_out = {T_ATOM}, False, T_ATOM in self.eliminated
        return self.bad

    def eliminates_t(self, m: int) -> bool:
        """Whether the witness ``pmm(P, I, m)`` eliminates ``t``: whether
        the elimination continued from C0 with m does.  :meth:`close` must
        have found every rule dual-Horn."""
        return self._continue(m) is None

    @cached_property
    def ue_heres(self) -> set[frozenset[int]]:
        """The sets S that are S_a for every atom a of I \\ S, where S_a is
        the set of atoms of I that the elimination continued from C0 with
        ``a`` leaves standing, or None when it eliminates ``t``: the heres
        X != I of the UE-models (X, I) when I is a model.  P must be
        dual-normal."""
        self.close()
        counts: Counter = Counter()
        for a in sorted(self.interp):
            added = self._continue(a)
            counts[None if added is None else self.interp.difference(self.eliminated, added)] += 1
        return {s for s, n in counts.items() if s is not None and len(s) + n == len(self.interp)}

    def _continue(self, a: int) -> Optional[list[int]]:
        """Continue the elimination from C0 with ``a``: the atoms it adds
        to C0, or None, settling ``a``, when it reaches a settled atom.
        The run is undone from its log before this returns."""
        settled, eliminated = self.settled, self.eliminated
        if self.t_out or a in settled:
            return None
        if a in eliminated:
            return []
        bodies, counters, occurs = self.bodies, self.counters, self.occurs
        added = [a]
        touched: list[int] = []
        eliminated.add(a)
        reached = False
        for b in added:  # grows as the elimination goes on
            for idx in occurs.get(b, ()):
                touched.append(idx)
                counters[idx] -= 1
                if not counters[idx]:
                    body = bodies[idx]
                    if body in settled:
                        reached = True
                        break
                    if body not in eliminated:
                        eliminated.add(body)
                        added.append(body)
            if reached:
                break
        for idx in touched:
            counters[idx] += 1
        eliminated.difference_update(added)
        if not reached:
            return added
        settled.add(a)
        if not self.searched:
            self._search()
        return None

    def _search(self) -> None:
        """Settle every atom that reaches ``t`` along the rules left with
        one live head after C0: eliminating such a rule's head eliminates
        its body."""
        self.searched = True
        bodies, eliminated, settled, rules = self.bodies, self.eliminated, self.settled, self.rules
        # those rules per body, in flat arrays (a list per atom would add an
        # object per atom for the garbage collector to walk): ``last[b]`` is
        # the last such rule with body b, ``before[idx]`` the one before
        # rule idx, or -1
        last: dict[int, int] = {}
        before = [-1] * len(bodies)
        for idx, count in enumerate(self.counters):
            if count == 1:
                body = bodies[idx]
                before[idx] = last.get(body, -1)
                last[body] = idx
        queue = [T_ATOM]
        for body in queue:
            idx = last.get(body, -1)
            while idx >= 0:
                for head in rules[idx][0]:
                    if head not in eliminated:
                        break
                if head not in settled:
                    settled.add(head)
                    queue.append(head)
                idx = before[idx]


def reduct_closure(prog: Program, interp: frozenset[int]) -> ReductClosure:
    """The reduct closure of ``interp``: the one the program's reduct view
    holds when it is for the same set, else a new one, which replaces it."""
    view = prog.reduct_view
    closure = view.closure
    if closure is None or not (closure.interp is interp or closure.interp == interp):
        closure = view.closure = ReductClosure(prog, frozenset(interp))
    return closure


class _Witness(Program):
    """A minimality witness from ``pmm``: the reduct closure of its ``M``
    and the excluded atom ``m``.  Its rules, P^M, then ``:- a.`` for every
    atom a of P outside ``M`` in ascending order, then ``:- m.``, are built
    on first read."""

    def __init__(self, table: AtomTable, closure: ReductClosure, m: int) -> None:
        self.__dict__.update(table=table, closure=closure, m=m)

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        closure = self.closure
        forbidden = [Rule((), (a,), ()) for a in sorted(closure.outside)]
        return (*closure.rules, *forbidden, Rule((), (self.m,), ()))


def pmm(prog: Program, interp: frozenset[int], m: int) -> Program:
    """Minimality witness program for excluding ``m`` from ``M``.

    Reduct of the proper part w.r.t. M, plus constraints forbidding every
    atom outside M and forbidding m itself: it has a model exactly when some
    model of the reduct sits strictly below M at m.  Dual-Horn whenever the
    input is dual-normal.  A witness holds the reduct closure of ``M`` and
    ``m``, and builds its rule tuple only when it is read.
    """
    if m not in interp:
        raise ValueError(f"atom {prog.table.describe(m)} is not in the interpretation")
    return _Witness(prog.table, reduct_closure(prog, interp), m)


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
