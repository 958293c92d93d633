"""Propositional encoding of the answer sets of dual-normal programs.

The formula for a program P over p atoms uses one variable per atom, a
padding variable ``t``, and level variables ``a^i_m`` (``t^i_m``) for
``0 <= i <= p``.  For every atom ``m`` the level variables replay, inside
the formula, the elimination chain of the minimality witness program for
excluding ``m`` from the guessed model: level 0 pins the candidate model
(with ``m`` forced out), and level ``i`` keeps an atom exactly when it
survived level ``i-1`` and no rule with that positive body has its whole
head already eliminated (negative bodies consult the candidate model, which
plays the reduct).  Satisfying assignments, projected to the atom variables,
are exactly the answer sets.

The formula is clausified by a projection-faithful Tseitin transform (full
biconditional definitions, constants folded away first) and solved by a
small CDCL core (two watched literals, first-UIP learning, backjumping)
that branches on the projection variables first (false first).  One search
per enumeration finds each projection once: after a model it adds the
clause over the negated projection decisions, which is asserting one level
below the last of them, and goes on with no restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .common import BudgetExceededError
from .core import Program, Rule
# Bound under private names: perfbench/tracing.py pins the code, names included,
# of functions here that call them.
from .core import require_dual_normal as _require_dual_normal

# ---------------------------------------------------------------------------
# Variables


@dataclass(frozen=True)
class Var:
    """kind 'base': a program atom; 'pad': the padding variable t itself;
    'level': atom (or t, encoded as atom=None) at elimination level i for
    owner m."""

    kind: str
    atom: Optional[int] = None
    owner: Optional[int] = None
    level: Optional[int] = None


PAD = Var("pad")


def base_var(atom: int) -> Var:
    return Var("base", atom)


def level_var(atom: Optional[int], owner: int, level: int) -> Var:
    return Var("level", atom, owner, level)


def var_sort_key(v: Var) -> tuple:
    """Documented variable order: base atoms by id, then t, then level
    variables lexicographically by (owner, level, atom) with t last."""
    if v.kind == "base":
        return (0, v.atom, 0, 0, 0)
    if v.kind == "pad":
        return (1, 0, 0, 0, 0)
    atom_rank = (1, 0) if v.atom is None else (0, v.atom)
    return (2, v.owner, v.level, *atom_rank)


def var_display(v: Var, table) -> str:
    if v.kind == "base":
        return table.name_of(v.atom)
    if v.kind == "pad":
        return "t"
    stem = "t" if v.atom is None else table.name_of(v.atom)
    return f"{stem}^{v.level}_{table.name_of(v.owner)}"


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class FVar(Formula):
    var: Var


@dataclass(frozen=True)
class FConst(Formula):
    value: bool


@dataclass(frozen=True)
class FNot(Formula):
    arg: Formula


@dataclass(frozen=True)
class FAnd(Formula):
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class FOr(Formula):
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class FImplies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class FIff(Formula):
    lhs: Formula
    rhs: Formula


TRUE = FConst(True)
FALSE = FConst(False)


def conj(args: Sequence[Formula]) -> Formula:
    """Conjunction; empty is true, singletons collapse."""
    if not args:
        return TRUE
    if len(args) == 1:
        return args[0]
    return FAnd(tuple(args))


def disj(args: Sequence[Formula]) -> Formula:
    """Disjunction; empty is false, singletons collapse."""
    if not args:
        return FALSE
    if len(args) == 1:
        return args[0]
    return FOr(tuple(args))


def node_count(f: Formula) -> int:
    count = 0
    stack = [f]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, (FAnd, FOr)):
            stack.extend(node.args)
        elif isinstance(node, FNot):
            stack.append(node.arg)
        elif isinstance(node, (FImplies, FIff)):
            stack.append(node.lhs)
            stack.append(node.rhs)
    return count


def formula_vars(f: Formula) -> set[Var]:
    out = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, FVar):
            out.add(node.var)
        elif isinstance(node, (FAnd, FOr)):
            stack.extend(node.args)
        elif isinstance(node, FNot):
            stack.append(node.arg)
        elif isinstance(node, (FImplies, FIff)):
            stack.append(node.lhs)
            stack.append(node.rhs)
    return out


def eval_formula(f: Formula, assignment: dict[Var, bool]) -> bool:
    if isinstance(f, FVar):
        return assignment[f.var]
    if isinstance(f, FConst):
        return f.value
    if isinstance(f, FNot):
        return not eval_formula(f.arg, assignment)
    if isinstance(f, FAnd):
        return all(eval_formula(a, assignment) for a in f.args)
    if isinstance(f, FOr):
        return any(eval_formula(a, assignment) for a in f.args)
    if isinstance(f, FImplies):
        return (not eval_formula(f.lhs, assignment)) or eval_formula(f.rhs, assignment)
    if isinstance(f, FIff):
        return eval_formula(f.lhs, assignment) == eval_formula(f.rhs, assignment)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Encoding


def rules_with_pos_body(prog: Program, body: Iterable[int]) -> tuple[Rule, ...]:
    """The rules whose positive body equals the given atom set."""
    return prog.rules_by_pos_body.get(tuple(sorted(set(body))), ())


def build_f0(prog: Program, m: int) -> Formula:
    """Level 0: the owner atom is eliminated, t survives, every other atom
    survives exactly when the candidate model contains it."""
    if m not in prog.atom_ids:
        raise ValueError(f"atom {prog.table.name_of(m)!r} does not occur in the program")
    parts: list[Formula] = [FNot(FVar(level_var(m, m, 0))), FVar(level_var(None, m, 0))]
    for a in sorted(prog.atom_ids):
        if a != m:
            parts.append(FIff(FVar(level_var(a, m, 0)), FVar(base_var(a))))
    return FAnd(tuple(parts))


def _survival(prog: Program, m: int, i: int, body: Iterable[int]) -> Formula:
    """No proper rule with this positive body eliminates its body atom at
    level i: each such rule keeps a head atom at the previous level or is
    discarded by the reduct (a negative body atom holds in the candidate
    model)."""
    parts = []
    for r in rules_with_pos_body(prog, body):
        if not r.head:
            continue
        lits: list[Formula] = [FVar(level_var(h, m, i - 1)) for h in r.head]
        lits.extend(FVar(base_var(b)) for b in r.body_neg)
        parts.append(disj(lits))
    return conj(parts)


def build_fi(prog: Program, m: int, i: int) -> Formula:
    """Level i (1 <= i <= p): each survivor variable is the conjunction of
    its previous level and the survival condition of its elimination rules."""
    _require_dual_normal(prog)
    p = len(prog.atom_ids)
    if not 1 <= i <= p:
        raise ValueError(f"level {i} out of range 1..{p}")
    parts: list[Formula] = []
    for a in sorted(prog.atom_ids):
        if a == m:
            continue
        cond = FAnd((FVar(level_var(a, m, i - 1)), _survival(prog, m, i, (a,))))
        parts.append(FIff(FVar(level_var(a, m, i)), cond))
    t_cond = FAnd((FVar(level_var(None, m, i - 1)), _survival(prog, m, i, ())))
    parts.append(FIff(FVar(level_var(None, m, i)), t_cond))
    return FAnd(tuple(parts)) if len(parts) > 1 else parts[0]


def build_fmod(prog: Program) -> Formula:
    """Classical satisfaction of every rule by the candidate model."""
    parts = []
    for r in prog.rules:
        lits: list[Formula] = [FVar(base_var(a)) for a in sorted(set(r.head) | set(r.body_neg))]
        lits.extend(FNot(FVar(base_var(b))) for b in r.body_pos)
        parts.append(disj(lits))
    return conj(parts)


def build_f(prog: Program) -> Formula:
    """The full encoding: the candidate is a classical model, and for every
    atom it contains, the elimination chain for excluding that atom kills t
    within p levels."""
    _require_dual_normal(prog)
    atoms = sorted(prog.atom_ids)
    p = len(atoms)
    parts: list[Formula] = [build_fmod(prog)]
    for m in atoms:
        chain: list[Formula] = [build_f0(prog, m)]
        chain.extend(build_fi(prog, m, i) for i in range(1, p + 1))
        chain.append(FNot(FVar(level_var(None, m, p))))
        parts.append(FImplies(FVar(base_var(m)), FAnd(tuple(chain))))
    return conj(parts)


def declared_vars(prog: Program) -> list[Var]:
    """The documented DIMACS variable layout for this program's encoding."""
    atoms = sorted(prog.atom_ids)
    p = len(atoms)
    out: list[Var] = [base_var(a) for a in atoms]
    out.append(PAD)
    for m in atoms:
        for i in range(p + 1):
            for a in atoms:
                out.append(level_var(a, m, i))
            out.append(level_var(None, m, i))
    return out


# ---------------------------------------------------------------------------
# Clausification


@dataclass
class CnfInstance:
    num_vars: int
    clauses: list[tuple[int, ...]]
    var_index: dict[Var, int]
    var_names: dict[int, str]


def _fold(f: Formula) -> Formula:
    """Compile constants away; the result contains no FConst unless it is one."""
    if isinstance(f, (FVar, FConst)):
        return f
    if isinstance(f, FNot):
        a = _fold(f.arg)
        if isinstance(a, FConst):
            return FConst(not a.value)
        return FNot(a)
    if isinstance(f, (FAnd, FOr)):
        is_and = isinstance(f, FAnd)
        flat = []
        for arg in f.args:
            g = _fold(arg)
            if isinstance(g, FConst):
                if g.value != is_and:
                    return g
                continue
            flat.append(g)
        if not flat:
            return TRUE if is_and else FALSE
        if len(flat) == 1:
            return flat[0]
        return FAnd(tuple(flat)) if is_and else FOr(tuple(flat))
    if isinstance(f, FImplies):
        lhs, rhs = _fold(f.lhs), _fold(f.rhs)
        if isinstance(lhs, FConst):
            return rhs if lhs.value else TRUE
        if isinstance(rhs, FConst):
            return TRUE if rhs.value else _fold(FNot(lhs))
        return FImplies(lhs, rhs)
    if isinstance(f, FIff):
        lhs, rhs = _fold(f.lhs), _fold(f.rhs)
        if isinstance(lhs, FConst):
            return rhs if lhs.value else _fold(FNot(rhs))
        if isinstance(rhs, FConst):
            return lhs if rhs.value else _fold(FNot(lhs))
        return FIff(lhs, rhs)
    raise TypeError(f"not a formula: {f!r}")


def tseitin_cnf(
    f: Formula,
    ensure_vars: Optional[Sequence[Var]] = None,
    namer: Optional[Callable[[Var], str]] = None,
) -> CnfInstance:
    """Equisatisfiable CNF with full biconditional definitions.

    Every model of the formula extends to a CNF model and every CNF model
    restricts to one, so projection onto the original variables is faithful.
    ``ensure_vars`` pins the leading variable indices (in the given order);
    remaining formula variables follow in the documented sort order, then
    definition auxiliaries.
    """
    g = _fold(f)
    var_index: dict[Var, int] = {}
    for v in ensure_vars or ():
        var_index.setdefault(v, len(var_index) + 1)
    for v in sorted(formula_vars(g), key=var_sort_key):
        var_index.setdefault(v, len(var_index) + 1)
    names = {}
    if namer is not None:
        names = {idx: namer(v) for v, idx in var_index.items()}
    clauses: list[tuple[int, ...]] = []
    next_var = len(var_index)

    if isinstance(g, FConst):
        if not g.value:
            clauses.append(())
        return CnfInstance(next_var, clauses, var_index, names)

    def fresh() -> int:
        nonlocal next_var
        next_var += 1
        return next_var

    def encode(node: Formula) -> int:
        if isinstance(node, FVar):
            return var_index[node.var]
        if isinstance(node, FNot):
            return -encode(node.arg)
        if isinstance(node, (FAnd, FOr)):
            lits = [encode(a) for a in node.args]
            aux = fresh()
            if isinstance(node, FAnd):
                for lit in lits:
                    clauses.append((-aux, lit))
                clauses.append(tuple([aux] + [-lit for lit in lits]))
            else:
                for lit in lits:
                    clauses.append((aux, -lit))
                clauses.append(tuple([-aux] + lits))
            return aux
        if isinstance(node, FImplies):
            a, b = encode(node.lhs), encode(node.rhs)
            aux = fresh()
            clauses.append((-aux, -a, b))
            clauses.append((aux, a))
            clauses.append((aux, -b))
            return aux
        if isinstance(node, FIff):
            a, b = encode(node.lhs), encode(node.rhs)
            aux = fresh()
            clauses.append((-aux, -a, b))
            clauses.append((-aux, a, -b))
            clauses.append((aux, a, b))
            clauses.append((aux, -a, -b))
            return aux
        raise TypeError(f"constants should have been folded away: {node!r}")

    def assert_node(node: Formula) -> None:
        # top-level conjunctive spine: no auxiliaries for flat structure
        if isinstance(node, FAnd):
            for arg in node.args:
                assert_node(arg)
        elif isinstance(node, FOr):
            clauses.append(tuple(encode(a) for a in node.args))
        elif isinstance(node, FImplies):
            clauses.append((-encode(node.lhs), encode(node.rhs)))
        elif isinstance(node, FIff):
            a, b = encode(node.lhs), encode(node.rhs)
            clauses.append((-a, b))
            clauses.append((a, -b))
        else:
            clauses.append((encode(node),))

    assert_node(g)
    return CnfInstance(next_var, clauses, var_index, names)


def program_cnf(prog: Program) -> CnfInstance:
    """CNF of the program's encoding under the documented variable layout."""
    return tseitin_cnf(
        build_f(prog),
        ensure_vars=declared_vars(prog),
        namer=lambda v: var_display(v, prog.table),
    )


# ---------------------------------------------------------------------------
# CDCL model enumeration


class _Dpll:
    """Conflict-driven clause learning over two-watched literals that finds
    each distinct projection of the models of a clause set once.

    Branching takes the next unassigned variable in a fixed order, the
    projection variables ascending and then the rest ascending, and tries
    false first; a pointer into the order resumes where the last decision
    was taken, and a backjump moves it back to the first decision undone.
    A conflict is analysed to its first unique implication point, and the
    learnt clause is asserted after a non-chronological backjump (GRASP:
    Marques-Silva & Sakallah 1999; MiniSat: Eén & Sörensson 2003).  Every
    projection variable has a value before any other variable is decided,
    so after a model the clause over the negated projection decisions
    removes exactly the models that share its projection.  That clause is
    asserting one level below the last projection decision, and the same
    search goes on from there: no restarts, so enumeration order is
    deterministic (Gebser, Kaufmann & Schaub, CPAIOR 2009).

    Values and watch lists are lists indexed by the signed literal (``-v``
    lands at ``len - v``, past every positive index); levels and reasons are
    indexed by variable.  A clause that implies a literal keeps it at
    position 0.
    """

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]], project: Iterable[int]):
        self.project = sorted(set(project))
        for v in self.project:
            if not 1 <= v <= num_vars:
                raise ValueError(f"projection variable {v} is outside 1..{num_vars}")
        self.projected = set(self.project)
        self.order = self.project + [v for v in range(1, num_vars + 1) if v not in self.projected]
        self.pos = [0] * (num_vars + 1)
        for i, v in enumerate(self.order):
            self.pos[v] = i
        self.next = 0  # every variable before order[next] is assigned
        self.value: list[Optional[bool]] = [None] * (2 * num_vars + 1)
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * num_vars + 1)]
        self.level = [0] * (num_vars + 1)
        self.reason: list[Optional[list[int]]] = [None] * (num_vars + 1)
        self.seen = [False] * (num_vars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []  # trail length at each decision
        self.qhead = 0
        self.unsat = False
        self.steps = 0
        clauses = list(clauses)
        literals = set(chain.from_iterable(clauses))
        if literals and (0 in literals or max(literals) > num_vars or -min(literals) > num_vars):
            bad = next(lit for clause in clauses for lit in clause if not 0 < abs(lit) <= num_vars)
            raise ValueError(f"clause literal {bad} is outside variables 1..{num_vars}")
        for clause in clauses:
            c = list(clause)
            if len(set(c)) < len(c):  # the two watches must differ
                c = list(dict.fromkeys(c))
            if len(c) > 1:
                self.watches[c[0]].append(c)
                self.watches[c[1]].append(c)
            elif not c or self.value[c[0]] is False:
                self.unsat = True
            elif self.value[c[0]] is None:
                self._assign(c[0], None)

    def _assign(self, lit: int, reason: Optional[list[int]]) -> None:
        self.value[lit] = True
        self.value[-lit] = False
        self.level[abs(lit)] = len(self.trail_lim)
        self.reason[abs(lit)] = reason
        self.trail.append(lit)

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation of the trail from the queue head: a falsified
        clause, or None at the fixpoint."""
        value, watches, trail, level, reason = self.value, self.watches, self.trail, self.level, self.reason
        lvl = len(self.trail_lim)
        while self.qhead < len(trail):
            false_lit = -trail[self.qhead]
            self.qhead += 1
            self.steps += 1
            ws = watches[false_lit]
            i = j = 0
            end = len(ws)
            while i < end:
                c = ws[i]
                i += 1
                if c[0] == false_lit:
                    c[0] = c[1]
                    c[1] = false_lit
                first = c[0]
                if value[first]:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if value[lit] is not False:
                        c[1] = lit
                        c[k] = false_lit
                        watches[lit].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if value[first] is False:
                        ws[j:] = ws[i:]
                        return c
                    value[first] = True
                    value[-first] = False
                    var = first if first > 0 else -first
                    level[var] = lvl
                    reason[var] = c
                    trail.append(first)
            del ws[j:]
        return None

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning: the learnt clause, with the negated UIP first
        and a literal of the backjump level second, and that level."""
        seen, level, reason, trail = self.seen, self.level, self.reason, self.trail
        lvl = len(self.trail_lim)
        learnt = [0]
        marked = []
        pending = 0
        idx = len(trail)
        clause = conflict
        while True:
            for q in clause:
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    marked.append(v)
                    if level[v] == lvl:
                        pending += 1
                    else:
                        learnt.append(q)
            idx -= 1
            while not seen[abs(trail[idx])]:
                idx -= 1
            uip = trail[idx]
            pending -= 1
            if not pending:
                break
            clause = reason[abs(uip)]
        for v in marked:
            seen[v] = False
        learnt[0] = -uip
        if len(learnt) == 1:
            return learnt, 0
        second = max(range(1, len(learnt)), key=lambda k: level[abs(learnt[k])])
        learnt[1], learnt[second] = learnt[second], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _backjump(self, lvl: int) -> None:
        """Undo every level above ``lvl``."""
        start = self.trail_lim[lvl]
        self.next = self.pos[abs(self.trail[start])]
        value = self.value
        for lit in self.trail[start:]:
            value[lit] = value[-lit] = None
        del self.trail[start:]
        del self.trail_lim[lvl:]
        self.qhead = start

    def _add_asserting(self, clause: list[int]) -> None:
        """Add a clause whose first literal is unassigned and whose others
        are false, and assign that literal."""
        if len(clause) > 1:
            self.watches[clause[0]].append(clause)
            self.watches[clause[1]].append(clause)
        self._assign(clause[0], clause)

    def projections(self, max_steps: int) -> Iterator[frozenset[int]]:
        """Yield the true projection variables of each distinct projection
        of a model; more than ``max_steps`` propagated literals in all raise
        BudgetExceededError."""
        if self.unsat:
            return
        order, value, trail = self.order, self.value, self.trail
        while True:
            if self.steps > max_steps:
                raise BudgetExceededError("SAT search step limit exceeded")
            conflict = self._propagate()
            if conflict is not None:
                if not self.trail_lim:
                    return
                learnt, lvl = self._analyze(conflict)
                self._backjump(lvl)
                self._add_asserting(learnt)
                continue
            nxt = self.next
            while nxt < len(order) and value[order[nxt]] is not None:
                nxt += 1
            self.next = nxt
            if nxt < len(order):
                self.trail_lim.append(len(trail))
                self._assign(-order[nxt], None)
                continue
            yield frozenset(v for v in self.project if value[v])
            # the projection decisions are the first levels; block them
            blocking = [-trail[i] for i in reversed(self.trail_lim) if abs(trail[i]) in self.projected]
            if not blocking:
                return
            self._backjump(len(blocking) - 1)
            self._add_asserting(blocking)


def enumerate_models(
    cnf: CnfInstance,
    project: Iterable[int],
    max_steps: int = 50_000_000,
) -> list[frozenset[int]]:
    """All distinct models projected to the given variables, each once, in
    discovery order (deterministic).  One search finds them all, and
    ``max_steps`` caps its total steps.  A projection variable or clause
    literal outside ``1..cnf.num_vars`` raises ValueError; ``cnf`` is not
    modified."""
    return list(_Dpll(cnf.num_vars, cnf.clauses, project).projections(max_steps))


def interpret_model(cnf: CnfInstance, prog: Program, true_vars: frozenset[int]) -> frozenset[int]:
    """Decode an external solver's model (set of true DIMACS variables) to
    the atoms of the guessed answer set."""
    return frozenset(
        v.atom for v, idx in cnf.var_index.items() if v.kind == "base" and idx in true_vars
    )


def answer_sets_via_sat(prog: Program) -> list[frozenset[int]]:
    """Answer sets of a dual-normal program through the encoding: enumerate
    CNF models projected to the atom variables and decode them."""
    _require_dual_normal(prog)
    cnf = program_cnf(prog)
    atoms = sorted(prog.atom_ids)
    base_indices = {cnf.var_index[base_var(a)]: a for a in atoms}
    projected = enumerate_models(cnf, base_indices)
    decoded = [frozenset(base_indices[i] for i in model) for model in projected]
    rank = {a: i for i, a in enumerate(atoms)}
    decoded.sort(key=lambda s: sum(1 << rank[a] for a in s))
    return decoded
