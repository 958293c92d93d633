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
small iterative DPLL with unit propagation, first-unassigned branching
(false first), and blocking clauses over the projection variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

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
# DPLL model enumeration


class _Dpll:
    """Iterative DPLL with two-watched literals and chronological backtracking.

    No clause learning; branching picks the lowest-index unassigned variable
    and tries false first, so enumeration order is deterministic.
    """

    def __init__(self, num_vars: int, clauses: Iterable[tuple[int, ...]]):
        self.nv = num_vars
        self.assign: dict[int, bool] = {}
        self.trail: list[int] = []
        self.marks: list[tuple[int, int, bool]] = []  # (trail length, var, tried true)
        self.qhead = 0
        self.watches: dict[int, list[int]] = {}
        self.clauses: list[tuple[int, ...]] = []
        self.units: list[int] = []
        self.unsat = False
        self.steps = 0
        for c in clauses:
            self.add_clause(c)

    def add_clause(self, c: tuple[int, ...]) -> None:
        c = tuple(dict.fromkeys(c))
        if not c:
            self.unsat = True
            return
        if len(c) == 1:
            self.units.append(c[0])
            return
        idx = len(self.clauses)
        self.clauses.append(c)
        self.watches.setdefault(c[0], []).append(idx)
        self.watches.setdefault(c[1], []).append(idx)

    def value(self, lit: int) -> Optional[bool]:
        v = self.assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def _enqueue(self, lit: int) -> bool:
        v = self.value(lit)
        if v is False:
            return False
        if v is None:
            self.assign[abs(lit)] = lit > 0
            self.trail.append(lit)
        return True

    def _propagate(self) -> bool:
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.steps += 1
            falsified = -lit
            watching = self.watches.get(falsified, [])
            i = 0
            while i < len(watching):
                idx = watching[i]
                clause = self.clauses[idx]
                # normalize: watched literals sit at positions 0 and 1
                c = list(clause)
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                if self.value(c[0]) is True:
                    i += 1
                    continue
                moved = False
                for j in range(2, len(c)):
                    if self.value(c[j]) is not False:
                        c[1], c[j] = c[j], c[1]
                        self.clauses[idx] = tuple(c)
                        watching[i] = watching[-1]
                        watching.pop()
                        self.watches.setdefault(c[1], []).append(idx)
                        moved = True
                        break
                if moved:
                    continue
                self.clauses[idx] = tuple(c)
                if not self._enqueue(c[0]):
                    return False
                i += 1
        return True

    def _backtrack(self) -> bool:
        while self.marks:
            trail_len, var, tried_true = self.marks.pop()
            while len(self.trail) > trail_len:
                dead = self.trail.pop()
                del self.assign[abs(dead)]
            self.qhead = trail_len
            if not tried_true:
                self.marks.append((trail_len, var, True))
                ok = self._enqueue(var)
                assert ok
                return True
        return False

    def next_model(self, max_steps: int) -> Optional[dict[int, bool]]:
        """Resume search for the next total model; None when exhausted."""
        if self.unsat:
            return None
        for lit in self.units:
            if not self._enqueue(lit):
                self.unsat = True
                return None
        self.units = []
        while True:
            if self.steps > max_steps:
                raise BudgetExceededError("DPLL step limit exceeded")
            if not self._propagate():
                if not self._backtrack():
                    self.unsat = True
                    return None
                continue
            if len(self.assign) == self.nv:
                return dict(self.assign)
            var = next(v for v in range(1, self.nv + 1) if v not in self.assign)
            self.marks.append((len(self.trail), var, False))
            self._enqueue(-var)


def enumerate_models(
    cnf: CnfInstance,
    project: Iterable[int],
    max_steps: int = 50_000_000,
) -> list[frozenset[int]]:
    """All distinct models projected to the given variables, in discovery
    order (deterministic).  Each found model is excluded by a blocking clause
    over the projection; search then restarts on the grown clause set."""
    proj = sorted(set(project))
    found: list[frozenset[int]] = []
    blocking: list[tuple[int, ...]] = []
    spent = 0
    while True:
        solver = _Dpll(cnf.num_vars, list(cnf.clauses) + blocking)
        model = solver.next_model(max_steps - spent)
        spent += solver.steps
        if model is None:
            return found
        trues = frozenset(v for v in proj if model.get(v))
        found.append(trues)
        clause = tuple(-v if v in trues else v for v in proj)
        if not clause:
            return found
        blocking.append(clause)


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
