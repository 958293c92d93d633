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

A model is reported before every variable is set when the projection
already entails the formula: once every projection variable has a value,
propagation is at a conflict-free fixpoint and nothing else has been
decided, the formula the CNF was clausified from is evaluated three-valued
over the trail.  If it is true, every extension satisfies it, so the
projection extends to a model and is reported and blocked as a total model
would be (Möhle, Sebastiani & Biere, "Four Flavors of Entailment", SAT
2020).  For the encoding this skips the level variables of every chain
whose owner atom is false, which cannot change the model.  The stop needs
every projection variable to be a formula variable, not a Tseitin
auxiliary, and changes neither the models found nor their order.

Variables (``Var``) and formula nodes are immutable tuples, built, hashed
and compared in C.  A variable's hash is the hash of its field tuple.  A
formula node is a plain tuple, of no class of its own: its tag, then its
fields.  Nodes with different tags never compare equal, and the folder, the
clausifier, the evaluator and the node count dispatch on the tag.
``build_f``, ``tseitin_cnf`` and ``enumerate_models`` run with the cyclic
collector paused: they make many tracked tuples and lists and no reference
cycle.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, partial
from itertools import chain, filterfalse, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .common import BudgetExceededError, collector_paused
from .core import Program
# Bound under private names: perfbench/tracing.py pins the code, names included,
# of functions here that call them.
from .core import require_dual_normal as _require_dual_normal

# ---------------------------------------------------------------------------
# Variables


class Var(NamedTuple):
    """kind 'base': a program atom; 'pad': the padding variable t itself;
    'level': atom (or t, encoded as atom=None) at elimination level i for
    owner m."""

    kind: str
    atom: Optional[int] = None
    owner: Optional[int] = None
    level: Optional[int] = None


PAD = Var("pad")


# Builds a Var from its field tuple without the Python-level ``Var.__new__``.
_new_var = partial(tuple.__new__, Var)


def base_var(atom: int) -> Var:
    return _new_var(("base", atom, None, None))


def level_var(atom: Optional[int], owner: int, level: int) -> Var:
    return _new_var(("level", atom, owner, level))


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

# A formula node is a plain tuple of its tag and its fields: (_VAR, var),
# (_CONST, value), (_NOT, arg), (_AND, args), (_OR, args), (_IMPLIES, lhs,
# rhs) or (_IFF, lhs, rhs), where ``args`` is a tuple of nodes.
_VAR, _CONST, _NOT, _AND, _OR, _IMPLIES, _IFF = range(7)

Formula = tuple  # the annotation of a formula node


def FVar(var: Var) -> Formula:
    return (_VAR, var)


def FConst(value: bool) -> Formula:
    return (_CONST, value)


def FNot(arg: Formula) -> Formula:
    return (_NOT, arg)


def FAnd(args: tuple[Formula, ...]) -> Formula:
    return (_AND, args)


def FOr(args: tuple[Formula, ...]) -> Formula:
    return (_OR, args)


def FImplies(lhs: Formula, rhs: Formula) -> Formula:
    return (_IMPLIES, lhs, rhs)


def FIff(lhs: Formula, rhs: Formula) -> Formula:
    return (_IFF, lhs, rhs)


TRUE = FConst(True)
FALSE = FConst(False)


def conj(args: Sequence[Formula]) -> Formula:
    """Conjunction; empty is true, singletons collapse."""
    if not args:
        return TRUE
    if len(args) == 1:
        return args[0]
    return (_AND, tuple(args))


def disj(args: Sequence[Formula]) -> Formula:
    """Disjunction; empty is false, singletons collapse."""
    if not args:
        return FALSE
    if len(args) == 1:
        return args[0]
    return (_OR, tuple(args))


def node_count(f: Formula) -> int:
    count = 0
    stack = [f]
    while stack:
        node = stack.pop()
        count += 1
        tag = node[0]
        if tag == _AND or tag == _OR:
            stack.extend(node[1])
        elif tag != _VAR and tag != _CONST:
            stack.extend(node[1:])
    return count


def _kleene(f: Formula, value_of: Callable[[Var], Optional[bool]]) -> Optional[bool]:
    """Three-valued (Kleene) value of a formula: ``value_of`` gives each
    variable's value, None for unknown.  Conjunctions and disjunctions stop
    at their first deciding argument, an implication skips its right side
    when the left is false."""
    tag = f[0]
    if tag == _VAR:
        return value_of(f[1])
    if tag == _CONST:
        return f[1]
    if tag == _NOT:
        a = _kleene(f[1], value_of)
        return None if a is None else not a
    if tag == _AND or tag == _OR:
        decisive = tag == _OR
        out: Optional[bool] = not decisive
        for arg in f[1]:
            a = _kleene(arg, value_of)
            if a is decisive:
                return a
            if a is None:
                out = None
        return out
    if tag == _IMPLIES:
        a = _kleene(f[1], value_of)
        if a is False:
            return True
        b = _kleene(f[2], value_of)
        return b if a or b else None
    if tag == _IFF:
        a, b = _kleene(f[1], value_of), _kleene(f[2], value_of)
        return None if a is None or b is None else a == b
    raise TypeError(f"not a formula: {f!r}")


def eval_formula(f: Formula, assignment: dict[Var, bool]) -> bool:
    """Two-valued value of a formula under an assignment of its variables."""
    return _kleene(f, assignment.__getitem__)


# ---------------------------------------------------------------------------
# Encoding
#
# The builders share one node per variable: the base nodes of a program, and
# each level's nodes of an owner's chain, which are the next level's ``prev``.
# Level nodes map atoms to their nodes and None to t's.


def _base_nodes(atoms: Sequence[int]) -> dict[int, Formula]:
    return {a: (_VAR, base_var(a)) for a in atoms}


def _level_nodes(atoms: Sequence[int], m: int, i: int) -> dict[Optional[int], Formula]:
    return {a: (_VAR, _new_var(("level", a, m, i))) for a in (*atoms, None)}


def _eliminations(prog: Program, atoms: Sequence[int], base: dict[int, Formula]) -> list[tuple]:
    """Each atom in order, then t (None), with its proper elimination rules
    (the rules with it as the one positive body, or none for t) as pairs of
    head atoms and negative-body nodes."""
    by_body: dict[tuple[int, ...], list] = {}
    for r in prog.rules:
        if r.head:
            by_body.setdefault(r.body_pos, []).append((r.head, [base[b] for b in r.body_neg]))
    keys: list[tuple[Optional[int], tuple[int, ...]]] = [(a, (a,)) for a in atoms]
    keys.append((None, ()))
    return [(a, by_body.get(body, [])) for a, body in keys]


def _f0(m: int, atoms: Sequence[int], nodes: dict, base: dict[int, Formula]) -> Formula:
    parts: list[Formula] = [(_NOT, nodes[m]), nodes[None]]
    parts.extend((_IFF, nodes[a], base[a]) for a in atoms if a != m)
    return (_AND, tuple(parts))


def _fi(eliminations: list[tuple], m: int, prev: dict, cur: dict) -> Formula:
    """One level: a survivor is one at ``prev`` none of whose elimination
    rules fires, that is, each keeps a head atom at ``prev`` or is discarded
    by the reduct (a negative body atom holds in the candidate model)."""
    parts: list[Formula] = []
    for a, rules in eliminations:
        if a == m:
            continue
        survival = conj([disj([prev[h] for h in head] + negs) for head, negs in rules])
        parts.append((_IFF, cur[a], (_AND, (prev[a], survival))))
    return (_AND, tuple(parts)) if len(parts) > 1 else parts[0]


def _fmod(prog: Program, base: dict[int, Formula]) -> Formula:
    parts = []
    for r in prog.rules:
        lits: list[Formula] = [base[a] for a in sorted(set(r.head) | set(r.body_neg))]
        lits.extend((_NOT, base[b]) for b in r.body_pos)
        parts.append(disj(lits))
    return conj(parts)


def build_f0(prog: Program, m: int) -> Formula:
    """Level 0: the owner atom is eliminated, t survives, every other atom
    survives exactly when the candidate model contains it."""
    if m not in prog.atom_ids:
        raise ValueError(f"atom {prog.table.describe(m)} does not occur in the program")
    atoms = sorted(prog.atom_ids)
    return _f0(m, atoms, _level_nodes(atoms, m, 0), _base_nodes(atoms))


def build_fi(prog: Program, m: int, i: int) -> Formula:
    """Level i (1 <= i <= p): each survivor variable is the conjunction of
    its previous level and the survival condition of its elimination rules."""
    _require_dual_normal(prog)
    if m not in prog.atom_ids:
        raise ValueError(f"atom {prog.table.describe(m)} does not occur in the program")
    atoms = sorted(prog.atom_ids)
    if not 1 <= i <= len(atoms):
        raise ValueError(f"level {i} out of range 1..{len(atoms)}")
    eliminations = _eliminations(prog, atoms, _base_nodes(atoms))
    return _fi(eliminations, m, _level_nodes(atoms, m, i - 1), _level_nodes(atoms, m, i))


def build_fmod(prog: Program) -> Formula:
    """Classical satisfaction of every rule by the candidate model."""
    return _fmod(prog, _base_nodes(sorted(prog.atom_ids)))


@collector_paused
def build_f(prog: Program) -> Formula:
    """The full encoding: the candidate is a classical model, and for every
    atom it contains, the elimination chain for excluding that atom kills t
    within p levels."""
    _require_dual_normal(prog)
    atoms = sorted(prog.atom_ids)
    base = _base_nodes(atoms)
    eliminations = _eliminations(prog, atoms, base)
    parts: list[Formula] = [_fmod(prog, base)]
    for m in atoms:
        prev = _level_nodes(atoms, m, 0)
        chain: list[Formula] = [_f0(m, atoms, prev, base)]
        for i in range(1, len(atoms) + 1):
            cur = _level_nodes(atoms, m, i)
            chain.append(_fi(eliminations, m, prev, cur))
            prev = cur
        chain.append((_NOT, prev[None]))
        parts.append((_IMPLIES, base[m], (_AND, tuple(chain))))
    return conj(parts)


def declared_vars(prog: Program) -> list[Var]:
    """The documented DIMACS variable layout for this program's encoding.
    No clause defines ``t`` or an owner's own level variables ``m^i_m`` for
    i >= 1, so a solver may set them freely: count models projected on the
    atom variables (README, "DIMACS output")."""
    atoms = sorted(prog.atom_ids)
    p = len(atoms)
    out: list[Var] = [base_var(a) for a in atoms]
    out.append(PAD)
    for m in atoms:
        for i in range(p + 1):
            out += [_new_var(("level", a, m, i)) for a in (*atoms, None)]
    return out


# ---------------------------------------------------------------------------
# Clausification


class CnfInstance:
    """A CNF over variables 1..``num_vars`` with its layout: ``var_index``
    maps the structured variables to their indices, and ``var_names`` maps
    indices to display names.  The names are built by ``namer`` on first
    read (none without one), so a search that never reads them never builds
    them.

    ``formula`` is the formula ``tseitin_cnf`` clausified, constants folded
    away, over variables of ``var_index``; the enumerator evaluates it to
    stop a model at its projection.  An instance built by hand has none and
    is searched until every variable is set."""

    def __init__(
        self,
        num_vars: int,
        clauses: list[tuple[int, ...]],
        var_index: dict[Var, int],
        namer: Optional[Callable[[Var], str]] = None,
    ) -> None:
        self.num_vars = num_vars
        self.clauses = clauses
        self.var_index = var_index
        self._namer = namer

    formula: Optional[Formula] = None

    @cached_property
    def var_names(self) -> dict[int, str]:
        namer = self._namer
        return {} if namer is None else {idx: namer(v) for v, idx in self.var_index.items()}


def _fold(f: Formula, found: list[Var]) -> Formula:
    """Compile constants away; the result contains no constant unless it is one.

    Appends to ``found`` the variable of every variable node in the result
    (what a pruned subtree appended is cut off again).  A node none of whose
    children changed is returned as it is.  Variable arguments of a
    conjunction or disjunction are taken in place, without a call.
    """
    tag = f[0]
    if tag == _VAR:
        found.append(f[1])
        return f
    if tag == _CONST:
        return f
    if tag == _NOT:
        a = _fold(f[1], found)
        if a[0] == _CONST:
            return FALSE if a[1] else TRUE
        return f if a is f[1] else (_NOT, a)
    if tag == _AND or tag == _OR:
        is_and = tag == _AND
        mark = len(found)
        flat = []
        same = True
        for arg in f[1]:
            if arg[0] == _VAR:
                found.append(arg[1])
                flat.append(arg)
                continue
            g = _fold(arg, found)
            if g[0] == _CONST:
                if g[1] != is_and:
                    del found[mark:]
                    return g
                same = False
                continue
            same = same and g is arg
            flat.append(g)
        if len(flat) > 1:
            if same:
                return f
            return (tag, tuple(flat))
        if flat:
            return flat[0]
        return TRUE if is_and else FALSE
    if tag == _IMPLIES or tag == _IFF:
        mark = len(found)
        lhs, rhs = _fold(f[1], found), _fold(f[2], found)
        if lhs[0] != _CONST and rhs[0] != _CONST:
            if lhs is f[1] and rhs is f[2]:
                return f
            return (tag, lhs, rhs)
        if tag == _IMPLIES:
            if lhs[0] == _CONST:
                if lhs[1]:
                    return rhs
                del found[mark:]
                return TRUE
            if rhs[1]:
                del found[mark:]
                return TRUE
            return (_NOT, lhs)
        if lhs[0] == _CONST:
            lhs, rhs = rhs, lhs
        if lhs[0] == _CONST:  # both constant
            return TRUE if lhs[1] == rhs[1] else FALSE
        return lhs if rhs[1] else (_NOT, lhs)
    raise TypeError(f"not a formula: {f!r}")


@collector_paused
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
    found: list[Var] = []
    g = _fold(f, found)
    var_index: dict[Var, int] = {}
    for v in ensure_vars or ():
        var_index.setdefault(v, len(var_index) + 1)
    for v in sorted(set(found).difference(var_index), key=var_sort_key):
        var_index[v] = len(var_index) + 1
    clauses: list[tuple[int, ...]] = []
    next_var = len(var_index)

    def encode(node: Formula) -> int:
        nonlocal next_var
        tag = node[0]
        if tag == _VAR:
            return var_index[node[1]]
        if tag == _NOT:
            return -encode(node[1])
        if tag == _AND or tag == _OR:
            lits = [var_index[a[1]] if a[0] == _VAR else encode(a) for a in node[1]]
            next_var += 1
            aux = next_var
            if tag == _AND:
                for lit in lits:
                    clauses.append((-aux, lit))
                clauses.append((aux, *[-lit for lit in lits]))
            else:
                for lit in lits:
                    clauses.append((aux, -lit))
                clauses.append((-aux, *lits))
            return aux
        if tag == _IMPLIES or tag == _IFF:
            a, b = encode(node[1]), encode(node[2])
            next_var += 1
            aux = next_var
            if tag == _IMPLIES:
                clauses.append((-aux, -a, b))
                clauses.append((aux, a))
                clauses.append((aux, -b))
            else:
                clauses.append((-aux, -a, b))
                clauses.append((-aux, a, -b))
                clauses.append((aux, a, b))
                clauses.append((aux, -a, -b))
            return aux
        raise TypeError(f"constants should have been folded away: {node!r}")

    def assert_node(node: Formula) -> None:
        # top-level conjunctive spine: no auxiliaries for flat structure
        tag = node[0]
        if tag == _AND:
            for arg in node[1]:
                assert_node(arg)
        elif tag == _OR:
            clauses.append(tuple([encode(a) for a in node[1]]))
        elif tag == _IMPLIES:
            clauses.append((-encode(node[1]), encode(node[2])))
        elif tag == _IFF:
            a, b = encode(node[1]), encode(node[2])
            clauses.append((-a, b))
            clauses.append((a, -b))
        else:
            clauses.append((encode(node),))

    if g[0] != _CONST:
        assert_node(g)
    elif not g[1]:
        clauses.append(())
    # the two recursive closures reach each other through their cells, a
    # cycle that would keep the clauses alive until the collector finds it
    del encode, assert_node
    cnf = CnfInstance(next_var, clauses, var_index, namer=namer)
    cnf.formula = g
    return cnf


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

    With the instance's formula, a model is taken before the rest is
    decided.  When every projection variable is set, propagation is at a
    conflict-free fixpoint and only projection variables were decided, the
    formula is evaluated in Kleene's three-valued logic over the trail.  If
    it is true, it holds under every extension, so the projection extends
    to a model of the formula, and through the definitions to one of the
    clauses; the blocking clauses mention projection variables only and
    hold on the trail, so they hold there too (entailment: Möhle, Sebastiani
    & Biere, SAT 2020).  The projection is yielded and blocked as after a
    total model.  Every trail literal follows from the clauses and the
    projection decisions, and false-first branching in a fixed order
    without restarts finds the projections in lexicographic order, so the
    full search would have found the same projection next: the stop skips
    the decisions in between and keeps the order.  Evaluating only before
    the first other decision bounds the evaluations by the visits to a
    complete projection.  The stop applies only when every projection
    variable is a formula variable (an index up to ``len(var_index)``): the
    formula says nothing of the value a Tseitin auxiliary was given.

    Values and watch lists are lists indexed by the signed literal (``-v``
    lands at ``len - v``, past every positive index); levels and reasons are
    indexed by variable.  A longer clause is a list that keeps a literal it
    implies at position 0.  A binary clause, learnt ones included, is an
    implication entry (MiniSat: Eén & Sörensson 2003): each of its literals'
    watch lists holds the other literal, which is the reason of what it
    implies.  The entries stand where the clause's two watches would, so
    propagation, conflicts and steps are those of a watched binary list.
    """

    def __init__(self, cnf: CnfInstance, project: Iterable[int]):
        num_vars = cnf.num_vars
        self.project = sorted(set(project))
        for v in self.project:
            if not 1 <= v <= num_vars:
                raise ValueError(f"projection variable {v} is outside 1..{num_vars}")
        self.projected = set(self.project)
        self.var_index = cnf.var_index
        # the formula vouches for a projection only over its own variables
        in_formula = not self.project or self.project[-1] <= len(self.var_index)
        self.formula = cnf.formula if in_formula else None
        self.order = self.project + list(filterfalse(self.projected.__contains__, range(1, num_vars + 1)))
        self.next = 0  # every variable before order[next] is assigned
        self.value: list[Optional[bool]] = [None] * (2 * num_vars + 1)
        self.watches: list[list] = [[] for _ in repeat(None, 2 * num_vars + 1)]
        self.level = [0] * (num_vars + 1)
        self.reason: list[list[int] | int | None] = [None] * (num_vars + 1)
        self.seen = [False] * (num_vars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []  # trail length at each decision
        self.qhead = 0
        self.unsat = False
        self.steps = 0
        clauses = cnf.clauses
        literals = set(chain.from_iterable(clauses))
        if literals and (0 in literals or min(literals) < -num_vars or max(literals) > num_vars):
            bad = next(lit for lit in chain.from_iterable(clauses) if not 0 < abs(lit) <= num_vars)
            raise ValueError(f"clause literal {bad} is outside variables 1..{num_vars}")
        watches, value = self.watches, self.value
        for clause in clauses:
            # the two watches must differ: the short clauses, most of them,
            # are compared literal by literal, the others deduplicated
            n = len(clause)
            if n == 2:
                a, b = clause
                if a != b:
                    watches[a].append(b)
                    watches[b].append(a)
                    continue
                c = [a]
            elif n == 3:
                a, b, d = clause
                if a != b != d != a:
                    c = [a, b, d]
                    watches[a].append(c)
                    watches[b].append(c)
                    continue
                c = list(dict.fromkeys(clause))
            else:
                c = list(dict.fromkeys(clause))
            if len(c) > 1:
                self._watch(c)
            elif not c or value[c[0]] is False:
                self.unsat = True
            elif value[c[0]] is None:
                self._assign(c[0], None)

    def _assign(self, lit: int, reason: list[int] | int | None) -> None:
        self.value[lit] = True
        self.value[-lit] = False
        self.level[abs(lit)] = len(self.trail_lim)
        self.reason[abs(lit)] = reason
        self.trail.append(lit)

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation of the trail from the queue head: a falsified
        clause, or None at the fixpoint."""
        value, watches = self.value, self.watches
        trail, level, reason = self.trail, self.level, self.reason
        lvl = len(self.trail_lim)
        start = qhead = self.qhead
        try:
            while qhead < len(trail):
                false_lit = -trail[qhead]
                qhead += 1
                ws = watches[false_lit]
                i = j = 0
                end = len(ws)
                while i < end:
                    c = ws[i]
                    i += 1
                    if type(c) is int:  # a binary clause: c is its other literal
                        ws[j] = c
                        j += 1
                        known = value[c]
                        if known:
                            continue
                        if known is False:
                            ws[j:] = ws[i:]
                            return [c, false_lit]
                        value[c] = True
                        value[-c] = False
                        var = c if c > 0 else -c
                        level[var] = lvl
                        reason[var] = false_lit
                        trail.append(c)
                        continue
                    if c[0] == false_lit:
                        c[0] = c[1]
                        c[1] = false_lit
                    first = c[0]
                    if value[first]:
                        ws[j] = c
                        j += 1
                        continue
                    k, n = 2, len(c)
                    while k < n:
                        lit = c[k]
                        if value[lit] is not False:
                            c[1] = lit
                            c[k] = false_lit
                            watches[lit].append(c)
                            break
                        k += 1
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
        finally:
            self.qhead = qhead
            self.steps += qhead - start

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
            if type(clause) is int:
                clause = (clause,)
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
        v = abs(self.trail[start])
        # the order is the projection, then every other variable ascending
        i = bisect_left(self.project, v)
        self.next = i if v in self.projected else len(self.project) + v - 1 - i
        value = self.value
        for lit in self.trail[start:]:
            value[lit] = value[-lit] = None
        del self.trail[start:]
        del self.trail_lim[lvl:]
        self.qhead = start

    def _watch(self, c: list[int]) -> None:
        """Watch a clause of distinct literals: a binary one as two
        implication entries, a longer one by its first two literals."""
        if len(c) == 2:
            self.watches[c[0]].append(c[1])
            self.watches[c[1]].append(c[0])
        else:
            self.watches[c[0]].append(c)
            self.watches[c[1]].append(c)

    def _add_asserting(self, clause: list[int]) -> None:
        """Add a clause whose first literal is unassigned and whose others
        are false, and assign that literal."""
        if len(clause) > 1:
            self._watch(clause)
        self._assign(clause[0], clause[1] if len(clause) == 2 else clause)

    def projections(self, max_steps: int) -> Iterator[frozenset[int]]:
        """Yield the true projection variables of each distinct projection
        of a model; more than ``max_steps`` propagated literals in all raise
        BudgetExceededError."""
        if self.unsat:
            return
        order, value, trail, trail_lim = self.order, self.value, self.trail, self.trail_lim
        formula, index, projected = self.formula, self.var_index, self.projected
        n_project = len(self.project)

        def value_of(v: Var) -> Optional[bool]:
            return value[index[v]]

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
            if nxt < len(order) and not (
                # every projection variable is set and nothing else decided:
                # stop if the formula is already true
                nxt >= n_project
                and formula is not None
                and (not trail_lim or abs(trail[trail_lim[-1]]) in projected)
                and _kleene(formula, value_of)
            ):
                trail_lim.append(len(trail))
                self._assign(-order[nxt], None)
                continue
            yield frozenset(v for v in self.project if value[v])
            # the projection decisions are the first levels; block them
            blocking = [-trail[i] for i in reversed(trail_lim) if abs(trail[i]) in projected]
            if not blocking:
                return
            self._backjump(len(blocking) - 1)
            self._add_asserting(blocking)


@collector_paused
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
    return list(_Dpll(cnf, project).projections(max_steps))


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
