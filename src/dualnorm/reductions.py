"""Generators reducing classical decision problems to programs.

Two constructions:

* ``qbf_to_program`` turns a 2-level QBF (exists X, forall Y, 3-DNF matrix)
  into a disjunctive program that is consistent exactly when the QBF is
  true.  When every term uses at most one universal body literal the output
  is dual-normal, matching the drop from second-level to NP-complete
  hardness of the restricted QBF class ("complexity-sensitive" reduction).

* ``unsat_to_singular`` turns a 3-CNF into a singular program that is
  strongly equivalent to the canonical inconsistent program ``{a. :- a.}``
  exactly when the CNF is unsatisfiable.
"""

from __future__ import annotations

from typing import NamedTuple

from .common import DEFAULT_BUDGET, OracleBudget
from .core import AtomTable, Program, Rule
from .textio import content_lines, is_atom_name

Literal = tuple[str, bool]  # (variable name, positive?)


class _Qbf2EFields(NamedTuple):
    exists_vars: tuple[str, ...]
    forall_vars: tuple[str, ...]
    terms: tuple[tuple[Literal, Literal, Literal], ...]


class Qbf2E(_Qbf2EFields):
    """exists X forall Y (3-DNF matrix); three literal slots per term,
    repetition allowed."""

    __slots__ = ()

    def __new__(cls, exists_vars: tuple[str, ...], forall_vars: tuple[str, ...], terms: tuple) -> "Qbf2E":
        exists_vars, forall_vars, terms = tuple(exists_vars), tuple(forall_vars), tuple(terms)
        overlap = set(exists_vars) & set(forall_vars)
        if overlap:
            raise ValueError(f"variables both existential and universal: {sorted(overlap)}")
        declared = set(exists_vars) | set(forall_vars)
        for term in terms:
            if len(term) != 3:
                raise ValueError("each term needs exactly 3 literal slots")
            for v, _ in term:
                if v not in declared:
                    raise ValueError(f"undeclared variable {v!r}")
        return tuple.__new__(cls, (exists_vars, forall_vars, terms))


class _Cnf3Fields(NamedTuple):
    clauses: tuple[tuple[int, int, int], ...]


class Cnf3(_Cnf3Fields):
    """A 3-CNF over positive integer variables; three slots per clause."""

    __slots__ = ()

    def __new__(cls, clauses: tuple[tuple[int, ...], ...]) -> "Cnf3":
        clauses = tuple(clauses)
        for clause in clauses:
            if len(clause) != 3:
                raise ValueError("each clause needs exactly 3 literal slots")
            if any(lit == 0 for lit in clause):
                raise ValueError("0 is not a literal")
        return tuple.__new__(cls, (clauses,))

    def variables(self) -> list[int]:
        return sorted({abs(lit) for clause in self.clauses for lit in clause})


def qbf_eval(qbf: Qbf2E, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Brute-force truth of exists X forall Y (matrix)."""
    xs = list(qbf.exists_vars)
    ys = list(qbf.forall_vars)
    budget.check(len(xs) + len(ys), "QBF evaluation")

    def term_true(term, assignment) -> bool:
        return all(assignment[v] == pos for v, pos in term)

    for xmask in range(1 << len(xs)):
        assignment = {v: bool(xmask >> i & 1) for i, v in enumerate(xs)}
        for ymask in range(1 << len(ys)):
            assignment.update({v: bool(ymask >> i & 1) for i, v in enumerate(ys)})
            if not any(term_true(t, assignment) for t in qbf.terms):
                break
        else:
            return True
    return False


def qbf_to_program(qbf: Qbf2E, table: AtomTable | None = None) -> Program:
    """The guess-and-saturate program for a 2-level QBF.

    Existential variables are guessed through complementary disjunctive
    facts; universal variables get saturation rules fired by the witness
    atom ``__w``; each term derives the witness, with existential literals
    moved to the negative body against the complement atoms; a final
    constraint demands the witness.
    """
    if table is None:
        table = AtomTable()
    atom = {v: table.intern(v) for v in qbf.exists_vars + qbf.forall_vars}
    comp = {v: table.generated(("neg", atom[v]), f"__n_{v}") for v in qbf.exists_vars + qbf.forall_vars}
    w = table.generated(("qbf_witness",), "__w")
    universal = set(qbf.forall_vars)

    rules = []
    for x in qbf.exists_vars:
        rules.append(Rule.of((atom[x], comp[x])))
    for y in qbf.forall_vars:
        rules.append(Rule.of((atom[y], comp[y])))
        rules.append(Rule.of((atom[y],), (w,)))
        rules.append(Rule.of((comp[y],), (w,)))
    for term in qbf.terms:
        pos, neg = [], []
        for v, positive in term:
            if v in universal:
                pos.append(atom[v] if positive else comp[v])
            else:
                neg.append(comp[v] if positive else atom[v])
        rules.append(Rule.of((w,), pos, neg))
    rules.append(Rule.of((), (), (w,)))
    return Program.of(table, rules)


def is_complexity_sensitive(qbf: Qbf2E) -> bool:
    """Does every term confine itself to (at most) one universal body literal?

    Distinct universal literals are counted, not atoms: the literals are
    exactly what bounds the positive bodies of the witness rules, so a
    positive verdict guarantees a dual-normal program.  Counting atoms would
    pass a term with both polarities of one universal variable, which still
    produces a two-atom positive body.
    """
    universal = set(qbf.forall_vars)
    return all(len({(v, pos) for v, pos in term if v in universal}) <= 1 for term in qbf.terms)


def unsat_to_singular(cnf: Cnf3, table: AtomTable | None = None) -> Program:
    """The singular program that is strongly equivalent to ``{a. :- a.}``
    exactly when the 3-CNF is unsatisfiable.

    Per variable: complementary guessing rules plus a constraint excluding
    models that keep both polarities (without it, the all-atoms set would be
    a classical model and the program could never lose all its SE-models).
    Per clause: a constraint demanding some literal's atom.
    """
    if table is None:
        table = AtomTable()
    atom = {v: table.intern(f"v{v}") for v in cnf.variables()}
    comp = {v: table.generated(("neg", atom[v]), f"__n_v{v}") for v in cnf.variables()}
    rules = []
    for v in cnf.variables():
        rules.append(Rule.of((atom[v],), (), (comp[v],)))
        rules.append(Rule.of((comp[v],), (), (atom[v],)))
        rules.append(Rule.of((), (atom[v], comp[v])))
    for clause in cnf.clauses:
        neg = [atom[lit] if lit > 0 else comp[-lit] for lit in clause]
        rules.append(Rule.of((), (), neg))
    return Program.of(table, rules)


# ---------------------------------------------------------------------------
# Input formats


def parse_qbf(text: str) -> Qbf2E:
    """Parse the line format::

        exists x1 x2
        forall y1
        term x1 -y1 x2
    """
    def checked(names, lineno):
        for name in names:
            if not is_atom_name(name):
                raise ValueError(f"line {lineno}: invalid variable name {name!r}")
        return names

    exists: list[str] = []
    forall: list[str] = []
    terms = []
    for lineno, line in content_lines(text):
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "exists":
            exists.extend(checked(args, lineno))
        elif kind == "forall":
            forall.extend(checked(args, lineno))
        elif kind == "term":
            if len(args) != 3:
                raise ValueError(f"line {lineno}: a term needs exactly 3 literals")
            terms.append(tuple((a[1:], False) if a.startswith("-") else (a, True) for a in args))
        else:
            raise ValueError(f"line {lineno}: unknown directive {kind!r}")
    return Qbf2E(tuple(exists), tuple(forall), tuple(terms))


def parse_cnf3(text: str) -> Cnf3:
    """Parse ``clause 1 -2 3`` lines into a 3-CNF."""
    clauses = []
    for lineno, line in content_lines(text):
        parts = line.split()
        if parts[0] != "clause":
            raise ValueError(f"line {lineno}: expected 'clause', found {parts[0]!r}")
        try:
            lits = tuple(int(p) for p in parts[1:])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: literals must be integers") from exc
        if len(lits) != 3:
            raise ValueError(f"line {lineno}: a clause needs exactly 3 literals")
        clauses.append(lits)
    return Cnf3(tuple(clauses))
