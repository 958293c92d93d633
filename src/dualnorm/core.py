"""Ground disjunctive programs: atoms, rules, and the basic semantic operations.

Atoms are interned in an append-only :class:`AtomTable` and referenced by
integer id everywhere else.  Rules and programs are immutable once built;
interpretations are plain ``frozenset`` objects of atom ids.  Atom names
starting with ``__`` are reserved for generated atoms (fresh atoms introduced
by transformations); user programs may not use that prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .common import ProgramClassError

RESERVED_PREFIX = "__"

Interpretation = frozenset  # atom-id sets; universes are passed explicitly


class AtomTable:
    """Append-only bijection between atom names and small integer ids.

    Ids are assigned in first-occurrence order.  Generated atoms (reserved
    ``__`` prefix) are allocated through :meth:`fresh` or :meth:`generated`;
    the latter keeps a registry so the same logical atom (e.g. the copy of
    ``y`` owned by ``x``) maps to the same id across calls.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._registry: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def intern(self, name: str) -> int:
        aid = self._ids.get(name)
        if aid is None:
            aid = len(self._names)
            self._names.append(name)
            self._ids[name] = aid
        return aid

    def id_of(self, name: str) -> int:
        return self._ids[name]

    def name_of(self, aid: int) -> str:
        return self._names[aid]

    def names_of(self, aids: Iterable[int]) -> list[str]:
        """Names of the given atoms in name-lexicographic order."""
        return sorted(self._names[a] for a in aids)

    def atoms(self) -> list["Atom"]:
        return [Atom(i, name) for i, name in enumerate(self._names)]

    def fresh(self, stem: str) -> int:
        """Intern a new generated atom, uniquifying ``stem`` if taken."""
        if not stem.startswith(RESERVED_PREFIX):
            stem = RESERVED_PREFIX + stem
        name = stem
        k = 1
        while name in self._ids:
            k += 1
            name = f"{stem}_{k}"
        return self.intern(name)

    def generated(self, key: tuple, stem: str) -> int:
        """Stable generated atom: the same key always yields the same id."""
        aid = self._registry.get(key)
        if aid is None:
            aid = self.fresh(stem)
            self._registry[key] = aid
        return aid


@dataclass(frozen=True)
class Atom:
    id: int
    name: str


@dataclass(frozen=True)
class Rule:
    """A ground disjunctive rule ``head <- body_pos, not body_neg``.

    Every field is a duplicate-free tuple of atom ids in ascending order.
    """

    head: tuple[int, ...]
    body_pos: tuple[int, ...]
    body_neg: tuple[int, ...]

    @staticmethod
    def of(head: Iterable[int], body_pos: Iterable[int] = (), body_neg: Iterable[int] = ()) -> "Rule":
        return Rule(tuple(sorted(set(head))), tuple(sorted(set(body_pos))), tuple(sorted(set(body_neg))))

    @property
    def is_constraint(self) -> bool:
        return not self.head

    @property
    def is_normal(self) -> bool:
        return len(self.head) <= 1

    @property
    def is_definite(self) -> bool:
        return len(self.head) == 1

    @property
    def is_positive(self) -> bool:
        return not self.body_neg

    @property
    def is_dual_normal(self) -> bool:
        """A constraint, or a proper rule with at most one positive body atom."""
        return not self.head or len(self.body_pos) <= 1

    @property
    def is_dual_horn(self) -> bool:
        return len(self.body_pos) <= 1 and not self.body_neg

    def atom_ids(self) -> frozenset[int]:
        return frozenset(self.head) | frozenset(self.body_pos) | frozenset(self.body_neg)

    def size(self) -> int:
        return len(self.head) + len(self.body_pos) + len(self.body_neg)


@dataclass(frozen=True, eq=False)
class Program:
    """An immutable, duplicate-free sequence of rules over one atom table."""

    table: AtomTable
    rules: tuple[Rule, ...]

    @staticmethod
    def of(table: AtomTable, rules: Iterable[Rule]) -> "Program":
        seen: dict[Rule, None] = {}
        for r in rules:
            if r not in seen:
                seen[r] = None
        return Program(table, tuple(seen))

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    @cached_property
    def atom_ids(self) -> frozenset[int]:
        out: set[int] = set()
        for r in self.rules:
            out.update(r.head)
            out.update(r.body_pos)
            out.update(r.body_neg)
        return frozenset(out)

    @cached_property
    def rules_by_pos_body(self) -> dict[tuple[int, ...], tuple[Rule, ...]]:
        """The rules grouped by positive body, each group in program order."""
        out: dict[tuple[int, ...], list[Rule]] = {}
        for r in self.rules:
            out.setdefault(r.body_pos, []).append(r)
        return {body: tuple(rules) for body, rules in out.items()}

    def atom_names(self) -> list[str]:
        return self.table.names_of(self.atom_ids)

    def size(self) -> int:
        """Total number of atom occurrences (the usual program size measure)."""
        return sum(r.size() for r in self.rules)

    def canonical(self) -> frozenset:
        """Name-based structural fingerprint, independent of atom ids."""
        n = self.table.name_of
        return frozenset(
            (
                tuple(sorted(map(n, r.head))),
                tuple(sorted(map(n, r.body_pos))),
                tuple(sorted(map(n, r.body_neg))),
            )
            for r in self.rules
        )

    def with_rules(self, rules: Iterable[Rule]) -> "Program":
        return Program.of(self.table, rules)


def satisfies(interp: frozenset[int], rule: Rule) -> bool:
    """Classical satisfaction: some head or negative-body atom is in the
    interpretation, or some positive-body atom is missing from it."""
    return (
        any(a in interp for a in rule.head)
        or any(a in interp for a in rule.body_neg)
        or any(a not in interp for a in rule.body_pos)
    )


def is_model(interp: frozenset[int], prog: Program) -> bool:
    return all(satisfies(interp, r) for r in prog.rules)


def reduct(prog: Program, interp: frozenset[int]) -> Program:
    """Gelfond-Lifschitz reduct: drop rules whose negative body meets the
    interpretation, strip negative bodies from the rest."""
    kept = [
        Rule(r.head, r.body_pos, ())
        for r in prog.rules
        if not any(a in interp for a in r.body_neg)
    ]
    return Program.of(prog.table, kept)


def compile_masks(prog: Program, atoms: Sequence[int]) -> list[tuple[int, int, int]]:
    """Rules as (head, pos, neg) bitmasks over the atom order (bit i is
    ``atoms[i]``).

    Rules with a positive-body atom outside the universe are satisfied by
    every subset of the universe and are dropped; head/negative atoms outside
    the universe cannot contribute and are masked away.
    """
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    compiled = []
    for r in prog.rules:
        if any(a not in bit for a in r.body_pos):
            continue
        hmask = sum(bit[a] for a in r.head if a in bit)
        pmask = sum(bit[a] for a in r.body_pos)
        nmask = sum(bit[a] for a in r.body_neg if a in bit)
        compiled.append((hmask, pmask, nmask))
    return compiled


def satisfies_reduct(compiled: list[tuple[int, int, int]], y: int, x: int) -> bool:
    """The mask ``x`` is a model of the reduct of the compiled rules w.r.t.
    the mask ``y``; with ``x == y``, ``y`` is a classical model."""
    for h, p, n in compiled:
        if not (n & y or h & x or p & ~x):
            return False
    return True


def p_t_transform(prog: Program, t: int) -> Program:
    """Add the fresh atom ``t`` to every empty positive body.

    Afterwards every rule has a non-empty positive body.  Rejects a ``t``
    that already occurs in the program.
    """
    if t in prog.atom_ids:
        raise ValueError(f"atom {prog.table.name_of(t)!r} already occurs in the program")
    out = [r if r.body_pos else Rule(r.head, (t,), r.body_neg) for r in prog.rules]
    return Program.of(prog.table, out)


def split(prog: Program) -> tuple[Program, Program]:
    """Partition into proper rules (non-empty head) and constraints."""
    proper = [r for r in prog.rules if r.head]
    constraints = [r for r in prog.rules if not r.head]
    return Program.of(prog.table, proper), Program.of(prog.table, constraints)


def require_dual_normal(prog: Program) -> None:
    """Reject a program with a proper rule of more than one positive body atom."""
    if not all(r.is_dual_normal for r in prog.rules):
        raise ProgramClassError(
            "program is not dual-normal (a proper rule has more than one positive body atom)"
        )


def mask_to_set(atoms: Sequence[int], mask: int) -> frozenset[int]:
    """The atoms at the set bit positions of ``mask`` (bit i is ``atoms[i]``)."""
    return frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)


def submasks_ascending(mask: int) -> list[int]:
    """Every submask of ``mask``, in ascending numeric order."""
    subs = []
    sub = mask
    while True:
        subs.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    subs.reverse()
    return subs


def remap(prog: Program, table: AtomTable) -> Program:
    """Rebuild the program over ``table``, matching atoms by name."""
    old = prog.table
    if old is table:
        return prog
    m = {a: table.intern(old.name_of(a)) for a in sorted(prog.atom_ids)}
    rules = [
        Rule.of((m[a] for a in r.head), (m[a] for a in r.body_pos), (m[a] for a in r.body_neg))
        for r in prog.rules
    ]
    return Program.of(table, rules)


def ensure_shared(p: Program, q: Program) -> tuple[Program, Program]:
    """Place two programs over one shared table (matching atoms by name).

    Programs already sharing a table are returned unchanged; otherwise both
    are remapped into a fresh merged table, p's atoms first.
    """
    if p.table is q.table:
        return p, q
    merged = AtomTable()
    return remap(p, merged), remap(q, merged)
