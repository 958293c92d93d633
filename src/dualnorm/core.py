"""Ground disjunctive programs: atoms, rules, and the basic semantic operations.

Atoms are interned in an append-only :class:`AtomTable` and referenced by
integer id everywhere else.  Rules and programs are immutable once built;
interpretations are plain ``frozenset`` objects of atom ids.  Atom names
starting with ``__`` are reserved for generated atoms (fresh atoms introduced
by transformations); user programs may not use that prefix.

A :class:`Rule` is a named tuple of its three fields, so it is built, hashed
and compared in C: its hash is the hash of its field tuple, and it compares
equal to the plain tuple of its fields.

The exhaustive semantics and the SE-set questions run on one kernel,
:class:`SubsetLattice`: a set of masks is an int of 2^m bits, and adding or
removing bit b of every mask in it is one shift and one AND with the truth
table of b, kept once per m up to 20 bits.  :class:`TruthTables` is the
lattice of a universe of k atoms with a program's rules as tables, so that
a rule is tested against all 2^k interpretations with one big-int op per
literal; its :meth:`TruthTables.row` is the one reduct question that the
``oracle`` and ``seue.se_models`` ask.  ``seue`` keeps each SE-set as its
rows, one table of 2^k bits a row.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .common import OracleBudget, ProgramClassError

RESERVED_PREFIX = "__"


class AtomTable:
    """Append-only bijection between atom names and small integer ids.

    Ids are assigned in first-occurrence order.  Generated atoms (reserved
    ``__`` prefix) are allocated through :meth:`fresh` or :meth:`generated`;
    the latter keeps a registry so the same logical atom (e.g. the copy of
    ``y`` owned by ``x``) maps to the same id across calls.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        # the name of an id: the list's own lookup, no Python frame a call
        self.name_of: Callable[[int], str] = self._names.__getitem__
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

    def describe(self, aid: int) -> str:
        """An id's quoted name for a message, or the id if no atom has it."""
        return repr(self._names[aid]) if 0 <= aid < len(self._names) else f"id {aid}"

    def names_of(self, aids: Iterable[int]) -> list[str]:
        """Names of the given atoms in name-lexicographic order."""
        return sorted(self._names[a] for a in aids)

    def atoms(self) -> list["Atom"]:
        return [Atom(i, name) for i, name in enumerate(self._names)]

    def unused_name(self, stem: str) -> str:
        """A generated-atom name not in the table: ``stem`` with the reserved
        prefix, uniquified if taken.  Nothing is interned."""
        if not stem.startswith(RESERVED_PREFIX):
            stem = RESERVED_PREFIX + stem
        name = stem
        k = 1
        while name in self._ids:
            k += 1
            name = f"{stem}_{k}"
        return name

    def fresh(self, stem: str) -> int:
        """Intern a new generated atom, named by :meth:`unused_name`."""
        return self.intern(self.unused_name(stem))

    def generated(self, key: tuple, stem: str) -> int:
        """Stable generated atom: the same key always yields the same id."""
        aid = self._registry.get(key)
        if aid is None:
            aid = self.fresh(stem)
            self._registry[key] = aid
        return aid


class Atom(NamedTuple):
    id: int
    name: str


class Rule(NamedTuple):
    """A ground disjunctive rule ``head <- body_pos, not body_neg``.

    Every field is a duplicate-free tuple of atom ids in ascending order.
    """

    head: tuple[int, ...]
    body_pos: tuple[int, ...]
    body_neg: tuple[int, ...]

    @staticmethod
    def of(head: Iterable[int], body_pos: Iterable[int] = (), body_neg: Iterable[int] = ()) -> "Rule":
        # tuple.__new__ skips the Python-level __new__ of a NamedTuple; an
        # empty field needs no call
        return tuple.__new__(
            Rule,
            (
                sorted_ids(head) if head else (),
                sorted_ids(body_pos) if body_pos else (),
                sorted_ids(body_neg) if body_neg else (),
            ),
        )

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


def sorted_ids(atoms: Iterable[int]) -> tuple[int, ...]:
    """The distinct atoms in ascending order; a list or tuple of at most one
    atom is already that, and one of two is put in order by comparing them."""
    if isinstance(atoms, (list, tuple)):
        n = len(atoms)
        if n < 2:
            return tuple(atoms)
        if n == 2:
            a, b = atoms
            return (a, b) if a < b else (b, a) if b < a else (a,)
    return tuple(sorted(set(atoms)))


class Program:
    """An immutable, duplicate-free sequence of rules over one atom table.
    Programs compare and hash by identity."""

    def __init__(self, table: AtomTable, rules: tuple[Rule, ...]) -> None:
        self.__dict__.update(table=table, rules=rules)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    @staticmethod
    def of(table: AtomTable, rules: Iterable[Rule]) -> "Program":
        return Program(table, tuple(dict.fromkeys(rules)))

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
    def reduct_view(self) -> "ReductView":
        """What every reduct of this program is built from, made once."""
        return ReductView(self.rules)

    @cached_property
    def dual_normal(self) -> bool:
        """Every proper rule has at most one positive body atom."""
        return all(r.is_dual_normal for r in self.rules)

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


class ReductView:
    """Per-program data for reducts, over the program's rules (not the
    program, which holds the view).

    ``compiled`` is the program's proper rules compiled for the elimination,
    once, on first use (``dualhorn.reduct_closure``): every reduct closure
    shares it, and disables the rules whose negative body meets its
    interpretation.  ``closure`` is a one-entry memo for the last
    interpretation asked about, replaced when another comes: its reduct
    closure, which the answer-set check and the UE test both read.  Neither
    holds the view, so the program goes with its last reference.
    """

    def __init__(self, rules: tuple[Rule, ...]) -> None:
        self.rules = rules
        self.compiled = None
        self.closure = None

    @cached_property
    def proper(self) -> tuple[tuple[tuple[int, ...], Rule], ...]:
        """Each proper rule's negative body with the rule stripped of it (the
        rule itself when that body is empty), in program order."""
        return tuple((r.body_neg, Rule(r.head, r.body_pos, ()) if r.body_neg else r) for r in self.rules if r.head)

    def reduct_proper(self, interp: frozenset[int]) -> list[Rule]:
        """The proper rules of the reduct w.r.t. ``interp``, deduplicated,
        in program order: the stripped rules whose negative body misses it."""
        return list(dict.fromkeys([r for neg, r in self.proper if interp.isdisjoint(neg)]))

    @cached_property
    def model_test(self) -> list[tuple[frozenset[int], frozenset[int]]]:
        """Each rule as its positive body and the set of its head and
        negative-body atoms: an interpretation violates the rule when it
        holds the first and misses the second."""
        return [(frozenset(r.body_pos), frozenset(r.head + r.body_neg)) for r in self.rules]


def satisfies(interp: frozenset[int], rule: Rule) -> bool:
    """Classical satisfaction: some head or negative-body atom is in the
    interpretation, or some positive-body atom is missing from it."""
    return (
        any(a in interp for a in rule.head)
        or any(a in interp for a in rule.body_neg)
        or any(a not in interp for a in rule.body_pos)
    )


def is_model(interp: frozenset[int], prog: Program) -> bool:
    """Every rule of the program is classically satisfied.

    A program that holds its reduct view was asked a reduct question, and
    is likely asked again: it is tested on the view's per-rule sets, which
    take about three scans to build and less than half a scan to test.  A
    program asked once is scanned."""
    view = prog.__dict__.get("reduct_view")
    if view is not None:
        for pos, rest in view.model_test:
            if pos <= interp and interp.isdisjoint(rest):
                return False
        return True
    for r in prog.rules:
        if interp.issuperset(r.body_pos) and interp.isdisjoint(r.head) and interp.isdisjoint(r.body_neg):
            return False
    return True


def reduct(prog: Program, interp: frozenset[int]) -> Program:
    """Gelfond-Lifschitz reduct: drop rules whose negative body meets the
    interpretation, strip negative bodies from the rest."""
    kept = [
        Rule(r.head, r.body_pos, ())
        for r in prog.rules
        if not any(a in interp for a in r.body_neg)
    ]
    return Program.of(prog.table, kept)


def truth_table(k: int, i: int) -> int:
    """The truth table of atom i of k: an int of 2^k bits whose bit s is
    set when the mask s holds bit i, built by doubling."""
    width = 1 << i
    table = (1 << width) - 1 << width
    width <<= 1
    while width >> k == 0:
        table |= table << width
        width <<= 1
    return table


def _tables_down(k: int, bits: Iterable[int]) -> Iterator[tuple[int, int]]:
    """``(2^b, T[b])`` for each bit b of ``bits``, which descend: the first
    is :func:`truth_table`, and each one below is made from the last, the
    table of bit b - 1 being ``T[b] ^ T[b] >> 2^(b-1)``, one shift and one
    XOR, so that only one table is held at a time."""
    table = None
    for b in bits:
        if table is None:
            table = truth_table(k, b)
        else:
            for c in range(above - 1, b - 1, -1):
                table ^= table >> (1 << c)
        above = b
        yield 1 << b, table


def truth_tables(k: int) -> list[int]:
    """``truth_table(k, i)`` for each of k atoms: the highest one, then
    each one below made from the one above it."""
    return [t for _, t in _tables_down(k, range(k - 1, -1, -1))][::-1]


def table_masks(table: int) -> list[int]:
    """The set bit positions of a table, the masks it holds, ascending.  The
    binary string of a table longer than ``_PART_BITS`` bits is made a part
    of that many bits at a time."""
    if table.bit_length() <= _PART_BITS:
        return _ones(format(table, "b")[::-1])
    return [r * _PART_BITS + x for r, part in table_rows(table, _PART_BITS).items() for x in table_masks(part)]


_PART_BITS = 1 << 18
_ONE = re.compile("1")


def _ones(bits: str) -> list[int]:
    """The indices of the ``1`` characters of a string."""
    return list(map(re.Match.start, _ONE.finditer(bits)))


def table_rows(table: int, width: int) -> dict[int, int]:
    """The rows of ``width`` bits (a power of two) of a table that have a
    bit set: row r is the table's bits from r * width on.  Rows that fill
    bytes are read from the table's bytes; narrower ones are shifted out."""
    if width < 8:
        rows = {r: table >> r * width & (1 << width) - 1 for r in range(-(-table.bit_length() // width))}
    else:
        size = width // 8
        data = table.to_bytes(-(-table.bit_length() // 8), "little")
        rows = {i // size: int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)}
    return {r: row for r, row in rows.items() if row}


def table_of_rows(rows: dict[int, int], width: int) -> int:
    """The table whose row r of ``width`` bits (a power of two) is
    ``rows[r]`` and whose other rows are empty: the inverse of
    :func:`table_rows`.  Rows that fill bytes are written as bytes;
    narrower ones are shifted into place."""
    if width < 8:
        return sum(row << r * width for r, row in rows.items())
    size = width // 8
    buf = bytearray(size * (max(rows) + 1 if rows else 0))
    for r, row in rows.items():
        buf[r * size : (r + 1) * size] = row.to_bytes(size, "little")
    return int.from_bytes(buf, "little")


def submask_table(mask: int) -> int:
    """The table of the submasks of ``mask``: one shift per atom of it."""
    table = 1
    while mask:
        low = mask & -mask
        table |= table << low
        mask ^= low
    return table


def every_table(step: int, count: int) -> int:
    """The table of the 2^count positions 0, step, 2 * step, ..., by doubling."""
    table = 1
    for j in range(count):
        table |= table << (step << j)
    return table


@lru_cache(maxsize=None)
def _kept_tables(m: int) -> tuple[int, ...]:
    return tuple(truth_tables(m))


class SubsetLattice:
    """The subset lattice of the positions of a table of 2^m bits, position
    s standing for the mask s.  Adding bit b to the positions in a table is
    ``table << 2^b & T[b]``, removing it ``(table & T[b]) >> 2^b``, where
    ``T = truth_tables(m)``.  Up to ``KEPT_BITS`` bits the tables are kept,
    once for each m; above, each closure makes them as it goes, from its
    highest bit down (:func:`_tables_down`)."""

    KEPT_BITS = 20  # 2.6 MB of tables

    def __init__(self, m: int) -> None:
        self.m = m
        self.kept = _kept_tables(m) if m <= self.KEPT_BITS else None

    def tables(self, bits: Iterable[int]) -> Iterable[tuple[int, int]]:
        """``(2^b, T[b])`` for each index bit b of ``bits``."""
        if self.kept is not None:
            return [(1 << b, self.kept[b]) for b in bits]
        return _tables_down(self.m, sorted(bits, reverse=True))

    def up(self, table: int, bits: Iterable[int]) -> int:
        for shift, t in self.tables(bits):
            table |= table << shift & t
        return table

    def down(self, table: int, bits: Iterable[int]) -> int:
        for shift, t in self.tables(bits):
            table |= (table & t) >> shift
        return table

    def spread(self, table: int, bits: Iterable[int]) -> int:
        """The positions that differ from one in ``table`` only in ``bits``."""
        return self.down(self.up(table, bits), bits)

    def strictly_below(self, below: int, bits: Iterable[int]) -> int:
        """From a table closed downwards along ``bits``, the positions with
        a proper superset there along ``bits``: one more step down."""
        out = 0
        for shift, t in self.tables(bits):
            out |= (below & t) >> shift
        return out

    def strictly_above(self, above: int, bits: Iterable[int]) -> int:
        """From a table closed upwards along ``bits``, the positions with a
        proper subset there along ``bits``: one more step up."""
        out = 0
        for shift, t in self.tables(bits):
            out |= above << shift & t
        return out

    def per_bit(self, table: int, bits: Sequence[int], lower, higher) -> Iterator[tuple[int, int, int]]:
        """``(2^i, T[i], C_i)`` for each i of ``bits``, ascending: C_i is
        ``table`` closed by ``lower`` along the bits below i and by
        ``higher`` along those above it.  Each half of ``bits`` is closed
        along the other half once for all its bits, so that the k closures
        take k log k steps in all."""
        if len(bits) > 1:
            half = len(bits) // 2
            yield from self.per_bit(higher(table, bits[half:]), bits[:half], lower, higher)
            yield from self.per_bit(lower(table, bits[:half]), bits[half:], lower, higher)
        elif bits:
            ((shift, t),) = self.tables(bits)
            yield shift, t, table


class TruthTables(SubsetLattice):
    """A program over a universe as truth tables: the subset lattice of the
    masks of its k atoms (bit i of a mask is ``atoms[i]``), where every set
    of interpretations is an int of 2^k bits, bit s for the mask s, and the
    column of ``atoms[i]`` is the lattice's ``T[i]``.  A rule's reduct
    rejects the AND of its literals' columns (positive body in, head out),
    so each test costs one big-int op per literal for all 2^k
    interpretations at once.

    Rules with a positive-body atom outside the universe are satisfied by
    every subset of it and dropped; head and negative-body atoms outside it
    are false.  A rule leaves the reduct by its negative body alone, so
    ``blocks`` maps each blocking table, the interpretations that meet a
    negative body and so drop its rules from their reduct, to the OR of
    those rules' rejections; the rules whose negative body misses the
    universe are the entry of table 0.  Every reader is linear in the
    rejections of one entry, so the merge is exact.  With d distinct
    non-empty blocking tables the kernel holds (k + 2d + 1) * 2^k bits, no
    complement among them: at 22 atoms, some 11 MB of columns, the
    lattice's kept tables up to 20 atoms, and 1 MB per blocking table.

    :meth:`row` is the one reduct question, which SE-models and answer-set
    tests ask alike: the submasks of a mask that model the reduct w.r.t. it.
    """

    def __init__(self, prog: Program, atoms: Sequence[int]) -> None:
        k = len(atoms)
        super().__init__(k)
        # the rules read every column, so above KEPT_BITS the kernel keeps
        # the tables it makes for them
        self.kept = self.kept or tuple(truth_tables(k))
        self.atoms = atoms
        self.full = full = (1 << (1 << k)) - 1
        column = dict(zip(atoms, self.kept))
        self.blocks = blocks = {}
        for r in prog.rules:
            if not all(a in column for a in r.body_pos):
                continue
            rejects, blocked = full, 0
            for a in r.body_pos:
                rejects &= column[a]
            for a in r.head:
                rejects &= ~column.get(a, 0)
            for a in r.body_neg:
                blocked |= column.get(a, 0)
            blocks[blocked] = blocks.get(blocked, 0) | rejects

    @classmethod
    def over(cls, prog: Program, universe: Optional[frozenset[int]], budget: OracleBudget, what: str) -> "TruthTables":
        """The kernel over the sorted universe (default: the program's
        atoms), which ``budget`` bounds for the enumeration ``what``."""
        atoms = sorted(prog.atom_ids if universe is None else universe)
        budget.check(len(atoms), what)
        return cls(prog, atoms)

    def models(self) -> int:
        """The classical models."""
        rejected = 0
        for blocked, rejects in self.blocks.items():
            rejected |= rejects & ~blocked
        return self.full ^ rejected

    def rejections(self, mask: int) -> int:
        """What the reduct w.r.t. the interpretation ``mask`` rejects."""
        rejected = 0
        for blocked, rejects in self.blocks.items():
            if not blocked >> mask & 1:
                rejected |= rejects
        return rejected

    def row(self, mask: int) -> int:
        """The reduct question: the submasks of ``mask`` that model the
        reduct P^mask.  It is the SE row of a model ``mask``, and a model
        is an answer set exactly when its row is ``1 << mask``."""
        return submask_table(mask) & ~self.rejections(mask)

    def locally_minimal(self, interps: int) -> int:
        """The M in ``interps`` such that no M - {a} with a in M models the
        reduct P^M: for each atom, the masks with it whose set without it
        fails a rule they keep.  One shift per atom and negative body."""
        for shift, t in self.tables(range(self.m)):
            fails = 0
            for blocked, rejects in self.blocks.items():
                shifted = rejects << shift & t
                fails |= shifted ^ (shifted & blocked)
            interps &= ~(t ^ fails)
        return interps


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
    if not prog.dual_normal:
        raise ProgramClassError(
            "program is not dual-normal (a proper rule has more than one positive body atom)"
        )


def mask_to_set(atoms: Sequence[int], mask: int) -> frozenset[int]:
    """The atoms at the set bit positions of ``mask`` (bit i is ``atoms[i]``),
    found by walking the set bits only."""
    out = []
    while mask:
        low = mask & -mask
        out.append(atoms[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


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
