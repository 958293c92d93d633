"""SE- and UE-models: computation, closure properties, synthesis, and the
polynomial UE-model check for dual-normal programs.

An SE-interpretation is a pair (X, Y) with X a subset of Y.  It is an
SE-model of P when Y is a classical model of P and X a model of the reduct
of P w.r.t. Y; UE-models are the SE-models whose here-component is maximal
among proper subsets of the there-component.  Two programs are strongly
(uniformly) equivalent exactly when their SE-model (UE-model) sets over the
joint universe coincide.

The closure vocabulary on sets of SE-interpretations:

* complete: contains the diagonal of every there-component, and transports
  here-components up to larger diagonal members;
* closed under here-intersection / here-union: intersections / unions of
  here-components with the same there-component stay in the set;
* UE-complete: diagonal condition, a density condition between nested
  diagonal members, and antichain-or-total here-components;
* splittable: unions of here-components below a diagonal member Z either
  appear at Z or fit under some intermediate (Z', Z) in the set.

A set keeps its rows (``SESet.rows``): over the k atoms of the sorted
universe (bit i of a mask is the i-th smallest id), each there-mask Y maps
to the table of its here-masks, an int of 2^k bits.  The UE filter, the
flags, the closure and the syntheses lay the rows out in one int, a grid
(``_Grid``) with bit r * 2^k + x set when (X, Y) is in the set and Y is
its r-th row.  Adding atom i to X moves a bit by 2^i, so each question is
a few closures of ``core.SubsetLattice`` over all there-components at
once: along x for the masks above or below the heres of the same Y, one
per atom for unions (X is one iff each atom of X is in a here of Y inside
X) and for intersections, and, for the heres of the there-components
below Y, an OR across rows: row by row when the set has few rows, else a
closure along y over a row for every mask.  The flags, the closure and
the syntheses refuse more than 14 atoms with ``BudgetExceededError``.

Sets of SE-models of dual-normal programs are exactly the complete,
here-union-closed sets; their UE-model sets are exactly the UE-complete,
splittable ones.  Both directions of those characterizations are
constructive here: ``program_from_se_set`` and ``program_from_ue_set``
synthesize dual-normal programs realizing a given set.  Each checks only
its own precondition; the UE synthesis runs the SE one on the closure it
has built, which is complete and here-union-closed by construction.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .common import DEFAULT_BUDGET, OracleBudget, SynthesisPreconditionError
from .core import AtomTable, Program, Rule, SubsetLattice, TruthTables, ensure_shared, every_table
from .core import submask_table, table_masks, table_of_rows, table_rows
# Bound under private names: perfbench/tracing.py pins the code, names included,
# of functions here that call them.
from .core import mask_to_set as _masked
from .core import require_dual_normal as _require_dual_normal
from .core import submasks_ascending as _subset_masks_ascending
from .dualhorn import reduct_closure

# Flags, closure and syntheses: a grid with a row for every mask is 4^14 bits, 32 MB.
_GRID_BUDGET = OracleBudget(max_atoms=14)


class _SEPairFields(NamedTuple):
    here: frozenset[int]
    there: frozenset[int]


class SEPair(_SEPairFields):
    """An SE-interpretation (X, Y): a tuple ``(here, there)`` with X a subset
    of Y, hashed as that tuple."""

    __slots__ = ()

    def __new__(cls, here: frozenset[int], there: frozenset[int]) -> "SEPair":
        if not here <= there:
            raise ValueError("SE-interpretation requires X to be a subset of Y")
        return tuple.__new__(cls, (here, there))


class _Grid(SubsetLattice):
    """The grid of a set over k atoms: rows of 2^k bits in one int, bit
    r * 2^k + x set when (X, ``ys[r]``) is in the set, with the lattice of
    its positions (the index bits of the here are ``x``).  With fewer pairs
    of rows than 4^k bits have words of ``WORD`` bits, ``ys`` is the
    there-masks of the set, ascending, padded with empty rows to a power of
    two, and ``below`` goes row by row; else ``ys`` is every mask, and
    ``below`` is a closure along the index bits of the there, ``y``.  The
    constants are the positions (Y, Y) and (empty, Y) of the rows."""

    WORD = 64

    def __init__(self, se_set: SESet) -> None:
        self.k = k = len(se_set.atoms)
        rows, width = se_set.rows, 1 << k
        self.by_row = len(rows) ** 2 * self.WORD < 1 << 2 * k
        if self.by_row:
            self.ys = ys = sorted(rows)
            lg = max(len(ys) - 1, 0).bit_length()
            self.heres = table_of_rows(dict(enumerate(map(rows.__getitem__, ys))), width)
            self.diag = table_of_rows({r: 1 << y for r, y in enumerate(ys)}, width)
        else:
            self.ys, lg = range(width), k
            self.heres = table_of_rows(rows, width)
            self.diag = every_table(width + 1, k)
        super().__init__(k + lg)
        self.x, self.y = range(k), range(k, k + lg)
        self.full = (1 << (width << lg)) - 1
        self.empty_x = every_table(width, lg)

    def below(self, table: int) -> int:
        """At the row of each there-mask Z, the OR of the rows of ``table``
        at the there-masks within Z."""
        if not self.by_row:
            return self.up(table, self.y)
        ys, width = self.ys, 1 << self.k
        rows = table_rows(table, width)
        below = {r: reduce(or_, (row for s, row in rows.items() if ys[s] & ~z == 0), 0) for r, z in enumerate(ys)}
        return table_of_rows(below, width)

    def rows_of(self, table: int) -> dict[int, int]:
        """The rows of a table of the grid, by there-mask."""
        return {self.ys[r]: row for r, row in table_rows(table, 1 << self.k).items()}


def _not_unions(grid: _Grid, heres: int) -> int:
    """The (X, Y) with an atom i of X in no here of Y inside X: X is above no here with i."""
    out = 0
    for _, t, above in grid.per_bit(heres, grid.x, grid.up, grid.up):
        out |= t ^ above & t
    return out


def _union_closure(grid: _Grid, heres: int) -> int:
    """At each Y, the unions of heres of Y, and the empty X if it is a here."""
    return grid.full ^ (_not_unions(grid, heres) | grid.empty_x) | heres & grid.empty_x


class SESet:
    """A finite set of SE-interpretations over a declared universe.

    Sets are immutable, and equal when their universes and pairs are (the
    atom table is not compared).  A set keeps its rows, ``rows``: each
    there-mask Y maps to the table of its here-masks (bit X set when (X, Y)
    is in the set; bit i of a mask is ``atoms[i]``).  The rows of a set
    built from SEPairs, and the SEPairs of one built from rows, are made on
    first read.
    """

    def __init__(
        self, table: AtomTable, universe: Iterable[int] = frozenset(), pairs: Iterable[SEPair] = frozenset()
    ) -> None:
        universe, pairs = frozenset(universe), frozenset(pairs)
        for p in pairs:
            if not p.there <= universe:
                raise ValueError("SE-pair outside the declared universe")
        self.__dict__.update(table=table, universe=universe, pairs=pairs)

    @classmethod
    def from_rows(cls, table: AtomTable, atoms: Sequence[int], rows: dict[int, int]) -> "SESet":
        """The set over the sorted universe ``atoms`` with the rows ``rows``:
        each here-mask within its there-mask, no row empty."""
        se_set = object.__new__(cls)
        se_set.__dict__.update(table=table, universe=frozenset(atoms), atoms=tuple(atoms), rows=rows)
        return se_set

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def atoms(self) -> tuple[int, ...]:
        return tuple(sorted(self.universe))

    @cached_property
    def rows(self) -> dict[int, int]:
        bit = {a: 1 << i for i, a in enumerate(self.atoms)}
        rows: dict[int, int] = {}
        for here, there in self.pairs:
            y = sum(map(bit.__getitem__, there))
            rows[y] = rows.get(y, 0) | 1 << sum(map(bit.__getitem__, here))
        return rows

    @cached_property
    def pairs(self) -> frozenset[SEPair]:
        atoms, heres = self.atoms, {y: table_masks(row) for y, row in self.rows.items()}
        sets = {m: _masked(atoms, m) for m in set(heres).union(*heres.values())}
        return frozenset(SEPair(sets[x], sets[y]) for y, xs in heres.items() for x in xs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.universe == other.universe and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.universe, frozenset(self.rows.items())))

    def __repr__(self) -> str:
        return f"SESet(table={self.table!r}, universe={self.universe!r}, pairs={self.pairs!r})"

    def __iter__(self) -> Iterator[SEPair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self.rows.values())

    def __contains__(self, pair: SEPair) -> bool:
        return pair in self.pairs

    def with_pairs(self, pairs: Iterable[SEPair]) -> "SESet":
        return SESet(self.table, self.universe, frozenset(pairs))


class SEProperties(NamedTuple):
    complete: bool
    closed_here_intersection: bool
    closed_here_union: bool
    ue_complete: bool
    splittable: bool

    def to_dict(self) -> dict[str, bool]:
        return self._asdict()


def se_satisfies(pair: SEPair, rule: Rule) -> bool:
    """SE-satisfaction of one rule, by the four-condition characterization:
    the there-component hits the negative body, or misses part of the
    positive body, or the here-component hits the head, or the there-component
    hits the head while the positive body exceeds the here-component."""
    x, y = pair.here, pair.there
    if any(c in y for c in rule.body_neg):
        return True
    if any(b not in y for b in rule.body_pos):
        return True
    if any(a in x for a in rule.head):
        return True
    return any(a in y for a in rule.head) and any(b not in x for b in rule.body_pos)


def se_models(prog: Program, universe: Optional[frozenset[int]] = None, budget: OracleBudget = DEFAULT_BUDGET) -> SESet:
    """All SE-models of the program over the universe (default: its atoms),
    by the definition: Y a model of P, X a model of the reduct P^Y.  On the
    truth tables of ``core.TruthTables``: the models come from one table,
    and the row of each model Y is the table of its submasks less the table
    of what P^Y rejects."""
    kernel = TruthTables.over(prog, universe, budget, "SE-model enumeration")
    rows = {}
    for y in table_masks(kernel.models()):
        heres = submask_table(y)
        rows[y] = heres ^ heres & kernel.rejections(y)
    return SESet.from_rows(prog.table, kernel.atoms, rows)


def ue_models(se_set: SESet) -> SESet:
    """Filter an SE-set to its UE-pairs: (X, Y) stays when every (X', Y) in
    the set with X properly below X' already has X' = Y."""
    grid = _Grid(se_set)
    strictly = grid.strictly_below(grid.down(grid.heres & ~grid.diag, grid.x), grid.x)
    return SESet.from_rows(se_set.table, se_set.atoms, grid.rows_of(grid.heres & ~strictly))


class _Flags:
    """The closure flags of one grid; each flag, and each table that more
    than one flag reads, is computed on its first read."""

    def __init__(self, se_set: SESet) -> None:
        _GRID_BUDGET.check(len(se_set.atoms), "SE-set grid")
        self.grid = grid = _Grid(se_set)
        self.heres = heres = grid.heres
        self.diag = heres & grid.diag
        self.rows = grid.down(self.diag, grid.x)  # at each diagonal Y, the subsets of Y
        self.only_diagonal = grid.up(heres, grid.x) & grid.diag == self.diag  # of the there-components

    @cached_property
    def below_z(self) -> int:  # at each Y, the heres of the there-components below Y
        return self.grid.below(self.heres)

    @cached_property
    def below_others(self) -> int:  # at each Y, the subsets of its heres other than Y
        return self.grid.down(self.heres ^ self.diag, self.grid.x)

    @cached_property
    def closure(self) -> int:  # at each diagonal Z, the union closure of the heres below Z
        return _union_closure(self.grid, self.below_z & self.rows)

    @cached_property
    def complete(self) -> bool:
        return self.only_diagonal and self.below_z & self.rows == self.heres & self.rows

    @cached_property
    def closed_here_intersection(self) -> bool:
        # X is an intersection of heres of Y iff each atom outside X is outside
        # a here of Y above X; the X of all atoms is exempt, as the empty X is from unions
        grid, out = self.grid, self.heres | self.grid.empty_x << (1 << self.grid.k) - 1
        for _, t, below in grid.per_bit(self.heres, grid.x, grid.down, grid.down):
            without = grid.full ^ t
            out |= without ^ below & without
        return out == grid.full

    @cached_property
    def closed_here_union(self) -> bool:
        return _not_unions(self.grid, self.heres) | self.heres | self.grid.empty_x == self.grid.full

    @cached_property
    def ue_complete(self) -> bool:
        # density: each diagonal Y below a diagonal Z lies below a here of Z
        # other than Z; and the heres of each Y other than Y are an antichain
        grid, diag = self.grid, self.diag
        nested = grid.below(diag) & self.rows ^ diag
        return (
            self.only_diagonal
            and nested & self.below_others == nested
            and not self.heres & grid.strictly_below(self.below_others, grid.x)
        )

    @cached_property
    def splittable(self) -> bool:
        return self.closure & (self.heres | self.below_others) == self.closure


def se_properties(se_set: SESet) -> SEProperties:
    """Evaluate the five closure flags for a set of SE-interpretations."""
    flags = _Flags(se_set)
    return SEProperties(*(getattr(flags, name) for name in SEProperties._fields))


def program_from_se_set(se_set: SESet) -> Program:
    """Synthesize a dual-normal program whose SE-models over the universe are
    exactly the given set.

    Requires the set to be complete and closed under here-union.  Every
    missing diagonal pair is excluded by a constraint; every other missing
    pair by a proper rule with at most one positive body atom.  Witness atoms
    are always the smallest candidate id, so output is reproducible.
    """
    flags = _Flags(se_set)
    if not (flags.complete and flags.closed_here_union):
        raise SynthesisPreconditionError("SE-program synthesis needs a complete, here-union-closed set")
    return _synthesize(se_set.table, se_set.atoms, flags.grid, flags.heres)


def _synthesize(table: AtomTable, atoms: Sequence[int], grid: _Grid, heres: int) -> Program:
    """The rules of ``program_from_se_set`` for the grid of a complete,
    here-union-closed set (every there-component is diagonal): one
    constraint per mask that is no there-component, then one rule per pair
    (X, Y) missing below a there-component Y, ascending by Y, then by X."""
    k, x, ys = grid.k, grid.x, grid.ys
    lattice = SubsetLattice(k)
    theres = sum(1 << ys[p >> k] for p in table_masks(heres & grid.diag))
    free = (1 << (1 << k)) - 1 ^ theres
    # the lowest atom of Y - S for each there-component Y not below S: as a
    # negative body it leaves the pairs at those components alone
    nbody = {s: tuple(found) for s, found in _lowest_outside(lattice, theres, x, atoms, -1).items()}
    # the constraint for S has the lowest atom of S - Y for each
    # there-component Y below S
    body: dict[int, list[int]] = {}
    for shift, t, above in lattice.per_bit(theres, x, lambda table, bits: table, lattice.up):
        for s in table_masks((above ^ above & t) << shift & free):
            body.setdefault(s, []).append(atoms[shift.bit_length() - 1])
    rules = [tuple.__new__(Rule, ((), tuple(body.get(s, ())), nbody.get(s, ()))) for s in table_masks(free)]
    # the rule for (X, Y) has the lowest atom of M - X for each here M of Y
    # not inside X, and the lowest atom of X outside the union of the heres
    # inside X, if any (that union is a here, by the closure)
    missing = grid.down(heres & grid.diag, x) ^ heres
    heads = _lowest_outside(grid, heres, x, atoms, missing)
    inside, first, done = grid.up(heres, x) & missing, {}, 0
    for shift, t, above in grid.per_bit(heres, x, grid.up, grid.up):
        outside = (t ^ above & t) & inside
        for p in table_masks(outside ^ outside & done):
            first[p] = (atoms[shift.bit_length() - 1],)
        done |= outside
    rules.extend(
        tuple.__new__(Rule, (tuple(heads[p]), first.get(p, ()), nbody.get(ys[p >> k], ()))) for p in table_masks(missing)
    )
    return Program.of(table, rules)


def _lowest_outside(lattice: SubsetLattice, members: int, bits: range, atoms: Sequence[int], where: int) -> dict:
    """Each position S of ``where`` (bit i for ``atoms[i]``) mapped to the
    lowest atoms of M - S, ascending, over the members M not below S."""
    out: dict[int, list[int]] = {}
    for shift, t, above in lattice.per_bit(members, bits, lattice.up, lattice.spread):
        for s in table_masks((above & t) >> shift & where):
            out.setdefault(s, []).append(atoms[shift.bit_length() - 1])
    return out


def se_closure(se_set: SESet) -> SESet:
    """Close a set of SE-interpretations: for each diagonal member Z, pair Z
    with every union of here-components lying below Z."""
    flags = _Flags(se_set)
    return SESet.from_rows(se_set.table, se_set.atoms, flags.grid.rows_of(flags.closure))


def program_from_ue_set(se_set: SESet) -> Program:
    """Synthesize a dual-normal program whose UE-models over the universe are
    exactly the given set (which must be UE-complete and splittable).

    The SE synthesis runs on the closure of the set, which is complete and
    here-union-closed by construction, so its precondition is not checked.
    """
    flags = _Flags(se_set)
    if not (flags.ue_complete and flags.splittable):
        raise SynthesisPreconditionError("UE-program synthesis needs a UE-complete, splittable set")
    return _synthesize(se_set.table, se_set.atoms, flags.grid, flags.closure)


def is_ue_model_dn(
    prog: Program, pair: SEPair, universe: Optional[frozenset[int]] = None
) -> bool:
    """Polynomial UE-model test for dual-normal programs.

    (X, Y) is a UE-model when Y is a model and either X = Y or, for every
    atom a of Y \\ X, the dual-Horn theory made of the reduct of the proper
    part w.r.t. Y, the atoms of X as facts, and constraints excluding a and
    every atom outside Y has X as its maximal model.  (Constraint reducts
    are dropped: a surviving constraint's positive body already sticks out
    of Y, so every subset of Y satisfies it.)  The universe (default:
    at(P)) only bounds Y; atoms outside it count as false, as they do in
    ``se_models``.

    The facts add only the reversed rules ``t <- x``, so that maximal model
    is X exactly when the survivor set S_a, the atoms of Y that the
    elimination seeded with a and the atoms of P outside Y leaves standing,
    is X with ``t`` standing too.  S_a depends on Y and a alone: it comes
    from the reduct closure of Y (``dualhorn.reduct_closure``), which the
    answer-set check shares, and is computed once per atom.  So the first
    pair with X != Y computes S_a for every a in Y, and the closure keeps
    the heres that pass (``ReductClosure.ue_heres``); every later pair at
    Y is a lookup.  X, the maximal model of a theory that contains P^Y, is
    then a model of P^Y too, so that check needs no pass of its own.
    """
    _require_dual_normal(prog)
    x, y = pair.here, pair.there
    if not y <= (prog.atom_ids if universe is None else universe):
        raise ValueError("pair exceeds the universe")
    closure = reduct_closure(prog, y)
    if not closure.model:
        return False
    return x == y or x in closure.ue_heres


def _ue_disagreement_dn(
    p: Program, q: Program, budget: OracleBudget = DEFAULT_BUDGET
) -> Optional[SEPair]:
    """First SE-pair over the joint universe on which the polynomial UE test
    distinguishes the two dual-normal programs, or None."""
    _require_dual_normal(p)
    _require_dual_normal(q)
    joint = p.atom_ids | q.atom_ids
    atoms = sorted(joint)
    budget.check(len(atoms), "UE-pair enumeration")
    for ymask in range(1 << len(atoms)):
        y = _masked(atoms, ymask)
        for xmask in _subset_masks_ascending(ymask):
            pair = SEPair(_masked(atoms, xmask), y)
            if is_ue_model_dn(p, pair, joint) != is_ue_model_dn(q, pair, joint):
                return pair
    return None


def uniformly_equivalent_dn(
    p: Program, q: Program, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Uniform equivalence of dual-normal programs: the polynomial per-pair
    UE test agrees on every SE-pair over the joint universe (the enumeration
    shell is desk-scale; the per-pair check is the polynomial core)."""
    p, q = ensure_shared(p, q)
    return _ue_disagreement_dn(p, q, budget) is None
