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

``se_models`` reads the models and each reduct off the truth tables of
``core.TruthTables``.  Every other computation here runs on one view of a
set, its mask view (``SESet.view``): the sorted universe ``atoms`` and a
map from each there-mask to the set of its here-masks, where bit i of a
mask is ``atoms[i]``, the i-th smallest atom id.  Subset tests are mask tests
(X is a subset of Y when ``x & ~y == 0``; ``<`` on ints compares numbers),
and the smallest-id atom of a mask, the synthesis's witness atom, is its
lowest set bit.  ``SEPair`` frozensets are made only at the edge: on the
first read of ``SESet.pairs``, for an equivalence witness, and from pairs
given by the caller.  Each flag is one predicate over the view and the
diagonal; the heres below each diagonal member are gathered once per call
and serve completeness, and their union closure serves both
splittability and ``se_closure``.

Sets of SE-models of dual-normal programs are exactly the complete,
here-union-closed sets; their UE-model sets are exactly the UE-complete,
splittable ones.  Both directions of those characterizations are
constructive here: ``program_from_se_set`` and ``program_from_ue_set``
synthesize dual-normal programs realizing a given set.  Each checks only
its own precondition; the UE synthesis runs the SE one on the closure it
has built, which is complete and here-union-closed by construction.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .common import DEFAULT_BUDGET, OracleBudget, SynthesisPreconditionError
from .core import AtomTable, Program, Rule, TruthTables, ensure_shared, table_masks
# Bound under private names: perfbench/tracing.py pins the code, names included,
# of functions here that call them.
from .core import mask_to_set as _masked
from .core import require_dual_normal as _require_dual_normal
from .core import submasks_ascending as _subset_masks_ascending
from .dualhorn import reduct_closure


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


# The heres of each there-component of an SE-set, as masks.
_ByThere = dict[int, AbstractSet[int]]


class MaskView(NamedTuple):
    """An SE-set as bitmasks: ``atoms`` is the sorted universe, bit i of a
    mask stands for ``atoms[i]``, and ``by_there`` maps each there-mask to
    the set of its here-masks."""

    atoms: tuple[int, ...]
    by_there: _ByThere

    def pair(self, here: int, there: int) -> SEPair:
        return SEPair(_masked(self.atoms, here), _masked(self.atoms, there))

    def symmetric_difference(self, other: "MaskView") -> "MaskView":
        """The pairs in exactly one of two views over the same atoms."""
        heres = lambda view, y: view.by_there.get(y, frozenset())
        diff = {y: heres(self, y) ^ heres(other, y) for y in self.by_there.keys() | other.by_there.keys()}
        return MaskView(self.atoms, {y: xs for y, xs in diff.items() if xs})


def view_of_pairs(
    universe: Iterable[int], pairs: Iterable[tuple[frozenset[int], frozenset[int]]]
) -> MaskView:
    """The mask view of ``(here, there)`` atom-set pairs over the universe;
    each distinct atom set becomes a mask once."""
    atoms = tuple(sorted(universe))
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    grouped: dict[frozenset[int], set[frozenset[int]]] = {}
    for here, there in pairs:
        grouped.setdefault(there, set()).add(here)
    mask = {s: sum(bit[a] for a in s) for s in set(grouped).union(*grouped.values())}
    return MaskView(atoms, {mask[y]: frozenset(map(mask.__getitem__, xs)) for y, xs in grouped.items()})


class SESet:
    """A finite set of SE-interpretations over a declared universe.

    Sets are immutable, and equal when their universes and pairs are (the
    atom table is not compared).  A set keeps its mask view, ``view``; the
    frozenset of SEPairs, ``pairs``, is made on its first read when the set
    was built from masks.
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
    def from_masks(cls, table: AtomTable, atoms: Sequence[int], by_there: _ByThere) -> "SESet":
        """The set with the mask view ``(atoms, by_there)``: ``atoms`` sorted,
        each here-mask within its there-mask, no there-mask without heres."""
        se_set = object.__new__(cls)
        se_set.__dict__.update(table=table, universe=frozenset(atoms), view=MaskView(tuple(atoms), by_there))
        return se_set

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def view(self) -> MaskView:
        return view_of_pairs(self.universe, self.pairs)

    @cached_property
    def pairs(self) -> frozenset[SEPair]:
        atoms, by_there = self.view
        sets = {m: _masked(atoms, m) for m in set(by_there).union(*by_there.values())}
        return frozenset(SEPair(sets[x], sets[y]) for y, xs in by_there.items() for x in xs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.universe == other.universe and self.view.by_there == other.view.by_there

    def __hash__(self) -> int:
        return hash((self.universe, self.pairs))

    def __repr__(self) -> str:
        return f"SESet(table={self.table!r}, universe={self.universe!r}, pairs={self.pairs!r})"

    def __iter__(self) -> Iterator[SEPair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return sum(map(len, self.view.by_there.values()))

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


def se_models(
    prog: Program,
    universe: Optional[frozenset[int]] = None,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> SESet:
    """All SE-models of the program over the universe (default: its atoms),
    by the definition: Y a model of P, X a model of the reduct P^Y.  On the
    truth tables of ``core.TruthTables``: the models come from one table,
    and the heres of Y are the submasks of Y that the table of what P^Y
    rejects leaves out."""
    atoms = sorted(prog.atom_ids if universe is None else universe)
    budget.check(len(atoms), "SE-model enumeration")
    kernel = TruthTables(prog, atoms)
    by_there = {}
    for y in table_masks(kernel.models()):
        rejected = kernel.rejections(y)
        by_there[y] = frozenset(x for x in _subset_masks_ascending(y) if not rejected >> x & 1)
    return SESet.from_masks(prog.table, atoms, by_there)


def _grouped(se_set: SESet) -> tuple[_ByThere, set[int]]:
    """The heres of each there-component of an SE-set, and its diagonal
    members (the there-components paired with themselves), as masks."""
    by_there = se_set.view.by_there
    return by_there, {y for y, xs in by_there.items() if y in xs}


def _ue_heres(y: int, xs: AbstractSet[int]) -> frozenset[int]:
    """The heres X of the there-component ``y`` with no here X' in ``xs``
    such that X < X' < Y: ``y`` if present, and the maximal heres below it."""
    below = xs - {y}
    tops: list[int] = []
    covered: set[int] = set()  # the subsets of the maximal heres so far
    # a here is below some other one exactly when it is below a maximal one,
    # and every here above it has more atoms, so comes first
    for x in sorted(below, key=int.bit_count, reverse=True):
        if x not in covered:
            tops.append(x)
            covered.update(_subset_masks_ascending(x))
    return frozenset(tops).union(xs - below)


def ue_models(se_set: SESet) -> SESet:
    """Filter an SE-set to its UE-pairs: (X, Y) stays when every (X', Y) in
    the set with X properly below X' already has X' = Y."""
    atoms, by_there = se_set.view
    return SESet.from_masks(se_set.table, atoms, {y: _ue_heres(y, xs) for y, xs in by_there.items()})


def union_closure(sets: Iterable[int]) -> set[int]:
    """Closure of masks under (non-empty, finite) unions.  Given in ascending
    order, a mask that is a union of earlier ones costs one lookup."""
    closed: set[int] = set()
    for s in sets:
        if s not in closed:  # else its unions with members are members already
            closed |= {s | c for c in closed}
            closed.add(s)
    return closed


def _heres_below(by_there: _ByThere, diagonal: set[int]) -> _ByThere:
    """Each diagonal member Z mapped to the heres of every there-component
    below Z."""
    return {z: set().union(*(xs for y, xs in by_there.items() if not y & ~z)) for z in diagonal}


def _union_closures(below: _ByThere) -> _ByThere:
    """Each diagonal member mapped to the union closure of its heres below."""
    return {z: union_closure(sorted(xs)) for z, xs in below.items()}


def _unions_stay_in(xs: AbstractSet[int]) -> bool:
    """``xs`` is closed under unions.  The masks are joined in ascending
    order, as in ``union_closure``, and each new union must be in ``xs``."""
    made: set[int] = set()
    for s in sorted(xs):
        if s not in made:
            joined = {s | c for c in made}
            if not joined <= xs:
                return False
            made |= joined
            made.add(s)
    return True


def _complete(by_there: _ByThere, diagonal: set[int], below: _ByThere) -> bool:
    return by_there.keys() <= diagonal and all(xs <= by_there[z] for z, xs in below.items())


def _closed_here_intersection(by_there: _ByThere) -> bool:
    # X & X2 within Y is the complement in Y of the union of the complements
    return all(_unions_stay_in({y ^ x for x in xs}) for y, xs in by_there.items())


def _closed_here_union(by_there: _ByThere) -> bool:
    return all(map(_unions_stay_in, by_there.values()))


def _ue_complete(by_there: _ByThere, diagonal: set[int]) -> bool:
    # density: for Y < Z, some here of Z lies in [Y, Z); Y itself when there
    return (
        by_there.keys() <= diagonal
        and all(
            y in by_there[z] or any(mid != z and not y & ~mid for mid in by_there[z])
            for y in by_there
            for z in diagonal
            if y != z and not y & ~z
        )
        and all(len(_ue_heres(y, xs)) == len(xs) for y, xs in by_there.items())
    )


def _splittable(by_there: _ByThere, closures: _ByThere) -> bool:
    return all(
        u in by_there[z] or any(z2 != z and not u & ~z2 for z2 in by_there[z])
        for z, unions in closures.items()
        for u in unions
    )


def se_properties(se_set: SESet) -> SEProperties:
    """Evaluate the five closure flags for a set of SE-interpretations."""
    by_there, diagonal = _grouped(se_set)
    below = _heres_below(by_there, diagonal)
    return SEProperties(
        complete=_complete(by_there, diagonal, below),
        closed_here_intersection=_closed_here_intersection(by_there),
        closed_here_union=_closed_here_union(by_there),
        ue_complete=_ue_complete(by_there, diagonal),
        splittable=_splittable(by_there, _union_closures(below)),
    )


def program_from_se_set(se_set: SESet) -> Program:
    """Synthesize a dual-normal program whose SE-models over the universe are
    exactly the given set.

    Requires the set to be complete and closed under here-union.  Every
    missing diagonal pair is excluded by a constraint; every other missing
    pair by a proper rule with at most one positive body atom.  Witness atoms
    are always the smallest candidate id, so output is reproducible.
    """
    by_there, diagonal = _grouped(se_set)
    below = _heres_below(by_there, diagonal)
    if not (_complete(by_there, diagonal, below) and _closed_here_union(by_there)):
        raise SynthesisPreconditionError(
            "SE-program synthesis needs a complete, here-union-closed set"
        )
    return _synthesize(se_set.table, se_set.view.atoms, by_there)


def _synthesize(table: AtomTable, atoms: Sequence[int], by_there: _ByThere) -> Program:
    """The rules of ``program_from_se_set`` for the mask view of a complete,
    here-union-closed set (every there-component is diagonal)."""
    # the smallest-id atom of each non-empty mask: its lowest set bit
    first = [-1] + [atoms[(m & -m).bit_length() - 1] for m in range(1, 1 << len(atoms))]
    theres = by_there.keys()

    def escape(hat_y: int) -> set[int]:
        # one atom outside hat_y from each there-component not below it: as
        # a negative body it leaves the pairs at those components alone
        return {first[y & ~hat_y] for y in theres if y & ~hat_y}

    rules = []
    for hat_y in range(1 << len(atoms)):
        if hat_y not in theres:
            body = {first[hat_y & ~y] for y in theres if not y & ~hat_y}
            rules.append(Rule.of((), body, escape(hat_y)))

    for hat_y in sorted(theres):
        heres = by_there[hat_y]
        nbody = escape(hat_y)
        for hat_x in _subset_masks_ascending(hat_y)[:-1]:  # proper subsets
            if hat_x in heres:
                continue
            inside = [x for x in heres if not x & ~hat_x]
            # here-union closure puts the union of ``inside``, its largest
            # member, among the heres, so it sits properly below hat_x
            body = (first[hat_x & ~max(inside)],) if inside else ()
            head = {first[x & ~hat_x] for x in heres if x & ~hat_x} or (first[hat_y & ~hat_x],)
            rules.append(Rule.of(head, body, nbody))

    return Program.of(table, rules)


def se_closure(se_set: SESet) -> SESet:
    """Close a set of SE-interpretations: for each diagonal member Z, pair Z
    with every union of here-components lying below Z."""
    closures = _union_closures(_heres_below(*_grouped(se_set)))
    return SESet.from_masks(se_set.table, se_set.view.atoms, closures)


def program_from_ue_set(se_set: SESet) -> Program:
    """Synthesize a dual-normal program whose UE-models over the universe are
    exactly the given set (which must be UE-complete and splittable).

    The SE synthesis runs on the closure of the set, which is complete and
    here-union-closed by construction, so its precondition is not checked.
    """
    by_there, diagonal = _grouped(se_set)
    closures = _union_closures(_heres_below(by_there, diagonal))
    if not (_ue_complete(by_there, diagonal) and _splittable(by_there, closures)):
        raise SynthesisPreconditionError(
            "UE-program synthesis needs a UE-complete, splittable set"
        )
    return _synthesize(se_set.table, se_set.view.atoms, closures)


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
