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

Each flag is one predicate over the grouped view of a set: the heres of
each there-component, and the diagonal.  The union closure below each
diagonal member is built once per call and serves both splittability and
``se_closure``.

Sets of SE-models of dual-normal programs are exactly the complete,
here-union-closed sets; their UE-model sets are exactly the UE-complete,
splittable ones.  Both directions of those characterizations are
constructive here: ``program_from_se_set`` and ``program_from_ue_set``
synthesize dual-normal programs realizing a given set.  Each checks only
its own precondition; the UE synthesis runs the SE one on the closure it
has built, which is complete and here-union-closed by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Iterable, Iterator, Optional

from .common import DEFAULT_BUDGET, OracleBudget, SynthesisPreconditionError
from .core import AtomTable, Program, Rule, compile_masks, ensure_shared, is_model, reduct, satisfies_reduct
# Bound under private names: perfbench/tracing.py pins the code, names included,
# of functions here that call them.
from .core import mask_to_set as _masked
from .core import require_dual_normal as _require_dual_normal
from .core import submasks_ascending as _subset_masks_ascending
from .dualhorn import max_model_dual_horn


@dataclass(frozen=True)
class SEPair:
    here: frozenset[int]
    there: frozenset[int]

    def __post_init__(self):
        if not self.here <= self.there:
            raise ValueError("SE-interpretation requires X to be a subset of Y")


@dataclass(frozen=True)
class SESet:
    """A finite set of SE-interpretations over a declared universe."""

    table: AtomTable = field(compare=False)
    universe: frozenset[int] = frozenset()
    pairs: frozenset[SEPair] = frozenset()

    def __post_init__(self):
        for p in self.pairs:
            if not p.there <= self.universe:
                raise ValueError("SE-pair outside the declared universe")

    def __iter__(self) -> Iterator[SEPair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: SEPair) -> bool:
        return pair in self.pairs

    def with_pairs(self, pairs: Iterable[SEPair]) -> "SESet":
        return SESet(self.table, self.universe, frozenset(pairs))


@dataclass(frozen=True)
class SEProperties:
    complete: bool
    closed_here_intersection: bool
    closed_here_union: bool
    ue_complete: bool
    splittable: bool

    def to_dict(self) -> dict[str, bool]:
        return asdict(self)


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
    by the definition: Y a model of P, X a model of the reduct P^Y."""
    uni = frozenset(prog.atom_ids if universe is None else universe)
    atoms = sorted(uni)
    budget.check(len(atoms), "SE-model enumeration")
    compiled = compile_masks(prog, atoms)
    pairs = []
    for ymask in range(1 << len(atoms)):
        if not satisfies_reduct(compiled, ymask, ymask):
            continue
        y = _masked(atoms, ymask)
        pairs.extend(
            SEPair(_masked(atoms, xmask), y)
            for xmask in _subset_masks_ascending(ymask)
            if satisfies_reduct(compiled, ymask, xmask)
        )
    return SESet(table=prog.table, universe=uni, pairs=frozenset(pairs))


# The heres of each there-component of an SE-set.
_ByThere = dict[frozenset[int], set[frozenset[int]]]


def _grouped(se_set: SESet) -> tuple[_ByThere, set[frozenset[int]]]:
    """The grouped view of an SE-set: the heres of each there-component, and
    the diagonal members (the there-components paired with themselves)."""
    by_there: _ByThere = {}
    for p in se_set.pairs:
        by_there.setdefault(p.there, set()).add(p.here)
    return by_there, {y for y, xs in by_there.items() if y in xs}


def ue_models(se_set: SESet) -> SESet:
    """Filter an SE-set to its UE-pairs: (X, Y) stays when every (X', Y) in
    the set with X properly below X' already has X' = Y."""
    by_there, _ = _grouped(se_set)
    kept = [
        p
        for p in se_set.pairs
        if all(x == p.there or not p.here < x for x in by_there[p.there])
    ]
    return se_set.with_pairs(kept)


def union_closure(sets: Iterable[frozenset[int]]) -> set[frozenset[int]]:
    """Closure under (non-empty, finite) unions."""
    closed: set[frozenset[int]] = set()
    for s in sets:
        if s not in closed:  # else its unions with members are members already
            closed |= {s | c for c in closed}
            closed.add(s)
    return closed


def _union_closures(by_there: _ByThere, diagonal: set[frozenset[int]]) -> _ByThere:
    """Each diagonal member Z mapped to the union closure of the heres of
    every there-component below Z."""
    return {
        z: union_closure(x for y, xs in by_there.items() if y <= z for x in xs)
        for z in diagonal
    }


def _complete(by_there: _ByThere, diagonal: set[frozenset[int]]) -> bool:
    return by_there.keys() <= diagonal and all(
        xs <= by_there[z] for y, xs in by_there.items() for z in diagonal if y <= z
    )


def _closed_here_intersection(by_there: _ByThere) -> bool:
    return all(x & x2 in xs for xs in by_there.values() for x in xs for x2 in xs)


def _closed_here_union(by_there: _ByThere) -> bool:
    return all(x | x2 in xs for xs in by_there.values() for x in xs for x2 in xs)


def _ue_complete(by_there: _ByThere, diagonal: set[frozenset[int]]) -> bool:
    return (
        by_there.keys() <= diagonal
        and all(
            any(y <= mid < z for mid in by_there[z])
            for y in by_there
            for z in diagonal
            if y < z
        )
        and all(
            x2 == y or not x < x2
            for y, xs in by_there.items()
            for x in xs
            for x2 in xs
        )
    )


def _splittable(by_there: _ByThere, closures: _ByThere) -> bool:
    return all(
        u in by_there[z] or any(u <= z2 < z for z2 in by_there[z])
        for z, unions in closures.items()
        for u in unions
    )


def se_properties(se_set: SESet) -> SEProperties:
    """Evaluate the five closure flags for a set of SE-interpretations."""
    by_there, diagonal = _grouped(se_set)
    return SEProperties(
        complete=_complete(by_there, diagonal),
        closed_here_intersection=_closed_here_intersection(by_there),
        closed_here_union=_closed_here_union(by_there),
        ue_complete=_ue_complete(by_there, diagonal),
        splittable=_splittable(by_there, _union_closures(by_there, diagonal)),
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
    if not (_complete(by_there, diagonal) and _closed_here_union(by_there)):
        raise SynthesisPreconditionError(
            "SE-program synthesis needs a complete, here-union-closed set"
        )
    return _synthesize(se_set, by_there)


def _synthesize(se_set: SESet, by_there: _ByThere) -> Program:
    """The rules of ``program_from_se_set`` for the grouped view of a
    complete, here-union-closed set (every there-component is diagonal)."""
    atoms = sorted(se_set.universe)
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    theres = by_there.keys()

    def escape(hat_y):
        # one atom outside hat_y from each there-component not below it: as
        # a negative body it leaves the pairs at those components alone
        return {min(y - hat_y) for y in theres if y - hat_y}

    rules = []
    for ymask in range(1 << len(atoms)):
        hat_y = _masked(atoms, ymask)
        if hat_y in theres:
            continue
        body = {min(hat_y - y) for y in theres if y <= hat_y}
        rules.append(Rule.of((), body, escape(hat_y)))

    for ymask in sorted(sum(bit[a] for a in y) for y in theres):
        hat_y = _masked(atoms, ymask)
        heres = by_there[hat_y]
        nbody = escape(hat_y)
        for xmask in _subset_masks_ascending(ymask)[:-1]:  # proper subsets
            hat_x = _masked(atoms, xmask)
            if hat_x in heres:
                continue
            inside = [x for x in heres if x <= hat_x]
            excess = [x for x in heres if x - hat_x]
            # here-union closure puts the union of ``inside`` among the
            # heres, so it sits properly below hat_x
            body = {min(hat_x - frozenset().union(*inside))} if inside else set()
            head = {min(x - hat_x) for x in excess} if excess else {min(hat_y - hat_x)}
            rules.append(Rule.of(head, body, nbody))

    return Program.of(se_set.table, rules)


def se_closure(se_set: SESet) -> SESet:
    """Close a set of SE-interpretations: for each diagonal member Z, pair Z
    with every union of here-components lying below Z."""
    closures = _union_closures(*_grouped(se_set))
    return se_set.with_pairs(SEPair(x, z) for z, xs in closures.items() for x in xs)


def program_from_ue_set(se_set: SESet) -> Program:
    """Synthesize a dual-normal program whose UE-models over the universe are
    exactly the given set (which must be UE-complete and splittable).

    The SE synthesis runs on the closure of the set, which is complete and
    here-union-closed by construction, so its precondition is not checked.
    """
    by_there, diagonal = _grouped(se_set)
    closures = _union_closures(by_there, diagonal)
    if not (_ue_complete(by_there, diagonal) and _splittable(by_there, closures)):
        raise SynthesisPreconditionError(
            "UE-program synthesis needs a UE-complete, splittable set"
        )
    return _synthesize(se_set, closures)


def is_ue_model_dn(
    prog: Program, pair: SEPair, universe: Optional[frozenset[int]] = None
) -> bool:
    """Polynomial UE-model test for dual-normal programs.

    After the cheap checks (there-component a model; equal components; the
    here-component models the reduct), each atom y strictly between X and Y
    spawns a dual-Horn theory: the reduct of the proper part w.r.t. Y, the
    atoms of X as facts, and constraints excluding everything outside Y as
    well as y itself.  (Constraint reducts are dropped: a surviving
    constraint's positive body already sticks out of Y, so every subset of Y
    satisfies it.)  The pair is a UE-model exactly when every such theory has
    its unique maximal model equal to X.
    """
    _require_dual_normal(prog)
    uni = frozenset(prog.atom_ids if universe is None else universe)
    x, y = pair.here, pair.there
    if not y <= uni:
        raise ValueError("pair exceeds the universe")
    if not is_model(y, prog):
        return False
    if x == y:
        return True
    red = reduct(prog, y)
    if not is_model(x, red):
        return False
    base_rules = [r for r in red.rules if r.head]
    base_rules.extend(Rule.of((a,)) for a in sorted(x))
    base_rules.extend(Rule.of((), (z,)) for z in sorted(uni - y))
    for atom in sorted(y - x):
        theory = Program.of(prog.table, base_rules + [Rule.of((), (atom,))])
        maximal = max_model_dual_horn(theory, universe=uni)
        if maximal != x:
            return False
    return True


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
