"""The paper's expressiveness results, checked on every SE-set over 1-3 atoms.

A program's SE-models are the intersection of its rules' SE-models, so the
SE-sets a class of programs can express are the intersection closure of its
rules' SE-sets (the empty program giving every SE-interpretation).  Each
rule's set comes from ``seue.se_satisfies``, the four-condition definition,
which reads neither the truth-table kernel nor the grid of the flags.  Over
k atoms there are 8^k rules (each atom in the head, the positive body and
the negative body, or not) and 3^k SE-interpretations, so a set is a mask
of 3^k bits.

On every set of a general program, ``se_properties`` must flag complete and
here-union-closed exactly the sets of dual-normal programs, and complete and
here-intersection-closed exactly those of normal programs (Eiter, Fink,
Tompits & Woltran, LPNMR 2004); on every UE-set of a general program it must
flag UE-complete and splittable exactly the UE-sets of dual-normal programs.
At 1 and 2 atoms every set of SE-interpretations is checked, so that
``complete`` is also tested against realisability.

The syntheses must realise every dual-normal SE-set and UE-set at 1-3
atoms.  ``se_closure`` must give the least dual-normal set containing a
complete set: the intersection of the rules' SE-sets that contain it, as
the family is their intersection closure.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from operator import and_

import pytest

from dualnorm.core import AtomTable, Rule
from dualnorm.seue import (
    SEPair,
    SESet,
    program_from_se_set,
    program_from_ue_set,
    se_closure,
    se_models,
    se_properties,
    se_satisfies,
    ue_models,
)


def _subsets(atoms):
    return [frozenset(a for i, a in enumerate(atoms) if m >> i & 1) for m in range(1 << len(atoms))]


class Universe:
    """The SE-interpretations over k atoms, each with an index, and the
    rules over them."""

    def __init__(self, k: int) -> None:
        self.table = AtomTable()
        self.atoms = [self.table.intern(name) for name in "abc"[:k]]
        subsets = _subsets(self.atoms)
        self.pairs = [SEPair(x, y) for y in subsets for x in subsets if x <= y]
        self.full = (1 << len(self.pairs)) - 1
        # the pairs (X', Y) with X properly below X' properly below Y: (X, Y)
        # is a UE-model of a set iff it holds none of them
        self.between = [
            sum(1 << j for j, (x2, y2) in enumerate(self.pairs) if y2 == y and x < x2 < y)
            for x, y in self.pairs
        ]

    def rules(self):
        for roles in product(range(8), repeat=len(self.atoms)):
            head, pos, neg = ([a for a, r in zip(self.atoms, roles) if r >> bit & 1] for bit in range(3))
            yield Rule.of(head, pos, neg)

    def se_set(self, rule: Rule) -> int:
        return sum(1 << i for i, pair in enumerate(self.pairs) if se_satisfies(pair, rule))

    def ue_set(self, members: int) -> int:
        return sum(1 << i for i, between in enumerate(self.between) if members >> i & 1 and not members & between)

    def to_se_set(self, members: int) -> SESet:
        chosen = [pair for i, pair in enumerate(self.pairs) if members >> i & 1]
        return SESet(self.table, self.atoms, chosen)


def _intersection_closure(full: int, generators: set[int]) -> frozenset[int]:
    family = {full}
    for g in generators:
        family |= {s & g for s in family}
    return frozenset(family)


@lru_cache(maxsize=None)
def rule_sets(k: int):
    """The universe over k atoms, and the SE-sets of each class's rules."""
    universe = Universe(k)
    by_class: dict[str, set[int]] = {"general": set(), "dual_normal": set(), "normal": set(), "both": set()}
    for rule in universe.rules():
        members = universe.se_set(rule)
        dual_normal = not rule.head or len(rule.body_pos) <= 1
        normal = len(rule.head) <= 1
        by_class["general"].add(members)
        if dual_normal:
            by_class["dual_normal"].add(members)
        if normal:
            by_class["normal"].add(members)
        if dual_normal and normal:
            by_class["both"].add(members)
    return universe, by_class


@lru_cache(maxsize=None)
def families(k: int):
    """The universe over k atoms, and the SE-sets of each class's programs."""
    universe, by_class = rule_sets(k)
    return universe, {name: _intersection_closure(universe.full, sets) for name, sets in by_class.items()}


@lru_cache(maxsize=None)
def ue_families(k: int):
    universe, family = families(k)
    return {name: frozenset(map(universe.ue_set, family[name])) for name in ("general", "dual_normal")}


@pytest.mark.parametrize(
    "k, interpretations, general, dual_normal, normal, both, ue_general, ue_dual_normal",
    [
        (1, 3, 5, 5, 5, 5, 5, 5),
        (2, 9, 47, 47, 43, 43, 39, 39),
        (3, 27, 13_200, 10_046, 6_934, 4_991, 3_798, 3_007),
    ],
)
def test_expressible_set_counts(k, interpretations, general, dual_normal, normal, both, ue_general, ue_dual_normal):
    universe, family = families(k)
    ue = ue_families(k)
    assert len(universe.pairs) == interpretations
    counts = [len(family[name]) for name in ("general", "dual_normal", "normal", "both")]
    assert counts == [general, dual_normal, normal, both]
    assert [len(ue["general"]), len(ue["dual_normal"])] == [ue_general, ue_dual_normal]


def _se_mismatches(k, sets):
    """The sets on which the SE flags disagree with membership: complete
    with realisability (when ``sets`` holds unrealisable ones), complete
    and union-closed with the dual-normal family, complete and
    intersection-closed with the normal one."""
    universe, family = families(k)
    out = []
    for members in sets:
        flags = se_properties(universe.to_se_set(members))
        got = (
            flags.complete,
            flags.complete and flags.closed_here_union,
            flags.complete and flags.closed_here_intersection,
        )
        expected = (members in family["general"], members in family["dual_normal"], members in family["normal"])
        if got != expected:
            out.append((members, got, expected))
    return out


def _ue_mismatches(k, sets):
    """The sets on which UE-complete and splittable disagree with being the
    UE-set of a dual-normal program."""
    universe, ue = families(k)[0], ue_families(k)
    out = []
    for members in sets:
        flags = se_properties(universe.to_se_set(members))
        if (flags.ue_complete and flags.splittable) != (members in ue["dual_normal"]):
            out.append(members)
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_se_flags_match_the_class_of_every_realisable_set(k):
    assert _se_mismatches(k, families(k)[1]["general"]) == []


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ue_flags_match_the_dual_normal_ue_sets_of_every_realisable_set(k):
    assert _ue_mismatches(k, ue_families(k)["general"]) == []


@pytest.mark.parametrize("k", [1, 2])
def test_flags_match_membership_on_every_set_of_se_interpretations(k):
    every = range(1 << 3**k)
    assert _se_mismatches(k, every) == []
    assert _ue_mismatches(k, every) == []


def test_a_set_built_from_pairs_keeps_them():
    universe, family = families(2)
    for members in family["general"]:
        se_set = universe.to_se_set(members)
        assert set(se_set) == {pair for i, pair in enumerate(universe.pairs) if members >> i & 1}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_se_synthesis_realises_every_dual_normal_set(k):
    universe, family = families(k)
    atoms = frozenset(universe.atoms)
    failed = []
    for members in family["dual_normal"]:
        se_set = universe.to_se_set(members)
        if se_models(program_from_se_set(se_set), universe=atoms) != se_set:
            failed.append(members)
    assert failed == []


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ue_synthesis_realises_every_dual_normal_ue_set(k):
    universe = families(k)[0]
    atoms = frozenset(universe.atoms)
    failed = []
    for members in ue_families(k)["dual_normal"]:
        se_set = universe.to_se_set(members)
        if ue_models(se_models(program_from_ue_set(se_set), universe=atoms)) != se_set:
            failed.append(members)
    assert failed == []


def _closure_mismatches(k, sets):
    """The sets whose ``se_closure`` is not the least dual-normal set
    containing them: the intersection of the dual-normal rules' SE-sets
    that contain the set (every SE-interpretation when none does)."""
    universe, by_class = rule_sets(k)
    generators, out = by_class["dual_normal"], []
    for members in sets:
        least = reduce(and_, (g for g in generators if members & ~g == 0), universe.full)
        if se_closure(universe.to_se_set(members)) != universe.to_se_set(least):
            out.append(members)
    return out


def test_se_closure_is_the_least_dual_normal_set_above_every_realisable_set():
    # every realisable set is complete (see the flag tests above)
    assert _closure_mismatches(3, families(3)[1]["general"]) == []


@pytest.mark.parametrize("k, incomplete_mismatches", [(1, 2), (2, 350)])
def test_se_closure_is_the_least_dual_normal_set_only_above_complete_sets(k, incomplete_mismatches):
    universe = families(k)[0]
    mismatches = _closure_mismatches(k, range(1 << 3**k))
    assert len(mismatches) == incomplete_mismatches
    assert not any(se_properties(universe.to_se_set(members)).complete for members in mismatches)
