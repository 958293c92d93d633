"""Seeded random generators for test corpora.

Everything here takes an explicit ``random.Random`` so corpora are
reproducible.
"""

from __future__ import annotations

import random
import string
from typing import Iterator, Optional

from .core import AtomTable, Program, Rule, mask_to_set, submasks_ascending
from .seue import SEPair, SESet, se_closure


def atom_names(n: int) -> list[str]:
    letters = string.ascii_lowercase
    if n <= len(letters):
        return list(letters[:n])
    return [f"x{i}" for i in range(n)]


def _table_for(n_atoms: int, table: Optional[AtomTable]) -> tuple[AtomTable, list[int]]:
    if table is None:
        table = AtomTable()
    return table, [table.intern(name) for name in atom_names(n_atoms)]


def random_rule(rng: random.Random, atoms: list[int]) -> Optional[Rule]:
    head, pos, neg = [], [], []
    for a in atoms:
        roll = rng.random()
        if roll < 0.22:
            head.append(a)
        elif roll < 0.42:
            pos.append(a)
        elif roll < 0.60:
            neg.append(a)
    if not head and not pos and not neg:
        return None
    return Rule.of(head, pos, neg)


def random_program(
    rng: random.Random,
    n_atoms: int,
    max_rules: int,
    table: Optional[AtomTable] = None,
) -> Program:
    table, atoms = _table_for(n_atoms, table)
    rules = []
    for _ in range(rng.randint(0, max_rules)):
        r = random_rule(rng, atoms)
        if r is not None:
            rules.append(r)
    return Program.of(table, rules)


def random_dual_normal_program(
    rng: random.Random,
    n_atoms: int,
    max_rules: int,
    table: Optional[AtomTable] = None,
) -> Program:
    """Random program in which every proper rule has at most one positive
    body atom (constraints stay unrestricted)."""
    table, atoms = _table_for(n_atoms, table)
    rules = []
    for _ in range(rng.randint(0, max_rules)):
        neg = [a for a in atoms if rng.random() < 0.25]
        if rng.random() < 0.3:
            pos = [a for a in atoms if rng.random() < 0.3]
            if not pos and not neg:
                continue
            rules.append(Rule.of((), pos, neg))
        else:
            head = [a for a in atoms if rng.random() < 0.3] or [rng.choice(atoms)]
            pos = [rng.choice(atoms)] if rng.random() < 0.5 else []
            rules.append(Rule.of(head, pos, neg))
    return Program.of(table, rules)


def random_normal_program(
    rng: random.Random,
    n_atoms: int,
    max_rules: int,
    table: Optional[AtomTable] = None,
) -> Program:
    table, atoms = _table_for(n_atoms, table)
    rules = []
    for _ in range(rng.randint(0, max_rules)):
        head = [rng.choice(atoms)] if rng.random() < 0.8 else []
        pos = [a for a in atoms if rng.random() < 0.25]
        neg = [a for a in atoms if rng.random() < 0.25]
        if not head and not pos and not neg:
            continue
        rules.append(Rule.of(head, pos, neg))
    return Program.of(table, rules)


def structured_corpus(
    seed: int, count: int, max_atoms: int = 4, max_rules: int = 6
) -> Iterator[Program]:
    """A deterministic stream of distinct programs mixing arbitrary, normal,
    and dual-normal shapes within the size bounds."""
    rng = random.Random(seed)
    seen = set()
    produced = 0
    makers = [random_program, random_normal_program, random_dual_normal_program]
    while produced < count:
        n_atoms = rng.randint(1, max_atoms)
        prog = makers[produced % len(makers)](rng, n_atoms, max_rules)
        key = prog.canonical()
        if key in seen:
            continue
        seen.add(key)
        produced += 1
        yield prog


def random_se_pairs(
    rng: random.Random, atoms: list[int], density: float = 0.35
) -> set[tuple[frozenset[int], frozenset[int]]]:
    """A random set of SE-interpretations over the given atoms."""
    pairs = set()
    n = len(atoms)
    for ymask in range(1 << n):
        y = mask_to_set(atoms, ymask)
        for sub in reversed(submasks_ascending(ymask)):
            if rng.random() < density:
                pairs.add((mask_to_set(atoms, sub), y))
    return pairs


def close_complete_here_union(
    pairs: set[tuple[frozenset[int], frozenset[int]]]
) -> set[tuple[frozenset[int], frozenset[int]]]:
    """Close a raw pair set under completeness and here-union: pair every
    there-component with itself, then take the SE closure."""
    padded = set(pairs) | {(y, y) for _, y in pairs}
    universe = frozenset().union(*(y for _, y in padded))
    se_set = SESet(AtomTable(), universe, frozenset(SEPair(x, y) for x, y in padded))
    return {(p.here, p.there) for p in se_closure(se_set)}
