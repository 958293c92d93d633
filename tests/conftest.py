import random

import pytest

from dualnorm.core import AtomTable
from dualnorm.gen import close_complete_here_union, random_dual_normal_program, random_se_pairs
from dualnorm.seue import SEPair, SESet, se_models, se_properties, ue_models
from dualnorm.textio import parse_program

# Three-atom worked examples used throughout: a disjunctive guess with a
# completion loop, and its two pruned variants (one normal, one dual-normal).
DISJ3 = "a | b.\n:- not c.\nc :- a, b.\na :- c.\nb :- c.\n"
DISJ3_NORMAL = ":- not c.\nc :- a, b.\na :- c.\nb :- c.\n"  # drops the guess
DISJ3_DUAL = "a | b.\n:- not c.\na :- c.\nb :- c.\n"  # drops the join rule

# UE-complete, here-union-closed, but not splittable.
UNSPLITTABLE = "b;b\nc;c\na b;a b c d\nc d;a b c d\na b c d;a b c d\n"


@pytest.fixture
def table():
    return AtomTable()


@pytest.fixture
def disj3():
    return parse_program(DISJ3)


@pytest.fixture
def disj3_normal():
    return parse_program(DISJ3_NORMAL)


@pytest.fixture
def disj3_dual():
    return parse_program(DISJ3_DUAL)


def ids_of(prog, names):
    return frozenset(prog.table.id_of(n) for n in names.split())


def name_pairs(se_set):
    """SE pairs as sorted name tuples, for readable comparisons."""
    t = se_set.table
    return {
        (tuple(t.names_of(p.here)), tuple(t.names_of(p.there))) for p in se_set.pairs
    }


def synthesis_targets():
    """The synthesis corpora of acceptance criterion 08, as ``(kind,
    set)``: 200 complete here-union-closed sets (``"se"``), the UE sets of
    100 dual-normal programs (``"ue"``), then 100 sampled UE-complete,
    splittable sets (``"sampled"``)."""
    rng = random.Random(208)
    for _ in range(200):
        table = AtomTable()
        atoms = [table.intern(ch) for ch in "abcd"[: rng.randint(1, 4)]]
        closed = close_complete_here_union(random_se_pairs(rng, atoms, rng.uniform(0.05, 0.5)))
        yield "se", SESet(table, frozenset(atoms), frozenset(SEPair(x, y) for x, y in closed))
    for _ in range(100):
        prog = random_dual_normal_program(rng, rng.randint(1, 4), 6)
        yield "ue", ue_models(se_models(prog))
    sampled = 0
    while sampled < 100:
        table = AtomTable()
        atoms = [table.intern(ch) for ch in "abc"[: rng.randint(1, 3)]]
        raw = random_se_pairs(rng, atoms, rng.uniform(0.1, 0.6))
        target = SESet(table, frozenset(atoms), frozenset(SEPair(x, y) for x, y in raw))
        props = se_properties(target)
        if props.ue_complete and props.splittable:
            yield "sampled", target
            sampled += 1
