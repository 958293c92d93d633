import random

import pytest

from dualnorm.common import BudgetExceededError, OracleBudget
from dualnorm.core import is_model, split
from dualnorm.gen import random_program, structured_corpus
from dualnorm.oracle import (
    answer_sets_bf,
    equivalent_as,
    is_answer_set,
    minimal_models,
    models,
    strongly_equivalent_bf,
    uniformly_equivalent_bf,
)
from dualnorm.textio import parse_program

from conftest import ids_of


def as_names(prog, sets):
    return sorted(tuple(prog.table.names_of(m)) for m in sets)


def test_models_examples():
    p = parse_program("a | b.")
    assert as_names(p, models(p)) == [("a",), ("a", "b"), ("b",)]
    q = parse_program(":- a.\na.")
    assert models(q) == []
    r = parse_program("b | c :- a.\n:- b.\n:- c.")
    assert models(r) == [frozenset()]


def test_models_subset_lex_order():
    p = parse_program("a | b.")
    assert [sorted(p.table.names_of(m)) for m in models(p)] == [["a"], ["b"], ["a", "b"]]


def test_minimal_models_examples():
    p = parse_program("a | b.")
    assert as_names(p, minimal_models(p)) == [("a",), ("b",)]
    horn = parse_program("a.\nb :- a.")
    assert as_names(horn, minimal_models(horn)) == [("a", "b")]
    r = parse_program("b | c :- a.")
    assert minimal_models(r) == [frozenset()]


def test_answer_sets_examples(disj3):
    p = parse_program("a | b.")
    assert as_names(p, answer_sets_bf(p)) == [("a",), ("b",)]
    assert answer_sets_bf(disj3) == []
    q = parse_program("a :- not b.\nb :- not a.")
    assert as_names(q, answer_sets_bf(q)) == [("a",), ("b",)]


def test_empty_program_answer_set():
    from dualnorm.core import AtomTable, Program

    p = Program.of(AtomTable(), [])
    assert answer_sets_bf(p) == [frozenset()]


def test_answer_sets_split_characterization():
    # answer sets are the answer sets of the proper part that satisfy the
    # constraints
    with_constraints = 0
    for prog in structured_corpus(seed=41, count=300, max_atoms=5, max_rules=7):
        proper, constraints = split(prog)
        with_constraints += bool(constraints.rules)
        via_split = {m for m in answer_sets_bf(proper) if is_model(m, constraints)}
        assert set(answer_sets_bf(prog)) == via_split
    assert with_constraints > 50


def test_is_answer_set_examples():
    p = parse_program("a | b.")
    assert is_answer_set(p, ids_of(p, "a"))
    assert not is_answer_set(p, ids_of(p, "a b"))
    assert is_answer_set(parse_program("a :- b."), frozenset())
    with pytest.raises(ValueError):
        is_answer_set(p, frozenset({99}))


def test_is_answer_set_agrees_with_enumeration():
    rng = random.Random(4)
    for _ in range(80):
        p = random_program(rng, rng.randint(1, 5), 6)
        expected = set(answer_sets_bf(p))
        atoms = sorted(p.atom_ids)
        for mask in range(1 << len(atoms)):
            m = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
            assert is_answer_set(p, m) == (m in expected)


def test_equivalent_as_examples():
    assert equivalent_as(parse_program("a."), parse_program("a :- not b."))
    assert equivalent_as(
        parse_program("a | b."), parse_program("a :- not b.\nb :- not a.")
    )
    assert not equivalent_as(parse_program("a."), parse_program("b."))


def test_strong_equivalence_examples(disj3, disj3_normal):
    assert strongly_equivalent_bf(disj3, disj3)
    assert not strongly_equivalent_bf(disj3, disj3_normal)
    # two inconsistent programs: both SE sets empty over the joint universe
    assert strongly_equivalent_bf(parse_program("a.\n:- a."), parse_program("b.\n:- b."))


def test_uniform_equivalence_examples(disj3, disj3_normal, disj3_dual):
    assert uniformly_equivalent_bf(disj3, disj3_normal)
    assert not uniformly_equivalent_bf(disj3, disj3_dual)
    assert uniformly_equivalent_bf(disj3, disj3)


def test_equivalence_implication_chain():
    rng = random.Random(6)
    seen_strong = 0
    for _ in range(300):
        from dualnorm.core import AtomTable

        table = AtomTable()
        p = random_program(rng, rng.randint(1, 5), 4, table=table)
        q = random_program(rng, rng.randint(1, 5), 4, table=table)
        if rng.random() < 0.3:
            q = p.with_rules(p.rules[:-1]) if p.rules else q
        if strongly_equivalent_bf(p, q):
            seen_strong += 1
            assert uniformly_equivalent_bf(p, q)
        if uniformly_equivalent_bf(p, q):
            assert equivalent_as(p, q)
    assert seen_strong  # the corpus exercised the non-vacuous case


def test_budget_guard():
    p = parse_program("a | b.")
    with pytest.raises(BudgetExceededError):
        models(p, budget=OracleBudget(max_atoms=1))
