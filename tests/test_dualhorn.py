import random
import tracemalloc

import pytest

from dualnorm.common import ProgramClassError
from dualnorm.core import AtomTable, Program, Rule, is_model
from dualnorm.dualhorn import (
    answer_sets_dn,
    elimination_fixpoint,
    is_answer_set_dn,
    max_model_dual_horn,
    pmm,
)
from dualnorm.gen import random_dual_normal_program, random_program
from dualnorm.oracle import answer_sets_bf, models
from dualnorm.textio import parse_program

from conftest import ids_of


def levels_as_names(prog, trace):
    return [prog.table.names_of(level) for level in trace.levels]


def test_elimination_trace_cascade():
    p = parse_program("b | c :- a.\n:- b.\n:- c.")
    tr = elimination_fixpoint(p)
    assert levels_as_names(p, tr) == [[], ["b", "c"], ["a", "b", "c"]]
    assert p.table.names_of(tr.max_model) == ["__t"]
    assert not tr.t_eliminated
    assert max_model_dual_horn(p) == frozenset()


def test_elimination_trace_unsatisfiable():
    p = parse_program("a.\n:- a.")
    tr = elimination_fixpoint(p)
    assert levels_as_names(p, tr) == [[], ["a"], ["__t", "a"]]
    assert tr.t_eliminated
    assert max_model_dual_horn(p) is None


def test_elimination_trace_empty_program():
    p = Program.of(AtomTable(), [])
    tr = elimination_fixpoint(p)
    assert [sorted(l) for l in tr.levels] == [[]]
    assert tr.max_model == frozenset({tr.t_atom})
    assert max_model_dual_horn(p) == frozenset()


def test_elimination_rejects_non_dual_horn():
    with pytest.raises(ProgramClassError):
        elimination_fixpoint(parse_program("a :- b, c."))
    with pytest.raises(ProgramClassError):
        elimination_fixpoint(parse_program("a :- not b."))


def test_max_model_examples():
    p = parse_program("c :- a.")
    assert p.table.names_of(max_model_dual_horn(p)) == ["a", "c"]
    q = parse_program(":- b.")
    universe = frozenset({q.table.intern("a"), q.table.id_of("b")})
    assert q.table.names_of(max_model_dual_horn(q, universe=universe)) == ["a"]


def test_max_model_agrees_with_enumeration():
    rng = random.Random(8)
    for _ in range(150):
        table = AtomTable()
        atoms = [table.intern(ch) for ch in "abcdefghij"[: rng.randint(1, 6)]]
        rules = []
        for _ in range(rng.randint(0, 6)):
            head = [a for a in atoms if rng.random() < 0.3]
            pos = [rng.choice(atoms)] if rng.random() < 0.7 else []
            if head or pos:
                rules.append(Rule.of(head, pos))
        p = Program.of(table, rules)
        all_models = models(p)
        maximal = max_model_dual_horn(p)
        if not all_models:
            assert maximal is None
        else:
            # the unique inclusion-maximal model
            top = [m for m in all_models if not any(m < o for o in all_models)]
            assert len(top) == 1 and top[0] == maximal


def test_monotone_chain_and_stabilization():
    rng = random.Random(9)
    for _ in range(150):
        p = random_dual_normal_program(rng, rng.randint(1, 6), 7)
        proper = p.with_rules(r for r in p.rules if r.head or len(r.body_pos) <= 1)
        dual_horn = proper.with_rules(
            Rule.of(r.head, r.body_pos) for r in proper.rules if len(r.body_pos) <= 1
        )
        tr = elimination_fixpoint(dual_horn)
        for earlier, later in zip(tr.levels, tr.levels[1:]):
            assert earlier < later
        assert len(tr.levels) <= len(dual_horn.atom_ids) + 2


def test_elimination_trace_memory_is_linear():
    # a chain eliminates one atom per level; storing every level as a set
    # would hold about n^2 / 2 = 12.5M entries
    n = 5000
    table = AtomTable()
    a = [table.intern(f"a{i}") for i in range(n + 1)]
    chain = Program.of(table, [Rule.of((a[i],), (a[i + 1],)) for i in range(n)] + [Rule.of((), (a[0],))])
    tracemalloc.start()
    try:
        assert max_model_dual_horn(chain) == frozenset()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_pmm_examples():
    p = parse_program("a | b.")
    out = pmm(p, ids_of(p, "a"), p.table.id_of("a"))
    expected = parse_program("a | b.\n:- b.\n:- a.")
    assert out.canonical() == expected.canonical()

    q = parse_program("a :- not b.")
    out_q = pmm(q, ids_of(q, "a"), q.table.id_of("a"))
    assert out_q.canonical() == parse_program("a.\n:- b.\n:- a.").canonical()

    r = parse_program("a | b.\nb :- a.")
    out_r = pmm(r, ids_of(r, "a b"), r.table.id_of("b"))
    # no atoms outside the interpretation: only the exclusion constraint
    assert sum(1 for rule in out_r.rules if rule.is_constraint) == 1

    with pytest.raises(ValueError):
        pmm(p, ids_of(p, "a"), p.table.id_of("b"))


def test_pmm_of_dual_normal_program_is_dual_horn():
    rng = random.Random(12)
    for _ in range(100):
        p = random_dual_normal_program(rng, rng.randint(1, 5), 6)
        atoms = sorted(p.atom_ids)
        for mask in range(1 << len(atoms)):
            interp = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
            for m in interp:
                assert all(r.is_dual_horn for r in pmm(p, interp, m).rules)


def test_pmm_matches_minimality_semantics():
    # the witness program has a model iff some model of the reduct sits
    # strictly below the interpretation at the excluded atom
    rng = random.Random(10)
    for _ in range(100):
        p = random_program(rng, rng.randint(1, 5), 6)
        atoms = sorted(p.atom_ids)
        if not atoms:
            continue
        expected = set(answer_sets_bf(p))
        for mask in range(1 << len(atoms)):
            m = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
            member = is_model(m, p) and all(
                not models(pmm(p, m, x), universe=p.atom_ids) for x in m
            )
            assert member == (m in expected)


def test_is_answer_set_dn_examples(disj3_dual):
    p = parse_program("a | b.")
    assert is_answer_set_dn(p, ids_of(p, "a"))
    assert not is_answer_set_dn(p, ids_of(p, "a b"))
    assert not is_answer_set_dn(disj3_dual, ids_of(disj3_dual, "a b c"))
    with pytest.raises(ProgramClassError):
        is_answer_set_dn(parse_program("a :- b, c."), frozenset())


def test_is_answer_set_dn_agrees_with_oracle():
    rng = random.Random(11)
    for _ in range(150):
        p = random_dual_normal_program(rng, rng.randint(1, 6), 7)
        atoms = sorted(p.atom_ids)
        expected = set(answer_sets_bf(p))
        for mask in range(1 << len(atoms)):
            m = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
            assert is_answer_set_dn(p, m) == (m in expected)


def test_answer_sets_dn_examples(disj3_dual):
    p = parse_program("a | b.")
    assert [p.table.names_of(m) for m in answer_sets_dn(p)] == [["a"], ["b"]]
    assert answer_sets_dn(parse_program("a :- not a.")) == []
    assert answer_sets_dn(disj3_dual) == answer_sets_bf(disj3_dual)
