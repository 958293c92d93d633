import random

import pytest

from dualnorm.common import ProgramClassError
from dualnorm.core import (
    AtomTable, Program, Rule, is_model, p_t_transform, reduct, remap, require_dual_normal, satisfies, split,
)
from dualnorm.dualhorn import answer_sets_dn, is_answer_set_dn
from dualnorm.gen import atom_names, random_program, structured_corpus
from dualnorm.satenc import answer_sets_via_sat, build_f
from dualnorm.seue import SEPair, is_ue_model_dn, uniformly_equivalent_dn
from dualnorm.textio import parse_program

from conftest import ids_of


def test_satisfies_examples():
    p = parse_program("a | b.\nc :- a, b.\n:- a, b.")
    t = p.table
    disj = p.rules[0]
    join = p.rules[1]
    constraint = p.rules[2]
    assert not satisfies(frozenset(), disj)
    assert satisfies(ids_of(p, "c"), join)
    assert not satisfies(ids_of(p, "a b"), constraint)
    # negative-body satisfaction
    q = parse_program("c :- a, not d.", t)
    assert satisfies(ids_of(q, "d"), q.rules[0])


def test_is_model_examples(disj3):
    ab = parse_program("a | b.")
    assert is_model(ids_of(ab, "a"), ab)
    assert not is_model(frozenset(), ab)
    assert is_model(ids_of(disj3, "a b c"), disj3)


def test_is_model_agrees_with_satisfies():
    rng = random.Random(31)
    foreign = 100  # an id no program of the corpus uses
    programs = [Program.of(AtomTable(), [])] + list(structured_corpus(31, 120, max_atoms=5, max_rules=7))
    for p in programs:
        atoms = sorted(p.atom_ids) + [foreign]
        for _ in range(12):
            interp = frozenset(a for a in atoms if rng.random() < 0.5)
            expected = all(satisfies(interp, r) for r in p.rules)
            assert is_model(interp, p) == expected
            assert is_model(set(interp), p) == expected


def test_reduct_examples():
    p = parse_program("a :- not b.\nb :- not a.")
    red = reduct(p, ids_of(p, "a"))
    assert red.rules == (Rule.of([p.table.id_of("a")]),)

    positive = parse_program("a | b :- c.\n:- d.")
    assert reduct(positive, ids_of(positive, "a d")).rules == positive.rules

    q = parse_program(":- not c.")
    red_q = reduct(q, frozenset())
    assert red_q.rules == (Rule.of([], [], []),)
    assert not is_model(frozenset(), red_q)  # the bare impossibility


def test_p_t_transform():
    p = parse_program("a | b.")
    t = p.table.fresh("__t")
    out = p_t_transform(p, t)
    assert out.rules[0] == Rule.of([p.table.id_of("a"), p.table.id_of("b")], [t])

    q = parse_program("c :- a.")
    tq = q.table.fresh("__t")
    assert p_t_transform(q, tq).rules == q.rules

    c = parse_program(":- not c.")
    tc = c.table.fresh("__t")
    out_c = p_t_transform(c, tc)
    assert out_c.rules[0] == Rule.of([], [tc], [c.table.id_of("c")])

    with pytest.raises(ValueError):
        p_t_transform(p, p.table.id_of("a"))


def test_p_t_transform_idempotent_in_effect():
    rng = random.Random(0)
    for _ in range(50):
        p = random_program(rng, rng.randint(1, 4), 5)
        t1 = p.table.fresh("__t")
        once = p_t_transform(p, t1)
        t2 = p.table.fresh("__t")
        assert p_t_transform(once, t2).rules == once.rules


def test_split(disj3):
    p = parse_program("a.\n:- b.")
    proper, constraints = split(p)
    assert [r.head for r in proper.rules] == [(p.table.id_of("a"),)]
    assert [r.body_pos for r in constraints.rules] == [(p.table.id_of("b"),)]

    allc = parse_program(":- a.\n:- b.")
    proper, constraints = split(allc)
    assert not proper.rules and constraints.rules == allc.rules

    proper, constraints = split(disj3)
    assert len(proper.rules) == 4 and len(constraints.rules) == 1
    assert constraints.rules[0].body_neg == (disj3.table.id_of("c"),)


def test_model_of_own_reduct_property():
    rng = random.Random(1)
    for _ in range(200):
        p = random_program(rng, rng.randint(1, 5), 6)
        atoms = sorted(p.atom_ids)
        mask = rng.getrandbits(len(atoms)) if atoms else 0
        interp = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        if is_model(interp, p):
            assert is_model(interp, reduct(p, interp))


def test_padded_model_correspondence_dual_horn():
    # M models P iff M + {t} models P[t], exhaustive over up to 10 atoms
    def check(p):
        t = p.table.fresh("__t")
        padded = p_t_transform(p, t)
        atoms = sorted(p.atom_ids)
        for mask in range(1 << len(atoms)):
            m = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
            assert is_model(m, p) == is_model(m | {t}, padded)

    for text in [
        "b | c :- a.\n:- b.\n:- c.",
        "c :- a.\nb.\n:- c.",
        "a | b | c.\nb :- a.\n:- c.",
    ]:
        check(parse_program(text))

    from dualnorm.core import AtomTable, Program, Rule

    rng = random.Random(30)
    for _ in range(20):
        table = AtomTable()
        atoms = [table.intern(ch) for ch in "abcdefghij"[: rng.randint(4, 10)]]
        rules = []
        for _ in range(rng.randint(1, 10)):
            head = [a for a in atoms if rng.random() < 0.25]
            pos = [rng.choice(atoms)] if rng.random() < 0.6 else []
            if head or pos:
                rules.append(Rule.of(head, pos))
        check(Program.of(table, rules))


def test_program_dedup_and_sorted_storage():
    p = parse_program("a :- b, c.\na :- c, b.\nb | a.")
    assert len(p.rules) == 2
    assert p.rules[0].body_pos == tuple(sorted(p.rules[0].body_pos))
    assert p.rules[1].head == tuple(sorted(p.rules[1].head))


def test_program_iterates_and_counts_its_rules():
    p = parse_program("a | b.\nc :- a.\nc :- a.\n")
    assert list(p) == list(p.rules) and len(p) == len(p.rules) == 2


def test_remap_onto_its_own_table_returns_the_program():
    p = parse_program("a | b.")
    assert remap(p, p.table) is p


def test_atom_names_switch_to_numbered_names_above_26():
    assert atom_names(3) == ["a", "b", "c"] and atom_names(26)[-1] == "z"
    assert atom_names(27) == [f"x{i}" for i in range(27)]


def test_empty_program_conventions():
    p = Program.of(AtomTable(), [])
    assert p.atom_ids == frozenset()
    assert is_model(frozenset(), p)


def test_atom_table():
    t = AtomTable()
    a = t.intern("a")
    assert t.intern("a") == a
    assert t.name_of(a) == "a"
    assert t.id_of("a") == a
    f1 = t.fresh("__t")
    f2 = t.fresh("__t")
    assert t.name_of(f1) == "__t" and t.name_of(f2) == "__t_2"
    g1 = t.generated(("copy", 0, 1), "__c_a_b")
    g2 = t.generated(("copy", 0, 1), "__c_a_b")
    assert g1 == g2
    assert t.fresh("plain") == t.id_of("__plain")


def test_canonical_fingerprint_ignores_ids():
    p = parse_program("a :- b.\nc.")
    q = parse_program("c.\na :- b.")  # different id assignment order
    assert p.canonical() == q.canonical()


def test_rule_is_dual_normal():
    p = parse_program("a :- b, c.\n:- b, c.\na | b :- c, not d.\na.")
    assert [r.is_dual_normal for r in p.rules] == [False, True, True, True]
    assert not p.dual_normal
    assert p.with_rules(p.rules[1:]).dual_normal


def test_dual_normal_guard_builds_no_reduct_view():
    p = parse_program("a | b :- c, not d.\n:- b, c.")
    require_dual_normal(p)
    assert "reduct_view" not in vars(p)


@pytest.mark.parametrize(
    "call",
    [
        answer_sets_dn,
        lambda p: is_answer_set_dn(p, frozenset()),
        answer_sets_via_sat,
        build_f,
        lambda p: is_ue_model_dn(p, SEPair(frozenset(), frozenset())),
        lambda p: uniformly_equivalent_dn(p, p),
    ],
    ids=["answer_sets_dn", "is_answer_set_dn", "answer_sets_via_sat", "build_f", "is_ue_model_dn",
         "uniformly_equivalent_dn"],
)
def test_dual_normal_guard_is_shared(call):
    with pytest.raises(ProgramClassError) as exc:
        call(parse_program("a :- b, c."))
    assert str(exc.value) == "program is not dual-normal (a proper rule has more than one positive body atom)"


@pytest.mark.parametrize(
    "make",
    [list, tuple, set, lambda atoms: (a for a in atoms)],
    ids=["list", "tuple", "set", "generator"],
)
@pytest.mark.parametrize("atoms", [(), (4,), (4, 4), (3, 1, 2), (2, 0, 2, 1, 0)])
def test_rule_of_sorts_and_dedups(make, atoms):
    expected = tuple(sorted(set(atoms)))
    rule = Rule.of(make(atoms), make(atoms), make(atoms))
    assert rule == Rule(expected, expected, expected)
    assert all(type(part) is tuple for part in (rule.head, rule.body_pos, rule.body_neg))
    assert rule.atom_ids() == frozenset(atoms)
