import random

import pytest

from dualnorm.common import ProgramClassError, SynthesisPreconditionError
from dualnorm.classify import classify_labels
from dualnorm.core import AtomTable
from dualnorm.gen import (
    close_complete_here_union,
    random_dual_normal_program,
    random_normal_program,
    random_se_pairs,
    structured_corpus,
)
from dualnorm import seue
from dualnorm.oracle import strongly_equivalent_bf, uniformly_equivalent_bf
from dualnorm.seue import (
    SEPair,
    SESet,
    is_ue_model_dn,
    program_from_se_set,
    program_from_ue_set,
    se_closure,
    se_models,
    se_properties,
    se_satisfies,
    ue_models,
    uniformly_equivalent_dn,
)
from dualnorm.textio import parse_program, parse_se_set

from conftest import DISJ3, DISJ3_DUAL, DISJ3_NORMAL, UNSPLITTABLE, ids_of, name_pairs


def pair_of(prog, here, there):
    return SEPair(ids_of(prog, here) if here else frozenset(), ids_of(prog, there))


def test_se_satisfies_examples():
    p = parse_program("a :- b, not c.")
    r = p.rules[0]
    assert se_satisfies(pair_of(p, "", "c"), r)  # negative body hit by Y
    q = parse_program("a :- b.")
    assert se_satisfies(SEPair(frozenset(), frozenset()), q.rules[0])  # B misses Y
    s = parse_program("b :- a.")
    assert not se_satisfies(pair_of(s, "a", "a b"), s.rules[0])


def test_se_models_fixtures():
    se_p = se_models(parse_program(DISJ3))
    assert name_pairs(se_p) == {
        (("a", "b", "c"), ("a", "b", "c")),
        (("a",), ("a", "b", "c")),
        (("b",), ("a", "b", "c")),
    }
    se_q = se_models(parse_program(DISJ3_NORMAL))
    assert name_pairs(se_q) == name_pairs(se_p) | {((), ("a", "b", "c"))}
    se_r = se_models(parse_program(DISJ3_DUAL))
    assert name_pairs(se_r) == name_pairs(se_p) | {(("a", "b"), ("a", "b", "c"))}


def test_se_models_agree_with_se_satisfies():
    # the mask enumeration against the rule-wise four-condition test, over
    # every pair of the program's atoms and of a universe one atom wider
    for prog in structured_corpus(seed=42, count=120, max_atoms=4, max_rules=6):
        wider = prog.atom_ids | {prog.table.intern("zz")}
        for universe in (prog.atom_ids, wider):
            se_set = se_models(prog, universe=universe)
            atoms = sorted(universe)
            for ymask in range(1 << len(atoms)):
                y = frozenset(a for i, a in enumerate(atoms) if ymask >> i & 1)
                for xmask in range(1 << len(atoms)):
                    if xmask & ymask != xmask:
                        continue
                    pair = SEPair(frozenset(a for i, a in enumerate(atoms) if xmask >> i & 1), y)
                    assert (pair in se_set) == all(se_satisfies(pair, r) for r in prog.rules)


def test_ue_models_examples():
    se_p = se_models(parse_program(DISJ3))
    assert name_pairs(ue_models(se_p)) == name_pairs(se_p)
    se_r = se_models(parse_program(DISJ3_DUAL))
    assert name_pairs(ue_models(se_r)) == {
        (("a", "b"), ("a", "b", "c")),
        (("a", "b", "c"), ("a", "b", "c")),
    }
    # diagonal pairs always survive the filter
    for p in (parse_program("a."), parse_program("a | b.")):
        ue = ue_models(se_models(p))
        for pr in se_models(p).pairs:
            if pr.here == pr.there:
                assert pr in ue.pairs


def test_se_properties_fixtures():
    props_p = se_properties(se_models(parse_program(DISJ3)))
    assert props_p.complete
    assert not props_p.closed_here_union
    assert not props_p.closed_here_intersection

    s = parse_se_set(UNSPLITTABLE)
    props_s = se_properties(s)
    assert props_s.ue_complete
    assert props_s.closed_here_union
    assert not props_s.splittable

    empty = SESet(AtomTable(), frozenset(), frozenset())
    props_e = se_properties(empty)
    assert all(props_e.to_dict().values())


def test_program_from_se_set_examples():
    # a single empty diagonal pair: everything else must be excluded
    one = parse_se_set(";")
    one = SESet(one.table, frozenset({one.table.intern("a")}), one.pairs)
    prog = program_from_se_set(one)
    assert name_pairs(se_models(prog, universe=one.universe)) == {((), ())}

    # the full pair space needs no rules at all
    table = AtomTable()
    atoms = [table.intern(x) for x in "ab"]
    full_pairs = set()
    for ymask in range(4):
        y = frozenset(a for i, a in enumerate(atoms) if ymask >> i & 1)
        sub = ymask
        while True:
            x = frozenset(a for i, a in enumerate(atoms) if sub >> i & 1)
            full_pairs.add(SEPair(x, y))
            if sub == 0:
                break
            sub = (sub - 1) & ymask
    full = SESet(table, frozenset(atoms), frozenset(full_pairs))
    assert program_from_se_set(full).rules == ()

    # round trip through the SE set of the dual-normal fixture
    dual = parse_program(DISJ3_DUAL)
    se_r = se_models(dual)
    built = program_from_se_set(se_r)
    assert classify_labels(built).dual_normal
    assert se_models(built, universe=se_r.universe).pairs == se_r.pairs
    assert strongly_equivalent_bf(built, dual)


def test_program_from_se_set_precondition():
    se_p = se_models(parse_program(DISJ3))  # not closed under here-union
    with pytest.raises(SynthesisPreconditionError):
        program_from_se_set(se_p)


def test_se_closure_examples():
    table = AtomTable()
    a, b = table.intern("a"), table.intern("b")
    u = SESet(
        table,
        frozenset({a, b}),
        frozenset(
            {
                SEPair(frozenset({a}), frozenset({a, b})),
                SEPair(frozenset({b}), frozenset({a, b})),
                SEPair(frozenset({a, b}), frozenset({a, b})),
            }
        ),
    )
    assert se_closure(u).pairs == u.pairs

    single = SESet(table, frozenset({a}), frozenset({SEPair(frozenset(), frozenset())}))
    assert se_closure(single).pairs == single.pairs

    dual = parse_program(DISJ3_DUAL)
    ue_r = ue_models(se_models(dual))
    assert se_closure(ue_r).pairs == ue_r.pairs


def test_program_from_ue_set_examples():
    table = AtomTable()
    a = table.intern("a")
    u = SESet(table, frozenset({a}), frozenset({SEPair(frozenset({a}), frozenset({a}))}))
    prog = program_from_ue_set(u)
    assert ue_models(se_models(prog, universe=u.universe)).pairs == u.pairs

    dual = parse_program(DISJ3_DUAL)
    ue_r = ue_models(se_models(dual))
    built = program_from_ue_set(ue_r)
    assert classify_labels(built).dual_normal
    assert ue_models(se_models(built, universe=ue_r.universe)).pairs == ue_r.pairs
    assert uniformly_equivalent_bf(built, dual)

    with pytest.raises(SynthesisPreconditionError):
        program_from_ue_set(parse_se_set(UNSPLITTABLE))


def test_synthesis_checks_only_its_precondition(monkeypatch):
    # the SE synthesis needs no union closure; the UE synthesis builds one per
    # diagonal member (DISJ3_DUAL has one) and reuses it for the closure
    calls = []
    real = seue.union_closure
    monkeypatch.setattr(seue, "union_closure", lambda sets: calls.append(1) or real(sets))
    se_r = se_models(parse_program(DISJ3_DUAL))
    program_from_se_set(se_r)
    assert len(calls) == 0
    program_from_ue_set(ue_models(se_r))
    assert len(calls) == 1


def test_is_ue_model_dn_examples():
    dual = parse_program(DISJ3_DUAL)
    assert is_ue_model_dn(dual, pair_of(dual, "a b", "a b c"))
    assert not is_ue_model_dn(dual, pair_of(dual, "a", "a b c"))
    assert is_ue_model_dn(dual, pair_of(dual, "a b c", "a b c"))
    with pytest.raises(ProgramClassError):
        is_ue_model_dn(parse_program("a :- b, c."), SEPair(frozenset(), frozenset()))


def test_uniformly_equivalent_dn_examples():
    dual = parse_program(DISJ3_DUAL)
    with_tautology = parse_program(DISJ3_DUAL + "a :- a.\n", table=dual.table)
    without_constraint = parse_program("a | b.\na :- c.\nb :- c.", table=dual.table)
    assert uniformly_equivalent_dn(dual, with_tautology)
    assert not uniformly_equivalent_dn(dual, without_constraint)
    from dualnorm.core import Program

    empty = Program.of(AtomTable(), [])
    assert uniformly_equivalent_dn(empty, Program.of(AtomTable(), []))


def test_dual_normal_se_sets_complete_and_union_closed():
    rng = random.Random(18)
    for _ in range(150):
        p = random_dual_normal_program(rng, rng.randint(1, 5), 6)
        props = se_properties(se_models(p))
        assert props.complete and props.closed_here_union


def test_dual_normal_ue_sets_ue_complete_and_splittable():
    rng = random.Random(19)
    for _ in range(150):
        p = random_dual_normal_program(rng, rng.randint(1, 5), 6)
        props = se_properties(ue_models(se_models(p)))
        assert props.ue_complete and props.splittable and props.closed_here_union


def test_normal_programs_here_intersection_closed():
    rng = random.Random(20)
    for _ in range(150):
        p = random_normal_program(rng, rng.randint(1, 5), 6)
        assert se_properties(se_models(p)).closed_here_intersection


def test_se_round_trip_random():
    rng = random.Random(21)
    for _ in range(120):
        table = AtomTable()
        atoms = [table.intern(ch) for ch in "abcd"[: rng.randint(1, 4)]]
        raw = random_se_pairs(rng, atoms, density=rng.uniform(0.05, 0.5))
        closed = close_complete_here_union(raw)
        s = SESet(table, frozenset(atoms), frozenset(SEPair(x, y) for x, y in closed))
        built = program_from_se_set(s)
        assert classify_labels(built).dual_normal
        assert se_models(built, universe=s.universe).pairs == s.pairs


def test_ue_round_trip_random():
    rng = random.Random(22)
    done = 0
    while done < 80:
        table = AtomTable()
        atoms = [table.intern(ch) for ch in "abc"[: rng.randint(1, 3)]]
        raw = random_se_pairs(rng, atoms, density=rng.uniform(0.1, 0.6))
        s = SESet(table, frozenset(atoms), frozenset(SEPair(x, y) for x, y in raw))
        props = se_properties(s)
        if not (props.ue_complete and props.splittable):
            continue
        # UE-complete and splittable implies here-union closed, and the
        # closure handed to the SE synthesis meets its precondition
        assert props.closed_here_union
        closed = se_properties(se_closure(s))
        assert closed.complete and closed.closed_here_union
        built = program_from_ue_set(s)
        assert classify_labels(built).dual_normal
        assert ue_models(se_models(built, universe=s.universe)).pairs == s.pairs
        done += 1


def test_is_ue_model_dn_agrees_with_oracle():
    rng = random.Random(23)
    for _ in range(60):
        p = random_dual_normal_program(rng, rng.randint(1, 5), 6)
        expected = ue_models(se_models(p)).pairs
        atoms = sorted(p.atom_ids)
        for ymask in range(1 << len(atoms)):
            y = frozenset(a for i, a in enumerate(atoms) if ymask >> i & 1)
            sub = ymask
            while True:
                x = frozenset(a for i, a in enumerate(atoms) if sub >> i & 1)
                pr = SEPair(x, y)
                assert is_ue_model_dn(p, pr) == (pr in expected)
                if sub == 0:
                    break
                sub = (sub - 1) & ymask


def test_uniformly_equivalent_dn_agrees_with_oracle():
    rng = random.Random(24)
    for _ in range(60):
        table = AtomTable()
        p = random_dual_normal_program(rng, rng.randint(1, 4), 5, table=table)
        q = random_dual_normal_program(rng, rng.randint(1, 4), 5, table=table)
        assert uniformly_equivalent_dn(p, q) == uniformly_equivalent_bf(p, q)


def test_expressibility_separations():
    # the dual-normal fixture admits no strongly equivalent normal program,
    # and the normal fixture no strongly equivalent dual-normal program: the
    # closure flags are exactly the obstructions
    dual = se_properties(se_models(parse_program(DISJ3_DUAL)))
    assert not dual.closed_here_intersection
    normal = se_properties(se_models(parse_program(DISJ3_NORMAL)))
    assert not normal.closed_here_union
