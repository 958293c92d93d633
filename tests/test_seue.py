import random
from collections import Counter

import pytest

from dualnorm.common import ProgramClassError, SynthesisPreconditionError
from dualnorm.classify import classify_labels
from dualnorm.core import AtomTable, Program, Rule, SubsetLattice, is_model, reduct, split
from dualnorm.dualhorn import is_answer_set_dn, max_model_dual_horn
from dualnorm.gen import (
    close_complete_here_union,
    random_dual_normal_program,
    random_normal_program,
    random_program,
    random_se_pairs,
    structured_corpus,
)
from dualnorm import dualhorn, seue
from dualnorm.oracle import is_answer_set, strongly_equivalent_bf, uniformly_equivalent_bf
from dualnorm.seue import (
    SEPair,
    SEProperties,
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
from dualnorm.textio import parse_program, parse_se_set, render_program

from conftest import DISJ3, DISJ3_DUAL, DISJ3_NORMAL, UNSPLITTABLE, ids_of, name_pairs, synthesis_targets


def pair_of(prog, here, there):
    return SEPair(ids_of(prog, here) if here else frozenset(), ids_of(prog, there))


def subsets(atoms):
    atoms = sorted(atoms)
    return [frozenset(a for i, a in enumerate(atoms) if mask >> i & 1) for mask in range(1 << len(atoms))]


def ue_model_reference(prog, pair, universe):
    """The per-atom construction: each atom a of Y \\ X spawns the dual-Horn
    theory P^Y (proper part) + the facts X + ``:- z.`` for every z of the
    universe and of at(P) outside Y + ``:- a.``, whose maximal model over
    the universe must be X."""
    x, y = pair.here, pair.there
    if not is_model(y, prog):
        return False
    if x == y:
        return True
    proper_reduct = reduct(split(prog)[0], y)
    if not is_model(x, proper_reduct):
        return False
    base = list(proper_reduct.rules)
    base.extend(Rule.of((a,)) for a in sorted(x))
    base.extend(Rule.of((), (z,)) for z in sorted((universe | prog.atom_ids) - y))
    base = tuple(dict.fromkeys(base))
    return all(
        max_model_dual_horn(Program(prog.table, (*base, Rule.of((), (a,)))), universe=universe) == x
        for a in sorted(y - x)
    )


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


def test_se_set_repr():
    table = AtomTable()
    a = table.intern("a")
    se_set = SESet(table, frozenset({a}), [SEPair(frozenset(), frozenset({a}))])
    assert repr(se_set) == (
        f"SESet(table={table!r}, universe=frozenset({{{a}}}), "
        f"pairs=frozenset({{SEPair(here=frozenset(), there=frozenset({{{a}}}))}}))"
    )


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
    # the SE synthesis computes no union closure; the UE synthesis computes
    # the grid's union fixpoint once, for splittability, and synthesizes
    # from that closure
    calls = []
    real = seue._union_closure
    monkeypatch.setattr(seue, "_union_closure", lambda grid, heres: calls.append(1) or real(grid, heres))
    se_r = se_models(parse_program(DISJ3_DUAL))
    program_from_se_set(se_r)
    assert len(calls) == 0
    program_from_ue_set(ue_models(se_r))
    assert len(calls) == 1


def test_synthesized_programs_read_back_with_their_models():
    # a set with no pairs synthesizes the empty constraint, rendered as
    # ``#false.``; over an empty universe no atom can express it
    empty = []
    for names in ("", "a b"):
        table = AtomTable()
        empty.append(SESet(table, frozenset(map(table.intern, names.split())), frozenset()))
    targets = list(synthesis_targets()) + [(kind, s) for s in empty for kind in ("se", "ue")]
    for kind, target in targets:
        built = (program_from_se_set if kind == "se" else program_from_ue_set)(target)
        text = render_program(built)
        again = parse_program(text, table=target.table)
        assert render_program(again) == text
        before = se_models(built, universe=target.universe)
        after = se_models(again, universe=target.universe)
        assert after.pairs == before.pairs
        assert ue_models(after).pairs == ue_models(before).pairs
    assert [render_program(program_from_se_set(s)) for s in empty] == ["#false.\n"] * 2


def test_is_ue_model_dn_examples():
    dual = parse_program(DISJ3_DUAL)
    assert is_ue_model_dn(dual, pair_of(dual, "a b", "a b c"))
    assert not is_ue_model_dn(dual, pair_of(dual, "a", "a b c"))
    assert is_ue_model_dn(dual, pair_of(dual, "a b c", "a b c"))
    with pytest.raises(ProgramClassError):
        is_ue_model_dn(parse_program("a :- b, c."), SEPair(frozenset(), frozenset()))


def test_is_ue_model_dn_matches_the_per_atom_construction():
    # universes equal to at(P), larger than it, and missing some of its
    # atoms; the checks of neighbouring Y values, over every universe, are
    # interleaved, so the memo of the last Y both hits and misses
    rng = random.Random(25)
    for _ in range(60):
        p = random_dual_normal_program(rng, rng.randint(1, 5), 6)
        extra = [p.table.intern(f"x{i}") for i in range(2)]
        atoms = sorted(p.atom_ids)
        universes = [
            p.atom_ids,
            p.atom_ids | frozenset(extra[: rng.randint(1, 2)]),
            frozenset(rng.sample(atoms, rng.randint(0, len(atoms)))) | {extra[0]},
        ]
        ys = list({y for uni in universes for y in subsets(uni)})
        rng.shuffle(ys)
        place = {y: i for i, y in enumerate(ys)}
        checks = [(uni, SEPair(x, y)) for uni in universes for y in subsets(uni) for x in subsets(y)]
        checks.sort(key=lambda check: place[check[1].there] + 2 * rng.random())
        for uni, pr in checks:
            assert is_ue_model_dn(p, pr, uni) == ue_model_reference(p, pr, uni)
        for uni in universes:
            with pytest.raises(ValueError):
                is_ue_model_dn(p, SEPair(frozenset(), uni | {p.table.intern("outside")}), uni)


def test_ue_test_builds_one_view_per_there_component(monkeypatch):
    compiled, runs = [], []
    compile_elimination, run = dualhorn.compile_elimination, dualhorn.ReductClosure._continue
    monkeypatch.setattr(dualhorn, "compile_elimination", lambda rules: compiled.append(1) or compile_elimination(rules))
    monkeypatch.setattr(dualhorn.ReductClosure, "_continue", lambda closure, a: runs.append((closure, a)) or run(closure, a))
    p = parse_program("a | b | c | d.\nb :- a.\nc | d :- b.\na :- not e.")
    y = ids_of(p, "a b c d")
    verdicts = [is_ue_model_dn(p, SEPair(x, y)) for x in subsets(y)]
    assert any(verdicts) and not all(verdicts)
    assert len(compiled) == 1
    assert len(runs) <= len(y) and len(set(runs)) == len(runs)

    # a full scan (of 3^5 pairs) keeps one closure per program, the last
    # there-component's, and builds one per there-component
    q = parse_program("a | b | c | d.\nb :- a.\nc | d :- b.\na :- not e.\na :- a.", table=p.table)
    compiled.clear()
    runs.clear()
    assert uniformly_equivalent_dn(p, q)
    joint = p.atom_ids | q.atom_ids
    for prog in (p, q):
        closure = prog.reduct_view.closure
        assert closure.interp == joint
        atoms = [a for ran, a in runs if ran is closure]
        assert len(set(atoms)) == len(atoms) <= len(joint)
    assert len(compiled) <= 2 * 2 ** len(joint)
    assert len(runs) <= 2 * len(joint) * 2 ** (len(joint) - 1)


def test_ue_test_caches_the_heres_that_pass(monkeypatch):
    # the first pair with X != Y runs the elimination once per atom of Y;
    # every later pair at Y, in any order, is a lookup
    runs = []
    run = dualhorn.ReductClosure._continue
    monkeypatch.setattr(dualhorn.ReductClosure, "_continue", lambda closure, a: runs.append(a) or run(closure, a))
    rng = random.Random(12)
    for _ in range(40):
        p = random_dual_normal_program(rng, rng.randint(1, 5), 6)
        expected = ue_models(se_models(p)).pairs
        for y in subsets(p.atom_ids):
            heres = subsets(y)
            rng.shuffle(heres)
            runs.clear()
            for x in heres:
                pair = SEPair(x, y)
                before = len(runs)
                assert is_ue_model_dn(p, pair) == (pair in expected)
                if x != y and before:
                    assert len(runs) == before
            assert len(runs) <= len(y)


def test_one_reduct_closure_serves_both_checks(monkeypatch):
    # the answer-set check of M and the UE tests of the pairs (X, M),
    # interleaved, share the reduct closure of M, and every closure of the
    # program shares one compile of its rules, made by the first closure:
    # the checks of the empty set and of non-models make none
    compiled = []
    compile_elimination = dualhorn.compile_elimination
    monkeypatch.setattr(dualhorn, "compile_elimination", lambda rules: compiled.append(1) or compile_elimination(rules))
    rng = random.Random(27)
    for _ in range(80):
        p = random_dual_normal_program(rng, rng.randint(1, 5), 6)
        expected = ue_models(se_models(p)).pairs
        compiled.clear()
        for interp in subsets(p.atom_ids):
            if not interp or not is_model(interp, p):
                assert is_answer_set_dn(p, interp) == is_answer_set(p, interp)
        assert compiled == []
        for interp in subsets(p.atom_ids):
            answer = is_answer_set(p, interp)
            heres = subsets(interp)
            rng.shuffle(heres)
            for x in heres:
                assert is_answer_set_dn(p, frozenset(interp)) == answer  # an equal set, not the same one
                pair = SEPair(x, interp)
                assert is_ue_model_dn(p, pair) == (pair in expected)
            assert is_answer_set_dn(p, interp) == answer
        assert len(compiled) == 1


def test_reduct_closure_tests_the_model_on_first_read():
    # the UE test reads the classical model test, the answer-set check does
    # not; a program with a closure goes with its last reference
    import gc

    p = parse_program("a | b.\nc :- a.\n:- b, c.")
    a, c = map(p.table.id_of, "ac")
    assert is_answer_set_dn(p, frozenset({a, c}))
    assert "model" not in p.reduct_view.closure.__dict__
    assert not is_ue_model_dn(p, SEPair(frozenset(), frozenset({a})))
    assert p.reduct_view.closure.model is False
    gc.collect()
    gc.disable()
    try:
        del p
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    # universes larger than at(P) and missing some of its atoms, which the
    # oracle reads as false
    rng = random.Random(26)
    missing = 0
    for _ in range(60):
        p = random_dual_normal_program(rng, rng.randint(1, 5), 6)
        extra = p.table.intern("x0")
        atoms = sorted(p.atom_ids)
        for uni in (p.atom_ids | {extra}, frozenset(rng.sample(atoms, rng.randint(0, len(atoms))))):
            missing += not p.atom_ids <= uni
            expected = ue_models(se_models(p, universe=uni)).pairs
            for y in subsets(uni):
                for x in subsets(y):
                    pr = SEPair(x, y)
                    assert is_ue_model_dn(p, pr, uni) == (pr in expected)
    assert missing > 20


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


# ---------------------------------------------------------------------------
# The frozenset predicates, UE filter and synthesis that the mask view
# replaced, kept as the reference for the mask versions.


def ref_grouped(se_set):
    by_there = {}
    for p in se_set.pairs:
        by_there.setdefault(p.there, set()).add(p.here)
    return by_there, {y for y, xs in by_there.items() if y in xs}


def ref_ue_pairs(se_set):
    by_there, _ = ref_grouped(se_set)
    return {
        p
        for p in se_set.pairs
        if all(x == p.there or not p.here < x for x in by_there[p.there])
    }


def ref_union_closure(sets):
    closed = set()
    for s in sets:
        if s not in closed:
            closed |= {s | c for c in closed}
            closed.add(s)
    return closed


def ref_union_closures(by_there, diagonal):
    return {
        z: ref_union_closure(x for y, xs in by_there.items() if y <= z for x in xs)
        for z in diagonal
    }


def ref_complete(by_there, diagonal):
    return by_there.keys() <= diagonal and all(
        xs <= by_there[z] for y, xs in by_there.items() for z in diagonal if y <= z
    )


def ref_closed_here_union(by_there):
    return all(x | x2 in xs for xs in by_there.values() for x in xs for x2 in xs)


def ref_ue_complete(by_there, diagonal):
    return (
        by_there.keys() <= diagonal
        and all(
            any(y <= mid < z for mid in by_there[z])
            for y in by_there
            for z in diagonal
            if y < z
        )
        and all(x2 == y or not x < x2 for y, xs in by_there.items() for x in xs for x2 in xs)
    )


def ref_splittable(by_there, closures):
    return all(
        u in by_there[z] or any(u <= z2 < z for z2 in by_there[z])
        for z, unions in closures.items()
        for u in unions
    )


def ref_properties(se_set):
    by_there, diagonal = ref_grouped(se_set)
    return {
        "complete": ref_complete(by_there, diagonal),
        "closed_here_intersection": all(
            x & x2 in xs for xs in by_there.values() for x in xs for x2 in xs
        ),
        "closed_here_union": ref_closed_here_union(by_there),
        "ue_complete": ref_ue_complete(by_there, diagonal),
        "splittable": ref_splittable(by_there, ref_union_closures(by_there, diagonal)),
    }


def ref_synthesize(se_set, by_there):
    atoms = sorted(se_set.universe)
    theres = by_there.keys()

    def escape(hat_y):
        return {min(y - hat_y) for y in theres if y - hat_y}

    rules = []
    for hat_y in subsets(atoms):
        if hat_y in theres:
            continue
        body = {min(hat_y - y) for y in theres if y <= hat_y}
        rules.append(Rule.of((), body, escape(hat_y)))
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    for hat_y in sorted(theres, key=lambda y: sum(bit[a] for a in y)):
        heres = by_there[hat_y]
        nbody = escape(hat_y)
        for hat_x in sorted(subsets(hat_y), key=lambda x: sum(bit[a] for a in x))[:-1]:
            if hat_x in heres:
                continue
            inside = [x for x in heres if x <= hat_x]
            excess = [x for x in heres if x - hat_x]
            body = {min(hat_x - frozenset().union(*inside))} if inside else set()
            head = {min(x - hat_x) for x in excess} if excess else {min(hat_y - hat_x)}
            rules.append(Rule.of(head, body, nbody))
    return Program.of(se_set.table, rules)


def ref_program_from(kind, se_set):
    """The reference synthesis, or None where its precondition fails."""
    by_there, diagonal = ref_grouped(se_set)
    if kind == "se":
        if ref_complete(by_there, diagonal) and ref_closed_here_union(by_there):
            return ref_synthesize(se_set, by_there)
        return None
    closures = ref_union_closures(by_there, diagonal)
    if ref_ue_complete(by_there, diagonal) and ref_splittable(by_there, closures):
        return ref_synthesize(se_set, closures)
    return None


def reference_corpus():
    """300 SE-sets over 6-8 atoms: the SE and UE sets of 100 seeded
    dual-normal, normal and general programs, and 100 of them with one
    pair added or removed."""
    rng = random.Random(1818)
    makers = (random_dual_normal_program, random_normal_program, random_program)
    for i in range(100):
        n = 6 + i % 3
        se = SESet(AtomTable())
        # the reference is quadratic in the heres of a there-component:
        # sets of over 1 000 pairs are redrawn to keep the test short
        while len(se.universe) != n or len(se) > 1000:
            prog = makers[i // 3 % 3](rng, n, 3 * n)
            se = se_models(prog)
        ue = SESet(prog.table, se.universe, ref_ue_pairs(se))
        yield se
        yield ue
        base = rng.choice((se, ue))
        pairs = set(base.pairs)
        if pairs and rng.random() < 0.5:
            pairs.remove(rng.choice(sorted(pairs, key=lambda p: (sorted(p.there), sorted(p.here)))))
        else:
            y = frozenset(a for a in base.universe if rng.random() < 0.6)
            pairs.add(SEPair(frozenset(a for a in y if rng.random() < 0.5), y))
        yield base.with_pairs(pairs)


def small_se_sets():
    """SE-sets of 0-5 atoms from one seed: the empty universe, the empty
    set, a there-component without its diagonal pair, then raw random pair
    sets (the sparse ones leave many there-components without their
    diagonal pair), their completions and here-union closures, the UE
    filters of both, and the SE and UE sets of dual-normal programs.  Atoms
    are interned out of name order."""
    table = AtomTable()
    a = table.intern("a")
    yield SESet(table)
    yield SESet(table, frozenset(), {SEPair(frozenset(), frozenset())})
    yield SESet(table, {a})
    yield SESet(table, {a}, {SEPair(frozenset(), frozenset({a}))})
    rng = random.Random(2727)
    for i in range(200):
        table = AtomTable()
        atoms = [table.intern(f"p{j}") for j in rng.sample(range(9), i % 6)]
        raw = random_se_pairs(rng, atoms, rng.uniform(0.02, 0.6))
        for pairs in (raw, close_complete_here_union(raw)):
            se_set = SESet(table, frozenset(atoms), {SEPair(x, y) for x, y in pairs})
            yield se_set
            yield SESet(table, se_set.universe, ref_ue_pairs(se_set))
        if atoms:
            se = se_models(random_dual_normal_program(rng, len(atoms), 2 * len(atoms)))
            yield se
            yield SESet(se.table, se.universe, ref_ue_pairs(se))


def agrees_with_the_reference(se_set):
    """Check the flags, the UE filter, the closure and both syntheses of a
    set against the frozenset reference; returns the reference flags and
    the number of syntheses whose precondition holds."""
    fresh = SESet(se_set.table, se_set.universe, se_set.pairs)  # no grid yet
    expected = ref_properties(fresh)
    assert se_properties(fresh).to_dict() == expected
    assert ue_models(fresh).pairs == ref_ue_pairs(fresh)
    closures = ref_union_closures(*ref_grouped(fresh))
    assert se_closure(fresh).pairs == {SEPair(u, z) for z, us in closures.items() for u in us}
    built = 0
    for kind, synthesize in (("se", program_from_se_set), ("ue", program_from_ue_set)):
        want = ref_program_from(kind, fresh)
        if want is None:
            with pytest.raises(SynthesisPreconditionError):
                synthesize(fresh)
        else:
            assert synthesize(fresh).rules == want.rules
            built += 1
    return expected, built


def test_mask_view_agrees_with_the_frozenset_reference():
    falses = Counter()
    built = 0
    for se_set in reference_corpus():
        expected, n = agrees_with_the_reference(se_set)
        falses.update(flag for flag, value in expected.items() if not value)
        built += n
    # every flag fails somewhere and holds somewhere in the 300 sets
    assert len(falses) == 5 and max(falses.values()) < 300, falses
    assert built > 100


def test_grid_agrees_with_the_frozenset_reference_on_small_sets():
    falses, trues = Counter(), Counter()
    sizes = Counter()
    for se_set in small_se_sets():
        expected, _ = agrees_with_the_reference(se_set)
        for flag, value in expected.items():
            (trues if value else falses)[flag, len(se_set.universe)] += 1
        sizes[len(se_set.universe)] += 1
    # each flag fails and holds at each size from two atoms up
    assert set(sizes) == set(range(6))
    assert all(falses[flag, k] and trues[flag, k] for flag in SEProperties._fields for k in range(2, 6))


def test_grid_with_its_tables_made_as_it_goes(monkeypatch):
    # over more atoms than the lattice keeps tables for, each closure makes
    # them from its highest bit down
    monkeypatch.setattr(SubsetLattice, "KEPT_BITS", -1)
    for i, se_set in enumerate(small_se_sets()):
        if i % 3 == 0:
            agrees_with_the_reference(se_set)


@pytest.mark.parametrize("by_row", [True, False])
def test_grid_in_either_layout(monkeypatch, by_row):
    # the rows of the set, padded, or a row for every mask, whatever the
    # number of rows
    monkeypatch.setattr(seue._Grid, "WORD", 0 if by_row else 1 << 40)
    for i, se_set in enumerate(small_se_sets()):
        if i % 2 == 0:
            agrees_with_the_reference(se_set)
    for i, se_set in enumerate(reference_corpus()):
        if i % 10 == 0:
            agrees_with_the_reference(se_set)


def test_grid_of_few_rows_holds_only_those_rows():
    # the chain a0 <- a1 <- ... <- a13 has 15 models: its grid is 16 rows of
    # 2^14 bits, not 4^14 bits
    prog = parse_program("".join(f"a{i} :- a{i + 1}.\n" for i in range(13)))
    se_set = se_models(prog)
    grid = seue._Grid(se_set)
    assert grid.by_row and len(grid.ys) == 15 and grid.full.bit_length() == 16 << 14
    agrees_with_the_reference(se_set)
    agrees_with_the_reference(ue_models(se_set))
