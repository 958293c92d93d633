import random

import pytest

from dualnorm import transform
from dualnorm.classify import classify_labels, is_bcf, is_hcf, is_tight
from dualnorm.common import OracleBudget
from dualnorm.core import AtomTable, Program, Rule, is_model, remap
from dualnorm.gen import random_dual_normal_program, random_program, structured_corpus
from dualnorm.oracle import answer_sets_bf
from dualnorm.reductions import parse_qbf, qbf_to_program
from dualnorm.textio import parse_program, render_program
from dualnorm.transform import (
    _seeded_minimal_models,
    build_px,
    check_trans2,
    check_trans3,
    copy_atom,
    decode_as,
    mp_of,
    neg_atom,
    translate,
    translate_star,
)

from conftest import DISJ3, DISJ3_DUAL


def canon(prog):
    return prog.canonical()


def test_build_px_examples():
    p = parse_program("a | b.")
    out = build_px(p, p.table.id_of("a"))
    assert canon(out) == parse_program(
        "__c_t_a :- __c_a_a, __c_b_a.", allow_generated=True
    ).canonical()

    q = parse_program("c :- a, not d.")
    with pytest.raises(ValueError):
        build_px(q, q.table.intern("zz"))

    r = parse_program("c :- a, not d.\nx.")
    out_r = build_px(r, r.table.id_of("x"))
    assert canon(r.with_rules([out_r.rules[0]])) == parse_program(
        "__c_a_x :- __c_c_x, not d.", allow_generated=True
    ).canonical()

    only_constraints = parse_program(":- a.\n:- not b.")
    assert build_px(only_constraints, only_constraints.table.id_of("a")).rules == ()


def test_translate_two_atom_worked_example():
    p = parse_program("a | b.")
    expected = parse_program(
        """
        a :- not __n_a.           __n_a :- not a.
        b :- not __n_b.           __n_b :- not b.
        __c_a_a :- not __n_a.
        __c_a_a :- not __n_a, not a.
        __c_b_a :- not __n_a, not b.
        __c_b_b :- not __n_b.
        __c_a_b :- not __n_b, not a.
        __c_b_b :- not __n_b, not b.
        __c_t_a :- __c_a_a, __c_b_a.
        __c_t_b :- __c_a_b, __c_b_b.
        :- not a, not b.
        :- a, not __c_t_a.
        :- b, not __c_t_b.
        """,
        allow_generated=True,
    )
    assert canon(translate(p)) == expected.canonical()


def test_translate_star_adds_saturation():
    p = parse_program("a | b.")
    extra = canon(translate_star(p)) - canon(translate(p))
    assert extra == parse_program(
        "__c_a_a :- __c_t_a.\n__c_b_a :- __c_t_a.\n"
        "__c_a_b :- __c_t_b.\n__c_b_b :- __c_t_b.",
        allow_generated=True,
    ).canonical()
    empty = Program.of(AtomTable(), [])
    assert translate_star(empty).rules == ()
    assert translate(empty).rules == ()


def test_class_swap_examples():
    normal = parse_program("c :- a, b.")
    assert classify_labels(translate(normal)).dual_normal
    dual = parse_program(DISJ3_DUAL)
    assert classify_labels(translate(dual)).normal


def test_mp_of_and_decode():
    p = parse_program("a :- not b.")
    a, b = p.table.id_of("a"), p.table.id_of("b")
    lifted = mp_of(p, frozenset({a}))
    assert lifted == frozenset({a, neg_atom(p, b)})
    assert mp_of(p, frozenset()) == frozenset({neg_atom(p, a), neg_atom(p, b)})
    assert mp_of(p, p.atom_ids) == p.atom_ids
    assert decode_as(p, lifted | {copy_atom(p, None, a)}) == frozenset({a})
    assert decode_as(p, frozenset()) == frozenset()
    assert decode_as(p, frozenset({copy_atom(p, a, a)})) == frozenset()
    with pytest.raises(ValueError):
        mp_of(p, frozenset({p.table.intern("zz")}))


def test_translated_atom_count_formula():
    for text in ("a | b.", "a :- b, not c.", DISJ3):
        p = parse_program(text)
        n = len(p.atom_ids)
        assert len(translate(p).atom_ids) == 2 * n + n * (n + 1)


def test_translation_reuses_no_atom_of_its_input():
    # a translation's or a reduction's output holds generated atoms in the
    # table the new translation draws from; the result must still be the
    # translation of the re-parsed rendering, whose table starts empty
    q = translate(parse_program("a | b."))
    inputs = [
        q,
        translate_star(parse_program("a :- not b.")),
        qbf_to_program(parse_qbf("exists x\nforall y\nterm x x y\nterm x x -y\n")),
    ]
    for p in inputs:
        n = len(p.atom_ids)
        reparsed = parse_program(render_program(p), allow_generated=True)
        for tr in (translate, translate_star):
            assert len(tr(p).atom_ids) == 2 * n + n * (n + 1)
            assert tr(p).canonical() == tr(reparsed).canonical()


def test_decomposed_answer_sets_against_brute_force():
    # the per-owner decomposition must agree with plain enumeration; small
    # inputs keep the translated program within brute-force reach
    rng = random.Random(15)
    big = OracleBudget(max_atoms=24)
    for _ in range(60):
        p = random_program(rng, rng.randint(1, 2), 4)
        for star in (False, True):
            q = translate_star(p) if star else translate(p)
            fast = {
                mp_of(p, m) | n
                for m, models in _seeded_minimal_models(p, star, big)
                for n in models
                if is_model(mp_of(p, m) | n, q)
            }
            slow = set(answer_sets_bf(q, big))
            assert fast == slow, (render_program(p), star)


def test_check_trans2_fixtures():
    for text in ("a | b.", "a :- not a.", "a.", DISJ3_DUAL, DISJ3):
        assert check_trans2(parse_program(text)), text


def test_check_trans3_fixtures():
    for text in ("a | b.", "a :- not a.", "a.", DISJ3_DUAL, DISJ3):
        assert check_trans3(parse_program(text)), text


def test_checks_fail_on_a_broken_translation(monkeypatch):
    # dropping the final constraints makes both checks fail on 219 of these
    # 300 programs; dropping one saturation rule per owner leaves the plain
    # translation intact and fails the starred check on 21
    corpus = list(structured_corpus(205, 300, max_atoms=4, max_rules=6))

    def failures():
        return (
            sum(not check_trans2(p) for p in corpus),
            sum(not check_trans3(p) for p in corpus),
        )

    assert failures() == (0, 0)
    star_rules = transform._star_rules
    monkeypatch.setattr(transform, "_true_rules", lambda copies: [])
    assert failures() == (219, 219)
    monkeypatch.undo()
    monkeypatch.setattr(transform, "_star_rules", lambda own, atoms: star_rules(own, atoms)[:-1])
    assert failures() == (0, 21)


def test_checks_intern_nothing_into_the_callers_table():
    p = parse_program("a | b.\nc :- a, not b.")
    assert check_trans2(p) and check_trans3(p)
    assert len(p.table) == 3


def test_translation_correspondences_on_corpus():
    for p in structured_corpus(16, 120, max_atoms=3, max_rules=5):
        assert check_trans2(p), render_program(p)
        assert check_trans3(p), render_program(p)


def test_class_and_cycle_swaps_on_corpus():
    for p in structured_corpus(17, 150, max_atoms=6, max_rules=8):
        labels = classify_labels(p)
        plain = translate(p)
        star = translate_star(p)
        if labels.dual_normal:
            assert classify_labels(plain).normal
            assert classify_labels(star).normal
        if labels.normal:
            assert classify_labels(plain).dual_normal
            assert classify_labels(star).dual_normal
        if labels.hcf:
            assert is_bcf(plain)
        if labels.bcf:
            assert is_hcf(plain)
        assert is_tight(p) == is_tight(plain)


# A per-occurrence reference: every generated atom is asked of neg_atom or
# copy_atom at each of its occurrences, as the construction reads.


def reference_build_px(prog, x):
    rules = []
    for r in prog.rules:
        if r.head:
            new_head = [copy_atom(prog, b, x) for b in r.body_pos] if r.body_pos else [copy_atom(prog, None, x)]
            rules.append(Rule.of(new_head, [copy_atom(prog, h, x) for h in r.head], r.body_neg))
    return Program.of(prog.table, rules)


def reference_translate(prog, star):
    atoms = sorted(prog.atom_ids)
    rules = []
    for x in atoms:
        rules += [Rule.of((x,), (), (neg_atom(prog, x),)), Rule.of((neg_atom(prog, x),), (), (x,))]
    for x in atoms:
        rules.append(Rule.of((copy_atom(prog, x, x),), (), (neg_atom(prog, x),)))
        rules.extend(Rule.of((copy_atom(prog, y, x),), (), (neg_atom(prog, x), y)) for y in atoms)
    for x in atoms:
        rules.extend(reference_build_px(prog, x).rules)
    rules.extend(Rule.of((), r.body_pos, set(r.head) | set(r.body_neg)) for r in prog.rules)
    rules.extend(Rule.of((), (x,), (copy_atom(prog, None, x),)) for x in atoms)
    if star:
        for x in atoms:
            rules.extend(Rule.of((copy_atom(prog, y, x),), (copy_atom(prog, None, x),)) for y in atoms)
    return Program.of(prog.table, rules)


def names(table):
    return [atom.name for atom in table.atoms()]


def translation_corpus():
    """Seeded programs with constraints, ``#false``, facts and other empty
    positive bodies, and translations of translations."""
    texts = [
        "#false.",
        "a | b.\n#false.",
        "a.\nb | c :- not a.\n:- b, c.",
        ":- a.\n:- not b.",
        "c :- a, not d.\nx.",
    ]
    programs = [parse_program(text) for text in texts]
    rng = random.Random(30)
    programs += [random_program(rng, rng.randint(1, 4), 6) for _ in range(40)]
    programs += [random_dual_normal_program(rng, rng.randint(1, 4), 6) for _ in range(40)]
    programs += structured_corpus(31, 40, max_atoms=4, max_rules=6)
    programs += [tr(p) for p in programs[:12] for tr in (translate, translate_star)]
    assert any(not r.head and not r.body_pos and not r.body_neg for p in programs for r in p.rules)
    assert any(r.head and not r.body_pos for p in programs for r in p.rules)
    return programs


def test_translation_allocates_its_atoms_in_order():
    # complements by atom; per owner its own copy, then the others
    # ascending; then the t-copies by owner
    p = parse_program("a | b.\nc :- a, not b.\n:- c, not a.")
    translate(p)
    assert names(p.table) == [
        "a", "b", "c", "__n_a", "__n_b", "__n_c",
        "__c_a_a", "__c_b_a", "__c_c_a",
        "__c_b_b", "__c_a_b", "__c_c_b",
        "__c_c_c", "__c_a_c", "__c_b_c",
        "__c_t_a", "__c_t_b", "__c_t_c",
    ]


def test_translation_matches_the_per_occurrence_reference():
    for p in translation_corpus():
        for star in (False, True):
            fast, slow = remap(p, AtomTable()), remap(p, AtomTable())
            tr = translate_star if star else translate
            assert tr(fast).rules == reference_translate(slow, star).rules, render_program(p)
            assert names(fast.table) == names(slow.table)
            # a second translation over the same table makes no new atom
            assert tr(fast).rules == reference_translate(slow, star).rules
            assert names(fast.table) == names(slow.table)


def test_build_px_rejects_an_unknown_atom_id():
    p = parse_program("a | b.")
    for x in (999, -1):
        with pytest.raises(ValueError, match=f"^atom id {x} does not occur in the program$"):
            build_px(p, x)


def test_build_px_interns_only_the_copies_its_rules_hold():
    p = parse_program("c :- a, not d.\nx.\n:- a, not e.")
    build_px(p, p.table.id_of("x"))
    assert names(p.table) == ["c", "a", "d", "x", "e", "__c_a_x", "__c_c_x", "__c_t_x", "__c_x_x"]
    for p in translation_corpus():
        for name in p.atom_names():
            fast, slow = remap(p, AtomTable()), remap(p, AtomTable())
            x = fast.table.id_of(name)
            assert build_px(fast, x).rules == reference_build_px(slow, x).rules
            assert names(fast.table) == names(slow.table)
