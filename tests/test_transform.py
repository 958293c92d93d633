import random

import pytest

from dualnorm.classify import classify_labels, is_bcf, is_hcf, is_tight
from dualnorm.common import OracleBudget
from dualnorm.core import AtomTable, Program
from dualnorm.gen import random_program, structured_corpus
from dualnorm.oracle import answer_sets_bf
from dualnorm.textio import parse_program, render_program
from dualnorm.transform import (
    _translated_answer_sets,
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


def test_decomposed_answer_sets_against_brute_force():
    # the per-owner decomposition must agree with plain enumeration; small
    # inputs keep the translated program within brute-force reach
    rng = random.Random(15)
    big = OracleBudget(max_atoms=24)
    for _ in range(60):
        p = random_program(rng, rng.randint(1, 2), 4)
        for star in (False, True):
            q = translate_star(p) if star else translate(p)
            fast = _translated_answer_sets(p, q, star=star, budget=big)
            slow = set(answer_sets_bf(q, big))
            assert fast == slow, (render_program(p), star)


def test_check_trans2_fixtures():
    for text in ("a | b.", "a :- not a.", "a.", DISJ3_DUAL, DISJ3):
        assert check_trans2(parse_program(text)), text


def test_check_trans3_fixtures():
    for text in ("a | b.", "a :- not a.", "a.", DISJ3_DUAL, DISJ3):
        assert check_trans3(parse_program(text)), text


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
