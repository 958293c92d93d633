import random

import pytest

from dualnorm.classify import classify_labels
from dualnorm.oracle import answer_sets_bf, strongly_equivalent_bf
from dualnorm.reductions import (
    Cnf3,
    Qbf2E,
    is_complexity_sensitive,
    parse_cnf3,
    parse_qbf,
    qbf_eval,
    qbf_to_program,
    unsat_to_singular,
)
from dualnorm.textio import parse_program, render_program


def lits(*pairs):
    return tuple(pairs)


def test_qbf_eval_examples():
    f = Qbf2E(("x",), ("y",), (lits(("x", True), ("x", True), ("y", True)),
                               lits(("x", True), ("x", True), ("y", False))))
    assert qbf_eval(f)
    g = Qbf2E(("x",), ("y",), (lits(("x", True), ("y", True), ("x", True)),))
    assert not qbf_eval(g)
    no_universals = Qbf2E(("x",), (), (lits(("x", True), ("x", True), ("x", True)),))
    assert qbf_eval(no_universals)


def test_qbf_to_program_shape():
    f = Qbf2E(("x",), ("y",), (lits(("x", True), ("x", True), ("y", True)),))
    prog = qbf_to_program(f)
    text = render_program(prog)
    assert "__w :- y, not __n_x." in text  # duplicate slots collapse
    assert "x | __n_x." in text
    assert "y | __n_y." in text and "y :- __w." in text and "__n_y :- __w." in text
    assert ":- not __w." in text

    # no universal variables: no saturation rules
    g = Qbf2E(("x",), (), (lits(("x", True), ("x", True), ("x", True)),))
    assert ":- __w" not in render_program(qbf_to_program(g)).replace(":- not __w.", "")


def test_qbf_program_consistency_matches_truth():
    rng = random.Random(25)
    xs, ys = ("x1", "x2"), ("y1", "y2")
    pool = [(v, s) for v in xs + ys for s in (True, False)]
    for _ in range(250):
        terms = tuple(
            tuple(rng.choice(pool) for _ in range(3))
            for _ in range(rng.randint(1, 3))
        )
        f = Qbf2E(xs, ys, terms)
        prog = qbf_to_program(f)
        assert bool(answer_sets_bf(prog)) == qbf_eval(f), terms


def test_is_complexity_sensitive():
    one_universal = Qbf2E(("x",), ("y",), (lits(("x", True), ("x", True), ("y", True)),))
    assert is_complexity_sensitive(one_universal)

    two_universals = Qbf2E(("x",), ("y1", "y2"),
                           (lits(("y1", True), ("y2", True), ("x", True)),))
    assert not is_complexity_sensitive(two_universals)

    mixed_polarity = Qbf2E(("x",), ("y",), (lits(("y", True), ("y", False), ("x", True)),))
    # one distinct universal atom, but two universal body literals
    assert not is_complexity_sensitive(mixed_polarity)
    assert not classify_labels(qbf_to_program(mixed_polarity)).dual_normal


def test_complexity_sensitive_implies_dual_normal():
    rng = random.Random(26)
    xs, ys = ("x1", "x2"), ("y1", "y2")
    pool = [(v, s) for v in xs + ys for s in (True, False)]
    hits = 0
    for _ in range(300):
        terms = tuple(
            tuple(rng.choice(pool) for _ in range(3))
            for _ in range(rng.randint(1, 3))
        )
        f = Qbf2E(xs, ys, terms)
        if is_complexity_sensitive(f):
            hits += 1
            assert classify_labels(qbf_to_program(f)).dual_normal
    assert hits


def test_unsat_reduction_examples():
    reference = parse_program("a.\n:- a.")
    contradictory = Cnf3(((1, 1, 1), (-1, -1, -1)))
    assert strongly_equivalent_bf(unsat_to_singular(contradictory), reference)
    satisfiable = Cnf3(((1, 1, 1),))
    assert not strongly_equivalent_bf(unsat_to_singular(satisfiable), reference)
    assert classify_labels(unsat_to_singular(contradictory)).singular


def cnf_satisfiable(cnf: Cnf3) -> bool:
    variables = cnf.variables()
    for mask in range(1 << len(variables)):
        assignment = {v: bool(mask >> i & 1) for i, v in enumerate(variables)}
        if all(any((lit > 0) == assignment[abs(lit)] for lit in cl) for cl in cnf.clauses):
            return True
    return False


def test_unsat_reduction_matches_satisfiability():
    rng = random.Random(27)
    reference = parse_program("a.\n:- a.")
    pool = [1, 2, 3, -1, -2, -3]
    for _ in range(120):
        cnf = Cnf3(tuple(
            tuple(rng.choice(pool) for _ in range(3))
            for _ in range(rng.randint(1, 4))
        ))
        prog = unsat_to_singular(cnf)
        assert classify_labels(prog).singular
        assert strongly_equivalent_bf(prog, reference) == (not cnf_satisfiable(cnf))


def test_parse_qbf():
    f = parse_qbf("% example\nexists x1 x2\nforall y1\nterm x1 -y1 x2\n")
    assert f.exists_vars == ("x1", "x2") and f.forall_vars == ("y1",)
    assert f.terms == ((("x1", True), ("y1", False), ("x2", True)),)
    with pytest.raises(ValueError):
        parse_qbf("term x1 x2")
    with pytest.raises(ValueError):
        parse_qbf("choose x1")
    with pytest.raises(ValueError):
        parse_qbf("exists x\nforall x\nterm x x x")
    with pytest.raises(ValueError):
        parse_qbf("exists x\nterm x x y")


def test_parse_cnf3():
    cnf = parse_cnf3("clause 1 -2 3\nclause 2 2 2\n")
    assert cnf.clauses == ((1, -2, 3), (2, 2, 2))
    assert cnf.variables() == [1, 2, 3]
    with pytest.raises(ValueError):
        parse_cnf3("clause 1 2")
    with pytest.raises(ValueError):
        parse_cnf3("klause 1 2 3")
    with pytest.raises(ValueError):
        parse_cnf3("clause 1 0 3")
