"""The record types are tuples: built, hashed and compared in C, with the
hash of their field tuple, the repr a dataclass would print, and no
assignable fields."""

import itertools

import pytest

from dualnorm.core import Rule
from dualnorm.satenc import (
    FAnd,
    FConst,
    FIff,
    FImplies,
    FNot,
    FOr,
    FVar,
    Var,
    base_var,
    build_f,
    level_var,
    node_count,
)
from dualnorm.seue import SEPair
from dualnorm.textio import parse_program


def test_rule_is_its_field_tuple():
    r = Rule((0,), (1,), (2, 3))
    assert hash(r) == hash(((0,), (1,), (2, 3)))
    assert r == ((0,), (1,), (2, 3))
    assert repr(r) == str(r) == "Rule(head=(0,), body_pos=(1,), body_neg=(2, 3))"
    assert Rule.of([3, 0, 3], (), {2}) == Rule((0, 3), (), (2,))


def test_se_pair_is_its_field_tuple():
    x, y = frozenset({1}), frozenset({1, 2})
    pair = SEPair(x, y)
    assert hash(pair) == hash((x, y))
    assert pair == SEPair(here=x, there=y) == (x, y)
    assert repr(pair) == "SEPair(here=frozenset({1}), there=frozenset({1, 2}))"


def test_var_is_its_field_tuple():
    v = level_var(1, 2, 3)
    assert v == Var("level", 1, 2, 3) and hash(v) == hash(("level", 1, 2, 3))
    assert repr(v) == "Var(kind='level', atom=1, owner=2, level=3)"
    assert base_var(0) == Var("base", 0)
    assert repr(base_var(0)) == "Var(kind='base', atom=0, owner=None, level=None)"


def test_formula_repr():
    f = FIff(FNot(FVar(base_var(0))), FAnd((FConst(True),)))
    assert repr(f) == (
        "FIff(lhs=FNot(arg=FVar(var=Var(kind='base', atom=0, owner=None, level=None))), "
        "rhs=FAnd(args=(FConst(value=True),)))"
    )


@pytest.mark.parametrize(
    "record, field",
    [
        (Rule((0,), (), ()), "head"),
        (Rule((0,), (), ()), "body_neg"),
        (SEPair(frozenset(), frozenset({0})), "here"),
        (SEPair(frozenset(), frozenset({0})), "there"),
        (base_var(0), "atom"),
        (FVar(base_var(0)), "var"),
        (FAnd(()), "args"),
        (FIff(FConst(True), FConst(False)), "rhs"),
    ],
)
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_se_pair_requires_here_within_there():
    with pytest.raises(ValueError, match="X to be a subset of Y"):
        SEPair(frozenset({1}), frozenset({2}))
    with pytest.raises(ValueError, match="X to be a subset of Y"):
        SEPair(here=frozenset({1, 2}), there=frozenset({1}))


def test_formula_nodes_of_different_classes_differ():
    payload = (FVar(base_var(0)), FConst(True))
    unary = [cls(payload) for cls in (FVar, FConst, FNot, FAnd, FOr)]
    binary = [cls(*payload) for cls in (FImplies, FIff)]
    for f, g in itertools.combinations(unary + binary, 2):
        assert f != g
    assert FAnd(payload) == FAnd(payload) and FIff(*payload) == FIff(*payload)
    assert FAnd(payload).args == payload and FIff(*payload).rhs == FConst(True)


@pytest.mark.parametrize(
    "text, nodes",
    [
        ("a :- not b.\nb :- not a.\n", 100),
        ("a | b.\nc :- a, not b.\n:- c, a.\n", 234),
        ("a | b | c :- d, not e.\nd.\ne :- not a.\n:- a, b.\n", 953),
    ],
)
def test_node_count_of_the_encoding(text, nodes):
    assert node_count(build_f(parse_program(text))) == nodes
