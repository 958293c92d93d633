"""The record types are tuples: built, hashed and compared in C, with the
hash of their field tuple, the repr a dataclass would print, and no
assignable fields.  Formula nodes are plain tuples of a tag and their
fields, with no attributes.  The stateful objects are plain classes, and
the package imports no ``dataclasses``."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualnorm
from dualnorm.classify import ClassLabels, DepGraph, classify_labels, dep_graph
from dualnorm.common import OracleBudget
from dualnorm.core import Atom, AtomTable, Program, Rule
from dualnorm.reductions import Cnf3, Qbf2E
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
from dualnorm.seue import SEPair, SEProperties, SESet, se_models, se_properties
from dualnorm.textio import SourceSpan, parse_program

LABELS = (False, False, False, True, False, True, False, False, True, True, True)
QBF_FIELDS = (("x",), ("y",), ((("x", True), ("y", False), ("x", True)),))


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


@pytest.mark.parametrize(
    "record, fields, text",
    [
        (OracleBudget(), (22,), "OracleBudget(max_atoms=22)"),
        (OracleBudget(max_atoms=3), (3,), "OracleBudget(max_atoms=3)"),
        (Atom(1, "a"), (1, "a"), "Atom(id=1, name='a')"),
        (SourceSpan(1, 2), (1, 2), "SourceSpan(line=1, column=2)"),
        (
            ClassLabels(*LABELS),
            LABELS,
            "ClassLabels(horn=False, dual_horn=False, normal=False, dual_normal=True, singular=False, "
            "positive=True, definite=False, constraint_free=False, hcf=True, bcf=True, tight=True)",
        ),
        (DepGraph((0, 1, 2), ((2, 0),)), ((0, 1, 2), ((2, 0),)), "DepGraph(vertices=(0, 1, 2), edges=((2, 0),))"),
        (
            SEProperties(True, False, True, True, False),
            (True, False, True, True, False),
            "SEProperties(complete=True, closed_here_intersection=False, closed_here_union=True, "
            "ue_complete=True, splittable=False)",
        ),
        (
            Qbf2E(*QBF_FIELDS),
            QBF_FIELDS,
            "Qbf2E(exists_vars=('x',), forall_vars=('y',), terms=((('x', True), ('y', False), ('x', True)),))",
        ),
        (Cnf3(((1, -2, 3),)), (((1, -2, 3),),), "Cnf3(clauses=((1, -2, 3),))"),
    ],
)
def test_record_is_its_field_tuple(record, fields, text):
    assert hash(record) == hash(fields)
    assert record == fields and tuple(record) == fields
    assert repr(record) == text
    cls = type(record)
    assert cls(**dict(zip(cls._fields, fields))) == record


def test_to_dict_keeps_the_field_order():
    p = parse_program("a | b.\nc :- a.\n:- c, b.\n")
    labels = classify_labels(p)
    assert labels == ClassLabels(*LABELS) and list(labels.to_dict().items()) == list(zip(ClassLabels._fields, LABELS))
    props = se_properties(se_models(p))
    assert props.to_dict() == {
        "complete": True,
        "closed_here_intersection": True,
        "closed_here_union": True,
        "ue_complete": True,
        "splittable": True,
    }
    assert dep_graph(p) == DepGraph((0, 1, 2), ((2, 0),))


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
        (OracleBudget(), "max_atoms"),
        (Atom(0, "a"), "name"),
        (SourceSpan(1, 2), "column"),
        (ClassLabels(*LABELS), "tight"),
        (DepGraph((), ()), "edges"),
        (SEProperties(True, True, True, True, True), "splittable"),
        (Qbf2E(*QBF_FIELDS), "terms"),
        (Cnf3(()), "clauses"),
    ],
)
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_program_and_se_set_attributes_cannot_be_assigned():
    p = Program.of(AtomTable(), [Rule((0,), (), ())])
    se_set = SESet(p.table, frozenset({0}), [SEPair(frozenset(), frozenset({0}))])
    assert p.atom_ids == frozenset({0}) and se_set.rows == {1: 1}  # atom_ids is cached on first read
    for obj, name in ((p, "rules"), (p, "table"), (p, "atom_ids"), (se_set, "pairs"), (se_set, "rows")):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    for name in ("rules", "atom_ids"):
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p.rules == (Rule((0,), (), ()),) and p == p and p != Program(p.table, p.rules)


def test_import_loads_no_dataclasses():
    src = str(Path(dualnorm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, dualnorm.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n"


def test_se_pair_requires_here_within_there():
    with pytest.raises(ValueError, match="X to be a subset of Y"):
        SEPair(frozenset({1}), frozenset({2}))
    with pytest.raises(ValueError, match="X to be a subset of Y"):
        SEPair(here=frozenset({1, 2}), there=frozenset({1}))


def test_se_sets_compare_by_universe_and_pairs():
    p = parse_program("a :- not b.\nb :- not a.\n")
    se_set = se_models(p)
    again = SESet(p.table, se_set.universe, list(se_set))
    assert again == se_set and hash(again) == hash(se_set)
    assert SESet(p.table, se_set.universe | {p.table.intern("c")}, list(se_set)) != se_set
    assert se_set.__eq__(set(se_set)) is NotImplemented and se_set != set(se_set)
    with pytest.raises(ValueError, match="SE-pair outside the declared universe"):
        SESet(p.table, {0}, [SEPair(frozenset(), frozenset({0, 1}))])


def test_formula_nodes_of_different_classes_differ():
    payload = (FVar(base_var(0)), FConst(True))
    unary = [cls(payload) for cls in (FVar, FConst, FNot, FAnd, FOr)]
    binary = [cls(*payload) for cls in (FImplies, FIff)]
    for f, g in itertools.combinations(unary + binary, 2):
        assert f != g
    assert FAnd(payload) == FAnd(payload) and FIff(*payload) == FIff(*payload)


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
