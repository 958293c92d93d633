import random

from dualnorm import classify
from dualnorm.classify import classify_labels, dep_graph, is_bcf, is_hcf, is_tight, sccs
from dualnorm.gen import random_dual_normal_program
from dualnorm.textio import parse_program

from conftest import DISJ3, DISJ3_DUAL


def test_classify_disj3():
    labels = classify_labels(parse_program(DISJ3))
    assert not labels.normal  # disjunctive guess rule
    assert not labels.dual_normal  # the proper join rule has a 2-atom body
    assert not labels.tight and not labels.hcf and not labels.bcf


def test_classify_dual_variant():
    labels = classify_labels(parse_program(DISJ3_DUAL))
    assert labels.dual_normal and not labels.normal
    assert labels.bcf


def test_classify_singular():
    labels = classify_labels(parse_program("a :- not b.\nb :- not a.\n:- a, b."))
    assert labels.singular and labels.normal and labels.dual_normal
    assert not labels.positive and not labels.horn


def test_multi_atom_constraint_breaks_dual_horn_not_dual_normal():
    labels = classify_labels(parse_program(":- a, b."))
    assert labels.dual_normal and not labels.dual_horn
    single = classify_labels(parse_program(":- a.\nc :- b."))
    assert single.dual_horn and single.dual_normal and single.horn


def test_dep_graph():
    p = parse_program("c :- a, b.")
    g = dep_graph(p)
    c, a, b = (p.table.id_of(x) for x in "cab")
    assert set(g.edges) == {(c, a), (c, b)}

    q = parse_program("a | b :- c.")
    gq = dep_graph(q)
    assert set(gq.edges) == {
        (q.table.id_of("a"), q.table.id_of("c")),
        (q.table.id_of("b"), q.table.id_of("c")),
    }

    d = parse_program(DISJ3)
    gd = dep_graph(d)
    named = {(d.table.name_of(x), d.table.name_of(y)) for x, y in gd.edges}
    assert named == {("c", "a"), ("c", "b"), ("a", "c"), ("b", "c")}


def test_sccs():
    p = parse_program("a :- b.\nb :- a.\nc :- a.")
    comps = {frozenset(c) for c in sccs(dep_graph(p))}
    a, b, c = (p.table.id_of(x) for x in "abc")
    assert comps == {frozenset({a, b}), frozenset({c})}


def test_is_hcf():
    assert is_hcf(parse_program("a | b."))
    assert not is_hcf(parse_program("a | b :- c.\nc :- a.\nc :- b."))
    assert is_hcf(parse_program("a :- b.\nb :- a.\nc :- a, not b."))  # normal


def test_is_bcf():
    rng = random.Random(2)
    for _ in range(100):
        assert is_bcf(random_dual_normal_program(rng, rng.randint(1, 5), 6))
    assert not is_bcf(parse_program("c :- a, b.\na :- c.\nb :- c."))
    assert is_bcf(parse_program("c :- a, b."))


def test_bcf_constraint_sensitivity():
    # dual-normal, yet the constraint's body atoms share a cycle: BCF ignores
    # constraint bodies, which keeps dual-normal within BCF
    p = parse_program(":- a, b.\na :- b.\nb :- a.")
    assert classify_labels(p).dual_normal
    assert is_bcf(p)


def test_is_tight():
    assert not is_tight(parse_program("a :- a."))
    assert is_tight(parse_program("a | b."))
    assert not is_tight(parse_program(DISJ3))


def test_horn_implies_normal_positive():
    rng = random.Random(3)
    from dualnorm.gen import random_program

    for _ in range(200):
        labels = classify_labels(random_program(rng, rng.randint(1, 5), 6))
        if labels.horn:
            assert labels.normal and labels.positive
        assert labels.singular == (labels.normal and labels.dual_normal)
        if labels.dual_horn:
            assert labels.dual_normal


def test_classify_labels_runs_one_scc_pass(monkeypatch):
    calls = []

    def counting_sccs(graph):
        calls.append(graph)
        return sccs(graph)

    monkeypatch.setattr(classify, "sccs", counting_sccs)
    classify_labels(parse_program(DISJ3))
    assert len(calls) == 1
