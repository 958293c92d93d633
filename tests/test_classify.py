import random
import tracemalloc

import pytest

from dualnorm import classify
from dualnorm.classify import classify_labels, dep_graph, is_bcf, is_hcf, is_tight, sccs
from dualnorm.gen import random_dual_normal_program, structured_corpus
from dualnorm.textio import parse_program

from conftest import DISJ3, DISJ3_DUAL, sparse_text


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
    # from successor lists, only the components of more than one atom
    p = parse_program("a :- b.\nb :- a.\nc :- a.")
    a, b, c = (p.table.id_of(x) for x in "abc")
    succ = [[] for _ in range(len(p.table))]
    succ[a], succ[b], succ[c] = [b], [a], [a]
    assert sccs(succ) == [(a, b)]


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


# ---------------------------------------------------------------------------
# Parity with the construction classify used before its one-pass rewrite


def labels_reference(prog):
    """The class labels and SCCs as built from the sorted edge set, a
    dict-based Tarjan and per-rule SCC sets; returns both."""
    edges = sorted({(x, y) for r in prog.rules for x in r.head for y in r.body_pos})
    succ = {v: [] for v in sorted(prog.atom_ids)}
    for x, y in edges:
        succ[x].append(y)
    index, low, on_stack, stack, components = {}, {}, set(), [], []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    components.append(tuple(sorted(comp)))
    scc_id = {v: k for k, comp in enumerate(components) for v in comp}
    hcf = bcf = tight = True
    for r in prog.rules:
        heads = {scc_id[a] for a in r.head}
        hcf = hcf and len(heads) == len(r.head)
        if r.body_pos:
            body = {scc_id[a] for a in r.body_pos}
            bcf = bcf and (not r.head or len(body) == len(r.body_pos))
            tight = tight and heads.isdisjoint(body)
    rules = prog.rules
    normal = all(r.is_normal for r in rules)
    positive = all(r.is_positive for r in rules)
    dual_normal = all(r.is_dual_normal for r in rules)
    labels = classify.ClassLabels(
        horn=normal and positive,
        dual_horn=all(r.is_dual_horn for r in rules),
        normal=normal,
        dual_normal=dual_normal,
        singular=normal and dual_normal,
        positive=positive,
        definite=all(r.is_definite for r in rules),
        constraint_free=all(not r.is_constraint for r in rules),
        hcf=hcf,
        bcf=bcf,
        tight=tight,
    )
    return labels, components


def assert_matches_reference(prog):
    labels, components = labels_reference(prog)
    assert classify_labels(prog) == labels
    # from successor lists, only the components of more than one atom
    succ = [[] for _ in range(len(prog.table))]
    for x, y in dep_graph(prog).edges:
        succ[x].append(y)
    assert sccs(succ) == [c for c in components if len(c) > 1]


def test_labels_match_reference_on_generated_programs():
    for prog in structured_corpus(17, 2_400, max_atoms=6, max_rules=8):
        assert_matches_reference(prog)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "#false.",
        "a :- a.",
        "a | b :- c.\nc :- a.",
        "a | b :- c.\nc :- a.\nc :- b.",
        ":- a, b, c.\na :- b.\nb :- a.",
        ":- a, b.\nc :- d.",
        "a :- not b, not c.\n:- d, e, not f.",
        "a | b :- a, b.",
        "a | b | c :- d.\nd :- a.\nd :- c.",
        "c :- a, b.\na :- c.\nb :- c.\n#false.",
        DISJ3,
        DISJ3_DUAL,
    ],
)
def test_labels_match_reference_on_hand_cases(text):
    assert_matches_reference(parse_program(text))


@pytest.mark.parametrize("profile", ["dual_normal", "normal", "general"])
def test_labels_match_reference_on_large_programs(profile):
    assert_matches_reference(parse_program(sparse_text(3, 10_000, profile)))


def test_classify_memory_is_linear():
    # about 9.2 * 10^4 rules after deduplication; the construction above
    # peaks near 19 MB here, the one-pass labels near 5 MB
    prog = parse_program(sparse_text(1, 100_000, "general"))
    tracemalloc.start()
    try:
        labels = classify_labels(prog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not (labels.hcf or labels.bcf or labels.tight)
    assert peak < 9e6, f"peak {peak / 1e6:.1f} MB"
