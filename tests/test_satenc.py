import hashlib
import itertools
import random

import pytest

from dualnorm.common import BudgetExceededError, ProgramClassError
from dualnorm.core import AtomTable
from dualnorm.dualhorn import elimination_fixpoint, pmm
from dualnorm.gen import random_dual_normal_program
from dualnorm.oracle import answer_sets_bf
from dualnorm.core import is_model
from dualnorm import satenc
from dualnorm.satenc import (
    FAnd,
    FConst,
    FIff,
    FImplies,
    FNot,
    FOr,
    FVar,
    answer_sets_via_sat,
    base_var,
    build_f,
    build_f0,
    build_fi,
    build_fmod,
    conj,
    declared_vars,
    disj,
    enumerate_models,
    eval_formula,
    interpret_model,
    level_var,
    node_count,
    program_cnf,
    tseitin_cnf,
    var_sort_key,
)
from dualnorm.textio import parse_program, write_dimacs

from conftest import planted_corpus


def test_rules_with_pos_body():
    # each atom, then t (None), with the proper rules that have it as their
    # one positive body (none, for t) in program order; constraints have none
    p = parse_program("a :- b.\nc.\nd :- b, not c.\n:- b.\n#false.")
    a, b, c, d = atoms = [p.table.id_of(name) for name in "abcd"]
    base = {x: FVar(base_var(x)) for x in atoms}
    assert satenc._eliminations(p, atoms, base) == [
        (a, []),
        (b, [((a,), []), ((d,), [base[c]])]),
        (c, []),
        (d, []),
        (None, [((c,), [])]),
    ]


def test_build_f0_structure():
    p = parse_program("a :- not b.")
    a, b = p.table.id_of("a"), p.table.id_of("b")
    f = build_f0(p, a)
    assert f == FAnd(
        (
            FNot(FVar(level_var(a, a, 0))),
            FVar(level_var(None, a, 0)),
            FIff(FVar(level_var(b, a, 0)), FVar(base_var(b))),
        )
    )
    single = parse_program("m :- m.")
    m = single.table.id_of("m")
    assert build_f0(single, m) == FAnd(
        (FNot(FVar(level_var(m, m, 0))), FVar(level_var(None, m, 0)))
    )
    three = parse_program("a :- not b, not c.")
    bb = build_f0(three, three.table.id_of("b"))
    assert sum(part[0] == satenc._IFF for part in bb[1]) == 2
    with pytest.raises(ValueError):
        build_f0(p, p.table.intern("zz"))


def test_build_fi_examples():
    p = parse_program("a | b.")
    a, b = p.table.id_of("a"), p.table.id_of("b")
    f1 = build_fi(p, a, 1)
    t_part = FIff(
        FVar(level_var(None, a, 1)),
        FAnd(
            (
                FVar(level_var(None, a, 0)),
                FOr((FVar(level_var(a, a, 0)), FVar(level_var(b, a, 0)))),
            )
        ),
    )
    assert t_part in f1[1]
    # atom with no elimination rules keeps only its previous level
    b_part = FIff(
        FVar(level_var(b, a, 1)),
        FAnd((FVar(level_var(b, a, 0)), FConst(True))),
    )
    assert b_part in f1[1]

    q = parse_program("b :- a, not c.\nd :- a.")
    bq, cq, aq, dq = (q.table.id_of(x) for x in "bcad")
    f = build_fi(q, dq, 2)
    wanted = FIff(
        FVar(level_var(aq, dq, 2)),
        FAnd(
            (
                FVar(level_var(aq, dq, 1)),
                FAnd(
                    (
                        FOr((FVar(level_var(bq, dq, 1)), FVar(base_var(cq)))),
                        FVar(level_var(dq, dq, 1)),
                    )
                ),
            )
        ),
    )
    assert wanted in f[1]

    with pytest.raises(ValueError):
        build_fi(p, a, 3)
    with pytest.raises(ProgramClassError):
        build_fi(parse_program("x :- y, z."), 0, 1)


def test_build_f0_rejects_an_unknown_atom_id():
    p = parse_program("a | b.")
    for m in (999, -1):
        with pytest.raises(ValueError, match=f"^atom id {m} does not occur in the program$"):
            build_f0(p, m)


def test_build_fi_rejects_an_unknown_atom_id():
    p = parse_program("a | b.")
    for m in (999, -1):
        with pytest.raises(ValueError, match=f"^atom id {m} does not occur in the program$"):
            build_fi(p, m, 1)
    with pytest.raises(ValueError, match="^atom 'zz' does not occur in the program$"):
        build_fi(p, p.table.intern("zz"), 1)


def test_var_sort_key_puts_t_between_the_atoms_and_the_levels():
    vs = [level_var(None, 0, 0), level_var(1, 0, 0), satenc.PAD, base_var(1), base_var(0)]
    assert sorted(vs, key=var_sort_key) == [
        base_var(0), base_var(1), satenc.PAD, level_var(1, 0, 0), level_var(None, 0, 0),
    ]


def test_conj_and_disj_collapse_empty_and_single_arguments():
    x = FVar(base_var(0))
    assert conj([]) == FConst(True) and disj([]) == FConst(False)
    assert conj([x]) == x == disj([x])
    assert conj([x, x]) == FAnd((x, x)) and disj([x, x]) == FOr((x, x))


def test_build_fmod():
    p = parse_program("a | b.")
    assert build_fmod(p) == FOr((FVar(base_var(0)), FVar(base_var(1))))
    q = parse_program(":- a, b.")
    assert build_fmod(q) == FOr((FNot(FVar(base_var(0))), FNot(FVar(base_var(1)))))
    r = parse_program(":- not c.")
    assert build_fmod(r) == FVar(base_var(0))


def test_build_f_empty_and_gate():
    from dualnorm.core import Program

    assert build_f(Program.of(AtomTable(), [])) == FConst(True)
    with pytest.raises(ProgramClassError):
        build_f(parse_program("a :- b, c."))


def test_formula_models_project_to_answer_sets():
    for text in ("a :- not b.\nb :- not a.", "a | b."):
        p = parse_program(text)
        assert answer_sets_via_sat(p) == answer_sets_bf(p)
        assert {frozenset(p.table.names_of(m)) for m in answer_sets_via_sat(p)} == {
            frozenset("a"),
            frozenset("b"),
        }


def test_tseitin_flat_shapes():
    t = AtomTable()
    va, vb = FVar(base_var(t.intern("a"))), FVar(base_var(t.intern("b")))
    assert tseitin_cnf(FOr((va, vb))).clauses == [(1, 2)]
    assert tseitin_cnf(FIff(va, vb)).clauses == [(-1, 2), (1, -2)]
    top_true = tseitin_cnf(FConst(True))
    assert top_true.clauses == []
    top_false = tseitin_cnf(FConst(False))
    assert top_false.clauses == [()]


def test_tseitin_projection_faithfulness():
    # every assignment of the original variables satisfying f extends to a CNF
    # model, and every CNF model restricts to a satisfying assignment
    t = AtomTable()
    names = [t.intern(ch) for ch in "abc"]
    vs = [FVar(base_var(a)) for a in names]
    f = FIff(FOr((vs[0], FNot(FAnd((vs[1], vs[2]))))), vs[2])
    cnf = tseitin_cnf(f)
    idx = [cnf.var_index[base_var(a)] for a in names]
    projected = set(enumerate_models(cnf, idx))
    expected = set()
    for mask in range(8):
        assignment = {base_var(a): bool(mask >> i & 1) for i, a in enumerate(names)}
        if eval_formula(f, assignment):
            expected.add(frozenset(idx[i] for i in range(3) if mask >> i & 1))
    assert projected == expected


def test_enumerate_models_examples():
    from dualnorm.satenc import CnfInstance

    one = CnfInstance(1, [(1,)], {})
    assert enumerate_models(one, [1]) == [frozenset({1})]
    contra = CnfInstance(1, [(1, -1), (-1,), (1,)], {})
    assert enumerate_models(contra, [1]) == []
    p = parse_program("a | b.")
    cnf = program_cnf(p)
    proj = [cnf.var_index[base_var(a)] for a in sorted(p.atom_ids)]
    assert len(enumerate_models(cnf, proj)) == 2


def test_enumerate_models_rejects_out_of_range_variables():
    from dualnorm.satenc import CnfInstance

    with pytest.raises(ValueError, match="projection variable 2 "):
        enumerate_models(CnfInstance(1, [(1,)], {}), [2])
    with pytest.raises(ValueError, match="projection variable 0 "):
        enumerate_models(CnfInstance(1, [(1,)], {}), [0])
    with pytest.raises(ValueError, match="clause literal 2 "):
        enumerate_models(CnfInstance(1, [(2,)], {}), [1])
    with pytest.raises(ValueError, match="clause literal -3 "):
        enumerate_models(CnfInstance(2, [(1, -3)], {}), [1])
    with pytest.raises(ValueError, match="clause literal 0 "):
        enumerate_models(CnfInstance(2, [(1, 0)], {}), [1])


def test_enumeration_builds_one_solver(monkeypatch):
    import dualnorm.satenc as satenc

    built = []

    class Counting(satenc._Dpll):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(satenc, "_Dpll", Counting)
    p = parse_program("a | b.")
    assert len(answer_sets_via_sat(p)) == 2
    assert len(built) == 1


def test_enumerate_models_leaves_cnf_unchanged():
    from dualnorm.textio import write_dimacs

    cnf = program_cnf(parse_program("a | b.\nc :- a.\nd :- not c."))
    clauses, dimacs = list(cnf.clauses), write_dimacs(cnf)
    enumerate_models(cnf, range(1, 5))
    assert cnf.clauses == clauses
    assert write_dimacs(cnf) == dimacs


def test_clausification_leaves_no_cycle():
    # a CNF must go when its last reference does, not at the next collection
    import gc

    gc.collect()
    gc.disable()
    try:
        cnf = program_cnf(parse_program("a | b.\nc :- a.\nd :- not c."))
        del cnf
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_encoding_and_search_restore_the_collector():
    import gc

    from dualnorm.common import collector_paused
    from dualnorm.satenc import CnfInstance

    assert collector_paused(gc.isenabled)() is False
    good = parse_program("a | b.\nc :- a.\nd :- not c.\ne | f :- d.")
    cnf = program_cnf(good)
    calls = [
        (lambda: build_f(good), None),
        (lambda: build_f(parse_program("a :- b, c.")), ProgramClassError),
        (lambda: tseitin_cnf(build_f(good)), None),
        (lambda: tseitin_cnf(FAnd((FVar(base_var(0)), "x"))), TypeError),
        (lambda: enumerate_models(cnf, range(1, 7)), None),
        (lambda: enumerate_models(cnf, [cnf.num_vars + 1]), ValueError),
        (lambda: enumerate_models(CnfInstance(2, [(1, 3)], {}), [1]), ValueError),
        (lambda: enumerate_models(cnf, [1], max_steps=3), BudgetExceededError),
    ]
    assert gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for call, error in calls:
                if error is None:
                    call()
                else:
                    with pytest.raises(error):
                        call()
                assert gc.isenabled() == enabled
    finally:
        gc.enable()


def test_enumerate_models_step_cap():
    p = parse_program("a | b.\nc :- a.\nd :- not c.\ne | f :- d.")
    cnf = program_cnf(p)
    with pytest.raises(BudgetExceededError):
        enumerate_models(cnf, [1], max_steps=3)


def test_enumeration_learns_an_unsat_core_once():
    # the core over 13-15 is refuted below every projection branch unless the
    # solver learns from it; the budget leaves room for a few refutations only
    from dualnorm.satenc import CnfInstance

    core = [(13 * a, 14 * b, 15 * c) for a, b, c in itertools.product((1, -1), repeat=3)]
    assert enumerate_models(CnfInstance(15, core, {}), range(1, 13), max_steps=2000) == []


def test_answer_sets_via_sat_examples():
    assert answer_sets_via_sat(parse_program("a :- not a.")) == []
    dual = parse_program("a | b.\n:- not c.\na :- c.\nb :- c.")
    assert answer_sets_via_sat(dual) == answer_sets_bf(dual) == []
    from dualnorm.core import Program

    assert answer_sets_via_sat(Program.of(AtomTable(), [])) == [frozenset()]


def test_answer_sets_via_sat_against_oracle():
    rng = random.Random(12)
    for _ in range(120):
        p = random_dual_normal_program(rng, rng.randint(1, 6), 9)
        assert answer_sets_via_sat(p) == answer_sets_bf(p)


def test_answer_sets_via_sat_on_planted_answer_sets_of_four_or_more_atoms():
    for p, m, _ in planted_corpus():
        expected = answer_sets_bf(p)
        assert m in expected
        assert answer_sets_via_sat(p) == expected


def test_declared_variable_layout():
    p = parse_program("a :- not b.")
    layout = declared_vars(p)
    a, b = p.table.id_of("a"), p.table.id_of("b")
    assert layout[:3] == [base_var(a), base_var(b), layout[2]]
    assert layout[2].kind == "pad"
    # then levels for owner a: atoms in id order then t, level by level
    assert layout[3:6] == [level_var(a, a, 0), level_var(b, a, 0), level_var(None, a, 0)]
    cnf = program_cnf(p)
    assert cnf.var_index[base_var(a)] == 1
    assert cnf.var_index[base_var(b)] == 2
    assert cnf.var_names[3] == "t"
    assert cnf.var_names[4] == "a^0_a"


def test_declared_variables_no_clause_defines():
    # t and the owners' own level variables from level 1 on are free in the
    # DIMACS: only the projection on the atoms counts answer sets
    p = parse_program("a | b.\nc :- a.")
    cnf = program_cnf(p)
    assert len(declared_vars(p)) == 52
    used = {abs(lit) for clause in cnf.clauses for lit in clause}
    assert [cnf.var_names[i] for i in range(1, 53) if i not in used] == ["t", "a^3_a", "b^3_b", "c^3_c"]
    a = p.table.id_of("a")
    own = cnf.var_index[level_var(a, a, 1)]
    assert cnf.var_names[own] == "a^1_a"
    atoms = [cnf.var_index[base_var(x)] for x in sorted(p.atom_ids)]
    ac, b = frozenset(atoms) - {atoms[1]}, frozenset({atoms[1]})
    assert set(enumerate_models(cnf, atoms)) == {ac, b}
    assert set(enumerate_models(cnf, atoms + [own])) == {ac, ac | {own}, b, b | {own}}


def test_variables_are_named_on_first_read(monkeypatch):
    calls = []
    var_display = satenc.var_display
    monkeypatch.setattr(satenc, "var_display", lambda v, table: calls.append(v) or var_display(v, table))
    p = parse_program("a | b.\nc :- a.\nd :- not c.")
    assert len(answer_sets_via_sat(p)) == 2
    cnf = program_cnf(p)
    assert calls == []
    names = cnf.var_names
    assert len(calls) == len(cnf.var_index) and sorted(names) == sorted(cnf.var_index.values())
    assert cnf.var_names is names and len(calls) == len(cnf.var_index)


def test_interpret_model_round_trip():
    p = parse_program("a :- not b.\nb :- not a.")
    cnf = program_cnf(p)
    a = p.table.id_of("a")
    model_vars = frozenset({cnf.var_index[base_var(a)]})
    assert interpret_model(cnf, p, model_vars) == frozenset({a})


def test_level_chain_matches_elimination_engine():
    # a model with the final t-level false exists exactly when the engine
    # eliminates t for the corresponding minimality witness program
    rng = random.Random(13)
    checked = 0
    while checked < 80:
        p = random_dual_normal_program(rng, rng.randint(1, 5), 7)
        atoms = sorted(p.atom_ids)
        if not atoms:
            continue
        mask = rng.getrandbits(len(atoms))
        m_set = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        if not m_set or not is_model(m_set, p):
            continue
        m = rng.choice(sorted(m_set))
        nb = len(atoms)
        parts = [build_f0(p, m)]
        parts.extend(build_fi(p, m, i) for i in range(1, nb + 1))
        for a in atoms:
            v = FVar(base_var(a))
            parts.append(v if a in m_set else FNot(v))
        cnf = tseitin_cnf(conj(parts))
        t_idx = cnf.var_index[level_var(None, m, nb)]
        projected = enumerate_models(cnf, [t_idx])
        assert projected
        can_kill = any(t_idx not in model for model in projected)
        trace = elimination_fixpoint(pmm(p, m_set, m), t_stem="__t_" + p.table.name_of(m))
        assert can_kill == trace.t_eliminated
        checked += 1


def _dpll_corpus():
    """``(nv, clauses, proj)`` for the truth-table tests of the solver."""
    rng = random.Random(31)
    for _ in range(120):
        nv = rng.randint(1, 8)
        clauses = []
        for _ in range(rng.randint(0, 3 * nv)):
            width = rng.randint(1, 3)
            clauses.append(tuple(rng.choice([-1, 1]) * rng.randint(1, nv) for _ in range(width)))
        proj = sorted(rng.sample(range(1, nv + 1), rng.randint(1, nv)))
        yield nv, clauses, proj
    # conflict-heavy 3-CNFs near the threshold, projected to scattered
    # variables: learning, backjumping and the blocking clause together
    for _ in range(60):
        nv = rng.randint(10, 12)
        clauses = [
            tuple(rng.choice([-1, 1]) * v for v in rng.sample(range(1, nv + 1), 3))
            for _ in range(round(4.2 * nv))
        ]
        proj = rng.sample(range(1, nv + 1), rng.randint(2, nv - 2))
        yield nv, clauses, proj


def test_dpll_against_truth_table():
    # the enumerator must find exactly the projected satisfying assignments
    for nv, clauses, proj in _dpll_corpus():
        _check_against_truth_table(nv, clauses, proj)


# Recorded while every clause was a list watched twice: the step count of
# each search of _dpll_corpus() and of 24 program encodings, and digests of
# their projections in discovery order with their steps.  Binary clauses,
# now entries in the watch lists, must propagate in the same order.
DPLL_STEPS = 4081
DPLL_RUNS_SHA256 = "18b2454c1871e05cfcd479ed3668895a1516c015490df5279952d83ecbc73698"
ENCODING_STEPS = [
    5839, 7480, 11552, 1765, 336, 1718, 639, 2990, 431, 1202, 823, 4510,
    493, 982, 8391, 1482, 6118, 2981, 189, 614, 330, 1625, 1518, 1677,
]
ENCODING_RUNS_SHA256 = "0b44d7007b546e7d812fc5c772d78ab57d29e3688f4d15ce1fd2003fd7470523"


def test_dpll_order_and_steps_are_unchanged():
    import json
    from dualnorm.satenc import CnfInstance

    def run(cnf, proj):
        solver = satenc._Dpll(cnf, proj)
        return [[sorted(m) for m in solver.projections(50_000_000)], solver.steps]

    def digest(runs):
        return hashlib.sha256(json.dumps(runs).encode()).hexdigest()

    runs = [run(CnfInstance(nv, clauses, {}), proj) for nv, clauses, proj in _dpll_corpus()]
    assert sum(steps for _, steps in runs) == DPLL_STEPS
    assert digest(runs) == DPLL_RUNS_SHA256
    rng = random.Random(17)
    runs = []
    while len(runs) < len(ENCODING_STEPS):
        p = random_dual_normal_program(rng, rng.randint(5, 9), rng.randint(5, 12))
        if len(p.atom_ids) >= 5:
            cnf = program_cnf(p)
            runs.append(run(cnf, [cnf.var_index[base_var(a)] for a in sorted(p.atom_ids)]))
    assert [steps for _, steps in runs] == ENCODING_STEPS
    assert digest(runs) == ENCODING_RUNS_SHA256


def test_binary_clauses_against_truth_table(monkeypatch):
    conflicts, asserted = [], []

    class Recording(satenc._Dpll):
        def _analyze(self, conflict):
            conflicts.append(list(conflict))
            return super()._analyze(conflict)

        def _add_asserting(self, clause):
            asserted.append(list(clause))
            super()._add_asserting(clause)

    monkeypatch.setattr(satenc, "_Dpll", Recording)
    cases = [
        (2, [(1, -1)], [1, 2]),  # a tautology
        (2, [(1, -1), (-2, 2), (1, 2)], [1, 2]),
        (3, [(2, 2), (-2, 1, 3)], [1, 2, 3]),  # a duplicate: the unit 2
        (3, [(-2, -2), (2, 3)], [3]),
        (3, [(-1,), (-2,), (1, 2)], [3]),  # false at level 0
        (3, [(1, 2), (-1,), (-2,)], [1, 3]),
        (3, [(3, -1), (-3, -1)], [1]),  # a conflict on a binary clause at level 0
        (2, [(1, 2), (1, -2)], [1]),  # and above it, with a binary reason
        (4, [(-1, 3), (-2, -3), (-1, 4), (-4, -2)], [1, 2]),
        (3, [(1, 2, 3)], [1, 2]),  # blocking clauses over two variables
        (4, [(-1, 2, 3), (4, -3)], [2, 4]),
    ]
    for nv, clauses, proj in cases:
        _check_against_truth_table(nv, clauses, proj)
    assert any(len(c) == 2 for c in conflicts)
    assert any(len(c) == 2 for c in asserted)


def _check_against_truth_table(nv, clauses, proj):
    from dualnorm.satenc import CnfInstance

    cnf = CnfInstance(nv, clauses, {})
    before = list(clauses)
    listed = enumerate_models(cnf, proj)
    got = set(listed)
    assert len(got) == len(listed)
    assert cnf.clauses == before
    # clause c holds under the assignment mask when mask meets its positive
    # literals or misses one of its negative ones
    signed = [
        (sum(1 << (l - 1) for l in set(c) if l > 0), sum(1 << (-l - 1) for l in set(c) if l < 0))
        for c in clauses
    ]
    expected = set()
    for mask in range(1 << nv):
        if all(mask & pos or ~mask & neg for pos, neg in signed):
            expected.add(frozenset(v for v in proj if mask >> (v - 1) & 1))
    assert got == expected


def _random_formula(rng, leaves, depth):
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.choice(leaves)
        return FNot(leaf) if rng.random() < 0.3 else leaf
    kind = rng.randrange(4)
    if kind == 0:
        return FAnd(tuple(_random_formula(rng, leaves, depth - 1) for _ in range(rng.randint(2, 3))))
    if kind == 1:
        return FOr(tuple(_random_formula(rng, leaves, depth - 1) for _ in range(rng.randint(2, 3))))
    left = _random_formula(rng, leaves, depth - 1)
    right = _random_formula(rng, leaves, depth - 1)
    return FIff(left, right) if kind == 2 else FImplies(left, right)


def _nodes(f):
    """Every node of a formula, each occurrence once."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        tag = node[0]
        if tag == satenc._AND or tag == satenc._OR:
            stack.extend(node[1])
        elif tag != satenc._VAR and tag != satenc._CONST:
            stack.extend(node[1:])


def test_formula_nodes_are_exact_tuples():
    rng = random.Random(29)
    for _ in range(40):
        p = random_dual_normal_program(rng, rng.randint(1, 6), rng.randint(0, 9))
        f = build_f(p)
        nodes = list(_nodes(f))
        assert len(nodes) == node_count(f)
        assert all(type(n) is tuple for n in nodes)
    leaves = [FVar(base_var(a)) for a in range(4)] + [FConst(True), FConst(False)]
    for _ in range(300):
        f = _random_formula(rng, leaves, 3)
        assert all(type(n) is tuple for n in _nodes(f))
        assert all(type(n) is tuple for n in _nodes(satenc._fold(f, [])))


def test_tseitin_faithful_on_random_formulas():
    rng = random.Random(32)
    table = AtomTable()
    atoms = [table.intern(ch) for ch in "abcd"]
    leaves = [FVar(base_var(a)) for a in atoms] + [FConst(True), FConst(False)]
    for _ in range(100):
        f = _random_formula(rng, leaves, 3)
        cnf = tseitin_cnf(f, ensure_vars=[base_var(a) for a in atoms])
        idx = {a: cnf.var_index[base_var(a)] for a in atoms}
        got = set(enumerate_models(cnf, idx.values()))
        expected = set()
        for mask in range(1 << len(atoms)):
            assignment = {base_var(a): bool(mask >> i & 1) for i, a in enumerate(atoms)}
            if eval_formula(f, assignment):
                expected.add(frozenset(idx[a] for i, a in enumerate(atoms) if mask >> i & 1))
        assert got == expected


def test_size_bound_measured():
    rng = random.Random(14)
    ratios = []
    for n in range(2, 13):
        worst = 0.0
        for _ in range(3):
            p = random_dual_normal_program(rng, n, 2 * n)
            while not p.rules:
                p = random_dual_normal_program(rng, n, 2 * n)
            f = build_f(p)
            worst = max(worst, node_count(f) / (p.size() * len(p.atom_ids) ** 3))
        ratios.append(worst)
    assert max(ratios) < 8.0
    assert max(ratios[-3:]) <= max(ratios[:3])


# sha256 of write_dimacs(program_cnf(p)) for six random_dual_normal_program
# draws of 8-12 atoms (the golden CLI corpus stops DIMACS at 4 atoms),
# recorded before formula nodes and variables became tuples.
DIMACS_SHA256 = [
    (8, "08afda107e837097bd0ff30b05a06f7bf5aee4b990215d488df469c4fef24e24"),
    (9, "fc82efc414462a29a24a697a0d3c4d8768085963bc34d41dd510ec40be39d0dc"),
    (10, "2aee32a15c15bd6727cc79d80bf63cd43f3b46132ff3349427b44e635e9670dd"),
    (12, "cb7553e0f557fba0d858056eabc104e6cc9eb3b449578c48800543110ba5db1a"),
    (9, "4a528e9e244ac18d462fb3fcabd2a5e9d3073cd16e821466657dcc138a418d5d"),
    (9, "afa3fd2ef7bdae438faa7a6540ee4dbd3367bdfbb70942e9e89b815d5876d376"),
]


def test_dimacs_bytes_of_larger_encodings():
    rng = random.Random(14)
    progs = []
    while len(progs) < len(DIMACS_SHA256):
        p = random_dual_normal_program(rng, rng.randint(8, 12), 24)
        if len(p.atom_ids) >= 8:
            progs.append(p)
    got = [
        (len(p.atom_ids), hashlib.sha256(write_dimacs(program_cnf(p)).encode()).hexdigest())
        for p in progs
    ]
    assert got == DIMACS_SHA256


@pytest.mark.parametrize(
    "num_vars, clauses",
    [
        (3, [(3, 3)]),
        (3, [(1, 2, 1)]),
        (3, [(-2, -2, -2)]),
        (3, [(3, 3), (1, 2, 1), (-2, -2, -2)]),
        (3, [(-1, -1), (1, 2, 1), (-3, 2, -3, 2)]),
        (2, [(1, -1, 1), (2, 2)]),
        (2, [(1, 1), (-1, -1)]),
        (4, [(-4, -4, 1), (4, 4), (2, 3, 2, 3), (-2, -3, -2)]),
    ],
)
def test_repeated_literals_enumerate_like_their_deduplicated_form(num_vars, clauses):
    from dualnorm.satenc import CnfInstance

    def satisfied(true_vars, clause):
        return any((lit > 0) == (abs(lit) in true_vars) for lit in clause)

    project = range(1, num_vars)  # the last variable is projected away
    truth = set()
    for bits in itertools.product((False, True), repeat=num_vars):
        true_vars = {v for v, b in zip(range(1, num_vars + 1), bits) if b}
        if all(satisfied(true_vars, c) for c in clauses):
            truth.add(frozenset(true_vars & set(project)))
    deduped = [tuple(dict.fromkeys(c)) for c in clauses]
    with_repeats = enumerate_models(CnfInstance(num_vars, clauses, {}), project)
    without = enumerate_models(CnfInstance(num_vars, deduped, {}), project)
    assert len(with_repeats) == len(set(with_repeats))
    assert set(with_repeats) == set(without) == truth


def _vars_of(f):
    tag = f[0]
    if tag == satenc._VAR:
        return {f[1]}
    if tag == satenc._CONST:
        return set()
    children = f[1] if tag in (satenc._AND, satenc._OR) else f[1:]
    return set().union(*map(_vars_of, children))


def test_tseitin_indexes_exactly_the_variables_left_after_folding():
    rng = random.Random(7)
    leaves = [FVar(base_var(a)) for a in range(4)] + [FConst(True), FConst(False)]
    for _ in range(300):
        f = _random_formula(rng, leaves, 3)
        found = []
        left = _vars_of(satenc._fold(f, found))
        assert set(found) == left
        cnf = tseitin_cnf(f)
        assert list(cnf.var_index) == sorted(left, key=var_sort_key)
        assert list(cnf.var_index.values()) == list(range(1, len(left) + 1))
        models = set(enumerate_models(cnf, cnf.var_index.values()))
        for mask in range(16):
            assignment = {base_var(a): bool(mask >> a & 1) for a in range(4)}
            true_idx = frozenset(i for v, i in cnf.var_index.items() if assignment[v])
            assert (true_idx in models) == eval_formula(f, assignment)


def _without_formula(cnf):
    from dualnorm.satenc import CnfInstance

    return CnfInstance(cnf.num_vars, cnf.clauses, cnf.var_index)


def test_entailment_stop_keeps_the_enumeration_order():
    # a hand-built copy has no formula, so its search decides every variable
    rng = random.Random(41)
    programs = 0
    for _ in range(160):
        p = random_dual_normal_program(rng, rng.randint(1, 7), rng.randint(0, 9))
        if not p.atom_ids:
            continue
        cnf = program_cnf(p)
        assert cnf.formula is not None
        proj = [cnf.var_index[base_var(a)] for a in sorted(p.atom_ids)]
        assert enumerate_models(cnf, proj) == enumerate_models(_without_formula(cnf), proj)
        programs += 1
    assert programs > 100
    leaves = [FVar(base_var(a)) for a in range(5)] + [FConst(True), FConst(False)]
    for _ in range(300):
        cnf = tseitin_cnf(_random_formula(rng, leaves, 4))
        variables = list(cnf.var_index.values())
        proj = rng.sample(variables, rng.randint(0, len(variables)))
        assert enumerate_models(cnf, proj) == enumerate_models(_without_formula(cnf), proj)


def test_entailment_stop_decides_only_the_projection(monkeypatch):
    free = []

    class Counting(satenc._Dpll):
        def _assign(self, lit, reason):
            if reason is None and self.trail_lim and abs(lit) not in self.projected:
                free.append(lit)
            super()._assign(lit, reason)

    monkeypatch.setattr(satenc, "_Dpll", Counting)
    for text, count in [
        ("a | b.", 2),
        ("a | b.\nc :- a.\nd :- not c.", 2),
        ("a :- not b.\nb :- not a.\nc | d :- a.", 3),
        ("a | b.\nb | c.\nc | a.", 3),
        ("a | b | c.\n:- a, b.", 3),
    ]:
        assert len(answer_sets_via_sat(parse_program(text))) == count
    assert free == []


def test_entailment_stop_is_off_for_a_projected_auxiliary():
    from dualnorm.satenc import CnfInstance

    x = [FVar(base_var(a)) for a in range(3)]
    cnf = tseitin_cnf(FOr((FAnd((x[0], x[1])), x[2])))
    aux = len(cnf.var_index) + 1  # defines x0 & x1
    assert cnf.num_vars == aux
    for proj in ([aux], [3, aux], [1, 2, 3, aux]):
        assert satenc._Dpll(cnf, proj).formula is None
        _check_against_truth_table(cnf.num_vars, cnf.clauses, proj)
    assert satenc._Dpll(cnf, [1, 2, 3]).formula is cnf.formula
    rng = random.Random(43)
    leaves = [FVar(base_var(a)) for a in range(4)]
    for _ in range(60):
        cnf = tseitin_cnf(_random_formula(rng, leaves, 3))
        if cnf.num_vars == len(cnf.var_index):
            continue
        auxiliaries = range(len(cnf.var_index) + 1, cnf.num_vars + 1)
        proj = rng.sample(range(1, cnf.num_vars + 1), rng.randint(1, cnf.num_vars))
        proj.append(rng.choice(auxiliaries))
        _check_against_truth_table(cnf.num_vars, cnf.clauses, proj)
        assert enumerate_models(cnf, proj) == enumerate_models(_without_formula(cnf), proj)


def test_kleene_value_holds_under_every_completion():
    rng = random.Random(44)
    variables = [base_var(a) for a in range(4)]
    leaves = [FVar(v) for v in variables] + [FConst(True), FConst(False)]
    for _ in range(200):
        f = _random_formula(rng, leaves, 3)
        known = {v: rng.random() < 0.5 for v in variables if rng.random() < 0.5}
        value = satenc._kleene(f, known.get)
        completions = {
            eval_formula(f, {**dict(zip(variables, bits)), **known})
            for bits in itertools.product((False, True), repeat=len(variables))
        }
        assert value is None or completions == {value}
        if len(known) == len(variables):
            assert value is not None


def test_eval_formula_rejects_a_non_formula():
    v = base_var(1)
    for f in (v, FAnd((FVar(v), "x")), FNot(None)):
        with pytest.raises(TypeError):
            eval_formula(f, {v: True})
    with pytest.raises(TypeError, match="not a formula"):
        eval_formula(v, {v: True})
