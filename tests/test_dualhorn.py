import gc
import random
import tracemalloc
from collections import Counter

import pytest

from dualnorm import dualhorn
from dualnorm.common import ProgramClassError
from dualnorm.core import AtomTable, Program, Rule, is_model, reduct, split
from dualnorm.dualhorn import (
    answer_sets_dn,
    elimination_fixpoint,
    is_answer_set_dn,
    max_model_dual_horn,
    pmm,
)
from dualnorm.gen import random_dual_normal_program, random_program, structured_corpus
from dualnorm.oracle import answer_sets_bf, is_answer_set, models
from dualnorm.textio import parse_program

from conftest import ids_of, planted_corpus


def levels_as_names(prog, trace):
    return trace.to_dict(prog.table)["levels"]


def test_elimination_trace_cascade():
    p = parse_program("b | c :- a.\n:- b.\n:- c.")
    tr = elimination_fixpoint(p)
    assert levels_as_names(p, tr) == [[], ["b", "c"], ["a", "b", "c"]]
    assert tr.to_dict(p.table)["max_model"] == ["__t"]
    assert not tr.t_eliminated
    assert max_model_dual_horn(p) == frozenset()


def test_elimination_trace_unsatisfiable():
    p = parse_program("a.\n:- a.")
    tr = elimination_fixpoint(p)
    assert levels_as_names(p, tr) == [[], ["a"], ["__t", "a"]]
    assert tr.t_eliminated
    assert max_model_dual_horn(p) is None


def test_padding_atom_is_not_interned():
    p = parse_program("a | b.\nc :- a.")
    before = p.table.atoms()
    answer_sets_dn(p)
    is_answer_set_dn(p, ids_of(p, "a c"))
    max_model_dual_horn(parse_program("c :- a.", p.table))
    assert p.table.atoms() == before and len(p.table) == 3
    tr = elimination_fixpoint(pmm(p, ids_of(p, "a c"), p.table.id_of("a")), t_stem="__t_a")
    assert tr.t_name == "__t_a" and "__t_a" not in p.table
    with pytest.raises(IndexError):
        p.table.name_of(tr.t_atom)


def test_answer_set_check_names_no_padding_atom(monkeypatch):
    # the name of t and the maximal model are computed only when read
    calls = []
    unused_name = AtomTable.unused_name
    monkeypatch.setattr(AtomTable, "unused_name", lambda self, stem: calls.append(stem) or unused_name(self, stem))
    p = parse_program("a | b.\nc :- a.\nb :- not c.")
    assert answer_sets_dn(p) == answer_sets_bf(p)
    assert calls == []
    tr = elimination_fixpoint(pmm(p, ids_of(p, "a c"), p.table.id_of("a")), t_stem="__t_a")
    assert calls == []
    assert tr.t_name == "__t_a" and tr.t_name == "__t_a"
    assert calls == ["__t_a"]


def test_padding_atom_name_avoids_program_atoms():
    p = parse_program("__t :- a.", allow_generated=True)
    tr = elimination_fixpoint(p)
    assert tr.to_dict(p.table) == {
        "t": "__t_2",
        "t_eliminated": False,
        "levels": [[]],
        "max_model": ["__t", "__t_2", "a"],
    }


def test_elimination_trace_empty_program():
    p = Program.of(AtomTable(), [])
    tr = elimination_fixpoint(p)
    assert [sorted(l) for l in tr.levels] == [[]]
    assert tr.max_model == frozenset({tr.t_atom})
    assert max_model_dual_horn(p) == frozenset()


def test_elimination_rejects_non_dual_horn():
    with pytest.raises(ProgramClassError, match=r"^rule 'a :- b, c\.' is not dual-Horn"):
        elimination_fixpoint(parse_program("a :- b, c."))
    with pytest.raises(ProgramClassError, match=r"^rule 'a :- not b\.' is not dual-Horn"):
        elimination_fixpoint(parse_program("c.\na :- not b."))
    # pmm builds witnesses of any program (the oracle reads them); only the
    # elimination rejects one, naming its first rule that is not dual-Horn
    p = parse_program("a :- b, c.\nb | c.\nd :- a, b.")
    m = ids_of(p, "a b c d")
    witnesses = [pmm(p, m, a) for a in sorted(m)]
    for w in witnesses:
        with pytest.raises(ProgramClassError, match=r"^rule 'a :- b, c\.'"):
            elimination_fixpoint(w)


def test_elimination_restores_the_collector():
    # a plain program's elimination runs paused, also when it is refused;
    # a witness's does not pause at all
    p = parse_program("c :- a.\n:- c.")
    q = parse_program("a :- b, c.\nb | c.")
    calls = [
        (lambda: max_model_dual_horn(p), None),
        (lambda: max_model_dual_horn(q), ProgramClassError),
        (lambda: elimination_fixpoint(pmm(p, ids_of(p, "a c"), p.table.id_of("a"))), None),
        (lambda: elimination_fixpoint(pmm(q, ids_of(q, "a b c"), q.table.id_of("a"))), ProgramClassError),
    ]
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for call, error in calls:
                if error is None:
                    call()
                else:
                    with pytest.raises(error):
                        call()
                assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_max_model_examples():
    p = parse_program("c :- a.")
    assert p.table.names_of(max_model_dual_horn(p)) == ["a", "c"]
    q = parse_program(":- b.")
    universe = frozenset({q.table.intern("a"), q.table.id_of("b")})
    assert q.table.names_of(max_model_dual_horn(q, universe=universe)) == ["a"]


def test_max_model_agrees_with_enumeration():
    rng = random.Random(8)
    for _ in range(150):
        table = AtomTable()
        atoms = [table.intern(ch) for ch in "abcdefghij"[: rng.randint(1, 6)]]
        rules = []
        for _ in range(rng.randint(0, 6)):
            head = [a for a in atoms if rng.random() < 0.3]
            pos = [rng.choice(atoms)] if rng.random() < 0.7 else []
            if head or pos:
                rules.append(Rule.of(head, pos))
        p = Program.of(table, rules)
        all_models = models(p)
        maximal = max_model_dual_horn(p)
        if not all_models:
            assert maximal is None
        else:
            # the unique inclusion-maximal model
            top = [m for m in all_models if not any(m < o for o in all_models)]
            assert len(top) == 1 and top[0] == maximal


def test_monotone_chain_and_stabilization():
    rng = random.Random(9)
    for _ in range(150):
        p = random_dual_normal_program(rng, rng.randint(1, 6), 7)
        proper = p.with_rules(r for r in p.rules if r.head or len(r.body_pos) <= 1)
        dual_horn = proper.with_rules(
            Rule.of(r.head, r.body_pos) for r in proper.rules if len(r.body_pos) <= 1
        )
        tr = elimination_fixpoint(dual_horn)
        for earlier, later in zip(tr.levels, tr.levels[1:]):
            assert earlier < later
        assert len(tr.levels) <= len(dual_horn.atom_ids) + 2


def test_elimination_trace_memory_is_linear():
    # a chain eliminates one atom per level; storing every level as a set
    # would hold about n^2 / 2 = 12.5M entries
    n = 5000
    table = AtomTable()
    a = [table.intern(f"a{i}") for i in range(n + 1)]
    chain = Program.of(table, [Rule.of((a[i],), (a[i + 1],)) for i in range(n)] + [Rule.of((), (a[0],))])
    tracemalloc.start()
    try:
        assert max_model_dual_horn(chain) == frozenset()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_pmm_examples():
    p = parse_program("a | b.")
    out = pmm(p, ids_of(p, "a"), p.table.id_of("a"))
    expected = parse_program("a | b.\n:- b.\n:- a.")
    assert out.canonical() == expected.canonical()

    q = parse_program("a :- not b.")
    out_q = pmm(q, ids_of(q, "a"), q.table.id_of("a"))
    assert out_q.canonical() == parse_program("a.\n:- b.\n:- a.").canonical()

    r = parse_program("a | b.\nb :- a.")
    out_r = pmm(r, ids_of(r, "a b"), r.table.id_of("b"))
    # no atoms outside the interpretation: only the exclusion constraint
    assert sum(1 for rule in out_r.rules if rule.is_constraint) == 1

    with pytest.raises(ValueError):
        pmm(p, ids_of(p, "a"), p.table.id_of("b"))


def test_pmm_names_an_atom_outside_the_interpretation_by_its_id():
    # an id the table lacks is reported as a number; -1 must not name the last atom
    p = parse_program("a | b.")
    for m, label in ((999, "id 999"), (-1, "id -1"), (p.table.id_of("b"), "'b'")):
        with pytest.raises(ValueError, match=f"^atom {label} is not in the interpretation$"):
            pmm(p, ids_of(p, "a"), m)


def test_pmm_is_reduct_of_proper_part_plus_forbidding_constraints():
    for p in structured_corpus(seed=51, count=150, max_atoms=4, max_rules=6):
        proper, _ = split(p)
        atoms = sorted(p.atom_ids)
        for mask in range(1 << len(atoms)):
            interp = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
            for m in sorted(interp):
                expected = list(reduct(proper, interp).rules)
                expected.extend(Rule.of((), (b,)) for b in sorted(p.atom_ids - interp))
                expected.append(Rule.of((), (m,)))
                assert pmm(p, interp, m).rules == tuple(expected)


def test_pmm_reuses_the_programs_reduct_rules():
    # the kept rules come from one per-program view, not rebuilt per call
    p = parse_program("a :- not b.\nb :- not a.\nc :- a.\nc | d :- not e.")
    first = pmm(p, ids_of(p, "a c"), p.table.id_of("a"))
    second = pmm(p, ids_of(p, "a c d"), p.table.id_of("d"))
    kept = [r for r in first.rules if r.head]
    assert len(kept) == 3
    assert list(map(id, kept)) == [id(r) for r in second.rules if r.head]
    assert kept[1] is p.rules[2]  # a rule without negation is kept as is


def trace_fields(tr, table):
    return tr.eliminated, tr.bounds, tr.t_eliminated, tr.max_model, tr.t_name, tr.to_dict(table)


def test_seeded_witness_elimination_matches_a_fresh_compile():
    # a witness is answered from the reduct closure of its M, and its run
    # comes from a fresh compile on first read; the trace must
    # be the one of the same rules compiled from scratch, and eliminating a
    # witness twice must not consume the state
    rng = random.Random(13)
    for _ in range(100):
        p = random_dual_normal_program(rng, rng.randint(1, 6), 7)
        atoms = sorted(p.atom_ids)
        interps = [frozenset(a for i, a in enumerate(atoms) if mask >> i & 1) for mask in range(1, 1 << len(atoms))]
        for interp in rng.sample(interps, min(6, len(interps))):
            for m in sorted(interp):
                witness = pmm(p, interp, m)
                plain = Program(p.table, witness.rules)
                stem = "__t_" + p.table.name_of(m)
                expected = trace_fields(elimination_fixpoint(plain, t_stem=stem), p.table)
                assert trace_fields(elimination_fixpoint(witness, t_stem=stem), p.table) == expected
                assert trace_fields(elimination_fixpoint(witness, t_stem=stem), p.table) == expected


def test_witnesses_do_not_depend_on_the_last_interpretation():
    # witnesses for M1, M2, then M1 again (an equal set, not the same
    # object) equal those of a fresh copy of the program
    rng = random.Random(14)
    for _ in range(100):
        p = random_dual_normal_program(rng, rng.randint(1, 6), 7)
        atoms = sorted(p.atom_ids)
        if not atoms:
            continue
        m1 = frozenset(rng.sample(atoms, rng.randint(1, len(atoms))))
        m2 = frozenset(rng.sample(atoms, rng.randint(1, len(atoms))))
        for interp in (m1, m2, frozenset(set(m1))):
            fresh = Program(p.table, p.rules)
            for m in sorted(interp):
                witness, reference = pmm(p, interp, m), pmm(fresh, interp, m)
                assert witness.rules == reference.rules
                assert trace_fields(elimination_fixpoint(witness), p.table) == trace_fields(
                    elimination_fixpoint(reference), p.table
                )
            assert is_answer_set_dn(p, interp) == is_answer_set_dn(Program(p.table, p.rules), interp)


def test_answer_set_check_compiles_once_per_interpretation(monkeypatch):
    compiled = []
    compile_elimination = dualhorn.compile_elimination
    monkeypatch.setattr(
        dualhorn, "compile_elimination", lambda rules: compiled.append(len(rules)) or compile_elimination(rules)
    )
    p = parse_program("a | b.\nc :- a.\nd | e :- c.\nf :- not b.")
    answer = ids_of(p, "a c d f")
    assert is_answer_set_dn(p, answer)
    assert compiled == [4]  # the four reduct rules, shared by the four witnesses; b and e seed C0
    assert is_answer_set_dn(p, frozenset(answer))  # an equal M: nothing to compile
    assert len(compiled) == 1
    assert not is_answer_set_dn(p, ids_of(p, "a b c d f"))
    assert len(compiled) == 2
    # a witness's run, behind every trace field but t_eliminated, comes from
    # one fresh compile of its rules, on first read
    witness = pmm(p, answer, p.table.id_of("a"))
    trace = elimination_fixpoint(witness)
    assert trace.t_eliminated and len(compiled) == 3
    assert trace.to_dict(p.table)["t_eliminated"] and trace.bounds and len(compiled) == 4
    # a plain program's trace holds the run of its one compile
    plain = elimination_fixpoint(Program(p.table, witness.rules))
    assert len(compiled) == 5
    assert trace_fields(plain, p.table) == trace_fields(trace, p.table) and plain.levels == trace.levels
    assert len(compiled) == 5


def test_answer_set_check_builds_no_witness_rules(monkeypatch):
    # the ids run from the top of the chain down, so the check meets every
    # atom before the ones below it: only the reverse search from t, which
    # settles them all (c and a1 share their body), keeps it linear
    n = 20_000
    table = AtomTable()
    a = [table.intern(f"a{i}") for i in reversed(range(n))][::-1]
    c = table.intern("c")
    chain = Program.of(
        table, [Rule.of((a[0],)), Rule.of((c,), (a[0],))] + [Rule.of((a[i + 1],), (a[i],)) for i in range(n - 1)]
    )
    answer = frozenset(a) | {c}
    closure = pmm(chain, answer, c).closure
    closure.close()
    assert closure.settled == {dualhorn.T_ATOM}  # no search before an m succeeds
    assert closure.eliminates_t(a[-1])  # the top of the chain, the first m of the check
    assert closure.settled == answer | {dualhorn.T_ATOM}
    built = []
    rules = dualhorn._Witness.rules
    monkeypatch.setattr(dualhorn._Witness, "rules", property(lambda w: built.append(w.m) or rules.func(w)))
    assert is_answer_set_dn(chain, answer)
    assert not is_answer_set_dn(chain, answer | {table.intern("b")})  # a foreign atom: its witness fails
    assert built == []
    # a witness that is not dual-Horn still names its rule, for every m
    p = parse_program("a :- b, c.\nb | c.")
    for m in sorted(p.atom_ids):
        with pytest.raises(ProgramClassError, match=r"^rule 'a :- b, c\.' is not dual-Horn"):
            elimination_fixpoint(pmm(p, p.atom_ids, m))
    assert built == sorted(p.atom_ids)


def test_answer_set_check_matches_the_per_witness_construction():
    # every witness is asked in a random order, twice, for M1, M2 and a copy
    # of M1 on one program, so that an unrestored counter or a stale settled
    # atom would change a later verdict; the reference compiles each witness
    # from scratch
    rng = random.Random(16)
    seen = Counter()
    for _ in range(300):
        p = random_dual_normal_program(rng, rng.randint(1, 7), rng.randint(1, 10))
        foreign = p.table.fresh("foreign")
        pool = sorted(p.atom_ids) + [foreign]
        m1, m2 = (frozenset(rng.sample(pool, rng.randint(1, len(pool)))) for _ in range(2))
        answers = [answer for answer in answer_sets_bf(p) if answer]
        if answers and rng.random() < 0.5:
            m1 = rng.choice(answers)
        for interp in (m1, m2, frozenset(set(m1))):
            fresh = Program(p.table, p.rules)
            expected = {
                m: elimination_fixpoint(Program(p.table, pmm(fresh, interp, m).rules)).t_eliminated for m in interp
            }
            order = sorted(interp)
            rng.shuffle(order)
            for _ in range(2):
                assert {m: elimination_fixpoint(pmm(p, interp, m)).t_eliminated for m in order} == expected
            model = is_model(interp, p)
            verdict = is_answer_set_dn(p, interp)
            assert verdict == (model and all(expected.values()))
            if foreign in interp:
                assert not verdict
            else:
                assert verdict == is_answer_set(p, interp)
            closure = pmm(p, interp, order[0]).closure
            seen["non-model"] += not model
            seen["answer set"] += verdict
            seen["m in C0"] += not closure.eliminated.isdisjoint(interp)
            seen["live disjunction"] += any(c > 1 for c in closure.counters)
            seen["foreign"] += foreign in interp
    assert min(seen[case] for case in ("non-model", "answer set", "m in C0", "live disjunction", "foreign")) > 20


def test_foreign_atoms_in_the_interpretation():
    # an atom outside at(P) makes the interpretation non-minimal for the
    # polynomial check; the oracle refuses it
    p = parse_program("a.")
    x = p.table.intern("x")
    interp = frozenset({p.table.id_of("a"), x})
    assert is_answer_set_dn(p, interp) is False
    with pytest.raises(ValueError):
        is_answer_set(p, interp)
    assert pmm(p, interp, x).rules[-1] == Rule.of((), (x,))


def test_pmm_of_dual_normal_program_is_dual_horn():
    rng = random.Random(12)
    for _ in range(100):
        p = random_dual_normal_program(rng, rng.randint(1, 5), 6)
        atoms = sorted(p.atom_ids)
        for mask in range(1 << len(atoms)):
            interp = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
            for m in interp:
                assert all(r.is_dual_horn for r in pmm(p, interp, m).rules)


def test_pmm_matches_minimality_semantics():
    # the witness program has a model iff some model of the reduct sits
    # strictly below the interpretation at the excluded atom
    rng = random.Random(10)
    for _ in range(100):
        p = random_program(rng, rng.randint(1, 5), 6)
        atoms = sorted(p.atom_ids)
        if not atoms:
            continue
        expected = set(answer_sets_bf(p))
        for mask in range(1 << len(atoms)):
            m = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
            member = is_model(m, p) and all(
                not models(pmm(p, m, x), universe=p.atom_ids) for x in m
            )
            assert member == (m in expected)


def test_is_answer_set_dn_examples(disj3_dual):
    p = parse_program("a | b.")
    assert is_answer_set_dn(p, ids_of(p, "a"))
    assert not is_answer_set_dn(p, ids_of(p, "a b"))
    assert not is_answer_set_dn(disj3_dual, ids_of(disj3_dual, "a b c"))
    with pytest.raises(ProgramClassError):
        is_answer_set_dn(parse_program("a :- b, c."), frozenset())


def test_is_answer_set_dn_agrees_with_oracle():
    rng = random.Random(11)
    for _ in range(150):
        p = random_dual_normal_program(rng, rng.randint(1, 6), 7)
        atoms = sorted(p.atom_ids)
        expected = set(answer_sets_bf(p))
        for mask in range(1 << len(atoms)):
            m = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
            assert is_answer_set_dn(p, m) == (m in expected)


def test_dn_routes_on_planted_answer_sets_of_four_or_more_atoms():
    for p, m, near in planted_corpus():
        expected = answer_sets_bf(p)
        assert answer_sets_dn(p) == expected
        assert is_answer_set_dn(p, m)
        for x in near:
            assert is_answer_set_dn(p, x) == (x in expected)


def test_answer_sets_dn_examples(disj3_dual):
    p = parse_program("a | b.")
    assert [p.table.names_of(m) for m in answer_sets_dn(p)] == [["a"], ["b"]]
    assert answer_sets_dn(parse_program("a :- not a.")) == []
    assert answer_sets_dn(disj3_dual) == answer_sets_bf(disj3_dual)
