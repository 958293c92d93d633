"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  Every tolerance is pinned here; the suite is fully
deterministic (seeded generators throughout).
"""

import itertools
import random
import time

import pytest

from dualnorm.classify import classify_labels, is_bcf, is_hcf, is_tight
from dualnorm.common import SynthesisPreconditionError
from dualnorm.core import AtomTable, is_model
from dualnorm.dualhorn import elimination_fixpoint, is_answer_set_dn, pmm
from dualnorm.gen import (
    close_complete_here_union,
    random_dual_normal_program,
    random_se_pairs,
    structured_corpus,
)
from dualnorm.oracle import answer_sets_bf, strongly_equivalent_bf, uniformly_equivalent_bf
from dualnorm.reductions import Cnf3, Qbf2E, is_complexity_sensitive, qbf_eval, qbf_to_program, unsat_to_singular
from dualnorm.satenc import answer_sets_via_sat, build_f, node_count
from dualnorm.seue import (
    SEPair,
    SESet,
    is_ue_model_dn,
    program_from_se_set,
    program_from_ue_set,
    se_models,
    se_properties,
    ue_models,
    uniformly_equivalent_dn,
)
from dualnorm.textio import parse_program, parse_se_set
from dualnorm.transform import check_trans2, check_trans3, translate, translate_star

from conftest import DISJ3, DISJ3_DUAL, DISJ3_NORMAL, UNSPLITTABLE, name_pairs

FIXTURES = [DISJ3, DISJ3_NORMAL, DISJ3_DUAL, "a | b.\n"]


def report(number: int, text: str) -> None:
    print(f"criterion {number:02d}: PASS  {text}")


def test_criterion_01_worked_example_fixtures():
    started = time.time()
    base = {
        (("a", "b", "c"), ("a", "b", "c")),
        (("a",), ("a", "b", "c")),
        (("b",), ("a", "b", "c")),
    }
    assert name_pairs(se_models(parse_program(DISJ3))) == base
    assert name_pairs(se_models(parse_program(DISJ3_NORMAL))) == base | {((), ("a", "b", "c"))}
    assert name_pairs(se_models(parse_program(DISJ3_DUAL))) == base | {(("a", "b"), ("a", "b", "c"))}
    props = se_properties(parse_se_set(UNSPLITTABLE))
    assert props.ue_complete and props.closed_here_union and not props.splittable
    elapsed = time.time() - started
    assert elapsed < 1.0
    report(1, f"fixture SE sets exact, splittability counterexample flags ({elapsed:.3f}s < 1s)")


def test_criterion_02_sat_equals_brute_force():
    started = time.time()
    rng = random.Random(202)
    for _ in range(500):
        prog = random_dual_normal_program(rng, rng.randint(1, 7), 10)
        assert answer_sets_via_sat(prog) == answer_sets_bf(prog)
    elapsed = time.time() - started
    assert elapsed < 60.0
    report(2, f"500 random dual-normal programs: SAT route == brute force ({elapsed:.1f}s < 60s)")


def test_criterion_03_size_bound():
    rng = random.Random(203)
    ratios = []
    for n_atoms in range(2, 13):
        worst = 0.0
        for _ in range(4):
            prog = random_dual_normal_program(rng, n_atoms, 2 * n_atoms)
            while not prog.rules or len(prog.atom_ids) < n_atoms:
                prog = random_dual_normal_program(rng, n_atoms, 2 * n_atoms)
            ratio = node_count(build_f(prog)) / (prog.size() * n_atoms**3)
            worst = max(worst, ratio)
        ratios.append(worst)
    bound = 8.0
    assert max(ratios) < bound
    assert max(ratios[-3:]) <= max(ratios[:3])  # no upward trend along the ramp
    report(3, f"encoding size / (size * atoms^3) stays below {bound} (max {max(ratios):.2f}), no upward trend")


def test_criterion_04_polynomial_answer_set_check():
    rng = random.Random(204)
    programs = 0
    pair_checks = 0
    for _ in range(500):
        prog = random_dual_normal_program(rng, rng.randint(1, 8), 10)
        atoms = sorted(prog.atom_ids)
        expected = set(answer_sets_bf(prog))
        for mask in range(1 << len(atoms)):
            interp = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
            assert is_answer_set_dn(prog, interp) == (interp in expected)
            pair_checks += 1
            if interp and is_model(interp, prog):
                m = min(interp)
                trace = elimination_fixpoint(pmm(prog, interp, m))
                for lo, hi in zip(trace.levels, trace.levels[1:]):
                    assert lo < hi
                assert len(trace.levels) <= len(prog.atom_ids) + 2
        programs += 1
    report(4, f"{programs} programs / {pair_checks} (P, M) pairs agree with the oracle; chains monotone, stabilize in |atoms|+1 steps")


def test_criterion_05_translation_correspondences():
    corpus = list(structured_corpus(205, 1000, max_atoms=4, max_rules=6))
    for text in FIXTURES:
        corpus.append(parse_program(text))
    for prog in corpus:
        assert check_trans2(prog)
        assert check_trans3(prog)
    report(5, f"answer-set correspondences (plain and starred) hold on {len(corpus)} programs incl. fixtures")


def test_criterion_06_class_and_cycle_swaps():
    corpus = list(structured_corpus(205, 1000, max_atoms=4, max_rules=6))
    for text in FIXTURES:
        corpus.append(parse_program(text))
    for prog in corpus:
        labels = classify_labels(prog)
        plain = translate(prog)
        star = translate_star(prog)
        if labels.dual_normal:
            assert classify_labels(plain).normal and classify_labels(star).normal
        if labels.normal:
            assert classify_labels(plain).dual_normal and classify_labels(star).dual_normal
        if labels.hcf:
            assert is_bcf(plain)
        if labels.bcf:
            assert is_hcf(plain)
        assert is_tight(prog) == is_tight(plain)
    report(6, f"dual-normal/normal, HCF/BCF and tightness swaps hold on {len(corpus)} programs")


def test_criterion_07_se_ue_characterizations():
    rng = random.Random(207)
    for _ in range(300):
        prog = random_dual_normal_program(rng, rng.randint(1, 6), 8)
        se = se_models(prog)
        props = se_properties(se)
        assert props.complete and props.closed_here_union
        ue_props = se_properties(ue_models(se))
        assert ue_props.ue_complete and ue_props.splittable
    report(7, "300 random dual-normal programs: SE sets complete+union-closed, UE sets UE-complete+splittable")


def test_criterion_08_synthesis_round_trips():
    rng = random.Random(208)
    se_done = 0
    for _ in range(200):
        table = AtomTable()
        atoms = [table.intern(ch) for ch in "abcd"[: rng.randint(1, 4)]]
        closed = close_complete_here_union(random_se_pairs(rng, atoms, rng.uniform(0.05, 0.5)))
        target = SESet(table, frozenset(atoms), frozenset(SEPair(x, y) for x, y in closed))
        built = program_from_se_set(target)
        assert classify_labels(built).dual_normal
        assert se_models(built, universe=target.universe).pairs == target.pairs
        se_done += 1

    ue_done = 0
    while ue_done < 100:
        prog = random_dual_normal_program(rng, rng.randint(1, 4), 6)
        target = ue_models(se_models(prog))
        built = program_from_ue_set(target)
        assert classify_labels(built).dual_normal
        assert ue_models(se_models(built, universe=target.universe)).pairs == target.pairs
        ue_done += 1
    sampled = 0
    while sampled < 100:
        table = AtomTable()
        atoms = [table.intern(ch) for ch in "abc"[: rng.randint(1, 3)]]
        raw = random_se_pairs(rng, atoms, rng.uniform(0.1, 0.6))
        target = SESet(table, frozenset(atoms), frozenset(SEPair(x, y) for x, y in raw))
        props = se_properties(target)
        if not (props.ue_complete and props.splittable):
            continue
        built = program_from_ue_set(target)
        assert ue_models(se_models(built, universe=target.universe)).pairs == target.pairs
        sampled += 1
    report(8, f"{se_done} SE and {ue_done + sampled} UE synthesis round trips; outputs dual-normal")


def test_criterion_09_polynomial_ue_check():
    rng = random.Random(209)
    pair_checks = 0
    for _ in range(300):
        prog = random_dual_normal_program(rng, rng.randint(1, 7), 8)
        expected = ue_models(se_models(prog)).pairs
        atoms = sorted(prog.atom_ids)
        for ymask in range(1 << len(atoms)):
            there = frozenset(a for i, a in enumerate(atoms) if ymask >> i & 1)
            sub = ymask
            while True:
                here = frozenset(a for i, a in enumerate(atoms) if sub >> i & 1)
                pair = SEPair(here, there)
                assert is_ue_model_dn(prog, pair) == (pair in expected)
                pair_checks += 1
                if sub == 0:
                    break
                sub = (sub - 1) & ymask
    pairs_done = 0
    for _ in range(100):
        table = AtomTable()
        p = random_dual_normal_program(rng, rng.randint(1, 4), 5, table=table)
        q = random_dual_normal_program(rng, rng.randint(1, 4), 5, table=table)
        assert uniformly_equivalent_dn(p, q) == uniformly_equivalent_bf(p, q)
        pairs_done += 1
    report(9, f"polynomial UE test agrees with the oracle on {pair_checks} pairs; {pairs_done} program pairs agree on uniform equivalence")


def _canonical_terms(pool, size):
    return list(itertools.combinations_with_replacement(pool, size))


def test_criterion_10_reductions():
    # QBF reduction: exhaustive for one existential + one universal variable
    # over all term multisets of size <= 3, then a seeded sample at the 2+2
    # bound (term order and repetition collapse structurally).
    pool_small = [(v, s) for v in ("x", "y") for s in (True, False)]
    terms_small = _canonical_terms(pool_small, 3)
    qbf_checked = 0
    for count in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(terms_small, count):
            qbf = Qbf2E(("x",), ("y",), tuple(combo))
            prog = qbf_to_program(qbf)
            assert bool(answer_sets_bf(prog)) == qbf_eval(qbf)
            if is_complexity_sensitive(qbf):
                assert classify_labels(prog).dual_normal
            qbf_checked += 1
    rng = random.Random(210)
    pool_big = [(v, s) for v in ("x1", "x2", "y1", "y2") for s in (True, False)]
    for _ in range(300):
        terms = tuple(tuple(rng.choice(pool_big) for _ in range(3)) for _ in range(rng.randint(1, 3)))
        qbf = Qbf2E(("x1", "x2"), ("y1", "y2"), terms)
        prog = qbf_to_program(qbf)
        assert bool(answer_sets_bf(prog)) == qbf_eval(qbf)
        if is_complexity_sensitive(qbf):
            assert classify_labels(prog).dual_normal
        qbf_checked += 1

    # UNSAT reduction: exhaustive over two variables up to two clauses, then
    # a seeded sample at the 3-variable / 4-clause bound.
    reference = parse_program("a.\n:- a.")

    def satisfiable(cnf: Cnf3) -> bool:
        variables = cnf.variables()
        for mask in range(1 << len(variables)):
            assignment = {v: bool(mask >> i & 1) for i, v in enumerate(variables)}
            if all(any((l > 0) == assignment[abs(l)] for l in cl) for cl in cnf.clauses):
                return True
        return False

    clause_pool = _canonical_terms([1, -1, 2, -2], 3)
    unsat_checked = 0
    for count in (1, 2):
        for combo in itertools.combinations_with_replacement(clause_pool, count):
            cnf = Cnf3(tuple(combo))
            prog = unsat_to_singular(cnf)
            assert classify_labels(prog).singular
            assert strongly_equivalent_bf(prog, reference) == (not satisfiable(cnf))
            unsat_checked += 1
    lits3 = [1, 2, 3, -1, -2, -3]
    for _ in range(150):
        cnf = Cnf3(tuple(tuple(rng.choice(lits3) for _ in range(3)) for _ in range(rng.randint(1, 4))))
        prog = unsat_to_singular(cnf)
        assert classify_labels(prog).singular
        assert strongly_equivalent_bf(prog, reference) == (not satisfiable(cnf))
        unsat_checked += 1
    report(10, f"{qbf_checked} QBF instances (consistency == truth, sensitive => dual-normal); {unsat_checked} CNF instances (strong equivalence == unsatisfiability, outputs singular)")


def test_criterion_11_splittability_gate():
    rng = random.Random(211)
    confirmed = 0
    for _ in range(200):
        table = AtomTable()
        atoms = [table.intern(ch) for ch in "abc"[: rng.randint(1, 3)]]
        raw = random_se_pairs(rng, atoms, rng.uniform(0.1, 0.6))
        candidate = SESet(table, frozenset(atoms), frozenset(SEPair(x, y) for x, y in raw))
        props = se_properties(candidate)
        if props.ue_complete and props.splittable:
            assert props.closed_here_union
            confirmed += 1
    assert confirmed
    counterexample = parse_se_set(UNSPLITTABLE)
    with pytest.raises(SynthesisPreconditionError):
        program_from_ue_set(counterexample)
    report(11, f"splittable+UE-complete implies union-closed on {confirmed} sets; unsplittable counterexample rejected with a precondition error")
