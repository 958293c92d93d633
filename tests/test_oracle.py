import random
import time
import tracemalloc
from itertools import combinations

import pytest

from dualnorm.common import BudgetExceededError, OracleBudget
from dualnorm import core
from dualnorm.core import AtomTable, Program, Rule, SubsetLattice, TruthTables, is_model, reduct, split, table_masks, truth_tables
from dualnorm.gen import random_dual_normal_program, random_program, structured_corpus
from dualnorm.oracle import (
    answer_sets_bf,
    equivalent_as,
    is_answer_set,
    minimal_models,
    models,
    strongly_equivalent_bf,
    uniformly_equivalent_bf,
)
from dualnorm.seue import SEPair, se_models
from dualnorm.textio import parse_program

from conftest import ids_of, planted_corpus


def as_names(prog, sets):
    return sorted(tuple(prog.table.names_of(m)) for m in sets)


def test_models_examples():
    p = parse_program("a | b.")
    assert as_names(p, models(p)) == [("a",), ("a", "b"), ("b",)]
    q = parse_program(":- a.\na.")
    assert models(q) == []
    r = parse_program("b | c :- a.\n:- b.\n:- c.")
    assert models(r) == [frozenset()]


def test_models_subset_lex_order():
    p = parse_program("a | b.")
    assert [sorted(p.table.names_of(m)) for m in models(p)] == [["a"], ["b"], ["a", "b"]]


def test_minimal_models_examples():
    p = parse_program("a | b.")
    assert as_names(p, minimal_models(p)) == [("a",), ("b",)]
    horn = parse_program("a.\nb :- a.")
    assert as_names(horn, minimal_models(horn)) == [("a", "b")]
    r = parse_program("b | c :- a.")
    assert minimal_models(r) == [frozenset()]


def test_answer_sets_examples(disj3):
    p = parse_program("a | b.")
    assert as_names(p, answer_sets_bf(p)) == [("a",), ("b",)]
    assert answer_sets_bf(disj3) == []
    q = parse_program("a :- not b.\nb :- not a.")
    assert as_names(q, answer_sets_bf(q)) == [("a",), ("b",)]


def test_empty_program_answer_set():
    from dualnorm.core import AtomTable, Program

    p = Program.of(AtomTable(), [])
    assert answer_sets_bf(p) == [frozenset()]


def test_answer_sets_split_characterization():
    # answer sets are the answer sets of the proper part that satisfy the
    # constraints
    with_constraints = 0
    for prog in structured_corpus(seed=41, count=300, max_atoms=5, max_rules=7):
        proper, constraints = split(prog)
        with_constraints += bool(constraints.rules)
        via_split = {m for m in answer_sets_bf(proper) if is_model(m, constraints)}
        assert set(answer_sets_bf(prog)) == via_split
    assert with_constraints > 50


def test_is_answer_set_examples():
    p = parse_program("a | b.")
    assert is_answer_set(p, ids_of(p, "a"))
    assert not is_answer_set(p, ids_of(p, "a b"))
    assert is_answer_set(parse_program("a :- b."), frozenset())
    chain = parse_program("a.\nb :- a.\nc :- b, not f.\nd :- c.\ne | f :- d.")
    assert answer_sets_bf(chain) == [ids_of(chain, "a b c d e")]
    assert is_answer_set(chain, ids_of(chain, "a b c d e"))
    assert not is_answer_set(chain, ids_of(chain, "a b c d f"))
    assert not is_answer_set(chain, ids_of(chain, "a b c d e f"))
    with pytest.raises(ValueError):
        is_answer_set(p, frozenset({99}))


def answer_set_by_sets(prog, m):
    """The definition on sets, sharing no code with the oracle's masks: M is
    a model of P and no proper subset of M is a model of P^M."""
    if not is_model(m, prog):
        return False
    reduced = reduct(prog, m)
    members = sorted(m)
    return not any(
        is_model(frozenset(x), reduced)
        for k in range(len(members))
        for x in combinations(members, k)
    )


def subsets(atoms):
    return [frozenset(a for i, a in enumerate(atoms) if mask >> i & 1) for mask in range(1 << len(atoms))]


def test_is_answer_set_agrees_with_enumeration():
    rng = random.Random(4)
    for _ in range(80):
        p = random_program(rng, rng.randint(1, 5), 6)
        expected = set(answer_sets_bf(p))
        for m in subsets(sorted(p.atom_ids)):
            assert is_answer_set(p, m) == (m in expected) == answer_set_by_sets(p, m)


def test_is_answer_set_on_planted_answer_sets_of_four_or_more_atoms():
    for p, m, near in planted_corpus():
        expected = set(answer_sets_bf(p))
        assert m in expected
        assert is_answer_set(p, m) and answer_set_by_sets(p, m)
        for x in near:
            assert is_answer_set(p, x) == (x in expected) == answer_set_by_sets(p, x)


def test_answer_sets_bf_agrees_with_is_answer_set_on_every_model():
    # answer_sets_bf tests its candidates on the kernel it holds;
    # is_answer_set builds one over each M
    rng = random.Random(56)
    corpus = [
        *(random_program(rng, rng.randint(1, 6), 6) for _ in range(100)),
        *(random_dual_normal_program(rng, rng.randint(1, 6), 6) for _ in range(100)),
        *structured_corpus(seed=57, count=100, max_atoms=6, max_rules=8),
        *(p for p, _, _ in planted_corpus()),
    ]
    found = 0
    for p in corpus:
        expected = [m for m in models(p) if is_answer_set(p, m)]
        assert answer_sets_bf(p) == expected
        found += sum(1 for m in expected if m)
    assert found > 100


def test_answer_sets_are_the_models_whose_se_row_is_themselves():
    # M is an answer set iff {X subset of M : X |= P^M} is {M}
    corpus = [*structured_corpus(5, 400), *(p for p, _, _ in planted_corpus())]
    found = 0
    for p in corpus:
        se = se_models(p)
        rows = sorted(se.rows.items())
        expected = [core.mask_to_set(se.atoms, y) for y, row in rows if row == 1 << y]
        assert answer_sets_bf(p) == expected
        assert [is_answer_set(p, core.mask_to_set(se.atoms, y)) for y, _ in rows] == [row == 1 << y for y, row in rows]
        found += len(expected)
    assert found == 274 + 144


def test_oracle_runs_no_reduct_view(monkeypatch):
    def refuse(self, interp):
        raise AssertionError("the oracle read a reduct view")

    monkeypatch.setattr(core.ReductView, "reduct_proper", refuse)
    for p in structured_corpus(seed=43, count=150, max_atoms=5, max_rules=7):
        everything = subsets(sorted(p.atom_ids))
        assert models(p) == [m for m in everything if is_model(m, p)]
        assert answer_sets_bf(p) == [m for m in everything if answer_set_by_sets(p, m)]
        assert all(is_answer_set(p, m) == answer_set_by_sets(p, m) for m in everything)


def test_is_answer_set_budget_bounds_the_interpretation():
    # 28 atoms, above the default budget of 22; the answer set is {a, b}
    p = parse_program("a.\nb :- a.\n" + "\n".join(f"x{i} :- x{i + 1}." for i in range(25)))
    assert len(p.atom_ids) == 28
    assert is_answer_set(p, ids_of(p, "a b"))
    assert not is_answer_set(p, ids_of(p, "a"))
    assert not is_answer_set(p, ids_of(p, "a b x0"))
    with pytest.raises(BudgetExceededError):
        answer_sets_bf(p)
    with pytest.raises(BudgetExceededError):
        is_answer_set(p, ids_of(p, "a b x0"), OracleBudget(max_atoms=2))


def test_equivalent_as_examples():
    assert equivalent_as(parse_program("a."), parse_program("a :- not b."))
    assert equivalent_as(
        parse_program("a | b."), parse_program("a :- not b.\nb :- not a.")
    )
    assert not equivalent_as(parse_program("a."), parse_program("b."))


def test_strong_equivalence_examples(disj3, disj3_normal):
    assert strongly_equivalent_bf(disj3, disj3)
    assert not strongly_equivalent_bf(disj3, disj3_normal)
    # two inconsistent programs: both SE sets empty over the joint universe
    assert strongly_equivalent_bf(parse_program("a.\n:- a."), parse_program("b.\n:- b."))


def test_uniform_equivalence_examples(disj3, disj3_normal, disj3_dual):
    assert uniformly_equivalent_bf(disj3, disj3_normal)
    assert not uniformly_equivalent_bf(disj3, disj3_dual)
    assert uniformly_equivalent_bf(disj3, disj3)


def test_equivalence_implication_chain():
    rng = random.Random(6)
    seen_strong = 0
    for _ in range(300):
        from dualnorm.core import AtomTable

        table = AtomTable()
        p = random_program(rng, rng.randint(1, 5), 4, table=table)
        q = random_program(rng, rng.randint(1, 5), 4, table=table)
        if rng.random() < 0.3:
            q = p.with_rules(p.rules[:-1]) if p.rules else q
        if strongly_equivalent_bf(p, q):
            seen_strong += 1
            assert uniformly_equivalent_bf(p, q)
        if uniformly_equivalent_bf(p, q):
            assert equivalent_as(p, q)
    assert seen_strong  # the corpus exercised the non-vacuous case


def test_budget_guard():
    p = parse_program("a | b.")
    with pytest.raises(BudgetExceededError):
        models(p, budget=OracleBudget(max_atoms=1))


def se_models_by_sets(prog, universe):
    """SE-models by the definition on sets: Y a model of P within the
    universe, X a subset of Y that models the reduct P^Y."""
    return {
        SEPair(x, y)
        for y in subsets(sorted(universe))
        if is_model(y, prog)
        for x in subsets(sorted(y))
        if is_model(x, reduct(prog, y))
    }


def test_truth_tables_and_their_masks():
    assert truth_tables(0) == []
    assert truth_tables(3) == [0b10101010, 0b11001100, 0b11110000]
    assert table_masks(0) == []
    assert table_masks(0b10110) == [1, 2, 4]
    assert table_masks(1 << 1000 | 1) == [0, 1000]


def test_table_rows_and_the_subset_lattice(monkeypatch):
    # tables longer than one part of the binary string, rows of every width
    rng = random.Random(9)
    for size in (0, 3, 64, 1 << 18, (1 << 18) + 5, 3 << 19):
        table = rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size) if size else 0
        ones = [i for i, c in enumerate(bin(table)[:1:-1]) if c == "1"]
        assert table_masks(table) == ones
        for width in (1, 4, 8) if size < 1 << 10 else (1024, 1 << 18, 1 << 20):
            rows = core.table_rows(table, width)
            assert [r * width + x for r, row in rows.items() for x in table_masks(row)] == ones
            assert all(rows.values()) and core.table_of_rows(rows, width) == table
    assert [core.submask_table(y) for y in (0, 1, 2, 0b101)] == [1, 0b11, 0b101, 0b110011]
    assert core.every_table(3, 2) == 0b1001001001
    # the closures of the lattice, by their definitions, with the tables kept
    # and with the tables made as the closures go
    for kept in (True, False):
        monkeypatch.setattr(SubsetLattice, "KEPT_BITS", 20 if kept else -1)
        for m in range(6):
            lattice = SubsetLattice(m)
            assert (lattice.kept is not None) == kept
            assert [core.truth_table(m, b) for b in range(m)] == truth_tables(m)
            for _ in range(20):
                table = rng.getrandbits(1 << m) & rng.getrandbits(1 << m)
                bits = sorted(rng.sample(range(m), rng.randint(0, m)))
                free = sum(1 << b for b in bits)
                members = table_masks(table)
                up = sum(1 << s for s in range(1 << m) if any(s & ~free == t & ~free and s & t == t for t in members))
                down = sum(1 << s for s in range(1 << m) if any(s & ~free == t & ~free and s & t == s for t in members))
                assert lattice.up(table, bits) == up and lattice.down(table, bits) == down
                assert lattice.spread(table, bits) == lattice.up(lattice.down(table, bits), bits)
                strict = sum(1 << s for s in table_masks(down) if any(s | 1 << b in table_masks(down) for b in bits if not s >> b & 1))
                assert lattice.strictly_below(down, bits) == strict
                strict = sum(1 << s for s in table_masks(up) if any(s ^ 1 << b in table_masks(up) for b in bits if s >> b & 1))
                assert lattice.strictly_above(up, bits) == strict
                per_bit = list(lattice.per_bit(table, bits, lattice.up, lattice.down))
                assert [(shift, t) for shift, t, _ in per_bit] == [(1 << b, truth_tables(m)[b]) for b in bits]
                for b, (_, _, closed) in zip(bits, per_bit):
                    lower, higher = [c for c in bits if c < b], [c for c in bits if c > b]
                    assert closed == lattice.down(lattice.up(table, lower), higher)


def test_kernel_on_universes_wider_than_the_program():
    # general programs, over universes of one and two atoms outside at(P):
    # the atoms outside count as false, as in the set-based reference
    rng = random.Random(8)
    for _ in range(60):
        p = random_program(rng, rng.randint(1, 4), 5)
        for extra in (["zz"], ["zz", "zy"]):
            universe = p.atom_ids | {p.table.intern(name) for name in extra}
            everything = subsets(sorted(universe))
            assert models(p, universe) == [m for m in everything if is_model(m, p)]
            assert se_models(p, universe=universe).pairs == se_models_by_sets(p, universe)
            minimal = [m for m in everything if is_model(m, p) and not any(
                o < m and is_model(o, p) for o in everything)]
            assert minimal_models(p, universe) == minimal


def test_kernel_on_empty_programs_and_universes():
    empty = Program.of(AtomTable(), [])
    falsum = parse_program("#false.")
    for prog, answer in ((empty, [frozenset()]), (falsum, [])):
        assert models(prog) == minimal_models(prog) == answer_sets_bf(prog) == answer
        assert is_answer_set(prog, frozenset()) == bool(answer)
        assert se_models(prog).pairs == {SEPair(m, m) for m in answer}
    # k = 0 for a program with atoms: only a rule with a positive body
    # holds over the empty universe
    fact, guarded = parse_program("a."), parse_program("a :- b.")
    assert models(fact, frozenset()) == [] and models(guarded, frozenset()) == [frozenset()]
    assert se_models(guarded, universe=frozenset()).pairs == {SEPair(frozenset(), frozenset())}
    assert is_answer_set(guarded, frozenset()) and not is_answer_set(fact, frozenset())


def test_kernel_with_its_tables_made_as_it_goes(monkeypatch):
    # the kernel's columns are the lattice's kept tables, or, above
    # KEPT_BITS, tables made for the kernel; both give the same models,
    # answer sets and SE-models
    programs = [random_program(random.Random(seed), 5, 6) for seed in range(40)]
    calls = (minimal_models, answer_sets_bf, lambda p: se_models(p).rows)
    kept = [[call(p) for call in calls] for p in programs]
    monkeypatch.setattr(SubsetLattice, "KEPT_BITS", -1)
    kernel = TruthTables(programs[0], sorted(programs[0].atom_ids))
    assert SubsetLattice(kernel.m).kept is None and list(kernel.kept) == truth_tables(kernel.m)
    assert kernel.kept is not core._kept_tables(kernel.m)
    assert [[call(p) for call in calls] for p in programs] == kept
    assert any(len(found) > 1 for found, _, _ in kept) and any(answer for _, answer, _ in kept)


def test_kernel_tables_at_twenty_atoms_build_fast():
    # 20 atoms: 20 tables of 2^20 bits, the highest built by doubling and
    # each one below by one shift, in milliseconds
    chain = parse_program("\n".join(f"x{i} :- x{i + 1}, not y." for i in range(19)) + "\nx19.")
    assert len(chain.atom_ids) == 21
    xs = chain.atom_ids - ids_of(chain, "y")
    for call in (
        lambda: models(chain, universe=xs),
        lambda: is_answer_set(chain, xs),
        lambda: TruthTables(chain, sorted(xs)).models(),
    ):
        start = time.perf_counter()
        call()
        assert time.perf_counter() - start < 0.5
    assert models(chain, universe=xs) == [xs]
    assert is_answer_set(chain, xs) and not is_answer_set(chain, xs - ids_of(chain, "x0"))


def test_kernel_keeps_one_table_per_negative_body():
    # 2 000 two-head rules over 18 atoms, each negating one atom: the
    # kernel ORs the rejections of the rules with one negative body, so it
    # holds 18 blocking tables of 2^18 bits, not two tables per rule
    rng = random.Random(5)
    table = AtomTable()
    atoms = [table.intern(f"a{i}") for i in range(18)]
    rules = set()
    while len(rules) < 2000:
        rules.add(Rule.of(rng.sample(atoms, 2), (), (rng.choice(atoms),)))
    prog = Program.of(table, sorted(rules))
    tracemalloc.start()
    try:
        found = answer_sets_bf(prog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert found and all(is_answer_set(prog, m) for m in found)
    assert len(TruthTables(prog, atoms).blocks) == 18


def test_rejections_are_what_the_reduct_rejects():
    # over the program's atoms and a wider universe, bit x of the table is
    # set exactly when the subset x fails the reduct w.r.t. the model y
    rng = random.Random(9)
    for _ in range(60):
        p = random_program(rng, rng.randint(2, 5), 7)
        for universe in (p.atom_ids, p.atom_ids | {p.table.intern("zz")}):
            atoms = sorted(universe)
            kernel = TruthTables(p, atoms)
            for y in table_masks(kernel.models()):
                reduced = reduct(p, frozenset(a for i, a in enumerate(atoms) if y >> i & 1))
                rejected = kernel.rejections(y)
                for x, interp in enumerate(subsets(atoms)):
                    assert (rejected >> x & 1) != is_model(interp, reduced)


def test_locally_minimal_models_keep_every_answer_set():
    # the one-atom filter keeps each answer set and drops only models with
    # a one-atom-smaller subset modelling their reduct
    for p in structured_corpus(seed=44, count=150, max_atoms=6, max_rules=8):
        atoms = sorted(p.atom_ids)
        kernel = TruthTables(p, atoms)
        kept = table_masks(kernel.locally_minimal(kernel.models()))
        for m in table_masks(kernel.models()):
            y = frozenset(a for i, a in enumerate(atoms) if m >> i & 1)
            smaller = any(is_model(y - {a}, reduct(p, y)) for a in y)
            assert (m in kept) == (not smaller)
            assert answer_set_by_sets(p, y) <= (m in kept)
