"""Seeded input generators for the benchmark.

Programs are kept here as plain rule lists over atom *names*,
``(head, body_pos, body_neg)`` tuples of strings, so that every operation
can build its own fresh ``AtomTable`` and the references never share state
with the code under test.  Every generator takes an explicit
``random.Random``; the same seed gives byte-identical files.
"""

from __future__ import annotations

import random

from dualnorm.core import AtomTable, Program, Rule
from dualnorm.gen import random_dual_normal_program
from dualnorm.oracle import answer_sets_bf, models

import refs

NamedRule = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]


def named_rules(prog) -> list[NamedRule]:
    n = prog.table.name_of
    return [
        (tuple(map(n, r.head)), tuple(map(n, r.body_pos)), tuple(map(n, r.body_neg)))
        for r in prog.rules
    ]


def render(rules: list[NamedRule]) -> str:
    """Program text in the repo's grammar, one rule per line."""
    lines = []
    for head, pos, neg in rules:
        body = list(pos) + [f"not {a}" for a in neg]
        h = " | ".join(head)
        if body:
            lines.append(f"{h} :- {', '.join(body)}." if h else f":- {', '.join(body)}.")
        else:
            lines.append(f"{h}.")
    return "\n".join(lines) + "\n"


def atoms_of(rules: list[NamedRule]) -> set[str]:
    return {a for r in rules for part in r for a in part}


def dn_program(rng: random.Random, n_atoms: int, n_rules: int) -> list[NamedRule]:
    """A ``random_dual_normal_program`` with exactly ``n_atoms`` atoms
    occurring and exactly ``n_rules`` rules.

    The repo generator draws the rule count at random and often leaves
    atoms out; resampling pins both, and with them most of the cost of every
    exhaustive route (2^n subsets, 3^n SE-pairs, an encoding of about
    |P| n^2 clauses), so op times drift less with the seed.
    """
    while True:
        prog = random_dual_normal_program(rng, n_atoms, n_rules, AtomTable())
        if len(prog.atom_ids) == n_atoms and len(prog.rules) == n_rules:
            return named_rules(prog)


# ---------------------------------------------------------------------------
# solve: small dual-normal programs


def solve_corpus(rng: random.Random, count: int):
    """``(rules, answer_sets)`` for programs of 6..10 atoms and as many
    rules, with 0..3 answer sets.

    The search routes' cost grows with the atom count and, because the SAT
    route restarts its solver once per model, with the number of answer
    sets.  Both are cycled through fixed strata, so every prefix of the
    corpus holds the same mix whatever the seed; only the programs inside a
    stratum vary.  Ten atoms is where ``solve --method sat`` already takes
    about a second; larger programs leave too few samples in a run.
    """
    corpus = []
    for i in range(count):
        n, k = 6 + i % 5, (i // 5) % 4
        while True:
            rules = dn_program(rng, n, n)
            answer_sets = refs.answer_sets(rules)
            if len(answer_sets) == k:
                corpus.append((rules, answer_sets))
                break
    return corpus


# ---------------------------------------------------------------------------
# verify: disjoint unions with planted candidates


def _rename(rules: list[NamedRule], prefix: str) -> list[NamedRule]:
    return [tuple(tuple(prefix + a for a in part) for part in r) for r in rules]


def planted_union(rng: random.Random, target_atoms: int):
    """Atom-disjoint union of small dual-normal components, renamed apart.

    Returns ``(rules, true_candidate, false_candidate)``.  Each component
    has an answer set and a classical model that is not one.  The true
    candidate is a union of per-component answer sets; the false one swaps
    the middle component's part for a non-answer-set model.  By the splitting-set
    property the union's answer sets are exactly the unions of component
    answer sets, so the per-component oracle runs (at most 7 atoms each)
    give both verdicts, while the union itself (200-400 atoms) is far beyond
    the oracle's 22-atom budget.
    """
    rules: list[NamedRule] = []
    true_parts: list[frozenset[str]] = []
    wrong_parts: list[frozenset[str]] = []
    n = 0
    while n < target_atoms:
        k = rng.randint(4, 7)
        comp = random_dual_normal_program(rng, k, k, AtomTable())
        if len(comp.atom_ids) != k:
            continue
        answer_sets = set(answer_sets_bf(comp))
        others = [m for m in models(comp) if m not in answer_sets]
        if not answer_sets or not others:
            continue
        name = comp.table.name_of
        prefix = f"c{len(true_parts)}_"
        pick = lambda sets: frozenset(prefix + name(a) for a in rng.choice(sorted(sets, key=sorted)))
        true_parts.append(pick(answer_sets))
        wrong_parts.append(pick(others))
        rules.extend(_rename(named_rules(comp), prefix))
        n += k
    # the check stops at the first atom whose witness keeps t, so where the
    # swapped component sits sets the cost: fix it to the middle
    swap = len(true_parts) // 2
    true_cand = frozenset().union(*true_parts)
    false_cand = frozenset().union(*(w if i == swap else t for i, (t, w) in enumerate(zip(true_parts, wrong_parts))))
    return rules, true_cand, false_cand


def chain(rng: random.Random, n_atoms: int):
    """``a_i :- a_{i+1}.`` for all i, plus ``:- a_j.`` and, half the time, a
    fact ``a_f.``.

    Returns ``(rules, max_model)`` with the maximal model in closed form:
    eliminating ``a_j`` eliminates every later atom, so the model is
    ``{a_0 .. a_{j-1}}``, and a fact at or after ``j`` makes the program
    unsatisfiable (``None``).  The elimination levels grow by one atom per
    step, which is the case where a trace storing each level as a full set
    costs quadratic time and memory.
    """
    j = rng.randrange(8)
    rules: list[NamedRule] = [((f"a{i}",), (f"a{i + 1}",), ()) for i in range(n_atoms - 1)]
    rules.append(((), (f"a{j}",), ()))
    f = rng.randrange(n_atoms) if rng.random() < 0.5 else None
    if f is not None:
        rules.append(((f"a{f}",), (), ()))
    if f is not None and f >= j:
        return rules, None
    return rules, frozenset(f"a{i}" for i in range(j))


def dual_horn_union(rng: random.Random, target_atoms: int):
    """Atom-disjoint union of small satisfiable dual-Horn components.

    Returns ``(rules, max_model)``; the union's maximal model is the union
    of the components' maximal models, each found by the oracle's model
    enumeration.
    """
    rules: list[NamedRule] = []
    parts: list[frozenset[str]] = []
    n = 0
    while n < target_atoms:
        k = rng.randint(5, 8)
        names = [f"h{len(parts)}_{i}" for i in range(k)]
        comp: list[NamedRule] = []
        for _ in range(k + 2):
            roll = rng.random()
            body = (rng.choice(names),) if roll < 0.8 else ()
            if roll < 0.15:
                comp.append(((), body, ()))
            else:
                head = tuple(sorted(set(rng.sample(names, rng.randint(1, 2)))))
                comp.append((head, body, ()))
        if len(atoms_of(comp)) != k:
            continue
        table = AtomTable()
        prog = _program(table, comp)
        found = models(prog)
        if not found:
            continue
        top = max(found, key=len)
        if not all(m <= top for m in found):
            raise AssertionError("dual-Horn component without a unique maximal model")
        parts.append(frozenset(table.name_of(a) for a in top))
        rules.extend(comp)
        n += k
    return rules, frozenset().union(*parts)


def _program(table: AtomTable, rules: list[NamedRule]) -> Program:
    i = table.intern
    return Program.of(
        table, [Rule.of(map(i, h), map(i, p), map(i, n)) for h, p, n in rules]
    )


def build(rules: list[NamedRule]) -> Program:
    """Fresh table, fresh program: no op sees atoms another op interned."""
    return _program(AtomTable(), rules)


# ---------------------------------------------------------------------------
# verify: program pairs for equivalence


def equivalent_pair(rng: random.Random, n_atoms: int):
    """``(p, q)`` with ``q = p`` plus weakened copies of some of its rules.

    A copy gets one extra body literal, so every SE-model of the original
    rule satisfies the copy, and p and q are strongly (hence uniformly and
    answer-set) equivalent.  The extra literal is negative, or positive only
    where the rule has no positive body, so q stays dual-normal and the
    ``--dn-fast`` route applies.
    """
    p = dn_program(rng, n_atoms, n_atoms)
    names = sorted(atoms_of(p))
    q = list(p)
    for head, pos, neg in rng.sample(p, max(1, len(p) // 2)):
        extra = rng.choice([a for a in names if a not in head + pos + neg] or names)
        if not pos and rng.random() < 0.5:
            q.append((head, (extra,), neg))
        else:
            q.append((head, pos, tuple(sorted(set(neg + (extra,))))))
    return p, q


def independent_pair(rng: random.Random, n_atoms: int):
    """Two independent draws over the same atom names; their verdicts come
    from the benchmark's own SE-model enumeration at set-up."""
    return dn_program(rng, n_atoms, n_atoms), dn_program(rng, n_atoms, n_atoms)


# ---------------------------------------------------------------------------
# ingest: large sparse programs


def sparse_program(rng: random.Random, n_rules: int, profile: str) -> list[NamedRule]:
    """``n_rules`` rules over ``n_rules // 3`` atoms, each touching 1-3 atoms.

    ``random_dual_normal_program`` draws every atom into every rule with a
    fixed probability, so its text grows with atoms x rules (212 kB for 121
    rules at 400 atoms); this generator grows linearly and reaches 10^4-10^5
    rules at about 25 bytes a rule.  ``profile`` picks the class mix so the
    labels differ between inputs: ``dual_normal`` (proper rules keep at most
    one positive body atom), ``normal`` (single heads), ``general`` (both
    disjunctive heads and two-atom positive bodies).
    """
    n_atoms = max(3, n_rules // 3)
    atom = lambda: f"x{rng.randrange(n_atoms)}"
    rules: list[NamedRule] = []
    for _ in range(n_rules):
        size = rng.randint(1, 3)
        a = [atom() for _ in range(size)]
        roll = rng.random()
        if size == 1:
            rules.append(((a[0],), (), ()) if roll < 0.7 else ((), (a[0],), ()))
        elif size == 2:
            if roll < 0.5:
                rules.append(((a[0],), (a[1],), ()))
            elif roll < 0.8:
                rules.append(((a[0],), (), (a[1],)))
            else:
                rules.append(((), (a[0], a[1]), ()))
        elif profile == "normal" or (profile == "dual_normal" and roll < 0.5):
            rules.append(((a[0],), (a[1],), (a[2],)))
        elif profile == "dual_normal":
            rules.append(((a[0], a[1]), (a[2],), ()))
        elif roll < 0.5:
            rules.append(((a[0], a[1]), (a[2],), ()))
        else:
            rules.append(((a[0],), (a[1], a[2]), ()))
    dedup: dict[NamedRule, None] = {}
    for h, p, n in rules:
        key = (tuple(sorted(set(h))), tuple(sorted(set(p))), tuple(sorted(set(n))))
        dedup.setdefault(key, None)
    return list(dedup)
