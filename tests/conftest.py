import random

import pytest

from dualnorm.core import AtomTable, Program, Rule
from dualnorm.gen import close_complete_here_union, random_dual_normal_program, random_se_pairs
from dualnorm.seue import SEPair, SESet, se_models, se_properties, ue_models
from dualnorm.textio import parse_program

# Three-atom worked examples used throughout: a disjunctive guess with a
# completion loop, and its two pruned variants (one normal, one dual-normal).
DISJ3 = "a | b.\n:- not c.\nc :- a, b.\na :- c.\nb :- c.\n"
DISJ3_NORMAL = ":- not c.\nc :- a, b.\na :- c.\nb :- c.\n"  # drops the guess
DISJ3_DUAL = "a | b.\n:- not c.\na :- c.\nb :- c.\n"  # drops the join rule

# UE-complete, here-union-closed, but not splittable.
UNSPLITTABLE = "b;b\nc;c\na b;a b c d\nc d;a b c d\na b c d;a b c d\n"


@pytest.fixture
def table():
    return AtomTable()


@pytest.fixture
def disj3():
    return parse_program(DISJ3)


@pytest.fixture
def disj3_normal():
    return parse_program(DISJ3_NORMAL)


@pytest.fixture
def disj3_dual():
    return parse_program(DISJ3_DUAL)


def ids_of(prog, names):
    return frozenset(prog.table.id_of(n) for n in names.split())


def name_pairs(se_set):
    """SE pairs as sorted name tuples, for readable comparisons."""
    t = se_set.table
    return {
        (tuple(t.names_of(p.here)), tuple(t.names_of(p.there))) for p in se_set.pairs
    }


def synthesis_targets():
    """The synthesis corpora of acceptance criterion 08, as ``(kind,
    set)``: 200 complete here-union-closed sets (``"se"``), the UE sets of
    100 dual-normal programs (``"ue"``), then 100 sampled UE-complete,
    splittable sets (``"sampled"``)."""
    rng = random.Random(208)
    for _ in range(200):
        table = AtomTable()
        atoms = [table.intern(ch) for ch in "abcd"[: rng.randint(1, 4)]]
        closed = close_complete_here_union(random_se_pairs(rng, atoms, rng.uniform(0.05, 0.5)))
        yield "se", SESet(table, frozenset(atoms), frozenset(SEPair(x, y) for x, y in closed))
    for _ in range(100):
        prog = random_dual_normal_program(rng, rng.randint(1, 4), 6)
        yield "ue", ue_models(se_models(prog))
    sampled = 0
    while sampled < 100:
        table = AtomTable()
        atoms = [table.intern(ch) for ch in "abc"[: rng.randint(1, 3)]]
        raw = random_se_pairs(rng, atoms, rng.uniform(0.1, 0.6))
        target = SESet(table, frozenset(atoms), frozenset(SEPair(x, y) for x, y in raw))
        props = se_properties(target)
        if props.ue_complete and props.splittable:
            yield "sampled", target
            sampled += 1


def sparse_text(seed: int, n_rules: int, profile: str) -> str:
    """``n_rules`` rendered rules over ``n_rules // 3`` atoms, each rule
    touching one to three of them (repeats allowed).  ``profile`` picks the
    class mix: ``dual_normal`` (a proper rule keeps at most one positive
    body atom), ``normal`` (single heads) or ``general`` (disjunctive heads
    and two-atom positive bodies both)."""
    rng = random.Random(seed)
    n_atoms = max(3, n_rules // 3)
    lines = []
    for _ in range(n_rules):
        a = [f"x{rng.randrange(n_atoms)}" for _ in range(rng.randint(1, 3))]
        roll = rng.random()
        if len(a) == 1:
            lines.append(f"{a[0]}." if roll < 0.7 else f":- {a[0]}.")
        elif len(a) == 2:
            if roll < 0.5:
                lines.append(f"{a[0]} :- {a[1]}.")
            else:
                lines.append(f"{a[0]} :- not {a[1]}." if roll < 0.8 else f":- {a[0]}, {a[1]}.")
        elif profile == "normal" or (profile == "dual_normal" and roll < 0.5):
            lines.append(f"{a[0]} :- {a[1]}, not {a[2]}.")
        elif profile == "dual_normal" or roll < 0.5:
            lines.append(f"{a[0]} | {a[1]} :- {a[2]}.")
        else:
            lines.append(f"{a[0]} :- {a[1]}, {a[2]}.")
    return "\n".join(lines) + "\n"


def planted_answer_set_program(rng: random.Random) -> tuple[Program, frozenset[int]]:
    """A dual-normal program with a planted answer set M of 4-8 atoms, as
    ``(program, M)``, over M and 1-3 atoms outside it.

    A fact (or a disjunction with an outside atom) supports one atom of M,
    and every further atom of M hangs off an earlier one by a rule that is
    plain, disjunctive with an outside atom, or blocked by one.  So every
    model of P^M within M holds all of M.  Random dual-normal rules that M
    satisfies are added on top, which keeps M a minimal model of P^M."""
    table = AtomTable()
    inside = [table.intern(f"m{i}") for i in range(rng.randint(4, 8))]
    outside = [table.intern(f"o{i}") for i in range(rng.randint(1, 3))]
    m = frozenset(inside)
    rng.shuffle(inside)
    rules = [Rule.of((inside[0], rng.choice(outside)) if rng.random() < 0.5 else (inside[0],))]
    for i, a in enumerate(inside[1:], 1):
        parent, o = rng.choice(inside[:i]), rng.choice(outside)
        roll = rng.random()
        if roll < 0.4:
            rules.append(Rule.of((a,), (parent,)))
        elif roll < 0.7:
            rules.append(Rule.of((a, o), (parent,)))
        else:
            rules.append(Rule.of((a,), (parent,), (o,)))
    atoms = inside + outside
    while len(rules) < len(inside) + 6:
        head = [a for a in atoms if rng.random() < 0.2]
        if head:
            pos = [rng.choice(atoms)] if rng.random() < 0.5 else []
        else:
            pos = [a for a in atoms if rng.random() < 0.3]
        neg = [a for a in atoms if rng.random() < 0.2]
        body_holds = set(pos) <= m and not m & set(neg)
        if (head or pos or neg) and (not body_holds or m & set(head)):
            rules.append(Rule.of(head, pos, neg))
    return Program.of(table, rules), m


def planted_corpus(seed: int = 23, count: int = 60):
    """``count`` planted programs (see :func:`planted_answer_set_program`),
    each with its planted answer set and its near misses: M less one atom,
    and M plus one atom of the program outside it."""
    rng = random.Random(seed)
    for _ in range(count):
        prog, m = planted_answer_set_program(rng)
        near = [m - {a} for a in sorted(m)] + [m | {a} for a in sorted(prog.atom_ids - m)]
        yield prog, m, near
