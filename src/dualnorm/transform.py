"""Head/body-swapping translation between programs.

The translation turns dual-normal programs into normal ones and normal
programs into dual-normal ones with a single construction.  For every atom
``x`` of the input a complement atom (written ``__n_<x>``) carries "x is
out", and a private copy ``__c_<y>_<x>`` of every atom ``y`` (plus a copy
``__c_t_<x>`` of the body-padding atom) hosts an owner-local reversal of the
proper rules: heads become positive bodies and vice versa, negative bodies
stay on the original atoms.  Choice rules guess the base assignment,
constraints re-check the original rules classically, and per-owner seeding
plus a final constraint demand that the reversed system derive the owner's
t-copy, which certifies minimality of the guessed model at that owner.

The plain translation preserves head-cycle/body-cycle structure (it swaps
the two) and tightness; the starred variant adds saturation rules
``y_x <- t_x`` to make the answer-set correspondence one-to-one, at the
price of new cycles.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from .common import DEFAULT_BUDGET, OracleBudget
from .core import Program, Rule, is_model, mask_to_set, reduct, split
from .oracle import answer_sets_bf, minimal_models


def neg_atom(prog: Program, x: int) -> int:
    """The complement atom for x (stable per table)."""
    name = prog.table.name_of(x)
    return prog.table.generated(("neg", x), f"__n_{name}")


def copy_atom(prog: Program, y: Optional[int], x: int) -> int:
    """The copy of atom y owned by x; y=None is the copy of the padding atom."""
    xname = prog.table.name_of(x)
    if y is None:
        return prog.table.generated(("copy_t", x), f"__c_t_{xname}")
    return prog.table.generated(("copy", y, x), f"__c_{prog.table.name_of(y)}_{xname}")


def build_px(prog: Program, x: int) -> Program:
    """The owner-x reversal of the proper rules (after body padding): a rule
    H <- B+, not B- becomes copy(B+) <- copy(H), not B-."""
    if x not in prog.atom_ids:
        raise ValueError(f"atom {prog.table.name_of(x)!r} does not occur in the program")
    proper, _ = split(prog)
    rules = []
    for r in proper.rules:
        if r.body_pos:
            new_head = [copy_atom(prog, b, x) for b in r.body_pos]
        else:
            new_head = [copy_atom(prog, None, x)]
        new_pos = [copy_atom(prog, h, x) for h in r.head]
        rules.append(Rule.of(new_head, new_pos, r.body_neg))
    return Program.of(prog.table, rules)


def _xor_rules(prog: Program) -> list[Rule]:
    rules = []
    for x in sorted(prog.atom_ids):
        nx = neg_atom(prog, x)
        rules.append(Rule.of((x,), (), (nx,)))
        rules.append(Rule.of((nx,), (), (x,)))
    return rules


def _aux_rules(prog: Program) -> list[Rule]:
    atoms = sorted(prog.atom_ids)
    rules = []
    for x in atoms:
        nx = neg_atom(prog, x)
        rules.append(Rule.of((copy_atom(prog, x, x),), (), (nx,)))
        for y in atoms:
            rules.append(Rule.of((copy_atom(prog, y, x),), (), (nx, y)))
    return rules


def _mod_rules(prog: Program) -> list[Rule]:
    return [
        Rule.of((), r.body_pos, set(r.head) | set(r.body_neg)) for r in prog.rules
    ]


def _true_rules(prog: Program) -> list[Rule]:
    return [
        Rule.of((), (x,), (copy_atom(prog, None, x),)) for x in sorted(prog.atom_ids)
    ]


def _star_rules(prog: Program, x: int) -> list[Rule]:
    tx = copy_atom(prog, None, x)
    return [Rule.of((copy_atom(prog, y, x),), (tx,)) for y in sorted(prog.atom_ids)]


def translate(prog: Program) -> Program:
    """The head/body-swapping translation (guess, reverse, re-check)."""
    rules = _xor_rules(prog) + _aux_rules(prog)
    for x in sorted(prog.atom_ids):
        rules.extend(build_px(prog, x).rules)
    rules.extend(_mod_rules(prog))
    rules.extend(_true_rules(prog))
    return Program.of(prog.table, rules)


def translate_star(prog: Program) -> Program:
    """The translation with saturation rules, giving an answer-set bijection."""
    out = translate(prog)
    rules = list(out.rules)
    for x in sorted(prog.atom_ids):
        rules.extend(_star_rules(prog, x))
    return Program.of(prog.table, rules)


def mp_of(prog: Program, interp: frozenset[int]) -> frozenset[int]:
    """Lift a base interpretation into the translated vocabulary: keep its
    atoms, add the complement atom of every absent one."""
    if not interp <= prog.atom_ids:
        raise ValueError("interpretation contains atoms outside the program")
    return interp | {neg_atom(prog, x) for x in prog.atom_ids - interp}


def decode_as(prog: Program, interp: frozenset[int]) -> frozenset[int]:
    """Project an answer set of the translated program back to base atoms."""
    return interp & prog.atom_ids


# ---------------------------------------------------------------------------
# Verification harness for the answer-set correspondences


def _component(prog: Program, m: frozenset[int], x: int, star: bool) -> Program:
    """Owner-x slice of the translated program's reduct w.r.t. a base guess:
    the reversed rules surviving the reduct, the owner's seed facts when the
    owner is guessed in, and the saturation rules for the starred variant."""
    rules = list(reduct(build_px(prog, x), m).rules)
    if x in m:
        rules.append(Rule.of((copy_atom(prog, x, x),)))
        rules.extend(Rule.of((copy_atom(prog, z, x),)) for z in sorted(prog.atom_ids - m))
    if star:
        rules.extend(_star_rules(prog, x))
    return Program.of(prog.table, rules)


def _seeded_minimal_models(
    prog: Program, m: frozenset[int], star: bool, budget: OracleBudget
) -> list[frozenset[int]]:
    """Minimal models of the union of the seeded owner components (owners in
    the guess).  The components share no atoms, so minimal models are unions
    of per-component minimal models."""
    factor_lists = []
    for x in sorted(m):
        comp = _component(prog, m, x, star)
        factor_lists.append(minimal_models(comp, budget=budget))
    return [frozenset().union(*combo) for combo in product(*factor_lists)]


def _translated_answer_sets(
    prog: Program, translated: Program, star: bool, budget: OracleBudget
) -> set[frozenset[int]]:
    """Answer sets of the translated program, computed per base guess.

    The complement rules force every answer set to decide each base atom one
    way; the reduct then splits into facts plus atom-disjoint owner
    components, so minimality decomposes per owner (components of owners
    guessed out have the empty set as unique minimal model).  Candidates are
    finally filtered by classical satisfaction of the whole translation.
    Cross-validated against brute force on small inputs in the test suite.
    """
    atoms = sorted(prog.atom_ids)
    out: set[frozenset[int]] = set()
    for mask in range(1 << len(atoms)):
        m = mask_to_set(atoms, mask)
        lifted = mp_of(prog, m)
        for n in _seeded_minimal_models(prog, m, star, budget):
            candidate = lifted | n
            if is_model(candidate, translated):
                out.add(candidate)
    return out


def check_trans2(prog: Program, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Verify the answer-set correspondence of the plain translation.

    For every base guess M: M is an answer set of the input exactly when,
    for every minimal model N of the seeded owner components, the lifted
    interpretation plus N is an answer set of the translation.  Additionally
    every answer set of the translation must have that shape.
    """
    translated = translate(prog)
    as_p = set(answer_sets_bf(prog, budget))
    as_q = _translated_answer_sets(prog, translated, star=False, budget=budget)
    atoms = sorted(prog.atom_ids)
    base = prog.atom_ids
    negs = frozenset(neg_atom(prog, x) for x in atoms)

    for mask in range(1 << len(atoms)):
        m = mask_to_set(atoms, mask)
        lifted = mp_of(prog, m)
        members = [
            (lifted | n) in as_q for n in _seeded_minimal_models(prog, m, False, budget)
        ]
        if (m in as_p) != all(members):
            return False

    for a in as_q:
        m = a & base
        if a & (base | negs) != mp_of(prog, m):
            return False
        n = a - base - negs
        if n not in _seeded_minimal_models(prog, m, False, budget):
            return False
    return True


def check_trans3(prog: Program, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Verify the one-to-one answer-set correspondence of the starred
    translation: the answer sets of the starred translation are exactly the
    full saturations of the input's answer sets."""
    starred = translate_star(prog)
    as_p = answer_sets_bf(prog, budget)
    as_q = _translated_answer_sets(prog, starred, star=True, budget=budget)
    atoms = sorted(prog.atom_ids)
    expected = set()
    for m in as_p:
        copies = {copy_atom(prog, y, x) for x in m for y in atoms}
        copies |= {copy_atom(prog, None, x) for x in m}
        expected.add(mp_of(prog, m) | frozenset(copies))
    return as_q == expected
