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

Each translation makes its generated atoms once, through :func:`neg_atom`
and :func:`copy_atom`, in this order: the complements by atom; then for
each owner x its own copy ``__c_<x>_<x>`` and the copies of the other
atoms ascending; then the t-copies by owner.  The copies go into one map
per owner (y -> copy, None -> t-copy), which the seeding, reversal,
final-constraint and saturation rules read.  :func:`build_px` runs the same
reversal on a map that makes a copy on its first read, so alone it
interns only the copies its rules hold.

The plain translation preserves head-cycle/body-cycle structure (it swaps
the two) and tightness; the starred variant adds saturation rules
``y_x <- t_x`` to make the answer-set correspondence one-to-one, at the
price of new cycles.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional

from .common import DEFAULT_BUDGET, OracleBudget
from .core import AtomTable, Program, Rule, is_model, mask_to_set, reduct, remap
from .oracle import answer_sets_bf, minimal_models


def neg_atom(prog: Program, x: int) -> int:
    """The complement atom for x, stable per table and input atom set, so
    that it is never an atom of the input itself."""
    name = prog.table.name_of(x)
    return prog.table.generated(("neg", x, prog.atom_ids), f"__n_{name}")


def copy_atom(prog: Program, y: Optional[int], x: int) -> int:
    """The copy of atom y owned by x; y=None is the copy of the padding atom."""
    xname = prog.table.name_of(x)
    if y is None:
        return prog.table.generated(("copy_t", x, prog.atom_ids), f"__c_t_{xname}")
    return prog.table.generated(("copy", y, x, prog.atom_ids), f"__c_{prog.table.name_of(y)}_{xname}")


class _Copies(dict):
    """The copies owned by one atom x: y -> the copy of y, None -> the
    t-copy.  A copy missing from the map is made through :func:`copy_atom`
    when it is first read, so a map interns only the copies read from it."""

    __slots__ = ("prog", "x")

    def __init__(self, prog: Program, x: int) -> None:
        self.prog, self.x = prog, x

    def __missing__(self, y: Optional[int]) -> int:
        self[y] = aid = copy_atom(self.prog, y, self.x)
        return aid


def _atom_maps(prog: Program) -> tuple[dict[int, int], dict[int, _Copies]]:
    """The complement of each atom and the copy map of each owner, every
    generated atom of the translation made once, in this order: the
    complements by atom; for each owner, its own copy, then the copies of
    the other atoms ascending; then the t-copies by owner."""
    atoms = sorted(prog.atom_ids)
    neg = {x: neg_atom(prog, x) for x in atoms}
    copies = {x: _Copies(prog, x) for x in atoms}
    # reading a copy makes it
    for x, own in copies.items():
        for y in (x, *atoms):
            own[y]
    for own in copies.values():
        own[None]
    return neg, copies


def _reversal(prog: Program, own: _Copies) -> list[Rule]:
    """The reversal of the proper rules for the owner of the copy map
    ``own``: a rule H <- B+, not B- becomes copy(B+) <- copy(H), not B-,
    with copy(B+) the t-copy when B+ is empty."""
    return [
        Rule.of([own[b] for b in r.body_pos] if r.body_pos else [own[None]], [own[h] for h in r.head], r.body_neg)
        for r in prog.rules
        if r.head
    ]


def build_px(prog: Program, x: int) -> Program:
    """The owner-x reversal of the proper rules (after body padding): a rule
    H <- B+, not B- becomes copy(B+) <- copy(H), not B-.  It interns only
    the copies its rules hold."""
    if x not in prog.atom_ids:
        raise ValueError(f"atom {prog.table.describe(x)} does not occur in the program")
    return Program.of(prog.table, _reversal(prog, _Copies(prog, x)))


def _xor_rules(neg: dict[int, int]) -> list[Rule]:
    rules = []
    for x, nx in neg.items():
        rules.append(Rule.of((x,), (), (nx,)))
        rules.append(Rule.of((nx,), (), (x,)))
    return rules


def _aux_rules(neg: dict[int, int], copies: dict[int, _Copies]) -> list[Rule]:
    rules = []
    for x, nx in neg.items():
        own = copies[x]
        rules.append(Rule.of((own[x],), (), (nx,)))
        for y in neg:
            rules.append(Rule.of((own[y],), (), (nx, y)))
    return rules


def _mod_rules(prog: Program) -> list[Rule]:
    return [
        Rule.of((), r.body_pos, set(r.head) | set(r.body_neg)) for r in prog.rules
    ]


def _true_rules(copies: dict[int, _Copies]) -> list[Rule]:
    return [Rule.of((), (x,), (own[None],)) for x, own in copies.items()]


def _star_rules(own: _Copies, atoms: list[int]) -> list[Rule]:
    tx = own[None]
    return [Rule.of((own[y],), (tx,)) for y in atoms]


def _translate(prog: Program) -> tuple[list[Rule], dict[int, _Copies]]:
    """The rules of the plain translation, and the copy maps it made."""
    neg, copies = _atom_maps(prog)
    rules = _xor_rules(neg) + _aux_rules(neg, copies)
    for own in copies.values():
        rules.extend(_reversal(prog, own))
    rules.extend(_mod_rules(prog))
    rules.extend(_true_rules(copies))
    return rules, copies


def translate(prog: Program) -> Program:
    """The head/body-swapping translation (guess, reverse, re-check)."""
    return Program.of(prog.table, _translate(prog)[0])


def translate_star(prog: Program) -> Program:
    """The translation with saturation rules, giving an answer-set bijection."""
    rules, copies = _translate(prog)
    atoms = sorted(prog.atom_ids)
    for own in copies.values():
        rules.extend(_star_rules(own, atoms))
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


def _component(prog: Program, atoms: list[int], px: Program, own: _Copies, m: frozenset[int], star: bool) -> Program:
    """Owner-x slice of the translated program's reduct w.r.t. a base guess,
    for the owner x of the copy map ``own``: the reversed rules ``px``
    surviving the reduct, the owner's seed facts when the owner is guessed
    in, and the saturation rules for the starred variant."""
    rules = list(reduct(px, m).rules)
    if own.x in m:
        rules.append(Rule.of((own[own.x],)))
        rules.extend(Rule.of((own[z],)) for z in atoms if z not in m)
    if star:
        rules.extend(_star_rules(own, atoms))
    return Program.of(prog.table, rules)


def _seeded_minimal_models(
    prog: Program, star: bool, budget: OracleBudget
) -> Iterator[tuple[frozenset[int], list[frozenset[int]]]]:
    """Every base guess M with the minimal models N of the union of the
    seeded owner components (owners in M), each a union of per-component
    minimal models since the components share no atoms.

    The complement rules force an answer set of the translation to decide
    each base atom, so it is ``mp_of(M) | N`` for a guess M and copy atoms
    N.  Its reduct is the facts of ``mp_of(M)`` plus the owner components,
    so it is an answer set exactly when N is one of these minimal models
    and the whole is a classical model of the translation."""
    atoms = sorted(prog.atom_ids)
    copies = {x: _Copies(prog, x) for x in atoms}
    reversals = {x: Program.of(prog.table, _reversal(prog, own)) for x, own in copies.items()}
    for mask in range(1 << len(atoms)):
        m = mask_to_set(atoms, mask)
        factor_lists = [
            minimal_models(_component(prog, atoms, reversals[x], copies[x], m, star), budget=budget)
            for x in sorted(m)
        ]
        yield m, [frozenset().union(*combo) for combo in product(*factor_lists)]


def check_trans2(prog: Program, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Verify the answer-set correspondence of the plain translation.

    For every base guess M: M is an answer set of the input exactly when,
    for every minimal model N of the seeded owner components, the lifted
    interpretation plus N is an answer set of the translation, that is, a
    classical model of it (see :func:`_seeded_minimal_models`).  The check
    runs on a copy over a new table and leaves the caller's table as is, so
    no copy atom can coincide with a base or complement atom."""
    prog = remap(prog, AtomTable())
    translated = translate(prog)
    as_p = set(answer_sets_bf(prog, budget))
    for m, models in _seeded_minimal_models(prog, False, budget):
        lifted = mp_of(prog, m)
        if (m in as_p) != all(is_model(lifted | n, translated) for n in models):
            return False
    return True


def check_trans3(prog: Program, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Verify the one-to-one answer-set correspondence of the starred
    translation: its answer sets are exactly the full saturations of the
    input's answer sets.  So over each guess M, the N of
    :func:`_seeded_minimal_models` with ``mp_of(M) | N`` a classical model
    must be the saturation of M when M is an answer set, and none otherwise.
    Runs on a copy, like :func:`check_trans2`."""
    prog = remap(prog, AtomTable())
    starred = translate_star(prog)
    copied = [*sorted(prog.atom_ids), None]
    expected = {
        m: {frozenset(copy_atom(prog, y, x) for x in m for y in copied)}
        for m in answer_sets_bf(prog, budget)
    }
    for m, models in _seeded_minimal_models(prog, True, budget):
        lifted = mp_of(prog, m)
        if {n for n in models if is_model(lifted | n, starred)} != expected.get(m, set()):
            return False
    return True
