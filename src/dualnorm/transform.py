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
atoms ascending; then the t-copies by owner.  The copies go into one plain
map per owner (y -> copy, None -> t-copy), which the seeding, reversal,
final-constraint and saturation rules and the check harness read.  The
reversal takes a function from atom to copy: the translation passes a map's
lookup, and :func:`build_px` passes :func:`copy_atom` itself, so alone it
interns only the copies its rules hold, in the order its rules read them.

The plain translation preserves head-cycle/body-cycle structure (it swaps
the two) and tightness; the starred variant adds saturation rules
``y_x <- t_x`` to make the answer-set correspondence one-to-one, at the
price of new cycles.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator, Optional

from .common import DEFAULT_BUDGET, OracleBudget
from .core import AtomTable, Program, Rule, is_model, mask_to_set, reduct, remap
from .oracle import answer_sets_bf, minimal_models


def _require_atom(prog: Program, aid: int) -> None:
    """Reject an id that is no atom of the program, before anything is interned."""
    if aid not in prog.atom_ids:
        raise ValueError(f"atom {prog.table.describe(aid)} does not occur in the program")


def neg_atom(prog: Program, x: int) -> int:
    """The complement atom for x, stable per table and input atom set, so
    that it is never an atom of the input itself."""
    _require_atom(prog, x)
    name = prog.table.name_of(x)
    return prog.table.generated(("neg", x, prog.atom_ids), f"__n_{name}")


def copy_atom(prog: Program, y: Optional[int], x: int) -> int:
    """The copy of atom y owned by x; y=None is the copy of the padding atom."""
    _require_atom(prog, x)
    xname = prog.table.name_of(x)
    if y is None:
        return prog.table.generated(("copy_t", x, prog.atom_ids), f"__c_t_{xname}")
    _require_atom(prog, y)
    return prog.table.generated(("copy", y, x, prog.atom_ids), f"__c_{prog.table.name_of(y)}_{xname}")


# One owner's copies: y -> the copy of y, None -> the t-copy.
_CopyMap = dict[Optional[int], int]


def _atom_maps(prog: Program) -> tuple[dict[int, int], dict[int, _CopyMap]]:
    """The complement of each atom and the copy map of each owner, every
    generated atom of the translation made once, in this order: the
    complements by atom; for each owner, its own copy, then the copies of
    the other atoms ascending; then the t-copies by owner."""
    atoms = sorted(prog.atom_ids)
    neg = {x: neg_atom(prog, x) for x in atoms}
    copies = {x: {y: copy_atom(prog, y, x) for y in (x, *atoms)} for x in atoms}
    for x, own in copies.items():
        own[None] = copy_atom(prog, None, x)
    return neg, copies


def _reversal(prog: Program, copy: Callable[[Optional[int]], int]) -> list[Rule]:
    """The reversal of the proper rules under ``copy``, which maps an atom
    to its copy and None to the t-copy: a rule H <- B+, not B- becomes
    copy(B+) <- copy(H), not B-, with copy(B+) the t-copy when B+ is empty."""
    return [
        Rule.of([copy(b) for b in r.body_pos] if r.body_pos else [copy(None)], [copy(h) for h in r.head], r.body_neg)
        for r in prog.rules
        if r.head
    ]


def build_px(prog: Program, x: int) -> Program:
    """The owner-x reversal of the proper rules (after body padding): a rule
    H <- B+, not B- becomes copy(B+) <- copy(H), not B-.  It interns only
    the copies its rules hold."""
    _require_atom(prog, x)
    return Program.of(prog.table, _reversal(prog, lambda y: copy_atom(prog, y, x)))


def _xor_rules(neg: dict[int, int]) -> list[Rule]:
    rules = []
    for x, nx in neg.items():
        rules.append(Rule.of((x,), (), (nx,)))
        rules.append(Rule.of((nx,), (), (x,)))
    return rules


def _aux_rules(neg: dict[int, int], copies: dict[int, _CopyMap]) -> list[Rule]:
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


def _true_rules(copies: dict[int, _CopyMap]) -> list[Rule]:
    return [Rule.of((), (x,), (own[None],)) for x, own in copies.items()]


def _star_rules(own: _CopyMap, atoms: list[int]) -> list[Rule]:
    tx = own[None]
    return [Rule.of((own[y],), (tx,)) for y in atoms]


def _translate(prog: Program, star: bool) -> tuple[Program, dict[int, _CopyMap]]:
    """The translation (with ``star``, the starred one) and the copy maps it made."""
    neg, copies = _atom_maps(prog)
    rules = _xor_rules(neg) + _aux_rules(neg, copies)
    for own in copies.values():
        rules.extend(_reversal(prog, own.__getitem__))
    rules.extend(_mod_rules(prog))
    rules.extend(_true_rules(copies))
    if star:
        for own in copies.values():
            rules.extend(_star_rules(own, list(neg)))
    return Program.of(prog.table, rules), copies


def translate(prog: Program) -> Program:
    """The head/body-swapping translation (guess, reverse, re-check)."""
    return _translate(prog, False)[0]


def translate_star(prog: Program) -> Program:
    """The translation with saturation rules, giving an answer-set bijection."""
    return _translate(prog, True)[0]


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


def _component(
    prog: Program, atoms: list[int], px: Program, x: int, own: _CopyMap, m: frozenset[int], star: bool
) -> Program:
    """Owner-x slice of the translated program's reduct w.r.t. a base guess
    M that holds x, with ``own`` the owner's copy map: the reversed rules
    ``px`` surviving the reduct, the owner's seed facts, and the saturation
    rules for the starred variant."""
    rules = list(reduct(px, m).rules)
    rules.append(Rule.of((own[x],)))
    rules.extend(Rule.of((own[z],)) for z in atoms if z not in m)
    if star:
        rules.extend(_star_rules(own, atoms))
    return Program.of(prog.table, rules)


def _seeded_minimal_models(
    prog: Program, copies: dict[int, _CopyMap], star: bool, budget: OracleBudget
) -> Iterator[tuple[frozenset[int], list[frozenset[int]]]]:
    """Every base guess M with the minimal models N of the union of the
    seeded owner components (owners in M), each a union of per-component
    minimal models since the components share no atoms; ``copies`` are the
    translation's copy maps.

    The complement rules force an answer set of the translation to decide
    each base atom, so it is ``mp_of(M) | N`` for a guess M and copy atoms
    N.  Its reduct is the facts of ``mp_of(M)`` plus the owner components,
    so it is an answer set exactly when N is one of these minimal models
    and the whole is a classical model of the translation."""
    atoms = sorted(prog.atom_ids)
    reversals = {x: Program.of(prog.table, _reversal(prog, own.__getitem__)) for x, own in copies.items()}
    for mask in range(1 << len(atoms)):
        m = mask_to_set(atoms, mask)
        factor_lists = [
            minimal_models(_component(prog, atoms, reversals[x], x, copies[x], m, star), budget=budget)
            for x in sorted(m)
        ]
        yield m, [frozenset().union(*combo) for combo in product(*factor_lists)]


def _check(prog: Program, star: bool, budget: OracleBudget) -> bool:
    """Verify the answer-set correspondence of the plain translation or,
    with ``star``, the starred one.  Over each base guess M, the answer sets
    of the translation are the ``mp_of(M) | N``, for the N of
    :func:`_seeded_minimal_models`, that are classical models of it (the
    held N).  Plain: M is an answer set of the input exactly when every N
    is held.  Starred: the held N are the saturation of M, every copy of
    its owners, when M is an answer set, and none otherwise.  The check
    runs on a copy over a new table and leaves the caller's table as is, so
    no copy atom can coincide with a base or complement atom."""
    prog = remap(prog, AtomTable())
    translated, copies = _translate(prog, star)
    answer_sets = set(answer_sets_bf(prog, budget))
    for m, models in _seeded_minimal_models(prog, copies, star, budget):
        lifted = mp_of(prog, m)
        held = [n for n in models if is_model(lifted | n, translated)]
        if star:
            saturated = [frozenset().union(*(copies[x].values() for x in m))] if m in answer_sets else []
            if held != saturated:
                return False
        elif (m in answer_sets) != (len(held) == len(models)):
            return False
    return True


def check_trans2(prog: Program, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Verify the answer-set correspondence of the plain translation: M is
    an answer set of the input exactly when every lift of M by a seeded
    minimal model is an answer set of the translation (see :func:`_check`)."""
    return _check(prog, False, budget)


def check_trans3(prog: Program, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Verify the one-to-one answer-set correspondence of the starred
    translation: its answer sets are exactly the full saturations of the
    input's answer sets (see :func:`_check`)."""
    return _check(prog, True, budget)
