"""Exhaustive reference semantics: the trusted ground truth.

Everything here enumerates subsets of a declared universe (bitmask counting,
so models come out in subset-lexicographic order) and applies definitions
literally.  These functions exist to validate the fast algorithms, not to
scale; the :class:`OracleBudget` refuses oversized universes.
"""

from __future__ import annotations

from typing import Optional

from .common import DEFAULT_BUDGET, OracleBudget
from .core import Program, ensure_shared, is_model, mask_to_set, split
from .dualhorn import pmm

# Re-exported here because the budget is part of the oracle's contract.
__all__ = [
    "OracleBudget",
    "models",
    "minimal_models",
    "answer_sets_bf",
    "is_answer_set",
    "equivalent_as",
    "strongly_equivalent_bf",
    "uniformly_equivalent_bf",
]


def _compile_masks(prog: Program, atoms: list[int]) -> list[tuple[int, int, int, int]]:
    """Rules as (head|neg, head, pos, neg) masks over the atom order.

    Rules with a positive-body atom outside the universe are satisfied by
    every subset of the universe and are dropped; head/negative atoms outside
    the universe cannot contribute and are masked away.
    """
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    compiled = []
    for r in prog.rules:
        if any(a not in bit for a in r.body_pos):
            continue
        hmask = sum(bit[a] for a in r.head if a in bit)
        pmask = sum(bit[a] for a in r.body_pos)
        nmask = sum(bit[a] for a in r.body_neg if a in bit)
        compiled.append((hmask | nmask, hmask, pmask, nmask))
    return compiled


def _mask_models(compiled, nbits: int) -> list[int]:
    out = []
    for m in range(1 << nbits):
        if all(hn & m or p & ~m for hn, _, p, _ in compiled):
            out.append(m)
    return out


def _satisfies_reduct(compiled, m_for_reduct: int, candidate: int) -> bool:
    """candidate satisfies the reduct taken w.r.t. m_for_reduct."""
    for _, h, p, n in compiled:
        if n & m_for_reduct:
            continue
        if h & candidate or p & ~candidate:
            continue
        return False
    return True


def _universe_list(prog: Program, universe: Optional[frozenset[int]]) -> list[int]:
    return sorted(prog.atom_ids if universe is None else universe)


def models(
    prog: Program,
    universe: Optional[frozenset[int]] = None,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> list[frozenset[int]]:
    """All classical models within the universe, in subset-lex order."""
    atoms = _universe_list(prog, universe)
    budget.check(len(atoms), "model enumeration")
    compiled = _compile_masks(prog, atoms)
    return [mask_to_set(atoms, m) for m in _mask_models(compiled, len(atoms))]


def minimal_models(
    prog: Program,
    universe: Optional[frozenset[int]] = None,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> list[frozenset[int]]:
    """Inclusion-minimal classical models."""
    atoms = _universe_list(prog, universe)
    budget.check(len(atoms), "minimal-model enumeration")
    all_masks = _mask_models(_compile_masks(prog, atoms), len(atoms))
    minimal = [
        m for m in all_masks if not any(o != m and o & m == o for o in all_masks)
    ]
    return [mask_to_set(atoms, m) for m in minimal]


def answer_sets_bf(
    prog: Program,
    budget: OracleBudget = DEFAULT_BUDGET,
    _check_decomposition: bool = True,
) -> list[frozenset[int]]:
    """All answer sets, by definition: M a minimal model of the reduct P^M.

    Also asserts the split characterization (answer sets = answer sets of the
    proper part that satisfy the constraints) whenever constraints exist.
    """
    atoms = sorted(prog.atom_ids)
    budget.check(len(atoms), "answer-set enumeration")
    compiled = _compile_masks(prog, atoms)
    result_masks = []
    for m in range(1 << len(atoms)):
        if not all(hn & m or p & ~m for hn, _, p, _ in compiled):
            continue
        # minimality of m over the reduct w.r.t. m: no proper subset models it
        minimal = True
        if m:
            sub = (m - 1) & m
            while True:
                if _satisfies_reduct(compiled, m, sub):
                    minimal = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & m
        if minimal:
            result_masks.append(m)
    result = [mask_to_set(atoms, m) for m in result_masks]

    if _check_decomposition:
        proper, constraints = split(prog)
        if constraints.rules:
            via_split = [
                m
                for m in answer_sets_bf(proper, budget, _check_decomposition=False)
                if is_model(m, constraints)
            ]
            assert set(via_split) == set(result), "split characterization violated"
    return result


def is_answer_set(
    prog: Program, interp: frozenset[int], budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Answer-set membership via minimality witnesses: M is an answer set iff
    M is a model and every pmm(P, M, m) is unsatisfiable."""
    if not interp <= prog.atom_ids:
        raise ValueError("interpretation contains atoms outside the program")
    if not is_model(interp, prog):
        return False
    return all(
        not models(pmm(prog, interp, m), universe=prog.atom_ids, budget=budget)
        for m in sorted(interp)
    )


def equivalent_as(
    p: Program, q: Program, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Same answer sets (answer sets never contain foreign atoms, so the
    joint universe needs no special handling here)."""
    p, q = ensure_shared(p, q)
    return set(answer_sets_bf(p, budget)) == set(answer_sets_bf(q, budget))


def _joint_model_sets_agree(p: Program, q: Program, budget: OracleBudget, uniform: bool) -> bool:
    """SE-model (with ``uniform``, UE-model) sets over the joint universe coincide."""
    from .seue import se_models, ue_models

    p, q = ensure_shared(p, q)
    joint = p.atom_ids | q.atom_ids
    sp = se_models(p, universe=joint, budget=budget)
    sq = se_models(q, universe=joint, budget=budget)
    if uniform:
        sp, sq = ue_models(sp), ue_models(sq)
    return sp.pairs == sq.pairs


def strongly_equivalent_bf(
    p: Program, q: Program, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """SE-model sets over the joint universe coincide."""
    return _joint_model_sets_agree(p, q, budget, uniform=False)


def uniformly_equivalent_bf(
    p: Program, q: Program, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """UE-model sets over the joint universe coincide."""
    return _joint_model_sets_agree(p, q, budget, uniform=True)
