"""Exhaustive reference semantics: the trusted ground truth.

Everything here enumerates subsets of a declared universe (bitmask counting,
so models come out in subset-lexicographic order) and applies definitions
literally.  These functions exist to validate the fast algorithms, not to
scale; the :class:`OracleBudget` refuses oversized universes.
"""

from __future__ import annotations

from typing import Optional

from .common import DEFAULT_BUDGET, OracleBudget
from .core import Program, compile_masks, ensure_shared, is_model, mask_to_set, satisfies_reduct
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


def _mask_models(compiled, nbits: int) -> list[int]:
    return [m for m in range(1 << nbits) if satisfies_reduct(compiled, m, m)]


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
    compiled = compile_masks(prog, atoms)
    return [mask_to_set(atoms, m) for m in _mask_models(compiled, len(atoms))]


def minimal_models(
    prog: Program,
    universe: Optional[frozenset[int]] = None,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> list[frozenset[int]]:
    """Inclusion-minimal classical models."""
    atoms = _universe_list(prog, universe)
    budget.check(len(atoms), "minimal-model enumeration")
    all_masks = _mask_models(compile_masks(prog, atoms), len(atoms))
    minimal = [
        m for m in all_masks if not any(o != m and o & m == o for o in all_masks)
    ]
    return [mask_to_set(atoms, m) for m in minimal]


def answer_sets_bf(
    prog: Program,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> list[frozenset[int]]:
    """All answer sets, by definition: M a minimal model of the reduct P^M."""
    atoms = sorted(prog.atom_ids)
    budget.check(len(atoms), "answer-set enumeration")
    compiled = compile_masks(prog, atoms)
    result = []
    for m in range(1 << len(atoms)):
        if not satisfies_reduct(compiled, m, m):
            continue
        # minimality of m over the reduct w.r.t. m: no proper subset models it
        minimal = True
        if m:
            sub = (m - 1) & m
            while True:
                if satisfies_reduct(compiled, m, sub):
                    minimal = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & m
        if minimal:
            result.append(mask_to_set(atoms, m))
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
