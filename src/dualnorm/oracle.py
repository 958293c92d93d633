"""Exhaustive reference semantics: the trusted ground truth.

Everything here applies the definitions to every subset of a declared
universe at once, on the truth tables of ``core.TruthTables`` (k * 2^k
bits of atom tables, kept once per size up to 20 atoms and some 11 MB at
the default 22-atom budget, plus 2^(k+1) bits per rule with a negative
body), so models come out in subset-lexicographic order.
``minimal_models`` drops the models with a proper subset among the models:
the strict up-closure of their table along the subset lattice.
``answer_sets_bf`` drops, for all M at once, each model M with an atom a
such that M - {a} models P^M, and tests each model left on the same
tables: M is an answer set when no submask of M but M itself escapes the
rejections of P^M.  ``is_answer_set`` builds the tables over the universe
M, where the rules whose negative body meets M drop out and the rest are
P^M, and asks whether P^M has a model in M but M.  Nothing here imports
the engines it checks.  These functions exist to validate the fast
algorithms, not to scale; the :class:`OracleBudget` refuses oversized
universes.
"""

from __future__ import annotations

from typing import Optional

from .common import DEFAULT_BUDGET, OracleBudget
from .core import Program, TruthTables, ensure_shared, mask_to_set, submask_table, table_masks

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


def models(
    prog: Program,
    universe: Optional[frozenset[int]] = None,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> list[frozenset[int]]:
    """All classical models within the universe, in subset-lex order."""
    kernel = TruthTables.over(prog, universe, budget, "model enumeration")
    return [mask_to_set(kernel.atoms, m) for m in table_masks(kernel.models())]


def minimal_models(
    prog: Program,
    universe: Optional[frozenset[int]] = None,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> list[frozenset[int]]:
    """Inclusion-minimal classical models."""
    kernel = TruthTables.over(prog, universe, budget, "minimal-model enumeration")
    found, every = kernel.models(), range(kernel.m)
    above = kernel.strictly_above(kernel.up(found, every), every)
    return [mask_to_set(kernel.atoms, m) for m in table_masks(found & ~above)]


def _is_answer(prog: Program, interp: frozenset[int]) -> bool:
    """The kernel over the universe M = ``interp``, whose ``unblocked``
    rules are P^M: M is an answer set when P^M has no model in M but M
    itself."""
    kernel = TruthTables(prog, sorted(interp))
    return kernel.full ^ kernel.unblocked == kernel.full ^ kernel.full >> 1


def answer_sets_bf(
    prog: Program,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> list[frozenset[int]]:
    """All answer sets, by definition: M a minimal model of the reduct P^M.
    The models with no one-atom-smaller subset modelling P^M are found for
    all M at once, and each is then tested on the same tables: no subset of
    M but M itself escapes what P^M rejects."""
    kernel = TruthTables.over(prog, None, budget, "answer-set enumeration")
    candidates = table_masks(kernel.locally_minimal(kernel.models()))
    return [
        mask_to_set(kernel.atoms, c)
        for c in candidates
        if submask_table(c) & ~kernel.rejections(c) == 1 << c
    ]


def is_answer_set(
    prog: Program, interp: frozenset[int], budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Answer-set membership by definition over the universe M: M is a model
    of P and no proper subset of M models P^M.  The budget bounds |M|."""
    if not interp <= prog.atom_ids:
        raise ValueError("interpretation contains atoms outside the program")
    budget.check(len(interp), "answer-set check")
    return _is_answer(prog, interp)


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
    return sp == sq


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
