"""Exhaustive reference semantics: the trusted ground truth.

Everything here applies the definitions to every subset of a declared
universe at once, on the truth tables of ``core.TruthTables`` (k * 2^k
bits of atom tables, kept once per size up to 20 atoms and some 11 MB at
the default 22-atom budget, plus 2^(k+1) bits per distinct negative body,
whose rules the reduct keeps or drops together), so models come out in
subset-lexicographic order.
``minimal_models`` drops the models with a proper subset among the models:
the strict up-closure of their table along the subset lattice.
Both answer-set functions ask the kernel's one reduct question,
``TruthTables.row``: M is an answer set when the submasks of M that model
P^M are M alone.  ``answer_sets_bf`` first drops, for all M at once, each
model M with an atom a such that M - {a} models P^M, and asks the rest;
``is_answer_set`` builds the tables over the universe M and asks of the
mask of all its atoms.  The model and answer-set functions import none of
the engines they check; the two equivalence checks do not stand apart
from ``seue``: ``strongly_equivalent_bf`` compares the SE-sets of
``seue.se_models``, and ``uniformly_equivalent_bf`` filters them with the
grid of ``seue.ue_models``.  These functions exist to validate the fast
algorithms, not to scale; the :class:`OracleBudget` refuses oversized
universes.
"""

from __future__ import annotations

from typing import Optional

from .common import DEFAULT_BUDGET, OracleBudget
from .core import Program, TruthTables, ensure_shared, mask_to_set, table_masks

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


def answer_sets_bf(
    prog: Program,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> list[frozenset[int]]:
    """All answer sets, by definition: M a minimal model of the reduct P^M.
    The models with no one-atom-smaller subset modelling P^M are found for
    all M at once, and each is kept when its row (``TruthTables.row``) is M
    alone."""
    kernel = TruthTables.over(prog, None, budget, "answer-set enumeration")
    candidates = table_masks(kernel.locally_minimal(kernel.models()))
    return [mask_to_set(kernel.atoms, c) for c in candidates if kernel.row(c) == 1 << c]


def is_answer_set(
    prog: Program, interp: frozenset[int], budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Answer-set membership by definition over the universe M: M is a model
    of P and no proper subset of M models P^M: the row of the mask of all of
    M is that mask alone.  The budget bounds |M|."""
    if not interp <= prog.atom_ids:
        raise ValueError("interpretation contains atoms outside the program")
    kernel = TruthTables.over(prog, interp, budget, "answer-set check")
    every = (1 << kernel.m) - 1
    return kernel.row(every) == 1 << every


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
