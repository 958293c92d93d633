"""Syntactic program classes and the positive dependency digraph.

The head-cycle-free (HCF) and body-cycle-free (BCF) tests reduce the cycle
condition to strongly connected components: a program fails HCF exactly when
two distinct head atoms of one rule share an SCC of the positive dependency
digraph, and fails BCF when two distinct positive-body atoms of one proper
rule do.

BCF deliberately ignores constraint bodies.  Including them would make some
dual-normal programs non-BCF (take ``:- a, b.  a :- b.  b :- a.``), while
dual-normal programs must all be body-cycle free; the stricter reading is
available via ``include_constraints=True`` for sensitivity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

from .core import Program


@dataclass(frozen=True)
class ClassLabels:
    horn: bool
    dual_horn: bool
    normal: bool
    dual_normal: bool
    singular: bool
    positive: bool
    definite: bool
    constraint_free: bool
    hcf: bool
    bcf: bool
    tight: bool

    def to_dict(self) -> dict[str, bool]:
        return asdict(self)


@dataclass(frozen=True)
class DepGraph:
    """Positive dependency digraph: edge (x, y) when some rule has x in the
    head and y in the positive body."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def successors(self) -> dict[int, list[int]]:
        succ: dict[int, list[int]] = {v: [] for v in self.vertices}
        for x, y in self.edges:
            succ[x].append(y)
        return succ


def dep_graph(prog: Program) -> DepGraph:
    edges = set()
    for r in prog.rules:
        for x in r.head:
            for y in r.body_pos:
                edges.add((x, y))
    return DepGraph(tuple(sorted(prog.atom_ids)), tuple(sorted(edges)))


def sccs(graph: DepGraph) -> list[tuple[int, ...]]:
    """Strongly connected components (iterative Tarjan), deterministic order."""
    succ = graph.successors()
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    components: list[tuple[int, ...]] = []

    for root in graph.vertices:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp)))
    return components


def _scc_ids(prog: Program) -> dict[int, int]:
    ids: dict[int, int] = {}
    for k, comp in enumerate(sccs(dep_graph(prog))):
        for v in comp:
            ids[v] = k
    return ids


def _two_in_one_scc(atoms: tuple[int, ...], scc_id: dict[int, int]) -> bool:
    seen: set[int] = set()
    for a in atoms:
        k = scc_id[a]
        if k in seen:
            return True
        seen.add(k)
    return False


def is_hcf(prog: Program) -> bool:
    """Head-cycle free: no rule has two distinct head atoms in one SCC."""
    scc_id = _scc_ids(prog)
    return not any(_two_in_one_scc(r.head, scc_id) for r in prog.rules if len(r.head) > 1)


def is_bcf(prog: Program, include_constraints: bool = False) -> bool:
    """Body-cycle free: no (proper) rule has two distinct positive-body atoms
    in one SCC.  See the module docstring for the constraint-body choice."""
    scc_id = _scc_ids(prog)
    return not any(
        _two_in_one_scc(r.body_pos, scc_id)
        for r in prog.rules
        if len(r.body_pos) > 1 and (include_constraints or r.head)
    )


def is_tight(prog: Program) -> bool:
    """True when the positive dependency digraph is acyclic."""
    graph = dep_graph(prog)
    loops = {x for x, y in graph.edges if x == y}
    if loops:
        return False
    return all(len(c) == 1 for c in sccs(graph))


def classify_labels(prog: Program) -> ClassLabels:
    """Evaluate all class flags for the program.

    A program is dual-normal when every rule is a constraint or has at most
    one positive body atom; dual-Horn additionally forbids negative bodies
    and restricts constraints to at most one body atom (so a multi-atom
    constraint breaks dual-Horn but not dual-normal).
    """
    rules = prog.rules
    normal = all(r.is_normal for r in rules)
    positive = all(r.is_positive for r in rules)
    dual_normal = all(r.is_dual_normal for r in rules)
    dual_horn = all(r.is_dual_horn for r in rules)
    return ClassLabels(
        horn=normal and positive,
        dual_horn=dual_horn,
        normal=normal,
        dual_normal=dual_normal,
        singular=normal and dual_normal,
        positive=positive,
        definite=all(r.is_definite for r in rules),
        constraint_free=all(not r.is_constraint for r in rules),
        hcf=is_hcf(prog),
        bcf=is_bcf(prog),
        tight=is_tight(prog),
    )
