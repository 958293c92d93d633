"""Syntactic program classes and the positive dependency digraph.

:func:`classify_labels` reads every rule once.  The class flags come from
each rule's field lengths, and the same pass builds the successor lists of
the positive dependency digraph (``x -> y`` when a rule has x in its head
and y in its positive body) from the rules that have both.  One SCC run
(:func:`sccs`) then finds the components of more than one atom; an atom
alone in its component gets no id.

The head-cycle-free (HCF) and body-cycle-free (BCF) tests reduce the cycle
condition to those components, and each check reads only the rules where it
can fail: a program fails HCF exactly when two distinct head atoms of one
rule with two or more head atoms share a component, and fails BCF when two
distinct positive-body atoms of one proper rule with two or more of them
do.  It is tight exactly when no rule has a head atom and a positive-body
atom in one SCC: when some component has more than one atom, or when a rule
with a head and a positive body shares an atom between them (the self-loop
``a :- a.``).

BCF deliberately ignores constraint bodies.  Including them would make some
dual-normal programs non-BCF (take ``:- a, b.  a :- b.  b :- a.``), while
dual-normal programs must all be body-cycle free.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Sequence

from .core import Program, Rule


class ClassLabels(NamedTuple):
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
        return self._asdict()


class DepGraph(NamedTuple):
    """Positive dependency digraph: edge (x, y) when some rule has x in the
    head and y in the positive body."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def dep_graph(prog: Program) -> DepGraph:
    edges = set()
    for r in prog.rules:
        for x in r.head:
            for y in r.body_pos:
                edges.add((x, y))
    return DepGraph(tuple(sorted(prog.atom_ids)), tuple(sorted(edges)))


def sccs(succ: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The strongly connected components of more than one atom (iterative
    Tarjan), deterministic order.

    ``succ`` holds successor lists indexed by atom id (empty for an atom
    without successors).  Each component is sorted; components come in the
    order Tarjan's search completes them, roots taken in ascending order.
    """
    n = len(succ)
    # Flat per-atom arrays: visit order from 1 (0 unvisited, ``done`` once
    # the atom is in a component), lowest reachable visit order, and the
    # position of the next successor to read.
    index = [0] * n
    low = [0] * n
    following = [0] * n
    done = n + 1
    stack: list[int] = []  # ascending visit order, so a component is a suffix
    components: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        # an atom without successors is a component alone: it is never visited
        if index[root] or not succ[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        path = [root]
        while path:
            v = path[-1]
            targets = succ[v]
            i = following[v]
            while i < len(targets):
                w = targets[i]
                i += 1
                iw = index[w]
                if not iw:
                    if succ[w]:
                        following[v] = i
                        counter += 1
                        index[w] = low[w] = counter
                        stack.append(w)
                        path.append(w)
                        break
                elif iw < low[v]:
                    low[v] = iw
            else:
                path.pop()
                lv = low[v]
                if path and lv < low[path[-1]]:
                    low[path[-1]] = lv
                if lv == index[v]:
                    k = bisect_left(stack, lv, key=index.__getitem__)
                    comp = stack[k:]
                    del stack[k:]
                    for w in comp:
                        index[w] = done
                    if len(comp) > 1:
                        components.append(tuple(sorted(comp)))
    return components


def _apart(groups: list[tuple[int, ...]], component: list[int]) -> bool:
    """No group has two atoms in one component; ``component[a]`` is 0 when
    a is alone in its own."""
    for atoms in groups:
        ids = [c for c in map(component.__getitem__, atoms) if c]
        if len(set(ids)) < len(ids):
            return False
    return True


def _cycle_free(
    succ: list[Sequence[int]],
    multi_head: list[tuple[int, ...]],
    multi_body: list[tuple[int, ...]],
    linked: list[Rule],
) -> tuple[bool, bool, bool]:
    """(hcf, bcf, tight) from one SCC run over the successor lists; see the
    module docstring.  ``multi_head`` and ``multi_body`` are the heads and
    positive bodies the HCF and BCF checks read, ``linked`` the rules with a
    head and a positive body."""
    comps = sccs(succ)
    if not comps:
        return True, True, not any(x in pos for head, pos, _ in linked for x in head)
    component = [0] * len(succ)
    for k, comp in enumerate(comps, 1):
        for v in comp:
            component[v] = k
    return _apart(multi_head, component), _apart(multi_body, component), False


def is_hcf(prog: Program) -> bool:
    """Head-cycle free: no rule has two distinct head atoms in one SCC."""
    return classify_labels(prog).hcf


def is_bcf(prog: Program) -> bool:
    """Body-cycle free: no proper rule has two distinct positive-body atoms
    in one SCC.  See the module docstring for the constraint-body choice."""
    return classify_labels(prog).bcf


def is_tight(prog: Program) -> bool:
    """True when the positive dependency digraph is acyclic."""
    return classify_labels(prog).tight


def classify_labels(prog: Program) -> ClassLabels:
    """Evaluate all class flags for the program in one pass over its rules.

    A program is dual-normal when every rule is a constraint or has at most
    one positive body atom; dual-Horn additionally forbids negative bodies
    and restricts constraints to at most one body atom (so a multi-atom
    constraint breaks dual-Horn but not dual-normal).
    """
    # successors of each atom: the positive body of the one rule it heads,
    # a list only once it heads a second rule with a positive body
    succ: list[Sequence[int]] = [()] * len(prog.table)
    multi_head: list[tuple[int, ...]] = []
    multi_body: list[tuple[int, ...]] = []
    linked: list[Rule] = []
    positive = constraint_free = short_constraints = True
    for r in prog.rules:
        # an index reads a field of the tuple-backed rule faster than its
        # name or an unpacking does
        head = r[0]
        pos = r[1]
        if r[2]:
            positive = False
        if not head:
            constraint_free = False
            if len(pos) > 1:
                short_constraints = False
            continue
        if len(head) > 1:
            multi_head.append(head)
        if pos:
            linked.append(r)
            if len(pos) > 1:
                multi_body.append(pos)
            for x in head:
                s = succ[x]
                if not s:
                    succ[x] = pos
                elif isinstance(s, list):
                    s.extend(pos)
                else:
                    succ[x] = [*s, *pos]
    hcf, bcf, tight = _cycle_free(succ, multi_head, multi_body, linked)
    normal = not multi_head
    dual_normal = not multi_body
    return ClassLabels(
        horn=normal and positive,
        dual_horn=dual_normal and short_constraints and positive,
        normal=normal,
        dual_normal=dual_normal,
        singular=normal and dual_normal,
        positive=positive,
        definite=normal and constraint_free,
        constraint_free=constraint_free,
        hcf=hcf,
        bcf=bcf,
        tight=tight,
    )
