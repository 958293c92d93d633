"""References the measured code paths do not compute.

Everything here works from definitions on bitmasks over atom names and
imports nothing from ``dualnorm``: the SE-model enumeration (Y a model of P,
X a model of the reduct P^Y) is written out because the repo's own oracle
for strong equivalence calls ``seue.se_models``, the route under test.
"""

from __future__ import annotations

Pair = tuple[frozenset, frozenset]


class Masks:
    """Rules of a named program as ``(head, pos, neg)`` bitmasks."""

    def __init__(self, rules, universe=None):
        self.atoms = sorted(universe if universe is not None else {a for r in rules for p in r for a in p})
        bit = {a: 1 << i for i, a in enumerate(self.atoms)}
        self.rules = [tuple(sum(bit[a] for a in set(part)) for part in r) for r in rules]

        self._names: dict[int, frozenset] = {}

    def names(self, mask: int) -> frozenset:
        out = self._names.get(mask)
        if out is None:
            out = self._names[mask] = frozenset(a for i, a in enumerate(self.atoms) if mask >> i & 1)
        return out

    def is_model(self, y: int) -> bool:
        return all(h & y or n & y or p & ~y for h, p, n in self.rules)

    def reduct(self, y: int) -> list[tuple[int, int]]:
        return [(h, p) for h, p, n in self.rules if not n & y]


def _submasks(y: int):
    sub = y
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & y


def se_models(rules, universe=None) -> set[Pair]:
    """All (X, Y), X a subset of Y, with Y |= P and X |= P^Y."""
    m = Masks(rules, universe)
    out = set()
    for y in range(1 << len(m.atoms)):
        if not m.is_model(y):
            continue
        red = m.reduct(y)
        ny = m.names(y)
        for x in _submasks(y):
            if all(h & x or p & ~x for h, p in red):
                out.add((m.names(x), ny))
    return out


def _as_masks(pairs: set[Pair]):
    """Name pairs as ``(x, y)`` bitmask pairs, plus the decoder."""
    atoms = sorted(set().union(*(y for _, y in pairs))) if pairs else []
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    masks: dict[frozenset, int] = {}
    names: dict[int, frozenset] = {}
    for s in {s for pair in pairs for s in pair}:
        masks[s] = sum(bit[a] for a in s)
        names[masks[s]] = s
    return {(masks[x], masks[y]) for x, y in pairs}, names.__getitem__


def ue_filter(pairs: set[Pair]) -> set[Pair]:
    """UE-models: SE-models (X, Y) with X = Y or no (X', Y) between them."""
    masks, names = _as_masks(pairs)
    heres: dict[int, list[int]] = {}
    for x, y in masks:
        heres.setdefault(y, []).append(x)
    return {
        (names(x), names(y))
        for x, y in masks
        if x == y or not any(x != x2 != y and not x & ~x2 for x2 in heres[y])
    }


def answer_sets(rules) -> set[frozenset]:
    """Y is an answer set iff Y |= P and no proper subset of Y models P^Y."""
    m = Masks(rules)
    out = set()
    for y in range(1 << len(m.atoms)):
        if not m.is_model(y):
            continue
        red = m.reduct(y)
        if not any(all(h & x or p & ~x for h, p in red) for x in _submasks(y) if x != y):
            out.add(m.names(y))
    return out


def answer_sets_from_se(pairs: set[Pair]) -> set[frozenset]:
    """Answer sets are the Y with (Y, Y) the only SE-model at Y."""
    heres: dict[frozenset, set[frozenset]] = {}
    for x, y in pairs:
        heres.setdefault(y, set()).add(x)
    return {y for y, xs in heres.items() if xs == {y}}


# ---------------------------------------------------------------------------
# Closure properties of SE-sets (definitions from the seue module docstring)


def _union_closure(sets) -> set[int]:
    closed = set(sets)
    frontier = list(closed)
    while frontier:
        nxt = []
        for u in frontier:
            for v in list(closed):
                w = u | v
                if w not in closed:
                    closed.add(w)
                    nxt.append(w)
        frontier = nxt
    return closed


def se_properties(pairs: set[Pair]) -> dict[str, bool]:
    # conditions on a there-component Y alone are checked once per distinct Y
    masks, _ = _as_masks(pairs)
    heres: dict[int, set[int]] = {}
    for x, y in masks:
        heres.setdefault(y, set()).add(x)
    diag = {y for x, y in masks if x == y}
    has_diag = all(y in diag for y in heres)
    splittable = all(
        (u, z) in masks or any(not u & ~z2 and z2 != z for z2 in heres[z])
        for z in diag
        for u in _union_closure({x for y, xs in heres.items() if not y & ~z for x in xs})
    )
    return {
        "complete": has_diag
        and all((x, z) in masks for y, xs in heres.items() for z in diag if not y & ~z for x in xs),
        "closed_here_intersection": all(a & b in xs for xs in heres.values() for a in xs for b in xs),
        "closed_here_union": all(a | b in xs for xs in heres.values() for a in xs for b in xs),
        "ue_complete": has_diag
        and all(
            any(not y & ~mid and mid != z for mid in heres[z])
            for y in heres
            for z in diag
            if y != z and not y & ~z
        )
        and all(b == y or a == b or a & ~b for y, xs in heres.items() for a in xs for b in xs),
        "splittable": splittable,
    }


# ---------------------------------------------------------------------------
# Class labels (definitions from the classify module docstring)


def _scc_index(vertices, edges) -> dict:
    """Kosaraju: vertex -> component number."""
    succ: dict = {v: [] for v in vertices}
    pred: dict = {v: [] for v in vertices}
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)
    order, seen = [], set()
    for root in vertices:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    comp: dict = {}
    for root in reversed(order):
        if root in comp:
            continue
        comp[root] = root
        stack = [root]
        while stack:
            v = stack.pop()
            for w in pred[v]:
                if w not in comp:
                    comp[w] = root
                    stack.append(w)
    return comp


def class_labels(rules) -> dict[str, bool]:
    atoms = sorted({a for r in rules for p in r for a in p})
    edges = {(h, b) for head, pos, _ in rules for h in head for b in pos}
    comp = _scc_index(atoms, edges)
    shared = lambda group: len({comp[a] for a in set(group)}) < len(set(group))
    normal = all(len(h) <= 1 for h, _, _ in rules)
    positive = all(not n for _, _, n in rules)
    dual_normal = all(not h or len(p) <= 1 for h, p, _ in rules)
    sizes = {}
    for a in atoms:
        sizes[comp[a]] = sizes.get(comp[a], 0) + 1
    return {
        "horn": normal and positive,
        "dual_horn": all(len(p) <= 1 and not n for _, p, n in rules),
        "normal": normal,
        "dual_normal": dual_normal,
        "singular": normal and dual_normal,
        "positive": positive,
        "definite": all(len(h) == 1 for h, _, _ in rules),
        "constraint_free": all(h for h, _, _ in rules),
        "hcf": not any(shared(h) for h, _, _ in rules if len(set(h)) > 1),
        "bcf": not any(shared(p) for h, p, _ in rules if h and len(set(p)) > 1),
        "tight": not any(a == b for a, b in edges) and all(s == 1 for s in sizes.values()),
        "dep_edges": len(edges),
    }


# ---------------------------------------------------------------------------
# The head/body-swapping translation (transform module docstring)


def translation(rules, star: bool) -> set[tuple]:
    """Rules of the translation as name-canonical ``(head, pos, neg)``."""
    atoms = sorted({a for r in rules for p in r for a in p})
    neg = lambda x: f"__n_{x}"
    copy = lambda y, x: f"__c_t_{x}" if y is None else f"__c_{y}_{x}"
    out = []
    for x in atoms:
        out += [((x,), (), (neg(x),)), ((neg(x),), (), (x,)), ((copy(x, x),), (), (neg(x),))]
        out += [((copy(y, x),), (), (neg(x), y)) for y in atoms]
        for head, pos, nb in rules:
            if head:
                new_head = [copy(b, x) for b in pos] or [copy(None, x)]
                out.append((new_head, [copy(h, x) for h in head], nb))
        out.append(((), (x,), (copy(None, x),)))
        if star:
            out += [((copy(y, x),), (copy(None, x),), ()) for y in atoms]
    out += [((), pos, tuple(head) + tuple(nb)) for head, pos, nb in rules]
    return {tuple(tuple(sorted(set(part))) for part in r) for r in out}


# ---------------------------------------------------------------------------
# DIMACS output of the SAT encoding


def parse_dimacs(text: str):
    """``(num_vars, clauses, name -> index)``; raises ValueError on a
    malformed file or a header that disagrees with the body."""
    names, clauses, header = {}, [], None
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "c":
            if len(parts) == 4 and parts[2] == "=":
                names[parts[3]] = int(parts[1])
            continue
        if parts[0] == "p":
            header = (int(parts[2]), int(parts[3]))
            continue
        lits = [int(t) for t in parts]
        if lits[-1] != 0:
            raise ValueError("clause line without terminating 0")
        clauses.append(lits[:-1])
    if header is None or header[1] != len(clauses):
        raise ValueError("DIMACS header disagrees with the clause count")
    if any(abs(l) > header[0] for c in clauses for l in c):
        raise ValueError("literal beyond the declared variable count")
    return header[0], clauses, names


def intended_assignment(rules, interp: frozenset) -> dict[str, bool]:
    """Values of the declared variables when the base atoms are ``interp``:
    for every owner m, level 0 copies the candidate with m forced out and t
    in, and level i keeps an atom while every proper rule with that
    positive body keeps a head atom at level i-1 or is removed by the reduct
    (the encoding the satenc module docstring describes)."""
    atoms = sorted({a for r in rules for p in r for a in p})
    proper = [r for r in rules if r[0]]
    by_body: dict = {}
    for head, pos, nb in proper:
        by_body.setdefault(pos[0] if pos else None, []).append((head, nb))
    values = {a: a in interp for a in atoms}
    values["t"] = True
    for m in atoms:
        level = {a: (a in interp and a != m) for a in atoms}
        level[None] = True
        for i in range(len(atoms) + 1):
            if i:
                level = {
                    a: a != m
                    and level[a]
                    and all(any(level[h] for h in head) or any(b in interp for b in nb) for head, nb in by_body.get(a, ()))
                    for a in list(level)
                }
            for a, v in level.items():
                values[f"{'t' if a is None else a}^{i}_{m}"] = v
    return values


def cnf_accepts(num_vars: int, clauses, names: dict, values: dict[str, bool]) -> bool:
    """Fix the named variables, derive the Tseitin auxiliaries by unit
    propagation (each is defined by a biconditional over earlier variables),
    and report whether every clause holds."""
    assign: dict[int, bool] = {}
    for name, v in values.items():
        assign[names[name]] = v
    occurs: dict[int, list[int]] = {}
    for ci, c in enumerate(clauses):
        for lit in c:
            occurs.setdefault(abs(lit), []).append(ci)
    queue = list(range(len(clauses)))
    while queue:
        ci = queue.pop()
        free, sat = [], False
        for lit in clauses[ci]:
            v = assign.get(abs(lit))
            if v is None:
                free.append(lit)
            elif v == (lit > 0):
                sat = True
                break
        if sat or len(free) != 1:
            if not sat and not free:
                return False
            continue
        lit = free[0]
        assign[abs(lit)] = lit > 0
        queue.extend(occurs[abs(lit)])
    return all(any(assign.get(abs(l)) == (l > 0) for l in c) for c in clauses)
