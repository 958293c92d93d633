"""Text formats: program files, SE-set files, and DIMACS CNF output.

Program grammar (one statement per ``.``; whitespace and newlines are
insignificant, ``%`` starts a line comment)::

    statement := head | head ":-" body | ":-" body | "#false"
    head      := atom ("|" atom)*
    body      := literal ("," literal)*
    literal   := atom | "not" atom
    atom      := [a-z_][A-Za-z0-9_]*

``#false`` is the empty constraint: a rule with neither head nor body,
which no interpretation satisfies.  ``not`` is a keyword and cannot be
used as an atom name.  User atoms may not start with the reserved ``__``
prefix; parsing with ``allow_generated=True`` lifts that restriction so
rendered transformation outputs can be read back.

A statement is read from string slices: the text up to its ``.``, split
at ``:-``, ``|``, ``,`` and whitespace, where each distinct name is checked
once per parse; in a text with a ``%``, the blanks and comments before a
statement are skipped first.  A token loop reads any statement the slices
do not take: one with a comment inside, ``#false``, and every ill-formed
one, so the loop reports every error.

SE-set files are line oriented: each non-comment line ``x1 x2 ; y1 y2 y3``
denotes the SE-interpretation (X, Y) with X a subset of Y.  The universe is
the union of all Y components plus the atoms of an optional ``#universe``
directive line.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import or_
from typing import Iterator, NamedTuple, Optional, Sequence

from .common import DEFAULT_BUDGET, OracleBudget, collector_paused
from .core import RESERVED_PREFIX, AtomTable, Program, Rule, mask_to_set, sorted_ids, table_masks


class SourceSpan(NamedTuple):
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


_ATOM = r"[a-z_][A-Za-z0-9_]*"

# One token per match; a match beginning with whitespace or ``%`` is skipped.
# ``not`` matches as an atom and is told apart by the parser.
_TOKEN_RE = re.compile(rf"\s+|%[^\n]*|(?P<atom>{_ATOM})|:-|[|,.]|#false(?![A-Za-z0-9_])")
# Blanks and comments, as many as there are.
_GAP_RE = re.compile(r"(?:\s|%[^\n]*)*")

_ATOM_NAME_RE = re.compile(rf"(?!not\Z){_ATOM}\Z")


def is_atom_name(name: str, allow_generated: bool = False) -> bool:
    """Whether ``name`` is a whole atom name: not the keyword ``not``, and,
    unless ``allow_generated``, without the reserved ``__`` prefix."""
    if _ATOM_NAME_RE.match(name) is None:
        return False
    return allow_generated or not name.startswith(RESERVED_PREFIX)


# Parser states; ``_RULE``, the start of a statement, is the only one a text
# may end in.  ``_NEXT[state]`` maps a token ("atom", "not" or the
# punctuation itself) to the next state; ``_EXPECTED[state]`` names what any
# other token lacks.
_RULE, _HEAD_MORE, _HEAD_ATOM, _BODY_LIT, _NEG_ATOM, _BODY_MORE, _FALSUM = range(7)
_NEXT = (
    {"atom": _HEAD_MORE, ":-": _BODY_LIT, "#false": _FALSUM},
    {"|": _HEAD_ATOM, ":-": _BODY_LIT, ".": _RULE},
    {"atom": _HEAD_MORE},
    {"atom": _BODY_MORE, "not": _NEG_ATOM},
    {"atom": _BODY_MORE},
    {",": _BODY_LIT, ".": _RULE},
    {".": _RULE},
)
_EXPECTED = ("a rule", "'.'", "an atom after '|'", "a body literal", "an atom after 'not'", "'.'", "'.'")


def _span(text: str, offset: int) -> SourceSpan:
    """Line and column (both from 1) of a character offset."""
    return SourceSpan(text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


class _NotFast(Exception):
    """A statement the sliced read does not take; the token loop reads it."""


# every Rule is a tracked tuple subclass, so a collection during the parse
# would walk all the rules read so far
@collector_paused
def parse_program(
    text: str, table: Optional[AtomTable] = None, allow_generated: bool = False
) -> Program:
    """Parse a program from its text form.

    A fresh table is created unless one is supplied; supply a shared table
    when several programs must agree on atom ids; atoms are interned in text
    order.  Each statement is sliced out up to its ``.`` and split at
    ``:-``, ``|``, ``,`` and whitespace.  A name is checked with
    :func:`is_atom_name` and interned once per parse, at its first
    occurrence; a later one costs a dict ``get``.  In a text with a ``%``,
    the blanks and comments before each statement are skipped before it is
    sliced.  The token loop of :func:`_parse_statement` reads what the
    slices do not take (a comment inside a statement, ``#false``, anything
    ill-formed, a trailing gap that is not blank) and reports every
    error.  A :class:`ParseError` reports the line:column of the
    first offending token, or of the end of the text.  The collector is
    paused for the call, and left as the caller had it.
    """
    if table is None:
        table = AtomTable()
    intern = table.intern
    # each name read so far, and each ``not`` literal by its stripped text
    ids: dict[str, int] = {}
    negated: dict[str, int] = {}
    get_id = ids.get
    get_negated = negated.get

    def first(name: str) -> int:
        """The id of a name not read before; raise ``_NotFast`` if it is
        not an atom name."""
        if not is_atom_name(name, allow_generated):
            raise _NotFast
        aid = ids[name] = intern(name)
        return aid

    def unseen_literal(lit: str, pos: list[int], neg: list[int]) -> None:
        """Append the id of a body literal not read before to ``pos`` or,
        for ``not`` and a name, to ``neg``."""
        parts = lit.split()
        if len(parts) == 2 and parts[0] == "not":
            aid = get_id(parts[1])
            aid = negated[lit] = first(parts[1]) if aid is None else aid
            neg.append(aid)
        else:
            pos.append(first(lit))

    rules = []
    append = rules.append
    find = text.find
    offset = 0
    comments = "%" in text
    while True:
        if comments:
            # a comment before a statement would fail its slice
            offset = _GAP_RE.match(text, offset).end()
        dot = find(".", offset)
        if dot < 0:
            # no statement is left: anything but blanks and comments
            # is an error, which the token loop raises
            if _GAP_RE.match(text, offset).end() < len(text):
                _parse_statement(text, offset, table, allow_generated)
            break
        head, colon, body = text[offset:dot].partition(":-")
        try:
            if "|" in head:
                heads = []
                for name in head.split("|"):
                    name = name.strip()
                    aid = get_id(name)
                    heads.append(first(name) if aid is None else aid)
                heads = sorted_ids(heads)
            elif colon and (not head or head.isspace()):  # a constraint
                heads = ()
            else:
                name = head.strip()
                aid = get_id(name)
                heads = (first(name) if aid is None else aid,)
            pos = []
            neg = []
            if colon:
                for lit in body.split(","):
                    lit = lit.strip()
                    aid = get_id(lit)
                    if aid is not None:
                        pos.append(aid)
                    else:
                        aid = get_negated(lit)
                        if aid is not None:
                            neg.append(aid)
                        else:
                            unseen_literal(lit, pos, neg)
            # a field of one id or none is in order already; with the
            # fields in order, the rule needs no Rule.of
            pos = tuple(pos) if len(pos) < 2 else sorted_ids(pos)
            neg = tuple(neg) if len(neg) < 2 else sorted_ids(neg)
            append(tuple.__new__(Rule, (heads, pos, neg)))
            offset = dot + 1
        except _NotFast:
            rule, offset = _parse_statement(text, offset, table, allow_generated)
            append(rule)
    # the deduplication is the memory peak of the parse: free the dicts
    ids.clear()
    negated.clear()
    return Program.of(table, rules)


def _parse_statement(text: str, offset: int, table: AtomTable, allow_generated: bool) -> tuple[Rule, int]:
    """Read one statement token by token from ``offset``; return its rule
    and the offset after its ``.``, or raise the first error in it."""
    head: list[int] = []
    pos: list[int] = []
    neg: list[int] = []
    state = _RULE
    while offset < len(text):
        m = _TOKEN_RE.match(text, offset)
        if m is None:
            raise ParseError(f"unexpected character {text[offset]!r}", _span(text, offset))
        start, offset = offset, m.end()
        token = m.group()
        if m.lastgroup == "atom":
            kind = "not" if token == "not" else "atom"
        elif token[0] in ":|,.#":
            kind = token
        else:
            continue
        following = _NEXT[state].get(kind)
        if following is None:
            raise ParseError(f"expected {_EXPECTED[state]}, found {token!r}", _span(text, start))
        if kind == "atom":
            if token.startswith(RESERVED_PREFIX) and not allow_generated:
                raise ParseError(
                    f"atom {token!r} uses the reserved generated-atom prefix {RESERVED_PREFIX!r}",
                    _span(text, start),
                )
            target = head if following == _HEAD_MORE else neg if state == _NEG_ATOM else pos
            target.append(table.intern(token))
        elif following == _RULE:
            return Rule.of(head, pos, neg), offset
        state = following
    raise ParseError(f"expected {_EXPECTED[state]}, found 'end of input'", _span(text, len(text)))


def render_rule(rule: Rule, table: AtomTable) -> str:
    name = table.name_of
    head, pos, neg = rule
    heads = " | ".join(map(name, head))
    if not pos and not neg:
        return f"{heads}." if head else "#false."
    body = ", ".join(map(name, pos))
    if neg:
        negs = "not " + ", not ".join(map(name, neg))
        body = f"{body}, {negs}" if pos else negs
    return f"{heads} :- {body}." if head else f":- {body}."


def render_program(prog: Program) -> str:
    """Render one rule per line; the empty program renders as the empty string.

    Re-parsing the output (with ``allow_generated=True`` when the program
    contains generated atoms) yields a structurally equal program.
    """
    if not prog.rules:
        return ""
    table = prog.table
    return "\n".join([render_rule(r, table) for r in prog.rules]) + "\n"


# ---------------------------------------------------------------------------
# Line-oriented formats: SE-set files here, QBF and 3-CNF in ``reductions``


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(lineno, line)`` for each line that is not blank once its ``%``
    comment is cut and its ends stripped; lines count from 1."""
    for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if "%" in line:
            line = line.split("%", 1)[0].strip()
        if line:
            yield lineno, line



def parse_se_set(text: str, table: Optional[AtomTable] = None, budget: OracleBudget = DEFAULT_BUDGET):
    """Parse an SE-set file (returns an :class:`dualnorm.seue.SESet`).

    Each distinct side of ``;`` is resolved once, to the mask of its atom
    ids, and each line sets one bit of its there-component's row; once the
    universe is known (and within the budget, else ``BudgetExceededError``),
    each distinct mask is remapped once to the set's masks.  No ``SEPair``
    is made.
    """
    from .seue import SESet

    if table is None:
        table = AtomTable()
    masks: dict[str, int] = {}  # each side read so far
    bits: dict[str, int] = {}  # each name read so far

    def mask_of(side: str, lineno: int) -> int:
        mask = 0
        for name in side.split():
            bit = bits.get(name)
            if bit is None:
                if not is_atom_name(name, allow_generated=True):
                    raise ParseError(f"invalid atom name {name!r}", SourceSpan(lineno, 1))
                bit = bits[name] = 1 << table.intern(name)
            mask |= bit
        masks[side] = mask
        return mask

    heres: dict[int, set[int]] = {}
    universe = 0
    for lineno, line in content_lines(text):
        if line[0] == "#":
            parts = line.split()
            if parts[0] != "#universe":
                raise ParseError(f"unknown directive {parts[0]!r}", SourceSpan(lineno, 1))
            universe |= mask_of(" ".join(parts[1:]), lineno)
            continue
        left, semicolon, right = line.partition(";")
        if not semicolon:
            raise ParseError("expected 'X ; Y' (missing ';')", SourceSpan(lineno, 1))
        x = masks.get(left)
        if x is None:
            x = mask_of(left, lineno)
        y = masks.get(right)
        if y is None:
            y = mask_of(right, lineno)
        if x & ~y:
            extra = ", ".join(table.names_of(table_masks(x & ~y)))
            raise ParseError(f"X is not a subset of Y ({extra} missing from Y)", SourceSpan(lineno, 1))
        xs = heres.get(y)
        if xs is None:
            heres[y] = {x}
        else:
            xs.add(x)
    universe = reduce(or_, heres, universe)
    atoms = table_masks(universe)
    budget.check(len(atoms), "SE-set")
    bit = {1 << a: 1 << i for i, a in enumerate(atoms)}
    rank = {}
    for mask in masks.values():
        rest, out = mask, 0
        while rest:
            low = rest & -rest
            out |= bit[low]
            rest ^= low
        rank[mask] = out
    rows = {rank[y]: sum(map((1).__lshift__, map(rank.__getitem__, xs))) for y, xs in heres.items()}
    return SESet.from_rows(table, atoms, rows)


def se_pair_order(
    table: AtomTable, atoms: Sequence[int], rows: dict[int, int]
) -> tuple[dict[int, list[str]], Iterator[tuple[int, list[int]]]]:
    """The one order of SE-pair output (text, JSON and equivalence
    witnesses) for the rows of a set (``SESet.rows``; bit i of a mask is
    ``atoms[i]``): by the names of the there-component, then by those of
    the here-component.  Returns the sorted names of every mask of the
    rows, each named once, and a lazy walk that yields each there-mask with
    its here-masks in that order (a there-component's heres are sorted
    when the walk reaches it)."""
    atom_names = [table.name_of(a) for a in atoms]
    heres = {y: table_masks(row) for y, row in rows.items()}
    masks = set(heres).union(*heres.values())
    names = {m: sorted(name for i, name in enumerate(atom_names) if m >> i & 1) for m in masks}
    key = names.__getitem__
    return names, ((y, sorted(heres[y], key=key)) for y in sorted(heres, key=key))


def first_se_difference(a, b):
    """The first SE-pair, in the order of :func:`se_pair_order`, that is in
    one of two SESets over one universe and table but not in the other, or
    None when they are equal: the rows XORed, the first here of the first
    there-component left."""
    from .seue import SEPair

    atoms = a.atoms
    diff = {y: row for y in a.rows.keys() | b.rows.keys() if (row := a.rows.get(y, 0) ^ b.rows.get(y, 0))}
    _, order = se_pair_order(a.table, atoms, diff)
    return next((SEPair(mask_to_set(atoms, xs[0]), mask_to_set(atoms, y)) for y, xs in order), None)


def render_se_pair(pair, table: AtomTable) -> str:
    x = " ".join(table.names_of(pair.here))
    y = " ".join(table.names_of(pair.there))
    return f"{x} ; {y}" if x else f"; {y}"


def render_se_set(se_set) -> str:
    """Render an SESet in the line format accepted by :func:`parse_se_set`.

    A ``#universe`` directive is emitted only when the universe exceeds the
    union of the Y components (otherwise the pairs alone are lossless).
    The pairs come in the order of :func:`se_pair_order`, read from the
    set's rows; each distinct mask is named and joined once.
    """
    names, order = se_pair_order(se_set.table, se_set.atoms, se_set.rows)
    lines = []
    if reduce(or_, se_set.rows, 0) != (1 << len(se_set.atoms)) - 1:
        lines.append("#universe " + " ".join(se_set.table.names_of(se_set.universe)))
    joined = {mask: " ".join(atom_names) for mask, atom_names in names.items()}
    for y, xs in order:
        there = joined[y]
        lines.extend(f"{joined[x]} ; {there}" if x else f"; {there}" for x in xs)
    return "\n".join(lines) + ("\n" if lines else "")


def se_set_json(se_set) -> list[dict]:
    """The pairs of an SESet as ``{"here": names, "there": names}`` objects,
    in the order of :func:`se_pair_order`."""
    names, order = se_pair_order(se_set.table, se_set.atoms, se_set.rows)
    return [{"here": names[x], "there": names[y]} for y, xs in order for x in xs]


# ---------------------------------------------------------------------------
# DIMACS


def write_dimacs(cnf) -> str:
    """Serialize a CnfInstance as DIMACS CNF.

    A comment block maps variable indices to their structured names (Tseitin
    auxiliaries carry no name and are omitted from the block).  Each clause
    is written by one ``%`` format for its length.
    """
    names = cnf.var_names
    out = [f"c {idx} = {names[idx]}" for idx in sorted(names)]
    clauses = cnf.clauses
    out.append(f"p cnf {cnf.num_vars} {len(clauses)}")
    widest = max(map(len, clauses), default=0)
    formats = ["%d " * n + "0" if n else " 0" for n in range(widest + 1)]
    out += [formats[len(clause)] % tuple(clause) for clause in clauses]
    return "\n".join(out) + "\n"


def parse_dimacs_model(text: str) -> frozenset[int]:
    """Extract the true literals from solver model output.

    Accepts ``v``-prefixed model lines as well as bare literal lines; ``s``
    and ``c`` lines are ignored.  Returns the set of variables assigned true.
    """
    true_vars: set[int] = set()
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0] in ("c", "s"):
            continue
        if parts[0] == "v":
            parts = parts[1:]
        for tok in parts:
            try:
                lit = int(tok)
            except ValueError:
                break
            if lit > 0:
                true_vars.add(lit)
    return frozenset(true_vars)
