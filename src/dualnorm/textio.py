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

A statement is read per regular-expression match, together with the blanks
and comments before it.  A token loop reads any statement that match does
not take: one with a comment inside, ``#false``, and every ill-formed one,
so the loop reports every error.

SE-set files are line oriented: each non-comment line ``x1 x2 ; y1 y2 y3``
denotes the SE-interpretation (X, Y) with X a subset of Y.  The universe is
the union of all Y components plus the atoms of an optional ``#universe``
directive line.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import or_
from typing import Iterator, NamedTuple, Optional

from .core import RESERVED_PREFIX, AtomTable, Program, Rule


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

# A whole atom name, for the line-oriented readers; the keyword ``not`` is none.
_ATOM_NAME_RE = re.compile(rf"(?!not\Z){_ATOM}\Z")


def _statement_re(allow_generated: bool) -> re.Pattern:
    """The blanks and comments at a statement start, then, if one follows, a
    whole statement without a comment inside, its head and body captured.

    It accepts only what the token loop reads the same way: its atoms exclude
    the keyword ``not`` and, unless ``allow_generated``, the reserved prefix.
    A comment must reach its line end, so no backtracking can read the rest
    of its line as a statement.
    """
    atom = r"(?!not(?![A-Za-z0-9_]))" + ("" if allow_generated else "(?!__)") + _ATOM
    literal = rf"(?:not\s+)?{atom}"
    return re.compile(
        r"(?:\s|%[^\n]*(?![^\n]))*"
        rf"(?:(?:(?P<head>{atom}(?:\s*\|\s*{atom})*)\s*|(?=:-))"
        rf"(?::-\s*(?P<body>{literal}(?:\s*,\s*{literal})*)\s*)?\.)?"
    )


_STATEMENT_RE = {flag: _statement_re(flag) for flag in (False, True)}
# The atoms of a matched head, and the literals of a matched body as
# ``(not-keyword or "", atom)``, in text order.
_NAME_RE = re.compile(_ATOM)
_LITERAL_RE = re.compile(rf"(not\s+)?({_ATOM})")

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


def parse_program(
    text: str, table: Optional[AtomTable] = None, allow_generated: bool = False
) -> Program:
    """Parse a program from its text form.

    A fresh table is created unless one is supplied; supply a shared table
    when several programs must agree on atom ids; atoms are interned in text
    order.  A statement is read per match of ``_STATEMENT_RE``: each name in
    it costs one dict ``get`` on the table, and ``intern`` runs only for a
    name not yet there; its fields become a rule through ``Rule.of``.  The
    token loop of :func:`_parse_statement` reads a statement with a comment
    inside and reports every error.  A :class:`ParseError` reports the
    line:column of the first offending token, or of the end of the text.
    """
    if table is None:
        table = AtomTable()
    lookup = table.lookup
    intern = table.intern
    find_names = _NAME_RE.findall
    find_literals = _LITERAL_RE.findall
    match_statement = _STATEMENT_RE[allow_generated].match
    rules = []
    offset = 0
    while True:
        m = match_statement(text, offset)
        offset = m.end()
        head, body = m.group("head", "body")
        if head is None and body is None:
            if offset == len(text):
                return Program.of(table, rules)
            rule, offset = _parse_statement(text, offset, table, allow_generated)
        else:
            # One dict get per known name, and intern only a new one.  A head
            # without "|" is one atom, and so is a body that is one name.
            heads = []
            if head:
                for name in find_names(head) if "|" in head else (head,):
                    aid = lookup(name)
                    heads.append(intern(name) if aid is None else aid)
            pos = []
            neg = []
            if body and body.isidentifier():
                aid = lookup(body)
                pos.append(intern(body) if aid is None else aid)
            elif body:
                for keyword, name in find_literals(body):
                    aid = lookup(name)
                    (neg if keyword else pos).append(intern(name) if aid is None else aid)
            rule = Rule.of(heads, pos, neg)
        rules.append(rule)


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
    head = " | ".join(table.name_of(a) for a in rule.head)
    body = [table.name_of(a) for a in rule.body_pos]
    body += [f"not {table.name_of(a)}" for a in rule.body_neg]
    if body:
        sep = " :- " if head else ":- "
        return f"{head}{sep}{', '.join(body)}."
    return f"{head}." if head else "#false."


def render_program(prog: Program) -> str:
    """Render one rule per line; the empty program renders as the empty string.

    Re-parsing the output (with ``allow_generated=True`` when the program
    contains generated atoms) yields a structurally equal program.
    """
    if not prog.rules:
        return ""
    return "\n".join(render_rule(r, prog.table) for r in prog.rules) + "\n"


# ---------------------------------------------------------------------------
# Line-oriented formats: SE-set files here, QBF and 3-CNF in ``reductions``


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(lineno, line)`` for each line that is not blank once its ``%``
    comment is cut and its ends stripped; lines count from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if line:
            yield lineno, line



def parse_se_set(text: str, table: Optional[AtomTable] = None):
    """Parse an SE-set file (returns an :class:`dualnorm.seue.SESet`).

    Each distinct side of ``;`` is resolved to atom ids once, and the set
    is built as its mask view (bit i of a mask is the i-th smallest atom id
    of the universe) without making an ``SEPair``.
    """
    from .seue import SESet, view_of_pairs

    if table is None:
        table = AtomTable()

    sides: dict[str, frozenset[int]] = {}

    def intern_names(side, lineno):
        ids = sides.get(side)
        if ids is None:
            out = set()
            for name in side.split():
                if not _ATOM_NAME_RE.match(name):
                    raise ParseError(f"invalid atom name {name!r}", SourceSpan(lineno, 1))
                out.add(table.intern(name))
            ids = sides[side] = frozenset(out)
        return ids

    pairs = []
    universe: set[int] = set()
    for lineno, line in content_lines(text):
        if line.startswith("#"):
            parts = line.split()
            if parts[0] != "#universe":
                raise ParseError(f"unknown directive {parts[0]!r}", SourceSpan(lineno, 1))
            universe |= intern_names(" ".join(parts[1:]), lineno)
            continue
        if ";" not in line:
            raise ParseError("expected 'X ; Y' (missing ';')", SourceSpan(lineno, 1))
        left, _, right = line.partition(";")
        here = intern_names(left, lineno)
        there = intern_names(right, lineno)
        if not here <= there:
            extra = ", ".join(table.names_of(here - there))
            raise ParseError(f"X is not a subset of Y ({extra} missing from Y)", SourceSpan(lineno, 1))
        pairs.append((here, there))
    view = view_of_pairs(universe.union(*(there for _, there in pairs)), pairs)
    return SESet.from_masks(table, view.atoms, view.by_there)


def se_pair_order(table: AtomTable, view) -> tuple[dict[int, list[str]], Iterator[tuple[int, list[int]]]]:
    """The one order of SE-pair output (text, JSON and equivalence
    witnesses) for a mask view: by the names of the there-component, then
    by those of the here-component.  Returns the sorted names of every mask
    of the view, each named once, and a lazy walk that yields each
    there-mask with its here-masks in that order (a there-component's heres
    are sorted when the walk reaches it)."""
    atom_names = [table.name_of(a) for a in view.atoms]
    masks = set(view.by_there).union(*view.by_there.values())
    names = {m: sorted(name for i, name in enumerate(atom_names) if m >> i & 1) for m in masks}
    key = names.__getitem__
    return names, ((y, sorted(view.by_there[y], key=key)) for y in sorted(view.by_there, key=key))


def render_se_pair(pair, table: AtomTable) -> str:
    x = " ".join(table.names_of(pair.here))
    y = " ".join(table.names_of(pair.there))
    return f"{x} ; {y}" if x else f"; {y}"


def render_se_set(se_set) -> str:
    """Render an SESet in the line format accepted by :func:`parse_se_set`.

    A ``#universe`` directive is emitted only when the universe exceeds the
    union of the Y components (otherwise the pairs alone are lossless).
    The pairs come in the order of :func:`se_pair_order`, read from the
    set's mask view (bit i of a mask is the i-th smallest atom id of the
    universe); each distinct mask is named and joined once.
    """
    view = se_set.view
    names, order = se_pair_order(se_set.table, view)
    lines = []
    if reduce(or_, view.by_there, 0) != (1 << len(view.atoms)) - 1:
        lines.append("#universe " + " ".join(se_set.table.names_of(se_set.universe)))
    joined = {mask: " ".join(atom_names) for mask, atom_names in names.items()}
    for y, xs in order:
        there = joined[y]
        lines.extend(f"{joined[x]} ; {there}" if x else f"; {there}" for x in xs)
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# DIMACS


def write_dimacs(cnf) -> str:
    """Serialize a CnfInstance as DIMACS CNF.

    A comment block maps variable indices to their structured names (Tseitin
    auxiliaries carry no name and are omitted from the block).
    """
    out = []
    for idx in sorted(cnf.var_names):
        out.append(f"c {idx} = {cnf.var_names[idx]}")
    out.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    out.extend(" ".join(map(str, clause)) + " 0" for clause in cnf.clauses)
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
