import gc
import random
import re
import tracemalloc

import pytest

from dualnorm import textio
from dualnorm.core import AtomTable, Program, Rule
from dualnorm.gen import random_program, random_rule, random_se_pairs, structured_corpus
from dualnorm.satenc import answer_sets_via_sat, program_cnf
from dualnorm.seue import SEPair, SESet
from dualnorm.textio import (
    ParseError,
    parse_dimacs_model,
    parse_program,
    parse_se_set,
    render_program,
    render_rule,
    render_se_set,
    write_dimacs,
)

from conftest import DISJ3, sparse_text


def test_parse_basic_rule():
    p = parse_program("a | b :- c, not d.")
    r = p.rules[0]
    t = p.table
    assert set(r.head) == {t.id_of("a"), t.id_of("b")}
    assert r.body_pos == (t.id_of("c"),)
    assert r.body_neg == (t.id_of("d"),)


def test_parse_disj3_fixture():
    p = parse_program(DISJ3)
    assert len(p.rules) == 5
    assert sorted(p.atom_names()) == ["a", "b", "c"]
    assert p.rules[1] == Rule.of([], [], [p.table.id_of("c")])


def test_reserved_prefix_rejected():
    with pytest.raises(ParseError) as exc:
        parse_program("__x.")
    assert "reserved" in str(exc.value)
    p = parse_program("__x.", allow_generated=True)
    assert p.atom_names() == ["__x"]


@pytest.mark.parametrize(
    "bad",
    [
        ":- .",
        ".",
        "a | .",
        "a :- b",  # missing final dot
        "a ; b.",
        "A.",
        "a :- not .",
        "a :- not not b.",
    ],
)
def test_syntax_errors(bad):
    with pytest.raises(ParseError):
        parse_program(bad)


def test_error_spans():
    with pytest.raises(ParseError) as exc:
        parse_program("a.\nb | ; c.")
    assert exc.value.span.line == 2
    assert exc.value.span.column == 5


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("a ; b.", "unexpected character ';'", 1, 3),
        ("A.", "unexpected character 'A'", 1, 1),
        ("a.\nb :- c, $d.", "unexpected character '$'", 2, 9),
        ("a.\n\tb | ;", "unexpected character ';'", 2, 6),
        ("a.\r\nb :- ;", "unexpected character ';'", 2, 6),
        (".", "expected a rule, found '.'", 1, 1),
        ("not a.", "expected a rule, found 'not'", 1, 1),
        (",", "expected a rule, found ','", 1, 1),
        ("a b.", "expected '.', found 'b'", 1, 3),
        ("a :- b c.", "expected '.', found 'c'", 1, 8),
        ("a :- b\n", "expected '.', found 'end of input'", 2, 1),
        ("a | .", "expected an atom after '|', found '.'", 1, 5),
        ("a | not.", "expected an atom after '|', found 'not'", 1, 5),
        ("a :- not .", "expected an atom after 'not', found '.'", 1, 10),
        ("a :- not not b.", "expected an atom after 'not', found 'not'", 1, 10),
        ("a :- , b.", "expected a body literal, found ','", 1, 6),
        (":- a, .", "expected a body literal, found '.'", 1, 7),
        # the empty rule: a bare ':-' already lacks its body literal
        (":- .", "expected a body literal, found '.'", 1, 4),
        (":-.", "expected a body literal, found '.'", 1, 3),
        ("#false", "expected '.', found 'end of input'", 1, 7),
        ("#false :- a.", "expected '.', found ':-'", 1, 8),
        ("a :- #false.", "expected a body literal, found '#false'", 1, 6),
        ("#falsey.", "unexpected character '#'", 1, 1),
        ("__x.", "atom '__x' uses the reserved generated-atom prefix '__'", 1, 1),
        ("a :- b, __c.", "atom '__c' uses the reserved generated-atom prefix '__'", 1, 9),
        ("a :- not __c.", "atom '__c' uses the reserved generated-atom prefix '__'", 1, 10),
        # end of input is reported where the text ends (these read 1:1 and
        # 2:1, the start of the last line, before the parser kept offsets)
        ("a :- b", "expected '.', found 'end of input'", 1, 7),
        ("a.\nb |", "expected an atom after '|', found 'end of input'", 2, 4),
        ("a :-", "expected a body literal, found 'end of input'", 1, 5),
        ("a :- not", "expected an atom after 'not', found 'end of input'", 1, 9),
        # the first error in reading order is reported (this read "unexpected
        # character '$'" at 2:1 when the whole text was tokenized first)
        ("|.\n$", "expected a rule, found '|'", 1, 1),
    ],
)
def test_error_table(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert (exc.value.message, exc.value.span.line, exc.value.span.column) == (message, line, column)
    assert str(exc.value) == f"{line}:{column}: {message}"


def test_parse_memory_is_linear():
    text = "".join(f"p{i} | q{i} :- p{i + 1}, not q{i + 2}.\n" for i in range(20_000))
    tracemalloc.start()
    try:
        prog = parse_program(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(prog.rules) == 20_000
    assert peak < 24e6, f"peak {peak / 1e6:.1f} MB"


def test_comments_and_whitespace():
    p = parse_program("% header\n  a |\n b. % trailing\n")
    assert len(p.rules) == 1 and len(p.rules[0].head) == 2


def test_render_examples():
    p = parse_program(DISJ3)
    assert parse_program(render_program(p)).canonical() == p.canonical()
    assert render_program(parse_program("")) == ""
    q = parse_program(":- a.")
    assert render_program(q) == ":- a.\n"
    # the empty constraint has its own statement, over an empty universe too
    falsum = parse_program("#false.")
    assert falsum.rules == (Rule.of(()),) and render_program(falsum) == "#false.\n"
    assert parse_program("a.\n#false. % no model\n").rules == (Rule.of((0,)), Rule.of(()))
    mixed = parse_program("#false.\n:- not a.\n:- a, b.\na | b :- not c, not d.\nc :- a, not b.\n")
    assert render_program(mixed) == _reference_render(mixed)


def _reference_render(prog):
    """The rendering rule by rule through ``name_of``."""
    lines = []
    for rule in prog.rules:
        head = " | ".join(prog.table.name_of(a) for a in rule.head)
        body = [prog.table.name_of(a) for a in rule.body_pos]
        body += [f"not {prog.table.name_of(a)}" for a in rule.body_neg]
        if body:
            lines.append(f"{head}{' :- ' if head else ':- '}{', '.join(body)}.")
        else:
            lines.append(f"{head}." if head else "#false.")
    return "".join(line + "\n" for line in lines)


def test_round_trip_fuzz():
    rng = random.Random(5)
    for _ in range(150):
        p = random_program(rng, rng.randint(1, 6), 8)
        text = render_program(p)
        assert text == _reference_render(p)
        assert [render_rule(r, p.table) for r in p.rules] == text.splitlines()
        again = parse_program(text)
        assert again.canonical() == p.canonical()


def test_parse_se_set_examples():
    s = parse_se_set("a ; a b c")
    t = s.table
    assert len(s.pairs) == 1
    (pair,) = s.pairs
    assert t.names_of(pair.here) == ["a"] and t.names_of(pair.there) == ["a", "b", "c"]
    assert s.universe == pair.there

    s2 = parse_se_set("b;b\nc;c\na b;a b c d\nc d;a b c d\na b c d;a b c d")
    assert len(s2.pairs) == 5
    assert sorted(s2.table.names_of(s2.universe)) == ["a", "b", "c", "d"]

    with pytest.raises(ParseError):
        parse_se_set("a b ; a")
    with pytest.raises(ParseError, match="invalid atom name 'not'"):
        parse_se_set("not ; not")
    with pytest.raises(ParseError, match=r"^2:1: unknown directive '#atoms'$"):
        parse_se_set("; a\n#atoms a b")
    with pytest.raises(ParseError, match=r"^3:1: expected 'X ; Y' \(missing ';'\)$"):
        parse_se_set("; a\n% a comment\na a")


def test_se_set_universe_directive_and_round_trip():
    s = parse_se_set("#universe a b c\n; a")
    assert sorted(s.table.names_of(s.universe)) == ["a", "b", "c"]
    text = render_se_set(s)
    assert text.splitlines()[0].startswith("#universe")
    again = parse_se_set(text)
    assert {(p.here, p.there) for p in again.pairs} == {
        (frozenset(), frozenset({again.table.id_of("a")}))
    }

    # no directive needed when the theres cover the universe
    s2 = parse_se_set("a ; a b")
    assert "#universe" not in render_se_set(s2)
    again2 = parse_se_set(render_se_set(s2))
    assert len(again2.pairs) == 1


def reference_render_se_set(se_set):
    """The renderer the mask view replaced: sorts the SEPairs by their
    names, renders each pair's names anew."""
    table = se_set.table
    lines = []
    covered = frozenset().union(*(p.there for p in se_set.pairs)) if se_set.pairs else frozenset()
    if se_set.universe - covered:
        lines.append("#universe " + " ".join(table.names_of(se_set.universe)))
    key = lambda p: (table.names_of(p.there), table.names_of(p.here))
    lines.extend(textio.render_se_pair(p, table) for p in sorted(se_set.pairs, key=key))
    return "\n".join(lines) + ("\n" if lines else "")


def test_render_se_set_matches_the_reference_and_round_trips():
    texts = [
        "",
        "#universe a b c\n",  # a universe and no pairs
        ";\n",  # the empty pair
        "#universe a\n;\n",
        "% a comment\n\n  b ; a b   % trailing\n\n;a\n\n#universe nota b c\nnota;nota b\n",
        "nota ; nota nott\nnott;nott\n; not_\nnot_ nota ; nota not_ nott\n",
    ]
    sets = [parse_se_set(text) for text in texts]
    rng = random.Random(1819)
    for _ in range(60):
        # names interned out of name order, so that bit order and name
        # order differ
        names = rng.sample(["a", "b10", "b2", "nota", "z_", "x", "nott", "c"], rng.randint(1, 8))
        table = AtomTable()
        atoms = [table.intern(name) for name in names]
        raw = random_se_pairs(rng, atoms, density=rng.uniform(0.05, 0.6))
        universe = set(atoms) if rng.random() < 0.5 else set().union(*(y for _, y in raw))
        sets.append(SESet(table, universe, {SEPair(x, y) for x, y in raw}))
    for se_set in sets:
        text = render_se_set(se_set)
        assert text == reference_render_se_set(se_set)
        assert parse_se_set(text, table=se_set.table) == se_set
    assert [render_se_set(s) for s in sets[:4]] == ["", "#universe a b c\n", "; \n", "#universe a\n; \n"]


def test_write_dimacs_simple():
    cnf = program_cnf(parse_program("a :- not b.\nb :- not a."))
    text = write_dimacs(cnf)
    lines = text.splitlines()
    header = [l for l in lines if l.startswith("p cnf")]
    assert header == [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    # comment block maps indices to structured names
    assert any(l.startswith("c 1 = ") for l in lines)
    assert sum(1 for l in lines if not l.startswith(("c", "p"))) == len(cnf.clauses)
    assert all(l.endswith(" 0") for l in lines if not l.startswith(("c", "p")))


def test_write_dimacs_header_only():
    from dualnorm.satenc import CnfInstance

    cnf = CnfInstance(num_vars=3, clauses=[], var_index={})
    assert write_dimacs(cnf).splitlines()[-1] == "p cnf 3 0"


def test_write_dimacs_clause_lines():
    from dualnorm.satenc import CnfInstance, base_var

    # one format per clause length: the empty clause is " 0", and a hand-built
    # instance may hold its clauses as lists
    clauses = [(), (3,), (-1, 2, -3, 4, -5), (1, -2, 3, -4, 5, -6), [2, -4], [], (-6,)]
    cnf = CnfInstance(6, clauses, {base_var(0): 1, base_var(1): 2}, namer=lambda v: f"x{v.atom}")
    assert write_dimacs(cnf) == (
        "c 1 = x0\nc 2 = x1\np cnf 6 7\n 0\n3 0\n-1 2 -3 4 -5 0\n"
        "1 -2 3 -4 5 -6 0\n2 -4 0\n 0\n-6 0\n"
    )


def test_dimacs_models_decode_to_answer_sets():
    p = parse_program("a :- not b.\nb :- not a.")
    cnf = program_cnf(p)
    text = write_dimacs(cnf)
    # header agrees with the body
    v, c = map(int, text.splitlines()[-len(cnf.clauses) - 1].split()[2:])
    assert v == cnf.num_vars and c == len(cnf.clauses)
    expected = {frozenset(p.table.names_of(m)) for m in answer_sets_via_sat(p)}
    assert expected == {frozenset("a"), frozenset("b")}


def test_parse_dimacs_model_lines():
    text = "c comment\ns SATISFIABLE\nv 1 -2 3 0\n"
    assert parse_dimacs_model(text) == frozenset({1, 3})
    assert parse_dimacs_model("1 -2 0") == frozenset({1})
    # a line stops at its first non-integer token
    assert parse_dimacs_model("v 1 2 x 3 0\n4 0\n") == frozenset({1, 2, 4})


def test_corpus_round_trip_structured():
    for p in structured_corpus(9, 40):
        assert parse_program(render_program(p)).canonical() == p.canonical()


def _outcome(text, allow_generated, read=lambda *args: parse_program(*args).rules):
    """The rules and table names of a read (a parse, by default), or its
    error text and the names interned before the error."""
    table = AtomTable()
    try:
        rules = read(text, table, allow_generated)
    except ParseError as exc:
        rules = str(exc)
    return rules, [atom.name for atom in table.atoms()]


# A comment after each separator and ``not`` keyword, and before each ``.``,
# keeps every statement from the sliced read: the token loop reads it.
_SEPARATOR_RE = re.compile(r":-|[|,]|(?<![A-Za-z0-9_])not(?= )")


def _commented(text):
    return _SEPARATOR_RE.sub(lambda m: m.group() + "% c\n", text).replace(".", " % c\n.")


def test_statement_match_and_token_loop_agree():
    for prog in structured_corpus(13, 300):
        text = render_program(prog)
        for allow_generated in (False, True):
            assert _outcome(text, allow_generated) == _outcome(_commented(text), allow_generated)


@pytest.mark.parametrize(
    "text, allow_generated, expected",
    [
        ("a :- nota.", False, ["a :- nota."]),
        ("a :- not_a, b.", False, ["a :- not_a, b."]),
        ("a :- not%c\nb.", False, ["a :- not b."]),
        ("a :- not\tb.", False, ["a :- not b."]),
        ("__g.", False, "1:1: atom '__g' uses the reserved generated-atom prefix '__'"),
        ("__g.", True, ["__g."]),
        ("a :- not __g.", False, "1:10: atom '__g' uses the reserved generated-atom prefix '__'"),
        ("a :- not __g.", True, ["a :- not __g."]),
        ("a. % end", False, ["a."]),
        ("a.%", False, ["a."]),
        ("a. b", False, "1:5: expected '.', found 'end of input'"),
        # all one comment: no statement may be read from inside it
        ("%\ta.||$\n", False, []),
        ("a.\n%\tb.\nc.", False, ["a.", "c."]),
        ("a\t|\x0bb :-\x0cc,\x0b not\tnotd .\x0c\n#false\t.\x0b", False, ["a | b :- c, not notd.", "#false."]),
    ],
)
def test_statement_edge_cases(text, allow_generated, expected):
    try:
        got = render_program(parse_program(text, allow_generated=allow_generated)).splitlines()
    except ParseError as exc:
        got = str(exc)
    assert got == expected


class _CountingPattern:
    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def match(self, *args):
        self.calls += 1
        return self.pattern.match(*args)


def test_rendered_program_makes_no_token_matches(monkeypatch):
    rng = random.Random(8)
    table = AtomTable()
    atoms = [table.intern(f"x{i}") for i in range(60)]
    prog = Program.of(table, filter(None, (random_rule(rng, atoms) for _ in range(1_000))))
    assert len(prog.rules) == 1_000
    text = render_program(prog)
    counter = _CountingPattern(textio._TOKEN_RE)
    monkeypatch.setattr(textio, "_TOKEN_RE", counter)
    assert parse_program(text).canonical() == prog.canonical()
    assert counter.calls == 0
    assert parse_program(_commented(text)).canonical() == prog.canonical()
    assert counter.calls > 0


# Blanks and comments between statements, for the token-loop reader below.
_GAP_RE = re.compile(r"(?:\s|%[^\n]*)*")


def _read_by_tokens(text, table, allow_generated):
    """Every statement read by the token loop alone."""
    rules = []
    offset = _GAP_RE.match(text).end()
    while offset < len(text):
        rule, offset = textio._parse_statement(text, offset, table, allow_generated)
        rules.append(rule)
        offset = _GAP_RE.match(text, offset).end()
    return Program.of(table, rules).rules


def _noisy_program(rng, allow_generated):
    """A rendered program with extra blanks and comments, names that start
    with ``not``, repeated atoms and ``#false.``."""
    names = ["a", "b", "nota", "not_b", "notnot", "x1"] + (["__g", "__not"] if allow_generated else [])
    gap = lambda: rng.choice(["", " ", "  ", "\t", "\n", " \n\t"])
    lines = []
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.1:
            lines.append("#false.")
            continue
        head = [rng.choice(names) for _ in range(rng.randint(0, 3))]
        body = [("not " if rng.random() < 0.4 else "") + rng.choice(names) for _ in range(rng.randint(0, 3))]
        if not head and not body:
            body = [rng.choice(names)]
        text = f"{gap()}|{gap()}".join(head)
        if body:
            text += f"{gap()}:-{gap()}" + f"{gap()},{gap()}".join(body)
        lines.append(text + gap() + "." + rng.choice(["", " % note", "%", "\n% a. b :- c."]))
    return "\n".join(lines) + rng.choice(["", "\n", "\n\n% end\n"])


@pytest.mark.parametrize("allow_generated", [False, True])
def test_statement_match_equals_token_loop(allow_generated):
    rng = random.Random(21)
    texts = [
        "a | a :- b, b, not c, not c.",
        "nota :- not_b, not nota, not not_b.",
        "  a.\n\n% c\n  b :- a. % d\n#false.\n",
        "#false.",
        "",
    ]
    texts += [_noisy_program(rng, allow_generated) for _ in range(400)]
    for prog in structured_corpus(23, 100):
        texts.append(render_program(prog))
    for text in texts:
        for preset in ((), ("b", "zz", "nota")):
            table, expected = AtomTable(), AtomTable()
            for name in preset:
                table.intern(name)
                expected.intern(name)
            rules = parse_program(text, table, allow_generated).rules
            assert rules == _read_by_tokens(text, expected, allow_generated), text
            assert [a.name for a in table.atoms()] == [a.name for a in expected.atoms()], text


_MUTATED = [
    "a | b | a :- c, not d, c.\n% a note. x | y\nnota :- not_b.",
    "#false.\n:- a, not nota.\nnot_x | a.%",
    "__g :- not __h, b.\n  b.  % end\n",
    # str.split and the token pattern's \s must agree on whitespace
    "a\t|\x0bb :-\x0cc,\x0b not\tnotd .\x0c\n#false\t.\x0b",
]


@pytest.mark.parametrize("text", _MUTATED)
def test_parse_equals_token_loop_under_mutation(text):
    mutants = {text[:i] + text[i + 1 :] for i in range(len(text))}
    mutants |= {text[:i] + c + text[i:] for i in range(len(text) + 1) for c in ".,|:%# \n"}
    for mutant in sorted(mutants):
        for allow_generated in (False, True):
            expected = _outcome(mutant, allow_generated, _read_by_tokens)
            assert _outcome(mutant, allow_generated) == expected, (mutant, allow_generated)


def test_commented_statements_parse_like_plain_ones(monkeypatch):
    # a comment line before every rule, one of them with a dot in it, is
    # skipped before the statement is sliced: the same rules and names, and
    # no statement goes to the token loop
    loops = []
    token_loop = textio._parse_statement
    monkeypatch.setattr(textio, "_parse_statement", lambda *args: loops.append(1) or token_loop(*args))
    plain = sparse_text(31, 10_000, "general")
    commented = "".join(f"% rule {i}.\n{line}\n" for i, line in enumerate(plain.splitlines()))
    for allow_generated in (False, True):
        expected = parse_program(plain, allow_generated=allow_generated)
        got = parse_program(commented, allow_generated=allow_generated)
        assert got.rules == expected.rules and got.table.atoms() == expected.table.atoms()
    assert loops == []


def test_parse_restores_the_collector():
    assert gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            parse_program("a :- b.\nc | d :- not a.\n")
            assert gc.isenabled() == enabled
            for bad in ("a :- .\nb.", "a.\nb :- c"):
                with pytest.raises(ParseError):
                    parse_program(bad)
                assert gc.isenabled() == enabled
    finally:
        gc.enable()
