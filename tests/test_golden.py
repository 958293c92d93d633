"""Golden CLI output: the stdout and exit code of every subcommand on a fixed
corpus must stay byte-identical.

Inputs live in ``tests/golden/in/``: the worked examples of ``conftest.py``,
seeded ``random_dual_normal_program`` draws (2-6 atoms), each draw with its
last rule dropped, the SE- and UE-model listings of the dual-normal
programs, and small QBF/CNF instances.  ``tests/golden/expected.json`` maps
each invocation (its argv, file names relative to the input directory) to
its exit code and stdout.  Only valid invocations are recorded.

After an intended output change, re-record with::

    PYTHONPATH=src python tests/test_golden.py

which rewrites ``expected.json`` and writes any missing input file.  Review
the diff of ``expected.json`` before committing it.
"""

from __future__ import annotations

import io
import json
import random
from pathlib import Path

import pytest

from dualnorm.cli import run
from dualnorm.gen import atom_names, random_dual_normal_program
from dualnorm.textio import render_program

from conftest import DISJ3, DISJ3_DUAL, DISJ3_NORMAL, UNSPLITTABLE

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "in"
EXPECTED = GOLDEN / "expected.json"

FIXED_INPUTS = {
    "disj3.lp": DISJ3,
    "normal3.lp": DISJ3_NORMAL,
    "dual3.lp": DISJ3_DUAL,
    "ab.lp": "a | b.\n",
    "unsplittable.se": UNSPLITTABLE,
    "flip.qbf": "exists x\nforall y\nterm x x y\nterm x x -y\n",
    "false.qbf": "exists x\nforall y z\nterm x y z\n",
    "contra.cnf": "clause 1 1 1\nclause -1 -1 -1\n",
    "sat.cnf": "clause 1 2 -3\nclause -1 2 3\nclause -2 -2 1\n",
}
NOT_DUAL_NORMAL = {"disj3.lp", "normal3.lp"}
FIXED_ATOMS = {"disj3.lp": 3, "normal3.lp": 3, "dual3.lp": 3, "ab.lp": 2}

# (seed, atoms) of the random corpus; each draw is resampled until it has at
# least two rules and uses every atom.
CORPUS = [(1, 2), (2, 3), (3, 4), (4, 4), (5, 5), (6, 5), (7, 6), (8, 6)]
RAND = [f"rand{seed}.lp" for seed, _ in CORPUS]
ATOMS = {**FIXED_ATOMS, **{p: n for p, (_, n) in zip(RAND, CORPUS)}}  # program -> atom count
DUAL_NORMAL = [p for p in ATOMS if p not in NOT_DUAL_NORMAL]
DIMACS_MAX_ATOMS = 4  # larger encodings only add bulk to expected.json


def _draw(seed: int, n: int):
    rng = random.Random(seed)
    while True:
        prog = random_dual_normal_program(rng, n, 2 * n)
        if len(prog.rules) >= 2 and len(prog.atom_ids) == n:
            return prog


def _corpus_texts() -> dict[str, str]:
    texts = {}
    for name, (seed, n) in zip(RAND, CORPUS):
        prog = _draw(seed, n)
        texts[name] = render_program(prog)
        texts[name.replace(".lp", "_drop.lp")] = render_program(prog.with_rules(prog.rules[:-1]))
    return texts


def cases() -> list[list[str]]:
    """Every recorded invocation, file names relative to the input directory."""
    out: list[list[str]] = []
    for p in ATOMS:
        methods = ["brute"] if p in NOT_DUAL_NORMAL else ["brute", "dn", "sat"]
        out.append(["classify", p])
        for m in methods:
            out.append(["solve", p, "--method", m])
            out.append(["--json", "solve", p, "--method", m])
        out.append(["translate", p, "--to", "normal"])
        out.append(["translate", p, "--to", "star"])
        if p in DUAL_NORMAL and ATOMS[p] <= DIMACS_MAX_ATOMS:
            out.append(["translate", p, "--to", "dimacs"])
            out.append(["translate", p, "--to", "dimacs", "--project"])
        out.append(["se", p])
        out.append(["ue", p])
        if p in FIXED_ATOMS:
            out.append(["--json", "se", p])
            out.append(["--json", "ue", p])
    for p in DUAL_NORMAL:
        names = atom_names(ATOMS[p])
        for m in sorted({names[0], names[-1]}):
            out.append(["trace", p, "--model", " ".join(names), "--exclude", m])
        for kind in ("se", "ue"):
            out.append(["props", f"{p}.{kind}"])
            out.append(["synth", f"{p}.{kind}", "--from", kind])
    out.append(["props", "unsplittable.se"])

    pairs = [
        ("disj3.lp", "normal3.lp"),
        ("disj3.lp", "dual3.lp"),
        ("normal3.lp", "dual3.lp"),
        ("ab.lp", "disj3.lp"),
        ("dual3.lp", "ab.lp"),
        ("dual3.lp", "dual3.lp"),
    ]
    pairs += [(p, p.replace(".lp", "_drop.lp")) for p in RAND]
    pairs += list(zip(RAND, RAND[1:]))
    for p, q in pairs:
        for mode in ("as", "strong", "uniform"):
            out.append(["equiv", p, q, "--mode", mode])
        if NOT_DUAL_NORMAL.isdisjoint((p, q)):
            out.append(["equiv", p, q, "--mode", "uniform", "--dn-fast"])

    for kind, f in (("qbf", "flip.qbf"), ("qbf", "false.qbf"), ("unsat", "contra.cnf"), ("unsat", "sat.cnf")):
        out.append(["reduce", kind, f])
    out.append(["--budget", "6", "se", "rand8.lp"])
    out.append(["--budget", "6", "solve", "rand7.lp", "--method", "brute"])
    return out


def invoke(argv: list[str]) -> tuple[int, str, str]:
    resolved = [str(INPUTS / a) if (INPUTS / a).is_file() else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    code = run(resolved, out, err)
    return code, out.getvalue(), err.getvalue()


def _key(argv: list[str]) -> str:
    return " ".join(argv)


def record() -> None:
    INPUTS.mkdir(parents=True, exist_ok=True)
    for name, text in {**FIXED_INPUTS, **_corpus_texts()}.items():
        if not (INPUTS / name).exists():
            (INPUTS / name).write_text(text)
    for p in DUAL_NORMAL:
        for kind in ("se", "ue"):
            listing = INPUTS / f"{p}.{kind}"
            if not listing.exists():
                code, text, err = invoke([kind, p])
                assert code == 0, err
                listing.write_text(text)
    expected = {}
    for argv in cases():
        code, stdout, err = invoke(argv)
        assert code in (0, 1), f"{_key(argv)}: exit {code}: {err}"
        expected[_key(argv)] = {"exit": code, "stdout": stdout}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED.read_text())


def test_recorded_cases_match_the_case_list(expected):
    assert sorted(_key(a) for a in cases()) == sorted(expected)


@pytest.mark.parametrize("argv", cases(), ids=_key)
def test_golden_output(argv, expected):
    want = expected[_key(argv)]
    code, stdout, err = invoke(argv)
    assert (code, stdout) == (want["exit"], want["stdout"]), err


if __name__ == "__main__":
    record()
