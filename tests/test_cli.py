import errno
import gc
import io
import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import dualnorm.cli as cli
import dualnorm.oracle as oracle
from dualnorm.cli import run

from conftest import DISJ3, DISJ3_DUAL, DISJ3_NORMAL, UNSPLITTABLE


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "disj3.lp": DISJ3,
        "normal3.lp": DISJ3_NORMAL,
        "dual3.lp": DISJ3_DUAL,
        "ab.lp": "a | b.\n",
        "unsplittable.se": UNSPLITTABLE,
        "flip.qbf": "exists x\nforall y\nterm x x y\nterm x x -y\n",
        "contra.cnf": "clause 1 1 1\nclause -1 -1 -1\n",
    }.items():
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_classify_json(files):
    code, out, _ = invoke("classify", files["dual3.lp"])
    assert code == 0
    labels = json.loads(out)
    assert labels["dual_normal"] and not labels["normal"]


def test_solve_exit_codes(files):
    code, out, _ = invoke("solve", files["disj3.lp"], "--method", "brute")
    assert code == 1 and out == ""
    code, out, _ = invoke("solve", files["ab.lp"], "--method", "brute")
    assert code == 0 and out == "a\nb\n"


def test_solve_methods_agree(files):
    results = {}
    for method in ("brute", "dn", "sat"):
        code, out, _ = invoke("solve", files["dual3.lp"], "--method", method)
        results[method] = (code, out)
    assert results["brute"] == results["dn"] == results["sat"] == (1, "")
    for method in ("brute", "dn", "sat"):
        code, out, _ = invoke("solve", files["ab.lp"], "--method", method)
        assert (code, out) == (0, "a\nb\n")


def test_solve_dn_requires_dual_normal(files):
    code, _, err = invoke("solve", files["disj3.lp"], "--method", "dn")
    assert code == 2 and "dual-normal" in err
    code, _, err = invoke("solve", files["disj3.lp"], "--method", "sat")
    assert code == 2
    code, _, err = invoke("--budget", "1", "solve", files["disj3.lp"], "--method", "sat")
    assert code == 2 and "dual-normal" in err


def test_se_ue_listing(files):
    code, out, _ = invoke("se", files["disj3.lp"])
    assert code == 0
    assert out.splitlines() == ["a ; a b c", "a b c ; a b c", "b ; a b c"]
    code, out, _ = invoke("ue", files["dual3.lp"])
    assert out.splitlines() == ["a b ; a b c", "a b c ; a b c"]


def test_props(files):
    code, out, _ = invoke("props", files["unsplittable.se"])
    assert code == 0
    props = json.loads(out)
    assert props["ue_complete"] and props["closed_here_union"] and not props["splittable"]


def test_synth_se_and_errors(files, tmp_path):
    se_file = tmp_path / "dual3.se"
    _, listing, _ = invoke("se", files["dual3.lp"])
    se_file.write_text(listing)
    code, out, _ = invoke("synth", str(se_file), "--from", "se")
    assert code == 0 and out.strip()
    prog_file = tmp_path / "synth.lp"
    prog_file.write_text(out)
    code, _, _ = invoke("equiv", str(prog_file), files["dual3.lp"], "--mode", "strong")
    assert code == 0

    code, _, err = invoke("synth", files["unsplittable.se"], "--from", "ue")
    assert code == 2 and "splittable" in err


def test_equiv_modes_and_witnesses(files):
    code, out, _ = invoke("equiv", files["disj3.lp"], files["normal3.lp"], "--mode", "strong")
    assert code == 1
    assert out == "; a b c\n"  # the extra SE-pair of the pruned program

    code, out, _ = invoke("equiv", files["disj3.lp"], files["normal3.lp"], "--mode", "uniform")
    assert code == 0

    code, out, _ = invoke("equiv", files["disj3.lp"], files["dual3.lp"], "--mode", "uniform")
    assert code == 1 and out.strip()

    code, out, _ = invoke("equiv", files["dual3.lp"], files["dual3.lp"], "--mode", "uniform", "--dn-fast")
    assert code == 0

    code, out, _ = invoke("equiv", files["ab.lp"], files["disj3.lp"], "--mode", "as")
    assert code == 1 and out.strip()
    code, out, _ = invoke("equiv", files["ab.lp"], files["ab.lp"], "--mode", "as")
    assert code == 0


def test_equiv_as_solves_each_program_once(files, tmp_path, monkeypatch):
    solved = []
    solve = oracle.answer_sets_bf

    def counting(prog, *args):
        solved.append(prog)
        return solve(prog, *args)

    monkeypatch.setattr(cli, "answer_sets_bf", counting)
    monkeypatch.setattr(oracle, "answer_sets_bf", counting)
    a = tmp_path / "a.lp"
    a.write_text("a.\n")
    code, out, _ = invoke("equiv", files["ab.lp"], str(a), "--mode", "as")
    assert (code, out) == (1, "b\n")
    assert len(solved) == 2


def test_dn_fast_needs_uniform_mode(files):
    for mode in ("as", "strong"):
        code, out, err = invoke("equiv", files["dual3.lp"], files["ab.lp"], "--mode", mode, "--dn-fast")
        assert code == 2 and out == "" and "--dn-fast requires --mode uniform" in err


def test_translate_round_trip_solvable(files, tmp_path):
    code, out, _ = invoke("translate", files["ab.lp"], "--to", "normal")
    assert code == 0
    translated = tmp_path / "translated.lp"
    translated.write_text(out)
    code, labels_out, _ = invoke("classify", str(translated))
    assert json.loads(labels_out)["normal"]

    code, out, _ = invoke("translate", files["ab.lp"], "--to", "dimacs")
    assert code == 0
    assert any(line.startswith("p cnf ") for line in out.splitlines())

    code, projected, _ = invoke("translate", files["ab.lp"], "--to", "dimacs", "--project")
    assert code == 0
    assert projected.splitlines()[0] == "c project 1 2"
    assert projected.splitlines()[1:] == out.splitlines()


def test_reduce(files, tmp_path):
    code, out, _ = invoke("reduce", "qbf", files["flip.qbf"])
    assert code == 0
    generated = tmp_path / "from_qbf.lp"
    generated.write_text(out)
    code, solved, _ = invoke("solve", str(generated), "--method", "brute")
    assert code == 0  # the flip QBF is true, so the program is consistent

    code, out, _ = invoke("reduce", "unsat", files["contra.cnf"])
    assert code == 0
    singular = tmp_path / "from_cnf.lp"
    singular.write_text(out)
    code, labels_out, _ = invoke("classify", str(singular))
    assert code == 0 and json.loads(labels_out)["singular"]


def test_trace(files):
    code, out, _ = invoke("trace", files["ab.lp"], "--model", "a", "--exclude", "a")
    assert code == 0
    data = json.loads(out)
    assert data["t_eliminated"] is True
    assert data["levels"][0] == []
    assert data["levels"] == [[], ["a", "b"], ["__t_a", "a", "b"]]

    code, _, err = invoke("trace", files["ab.lp"], "--model", "a", "--exclude", "zz")
    assert code == 2


def test_trace_names_the_rule_that_is_not_dual_horn(tmp_path):
    p = tmp_path / "g.lp"
    p.write_text("a :- b, c.\nb | c.\n")
    code, out, err = invoke("trace", str(p), "--model", "a b c", "--exclude", "a")
    assert (code, out) == (2, "")
    assert err == "input error: rule 'a :- b, c.' is not dual-Horn (needs |body_pos| <= 1 and no negation)\n"


def test_usage_errors(files, tmp_path):
    assert invoke("bogus")[0] == 2
    assert invoke("solve", files["ab.lp"], "--method", "magic")[0] == 2
    assert invoke("solve", "no_such_file.lp") == (2, "", "cannot read no_such_file.lp\n")
    assert invoke("classify", str(tmp_path)) == (2, "", f"cannot read {tmp_path}\n")
    assert invoke("--seed", "1", "solve", files["ab.lp"])[0] == 2
    assert invoke("--budget", "-1", "solve", files["ab.lp"])[0] == 2
    for target in ("normal", "star"):
        projected = invoke("translate", files["ab.lp"], "--to", target, "--project")
        assert projected == (2, "", "usage error: --project requires --to dimacs\n")
    malformed = tmp_path / "malformed.lp"
    malformed.write_text("a.\nb :- .\n")
    assert invoke("solve", str(malformed)) == (2, "", "parse error: 2:6: expected a body literal, found '.'\n")


def test_a_stream_error_is_raised_not_reported_as_a_read_error(files):
    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise OSError(errno.EPIPE, "broken pipe")

    err = io.StringIO()
    with pytest.raises(BrokenPipeError):
        run(["solve", files["ab.lp"]], BrokenPipe(), err)
    assert err.getvalue() == ""


def test_python_dash_m(files):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "dualnorm", "classify", files["dual3.lp"]],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (done.returncode, done.stdout, done.stderr) == invoke("classify", files["dual3.lp"])


def test_python_dash_m_solves_the_golden_input():
    golden = Path(__file__).parent / "golden"
    expected = json.loads((golden / "expected.json").read_text())["solve ab.lp --method sat"]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "dualnorm", "solve", "ab.lp", "--method", "sat"],
        capture_output=True, text=True, env=env, cwd=golden / "in", check=False,
    )
    assert (done.returncode, done.stdout, done.stderr) == (expected["exit"], expected["stdout"], "") == (0, "a\nb\n", "")


@pytest.mark.parametrize("entry", ["main", "dualnorm", "dualnorm.cli"])
def test_entry_points_exit_with_the_code_of_run(entry, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["dualnorm", "bogus"])
    with pytest.raises(SystemExit) as exit_info, warnings.catch_warnings():
        # running dualnorm.cli as __main__ warns that it is already imported
        warnings.simplefilter("ignore", RuntimeWarning)
        cli.main() if entry == "main" else runpy.run_module(entry, run_name="__main__")
    code, out, err = invoke("bogus")
    assert (exit_info.value.code, *capsys.readouterr()) == (code, out, err) and code == 2


def test_parser_is_built_once(files):
    cli._build_parser.cache_clear()
    assert invoke("solve", files["ab.lp"])[0] == 0
    assert invoke("classify", files["ab.lp"])[0] == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_shared_parser_keeps_no_state(files):
    bad = invoke("solve", files["ab.lp"], "--method", "magic")
    good = invoke("solve", files["ab.lp"])
    again = invoke("solve", files["ab.lp"], "--method", "magic")
    assert (bad[0], good[0], again[0]) == (2, 0, 2)
    assert again == bad
    assert good == (0, "a\nb\n", "")


def test_budget_exit(files):
    code, _, err = invoke("--budget", "1", "solve", files["disj3.lp"], "--method", "brute")
    assert code == 3 and "budget" in err
    for method in ("dn", "sat"):
        code, _, err = invoke("--budget", "1", "solve", files["dual3.lp"], "--method", method)
        assert code == 3 and "budget" in err


def test_props_and_synth_budget(files, tmp_path):
    # the budget reaches props and synth, and a grid over more than 14 atoms
    # (4^15 bits) is refused whatever the budget says
    wide = tmp_path / "wide.se"
    wide.write_text("".join(f"; a{i}\n" for i in range(15)) + "a0 a14 ; a0 a14\n")
    for argv in (["props"], ["synth", "--from", "se"], ["synth", "--from", "ue"]):
        code, out, err = invoke(*argv, str(wide))
        assert (code, out) == (3, "") and "budget" in err
        code, out, err = invoke("--budget", "30", *argv, str(wide))
        assert (code, out) == (3, "") and "budget" in err
        code, _, err = invoke("--budget", "1", *argv, files["unsplittable.se"])
        assert code == 3 and "budget" in err


def test_se_ue_and_equiv_take_more_atoms_than_a_grid(tmp_path):
    # se, ue and equiv read the rows of SE-sets, not the grid, so 15 atoms
    # are within the default budget
    facts = "".join(f"a{i}.\n" for i in range(2, 15))
    p, q = tmp_path / "p.lp", tmp_path / "q.lp"
    p.write_text("a0 :- not a1.\na1 :- not a0.\n" + facts)
    q.write_text("a0 | a1.\n" + facts)
    code, out, _ = invoke("se", str(p))
    assert code == 0 and len(out.splitlines()) == 6
    (_, ue_p, _), (code, ue_q, _) = invoke("ue", str(p)), invoke("ue", str(q))
    assert code == 0 and ue_p == ue_q and len(ue_q.splitlines()) == 5
    assert invoke("equiv", str(p), str(q), "--mode", "uniform") == (0, "", "")
    rest = " ".join(sorted(f"a{i}" for i in range(2, 15)))
    assert invoke("equiv", str(p), str(q), "--mode", "strong") == (1, f"{rest} ; a0 a1 {rest}\n", "")


def test_deterministic_output(files):
    first = invoke("se", files["disj3.lp"])
    second = invoke("se", files["disj3.lp"])
    assert first == second
    t1 = invoke("translate", files["disj3.lp"], "--to", "star")
    t2 = invoke("translate", files["disj3.lp"], "--to", "star")
    assert t1 == t2


def test_json_flag(files):
    code, out, _ = invoke("--json", "solve", files["ab.lp"], "--method", "brute")
    assert code == 0 and json.loads(out) == [["a"], ["b"]]
    code, out, _ = invoke("--json", "se", files["ab.lp"])
    pairs = json.loads(out)
    assert {"here": ["a"], "there": ["a"]} in pairs


def test_se_json_lists_the_pairs_in_text_order(files, tmp_path):
    # names interned out of name order: the pair order is by names, the
    # masks by atom ids
    prog = tmp_path / "order.lp"
    prog.write_text("zz | b10 :- not nota.\nb2 :- zz.\nnota | b2.\n")
    for command in ("se", "ue"):
        _, text, _ = invoke(command, str(prog))
        _, listing, _ = invoke("--json", command, str(prog))
        lines = [line.partition(";") for line in text.splitlines()]
        assert [(here.split(), there.split()) for here, _, there in lines] == [
            (pair["here"], pair["there"]) for pair in json.loads(listing)
        ]


@pytest.mark.parametrize(
    "command",
    [
        ("solve", "disj3.lp", "--method", "brute"),
        ("solve", "dual3.lp", "--method", "sat"),
        ("solve", "ab.lp", "--method", "dn"),
        ("se", "disj3.lp"),
        ("se", "ab.lp"),
        ("equiv", "disj3.lp", "normal3.lp", "--mode", "strong"),
        ("equiv", "ab.lp", "ab.lp", "--mode", "uniform"),
    ],
)
@pytest.mark.parametrize("flags", [("--json",), ("--budget", "1"), ("--budget", "3", "--json")])
def test_global_flags_after_the_subcommand(files, command, flags):
    argv = [files.get(arg, arg) for arg in command]
    before = invoke(*flags, *argv)
    after = invoke(*argv, *flags)
    assert after == before
    assert before[0] in (0, 1, 3)


def test_global_flag_after_the_subcommand_overrides():
    # a value after the subcommand is read last; a missing one keeps the
    # value given before it
    parse = cli._build_parser().parse_args
    assert parse(["--budget", "9", "solve", "f", "--budget", "3"]).budget == 3
    args = parse(["--budget", "9", "--json", "solve", "f"])
    assert (args.budget, args.json) == (9, True)
    args = parse(["solve", "f"])
    assert (args.budget, args.json) == (None, False)


def _invocations(files, tmp_path):
    """One valid invocation of each subcommand (each ``solve`` method and
    ``translate`` target), with the SE- and UE-model listings of dual3.lp
    as synthesis inputs."""
    for command in ("se", "ue"):
        listing = tmp_path / f"dual3.{command}"
        listing.write_text(invoke(command, files["dual3.lp"])[1])
        files = {**files, listing.name: str(listing)}
    commands = [
        ("classify", "disj3.lp"),
        *(("solve", "dual3.lp", "--method", method) for method in ("brute", "dn", "sat")),
        *(("translate", "dual3.lp", "--to", target) for target in ("normal", "star", "dimacs")),
        ("se", "disj3.lp"),
        ("--json", "ue", "dual3.lp"),
        ("props", "unsplittable.se"),
        ("synth", "dual3.se", "--from", "se"),
        ("synth", "dual3.ue", "--from", "ue"),
        *(("equiv", "dual3.lp", "ab.lp", "--mode", mode) for mode in ("as", "strong", "uniform")),
        ("equiv", "dual3.lp", "ab.lp", "--mode", "uniform", "--dn-fast"),
        ("reduce", "qbf", "flip.qbf"),
        ("reduce", "unsat", "contra.cnf"),
        ("trace", "ab.lp", "--model", "a", "--exclude", "a"),
    ]
    return [[files.get(arg, arg) for arg in command] for command in commands]


def test_run_leaves_the_collector_as_the_caller_had_it(files, tmp_path):
    malformed = tmp_path / "malformed.lp"
    malformed.write_text("a.\nb :- .\n")
    refusals = [
        (["bogus"], 2),
        (["solve", str(malformed)], 2),
        (["--budget", "1", "solve", files["disj3.lp"]], 3),
    ]
    cases = [(argv, None) for argv in _invocations(files, tmp_path)] + refusals
    try:
        for enabled in (True, False):
            for argv, code in cases:
                (gc.enable if enabled else gc.disable)()
                assert invoke(*argv)[0] in ((0, 1) if code is None else (code,)), argv
                assert gc.isenabled() is enabled, argv
    finally:
        gc.enable()


def test_run_leaves_no_cyclic_garbage(files, tmp_path):
    # refcounting must free what an invocation builds, as the collector is
    # paused for it; the shared parser is built before the first count
    invocations = _invocations(files, tmp_path)
    cli._build_parser()
    gc.collect()
    gc.disable()
    try:
        for argv in invocations:
            assert invoke(*argv)[0] in (0, 1), argv
            assert gc.collect() == 0, argv
    finally:
        gc.enable()
