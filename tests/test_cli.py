import io
import json

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


def test_usage_errors(files):
    assert invoke("bogus")[0] == 2
    assert invoke("solve", files["ab.lp"], "--method", "magic")[0] == 2
    assert invoke("solve", "no_such_file.lp")[0] == 2
    assert invoke("--seed", "1", "solve", files["ab.lp"])[0] == 2


def test_budget_exit(files):
    code, _, err = invoke("--budget", "1", "solve", files["disj3.lp"], "--method", "brute")
    assert code == 3 and "budget" in err


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
