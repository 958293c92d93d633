"""The benchmark's traced run (``perfbench/tracing.py``) reaches into the
program: it pins the code of the functions its composed calls copy, and it
swaps names that ``dualnorm.cli`` imports.  These tests make a change that
breaks either hook fail here, not only in the benchmark."""

import importlib.util
import io
import sys
from pathlib import Path

import pytest

import dualnorm.cli as cli
from dualnorm.dualhorn import answer_sets_dn, is_answer_set_dn, max_model_dual_horn
from dualnorm.textio import parse_program

from conftest import DISJ3, DISJ3_DUAL, ids_of

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mirrored_functions_match_their_digests(tracing):
    if sys.version_info[:2] != tracing.MIRRORED_PYTHON:
        pytest.skip("the mirror digests are of Python %d.%d bytecode" % tracing.MIRRORED_PYTHON)
    try:
        tracing.check_mirrors()
    except SystemExit as exc:
        pytest.fail(str(exc))


def test_traced_cli_matches_untraced(tracing, tmp_path):
    # between them the invocations call every name the tracer swaps on cli
    # but equivalent_as, which cli imports only for the swap
    prog, other, ue_set = tmp_path / "dual3.lp", tmp_path / "disj3.lp", tmp_path / "dual3.ue"
    prog.write_text(DISJ3_DUAL)
    other.write_text(DISJ3)
    out = io.StringIO()
    assert cli.run(["ue", str(prog)], out) == 0
    ue_set.write_text(out.getvalue())
    invocations = [
        ["classify", str(prog)],
        *(["solve", str(prog), "--method", method] for method in ("brute", "dn", "sat")),
        ["se", str(prog)],
        ["ue", str(prog)],
        ["--json", "se", str(prog)],
        ["props", str(ue_set)],
        *(["synth", str(ue_set), "--from", source] for source in ("se", "ue")),
        *(["equiv", str(prog), str(other), "--mode", mode] for mode in ("as", "strong", "uniform")),
        ["equiv", str(prog), str(prog), "--mode", "uniform", "--dn-fast"],
        *(["translate", str(prog), "--to", to] for to in ("normal", "star")),
        ["translate", str(prog), "--to", "dimacs", "--project"],
    ]

    def outputs():
        results = []
        for argv in invocations:
            out, err = io.StringIO(), io.StringIO()
            results.append((cli.run(argv, out, err), out.getvalue(), err.getvalue()))
        return results

    untraced = outputs()
    saved = dict(vars(cli))
    undo = tracing.Tracer().install()
    reached = set()

    def recorded(name, fn):
        def call(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)

        return call

    swapped = {name for name, value in vars(cli).items() if saved.get(name) is not value}
    for name in swapped:
        setattr(cli, name, recorded(name, getattr(cli, name)))
    try:
        traced = outputs()
    finally:
        undo()
    assert traced == untraced
    assert all(getattr(cli, name) is value for name, value in saved.items())
    assert len(swapped) == 19 and reached == swapped - {"equivalent_as"}


def test_composed_calls_match_the_program(tracing):
    # the direct calls of the verify workload, composed step by step, with
    # their counters read after the calls return
    tracer = tracing.Tracer()
    tracer.counting = True
    prog = parse_program("a | b.\nc :- a.")
    for names, verdict in (("a c", True), ("a b c", False)):
        interp = ids_of(prog, names)
        assert tracer.is_answer_set_dn(prog, interp) == is_answer_set_dn(prog, interp) == verdict
    assert tracer.answer_sets_dn(prog) == answer_sets_dn(prog) == [ids_of(prog, "b"), ids_of(prog, "a c")]
    sat = parse_program("c :- a.\n:- b.\nb :- d.")
    assert tracer.max_model_dual_horn(sat) == max_model_dual_horn(sat)
    unsat = parse_program("a.\n:- a.")
    assert tracer.max_model_dual_horn(unsat) is max_model_dual_horn(unsat) is None
    tracer.flush_counts()
    assert tracer.counts["dualhorn.elimination_runs"] > 2
    assert tracer.counts["dualhorn.trace_atoms"] > 0
    assert tracer.counts["dualhorn.candidates"] > 0

    # the unsatisfiable program alone: levels {}, {a}, {a, t}
    tracer = tracing.Tracer()
    tracer.counting = True
    tracer.max_model_dual_horn(parse_program("a.\n:- a."))
    tracer.flush_counts()
    assert tracer.counts == {"dualhorn.elimination_runs": 1, "dualhorn.trace_atoms": 3}
