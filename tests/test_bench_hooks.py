"""The benchmark's traced run (``perfbench/tracing.py``) reaches into the
program: it pins the code of the functions its composed calls copy, and it
swaps names that ``dualnorm.cli`` imports.  These tests make a change that
breaks either hook fail here, not only in the benchmark."""

import importlib.util
import io
from pathlib import Path

import pytest

import dualnorm.cli as cli
from dualnorm.dualhorn import answer_sets_dn, is_answer_set_dn, max_model_dual_horn
from dualnorm.textio import parse_program

from conftest import DISJ3_DUAL, ids_of

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mirrored_functions_match_their_digests(tracing):
    try:
        tracing.check_mirrors()
    except SystemExit as exc:
        pytest.fail(str(exc))


def test_traced_cli_matches_untraced(tracing, tmp_path):
    prog = tmp_path / "dual3.lp"
    prog.write_text(DISJ3_DUAL)
    invocations = [
        ["solve", str(prog), "--method", "dn"],
        ["solve", str(prog), "--method", "sat"],
        ["equiv", str(prog), str(prog), "--mode", "as"],
        ["equiv", str(prog), str(prog), "--mode", "uniform", "--dn-fast"],
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
    try:
        traced = outputs()
    finally:
        undo()
    assert traced == untraced
    assert all(getattr(cli, name) is value for name, value in saved.items())


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
