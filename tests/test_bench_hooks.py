"""The benchmark's traced run (``perfbench/tracing.py``) reaches into the
program: it pins the code of the functions its composed calls copy, and it
swaps names that ``dualnorm.cli`` imports.  These tests make a change that
breaks either hook fail here, not only in the benchmark."""

import importlib.util
import io
from pathlib import Path

import pytest

import dualnorm.cli as cli

from conftest import DISJ3_DUAL

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
