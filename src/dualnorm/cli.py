"""Batch command-line front end.

Exit codes: 0 = positive verdict (consistent / equivalent / success),
1 = negative verdict, 2 = usage or input error, 3 = budget exceeded.
stdout carries data; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional, TextIO

from .classify import classify_labels
from .common import BudgetExceededError, OracleBudget, ProgramClassError, SynthesisPreconditionError, collector_paused
from .core import AtomTable, Program, require_dual_normal
from .dualhorn import answer_sets_dn, elimination_fixpoint, pmm
# equivalent_as is unused here, but perfbench/tracing.py swaps this name on cli.
from .oracle import answer_sets_bf, equivalent_as  # noqa: F401
from .satenc import answer_sets_via_sat, base_var, program_cnf
from .seue import _ue_disagreement_dn, se_models, se_properties, ue_models, program_from_se_set, program_from_ue_set
from .reductions import parse_cnf3, parse_qbf, qbf_to_program, unsat_to_singular
from .textio import (
    ParseError,
    first_se_difference,
    parse_program,
    parse_se_set,
    render_program,
    render_se_pair,
    render_se_set,
    se_set_json,
    write_dimacs,
)
from .transform import translate, translate_star

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit; surface instead
        raise _UsageError(message)


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first ``run`` of the process:
    parsing keeps no state in it between calls."""
    parser = _Parser(prog="dualnorm", description=__doc__)
    # The global flags go before or after the subcommand.  The subcommands'
    # copies default to SUPPRESS: a subparser's default would overwrite a
    # value given before the subcommand.
    flags = argparse.ArgumentParser(add_help=False)
    suppress = argparse.SUPPRESS
    for target, budget, as_json in ((parser, None, False), (flags, suppress, suppress)):
        target.add_argument("--budget", type=non_negative_int, default=budget, metavar="N",
                            help="max universe size for exhaustive operations")
        target.add_argument("--json", action="store_true", default=as_json,
                            help="JSON output where applicable")
    sub = parser.add_subparsers(dest="command", required=True)
    sub_parser = functools.partial(sub.add_parser, parents=[flags])

    p = sub_parser("classify", help="print the class labels of a program")
    p.add_argument("file")

    p = sub_parser("solve", help="print the answer sets, one per line")
    p.add_argument("file")
    p.add_argument("--method", choices=["brute", "dn", "sat"], default="brute")

    p = sub_parser("translate", help="translate a program")
    p.add_argument("file")
    p.add_argument("--to", choices=["normal", "star", "dimacs"], required=True)
    p.add_argument("--project", action="store_true",
                   help="with --to dimacs: prepend a comment listing the atom variable indices")

    p = sub_parser("se", help="print the SE-models of a program")
    p.add_argument("file")

    p = sub_parser("ue", help="print the UE-models of a program")
    p.add_argument("file")

    p = sub_parser("props", help="print the closure properties of an SE-set file")
    p.add_argument("file")

    p = sub_parser("synth", help="synthesize a dual-normal program from an SE-set file")
    p.add_argument("file")
    p.add_argument("--from", dest="source", choices=["se", "ue"], required=True)

    p = sub_parser("equiv", help="decide equivalence of two programs")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--mode", choices=["as", "strong", "uniform"], required=True)
    p.add_argument("--dn-fast", action="store_true",
                   help="use the polynomial per-pair UE test (uniform mode, dual-normal inputs)")

    p = sub_parser("reduce", help="generate a program from a QBF or CNF instance")
    p.add_argument("kind", choices=["qbf", "unsat"])
    p.add_argument("file")

    p = sub_parser("trace", help="elimination trace for a minimality witness program")
    p.add_argument("file")
    p.add_argument("--model", required=True, metavar="ATOMS", help="space-separated atom names")
    p.add_argument("--exclude", required=True, metavar="ATOM")

    return parser


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_program(path: str, table: Optional[AtomTable] = None) -> Program:
    return parse_program(_read(path), table=table, allow_generated=True)


def _names_key(table, atom_set):
    return tuple(table.names_of(atom_set))


def _print_answer_sets(prog: Program, answer_sets, out: TextIO, as_json: bool) -> int:
    listed = sorted((_names_key(prog.table, m) for m in answer_sets))
    if as_json:
        out.write(json.dumps([list(names) for names in listed]) + "\n")
    else:
        for names in listed:
            out.write(" ".join(names) + "\n")
    return EXIT_POSITIVE if listed else EXIT_NEGATIVE


def _run(args, out: TextIO, err: TextIO) -> int:
    budget = OracleBudget() if args.budget is None else OracleBudget(max_atoms=args.budget)

    if args.command == "classify":
        prog = _load_program(args.file)
        out.write(json.dumps(classify_labels(prog).to_dict(), sort_keys=True) + "\n")
        return EXIT_POSITIVE

    if args.command == "solve":
        prog = _load_program(args.file)
        if args.method == "brute":
            result = answer_sets_bf(prog, budget)
        elif args.method == "dn":
            result = answer_sets_dn(prog, budget)
        else:
            if args.budget is not None:
                # the class error comes first, as with --method dn
                require_dual_normal(prog)
                budget.check(len(prog.atom_ids), "SAT enumeration")
            result = answer_sets_via_sat(prog)
        return _print_answer_sets(prog, result, out, args.json)

    if args.command == "translate":
        if args.project and args.to != "dimacs":
            raise _UsageError("--project requires --to dimacs")
        prog = _load_program(args.file)
        if args.to == "normal":
            out.write(render_program(translate(prog)))
        elif args.to == "star":
            out.write(render_program(translate_star(prog)))
        else:
            cnf = program_cnf(prog)
            if args.project:
                indices = (cnf.var_index[base_var(a)] for a in sorted(prog.atom_ids))
                out.write("c project " + " ".join(map(str, indices)) + "\n")
            out.write(write_dimacs(cnf))
        return EXIT_POSITIVE

    if args.command in ("se", "ue"):
        prog = _load_program(args.file)
        result = se_models(prog, budget=budget)
        if args.command == "ue":
            result = ue_models(result)
        if args.json:
            out.write(json.dumps(se_set_json(result)) + "\n")
        else:
            out.write(render_se_set(result))
        return EXIT_POSITIVE

    if args.command == "props":
        se_set = parse_se_set(_read(args.file), budget=budget)
        out.write(json.dumps(se_properties(se_set).to_dict(), sort_keys=True) + "\n")
        return EXIT_POSITIVE

    if args.command == "synth":
        se_set = parse_se_set(_read(args.file), budget=budget)
        if args.source == "se":
            prog = program_from_se_set(se_set)
        else:
            prog = program_from_ue_set(se_set)
        out.write(render_program(prog))
        return EXIT_POSITIVE

    if args.command == "equiv":
        if args.dn_fast and args.mode != "uniform":
            raise _UsageError("--dn-fast requires --mode uniform")
        table = AtomTable()
        p = _load_program(args.file1, table)
        q = _load_program(args.file2, table)
        if args.mode == "as":
            diff = set(answer_sets_bf(p, budget)) ^ set(answer_sets_bf(q, budget))
            if not diff:
                return EXIT_POSITIVE
            out.write(" ".join(min(_names_key(table, m) for m in diff)) + "\n")
            return EXIT_NEGATIVE
        if args.dn_fast:
            witness = _ue_disagreement_dn(p, q, budget)
        else:
            joint = p.atom_ids | q.atom_ids
            model_sets = []
            for prog in (p, q):
                se_set = se_models(prog, universe=joint, budget=budget)
                model_sets.append(ue_models(se_set) if args.mode == "uniform" else se_set)
            witness = first_se_difference(*model_sets)
        if witness is None:
            return EXIT_POSITIVE
        out.write(render_se_pair(witness, table) + "\n")
        return EXIT_NEGATIVE

    if args.command == "reduce":
        text = _read(args.file)
        prog = qbf_to_program(parse_qbf(text)) if args.kind == "qbf" else unsat_to_singular(parse_cnf3(text))
        out.write(render_program(prog))
        return EXIT_POSITIVE

    if args.command == "trace":
        prog = _load_program(args.file)
        table = prog.table
        model_names = args.model.split()
        unknown = [n for n in model_names + [args.exclude] if n not in table or table.id_of(n) not in prog.atom_ids]
        if unknown:
            raise ValueError(f"atoms not in the program: {' '.join(sorted(set(unknown)))}")
        interp = frozenset(table.id_of(n) for n in model_names)
        m = table.id_of(args.exclude)
        witness = pmm(prog, interp, m)
        trace = elimination_fixpoint(witness, t_stem="__t_" + args.exclude)
        out.write(json.dumps(trace.to_dict(table), sort_keys=True) + "\n")
        return EXIT_POSITIVE

    raise AssertionError(f"unhandled command {args.command!r}")


@collector_paused
def run(argv: list[str], out: TextIO = None, err: TextIO = None) -> int:
    """Run one invocation; returns the exit code.  The cyclic collector is
    paused for the invocation and left as the caller had it: what it builds
    has no reference cycle, so refcounting frees it, and a collection would
    only walk the program it holds."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        return _run(args, out, err)
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except ParseError as exc:
        err.write(f"parse error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        if exc.filename is None:  # not a failed read: an error on the streams
            raise
        err.write(f"cannot read {exc.filename}\n")
        return EXIT_USAGE
    except BudgetExceededError as exc:
        err.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except (ProgramClassError, SynthesisPreconditionError, ValueError) as exc:
        err.write(f"input error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
