"""Spans and counters for the traced run.

Spans are recorded from the benchmark's side, around the calls into each
layer.  For a CLI-driven op, ``install`` swaps the functions that
``dualnorm.cli`` imported for wrappers; where a public call composes others
(``answer_sets_via_sat``, ``program_cnf``, ``answer_sets_dn``,
``is_answer_set_dn``, ``max_model_dual_horn``, ``equivalent_as``), the
wrapper calls the parts itself, in the same order and with the same
arguments, so each part gets its own span.  The traced run checks on
every op that the composed call returns what the whole call returns, and
``check_mirrors`` that the mirrored functions are still the ones the
composed calls were written from.

Counters are computed from outside, after the op has returned, so they add
nothing to any span.
"""

from __future__ import annotations

import hashlib
import sys
import types
from collections import Counter
from time import perf_counter

import dualnorm.cli as cli
from dualnorm import classify, core, dualhorn, oracle, satenc, seue, textio, transform
from dualnorm.common import DEFAULT_BUDGET

# span name -> per-layer metric fed with the span's self time
SELF_TIME_METRICS = {
    "textio.parse": "textio.parse_s",
    "textio.render": "textio.render_s",
    "textio.dimacs": "textio.dimacs_s",
    "classify.labels": "classify.labels_s",
    "satenc.build_f": "satenc.build_f_s",
    "satenc.tseitin": "satenc.tseitin_s",
    "satenc.search": "satenc.search_s",
    "satenc.decode": "satenc.decode_s",
    "dualhorn.answer_sets_dn": "dualhorn.answer_sets_dn_s",
    "dualhorn.as_check": "dualhorn.as_check_s",
    "dualhorn.pmm": "dualhorn.pmm_s",
    "dualhorn.elimination": "dualhorn.elimination_s",
    "core.is_model": "core.is_model_s",
    "transform.translate": "transform.translate_s",
    "seue.se_models": "seue.se_models_s",
    "seue.ue_models": "seue.ue_models_s",
    "seue.ue_dn": "seue.ue_dn_s",
    "seue.props": "seue.props_s",
    "seue.synth": "seue.synth_s",
    "oracle.answer_sets_bf": "oracle.answer_sets_bf_s",
    "cli.run": "cli.other_s",
}

COUNT_METRICS = [
    "textio.out_bytes",
    "classify.dep_edges",
    "satenc.formula_nodes",
    "satenc.cnf_vars",
    "satenc.cnf_clauses",
    "satenc.solver_starts",
    "dualhorn.candidates",
    "dualhorn.elimination_runs",
    "dualhorn.trace_atoms",
    "transform.out_rules",
    "seue.pairs_tested",
]


# Functions the composed calls (and the ``seue.pairs_tested`` counter) copy
# step by step, with a digest of their code.  A change to any of them must
# come with a matching change to the copy here and a new digest; otherwise
# the per-layer numbers would describe the copy, not the program.
MIRRORED_PYTHON = (3, 11)
MIRRORED = {
    "satenc.answer_sets_via_sat": "c221447654857ac4",
    "satenc.program_cnf": "b319d8e619d895a9",
    "dualhorn.is_answer_set_dn": "3efa0e0147eda015",
    "dualhorn.answer_sets_dn": "d46e27e0e46afcf6",
    "dualhorn.max_model_dual_horn": "0e58ce431a4a7d5e",
    "oracle.equivalent_as": "1b6d6115cea91889",
    "seue._ue_disagreement_dn": "6938b0c3e4fb7014",
}


def code_digest(code: types.CodeType) -> str:
    """Digest of a function's bytecode, the names it uses and its
    constants, nested code objects included."""
    h = hashlib.sha256(code.co_code)
    h.update(repr(code.co_names).encode())
    for const in code.co_consts:
        h.update((code_digest(const) if isinstance(const, types.CodeType) else repr(const)).encode())
    return h.hexdigest()[:16]


def mirror_digests() -> dict:
    modules = {"satenc": satenc, "dualhorn": dualhorn, "oracle": oracle, "seue": seue}
    out = {}
    for name in MIRRORED:
        module, _, attr = name.partition(".")
        out[name] = code_digest(getattr(modules[module], attr).__code__)
    return out


def check_mirrors() -> None:
    """Exit if a mirrored function no longer has the recorded code.  The
    digests are of CPython 3.11 bytecode; on another version the check is
    skipped with a warning."""
    if sys.version_info[:2] != MIRRORED_PYTHON:
        print(f"perfbench: mirror digests are for Python {MIRRORED_PYTHON[0]}.{MIRRORED_PYTHON[1]}; not checked",
              file=sys.stderr)
        return
    digests = mirror_digests()
    changed = [name for name, digest in MIRRORED.items() if digests[name] != digest]
    if changed:
        raise SystemExit(
            f"perfbench: {', '.join(changed)} changed since tracing.py copied them; "
            "update the composed calls there and their digests in MIRRORED"
        )


class Tracer:
    """In-memory spans ``[name, start, end, parent, op]`` plus counters.

    Counting is switched on only for the fixed op prefix whose counts must
    repeat exactly; deferred counters run after the op returns.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.counting = False
        self.counts: Counter = Counter()
        self.deferred: list = []
        self.parse_bytes = 0

    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def count_later(self, fn) -> None:
        if self.counting:
            self.deferred.append(fn)

    def flush_counts(self) -> None:
        for fn in self.deferred:
            for key, value in fn().items():
                self.counts[key] += value
        self.deferred.clear()

    def self_times(self) -> Counter:
        """Span duration minus the time its direct children cover, summed
        per span name (one thread, so children never overlap)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    # -- composed calls -----------------------------------------------------

    def program_cnf(self, prog):
        f = self.call("satenc.build_f", satenc.build_f, prog)
        cnf = self.call(
            "satenc.tseitin",
            lambda: satenc.tseitin_cnf(
                f,
                ensure_vars=satenc.declared_vars(prog),
                namer=lambda v: satenc.var_display(v, prog.table),
            ),
        )
        self.count_later(
            lambda: {
                "satenc.formula_nodes": satenc.node_count(f),
                "satenc.cnf_vars": cnf.num_vars,
                "satenc.cnf_clauses": len(cnf.clauses),
            }
        )
        return cnf

    def answer_sets_via_sat(self, prog):
        satenc._require_dual_normal(prog)
        cnf = self.program_cnf(prog)
        atoms = sorted(prog.atom_ids)
        base = self.call("satenc.decode", lambda: {cnf.var_index[satenc.base_var(a)]: a for a in atoms})
        projected = self.call("satenc.search", satenc.enumerate_models, cnf, base)
        self.count_later(lambda: {"satenc.solver_starts": len(projected) + 1})

        def decode():
            decoded = [frozenset(base[i] for i in model) for model in projected]
            rank = {a: i for i, a in enumerate(atoms)}
            decoded.sort(key=lambda s: sum(1 << rank[a] for a in s))
            return decoded

        return self.call("satenc.decode", decode)

    def is_answer_set_dn(self, prog, interp):
        def body():
            dualhorn._require_dual_normal(prog)
            if not self.call("core.is_model", core.is_model, interp, prog):
                return False
            for m in sorted(interp):
                witness = self.call("dualhorn.pmm", dualhorn.pmm, prog, interp, m)
                trace = self.elimination(witness, t_stem="__t_" + prog.table.name_of(m))
                if not trace.t_eliminated:
                    return False
            return True

        return self.call("dualhorn.as_check", body)

    def elimination(self, prog, **kwargs):
        trace = self.call("dualhorn.elimination", dualhorn.elimination_fixpoint, prog, **kwargs)
        self.count_later(
            lambda: {
                "dualhorn.elimination_runs": 1,
                "dualhorn.trace_atoms": sum(len(level) for level in trace.levels),
            }
        )
        return trace

    def answer_sets_dn(self, prog, budget=DEFAULT_BUDGET):
        def body():
            dualhorn._require_dual_normal(prog)
            atoms = sorted(prog.atom_ids)
            budget.check(len(atoms), "answer-set enumeration")
            out, candidates = [], 0
            for mask in range(1 << len(atoms)):
                interp = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
                if self.call("core.is_model", core.is_model, interp, prog):
                    candidates += 1
                    if self.is_answer_set_dn(prog, interp):
                        out.append(interp)
            self.count_later(lambda: {"dualhorn.candidates": candidates, "dualhorn.answer_sets": len(out)})
            return out

        return self.call("dualhorn.answer_sets_dn", body)

    def max_model_dual_horn(self, prog):
        def body():
            trace = self.elimination(prog)
            if trace.t_eliminated:
                return None
            return trace.max_model - {trace.t_atom}

        return self.call("dualhorn.max_model", body)

    def answer_sets_bf(self, prog, budget=DEFAULT_BUDGET):
        return self.call("oracle.answer_sets_bf", oracle.answer_sets_bf, prog, budget)

    def equivalent_as(self, p, q, budget=DEFAULT_BUDGET):
        p, q = core.ensure_shared(p, q)
        return set(self.answer_sets_bf(p, budget)) == set(self.answer_sets_bf(q, budget))

    # -- patching the CLI's imports ------------------------------------------

    def _wrap(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                self.count_later(lambda: count(args, result))
            return result

        return wrapper

    def _parse(self, fn):
        def wrapper(text, *args, **kwargs):
            self.parse_bytes += len(text.encode())
            return self.call("textio.parse", fn, text, *args, **kwargs)

        return wrapper

    def install(self):
        """Route ``dualnorm.cli`` through the spans; returns the undo."""
        out_bytes = lambda args, text: {"textio.out_bytes": len(text.encode())}
        universe = lambda args, result: {"seue.pairs_tested": 3 ** len(result.universe)}
        swaps = {
            "parse_program": self._parse(textio.parse_program),
            "parse_se_set": self._parse(textio.parse_se_set),
            "render_program": self._wrap("textio.render", textio.render_program, out_bytes),
            "render_se_set": self._wrap("textio.render", textio.render_se_set, out_bytes),
            "write_dimacs": self._wrap("textio.dimacs", textio.write_dimacs, out_bytes),
            "classify_labels": self._wrap(
                "classify.labels",
                classify.classify_labels,
                lambda args, _: {"classify.dep_edges": len(classify.dep_graph(args[0]).edges)},
            ),
            "answer_sets_via_sat": self.answer_sets_via_sat,
            "program_cnf": self.program_cnf,
            "answer_sets_dn": self.answer_sets_dn,
            "answer_sets_bf": self.answer_sets_bf,
            "equivalent_as": self.equivalent_as,
            "se_models": self._wrap("seue.se_models", seue.se_models, universe),
            "ue_models": self._wrap("seue.ue_models", seue.ue_models),
            "se_properties": self._wrap("seue.props", seue.se_properties),
            "program_from_se_set": self._wrap("seue.synth", seue.program_from_se_set),
            "program_from_ue_set": self._wrap("seue.synth", seue.program_from_ue_set),
            "_ue_disagreement_dn": self._wrap("seue.ue_dn", seue._ue_disagreement_dn, _ue_pairs_tested),
            "translate": self._wrap(
                "transform.translate", transform.translate, lambda a, r: {"transform.out_rules": len(r.rules)}
            ),
            "translate_star": self._wrap(
                "transform.translate", transform.translate_star, lambda a, r: {"transform.out_rules": len(r.rules)}
            ),
        }
        saved = {name: getattr(cli, name) for name in swaps}
        for name, fn in swaps.items():
            setattr(cli, name, fn)
        return lambda: [setattr(cli, name, fn) for name, fn in saved.items()]


def _ue_pairs_tested(args, witness) -> dict:
    """SE-pairs the per-pair UE test visited: Y masks ascend, X runs over
    the subsets of Y in ascending order, and the scan stops at the witness."""
    p, q = args[0], args[1]
    atoms = sorted(p.atom_ids | q.atom_ids)
    if witness is None:
        return {"seue.pairs_tested": 3 ** len(atoms)}
    mask = lambda s: sum(1 << i for i, a in enumerate(atoms) if a in s)
    y, x = mask(witness.there), mask(witness.here)
    before = sum(1 << bin(m).count("1") for m in range(y))
    rank = sum(1 for sub in range(x + 1) if sub & y == sub)
    return {"seue.pairs_tested": before + rank}
