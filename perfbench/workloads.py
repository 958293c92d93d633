"""The three workloads: inputs written at set-up, their references, and the
closed-loop op schedule.

An op is ``Op(kind, sub, fn)``; ``fn(tracer)`` runs one operation on a
fresh table (the CLI parses its own file; direct calls build their program
from the rule list) and returns ``(seconds, ok, output)``.  Only the call
itself is timed; checking happens afterwards, outside the timed region.
An op's ``group`` (its kind unless set) is its weight class in the gated
cost: every group of a workload weighs the same.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import dualnorm.cli as cli
from dualnorm.dualhorn import is_answer_set_dn, max_model_dual_horn
from dualnorm.oracle import answer_sets_bf
from dualnorm.textio import parse_program

import inputs
import refs

# the seed of the warm-up inputs, the same for every run
WARMUP_SEED = 0


@dataclass
class Op:
    kind: str
    sub: str
    fn: Callable
    in_bytes: int = 0
    group: str = ""

    def __post_init__(self):
        self.group = self.group or self.kind


def cli_op(kind, sub, argv, check, in_bytes=0, group="") -> Op:
    def fn(tracer):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        code = tracer.call("cli.run", cli.run, argv, out, err) if tracer else cli.run(argv, out, err)
        dt = perf_counter() - t0
        text = out.getvalue()
        return dt, check(code, text), (code, text)

    return Op(kind, sub, fn, in_bytes, group)


def memo(check):
    """Checks that parse and re-derive a large output run once per distinct
    output; the program is deterministic, so repeats compare by content."""
    seen: dict = {}

    def cached(code, text):
        key = (code, text)
        if key not in seen:
            seen[key] = check(code, text)
        return seen[key]

    return cached


def _names(line: str) -> frozenset:
    return frozenset(line.split())


def _pairs(text: str) -> Optional[list]:
    """SE-set lines ``X ; Y`` as name pairs; ``#universe`` lines skipped."""
    out = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if ";" not in line:
            return None
        x, _, y = line.partition(";")
        out.append((_names(x), _names(y)))
    return out


def _se_text(pairs, universe) -> str:
    lines = [f"#universe {' '.join(sorted(universe))}"]
    for x, y in sorted(pairs, key=lambda p: (sorted(p[1]), sorted(p[0]))):
        lines.append(f"{' '.join(sorted(x))} ; {' '.join(sorted(y))}")
    return "\n".join(lines) + "\n"


def _rules_of(text: str):
    prog = parse_program(text, allow_generated=True)
    return inputs.named_rules(prog), prog


class Workload:
    name = ""
    # ops in the fixed prefix of the traced run whose counters must repeat
    count_ops = 0
    # the input-list attributes that ``warmup`` cuts to their first entry
    sizes: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.dir = workdir
        self.slots: dict[str, list[Op]] = {}
        self.cycle: list[str] = []

    @classmethod
    def warmup(cls, workdir: Path) -> "Workload":
        """The same workload on one input per slot, drawn from a fixed seed:
        set-up warms every op path on it, at a cost that does not move with
        the seed of the measured inputs."""
        wl = cls(WARMUP_SEED, workdir)
        for attr in cls.sizes:
            setattr(wl, attr, getattr(cls, attr)[:1])
        return wl

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def schedule(self):
        """The op sequence, the same on every call: slots in cycle order,
        each slot walking its own inputs round-robin."""
        pos = {name: 0 for name in self.slots}
        while True:
            for name in self.cycle:
                ops = self.slots[name]
                yield ops[pos[name] % len(ops)]
                pos[name] += 1

    def first_ops(self) -> list[Op]:
        """The first op of every slot, one per sub-kind."""
        return list({self.slots[name][0].sub: self.slots[name][0] for name in self.cycle}.values())


# ---------------------------------------------------------------------------


class Solve(Workload):
    """Answer-set search: every program through ``solve --method sat``,
    ``--method dn`` and ``--method brute``."""

    name = "solve"
    kinds = ("sat_solve", "dn_solve", "bf_solve")
    count_ops = 30
    # four programs for each of the 20 (atoms, answer sets) strata
    programs = range(80)
    sizes = ("programs",)

    def setup(self) -> int:
        failures = 0
        sat, dn, bf = [], [], []
        for i, (rules, expected) in enumerate(inputs.solve_corpus(self.rng, len(self.programs))):
            path = self.write(f"p{i:03d}.lp", inputs.render(rules))
            # the oracle is the brute route under test, so it is checked here
            # against the benchmark's own enumeration rather than trusted
            prog = inputs.build(rules)
            if {frozenset(prog.table.names_of(m)) for m in answer_sets_bf(prog)} != expected:
                failures += 1
            text = "".join(" ".join(n) + "\n" for n in sorted(tuple(sorted(m)) for m in expected))
            code = 0 if expected else 1
            check = lambda c, t, text=text, code=code: c == code and t == text
            size = len(inputs.render(rules))
            sat.append(cli_op("sat_solve", "sat_solve", ["solve", path, "--method", "sat"], check, size))
            dn.append(cli_op("dn_solve", "dn_solve", ["solve", path, "--method", "dn"], check, size))
            bf.append(cli_op("bf_solve", "bf_solve", ["solve", path, "--method", "brute"], check, size))
        self.slots = {"sat": sat, "dn": dn, "bf": bf}
        self.cycle = ["sat", "dn", "bf"]
        return failures


class Verify(Workload):
    """The polynomial checks above the oracle's budget, and desk-scale
    SE/UE analysis."""

    name = "verify"
    kinds = ("as_check", "max_model", "se", "equiv")
    count_ops = 14
    # twelve inputs per slot: one pass over all inputs takes twelve cycles
    union_sizes = tuple(range(200, 401, 18))
    # the elimination is quadratic in the chain length today (0.5 s and
    # about 400 MB at 4000 atoms); 5000 keeps one op under a second and the
    # process under 1 GB on a machine shared with others
    chain_sizes = tuple(range(1000, 5001, 360))
    # props and synth at 9 atoms take 10-18 s an op
    seue_sizes = (6, 7, 8) * 4
    sizes = ("union_sizes", "chain_sizes", "seue_sizes")

    def setup(self) -> int:
        rng = self.rng
        as_true, as_false = [], []
        for i, size in enumerate(self.union_sizes):
            rules, true_cand, false_cand = inputs.planted_union(rng, size)
            self.write(f"union{i}.lp", inputs.render(rules))
            self.write(f"union{i}.cand", " ".join(sorted(true_cand)) + "\n" + " ".join(sorted(false_cand)) + "\n")
            as_true.append(self._as_op(rules, true_cand, True))
            as_false.append(self._as_op(rules, false_cand, False))

        chains, unions = [], []
        for i, size in enumerate(self.chain_sizes):
            rules, model = inputs.chain(rng, size)
            self.write(f"chain{i}.lp", inputs.render(rules))
            chains.append(self._max_model_op("max_model_chain", rules, model))
        for i, size in enumerate(self.union_sizes):
            rules, model = inputs.dual_horn_union(rng, size)
            self.write(f"dhunion{i}.lp", inputs.render(rules))
            unions.append(self._max_model_op("max_model_union", rules, model))

        se_ops, ue_ops, props_ops, synth_se, synth_ue = [], [], [], [], []
        for i, n in enumerate(self.seue_sizes):
            rules = inputs.dn_program(rng, n, n)
            path = self.write(f"se{i}.lp", inputs.render(rules))
            universe = inputs.atoms_of(rules)
            se = refs.se_models(rules)
            ue = refs.ue_filter(se)
            se_ops.append(cli_op("se", "se", ["se", path], memo(self._se_check(se))))
            ue_ops.append(cli_op("se", "ue", ["ue", path], memo(self._se_check(ue))))
            for label, pairs, synth in (("se", se, synth_se), ("ue", ue, synth_ue)):
                set_path = self.write(f"se{i}.{label}", _se_text(pairs, universe))
                props = refs.se_properties(pairs)
                props_ops.append(cli_op("se", "props", ["props", set_path], lambda c, t, p=props: c == 0 and json.loads(t) == p))
                synth.append(cli_op("se", f"synth_{label}", ["synth", set_path, "--from", label],
                                    memo(self._synth_check(label, pairs, universe))))

        equiv: dict[str, list[Op]] = {m: [] for m in ("as", "strong", "uniform", "uniform_dn")}
        for i, n in enumerate(self.seue_sizes):
            p, q = (inputs.equivalent_pair if i % 2 == 0 else inputs.independent_pair)(rng, n)
            pp = self.write(f"eq{i}p.lp", inputs.render(p))
            qp = self.write(f"eq{i}q.lp", inputs.render(q))
            joint = inputs.atoms_of(p) | inputs.atoms_of(q)
            sp, sq = refs.se_models(p, joint), refs.se_models(q, joint)
            diffs = {
                "as": {" ".join(sorted(m)) for m in refs.answer_sets_from_se(sp) ^ refs.answer_sets_from_se(sq)},
                "strong": sp ^ sq,
                "uniform": refs.ue_filter(sp) ^ refs.ue_filter(sq),
            }
            diffs["uniform_dn"] = diffs["uniform"]
            for mode, extra in (("as", []), ("strong", []), ("uniform", []), ("uniform_dn", ["--dn-fast"])):
                argv = ["equiv", pp, qp, "--mode", mode.split("_")[0], *extra]
                # --dn-fast is a route of its own (seue._ue_disagreement_dn)
                group = "equiv_dn" if extra else "equiv"
                equiv[mode].append(cli_op("equiv", f"equiv_{mode}", argv, self._equiv_check(mode, diffs[mode]), group=group))

        self.slots = {
            "as_true": as_true, "as_false": as_false, "chain": chains, "dhunion": unions,
            "se": se_ops, "ue": ue_ops, "props": props_ops, "synth_se": synth_se, "synth_ue": synth_ue,
            **{f"equiv_{m}": ops for m, ops in equiv.items()},
        }
        self.cycle = [
            "as_true", "as_false", "chain", "dhunion",
            "se", "ue", "props", "props", "synth_se", "synth_ue",
            "equiv_as", "equiv_strong", "equiv_uniform", "equiv_uniform_dn",
        ]
        return 0

    @staticmethod
    def _as_op(rules, cand, expected) -> Op:
        def fn(tracer):
            prog = inputs.build(rules)
            interp = frozenset(prog.table.id_of(a) for a in cand)
            t0 = perf_counter()
            verdict = tracer.is_answer_set_dn(prog, interp) if tracer else is_answer_set_dn(prog, interp)
            dt = perf_counter() - t0
            return dt, verdict == expected, verdict

        return Op("as_check", f"as_check_{str(expected).lower()}", fn)

    @staticmethod
    def _max_model_op(sub, rules, expected) -> Op:
        def fn(tracer):
            prog = inputs.build(rules)
            t0 = perf_counter()
            model = tracer.max_model_dual_horn(prog) if tracer else max_model_dual_horn(prog)
            dt = perf_counter() - t0
            names = None if model is None else frozenset(prog.table.names_of(model))
            return dt, names == expected, names

        # chains and dual-Horn unions weigh as two groups: the chains carry
        # the quadratic elimination trace
        return Op("max_model", sub, fn, group=sub)

    @staticmethod
    def _se_check(expected):
        def check(code, text):
            got = _pairs(text)
            return code == 0 and got is not None and len(got) == len(expected) and set(got) == expected

        return check

    @staticmethod
    def _synth_check(label, pairs, universe):
        def check(code, text):
            if code != 0:
                return False
            rules, prog = _rules_of(text)
            if not all(r.is_constraint or len(r.body_pos) <= 1 for r in prog.rules):
                return False
            if not inputs.atoms_of(rules) <= universe:
                return False
            got = refs.se_models(rules, universe)
            return (got if label == "se" else refs.ue_filter(got)) == pairs

        return check

    @staticmethod
    def _equiv_check(mode, diff):
        def check(code, text):
            if not diff:
                return code == 0 and text == ""
            if code != 1 or not text.endswith("\n") or text.count("\n") != 1:
                return False
            line = text[:-1]
            if mode == "as":
                return " ".join(sorted(line.split())) in diff
            got = _pairs(text)
            return got is not None and got[0] in diff

        return check


class Ingest(Workload):
    """Large sparse texts through ``classify``; mid-size programs through
    ``translate --to normal|star|dimacs``."""

    name = "ingest"
    kinds = ("classify", "export")
    count_ops = 7
    # (rules drawn, class profile): 10^4-10^5 rules, 0.17-1.7 MB of text;
    # deduplication drops about 8 % of the rules
    texts = ((10_000, "dual_normal"), (30_000, "normal"), (100_000, "general"))
    export_sizes = (8, 9, 10, 10, 11, 12)
    sizes = ("texts", "export_sizes")

    def setup(self) -> int:
        classify_ops = []
        for i, (n_rules, profile) in enumerate(self.texts):
            rules = inputs.sparse_program(self.rng, n_rules, profile)
            text = inputs.render(rules)
            path = self.write(f"big{i}.lp", text)
            labels = refs.class_labels(rules)
            labels.pop("dep_edges")
            check = lambda c, t, labels=labels: c == 0 and json.loads(t) == labels
            classify_ops.append(cli_op("classify", "classify", ["classify", path], check, len(text.encode())))

        export: dict[str, list[Op]] = {"normal": [], "star": [], "dimacs": []}
        for i, n in enumerate(self.export_sizes):
            rules = inputs.dn_program(self.rng, n, n)
            path = self.write(f"mid{i}.lp", inputs.render(rules))
            for target, ops in export.items():
                check = self._dimacs_check(rules) if target == "dimacs" else self._translate_check(rules, target == "star")
                ops.append(cli_op("export", f"export_{target}", ["translate", path, "--to", target], memo(check)))

        self.slots = {"classify": classify_ops, **{f"export_{t}": ops for t, ops in export.items()}}
        self.cycle = ["classify"] + ["export_normal", "export_star", "export_dimacs"] * 2
        return 0

    @staticmethod
    def _translate_check(rules, star):
        expected = refs.translation(rules, star)

        def check(code, text):
            if code != 0:
                return False
            _, prog = _rules_of(text)
            return len(prog.rules) == len(expected) and prog.canonical() == expected

        return check

    @staticmethod
    def _dimacs_check(rules):
        masks = refs.Masks(rules)
        answer_sets = refs.answer_sets(rules)
        wrong = next(
            (masks.names(y) for y in range(1 << len(masks.atoms)) if masks.is_model(y) and masks.names(y) not in answer_sets),
            None,
        )
        probes = [(m, True) for m in sorted(answer_sets, key=sorted)]
        if wrong is not None:
            probes.append((wrong, False))

        def check(code, text):
            if code != 0:
                return False
            num_vars, clauses, names = refs.parse_dimacs(text)
            return all(
                refs.cnf_accepts(num_vars, clauses, names, refs.intended_assignment(rules, m)) == accepted
                for m, accepted in probes
            )

        return check


WORKLOADS = {w.name: w for w in (Solve, Verify, Ingest)}
