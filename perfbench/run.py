"""Closed-loop benchmark of the dualnorm toolkit.

    python3 perfbench/run.py --workload solve|verify|ingest --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  One caller issues one operation at a time, the next only after
the previous returns (single process, single thread).  Inputs are generated
from ``--seed`` and written to a scratch directory under the checkout,
which is removed at exit.

``--trace 0`` measures the end-to-end metrics for ``--seconds``, and at
least until every op has run once.  The program's set-up (a cold import of
the toolkit and one warm-up op per sub-kind on fixed inputs) runs nine
times; its median, scaled by probes, is ``setup_s``.  ``--trace 1`` runs
every op twice, untraced and with spans on, and reports per-layer self
times, computed counters and the tracing overhead.  The last line of stdout
is the JSON result; the lines before it are the report, one metric per line
with its unit.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter

SETUP_REPEATS = 9
# probes timed before and after each set-up
SETUP_PROBES = 20
IMPORT_PROBES = 3
# the benchmark's own modules, which hold references to the toolkit's
BENCH_MODULES = ("workloads", "inputs", "refs", "tracing")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["solve", "verify", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def tail(values):
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], math.floor(1000 * (n - 10) / n) / 10


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work (tuples,
    frozensets, a dict: the toolkit's own kind of work), with the collector
    off so that no op's garbage is charged to it.

    Other processes on a shared host slow everything in a run by up to a
    third for minutes at a time; op time divided by probe time cancels that
    and keeps what the program under test does.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        table = {(i, i & 7): frozenset((i, i >> 1, i >> 2)) for i in range(2000)}
        sum(len(v) for v in table.values())
        return perf_counter() - t0
    finally:
        gc.enable()


def import_probe() -> float:
    """Seconds to import the benchmark's own ``refs`` module cold: reading,
    compiling and running module source, the kind of work the toolkit's
    import does and that ``probe`` follows less closely."""
    sys.modules.pop("refs", None)
    t0 = perf_counter()
    importlib.import_module("refs")
    return perf_counter() - t0


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.probes: list[float] = []

    def execute(self, op, tracer=None):
        """Run one op; ``(seconds, output)`` or ``(None, None)`` on failure."""
        self.attempted += 1
        try:
            dt, ok, output = op.fn(tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, dt, output = False, None, None
        if not ok:
            self.failed += 1
            print(f"FAILED {op.sub}", file=sys.stderr)
            return None, None
        return dt, output

    def timed(self, seconds):
        """Ops in schedule order until the time is up and every op has run
        at least once; the probe is timed after each op."""
        samples = []
        pending = {id(op) for ops in self.wl.slots.values() for op in ops}
        deadline = perf_counter() + seconds
        for op in self.wl.schedule():
            if not pending and perf_counter() >= deadline:
                break
            pending.discard(id(op))
            dt, _ = self.execute(op)
            samples.append((op, dt))
            self.probes.append(probe())
        return samples


def cold_import() -> float:
    """Drop the toolkit and the benchmark modules that refer to it from
    ``sys.modules``, then import ``dualnorm.cli``, which imports every
    layer; returns the seconds the import took."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("dualnorm", *BENCH_MODULES):
            del sys.modules[name]
    gc.collect()
    t0 = perf_counter()
    importlib.import_module("dualnorm.cli")
    return perf_counter() - t0


def set_up(name, seed, workdir, repeats):
    """The program's set-up ``repeats`` times, then the measured inputs.

    One set-up is a cold import of the toolkit plus the first op of every
    slot of the warm-up workload (one input per slot, from a fixed seed);
    its time is the program's share of set-up.  The benchmark's own
    generation and references are timed apart (``setup_bench_s``): their
    cost moves with the seed's draw, and no change to the program moves it.

    Returns the workload, its runner, the median set-up time in seconds of
    a host on which ``probe`` takes 1 ms and ``import_probe`` 10 ms (the
    import's time over the import probe's and the warm-up ops' time over the
    op probe's, both measured around each set-up, so that the host's load
    cancels as it does in ``op_cost_probes``), the raw median, the
    benchmark's generation seconds and the digest of the generated files.
    """
    raw, scaled, attempted, failed = [], [], 0, 0
    for _ in range(repeats):
        probes = [probe() for _ in range(SETUP_PROBES)]
        import_probes = [import_probe() for _ in range(IMPORT_PROBES)]
        import_s = cold_import()
        from workloads import WORKLOADS

        warm_dir = workdir / "warmup"
        shutil.rmtree(warm_dir, ignore_errors=True)
        warm_dir.mkdir(parents=True)
        warm = WORKLOADS[name].warmup(warm_dir)
        runner = Runner(warm)
        runner.failed = runner.attempted = warm.setup()
        warm_s = sum(runner.execute(op)[0] or 0.0 for op in warm.first_ops())
        raw.append(import_s + warm_s)
        probes += [probe() for _ in range(SETUP_PROBES)]
        import_probes += [import_probe() for _ in range(IMPORT_PROBES)]
        scaled.append(import_s * 1e-2 / geomean(import_probes) + warm_s * 1e-3 / geomean(probes))
        attempted += runner.attempted
        failed += runner.failed

    in_dir = workdir / "inputs"
    in_dir.mkdir()
    t0 = perf_counter()
    wl = WORKLOADS[name](seed, in_dir)
    setup_failures = wl.setup()
    bench_s = perf_counter() - t0
    runner = Runner(wl)
    runner.attempted = attempted + setup_failures
    runner.failed = failed + setup_failures
    digest = hashlib.sha256()
    for path in sorted(in_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return wl, runner, statistics.median(scaled), statistics.median(raw), bench_s, digest.hexdigest()


def kind_stats(wl, samples):
    by_kind = {k: [] for k in wl.kinds}
    by_sub: dict[str, list] = {}
    in_bytes = {k: 0 for k in wl.kinds}
    for op, dt in samples:
        if dt is None:
            continue
        by_kind[op.kind].append(dt)
        by_sub.setdefault(op.sub, []).append(dt)
        in_bytes[op.kind] += op.in_bytes
    stats = {"kinds": {}, "subs": {}}
    for label, groups in (("kinds", by_kind), ("subs", by_sub)):
        for k, v in groups.items():
            if not v:
                continue
            value, pct = tail(v)
            stats[label][k] = {
                "n": len(v),
                "p50_ms": statistics.median(v) * 1e3,
                "tail_ms": value * 1e3,
                "tail_pct": pct,
            }
            if label == "kinds" and in_bytes[k]:
                stats[label][k]["mb_per_s"] = in_bytes[k] / 1e6 / sum(v)
    return stats


# the per-kind figures each workload prints by name
NAMED = {
    "solve": [("sat_solve", "p50"), ("sat_solve", "tail"), ("dn_solve", "p50"), ("dn_solve", "tail"), ("bf_solve", "p50")],
    "verify": [("as_check", "p50"), ("as_check", "tail"), ("max_model", "p50"), ("equiv", "p50"), ("se", "p50")],
    "ingest": [("classify", "mb_per_s"), ("export", "p50")],
}


def end_to_end(wl, runner, samples, setup_s):
    stats = kind_stats(wl, samples)
    kinds = stats["kinds"]
    missing = [k for k in wl.kinds if k not in kinds]
    if missing:
        raise SystemExit(f"no successful op of kind {', '.join(missing)}")
    report = []
    for kind, what in NAMED[wl.name]:
        s = kinds[kind]
        if what == "p50":
            report.append((f"{kind}_p50_ms", s["p50_ms"], "ms", f"n={s['n']}"))
        elif what == "tail":
            report.append((f"{kind}_tail_ms", s["tail_ms"], "ms", f"p{s['tail_pct']} n={s['n']}"))
        else:
            report.append((f"{kind}_mb_per_s", s["mb_per_s"], "MB/s", f"n={s['n']}"))
    for k, s in stats["subs"].items():
        report.append((f"{k}.p50_ms", s["p50_ms"], "ms", f"n={s['n']}"))
        report.append((f"{k}.tail_ms", s["tail_ms"], "ms", f"p{s['tail_pct']}"))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.append(("failed_share", runner.failed / runner.attempted, "ratio", f"{runner.failed}/{runner.attempted}"))
    # Each distinct op (one kind and input) counts once, with the geometric
    # mean of its repeats, so the op set does not change with how far the
    # last pass got; each group counts once, with the geometric mean of its
    # ops, so a kind with many inputs does not drown one with few.
    logs: dict[int, list[float]] = {}
    group_of: dict[int, str] = {}
    for op, dt in samples:
        if dt is not None:
            logs.setdefault(id(op), []).append(math.log(dt * 1e3))
            group_of[id(op)] = op.group
    groups: dict[str, list[float]] = {}
    for key, v in logs.items():
        groups.setdefault(group_of[key], []).append(sum(v) / len(v))
    for group, v in sorted(groups.items()):
        report.append((f"group.{group}_ms", math.exp(sum(v) / len(v)), "ms", f"{len(v)} distinct ops"))
    op_ms = math.exp(sum(sum(v) / len(v) for v in groups.values()) / len(groups))
    probe_ms = geomean([p * 1e3 for p in runner.probes])
    report.append(("op_geomean_ms", op_ms, "ms", f"{len(groups)} groups of equal weight, {len(logs)} distinct ops"))
    report.append(("probe_ms", probe_ms, "ms", f"n={len(runner.probes)}"))
    metrics = {
        "op_cost_probes": (op_ms / probe_ms, "probes"),
        "peak_rss_mb": (peak, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, report, stats


def per_layer(wl, runner, seconds):
    """Each op runs twice back to back, untraced and traced, in alternating
    order so that neither side always gets the warmer caches; the traced
    runs give the spans, the pairs give the tracing overhead, and the two
    outputs must be equal."""
    from tracing import COUNT_METRICS, SELF_TIME_METRICS, Tracer, check_mirrors

    check_mirrors()
    tracer = Tracer()
    pairs = []
    deadline = perf_counter() + seconds
    for i, op in enumerate(wl.schedule()):
        if i >= wl.count_ops and perf_counter() >= deadline:
            break
        tracer.op = i
        tracer.counting = i < wl.count_ops
        times, outputs = {}, {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if not traced:
                times[traced], outputs[traced] = runner.execute(op)
                continue
            undo = tracer.install()
            try:
                times[traced], outputs[traced] = runner.execute(op, tracer)
            finally:
                undo()
            tracer.flush_counts()
        if None not in times.values() and outputs[True] != outputs[False]:
            # the traced run makes composite calls part by part
            runner.failed += 1
            print(f"FAILED composed != whole for {op.sub}", file=sys.stderr)
        pairs.append((times[False], times[True]))
    ops = len(pairs)
    self_times = tracer.self_times()
    metrics = {metric: (self_times.get(span, 0.0) / ops, "s") for span, metric in SELF_TIME_METRICS.items()}
    parse_s = self_times.get("textio.parse", 0.0)
    metrics["textio.parse_mb_per_s"] = (tracer.parse_bytes / 1e6 / parse_s if parse_s else 0.0, "MB/s")
    counts = tracer.counts
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "count")
    candidates = counts.get("dualhorn.candidates", 0)
    metrics["dualhorn.useful_ratio"] = (counts.get("dualhorn.answer_sets", 0) / candidates if candidates else 0.0, "ratio")
    both = [(a, b) for a, b in pairs if a is not None and b is not None]
    metrics["trace.overhead_s"] = (sum(b - a for a, b in both) / len(both) if both else 0.0, "s")
    report = [
        ("trace.ops", ops, "count", f"counters over the first {wl.count_ops} (computed)"),
        ("trace.overhead_share", sum(b for _, b in both) / sum(a for a, _ in both) - 1 if both else 0.0, "ratio", "traced / untraced - 1"),
    ]
    return metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "dualnorm" / "__init__.py").is_file():
        print("perfbench: run from a dualnorm source checkout (src/dualnorm not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # bytecode caches are looked for under a directory that never exists,
    # so every import compiles from source, whether or not the checkout
    # holds caches (the set-up's cold import is timed)
    sys.pycache_prefix = str(root / ".perfbench_work" / "no-pycache")
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl, runner, setup_s, setup_raw_s, bench_s, digest = set_up(
            args.workload, args.seed, workdir, 1 if args.trace else SETUP_REPEATS
        )
        gc.collect()
        if args.trace:
            metrics, report = per_layer(wl, runner, args.seconds)
        else:
            samples = runner.timed(args.seconds)
            metrics, report, stats = end_to_end(wl, runner, samples, setup_s)
            report.append(("setup_raw_s", setup_raw_s, "s", f"median of {SETUP_REPEATS}"))
            report.append(("setup_bench_s", bench_s, "s", "the benchmark's generation and references, not gated"))
            print("detail " + json.dumps({"stats": stats}, sort_keys=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(f"inputs_sha256 {digest}")
    for name, value, unit, note in report:
        print(f"{name} {value:.6g} {unit} {note}".rstrip())
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
