"""Measure every workload over a range of seeds and write a baseline file.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Reads ``BENCHMARK.json`` at the checkout root for the command, the
workloads, the run length and the bounds.  For each workload it makes one
untraced run per seed, one after another, then one traced run on the first
seed.  For every end-to-end metric it records the ten values, their median
and their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, which
should stay below a third of the metric's bound; it exits 1 if one does
not.  Per-kind medians and tails come from the runs' ``detail`` lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds, trace):
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = next((json.loads(l[len("detail "):]) for l in lines if l.startswith("detail ")), None)
    return json.loads(lines[-1]), detail


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=None, help="where to write the JSON (default: stdout only)")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seeds = seeds_of(args.seeds)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seeds": seeds,
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    steady = True
    for workload in names:
        values: dict[str, list[float]] = {}
        kinds: dict[str, dict[str, list[float]]] = {}
        failed = 0
        for seed in seeds:
            result, detail = run(bench["command"], workload, seed, bench["run_seconds"], 0)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for kind, s in detail["stats"]["kinds"].items():
                for key in ("p50_ms", "tail_ms", "tail_pct", "n", "mb_per_s"):
                    if key in s:
                        kinds.setdefault(kind, {}).setdefault(key, []).append(s[key])
        end_to_end = {}
        for name, vals in values.items():
            q = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q[2] - q[0]) / median
            ok = spread < bounds[name] / 3
            steady &= ok
            end_to_end[name] = {"median": median, "spread": spread, "bound": bounds[name], "steady": ok, "values": vals}
            print(f"{workload:7s} {name:16s} median {median:10.4f}  spread {spread:6.3f}  bound {bounds[name]}"
                  f"{'' if ok else '  NOT STEADY'}")
        traced, _ = run(bench["command"], workload, seeds[0], bench["run_seconds"], 1)
        out["workloads"][workload] = {
            "failed": failed,
            "end_to_end": end_to_end,
            "kinds": {k: {key: statistics.median(v) for key, v in s.items()} for k, s in kinds.items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
