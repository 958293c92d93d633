"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload, runs two traced runs of seed 1 in separate
processes under different hash seeds.  They must generate byte-identical
inputs (the ``inputs_sha256`` report line) and report identical computed
counters (every per-layer metric whose unit is ``count`` or ``ratio``).
Exits 1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

WORKLOADS = ("solve", "verify", "ingest")
SEED = 1
# the counters cover a fixed prefix of ops, so a short run suffices
SECONDS = 2


def traced_run(workload: str, hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("inputs_sha256 "))
    result = json.loads(lines[-1])
    counters = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "ratio")}
    return digest, counters, result["correct"]


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, second = (traced_run(workload, h) for h in ("1", "2"))
        differ = [k for k in first[1] if first[1][k] != second[1].get(k)]
        same_inputs = first[0] == second[0]
        good = same_inputs and not differ and first[2] and second[2]
        ok &= good
        print(f"{workload}: inputs {'identical' if same_inputs else 'DIFFER'}, "
              f"{len(first[1])} counters {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}, "
              f"outputs {'correct' if first[2] and second[2] else 'WRONG'} -> {'PASS' if good else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
