"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed on every workload, interleaving the
workloads (seed 1 on each workload, then seed 2, ...) so that a slow
stretch of a shared host does not fall on one workload alone.  For each
metric it prints the median over the runs and the distance between the first
and third quartile as a share of the median, next to the metric's bound
from BENCHMARK.json.  Run from the repository root::

    python3 perfbench/spread.py

Every run's result line is appended to ``.perfbench/spread.jsonl``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import run

RUNS = 10


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    run.OUT_DIR.mkdir(exist_ok=True)
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    failures = 0
    with open(run.OUT_DIR / "spread.jsonl", "a", encoding="utf-8") as log:
        for seed in range(1, RUNS + 1):
            for workload in workloads:
                cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    failures += 1
                    continue
                result = json.loads(lines[-1])
                log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
                failures += result["failed"] > 0
                for name, metric in result["metrics"].items():
                    values[workload].setdefault(name, []).append(metric["value"])
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    for workload in workloads:
        for name, vals in values[workload].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            share = (q3 - q1) / med
            print(f"{workload:15s} {name:12s} median {med:10.4f}  spread {share:6.3f}"
                  f"  bound {bounds.get(name, float('nan')):.2f}  n={len(vals)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
