#!/usr/bin/env python3
"""Steadiness report: run each workload N times and summarise every metric.

    python3 perfbench/steadiness.py --runs 10 --seconds 20
    python3 perfbench/steadiness.py --runs 2 --trace 1 --same-seed --workload pop_replay

Each run is its own ``run.py`` process (one at a time, each awaited), with
seeds ``--seed-base``, ``--seed-base + 1``, ... (or one seed repeated with
``--same-seed``).  For every metric it prints the median, quartiles, min,
max and the spread (inter-quartile distance / median); end-to-end metrics
are flagged when the spread exceeds a third of their bound in
``BENCHMARK.json``.  With ``--same-seed`` it also lists the metrics that
read exactly the same in every run (the deterministic counts).  Raw
results go to ``.perfbench_out/steadiness-<workload>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def report(workload: str, results: list, bounds: dict, same_seed: bool) -> bool:
    """Print the per-metric table; False if a bounded metric is unsteady."""
    steady = True
    print(f"\n== {workload}: {len(results)} runs, "
          f"all correct: {all(r['correct'] for r in results)}")
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'min':>12s} {'max':>12s} {'spread':>8s}")
    identical = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            sp = spread(values)
        else:
            q1 = q3 = med
            sp = 0.0
        flag = ""
        bound = bounds.get(name)
        if bound is not None and name != "setup_s" and sp > bound / 3:
            flag = f"  > bound/3 ({bound / 3:.3f})"
            steady = False
        if len(set(values)) == 1:
            identical.append(name)
        print(f"{name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{min(values):12.6g} {max(values):12.6g} {sp:8.4f}{flag}")
    if same_seed:
        print(f"identical in every run ({len(identical)}): {', '.join(identical)}")
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if not args.trace else {}
    ok = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.seed_base if args.same_seed else args.seed_base + i
            results.append(run_once(workload, seed, seconds, args.trace))
            print(f"  {workload} seed={seed} done", flush=True)
        OUT.mkdir(exist_ok=True)
        (OUT / f"steadiness-{workload}-trace{args.trace}.json").write_text(
            json.dumps(results, indent=1)
        )
        ok &= report(workload, results, bounds, args.same_seed)
        ok &= all(r["correct"] for r in results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
