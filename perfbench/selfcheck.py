"""Check that the benchmark is steady and its exact counters repeat.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py                      # every workload, 10 seeds, 2 sets
    python3 perfbench/selfcheck.py --workloads repair-churn --seeds 5 --sets 1

For each workload this runs ``run.py`` once per seed (seeds
``first-seed .. first-seed + seeds - 1``), ``sets`` times over, and for each
end-to-end metric reports the median and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  It then runs the traced run twice on the first seed
and requires every per-layer metric with unit ``count`` to be identical:
``messages``, ``bits``, ``rounds``, every ``network.accounting.messages.*``
counter, and the call counts of the traced pass, which covers the same
fixed inputs each time.

A workload fails the check when a run fails, when a spread (``setup_s``
excepted) exceeds the metric's bound in ``BENCHMARK.json``, when a later
set's median is worse than the first set's by more than the bound, or when
a counter differs.  Spreads above a third of the bound are flagged as not
yet steady.  The exit code is 0 only if every workload passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def check_workload(name: str, decl: Dict[str, Any], args: argparse.Namespace) -> bool:
    ok = True
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    medians: List[Dict[str, float]] = []
    for set_index in range(args.sets):
        values: Dict[str, List[float]] = {m["name"]: [] for m in decl["end_to_end"]}
        for seed in seeds:
            result = run_once(name, seed, args.seconds, 0)
            ok &= result["correct"]
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"  {name} set {set_index + 1} seed {seed}: "
                  + ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        medians.append({k: statistics.median(v) for k, v in values.items()})
        for metric in decl["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            s = spread(values[key])
            verdict = "ok"
            if key != "setup_s" and s > bound:
                verdict, ok = "FAIL: spread above bound", False
            elif key != "setup_s" and s > bound / 3:
                verdict = "not steady: spread above a third of the bound"
            print(f"  {name} set {set_index + 1} {key}: median {medians[-1][key]:.6g} "
                  f"spread {s:.4f} (bound {bound}) {verdict}")
    for later in medians[1:]:
        for metric in decl["end_to_end"]:
            key = metric["name"]
            drift = worse_by(medians[0][key], later[key], metric["better"])
            if drift > metric["bound"]:
                ok = False
                print(f"  {name} {key}: later set worse by {drift:.3f} > bound {metric['bound']}: FAIL")
    traced = [run_once(name, args.first_seed, args.seconds, 1) for _ in range(2)]
    exact = {
        m["name"]: [t["metrics"][m["name"]]["value"] for t in traced]
        for m in decl["per_layer"] if m["unit"] == "count"
    }
    differing = sorted(key for key, pair in exact.items() if pair[0] != pair[1])
    ok &= not differing and all(t["correct"] for t in traced)
    print(f"  {name} exact counters over two traced runs: "
          + (f"DIFFER {differing}" if differing else f"identical ({len(exact)} counters)"))
    overheads = [t["metrics"]["trace_overhead_pct"]["value"] for t in traced]
    print(f"  {name} trace_overhead_pct: {', '.join(f'{v:.2f}' for v in overheads)}")
    return ok


def main(argv: List[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        decl = json.load(handle)
    parser = argparse.ArgumentParser(prog="perfbench-selfcheck", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in decl["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=decl["run_seconds"])
    args = parser.parse_args(argv)
    failed = [name for name in args.workloads if not check_workload(name, decl, args)]
    print("selfcheck: " + (f"FAILED {failed}" if failed else "all workloads pass"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
