"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mst-dense --seed 1 --seconds 30 --trace 0

The workloads, the metric names, their units and their bounds are declared
in ``BENCHMARK.json`` at the root; ``perfbench/README.md`` says why each
workload exists.  The program is imported from ``src/`` of the same
checkout, with every ``REPRO_*`` environment variable cleared, so the
default configuration is what gets measured.

With ``--trace 0`` set-up runs ``SETUP_REPS`` times in fresh processes (the
last one goes on to measure) and ``setup_s`` is their median.  With
``--trace 1`` one process measures untraced and then traced, and the
per-layer figures are printed.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every item was certified.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPS = 5
DEADLINE_S = 170.0
HELD_OUT_SEED = 9001

#: The wall-clock figures under the names a user of each workload knows.
ALIASES: Dict[str, List[Tuple[str, str, float, str]]] = {
    "mst-dense": [("solve_s", "wall.item_p50_ms", 1e-3, "s")],
    "st-sparse": [("solve_s", "wall.item_p50_ms", 1e-3, "s")],
    "repair-churn": [
        ("update_p50_ms", "wall.item_p50_ms", 1.0, "ms"),
        ("update_p90_ms", "wall.item_p90_ms", 1.0, "ms"),
        ("updates_per_s", "wall.items_per_s", 1.0, "1/s"),
    ],
}


class BenchError(Exception):
    """The run cannot produce a result."""


def load_declaration() -> Dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def child_env() -> Dict[str, str]:
    """The environment without ``REPRO_*`` overrides, importing ``src/``.

    A fixed hash seed gives every run the same string hashes, so dict and
    set layouts do not differ from one process to the next.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A ``worker.py`` process whose stdout lines arrive on a queue."""

    def __init__(self, args: List[str], deadline: float) -> None:
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def next_line(self) -> str:
        remaining = self.deadline - time.perf_counter()
        try:
            line = self.lines.get(timeout=max(remaining, 0.0))
        except queue.Empty:
            raise BenchError("the workload process ran past the deadline") from None
        if line is None:
            raise BenchError(f"the workload process exited early (code {self.proc.wait()})")
        return line

    def wait_ready(self) -> float:
        """Seconds from process start to its ``READY`` line."""
        while self.next_line() != "READY":
            pass
        return time.perf_counter() - self.started

    def result(self) -> Dict[str, Any]:
        while True:
            line = self.next_line()
            if line.startswith("{"):
                return json.loads(line)

    def finish(self) -> None:
        try:
            code = self.proc.wait(timeout=max(self.deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError("the workload process did not exit") from None
        self.reader.join(timeout=5.0)
        if code != 0:
            raise BenchError(f"the workload process exited with code {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_workers(args: argparse.Namespace, deadline: float) -> Tuple[Dict[str, Any], List[float]]:
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT_DIR,
    ]
    setups: List[float] = []
    reps = 1 if args.trace else SETUP_REPS
    for rep in range(reps):
        last = rep == reps - 1
        worker = Worker(common + ([] if last else ["--setup-only"]), deadline)
        try:
            setups.append(worker.wait_ready())
            result = worker.result() if last else {}
            worker.finish()
        finally:
            worker.kill()
    return result, setups


def report(args: argparse.Namespace, decl: Dict[str, Any], result: Dict[str, Any], setups: List[float]) -> Dict[str, Any]:
    """Print the human-readable lines; return the final JSON object."""
    metrics: Dict[str, float] = dict(result["metrics"])
    group = "per_layer" if args.trace else "end_to_end"
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    declared = {entry["name"]: entry["unit"] for entry in decl[group]}
    if set(metrics) != set(declared):
        raise BenchError(
            f"emitted {group} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(metrics))}, extra {sorted(set(metrics) - set(declared))}"
        )
    env = result["info"]["env"]
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"| python {env['python']}, numpy tier {'on' if env['have_numpy'] else 'off'}, "
        f"nproc {env['nproc']}, held-out seed {HELD_OUT_SEED}"
    )
    rows: List[Tuple[str, float, str]] = [(name, metrics[name], declared[name]) for name in declared]
    if not args.trace:
        info = result["info"]
        units = {entry["name"]: entry["unit"] for entry in decl["per_layer"]}
        rows[:0] = [
            (alias, info["wall"][source] * scale, unit) for alias, source, scale, unit in ALIASES[args.workload]
        ]
        rows += [(name, value, units[name]) for name, value in info["wall"].items()]
        rows += [(name, value, "count") for name, value in info["counters"].items()]
        rows.append(("failure_rate", failed / attempted, "ratio"))
        print(
            f"  {attempted} items timed over {info['inputs']} distinct inputs, {failed} failed; "
            f"set-up samples {[round(s, 3) for s in setups]}"
        )
    for name, value, unit in rows:
        print(f"  {name:<44} {value:>18} {unit}" if isinstance(value, int) else f"  {name:<44} {value:>18.6f} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }


def main(argv: List[str]) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        decl = load_declaration()
        names = [w["name"] for w in decl["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
        if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
            raise BenchError(f"no program to measure: {SRC}/repro is missing")
        os.makedirs(OUT_DIR, exist_ok=True)
        result, setups = run_workers(args, started + DEADLINE_S)
        final = report(args, decl, result, setups)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
