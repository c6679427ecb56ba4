"""One workload process: set up, say ``READY``, measure, print one JSON line.

Started by ``run.py`` (never by hand): the parent times set-up from just
before it starts this process to the ``READY`` line, so set-up covers the
interpreter start, the import of ``repro``, input generation and warm-up.
``--setup-only`` stops after ``READY``; the parent uses it to sample set-up
time more than once per run.

Without ``--trace`` the timed loop runs untraced and the line carries the
end-to-end figures.  With ``--trace`` the untraced loop runs for half the
time and then the workload's counter set runs once more with
:class:`spans.SpanRecorder` installed.  The line carries the per-layer
figures of that one traced pass, so they describe a fixed amount of work,
plus ``trace_overhead_pct``, the traced pass's extra time over the same
items untraced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

import repro.accel as accel
import spans
from workloads import Measurement, make_workload


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def item_costs(m: Measurement) -> List[Tuple[Any, float]]:
    """Each item's ``(key, cost)``, the cost in reference units (:mod:`hostspeed`).

    An item key is ``(pass, input)``, and each pass runs every input once.
    An item's cost is its latency divided by the median reference time of
    its pass: one reference sample is too short to say how fast the host
    will be during the next item, but their median over a pass says how
    fast it was during that pass.
    """
    hosts: Dict[Any, List[float]] = {}
    for (key, _), host in zip(m.latencies, m.hosts):
        hosts.setdefault(key[0], []).append(host)
    speed = {run: statistics.median(values) for run, values in hosts.items()}
    return [(key, latency / speed[key[0]]) for key, latency in m.latencies]


def input_costs(m: Measurement) -> List[float]:
    """One cost per distinct input: the lowest over its repeats.

    Every pass repeats the same inputs from the same state and must
    reproduce the first pass's exact counters, so an input's repeats did
    the same work.  What is left after the pass's host speed is divided
    out is a burst of load during one item, which only adds time.
    """
    lowest: Dict[Any, float] = {}
    for (_, item), cost in item_costs(m):
        lowest[item] = min(cost, lowest.get(item, cost))
    return list(lowest.values())


def end_to_end(m: Measurement) -> Dict[str, float]:
    """The untraced loop's figures (``peak_rss_mb`` and ``setup_s`` come later).

    Percentiles and throughput are taken over the distinct inputs, each at
    its cost in reference units (:func:`input_costs`).  ``items_per_ref``
    counts only the timed items, not the benchmark's own checks and copies
    between them.
    """
    costs = input_costs(m)
    return {
        "item_p50_ref": statistics.median(costs),
        "item_p90_ref": percentile(costs, 90),
        "items_per_ref": len(costs) / math.fsum(costs),
    }


def wall(m: Measurement) -> Dict[str, float]:
    """The same loop in wall-clock time, over every timed item as measured.

    ``wall.reference_ms`` is the median reference time, the host's speed
    during the loop.
    """
    latencies = [lat for _, lat in m.latencies]
    return {
        "wall.item_p50_ms": statistics.median(latencies) * 1e3,
        "wall.item_p90_ms": percentile(latencies, 90) * 1e3,
        "wall.items_per_s": m.attempted / math.fsum(latencies),
        "wall.reference_ms": statistics.median(m.hosts) * 1e3,
    }


def per_layer(plain: Measurement, traced: Measurement, recorder: spans.SpanRecorder, outcome: Dict[str, int]) -> Dict[str, float]:
    """The traced pass's figures: span arithmetic plus the exact counters.

    Layers a workload never enters report 0, so every workload emits the
    same names.
    """
    metrics: Dict[str, float] = spans.layer_metrics(recorder.spans)
    metrics.update(wall(plain))
    metrics.update(plain.counters)
    metrics.update(spans.procedure_counts(plain.per_kind))
    metrics["failure_rate"] = outcome["failed"] / outcome["attempted"]
    metrics["trace_overhead_pct"] = trace_overhead_pct(plain, traced)
    return metrics


def trace_overhead_pct(plain: Measurement, traced: Measurement) -> float:
    """Extra cost of the traced pass, over the items both loops ran.

    Both loops run the same inputs in the same order, so items with the
    same key did the same work.  Costs are in reference units, so a change
    of the host's speed between the loops cancels out.
    """
    a, b = dict(item_costs(plain)), dict(item_costs(traced))
    common = [key for key in b if key in a]
    return (sum(b[k] for k in common) / sum(a[k] for k in common) - 1.0) * 100.0


def measure(workload: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """The timed loop(s) and the figures they give."""
    # A traced run gives half its time to the untraced loop and the rest to
    # one traced pass over the counter set.
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = workload.measure(seconds)
    result: Dict[str, Any] = {"attempted": plain.attempted, "failed": plain.failed}
    if not args.trace:
        result["metrics"] = end_to_end(plain)
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["info"] = {"counters": plain.counters, "wall": wall(plain), "inputs": len(input_costs(plain))}
        return result
    recorder = spans.SpanRecorder()
    with recorder:
        traced = workload.measure(0.0)  # the counter set, once
    recorder.dump(os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}.json"))
    result["attempted"] += traced.attempted
    # Tracing must not change what the program computes.
    result["failed"] += traced.failed + (traced.counters != plain.counters)
    result["metrics"] = per_layer(plain, traced, recorder, result)
    result["info"] = {}
    return result


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    workload = make_workload(args.workload)
    workload.setup(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = measure(workload, args)
    result["info"]["env"] = {
        "python": platform.python_version(),
        "have_numpy": accel.HAVE_NUMPY,
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
