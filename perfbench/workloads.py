"""The benchmark's workloads, driven through the program's public API.

Each workload turns a ``--seed`` into a fixed list of inputs, does its
set-up (everything before the first timed item), and then measures items
until the run's time is up:

``mst-dense``
    Certified ``kkt-mst`` solves on dense graphs: ``GraphSpec.build`` +
    Build-MST + the MSF certificate, as a ``repro run`` user waits for it.
``st-sparse``
    Certified ``kkt-st`` solves on sparse graphs (Build-ST + certificate).
``repair-churn``
    The initial MST is built during set-up; a seeded ``churn`` stream is
    then applied one update at a time through ``TreeMaintainer.apply``.

Each item is paired with the host's reference time measured just before
it (:mod:`hostspeed`), so its cost can be read in reference units.

An item's input depends only on the seed and the item's position, so the
first pass over a workload's inputs — its *counter set* — always does the
same work; its exact message, bit and round counters are what the
benchmark reports.  Later passes repeat the same inputs to fill the run and
must reproduce the first pass's counters exactly; ``measure(0.0)`` runs
the counter set alone.  Every item is certified
from outside the program (see each workload's ``_check``).

Every failed check counts in ``failed``, which makes the run incorrect: a
failed certificate is never re-run with another seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.baselines.sequential as sequential
import repro.verify as verify
from repro.api import GraphSpec, WorkloadSpec, derive_seed
from repro.core.build_mst import BuildMST
from repro.core.build_st import BuildST
from repro.core.config import AlgorithmConfig
from repro.dynamic import TreeMaintainer
from repro.network.accounting import MessageAccountant
from repro.network.fragments import SpanningForest

from hostspeed import HostGauge

__all__ = ["Measurement", "WORKLOADS", "make_workload"]


@dataclass
class Measurement:
    """What one timed loop over a workload produced."""

    latencies: List[Tuple[Any, float]] = field(default_factory=list)  # (item key, seconds)
    hosts: List[float] = field(default_factory=list)  # reference seconds before each item
    failed: int = 0  # failed checks
    counters: Dict[str, int] = field(default_factory=dict)  # messages/bits/rounds
    per_kind: Dict[str, int] = field(default_factory=dict)  # MessageAccountant.per_kind()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def add_counts(self, messages: int, bits: int, rounds: int, per_kind: Dict[str, int]) -> None:
        for key, value in (("messages", messages), ("bits", bits), ("rounds", rounds)):
            self.counters[key] = self.counters.get(key, 0) + value
        for kind, count in per_kind.items():
            self.per_kind[kind] = self.per_kind.get(kind, 0) + count


_clock = time.perf_counter


# ---------------------------------------------------------------------- #
# construction workloads
# ---------------------------------------------------------------------- #
class Construction:
    """Certified constructions of ``solves`` seeded graphs, repeated in passes."""

    def __init__(self, builder: type, nodes: int, density: str, solves: int, minimum: bool) -> None:
        self.builder = builder
        self.nodes = nodes
        self.density = density
        self.solves = solves
        self.minimum = minimum

    def setup(self, seed: int) -> None:
        self.specs = [
            GraphSpec(nodes=self.nodes, density=self.density, seed=derive_seed(seed, k))
            for k in range(self.solves)
        ]
        # Warm-up: one small solve finishes lazy imports and caches.
        self._solve(GraphSpec(nodes=48, density=self.density, seed=derive_seed(seed, -1)))

    def _solve(self, spec: GraphSpec) -> Tuple[float, bool, Tuple[int, int, int], Dict[str, int]]:
        """One timed solve: build + construction + certificate, then the untimed checks."""
        accountant = MessageAccountant()
        start = _clock()
        graph = spec.build()
        config = AlgorithmConfig(n=max(graph.num_nodes, 1), seed=spec.seed)
        report = self.builder(graph, config=config, accountant=accountant).run()
        if self.minimum:
            certified = verify.is_minimum_spanning_forest(report.forest)
        else:
            certified = verify.is_spanning_forest(report.forest)
        latency = _clock() - start
        ok = certified and self._check(graph, report.forest)
        counts = (report.messages, report.bits, report.rounds_parallel)
        return latency, ok, counts, accountant.per_kind()

    def _check(self, graph: Any, forest: SpanningForest) -> bool:
        """Agreement with the sequential Kruskal baseline."""
        reference = sequential.kruskal_mst(graph)
        if self.minimum:
            return forest.total_marked_weight() == sequential.mst_weight(reference)
        return forest.num_marked == len(reference) and verify.is_spanning_forest(forest)

    def measure(self, seconds: float) -> Measurement:
        out = Measurement()
        first: List[Tuple[int, int, int]] = []
        gauge = HostGauge()
        start = _clock()
        index = 0
        while index < self.solves or _clock() - start < seconds:
            k = index % self.solves
            out.hosts.append(gauge.now())
            latency, ok, counts, per_kind = self._solve(self.specs[k])
            if index < self.solves:
                first.append(counts)
                out.add_counts(*counts, per_kind)
            elif counts != first[k]:
                ok = False  # a repeated input must repeat its exact cost
            out.latencies.append(((index // self.solves, k), latency))
            out.failed += not ok
            index += 1
        return out


# ---------------------------------------------------------------------- #
# repair workload
# ---------------------------------------------------------------------- #
class RepairChurn:
    """A churn stream repaired one update at a time over a pre-built MST."""

    def __init__(self, nodes: int, updates: int) -> None:
        self.nodes = nodes
        self.updates = updates

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.graph = GraphSpec(nodes=self.nodes, density="sparse", seed=seed).build()
        forest = BuildMST(self.graph, config=AlgorithmConfig(n=self.graph.num_nodes, seed=seed)).run().forest
        if not self._check(forest):
            raise RuntimeError("the initial Build-MST forest failed its certificate")
        self.marked = sorted(forest.marked_edges)
        self.stream = list(WorkloadSpec("churn", updates=self.updates, seed=seed).build(self.graph, forest))

    def _check(self, forest: SpanningForest) -> bool:
        """The forest is the MSF: certificate plus Kruskal weight agreement."""
        reference = sequential.kruskal_mst(forest.graph)
        return verify.is_minimum_spanning_forest(forest) and (
            forest.total_marked_weight() == sequential.mst_weight(reference)
        )

    def _fresh(self) -> Tuple[TreeMaintainer, SpanningForest]:
        """A fresh copy of the set-up state."""
        graph = self.graph.copy()
        forest = SpanningForest(graph, marked=self.marked)
        maintainer = TreeMaintainer(graph, forest, mode="mst", seed=self.seed, accountant=MessageAccountant())
        return maintainer, forest

    def measure(self, seconds: float) -> Measurement:
        out = Measurement()
        first: Optional[Tuple[int, int, int]] = None
        gauge = HostGauge()
        start = _clock()
        checkpoint = len(self.stream) // 2
        passes = 0
        while passes == 0 or _clock() - start < seconds:
            maintainer, forest = self._fresh()
            accountant = maintainer.accountant
            for i, update in enumerate(self.stream):
                if passes and _clock() - start >= seconds:
                    break
                out.hosts.append(gauge.now())
                began = _clock()
                maintainer.apply(update)
                out.latencies.append(((passes, i), _clock() - began))
                if i + 1 == checkpoint:
                    out.failed += not self._check(forest)
            out.failed += not self._check(forest)
            counts = (accountant.messages, accountant.bits, accountant.rounds)
            if passes == 0:
                first = counts
                out.add_counts(*counts, accountant.per_kind())
            elif len(maintainer.history) == len(self.stream) and counts != first:
                out.failed += 1  # a repeated stream must repeat its exact cost
            passes += 1
        return out


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
WORKLOADS: Dict[str, Callable[[], Any]] = {
    "mst-dense": lambda: Construction(BuildMST, nodes=192, density="dense", solves=16, minimum=True),
    "st-sparse": lambda: Construction(BuildST, nodes=384, density="sparse", solves=32, minimum=False),
    "repair-churn": lambda: RepairChurn(nodes=512, updates=400),
}


def make_workload(name: str) -> Any:
    try:
        return WORKLOADS[name]()
    except KeyError:
        raise SystemExit(f"perfbench: unknown workload {name!r}; choose from {', '.join(WORKLOADS)}") from None
