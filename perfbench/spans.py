"""In-memory span recording around the program's public calls.

The traced benchmark run wraps a fixed list of public functions and methods
(:data:`POINTS`) with a recorder.  Every call becomes one span — name,
start, end, parent span and an optional outcome tag — kept in memory and
written out as JSON when the run ends.  Nothing in the program itself is
edited: :meth:`SpanRecorder.install` swaps the wrapped callables into their
classes and modules, :meth:`SpanRecorder.restore` puts the originals back.

Per-layer metrics are then pure arithmetic over the span list
(:func:`layer_metrics`): time in a layer is the summed duration of its
outermost spans, self time subtracts whatever part of a span its child
spans cover, and outcome ratios count the tags.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "POINTS",
    "PROCEDURES",
    "Span",
    "SpanRecorder",
    "covered_length",
    "layer_metrics",
    "procedure_counts",
    "self_times",
]

Tag = Callable[[Any], Any]


def _found(result: Any) -> bool:
    return result.edge is not None


def _found_iterations(result: Any) -> Tuple[bool, int]:
    return result.edge is not None, result.iterations


def _has_cycle(result: Any) -> bool:
    return bool(result.cycle_nodes)


def _phases(result: Any) -> int:
    return result.phases


def _repair_class(outcome: Any) -> str:
    """``tree_delete`` (with ``+`` when a replacement was found), ``insert`` or ``other``."""
    report = outcome.report
    if report.action == "delete" and report.was_tree_edge:
        return "tree_delete+" if report.replacement is not None else "tree_delete"
    return "insert" if report.action == "insert" else "other"


#: ``(span name, module, attribute path, outcome tag)`` for every wrapped
#: public call.  Several attributes may share a span name: nested spans of
#: one name (``test_out`` calling ``test_out_word``) are counted once.
POINTS: Tuple[Tuple[str, str, str, Optional[Tag]], ...] = (
    ("generators.build", "repro.api.spec", "GraphSpec.build", None),
    ("network.columnar.build", "repro.network.columnar", "ColumnarGraph.from_graph", None),
    ("network.fragments.marked_csr", "repro.network.fragments", "SpanningForest.marked_csr", None),
    ("network.fragments.component_of", "repro.network.fragments", "SpanningForest.component_of", None),
    ("network.broadcast.bne", "repro.network.broadcast", "BroadcastEchoExecutor.broadcast_and_echo", None),
    ("network.broadcast.tree_structure", "repro.network.broadcast", "build_tree_structure_csr", None),
    ("core.testout.test_out", "repro.core.testout", "CutTester.test_out", None),
    ("core.testout.test_out", "repro.core.testout", "CutTester.test_out_word", None),
    ("core.testout.hp_test_out", "repro.core.testout", "CutTester.hp_test_out", None),
    ("core.testout.tree_statistics", "repro.core.testout", "CutTester.tree_statistics", None),
    ("core.findmin.search", "repro.core.findmin", "FindMin.find_min", _found_iterations),
    ("core.findmin.search", "repro.core.findmin", "FindMin.find_min_capped", _found_iterations),
    ("core.findany.search", "repro.core.findany", "FindAny.find_any", _found),
    ("core.findany.search", "repro.core.findany", "FindAny.find_any_capped", _found),
    ("network.leader_election.detect_cycle", "repro.network.leader_election", "detect_cycle", _has_cycle),
    ("core.build.run", "repro.core.build_mst", "BuildMST.run", _phases),
    ("dynamic.maintainer.apply", "repro.dynamic.maintainer", "TreeMaintainer.apply", _repair_class),
    ("verify.certificate", "repro.verify.mst_check", "is_minimum_spanning_forest", None),
    ("verify.certificate", "repro.verify.forest_check", "is_spanning_forest", None),
    ("baselines.kruskal", "repro.baselines.sequential", "kruskal_mst", None),
)

#: Message-kind prefixes (the part before ``:``) reported one by one by
#: ``network.accounting.messages.<procedure>``; every other kind (the
#: executor's ``b&e``/``bcast``/``p2p`` defaults, ``ghs:*``) lands in ``other``.
PROCEDURES = (
    "stats", "testout", "hp_testout", "findany", "sample", "election",
    "announce", "add_edge", "cycle", "remove_edge", "path_query", "mark_edge",
)


class Span:
    """One recorded call: ``[start, end]`` in ``perf_counter`` seconds."""

    __slots__ = ("name", "start", "end", "parent", "tag")

    def __init__(self, name: str, start: float, end: float, parent: int, tag: Any = None) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 at top level
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Wraps :data:`POINTS` and records one span per call.

    Spans are stored column-wise in flat lists of strings, floats and ints,
    so recording a call allocates no object the garbage collector tracks.
    Every workload runs on one thread, so one plain stack tracks the
    enclosing span.
    """

    def __init__(self, points: Sequence[Tuple[str, str, str, Optional[Tag]]] = POINTS) -> None:
        self.points = tuple(points)
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.tags: List[Any] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    @property
    def spans(self) -> List[Span]:
        return [Span(*row) for row in zip(self.names, self.starts, self.ends, self.parents, self.tags)]

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def wrap(self, name: str, fn: Callable[..., Any], tag: Optional[Tag] = None) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        names, starts, ends, parents, tags = self.names, self.starts, self.ends, self.parents, self.tags
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            tags.append(None)
            stack.append(index)
            began = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            starts[index] = began
            if tag is not None:
                tags[index] = tag(result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # installing / restoring the wrappers
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Swap a recording wrapper in for every point.

        A method is replaced on the class that defines it (a classmethod
        stays a classmethod).  A module-level function is replaced in every
        loaded ``repro`` module that holds it, because callers bind it by
        name at import time.
        """
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        for name, module_name, path, tag in self.points:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new: Any = classmethod(self.wrap(name, raw.__func__, tag))
                else:
                    new = self.wrap(name, raw, tag)
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, new)
            else:
                original = getattr(module, path)
                wrapped = self.wrap(name, original, tag)
                for holder in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "repro"]:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._saved.append((holder, attr, original))
                            setattr(holder, attr, wrapped)

    def restore(self) -> None:
        """Put every original callable back, in reverse order of installation."""
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def dump(self, path: str) -> None:
        """Write the spans as JSON columns: name, start, end, parent, tag."""
        columns = {
            "name": self.names, "start": self.starts, "end": self.ends,
            "parent": self.parents, "tag": self.tags,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(columns, handle)


# ---------------------------------------------------------------------- #
# arithmetic over recorded spans
# ---------------------------------------------------------------------- #
def covered_length(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total, reach = 0.0, start
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered_length(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def _outermost(spans: Sequence[Span]) -> List[bool]:
    """Per span: is no ancestor a span of the same name?"""
    flags = []
    for span in spans:
        parent, outer = span.parent, True
        while parent >= 0:
            if spans[parent].name == span.name:
                outer = False
                break
            parent = spans[parent].parent
        flags.append(outer)
    return flags


def _ratio(hits: int, attempts: int) -> float:
    """Useful outcomes over attempts; 0 when the layer made no attempt."""
    return hits / attempts if attempts else 0.0


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Every span-derived per-layer metric, 0 for layers never entered."""
    own = self_times(spans)
    outer = _outermost(spans)
    time_in: Dict[str, float] = {}
    self_in: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    tags: Dict[str, List[Any]] = {}
    for span, self_s, is_outer in zip(spans, own, outer):
        if not is_outer:
            continue
        time_in[span.name] = time_in.get(span.name, 0.0) + span.duration
        self_in[span.name] = self_in.get(span.name, 0.0) + self_s
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.tag is not None:
            tags.setdefault(span.name, []).append(span.tag)

    def t(name: str) -> float:
        return time_in.get(name, 0.0)

    def c(name: str) -> int:
        return calls.get(name, 0)

    findmin = tags.get("core.findmin.search", [])
    findany = tags.get("core.findany.search", [])
    cycles = tags.get("network.leader_election.detect_cycle", [])
    repairs = tags.get("dynamic.maintainer.apply", [])
    by_class: Dict[str, List[float]] = {"tree_delete": [], "insert": []}
    for span, is_outer in zip(spans, outer):
        if is_outer and span.name == "dynamic.maintainer.apply":
            key = str(span.tag).rstrip("+")
            if key in by_class:
                by_class[key].append(span.duration)
    tree_deletes = [tag for tag in repairs if str(tag).startswith("tree_delete")]
    return {
        "generators.build_s": t("generators.build"),
        "generators.builds": c("generators.build"),
        "network.columnar.build_s": t("network.columnar.build"),
        "network.columnar.builds": c("network.columnar.build"),
        "network.fragments.marked_csr_s": t("network.fragments.marked_csr"),
        "network.fragments.marked_csr_calls": c("network.fragments.marked_csr"),
        "network.fragments.component_of_s": t("network.fragments.component_of"),
        "network.fragments.component_of_calls": c("network.fragments.component_of"),
        "network.broadcast.bne_s": t("network.broadcast.bne"),
        "network.broadcast.bne_self_s": self_in.get("network.broadcast.bne", 0.0),
        "network.broadcast.bne_calls": c("network.broadcast.bne"),
        "network.broadcast.tree_structure_s": t("network.broadcast.tree_structure"),
        "network.broadcast.tree_structure_calls": c("network.broadcast.tree_structure"),
        "core.testout.test_out_s": t("core.testout.test_out"),
        "core.testout.test_out_calls": c("core.testout.test_out"),
        "core.testout.hp_test_out_s": t("core.testout.hp_test_out"),
        "core.testout.hp_test_out_self_s": self_in.get("core.testout.hp_test_out", 0.0),
        "core.testout.hp_test_out_calls": c("core.testout.hp_test_out"),
        "core.testout.tree_statistics_s": t("core.testout.tree_statistics"),
        "core.testout.tree_statistics_calls": c("core.testout.tree_statistics"),
        "core.findmin.search_s": t("core.findmin.search"),
        "core.findmin.search_self_s": self_in.get("core.findmin.search", 0.0),
        "core.findmin.searches": c("core.findmin.search"),
        "core.findmin.found_ratio": _ratio(sum(found for found, _ in findmin), len(findmin)),
        "core.findmin.iterations": sum(iterations for _, iterations in findmin),
        "core.findany.search_s": t("core.findany.search"),
        "core.findany.searches": c("core.findany.search"),
        "core.findany.found_ratio": _ratio(sum(map(bool, findany)), len(findany)),
        "network.leader_election.detect_cycle_s": t("network.leader_election.detect_cycle"),
        "network.leader_election.calls": c("network.leader_election.detect_cycle"),
        "network.leader_election.cycle_ratio": _ratio(sum(map(bool, cycles)), len(cycles)),
        "core.build.construct_s": t("core.build.run"),
        "core.build.phases": sum(tags.get("core.build.run", [])),
        "dynamic.maintainer.tree_delete_s": sum(by_class["tree_delete"]),
        "dynamic.maintainer.tree_deletes": len(by_class["tree_delete"]),
        "dynamic.maintainer.insert_s": sum(by_class["insert"]),
        "dynamic.maintainer.inserts": len(by_class["insert"]),
        "core.repair.replacement_ratio": _ratio(
            sum(tag == "tree_delete+" for tag in tree_deletes), len(tree_deletes)
        ),
        "verify.certificate_s": t("verify.certificate"),
        "baselines.kruskal_s": t("baselines.kruskal"),
    }


def procedure_counts(per_kind: Dict[str, int]) -> Dict[str, int]:
    """``MessageAccountant.per_kind()`` grouped by the prefix before ``:``."""
    grouped = {f"network.accounting.messages.{name}": 0 for name in PROCEDURES + ("other",)}
    for kind, count in per_kind.items():
        prefix = kind.split(":", 1)[0]
        if prefix not in PROCEDURES:
            prefix = "other"
        grouped[f"network.accounting.messages.{prefix}"] += count
    return grouped
