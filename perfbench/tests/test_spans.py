"""Span arithmetic and the wrappers' install/restore cycle."""

import sys

import pytest

import spans
from spans import Span, covered_length, layer_metrics, procedure_counts, self_times


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
    assert covered_length([], 0, 10) == 0.0
    assert covered_length([(0, 10), (2, 3)], 0, 10) == pytest.approx(10.0)


def test_self_time_subtracts_only_direct_children():
    # find_min_capped [0, 10] > hp_test_out [1, 6] > broadcast_and_echo [2, 5]
    recorded = [
        Span("core.findmin.search", 0.0, 10.0, -1),
        Span("core.testout.hp_test_out", 1.0, 6.0, 0),
        Span("network.broadcast.bne", 2.0, 5.0, 1),
        Span("network.broadcast.bne", 7.0, 8.0, 0),
    ]
    assert self_times(recorded) == pytest.approx([10.0 - 5.0 - 1.0, 5.0 - 3.0, 3.0, 1.0])
    metrics = layer_metrics(recorded)
    assert metrics["core.findmin.search_s"] == pytest.approx(10.0)
    assert metrics["core.findmin.search_self_s"] == pytest.approx(4.0)
    assert metrics["core.testout.hp_test_out_self_s"] == pytest.approx(2.0)
    assert metrics["network.broadcast.bne_s"] == pytest.approx(4.0)
    assert metrics["network.broadcast.bne_self_s"] == pytest.approx(4.0)
    assert metrics["network.broadcast.bne_calls"] == 2


def test_nested_spans_of_one_name_count_once():
    recorded = [
        Span("core.testout.test_out", 0.0, 4.0, -1),
        Span("core.testout.test_out", 1.0, 3.0, 0),  # test_out -> test_out_word
    ]
    metrics = layer_metrics(recorded)
    assert metrics["core.testout.test_out_calls"] == 1
    assert metrics["core.testout.test_out_s"] == pytest.approx(4.0)


def test_outcome_ratios_and_empty_layers():
    recorded = [
        Span("core.findany.search", 0.0, 1.0, -1, True),
        Span("core.findany.search", 1.0, 2.0, -1, False),
        Span("dynamic.maintainer.apply", 2.0, 3.0, -1, "tree_delete+"),
        Span("dynamic.maintainer.apply", 3.0, 5.0, -1, "tree_delete"),
        Span("dynamic.maintainer.apply", 5.0, 5.5, -1, "insert"),
    ]
    metrics = layer_metrics(recorded)
    assert metrics["core.findany.found_ratio"] == pytest.approx(0.5)
    assert metrics["dynamic.maintainer.tree_deletes"] == 2
    assert metrics["dynamic.maintainer.tree_delete_s"] == pytest.approx(3.0)
    assert metrics["dynamic.maintainer.inserts"] == 1
    assert metrics["core.repair.replacement_ratio"] == pytest.approx(0.5)
    assert metrics["core.findmin.found_ratio"] == 0.0  # no attempts
    assert metrics["core.findmin.iterations"] == 0


def test_findmin_tags_carry_found_and_iterations():
    recorded = [
        Span("core.findmin.search", 0.0, 1.0, -1, (True, 3)),
        Span("core.findmin.search", 0.2, 0.8, 0, (True, 3)),  # find_min -> find_min_capped
        Span("core.findmin.search", 1.0, 2.0, -1, (False, 5)),
    ]
    metrics = layer_metrics(recorded)
    assert metrics["core.findmin.searches"] == 2
    assert metrics["core.findmin.found_ratio"] == pytest.approx(0.5)
    assert metrics["core.findmin.iterations"] == 8


def test_procedure_counts_group_by_prefix():
    grouped = procedure_counts({"findany:vector:bcast": 3, "findany:xor:echo": 2, "b&e": 7, "hp_testout:echo": 1})
    assert grouped["network.accounting.messages.findany"] == 5
    assert grouped["network.accounting.messages.hp_testout"] == 1
    assert grouped["network.accounting.messages.other"] == 7
    assert sum(grouped.values()) == 13


def _bindings():
    """Every attribute a point may replace, by identity."""
    import importlib

    seen = {}
    for _, module_name, path, _ in spans.POINTS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            seen[(cls_name, attr)] = cls.__dict__[attr]
        else:
            original = getattr(module, path)
            for name, holder in list(sys.modules.items()):
                if name.split(".")[0] == "repro":
                    for attr, value in vars(holder).items():
                        if value is original:
                            seen[(name, attr)] = value
    return seen


def test_wrappers_record_a_real_solve_and_restore_the_originals():
    from repro.core.build_mst import BuildMST
    from workloads import Construction

    before = _bindings()
    recorder = spans.SpanRecorder()
    with recorder:
        assert any(before[key] is not value for key, value in _bindings().items())
        workload = Construction(BuildMST, nodes=24, density="dense", solves=1, minimum=True)
        workload.setup(3)
        workload.measure(0.0)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    recorded = recorder.spans
    names = {span.name for span in recorded}
    assert {"generators.build", "core.build.run", "core.findmin.search",
            "core.testout.hp_test_out", "network.broadcast.bne", "verify.certificate",
            "baselines.kruskal"} <= names
    # hp_test_out runs inside a FindMin search, which runs inside Build-MST.
    hp = next(span for span in recorded if span.name == "core.testout.hp_test_out")
    chain = []
    parent = hp.parent
    while parent >= 0:
        chain.append(recorded[parent].name)
        parent = recorded[parent].parent
    assert chain[:2] == ["core.findmin.search", "core.build.run"]
    assert all(span.end >= span.start for span in recorded)


def test_traced_pass_figures_count_a_fixed_amount_of_work():
    """The traced run records the counter set alone, so its counts repeat."""
    from repro.core.build_mst import BuildMST
    from workloads import Construction

    workload = Construction(BuildMST, nodes=24, density="dense", solves=2, minimum=True)
    workload.setup(3)
    counts = []
    for _ in range(2):
        recorder = spans.SpanRecorder()
        with recorder:
            m = workload.measure(0.0)
        assert m.attempted == 2
        metrics = layer_metrics(recorder.spans)
        counts.append({k: v for k, v in metrics.items() if not k.endswith(("_s", "_ratio"))})
    assert counts[0] == counts[1]
    assert counts[0]["core.findmin.iterations"] >= counts[0]["core.findmin.searches"] > 0


def test_install_twice_is_refused():
    recorder = spans.SpanRecorder()
    with recorder:
        with pytest.raises(RuntimeError):
            recorder.install()
