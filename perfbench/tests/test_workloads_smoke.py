"""Each workload at a tiny size: it runs, certifies, and repeats its counters."""

from repro.core.build_mst import BuildMST
from repro.core.build_st import BuildST

from workloads import Construction, RepairChurn


def _run(workload, seed=5):
    workload.setup(seed)
    return workload.measure(0.0), workload.measure(0.0)


def _assert_certified(m):
    assert m.attempted >= 1
    assert m.failed == 0
    assert all(value > 0 for value in m.counters.values())
    assert set(m.counters) == {"messages", "bits", "rounds"}


def test_construction_workloads_certify_and_repeat():
    for workload in (
        Construction(BuildMST, nodes=32, density="dense", solves=2, minimum=True),
        Construction(BuildST, nodes=64, density="sparse", solves=2, minimum=False),
    ):
        first, second = _run(workload)
        _assert_certified(first)
        assert first.counters == second.counters
        assert first.per_kind == second.per_kind
        assert sum(first.per_kind.values()) == first.counters["messages"]


def test_repair_churn_certifies_and_repeats():
    first, second = _run(RepairChurn(nodes=48, updates=12))
    _assert_certified(first)
    assert first.attempted == 12
    assert first.counters == second.counters


def test_same_seed_same_inputs_other_seed_other_inputs():
    a = RepairChurn(nodes=48, updates=12)
    b = RepairChurn(nodes=48, updates=12)
    c = RepairChurn(nodes=48, updates=12)
    a.setup(5)
    b.setup(5)
    c.setup(6)
    assert a.stream == b.stream and a.marked == b.marked
    assert (a.stream, a.marked) != (c.stream, c.marked)


def test_a_failed_certificate_fails_the_item_without_a_reseed(monkeypatch):
    import workloads

    workload = Construction(BuildMST, nodes=24, density="dense", solves=2, minimum=True)
    workload.setup(5)
    real = workloads.verify.is_minimum_spanning_forest
    calls = []

    def fails_first_call(forest):
        calls.append(forest)
        return len(calls) > 1 and real(forest)

    monkeypatch.setattr(workloads.verify, "is_minimum_spanning_forest", fails_first_call)
    m = workload.measure(0.0)
    assert (m.attempted, m.failed) == (2, 1)
    assert len(calls) == 2  # one certificate per solve: the failed one was not re-run


def test_a_failed_initial_forest_stops_repair_churn_setup(monkeypatch):
    import pytest
    import workloads

    monkeypatch.setattr(workloads.verify, "is_minimum_spanning_forest", lambda forest: False)
    with pytest.raises(RuntimeError):
        RepairChurn(nodes=48, updates=12).setup(5)
