"""Equivalence suite: production kernel counters == reference kernel counters.

The production kernels (:mod:`repro.core.kernels`: cached tree structures,
one-pass and batched columnar sketch kernels, per-node incident arrays) must
be *observably invisible*: for every registered algorithm, every density
profile and every seed, the messages / bits / rounds / phases reported by a
production run must be bit-identical to a run with the straight-line kernels
of :mod:`repro.verify.reference`.  This is the contract ``repro bench``
relies on when it reports speedups.
"""

import pytest

import repro.network.columnar as columnar
from repro.api import FaultSpec, GraphSpec, get_runner, list_algorithms
from repro.api.scenario import ExperimentSpec, ScheduleSpec, WorkloadSpec
from repro.verify.reference import reference_path

ALGORITHMS = list_algorithms()
DENSITIES = ["sparse", "dense"]
SEEDS = [0, 1, 2]
NODES = 24


def _counters(result):
    """Everything observable except wall-clock."""
    payload = {
        "algorithm": result.algorithm,
        "n": result.n,
        "m": result.m,
        "messages": result.messages,
        "bits": result.bits,
        "rounds": result.rounds,
        "phases": result.phases,
        "checks": result.checks,
        "extra": result.extra,
    }
    return payload


def _run(algorithm, spec, **options):
    return _counters(get_runner(algorithm).run(spec, **options))


def _assert_equivalent(algorithm, spec, **options):
    """Run on both kernel tiers; the counters must match exactly."""
    with reference_path():
        reference = _run(algorithm, spec, **options)
    fast = _run(algorithm, spec, **options)
    assert fast == reference
    return fast


def test_all_six_algorithms_are_covered():
    assert ALGORITHMS == [
        "flooding",
        "ghs",
        "kkt-mst",
        "kkt-repair",
        "kkt-st",
        "recompute-repair",
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_counters_bit_identical(algorithm, density, seed):
    spec = GraphSpec(nodes=NODES, density=density, seed=seed)
    _assert_equivalent(algorithm, spec)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("algorithm", ["kkt-mst", "kkt-repair", "kkt-st"])
def test_forced_batching_counters_bit_identical(algorithm, density, seed, monkeypatch):
    # With the batch threshold at 2 every tree covering half the graph takes
    # the batched columnar kernels and the CSR tree rebuilds.
    monkeypatch.setattr(columnar, "BATCH_MIN_NODES", 2)
    spec = GraphSpec(nodes=NODES, density=density, seed=seed)
    _assert_equivalent(algorithm, spec)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("algorithm", ["kkt-repair", "recompute-repair"])
def test_churn_workload_counters_bit_identical(algorithm, density, seed):
    spec = ExperimentSpec(
        graph=GraphSpec(nodes=NODES, density=density, seed=seed),
        workload=WorkloadSpec(name="churn", updates=8),
    )
    _assert_equivalent(algorithm, spec)


@pytest.mark.parametrize("algorithm", ["kkt-mst", "kkt-st"])
def test_churn_prechurned_construction_counters_bit_identical(algorithm):
    # Constructions under a workload run on the pre-churned topology; the
    # graph mutations exercise the version-stamped caches directly.
    spec = ExperimentSpec(
        graph=GraphSpec(nodes=NODES, density="sparse", seed=1),
        workload=WorkloadSpec(name="churn", updates=8),
    )
    _assert_equivalent(algorithm, spec)


def test_st_mode_repair_counters_bit_identical():
    # Build-ST + ST repair exercise the cycle-breaking (non-patchable) path.
    spec = ExperimentSpec(
        graph=GraphSpec(nodes=NODES, density="dense", seed=2),
        workload=WorkloadSpec(name="churn", updates=8),
    )
    _assert_equivalent("kkt-repair", spec, mode="st")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("program", ["link-storm", "partition-heal", "crash-leaves"])
@pytest.mark.parametrize("algorithm", ["kkt-repair", "recompute-repair"])
def test_fault_scenario_counters_bit_identical(algorithm, program, seed):
    # Fault programs (the fourth ExperimentSpec axis) run through the same
    # repair machinery: the fast path must stay observably invisible there
    # too, fault event log included.
    spec = ExperimentSpec(
        graph=GraphSpec(nodes=NODES, density="sparse", seed=seed),
        workload=WorkloadSpec(name="churn", updates=6),
        faults=FaultSpec(name=program),
    )
    fast = _assert_equivalent(algorithm, spec)
    assert fast["extra"]["fault_events"]


@pytest.mark.parametrize(
    "program", ["byz-corrupt", "byz-equivocate", "byz-replay", "byz-silent"]
)
def test_byzantine_flooding_on_kernel_counters_bit_identical(program):
    # The Byzantine tier tampers at the same delivery boundary the benign
    # faults use; the fast path must reproduce the identical attack history.
    spec = ExperimentSpec(
        graph=GraphSpec(nodes=NODES, density="dense", seed=2),
        schedule=ScheduleSpec(scheduler="random"),
        faults=FaultSpec(name=program),
    )
    fast = _assert_equivalent("flooding", spec)
    assert fast["extra"]["fault_events"]  # at least the compromised-set plan


@pytest.mark.parametrize("algorithm", ["kkt-mst", "kkt-st", "kkt-repair"])
def test_bracha_substrate_counters_bit_identical(algorithm):
    # Substrate charging branches inside the broadcast executor, which both
    # paths share — hardened runs must stay observably equivalent too.
    spec = GraphSpec(nodes=NODES, density="sparse", seed=1)
    fast = _assert_equivalent(algorithm, spec, substrate="bracha")
    assert fast["extra"]["substrate"] == "bracha"


def test_faulty_flooding_on_kernel_counters_bit_identical():
    # Flooding is the runner that executes on the event kernel itself, with
    # the fault injector installed at the delivery boundary — under an
    # adversarial schedule the delivery order, drops and duplicates must be
    # identical on both paths.
    spec = ExperimentSpec(
        graph=GraphSpec(nodes=NODES, density="dense", seed=1),
        schedule=ScheduleSpec(scheduler="random"),
        faults=FaultSpec(name="lossy-uniform", params={"drop": 0.2, "duplicate": 0.1}),
    )
    _assert_equivalent("flooding", spec)
