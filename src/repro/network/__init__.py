"""CONGEST-model network substrate: graphs, simulators, broadcast-and-echo.

This subpackage provides everything the paper assumes about the execution
environment: a weighted communications graph with KT1 knowledge, a unified
event kernel (:mod:`repro.network.kernel`) whose synchronous and
asynchronous engines are thin facades with exact message/bit/round
accounting, a fault layer (:mod:`repro.network.faults`) injected at the
kernel's delivery boundary, the maintained spanning-forest ("properly
marked") state, the broadcast-and-echo primitive, and tree leader election /
cycle detection.
"""

from .accounting import CostDelta, CostSnapshot, MessageAccountant, PhaseRecord
from .async_simulator import AsynchronousSimulator
from .broadcast import (
    BroadcastEchoExecutor,
    BroadcastEchoProtocolNode,
    TreeStructure,
    build_tree_structure,
    run_reference_broadcast_echo,
)
from .errors import (
    AccountingError,
    AlgorithmError,
    ForestError,
    GraphError,
    ProtocolError,
    ReproError,
    SimulationError,
)
from .faults import FaultEvent, FaultInjector
from .fragments import SpanningForest
from .graph import Edge, Graph, IncidentArrays, edge_key
from .kernel import EventKernel, EventSynchrony, RoundSynchrony, SynchronyModel
from .tree_cache import TreeStructureCache
from .leader_election import ElectionResult, detect_cycle, elect_leader
from .message import Message, message_bits_for_value
from .node import ProtocolNode
from .scheduler import (
    SCHEDULERS,
    EdgeDelayScheduler,
    FifoScheduler,
    LifoScheduler,
    RandomScheduler,
    Scheduler,
    list_schedulers,
    make_scheduler,
)
from .sync_simulator import SynchronousSimulator

__all__ = [
    "AccountingError",
    "AlgorithmError",
    "AsynchronousSimulator",
    "BroadcastEchoExecutor",
    "BroadcastEchoProtocolNode",
    "CostDelta",
    "CostSnapshot",
    "Edge",
    "EdgeDelayScheduler",
    "ElectionResult",
    "EventKernel",
    "EventSynchrony",
    "FaultEvent",
    "FaultInjector",
    "FifoScheduler",
    "ForestError",
    "Graph",
    "GraphError",
    "IncidentArrays",
    "LifoScheduler",
    "Message",
    "MessageAccountant",
    "PhaseRecord",
    "ProtocolError",
    "ProtocolNode",
    "RandomScheduler",
    "ReproError",
    "RoundSynchrony",
    "SCHEDULERS",
    "Scheduler",
    "SimulationError",
    "SpanningForest",
    "SynchronousSimulator",
    "SynchronyModel",
    "TreeStructure",
    "TreeStructureCache",
    "build_tree_structure",
    "detect_cycle",
    "edge_key",
    "elect_leader",
    "list_schedulers",
    "make_scheduler",
    "message_bits_for_value",
    "run_reference_broadcast_echo",
]
