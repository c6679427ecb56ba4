"""Tests for broadcast-and-echo: fast executor vs per-node reference protocol.

The key test family here validates the claim in DESIGN.md §4.1: the fast
fragment-level executor charges exactly the messages/bits a genuine per-node
execution of broadcast-and-echo sends, and both compute the same aggregate.
"""

import pytest

from repro.network.accounting import MessageAccountant
from repro.network.broadcast import (
    BroadcastEchoExecutor,
    build_tree_structure,
    run_reference_broadcast_echo,
)
from repro.network.errors import ProtocolError
from repro.network.fragments import SpanningForest
from repro.network.graph import Graph
from repro.network.scheduler import LifoScheduler, RandomScheduler


def _tree_graph():
    """A 7-node tree with two extra non-tree edges."""
    graph = Graph(id_bits=4)
    edges = [(1, 2, 4), (2, 3, 1), (2, 4, 7), (4, 5, 2), (4, 6, 9), (1, 7, 3)]
    for u, v, w in edges:
        graph.add_edge(u, v, w)
    graph.add_edge(3, 5, 20)
    graph.add_edge(6, 7, 30)
    forest = SpanningForest(graph, marked=[(1, 2), (2, 3), (2, 4), (4, 5), (4, 6), (1, 7)])
    return graph, forest


class TestTreeStructure:
    def test_parents_children_depths(self):
        graph, forest = _tree_graph()
        tree = build_tree_structure(forest, root=1)
        assert tree.root == 1
        assert tree.parent[1] is None
        assert tree.parent[3] == 2
        assert set(tree.children[2]) == {3, 4}
        assert tree.depth[5] == 3
        assert tree.size == 7
        assert tree.num_edges == 6
        assert tree.eccentricity == 3

    def test_preorder_parents_before_children(self):
        graph, forest = _tree_graph()
        tree = build_tree_structure(forest, root=1)
        order = tree.preorder()
        assert order[0] == 1
        assert sorted(order) == tree.nodes
        for node in order:
            if tree.parent[node] is not None:
                assert order.index(tree.parent[node]) < order.index(node)

    def test_preorder_visits_children_ascending(self):
        graph, forest = _tree_graph()
        tree = build_tree_structure(forest, root=1)
        # Root 1 has children [2, 7]: 2's whole subtree precedes 7.
        order = tree.preorder()
        assert order.index(2) < order.index(7)
        assert all(order.index(n) < order.index(7) for n in (3, 4, 5, 6))

    def test_invalidate_orders_recomputes(self):
        graph, forest = _tree_graph()
        tree = build_tree_structure(forest, root=1)
        before = tree.preorder()
        tree.invalidate_orders()
        after = tree.preorder()
        assert after is not before
        assert after == before
        assert after[0] == 1

    def test_path_from_root(self):
        graph, forest = _tree_graph()
        tree = build_tree_structure(forest, root=1)
        assert tree.path_from_root(5) == [1, 2, 4, 5]
        assert tree.path_from_root(1) == [1]

    def test_unknown_root_rejected(self):
        graph, forest = _tree_graph()
        with pytest.raises(ProtocolError):
            build_tree_structure(forest, root=42)

    def test_structure_covers_only_component(self):
        graph, forest = _tree_graph()
        forest.unmark(2, 4)
        tree = build_tree_structure(forest, root=1)
        assert set(tree.nodes) == {1, 2, 3, 7}


class TestExecutorAccounting:
    def test_broadcast_and_echo_counts(self):
        graph, forest = _tree_graph()
        acct = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, acct)
        total = executor.broadcast_and_echo(
            root=1,
            local_value=lambda node: 1,
            combine=sum,
            broadcast_bits=10,
            echo_bits=3,
        )
        assert total == 7  # counted the tree size
        assert acct.messages == 12  # 6 edges, broadcast + echo each
        assert acct.bits == 6 * 10 + 6 * 3
        assert acct.rounds == 2 * 3  # twice the eccentricity
        assert acct.broadcast_echoes == 1

    def test_broadcast_only_counts(self):
        graph, forest = _tree_graph()
        acct = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, acct)
        executor.broadcast_only(root=1, broadcast_bits=8)
        assert acct.messages == 6
        assert acct.bits == 48
        assert acct.broadcast_echoes == 0

    def test_singleton_tree_costs_nothing(self):
        graph = Graph()
        graph.add_node(1)
        forest = SpanningForest(graph)
        acct = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, acct)
        value = executor.broadcast_and_echo(
            root=1,
            local_value=lambda node: 5,
            combine=sum,
            broadcast_bits=8,
            echo_bits=8,
        )
        assert value == 5
        assert acct.messages == 0

    def test_point_to_point_requires_edge(self):
        graph, forest = _tree_graph()
        acct = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, acct)
        executor.point_to_point_along_edge(3, 5, size_bits=8)
        assert acct.messages == 1
        with pytest.raises(ProtocolError):
            executor.point_to_point_along_edge(3, 6, size_bits=8)

    def test_downward_state_propagation(self):
        graph, forest = _tree_graph()
        acct = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, acct)

        # Compute, at node 5, the maximum edge weight on the path from root 1.
        def propagate(state, parent, child):
            weight = graph.get_edge(parent, child).weight
            return max(state, weight)

        def collect(node, state):
            return state if node == 5 else None

        def combine(values):
            found = [v for v in values if v is not None]
            return found[0] if found else None

        answer = executor.broadcast_with_downward_state(
            root=1,
            initial_state=0,
            propagate=propagate,
            broadcast_bits=8,
            echo_bits=8,
            collect=collect,
            combine=combine,
        )
        # Path 1-2-4-5 has weights 4, 7, 2 -> max 7.
        assert answer == 7


class TestReferenceProtocolAgreement:
    @pytest.mark.parametrize("engine", ["sync", "async"])
    def test_same_aggregate_and_message_count(self, engine):
        graph, forest = _tree_graph()
        local_values = {node: node * node for node in graph.nodes()}

        def combine(values):
            return sum(value or 0 for value in values)

        reference_value, reference_acct = run_reference_broadcast_echo(
            graph, forest, root=1, local_values=local_values, combine=combine,
            broadcast_bits=9, echo_bits=5, engine=engine,
        )

        acct = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, acct)
        fast_value = executor.broadcast_and_echo(
            root=1,
            local_value=lambda node: local_values[node],
            combine=combine,
            broadcast_bits=9,
            echo_bits=5,
        )
        assert fast_value == reference_value
        assert acct.messages == reference_acct.messages
        assert acct.bits == reference_acct.bits

    @pytest.mark.parametrize(
        "scheduler_factory", [lambda: RandomScheduler(seed=5), LifoScheduler]
    )
    def test_async_schedule_independence(self, scheduler_factory):
        graph, forest = _tree_graph()
        local_values = {node: node for node in graph.nodes()}

        def combine(values):
            return sum(value or 0 for value in values)

        value, acct = run_reference_broadcast_echo(
            graph, forest, root=2, local_values=local_values, combine=combine,
            broadcast_bits=4, echo_bits=4, engine="async",
            scheduler=scheduler_factory(),
        )
        assert value == sum(graph.nodes())
        assert acct.messages == 2 * 6

    def test_root_only_component_participates(self):
        graph, forest = _tree_graph()
        forest.unmark(2, 4)   # split {1,2,3,7} / {4,5,6}
        local_values = {node: 1 for node in graph.nodes()}

        def combine(values):
            return sum(value or 0 for value in values)

        value, acct = run_reference_broadcast_echo(
            graph, forest, root=1, local_values=local_values, combine=combine,
            broadcast_bits=4, echo_bits=4,
        )
        assert value == 4
        assert acct.messages == 2 * 3
