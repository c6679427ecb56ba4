"""Property-based tests for the echo algebra of broadcast-and-echo.

Every production echo reducer must be commutative and associative: the
executor folds the whole node set at once, while the message-level protocol
folds each node's value with its children's echoes.  Both must give the
root the same aggregate for any tree, any root and any delivery order.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.polynomial import combine_product_pairs
from repro.core.sample import merge_smallest
from repro.core.sketches import first_not_none, xor_combine
from repro.core.testout import combine_statistics
from repro.network.accounting import MessageAccountant
from repro.network.broadcast import BroadcastEchoExecutor, run_reference_broadcast_echo
from repro.network.fragments import SpanningForest
from repro.network.graph import Graph
from repro.network.scheduler import LifoScheduler, RandomScheduler

PRIME = 1_000_003
SAMPLE_COUNT = 3

words = st.integers(min_value=0, max_value=2 ** 64 - 1)
statistics = st.tuples(
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=0, max_value=2 ** 20),
    st.integers(min_value=0, max_value=2 ** 40),
    st.integers(min_value=0, max_value=1000),
)
pairs = st.tuples(
    st.integers(min_value=0, max_value=PRIME - 1),
    st.integers(min_value=0, max_value=PRIME - 1),
)
offers = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=99)),
    max_size=SAMPLE_COUNT,
).map(sorted)
counts = st.integers(min_value=0, max_value=64)

#: ``(name, reducer, node-value strategy)`` for every production echo reducer.
REDUCERS = [
    ("xor", xor_combine, words),
    ("statistics", combine_statistics, statistics),
    ("hp_pairs", partial(combine_product_pairs, p=PRIME), pairs),
    ("sum", sum, counts),
    ("sample", partial(merge_smallest, count=SAMPLE_COUNT), offers),
    ("path_query", first_not_none, None),
]
IDS = [name for name, _, _ in REDUCERS]


def draw_values(data, strategy, size):
    """``size`` node values; for the path query exactly one node answers."""
    if strategy is None:
        values = [None] * size
        values[data.draw(st.integers(0, size - 1))] = data.draw(st.tuples(words, words))
        return values
    return data.draw(st.lists(strategy, min_size=size, max_size=size))


class TestReducerAlgebra:
    @pytest.mark.parametrize("name,reduce,strategy", REDUCERS, ids=IDS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_partition_invariance(self, name, reduce, strategy, data):
        size = data.draw(st.integers(min_value=1, max_value=24))
        values = draw_values(data, strategy, size)
        parts_count = data.draw(st.integers(min_value=1, max_value=size))
        labels = data.draw(
            st.lists(st.integers(0, parts_count - 1), min_size=size, max_size=size)
        )
        parts = [
            [value for value, label in zip(values, labels) if label == part]
            for part in range(parts_count)
        ]
        partials = [reduce(iter(part)) for part in parts if part]
        assert reduce(iter(partials)) == reduce(iter(values))
        shuffled = data.draw(st.permutations(values))
        assert reduce(iter(shuffled)) == reduce(iter(values))


@st.composite
def random_trees(draw):
    """A random spanning tree on ``1..n`` (plus chords) and a random root."""
    n = draw(st.integers(min_value=1, max_value=12))
    graph = Graph(id_bits=8)
    graph.add_node(1)
    marked = []
    for node in range(2, n + 1):
        parent = draw(st.integers(1, node - 1))
        graph.add_edge(parent, node, draw(st.integers(1, 50)))
        marked.append((parent, node))
    for _ in range(draw(st.integers(0, n))):
        u, v = draw(st.integers(1, n)), draw(st.integers(1, n))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, draw(st.integers(51, 100)))
    return graph, SpanningForest(graph, marked=marked), draw(st.integers(1, n))


class TestExecutorMatchesProtocol:
    @pytest.mark.parametrize("name,reduce,strategy", REDUCERS, ids=IDS)
    @given(tree=random_trees(), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_same_aggregate_on_every_engine(self, name, reduce, strategy, tree, data):
        graph, forest, root = tree
        nodes = sorted(graph.nodes())
        local_values = dict(zip(nodes, draw_values(data, strategy, len(nodes))))
        accountant = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, accountant)
        fast = executor.broadcast_and_echo(
            root, local_value=local_values.__getitem__, combine=reduce,
            broadcast_bits=4, echo_bits=8,
        )
        engines = [
            ("sync", None),
            ("async", RandomScheduler(seed=data.draw(st.integers(0, 2 ** 32)))),
            ("async", LifoScheduler()),
        ]
        for engine, scheduler in engines:
            value, reference = run_reference_broadcast_echo(
                graph, forest, root, local_values, reduce,
                broadcast_bits=4, echo_bits=8, engine=engine, scheduler=scheduler,
            )
            assert value == fast
            assert reference.messages == accountant.messages
            assert reference.bits == accountant.bits
