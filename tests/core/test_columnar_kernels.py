"""Batched columnar kernels == per-node kernels, word for word.

The dispatch in :func:`repro.network.columnar.should_batch` is
wall-clock-only, so
every batched kernel (``*_words_all``, ``hp_products_all``) must return, for
every node of the graph, exactly the word its per-node counterpart computes
from that node's :class:`IncidentArrays` — over random graphs, random seeds,
both weight orderings, and with the numpy tier both active and forced off
(the tier gates in :mod:`repro.core.sketches` may only change wall clock,
never a word).
"""

import random

import pytest

import repro.accel as accel
from repro.core.hashing import (
    OddHashFunction,
    PairwiseIndependentHash,
    random_odd_hash,
    random_pairwise_hash,
)
from repro.core.sketches import (
    hp_products_all,
    prefix_flip_masks,
    prefix_parity_word,
    prefix_parity_words_all,
    range_parity_word,
    range_parity_words_all,
    xor_below_from_numbers,
    xor_below_words_all,
)
from repro.network.columnar import ColumnarGraph
from repro.network.errors import GraphError
from repro.network.graph import Graph


def random_graph(seed: int, n: int = 24, ordering: str = "random") -> Graph:
    """A random graph with isolated nodes and a controlled weight ordering.

    ``ordering`` pins the relationship between edge-number order and
    weight order: "ascending" makes heavier edges have larger numbers,
    "descending" inverts it (the aug-sorted mirrors then reverse the slot
    order), "random" decouples them.
    """
    rng = random.Random(seed)
    graph = Graph(id_bits=8)
    for node in range(1, n + 1):
        graph.add_node(node)  # keep some isolated nodes in every sample
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = rng.sample(pairs, k=min(3 * n, len(pairs)))
    chosen.sort()
    for index, (u, v) in enumerate(chosen):
        if ordering == "ascending":
            weight = index + 1
        elif ordering == "descending":
            weight = len(chosen) - index
        else:
            weight = rng.randrange(1, 1 << 10)
        graph.add_edge(u, v, weight=weight)
    return graph


def random_ranges(rng: random.Random, max_augmented: int, count: int):
    """Sorted, disjoint (lows, highs) covering random spans of the weights.

    Draws with ``randrange`` rather than ``sample`` so the bound space may
    exceed ``ssize_t`` (augmented weights past 64 bits when ``fits64`` is
    off); duplicate draws only make a span empty, never overlapping.
    """
    bounds = sorted(rng.randrange(max_augmented + 2) for _ in range(2 * count))
    lows = bounds[0::2]
    highs = [max(high - 1, low) for low, high in zip(lows, bounds[1::2])]
    return lows, highs


def assert_all_kernels_match(graph: Graph, rng: random.Random) -> None:
    """Every batched kernel equals its per-node counterpart on ``graph``."""
    cols = graph.columnar()
    nodes = graph.nodes()
    assert cols.ids == nodes

    max_number = max(cols.max_number, 2)
    odd_hash = random_odd_hash(max_number, rng)
    lows, highs = random_ranges(rng, cols.max_augmented, rng.randrange(1, 9))
    words = range_parity_words_all(cols, odd_hash, lows, highs)
    for node in nodes:
        arrays = graph.incident_arrays(node)
        assert words[cols.pos[node]] == range_parity_word(
            arrays.aug_sorted, arrays.numbers_by_aug, odd_hash, lows, highs
        )

    range_size = 1 << rng.randrange(2, 10)
    pairwise = random_pairwise_hash(max_number, range_size, rng)
    masks = prefix_flip_masks(pairwise.log_range)
    words = prefix_parity_words_all(cols, pairwise, masks)
    for node in nodes:
        arrays = graph.incident_arrays(node)
        assert words[cols.pos[node]] == prefix_parity_word(
            arrays.numbers, pairwise, masks
        )

    for prefix_exponent in (0, rng.randrange(0, pairwise.log_range + 1)):
        words = xor_below_words_all(cols, pairwise, prefix_exponent)
        for node in nodes:
            arrays = graph.incident_arrays(node)
            assert words[cols.pos[node]] == xor_below_from_numbers(
                arrays.numbers, pairwise, prefix_exponent
            )

    p = 2**31 - 1
    alpha = rng.randrange(1, p)
    low = rng.randrange(0, cols.max_augmented + 1)
    high = rng.randrange(low, cols.max_augmented + 1)
    products = hp_products_all(cols, alpha, p, low, high)
    for node in nodes:
        arrays = graph.incident_arrays(node)
        up_product = down_product = 1
        for weight, number, up in zip(
            arrays.aug_sorted, arrays.numbers_by_aug, arrays.up_by_aug
        ):
            if low <= weight <= high:
                if up:
                    up_product = (up_product * (alpha - number)) % p
                else:
                    down_product = (down_product * (alpha - number)) % p
        assert products[cols.pos[node]] == (up_product, down_product)


class TestColumnarGraph:
    def test_columns_match_incident_arrays(self):
        graph = random_graph(seed=1)
        cols = ColumnarGraph.from_graph(graph)
        assert cols.num_nodes == graph.num_nodes
        assert cols.num_slots == 2 * graph.num_edges
        assert cols.version == graph.version
        for node in graph.nodes():
            arrays = graph.incident_arrays(node)
            start, stop = cols.slice_of(node)
            assert stop - start == cols.degree(node) == graph.degree(node)
            assert tuple(cols.numbers[start:stop]) == arrays.numbers
            assert tuple(cols.augmented[start:stop]) == arrays.augmented
            assert tuple(cols.aug_sorted[start:stop]) == arrays.aug_sorted
            assert tuple(cols.numbers_by_aug[start:stop]) == arrays.numbers_by_aug
            assert (
                tuple(bool(flag) for flag in cols.up[start:stop]) == arrays.up
            )
            assert (
                tuple(bool(flag) for flag in cols.up_by_aug[start:stop])
                == arrays.up_by_aug
            )
            row = cols.pos[node]
            assert cols.node_max_number[row] == arrays.max_number
            assert cols.node_max_augmented[row] == arrays.max_augmented
        assert cols.max_number == max(cols.node_max_number)
        assert cols.max_augmented == max(cols.node_max_augmented)

    def test_unknown_node_rejected(self):
        cols = ColumnarGraph.from_graph(random_graph(seed=2))
        with pytest.raises(GraphError):
            cols.slice_of(999)

    def test_graph_accessor_caches_per_version(self):
        graph = random_graph(seed=3)
        cols = graph.columnar()
        assert graph.columnar() is cols  # no mutation: same snapshot
        edge = graph.edges()[0]
        graph.set_weight(edge.u, edge.v, weight=edge.weight + 1)
        fresh = graph.columnar()
        assert fresh is not cols and fresh.version == graph.version

    def test_fits64_false_falls_back_to_lists(self):
        # Default id_bits=32 pushes augmented weights past 64 bits: the
        # columns must degrade to plain lists and the numpy mirrors to None,
        # with every kernel still matching the per-node path.
        graph = Graph(id_bits=32)
        rng = random.Random(11)
        for node in range(1, 13):
            graph.add_node(node)
        for u in range(1, 12):
            graph.add_edge(u, u + 1, weight=rng.randrange(1, 10**9))
        cols = graph.columnar()
        assert not cols.fits64
        assert isinstance(cols.numbers, list)
        assert cols.numpy_columns() is None
        assert_all_kernels_match(graph, rng)


class TestBatchedKernelEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("ordering", ["random", "ascending", "descending"])
    def test_batched_equals_per_node(self, seed, ordering):
        graph = random_graph(seed=seed, ordering=ordering)
        assert_all_kernels_match(graph, random.Random(seed + 100))

    @pytest.mark.parametrize("seed", range(4))
    def test_stdlib_tier_identical_words(self, seed, monkeypatch):
        # Forcing the stdlib tier (as REPRO_NUMPY=0 does at import time)
        # must not change a single word.
        graph = random_graph(seed=seed)
        rng_state = random.Random(seed + 200).getstate()
        with_numpy = _kernel_words(graph, rng_state)
        monkeypatch.setattr(accel, "_np", None)
        graph._columnar_cache = None  # fresh snapshot without cached mirrors
        without_numpy = _kernel_words(graph, rng_state)
        assert with_numpy == without_numpy

    def test_numpy_gates_fall_back_exactly(self):
        # Inputs outside every numpy gate (word_bits > 64, > 64 ranges, a
        # pairwise hash whose products overflow int64) still match the
        # per-node kernels bit for bit.
        graph = random_graph(seed=42)
        cols = graph.columnar()
        wide = OddHashFunction(multiplier=(1 << 69) + 1, threshold=1 << 68, word_bits=70)
        lows = list(range(0, 140, 2))  # 70 ranges > the 64-bit word gate
        highs = [low + 1 for low in lows]
        words = range_parity_words_all(cols, wide, lows, highs)
        for node in graph.nodes():
            arrays = graph.incident_arrays(node)
            assert words[cols.pos[node]] == range_parity_word(
                arrays.aug_sorted, arrays.numbers_by_aug, wide, lows, highs
            )

        huge_p = 2**89 - 1  # a * max_number + b overflows int64
        pairwise = PairwiseIndependentHash(
            a=huge_p - 3, b=huge_p - 7, p=huge_p, range_size=64
        )
        masks = prefix_flip_masks(pairwise.log_range)
        words = prefix_parity_words_all(cols, pairwise, masks)
        xor_words = xor_below_words_all(cols, pairwise, 3)
        for node in graph.nodes():
            arrays = graph.incident_arrays(node)
            assert words[cols.pos[node]] == prefix_parity_word(
                arrays.numbers, pairwise, masks
            )
            assert xor_words[cols.pos[node]] == xor_below_from_numbers(
                arrays.numbers, pairwise, 3
            )


def _kernel_words(graph: Graph, rng_state) -> tuple:
    """A deterministic digest of every batched kernel's output on ``graph``."""
    rng = random.Random()
    rng.setstate(rng_state)
    cols = graph.columnar()
    odd_hash = random_odd_hash(max(cols.max_number, 2), rng)
    lows, highs = random_ranges(rng, cols.max_augmented, 5)
    pairwise = random_pairwise_hash(max(cols.max_number, 2), 256, rng)
    masks = prefix_flip_masks(pairwise.log_range)
    return (
        range_parity_words_all(cols, odd_hash, lows, highs),
        prefix_parity_words_all(cols, pairwise, masks),
        xor_below_words_all(cols, pairwise, 4),
        hp_products_all(cols, 12345, 2**31 - 1, 0, cols.max_augmented),
    )
