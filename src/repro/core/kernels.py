"""The node-local values of every broadcast-and-echo, computed one way.

Each KKT procedure reduces to broadcast-and-echoes whose echoes aggregate
*node-local* values: a node's tree statistics, its TestOut parity word, its
HP-TestOut ``(up, down)`` product pair, its FindAny prefix-parity word, XOR
and endpoint count, and the weighted incident edges Sample draws from.
:class:`ProductionKernels` is the one place the procedures get those values
from; a :class:`~repro.core.testout.CutTester` owns one instance, and
FindMin, FindAny, Sample and repair reach it through their tester.

Every value has at most two forms, picked per broadcast-and-echo by
:func:`~repro.network.columnar.should_batch`:

* **batched** — one pass over the graph's
  :class:`~repro.network.columnar.ColumnarGraph` columns computes the value
  of every node at once (the ``*_all`` kernels of :mod:`repro.core.sketches`);
* **per-node** — the node's cached
  :class:`~repro.network.graph.IncidentArrays`.

The two forms are value-identical, so the choice is wall-clock only.  Rooting
goes through the forest's :class:`~repro.network.tree_cache.TreeStructureCache`.

The straight-line reference forms live in :mod:`repro.verify.reference`
behind the same method names.  Which class a run uses is the ``kernels``
field of its :class:`~repro.core.config.AlgorithmConfig`, defaulting to the
value of :data:`KERNELS` when the config is built; only the equivalence
suite, the fuzz oracle and ``repro bench`` ever set it to the reference
class.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextvars import ContextVar
from typing import Callable, Iterable, Optional, Sequence, Tuple

from ..network.broadcast import TreeStructure
from ..network.columnar import ColumnarGraph, should_batch
from ..network.fragments import SpanningForest
from ..network.graph import Edge, Graph
from .hashing import OddHashFunction, PairwiseIndependentHash
from .sketches import (
    hp_products_all,
    prefix_flip_masks,
    prefix_parity_word,
    prefix_parity_words_all,
    range_parity_word,
    range_parity_words_all,
    ranges_are_disjoint_sorted,
    xor_below_from_numbers,
    xor_below_words_all,
)

__all__ = ["KERNELS", "ProductionKernels"]

#: ``(node) -> value``: one node's contribution to an echo.
Local = Callable[[int], object]


def _by_node(cols: ColumnarGraph, values: Sequence) -> Local:
    """``node -> values[cols.pos[node]]`` as one C-level dict lookup per node."""
    return dict(zip(cols.ids, values)).__getitem__


class ProductionKernels:
    """Batched or per-node node-local values over one graph and forest."""

    def __init__(self, graph: Graph, forest: SpanningForest) -> None:
        self.graph = graph
        self.forest = forest

    def rooted(self, root: int) -> TreeStructure:
        """The rooted structure of ``T_root``, cached and patched."""
        return self.forest.structures.get(root)

    def max_weight(self) -> int:
        return self.graph.cached_maxima()[1]

    def _columnar(self, tree: Optional[TreeStructure]) -> Optional[ColumnarGraph]:
        """The graph's columnar snapshot when batching pays off, else ``None``."""
        if tree is not None and should_batch(tree.size, self.graph.num_nodes):
            return self.graph.columnar()
        return None

    # ------------------------------------------------------------------ #
    # CutTester
    # ------------------------------------------------------------------ #
    def statistics(self, tree: Optional[TreeStructure]) -> Local:
        """``(1, maxEdgeNum, maxAugWt, degree)`` of a node."""
        cols = self._columnar(tree)
        if cols is not None:
            pos, indptr = cols.pos, cols.indptr
            max_number, max_augmented = cols.node_max_number, cols.node_max_augmented

            def local(node: int) -> Tuple[int, int, int, int]:
                row = pos[node]
                return (
                    1,
                    max_number[row],
                    max_augmented[row],
                    indptr[row + 1] - indptr[row],
                )

            return local
        incident_arrays = self.graph.incident_arrays

        def local(node: int) -> Tuple[int, int, int, int]:
            arrays = incident_arrays(node)
            return (1, arrays.max_number, arrays.max_augmented, len(arrays.numbers))

        return local

    def range_parity(
        self,
        tree: Optional[TreeStructure],
        odd_hash: OddHashFunction,
        ranges: Sequence[Tuple[int, int]],
    ) -> Local:
        """TestOut word: bit ``i`` is the parity of ``odd_hash`` over ``ranges[i]``."""
        if not ranges_are_disjoint_sorted(ranges):
            # The one-pass kernel needs sorted disjoint ranges (an edge flips
            # one bit); otherwise answer each range with its own word.
            parts = [self.range_parity(tree, odd_hash, [bounds]) for bounds in ranges]

            def local(node: int) -> int:
                word = 0
                for index, part in enumerate(parts):
                    word |= part(node) << index
                return word

            return local
        lows = [low for low, _ in ranges]
        highs = [high for _, high in ranges]
        cols = self._columnar(tree)
        if cols is not None:
            return _by_node(cols, range_parity_words_all(cols, odd_hash, lows, highs))
        incident_arrays = self.graph.incident_arrays

        def local(node: int) -> int:
            arrays = incident_arrays(node)
            return range_parity_word(
                arrays.aug_sorted, arrays.numbers_by_aug, odd_hash, lows, highs
            )

        return local

    def hp_pair(
        self, tree: Optional[TreeStructure], alpha: int, p: int, low: int, high: int
    ) -> Local:
        """HP-TestOut ``(up, down)`` products over the incident edges in ``[low, high]``."""
        cols = self._columnar(tree)
        if cols is not None:
            return _by_node(cols, hp_products_all(cols, alpha, p, low, high))
        incident_arrays = self.graph.incident_arrays

        def local(node: int) -> Tuple[int, int]:
            # Bisect to the incident edges inside the weight window and fold
            # their (alpha - #e) factors; multiplication mod p commutes, so
            # the weight-sorted order is harmless.
            arrays = incident_arrays(node)
            weights = arrays.aug_sorted
            start = bisect_left(weights, low)
            stop = bisect_right(weights, high, start)
            up_product = down_product = 1
            for number, is_up in zip(
                arrays.numbers_by_aug[start:stop], arrays.up_by_aug[start:stop]
            ):
                if is_up:
                    up_product = (up_product * (alpha - number)) % p
                else:
                    down_product = (down_product * (alpha - number)) % p
            return up_product, down_product

        return local

    # ------------------------------------------------------------------ #
    # FindAny
    # ------------------------------------------------------------------ #
    def prefix_parity(
        self, tree: Optional[TreeStructure], pairwise: PairwiseIndependentHash
    ) -> Local:
        """FindAny step 3(b): bit ``i`` is the parity of edges hashing into ``[2^i]``."""
        masks = prefix_flip_masks(pairwise.log_range)
        cols = self._columnar(tree)
        if cols is not None:
            return _by_node(cols, prefix_parity_words_all(cols, pairwise, masks))
        incident_arrays = self.graph.incident_arrays
        return lambda node: prefix_parity_word(
            incident_arrays(node).numbers, pairwise, masks
        )

    def xor_below(
        self,
        tree: Optional[TreeStructure],
        pairwise: PairwiseIndependentHash,
        prefix_exponent: int,
    ) -> Local:
        """FindAny step 3(d): XOR of edge numbers hashing below ``2^prefix``."""
        cols = self._columnar(tree)
        if cols is not None:
            return _by_node(cols, xor_below_words_all(cols, pairwise, prefix_exponent))
        incident_arrays = self.graph.incident_arrays
        return lambda node: xor_below_from_numbers(
            incident_arrays(node).numbers, pairwise, prefix_exponent
        )

    def endpoint_count(self, tree: Optional[TreeStructure], number: int) -> Local:
        """FindAny step 4: how many of a node's incident edges are ``number``."""
        cols = self._columnar(tree)
        if cols is not None:
            numbers, pos, indptr = cols.numbers, cols.pos, cols.indptr

            def local(node: int) -> int:
                row = pos[node]
                return numbers[indptr[row] : indptr[row + 1]].count(number)

            return local
        incident_arrays = self.graph.incident_arrays
        return lambda node: incident_arrays(node).numbers.count(number)

    # ------------------------------------------------------------------ #
    # Sample
    # ------------------------------------------------------------------ #
    def weighted_edges(self, node: int) -> Iterable[Tuple[Edge, int]]:
        """A node's incident edges paired with their augmented weights."""
        arrays = self.graph.incident_arrays(node)
        return zip(arrays.edges, arrays.augmented)


#: The kernel class an :class:`~repro.core.config.AlgorithmConfig` picks up
#: when it is built.  A context variable, so a choice made on one thread or
#: task never reaches another.
KERNELS: ContextVar[type] = ContextVar("repro_kernels", default=ProductionKernels)
