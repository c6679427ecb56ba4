"""Reference kernels: the straight-line forms of every node-local value.

The production kernels (:mod:`repro.core.kernels`) compute each node-local
value from cached incident arrays or in one batched pass over the whole
graph, and root trees through an incrementally patched cache.  This module
keeps the original, obviously-correct forms they must agree with: every
call re-reads the node's incident edge list, re-hashes each edge once per
prefix level or weight range, and roots the tree with a fresh
:func:`~repro.network.broadcast.build_tree_structure`.

Only checks use it — the equivalence suite, the fuzz ``fastpath`` oracle
and ``repro bench`` — by building their runs inside :func:`reference_path`::

    from repro.verify.reference import reference_path

    with reference_path():
        ...  # AlgorithmConfigs built here use ReferenceKernels

Messages, bits, rounds and broadcast-and-echo counts must come out
bit-identical on both.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.hashing import OddHashFunction, PairwiseIndependentHash
from ..core.kernels import KERNELS, Local
from ..core.polynomial import local_product
from ..network.broadcast import TreeStructure, build_tree_structure
from ..network.fragments import SpanningForest
from ..network.graph import Edge, Graph

__all__ = [
    "ReferenceKernels",
    "local_parity",
    "local_prefix_parities",
    "local_range_parities",
    "local_xor_below",
    "pack_parity_word",
    "reference_path",
    "unpack_parity_word",
]


# ---------------------------------------------------------------------- #
# straight-line sketch kernels
# ---------------------------------------------------------------------- #
def local_parity(edge_numbers: Iterable[int], odd_hash: OddHashFunction) -> int:
    """Parity (0/1) of the number of given edge numbers hashing to 1."""
    return odd_hash.parity_of(edge_numbers)


def local_range_parities(
    edges: Sequence[Tuple[int, int]],
    odd_hash: OddHashFunction,
    ranges: Sequence[Tuple[int, int]],
) -> List[int]:
    """Per-range parities for FindMin's parallel TestOuts.

    ``edges`` is a list of ``(augmented_weight, edge_number)`` pairs for the
    node's incident edges; ``ranges`` is the list of ``[j_i, k_i]`` intervals
    (inclusive) being tested in parallel.  The same hash function is reused
    for every range, exactly as in Section 3.1.
    """
    parities = [0] * len(ranges)
    for weight, edge_number in edges:
        if not odd_hash(edge_number):
            continue
        for index, (low, high) in enumerate(ranges):
            if low <= weight <= high:
                parities[index] ^= 1
    return parities


def local_prefix_parities(
    edge_numbers: Iterable[int], pairwise_hash: PairwiseIndependentHash
) -> List[int]:
    """FindAny step 3(b): parity of incident edges hashing into ``[2^i]``.

    Index ``i`` runs from 0 to ``lg r`` inclusive, so the last entry is the
    parity of *all* incident edges.
    """
    log_range = pairwise_hash.log_range
    parities = [0] * (log_range + 1)
    for edge_number in edge_numbers:
        value = pairwise_hash(edge_number)
        for i in range(log_range + 1):
            if value < (1 << i):
                parities[i] ^= 1
    return parities


def local_xor_below(
    edge_numbers: Iterable[int],
    pairwise_hash: PairwiseIndependentHash,
    prefix_exponent: int,
) -> int:
    """FindAny step 3(d): XOR of incident edge numbers hashing below ``2^prefix``."""
    result = 0
    for edge_number in edge_numbers:
        if pairwise_hash(edge_number) < (1 << prefix_exponent):
            result ^= edge_number
    return result


def pack_parity_word(parities: Sequence[int]) -> int:
    """Pack a list of single-bit parities into one word (bit i = parity i)."""
    word = 0
    for index, bit in enumerate(parities):
        if bit:
            word |= 1 << index
    return word


def unpack_parity_word(word: int, width: int) -> List[int]:
    """Inverse of :func:`pack_parity_word`."""
    return [(word >> index) & 1 for index in range(width)]


# ---------------------------------------------------------------------- #
# the kernel class
# ---------------------------------------------------------------------- #
class ReferenceKernels:
    """:class:`~repro.core.kernels.ProductionKernels`' interface, straight-line.

    ``tree`` arguments are accepted for interface parity and ignored: no
    value is ever batched here.
    """

    def __init__(self, graph: Graph, forest: SpanningForest) -> None:
        self.graph = graph
        self.forest = forest
        self.id_bits = graph.id_bits

    def rooted(self, root: int) -> TreeStructure:
        """A freshly built rooted structure of ``T_root``."""
        return build_tree_structure(self.forest, root)

    def max_weight(self) -> int:
        return self.graph.max_weight()

    def _numbers(self, node: int) -> List[int]:
        return [e.edge_number(self.id_bits) for e in self.graph.incident_edges(node)]

    def statistics(self, tree: Optional[TreeStructure]) -> Local:
        def local(node: int) -> Tuple[int, int, int, int]:
            edges = self.graph.incident_edges(node)
            max_edge_number = max((e.edge_number(self.id_bits) for e in edges), default=0)
            max_augmented = max((e.augmented_weight(self.id_bits) for e in edges), default=0)
            return (1, max_edge_number, max_augmented, len(edges))

        return local

    def range_parity(
        self,
        tree: Optional[TreeStructure],
        odd_hash: OddHashFunction,
        ranges: Sequence[Tuple[int, int]],
    ) -> Local:
        def local(node: int) -> int:
            incident = [
                (e.augmented_weight(self.id_bits), e.edge_number(self.id_bits))
                for e in self.graph.incident_edges(node)
            ]
            return pack_parity_word(local_range_parities(incident, odd_hash, ranges))

        return local

    def hp_pair(
        self, tree: Optional[TreeStructure], alpha: int, p: int, low: int, high: int
    ) -> Local:
        def local(node: int) -> Tuple[int, int]:
            up_numbers = []
            down_numbers = []
            for edge in self.graph.incident_edges(node):
                if not (low <= edge.augmented_weight(self.id_bits) <= high):
                    continue
                side = up_numbers if node == edge.u else down_numbers
                side.append(edge.edge_number(self.id_bits))
            return local_product(up_numbers, alpha, p), local_product(down_numbers, alpha, p)

        return local

    def prefix_parity(
        self, tree: Optional[TreeStructure], pairwise: PairwiseIndependentHash
    ) -> Local:
        return lambda node: pack_parity_word(
            local_prefix_parities(self._numbers(node), pairwise)
        )

    def xor_below(
        self,
        tree: Optional[TreeStructure],
        pairwise: PairwiseIndependentHash,
        prefix_exponent: int,
    ) -> Local:
        return lambda node: local_xor_below(self._numbers(node), pairwise, prefix_exponent)

    def endpoint_count(self, tree: Optional[TreeStructure], number: int) -> Local:
        return lambda node: self._numbers(node).count(number)

    def weighted_edges(self, node: int) -> Iterable[Tuple[Edge, int]]:
        return [(e, e.augmented_weight(self.id_bits)) for e in self.graph.incident_edges(node)]


@contextmanager
def reference_path() -> Iterator[None]:
    """Build every :class:`~repro.core.config.AlgorithmConfig` with
    :class:`ReferenceKernels` inside the block.

    The choice is a context variable read when a config is built, so it
    covers this thread (or asyncio task) only — a run on another thread
    keeps the production kernels.
    """
    token = KERNELS.set(ReferenceKernels)
    try:
        yield
    finally:
        KERNELS.reset(token)
