"""``TestOut`` and ``HP-TestOut`` (Section 2, Lemma 1).

Both procedures answer the question *"does any edge leave the maintained tree
``T_x`` (optionally: with weight in ``[j, k]``)?"* with a single
broadcast-and-echo:

* :meth:`CutTester.test_out` — the constant-probability test.  The root
  broadcasts an odd hash function ``h``; every node returns the parity of
  ``h`` over its incident edges (restricted to the weight range); parities
  XOR up the tree.  Edges internal to ``T`` are counted at both endpoints and
  cancel, so the root's bit is the parity of ``h`` over the *cut*.  A ``1``
  therefore proves the cut is non-empty; if the cut is non-empty the bit is
  ``1`` with probability at least 1/8.  The echo is a single bit.

* :meth:`CutTester.hp_test_out` — the high-probability test.  Rather than
  amplifying TestOut, the paper tests whether the multisets ``E↑(T)`` and
  ``E↓(T)`` are equal (Observation 1) using the Schwartz–Zippel identity
  check over ``Z_p``: the root broadcasts a random ``α ∈ Z_p``; every node
  returns the pair of products over its "up" and "down" incident edges; the
  echo multiplies the pairs componentwise.  If no edge leaves, the two
  products are always equal; if some edge leaves they differ with
  probability ``≥ 1 − ε(n)``.

Throughout this package, weight intervals refer to **augmented weights**
(weight concatenated with the edge number, see :mod:`repro.network.graph`),
which is exactly the paper's device for making weights distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, List, Optional, Sequence, Tuple

from ..network.accounting import MessageAccountant
from ..network.broadcast import BroadcastEchoExecutor, TreeStructure
from ..network.errors import AlgorithmError
from ..network.fragments import SpanningForest
from ..network.graph import Edge, Graph
from .config import AlgorithmConfig
from .hashing import OddHashFunction, random_odd_hash
from .polynomial import combine_product_pairs
from .primes import prime_for_field
from .sketches import xor_combine

__all__ = ["TreeStatistics", "CutTester", "combine_statistics"]

#: One node's statistics echo: ``(size, maxEdgeNum, maxAugWt, endpoints)``.
Statistics = Tuple[int, int, int, int]


def combine_statistics(values: Iterable[Statistics]) -> Statistics:
    """Echo reducer for :meth:`CutTester.tree_statistics`: sum, max, max, sum."""
    sizes, max_numbers, max_weights, endpoints = zip(*values)
    return sum(sizes), max(max_numbers), max(max_weights), sum(endpoints)


@dataclass(frozen=True)
class TreeStatistics:
    """Aggregates computed by one broadcast-and-echo over ``T_x``.

    These are the quantities the paper's procedures ask the root to determine
    before searching: ``maxEdgeNum(T)``, ``maxWt(T)`` (as an augmented
    weight) and ``B``, the total number of edge endpoints incident to nodes
    of ``T`` (the sum of degrees).
    """

    size: int
    max_edge_number: int
    max_augmented_weight: int
    num_endpoints: int

    @property
    def has_incident_edges(self) -> bool:
        return self.num_endpoints > 0


class CutTester:
    """TestOut / HP-TestOut over the maintained forest of a graph.

    The tester owns the run's node-local kernels (``config.kernels``, see
    :mod:`repro.core.kernels`) and its broadcast-and-echo executor, which
    delivers over ``config.substrate``; the search procedures reach both
    through their tester.
    """

    def __init__(
        self,
        graph: Graph,
        forest: SpanningForest,
        config: AlgorithmConfig,
        accountant: Optional[MessageAccountant] = None,
    ) -> None:
        self.graph = graph
        self.forest = forest
        self.config = config
        self.accountant = accountant if accountant is not None else MessageAccountant()
        self.kernels = config.kernels(graph, forest)
        self.executor = BroadcastEchoExecutor(
            graph,
            forest,
            self.accountant,
            substrate=config.substrate,
            rooted=self.kernels.rooted,
        )

    # ------------------------------------------------------------------ #
    # statistics (FindMin step 2 / HP-TestOut step 0)
    # ------------------------------------------------------------------ #
    def tree_statistics(
        self, root: int, tree: Optional[TreeStructure] = None
    ) -> TreeStatistics:
        """One broadcast-and-echo computing size, maxEdgeNum, maxWt and B."""
        id_bits = self.graph.id_bits
        max_weight = self.kernels.max_weight()
        payload_bits = max(8, 2 * id_bits + max_weight.bit_length() + 4)
        size, max_en, max_aw, endpoints = self.executor.broadcast_and_echo(
            root=root,
            local_value=self.kernels.statistics(tree),
            combine=combine_statistics,
            broadcast_bits=8,
            echo_bits=payload_bits,
            tree=tree,
            kind="stats",
        )
        return TreeStatistics(
            size=size,
            max_edge_number=max_en,
            max_augmented_weight=max_aw,
            num_endpoints=endpoints,
        )

    # ------------------------------------------------------------------ #
    # TestOut
    # ------------------------------------------------------------------ #
    def test_out(
        self,
        root: int,
        low: Optional[int] = None,
        high: Optional[int] = None,
        odd_hash: Optional[OddHashFunction] = None,
        max_edge_number: Optional[int] = None,
        tree: Optional[TreeStructure] = None,
    ) -> bool:
        """TestOut(x, j, k): one-bit-echo cut test, never false positive.

        ``low``/``high`` bound the *augmented* weight of the edges considered
        (both ``None`` means "any edge", the plain ``TestOut(x)``).  A result
        of ``True`` is always correct; a non-empty cut is detected with
        probability at least 1/8.
        """
        word = self.test_out_word(
            root=root,
            ranges=[(low, high)],
            odd_hash=odd_hash,
            max_edge_number=max_edge_number,
            tree=tree,
        )
        return bool(word & 1)

    def test_out_word(
        self,
        root: int,
        ranges: Sequence[Tuple[Optional[int], Optional[int]]],
        odd_hash: Optional[OddHashFunction] = None,
        max_edge_number: Optional[int] = None,
        tree: Optional[TreeStructure] = None,
    ) -> int:
        """Up to ``w`` TestOuts in parallel sharing one broadcast-and-echo.

        This is the device of Section 3.1: because each TestOut's echo is a
        single bit and the same hash function is reused for every sub-range,
        ``w`` weight ranges can be tested with one B&E whose echo is a
        ``w``-bit word.  Bit ``i`` of the returned word is the outcome of
        ``TestOut(x, ranges[i])``.
        """
        if not ranges:
            raise AlgorithmError("at least one range is required")
        if len(ranges) > max(self.config.word_size, 1) and len(ranges) > 64:
            raise AlgorithmError(
                f"{len(ranges)} parallel ranges exceed the word size"
            )
        id_bits = self.graph.id_bits
        if max_edge_number is None:
            max_edge_number = max(self.graph.max_edge_number(), 1)
        hash_fn = (
            odd_hash
            if odd_hash is not None
            else random_odd_hash(max_edge_number, self.config.rng)
        )
        resolved_ranges = [
            (low if low is not None else 0, high if high is not None else (1 << 256))
            for (low, high) in ranges
        ]

        range_bits = 2 * max(
            (high.bit_length() for _, high in resolved_ranges if high), default=1
        )
        broadcast_bits = hash_fn.description_bits() + min(range_bits, 4 * id_bits + 64)
        echo_bits = len(ranges)
        return self.executor.broadcast_and_echo(
            root=root,
            local_value=self.kernels.range_parity(tree, hash_fn, resolved_ranges),
            combine=xor_combine,
            broadcast_bits=broadcast_bits,
            echo_bits=echo_bits,
            tree=tree,
            kind="testout",
        )

    # ------------------------------------------------------------------ #
    # HP-TestOut
    # ------------------------------------------------------------------ #
    def hp_test_out(
        self,
        root: int,
        low: Optional[int] = None,
        high: Optional[int] = None,
        field_prime: Optional[int] = None,
        statistics: Optional[TreeStatistics] = None,
        tree: Optional[TreeStructure] = None,
    ) -> bool:
        """HP-TestOut(x, j, k): w.h.p.-correct cut test via set equality.

        Returns ``True`` iff the test reports an edge leaving ``T_root`` with
        augmented weight in ``[low, high]``.  If no such edge exists the
        answer is always ``False``; if one exists the answer is ``True`` with
        probability at least ``1 − ε(n)``.

        ``field_prime`` (and the statistics used to derive it) may be passed
        in by callers that already ran the statistics broadcast — FindMin
        does — so that this is a single broadcast-and-echo (Lemma 1);
        otherwise the "step 0" statistics B&E is run (and charged) here.
        """
        if field_prime is None:
            if statistics is None:
                statistics = self.tree_statistics(root, tree=tree)
            field_prime = prime_for_field(
                max_edge_number=max(statistics.max_edge_number, 2),
                num_endpoints=max(statistics.num_endpoints, 1),
                epsilon=self.config.epsilon(),
            )
        p = field_prime
        alpha = self.config.rng.randrange(0, p)
        id_bits = self.graph.id_bits
        low_bound = low if low is not None else 0
        high_bound = high if high is not None else (1 << 256)
        up, down = self.executor.broadcast_and_echo(
            root=root,
            local_value=self.kernels.hp_pair(tree, alpha, p, low_bound, high_bound),
            combine=partial(combine_product_pairs, p=p),
            broadcast_bits=p.bit_length() + min(4 * id_bits + 64, 256),
            echo_bits=2 * p.bit_length(),
            tree=tree,
            kind="hp_testout",
        )
        return up != down

    # ------------------------------------------------------------------ #
    # convenience for verification / experiments (God's-eye view)
    # ------------------------------------------------------------------ #
    def true_cut_edges(
        self, root: int, low: Optional[int] = None, high: Optional[int] = None
    ) -> List[Edge]:
        """Ground-truth list of edges leaving ``T_root`` in the weight range.

        Used only by tests and experiment harnesses to check the Monte Carlo
        answers; the distributed procedures never call it.
        """
        component = self.forest.component_of(root)
        id_bits = self.graph.id_bits
        low_bound = low if low is not None else 0
        high_bound = high if high is not None else (1 << 256)
        result = []
        for edge in self.forest.outgoing_edges(component):
            weight = edge.augmented_weight(id_bits)
            if low_bound <= weight <= high_bound:
                result.append(edge)
        return result
