"""Algorithm parameters shared by the KKT procedures.

The paper's procedures are parameterised by a handful of constants:

* ``c`` — the success-probability exponent: algorithms succeed with
  probability at least ``1 - n^{-c}``;
* ``w`` — the word size, i.e. the number of parallel ``TestOut`` sub-ranges a
  single broadcast-and-echo can test (Section 3.1).  The paper takes
  ``w = Θ(log n)``, which is where the ``log log n`` saving comes from;
* ``q`` — the success probability of a single ``TestOut`` (1/8 for the
  multiply-threshold odd hash of [33]);
* ``epsilon(n)`` — the error parameter handed to ``HP-TestOut``
  (``≤ n^{-c-1}`` so that union bounds over the ``O(log n)`` invocations stay
  below ``n^{-c}``).

:class:`AlgorithmConfig` bundles them, derives the iteration budgets used by
``FindMin`` / ``FindMin-C`` / ``FindAny`` (Lemmas 2 and 5), and owns the
random generator so that every run is reproducible from a seed.  It also
carries a run's two execution choices — the delivery substrate and the
node-local kernel class — so they reach every procedure explicitly instead
of through process-wide state.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from ..network.broadcast import DeliverySubstrate
from ..network.errors import AlgorithmError
from .kernels import KERNELS

__all__ = ["AlgorithmConfig", "TESTOUT_SUCCESS_PROBABILITY", "FINDANY_SUCCESS_PROBABILITY"]

# q: a multiply-threshold hash is a 1/8-odd hash function ([33], Section 2.1).
TESTOUT_SUCCESS_PROBABILITY = 1.0 / 8.0
# Lemma 4: the probability that 2-independent hashing isolates exactly one
# cut edge in some prefix [2^j] is at least 1/16.
FINDANY_SUCCESS_PROBABILITY = 1.0 / 16.0


@dataclass
class AlgorithmConfig:
    """Shared knobs for the KKT algorithms.

    Parameters
    ----------
    n:
        The (known upper bound on the) number of nodes in the network.  The
        paper assumes every node knows a polynomial upper bound; asymptotics
        are stated in terms of it.
    c:
        Success exponent: target failure probability ``n^{-c}``.
    word_size:
        ``w``; ``None`` selects the paper's choice ``max(2, ceil(log2 n))``.
    seed:
        Seed for the pseudo-random generator used by all hash-function and
        sampling choices, for reproducibility.
    phase_policy:
        ``"adaptive"`` (default) lets Build-MST/ST stop once every fragment's
        emptiness has been verified; ``"paper"`` runs the fixed
        ``(40c/C)·lg n`` phases of Section 3.3.
    substrate:
        How each logical tree-hop message is delivered (see
        :func:`~repro.network.broadcast.make_substrate`); ``None`` is the
        plain direct send.
    kernels:
        The class computing node-local values;
        ``None`` takes the value of :data:`repro.core.kernels.KERNELS` at
        construction (the production kernels unless a caller is inside
        :func:`repro.verify.reference.reference_path`).
    """

    n: int
    c: float = 1.0
    word_size: Optional[int] = None
    seed: Optional[int] = None
    phase_policy: str = "adaptive"
    substrate: Optional[DeliverySubstrate] = None
    kernels: Optional[type] = None
    rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise AlgorithmError("the network size bound n must be at least 1")
        if self.c < 1:
            raise AlgorithmError("the paper assumes c >= 1")
        if self.phase_policy not in ("adaptive", "paper"):
            raise AlgorithmError("phase_policy must be 'adaptive' or 'paper'")
        if self.word_size is None:
            self.word_size = max(2, math.ceil(math.log2(max(self.n, 2))))
        if self.word_size < 2:
            raise AlgorithmError("word_size must be at least 2")
        if self.kernels is None:
            self.kernels = KERNELS.get()
        self.rng = random.Random(self.seed)

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def log_n(self) -> float:
        return math.log2(max(self.n, 2))

    def epsilon(self) -> float:
        """HP-TestOut error parameter ε(n) ≤ n^{-c-1} (Section 3.1)."""
        return float(max(self.n, 2)) ** (-(self.c + 1))

    def findmin_budget(self, max_weight: int) -> int:
        """Iteration budget of FindMin (Step 8): (c/q)·lg n + (c/q)·lg maxWt / lg w."""
        q = TESTOUT_SUCCESS_PROBABILITY
        lg_max_wt = math.log2(max(max_weight, 2))
        budget = (self.c / q) * self.log_n + (self.c / q) * lg_max_wt / math.log2(self.word_size)
        return max(1, math.ceil(budget))

    def findmin_c_budget(self, max_weight: int) -> int:
        """Iteration budget of FindMin-C: (2c/q)·lg maxWt / lg w."""
        q = TESTOUT_SUCCESS_PROBABILITY
        lg_max_wt = math.log2(max(max_weight, 2))
        budget = (2 * self.c / q) * lg_max_wt / math.log2(self.word_size)
        return max(1, math.ceil(budget))

    def findany_budget(self) -> int:
        """Repetition budget of FindAny (Step 5): 16·ln(ε(n)^{-1})."""
        return max(1, math.ceil(16.0 * math.log(1.0 / self.epsilon())))

    def build_phase_budget(self) -> int:
        """Number of Borůvka phases to run.

        ``"paper"`` policy: ``(40c/C)·lg n`` with ``C`` the FindMin-C success
        probability (Section 3.3).  ``"adaptive"`` policy: a smaller cap —
        termination normally happens much earlier via the verified-empty
        test — but still a w.h.p.-sufficient ``8·lg n + 16`` phases.
        """
        if self.phase_policy == "paper":
            big_c = 2.0 / 3.0  # FindMin-C success probability bound (Lemma 2)
            return max(1, math.ceil((40 * self.c / big_c) * self.log_n))
        return max(1, math.ceil(8 * self.log_n) + 16)

    def spawn(self) -> random.Random:
        """A new RNG derived from the config's stream (for sub-procedures)."""
        return random.Random(self.rng.getrandbits(64))
