"""The Bracha delivery substrate: what Byzantine hardening costs.

The fast-path broadcast-and-echo executor charges each logical hop as one
point-to-point message.  Running the same primitives over Bracha reliable
broadcast replaces every hop with a full three-wave instance among a group
of ``g`` witnesses, which fault-free costs

* ``g - 1`` INIT messages,
* ``g * (g - 1)`` ECHO messages (every node echoes to everyone),
* ``g * (g - 1)`` READY messages,

i.e. ``(g - 1) * (2g + 1)`` messages of ``value_bits + TAG_BITS`` each, and
three causal waves of latency instead of one round.  :class:`BrachaSubstrate`
encodes exactly this closed form, and the tests cross-validate it against an
actual kernel execution of :func:`~repro.byzantine.bracha.run_bracha_broadcast`
— the accounting model and the executable protocol are the same object seen
from two sides, in the same way the fast path mirrors the reference path.

Registering the class under the name ``"bracha"``
(:func:`~repro.network.broadcast.register_substrate`) makes it available to
the CLI's ``run --substrate bracha`` and to
:func:`~repro.network.broadcast.make_substrate`, whose result a run carries
in its :class:`~repro.core.config.AlgorithmConfig`.
"""

from __future__ import annotations

from typing import Optional

from ..network.accounting import MessageAccountant
from ..network.broadcast import DeliverySubstrate, register_substrate
from .bracha import TAG_BITS, BrachaConfig

__all__ = ["BrachaSubstrate", "default_resilience"]


def default_resilience(n: int) -> int:
    """The largest Byzantine bound a group of ``n`` tolerates: (n - 1) // 3."""
    return max(0, (n - 1) // 3)


class BrachaSubstrate(DeliverySubstrate):
    """Charge every broadcast-and-echo hop as one Bracha instance.

    Parameters
    ----------
    n:
        The witness-group size ``g`` of each reliable-broadcast instance.
        The natural (and default CLI) choice is the whole network.
    t:
        The Byzantine bound the thresholds must survive; defaults to the
        maximum the group tolerates, ``(n - 1) // 3``.  Construction
        enforces ``n > 3t`` via :class:`~repro.byzantine.bracha.BrachaConfig`.
    """

    name = "bracha"
    #: INIT, ECHO and READY are three causally chained waves: each logical
    #: hop of the plain executor costs three rounds of latency here.
    rounds_per_hop = 3

    def __init__(self, n: int, t: Optional[int] = None) -> None:
        if t is None:
            t = default_resilience(n)
        self.config = BrachaConfig(n=n, t=t)

    @property
    def hop_messages(self) -> int:
        """Fault-free messages of one Bracha instance: (g-1)(2g+1)."""
        g = self.config.n
        return (g - 1) * (2 * g + 1)

    def charge_messages(
        self, accountant: MessageAccountant, count: int, size_bits: int, kind: str
    ) -> None:
        """Charge ``count`` logical sends of ``size_bits`` run over Bracha.

        Each wave is tagged separately (``<kind>@brb-init`` etc.) so the
        accountant's per-kind breakdown shows where the hardening overhead
        goes; every Bracha message carries the value plus the 2-bit wave
        discriminator.
        """
        g = self.config.n
        bits = size_bits + TAG_BITS
        accountant.record_messages(count * (g - 1), bits, kind=f"{kind}@brb-init")
        accountant.record_messages(count * g * (g - 1), bits, kind=f"{kind}@brb-echo")
        accountant.record_messages(count * g * (g - 1), bits, kind=f"{kind}@brb-ready")


@register_substrate("bracha")
def _build_bracha_substrate(n: int, t: Optional[int] = None) -> BrachaSubstrate:
    """Builder for ``make_substrate("bracha", n=..., t=...)``."""
    return BrachaSubstrate(n=n, t=t)
