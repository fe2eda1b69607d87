"""Static equivocation: corrupt nodes push both bits every round.

This is the stress test behind the Lemma 11 counting argument: *"each
[corrupt node] might try to mine for 2 ACKs (one for each bit) in some
fixed epoch r"*.  Corrupt nodes attempt, every voting opportunity, to
authenticate **both** bits — votes, ACKs, and proposals — and multicast
whatever the authenticator (signatures or the bit-specific lottery)
grants them.  Against the quadratic protocol this blocks early commits;
against the subquadratic protocols it exercises the quorum-intersection
bound at its worst case.

What a corrupt node can say is :mod:`repro.adversaries.menu`; this class
is the policy "the last ``f`` nodes say all of it", and :meth:`targets`
— who receives each bit — is the one thing its subclasses change.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.adversaries.menu import ByzantineMenu
from repro.protocols.base import ProtocolInstance
from repro.sim.adversary import Adversary
from repro.sim.network import Envelope
from repro.types import Bit, NodeId, Round


class StaticEquivocationAdversary(Adversary):
    """Corrupts a fixed set at setup and equivocates relentlessly."""

    name = "static-equivocation"
    #: The families (``menu.FAMILIES`` names) this policy may be bound to.
    admits = ("aba", "phase-king")

    def __init__(self, instance: ProtocolInstance) -> None:
        super().__init__()
        self.menu = ByzantineMenu(instance, self.name, self.admits)
        self.family = self.menu.family.name
        self.corrupted: List[NodeId] = []

    def on_setup(self) -> None:
        api = self.api
        for node_id in range(api.n - api.corruption_budget, api.n):
            api.corrupt(node_id)
            self.corrupted.append(node_id)

    def targets(self, bit: Bit) -> Sequence[Optional[NodeId]]:
        """Recipients of a ``bit`` message, ascending (None = multicast)."""
        return (None,)

    def react(self, round_index: Round, staged: List[Envelope]) -> None:
        for node_id, bit, payload in self.menu.offers(
                round_index, staged, self.corrupted):
            for target in self.targets(bit):
                self.api.inject(node_id, target, payload)
