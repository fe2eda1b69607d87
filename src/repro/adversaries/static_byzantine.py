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
is the policy "the crash victims — the last ``f`` nodes — say all of
it", and :meth:`targets` (who receives each bit) is all subclasses change.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.adversaries.crash import CrashAdversary
from repro.adversaries.menu import ByzantineMenu
from repro.protocols.base import ProtocolInstance
from repro.sim.network import Envelope
from repro.types import Bit, NodeId, Round


class StaticEquivocationAdversary(CrashAdversary):
    """Corrupts a fixed set at setup and equivocates relentlessly."""

    name = "static-equivocation"
    #: The families (``menu.FAMILIES`` names) this policy may be bound to.
    admits = ("aba", "phase-king")

    def __init__(self, instance: ProtocolInstance) -> None:
        super().__init__()
        self.menu = ByzantineMenu(instance, self.name, self.admits)
        self.family = self.menu.family.name

    @property
    def corrupted(self) -> List[NodeId]:
        """The equivocators: the static set, in corruption order."""
        return self.victims

    def targets(self, bit: Bit) -> Sequence[Optional[NodeId]]:
        """Recipients of a ``bit`` message, ascending (None = multicast)."""
        return (None,)

    def react(self, round_index: Round, staged: List[Envelope]) -> None:
        for node_id, bit, payload in self.menu.offers(
                round_index, staged, self.victims):
            for target in self.targets(bit):
                self.api.inject(node_id, target, payload)
