"""The Theorem 4 adversary: after-the-fact removal isolates a victim.

Section 2's ``A'`` specialised to multicast protocols: pick a victim ``p``
(not the designated sender); whenever any node stages a message that would
reach ``p``, corrupt the sender (budget permitting) and **remove the copy
addressed to p** in that very round; the corrupted sender keeps running
the honest protocol towards everyone else (two-thread behaviour, as in
the Appendix B attack).  The victim hears *nothing*, times out, and falls
back to its default output while everyone else decides the real value —
a consistency violation.

The attack's cost is one corruption per distinct speaker.  Against the
subquadratic protocol only ``O(λ²)`` nodes ever speak, so the attack
succeeds with ``≪ f`` corruptions — the executable content of Theorem 1:
subquadratic communication *cannot* survive a strongly adaptive
adversary.  Against the quadratic protocol every node speaks, the budget
``f`` runs out, and the attack fails (experiment E1's second row).
"""

from __future__ import annotations

from typing import Dict, List

from repro.adversaries.sandbox import SandboxAdversary
from repro.sim.network import Delivery, Envelope
from repro.types import NodeId, Round


class IsolationAdversary(SandboxAdversary):
    """Silences every channel into one victim via after-the-fact removal."""

    name = "isolation"

    def __init__(self, victim: NodeId) -> None:
        super().__init__()
        self.victim = victim
        #: True once the corruption budget could not cover a new speaker.
        self.budget_exhausted = False
        self.removed_copies = 0

    def observe_deliveries(self, round_index: Round,
                           inboxes: Dict[NodeId, List[Delivery]]) -> None:
        # Corrupted senders keep following the protocol ("behaves correctly
        # otherwise") — except that nothing they send reaches the victim.
        injected = self.sandbox.step(
            inboxes,
            send_filter=lambda node_id, recipient, payload:
                recipient is None or recipient != self.victim,
        )
        for envelope in injected:
            if envelope.is_multicast:
                self.api.remove(envelope, self.victim)
                self.removed_copies += 1

    def _reaches_victim(self, envelope: Envelope) -> bool:
        if envelope.sender == self.victim:
            return False
        return envelope.is_multicast or envelope.recipient == self.victim

    def react(self, round_index: Round, staged: List[Envelope]) -> None:
        api = self.api
        for envelope in staged:
            if not envelope.honest_sender or not self._reaches_victim(envelope):
                continue
            if api.is_corrupt(envelope.sender):
                # Sender fell earlier this round; its remaining staged
                # copies to the victim still need removing (idempotent).
                api.remove(envelope, self.victim)
                self.removed_copies += 1
                continue
            if api.corruptions_remaining <= 0:
                self.budget_exhausted = True
                return
            grant = api.corrupt(envelope.sender)
            self.sandbox.adopt(grant)
            api.remove(envelope, self.victim)
            self.removed_copies += 1
