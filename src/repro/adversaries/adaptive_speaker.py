"""Corrupt whoever speaks — the canonical adaptive strategy.

The rushing adversary watches the staged messages of every round and
corrupts each (not-yet-corrupt) multicaster of a vote or ACK until its
budget runs out; that same round the corrupted node tries to
authenticate the *opposite* bit of what it was seen sending, then falls
silent.  A flipped vote past iteration 1 carries the observed proposal,
which justifies only the observed bit, so no honest node accepts it.

Against **round-specific** eligibility this is devastating (see
:mod:`repro.adversaries.equivocation` for the sharpened same-round
version).  Against the paper's **bit-specific** eligibility the corrupted
node's lottery for the opposite bit is fresh and independent — "corrupting
i is no more useful to the adversary than corrupting any other node"
(Section 3.2) — which is precisely what experiment E6 measures.
"""

from __future__ import annotations

from typing import List

from repro.adversaries.menu import family_of
from repro.protocols.base import ProtocolInstance
from repro.protocols.messages import AckMsg, VoteMsg
from repro.sim.adversary import Adversary
from repro.sim.network import Envelope
from repro.types import NodeId, Round, other_bit


class AdaptiveSpeakerAdversary(Adversary):
    """Corrupts observed speakers and equivocates their votes/ACKs."""

    name = "adaptive-speaker"

    def __init__(self, instance: ProtocolInstance,
                 spare_budget: int = 0) -> None:
        super().__init__()
        # Only the iterated families' votes and ACKs are flipped: on any
        # other family the attack would corrupt nobody.
        family_of(instance, "speaker", ("aba", "phase-king"))
        self.authenticator = instance.authenticator
        #: Number of corruptions to hold in reserve (never spent).
        self.spare_budget = spare_budget
        self.corrupted: List[NodeId] = []

    def _try_corrupt(self, node_id: NodeId) -> bool:
        api = self.api
        if api.is_corrupt(node_id):
            return True
        if api.corruptions_remaining <= self.spare_budget:
            return False
        api.corrupt(node_id)
        self.corrupted.append(node_id)
        return True

    def _equivocate(self, envelope: Envelope) -> None:
        """Same-round opposite-bit attempt with the freshly corrupted node."""
        payload = envelope.payload
        node_id = envelope.sender
        if isinstance(payload, VoteMsg):
            flipped = other_bit(payload.bit)
            topic = ("Vote", payload.iteration, flipped)
            auth = self.authenticator.attempt(node_id, topic)
            if auth is not None:
                self.api.inject(node_id, None, VoteMsg(
                    iteration=payload.iteration, bit=flipped,
                    sender=node_id, auth=auth, proposal=payload.proposal))
        elif isinstance(payload, AckMsg):
            flipped = other_bit(payload.bit)
            auth = self.authenticator.attempt(
                node_id, ("ACK", payload.epoch, flipped))
            if auth is not None:
                self.api.inject(node_id, None, AckMsg(
                    epoch=payload.epoch, bit=flipped,
                    sender=node_id, auth=auth))

    def react(self, round_index: Round, staged: List[Envelope]) -> None:
        for envelope in staged:
            if not envelope.honest_sender or not envelope.is_multicast:
                continue
            if not isinstance(envelope.payload, (VoteMsg, AckMsg)):
                continue
            if self._try_corrupt(envelope.sender):
                self._equivocate(envelope)
