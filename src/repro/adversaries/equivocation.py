"""The Remark-3.3 attack on round-specific eligibility.

*"Had [eligibility] not been [bit-specific], the adversary could observe
whenever an honest node sends (ACK, r, b), and immediately corrupt the
node in the same round and make it send (ACK, r, 1 - b) too. ... by
corrupting all these nodes that sent the ACKs, the adversary can construct
2λ/3 ACKs for 1 - b, and thus consistency within an epoch does not
hold."*

Implemented literally, plus the routing needed to turn the broken
epoch-consistency into an output split:

1. The attack targets the **final epoch** (so the protocol cannot
   self-heal in later epochs).
2. Every honest ``(ACK, r, b)`` multicast is answered by corrupting the
   ACKer and *reusing its round ticket* (the lottery is bit-blind) to send
   ``(ACK, r, 1-b)`` — but only to half of the honest nodes, so the two
   halves tally different winners.
3. A reserve pool of nodes corrupted at setup mines its own (bit-blind)
   round tickets to tip the count in the targeted half.

Outcome matrix (experiment E6):

- round-specific, no erasure → forged ACKs verify → **consistency broken**;
- round-specific + memory erasure → the per-epoch signing key was erased
  the moment the honest ACK was staged; forgery raises and is counted in
  ``failed_forgeries`` — Chen–Micali's defence holds;
- bit-specific (the paper's protocols, attacked via
  :class:`~repro.adversaries.adaptive_speaker.AdaptiveSpeakerAdversary`)
  → the opposite-bit lottery is fresh; no amplification, no split.
"""

from __future__ import annotations

from typing import List, Set

from repro.errors import ConfigurationError, SignatureError
from repro.protocols.base import ProtocolInstance
from repro.protocols.messages import AckMsg
from repro.protocols.round_eligibility import (
    RoundAuth,
    RoundEligibilityAuthenticator,
    signing_slot,
)
from repro.sim.adversary import Adversary
from repro.sim.network import Envelope
from repro.types import Bit, NodeId, Round, other_bit


class AckEquivocationAdversary(Adversary):
    """Same-round ACK equivocation against round-specific eligibility."""

    name = "ack-equivocation"

    def __init__(self, instance: ProtocolInstance, reserve: int = 0) -> None:
        super().__init__()
        services = instance.services
        authenticator = services.get("authenticator")
        if not isinstance(authenticator, RoundEligibilityAuthenticator):
            raise ConfigurationError(
                "this attack targets round-specific eligibility protocols")
        self.authenticator = authenticator
        config = services["config"]
        # Target the second-to-last epoch: the split beliefs it creates
        # are ACKed (and become the outputs) in the final epoch, leaving
        # the protocol no time to self-heal.
        self.target_epoch = max(0, config.epochs - 2)
        self.reserve = reserve
        # Keep enough budget in hand to corrupt the ~λ eligible ACKers of
        # the target epoch (the threshold is 2λ/3, so 2·threshold ≥ λ).
        self._spare = 2 * config.threshold
        self.reserve_nodes: List[NodeId] = []
        self.forged = 0
        self.failed_forgeries = 0

    def on_setup(self) -> None:
        api = self.api
        pool = list(range(api.n - self.reserve, api.n))
        usable = max(0, api.corruptions_remaining - self._spare)
        for node_id in pool[:usable]:
            api.corrupt(node_id)
            self.reserve_nodes.append(node_id)

    # -- helpers -----------------------------------------------------------
    def _split_targets(self) -> List[NodeId]:
        """The half of the network that receives the forged ACKs."""
        api = self.api
        return [node for node in range(api.n)
                if node % 2 == 1 and not api.is_corrupt(node)]

    def _deliver_forgery(self, sender: NodeId, msg: AckMsg) -> None:
        for target in self._split_targets():
            self.api.inject(sender, target, msg)

    def _forge_opposite_ack(self, envelope: Envelope) -> None:
        payload: AckMsg = envelope.payload
        node_id = envelope.sender
        flipped = other_bit(payload.bit)
        topic = ("ACK", payload.epoch, flipped)
        # The round ticket is bit-blind: the honest node's ticket for
        # ("ACK", epoch) authenticates the flipped bit just as well.
        ticket = payload.auth.ticket
        capability = self.authenticator.epoch_registry.capability_for(node_id)
        try:
            signature = capability.sign(signing_slot(topic), topic)
        except SignatureError:
            # Memory erasure: the epoch key is gone — Chen–Micali holds.
            self.failed_forgeries += 1
            return
        self._deliver_forgery(node_id, AckMsg(
            epoch=payload.epoch, bit=flipped, sender=node_id,
            auth=RoundAuth(ticket=ticket, signature=signature)))
        self.forged += 1

    def _reserve_ack(self, epoch: int, bit: Bit) -> None:
        """Reserve nodes mine fresh (bit-blind) tickets for extra weight."""
        for node_id in self.reserve_nodes:
            auth = self.authenticator.attempt(node_id, ("ACK", epoch, bit))
            if auth is not None:
                self._deliver_forgery(node_id, AckMsg(
                    epoch=epoch, bit=bit, sender=node_id, auth=auth))

    # -- the rushing step ----------------------------------------------------
    def react(self, round_index: Round, staged: List[Envelope]) -> None:
        api = self.api
        honest_bits: Set[Bit] = set()
        for envelope in staged:
            payload = envelope.payload
            if not envelope.honest_sender or not isinstance(payload, AckMsg):
                continue
            if not isinstance(payload.auth, RoundAuth):
                continue
            if payload.epoch != self.target_epoch:
                continue
            honest_bits.add(payload.bit)
            if api.is_corrupt(envelope.sender):
                continue
            if api.corruptions_remaining <= 0:
                return
            api.corrupt(envelope.sender)
            self._forge_opposite_ack(envelope)
        if len(honest_bits) == 1:
            (honest_bit,) = honest_bits
            self._reserve_ack(self.target_epoch, other_bit(honest_bit))
