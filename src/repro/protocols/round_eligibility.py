"""The Chen–Micali strawman: round-specific (NOT bit-specific) eligibility.

Section 3.2 describes this design and its flaw: eligibility is determined
per *round* — ``VRF(ACK, r) < D`` — so a node eligible to ACK bit ``b`` is
automatically eligible to ACK ``1 - b``.  An adaptive adversary that sees
an honest node ACK ``b`` can corrupt it immediately and make it ACK
``1 - b`` **in the same round with the same ticket** (the Remark in
Section 3.3).  Chen–Micali's defence is the *memory-erasure model*: votes
are additionally signed with a forward-secure key whose per-epoch secret
is erased immediately after the vote, so the freshly corrupted node can no
longer produce a second valid vote for the round.

This module implements the strawman as a phase-king variant with a
``memory_erasure`` switch, so the experiment E6 can show all three cells:

=====================  ======================  =====================
protocol               adversary capability    consistency
=====================  ======================  =====================
round eligibility      equivocation attack     **broken**
round + erasure        equivocation attack     holds
bit-specific (ours)    equivocation attack     holds, *no erasure*
=====================  ======================  =====================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.crypto.hashing import hash_objects
from repro.crypto.registry import ledger_holds, ledger_record, ledger_tag
from repro.eligibility.base import EligibilitySource, Topic
from repro.errors import ConfigurationError, SignatureError
from repro.protocols.base import Authenticator, ProposerPolicy, ProtocolInstance
from repro.protocols.phase_king import (
    DEFAULT_EPOCHS,
    SCHEDULE,
    PhaseKingConfig,
    PhaseKingNode,
)
from repro.protocols.subquadratic_ba import FMINE_MODE, make_eligibility
from repro.rng import Seed
from repro.types import Bit, NodeId, SecurityParameters


# ---------------------------------------------------------------------------
# Ideal forward-secure ("ephemeral key") signatures.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochSignature:
    """An unforgeable per-epoch signature token."""

    signer: NodeId
    epoch: int
    digest: bytes


class EpochSigningCapability:
    """Evolving signing right: can sign only epochs >= ``current_epoch``.

    :meth:`evolve` is the *memory erasure*: after evolving past epoch
    ``t``, not even the holder (nor an adversary that corrupts it) can
    sign for epoch ``t`` — footnote 5's ephemeral keys, idealized.
    """

    def __init__(self, registry: "EpochKeyRegistry", node_id: NodeId) -> None:
        self._registry = registry
        self.node_id = node_id
        self.current_epoch = 0

    def sign(self, epoch: int, message: Any) -> EpochSignature:
        if epoch < self.current_epoch:
            raise SignatureError(
                f"epoch-{epoch} key was erased (current epoch "
                f"{self.current_epoch})")
        return self._registry._sign(self, epoch, message)

    def evolve(self, to_epoch: int) -> None:
        self.current_epoch = max(self.current_epoch, to_epoch)


class EpochKeyRegistry:
    """Ideal forward-secure signature functionality."""

    def __init__(self, n: int) -> None:
        self.n = n
        self._capabilities = [EpochSigningCapability(self, node)
                              for node in range(n)]
        self._issued: set[Tuple[NodeId, int, bytes]] = set()

    def capability_for(self, node_id: NodeId) -> EpochSigningCapability:
        return self._capabilities[node_id]

    def _sign(self, capability: EpochSigningCapability, epoch: int,
              message: Any) -> EpochSignature:
        if capability is not self._capabilities[capability.node_id]:
            raise SignatureError("counterfeit epoch-signing capability")
        digest = hash_objects("epoch-sig", capability.node_id, epoch, message)
        self._issued.add((capability.node_id, epoch, digest))
        return EpochSignature(signer=capability.node_id, epoch=epoch,
                              digest=digest)

    def verify(self, node_id: NodeId, epoch: int, message: Any,
               signature: EpochSignature) -> bool:
        if not isinstance(signature, EpochSignature):
            return False
        if signature.signer != node_id or signature.epoch != epoch:
            return False
        expected = hash_objects("epoch-sig", node_id, epoch, message)
        return (signature.digest == expected
                and (node_id, epoch, signature.digest) in self._issued)


# ---------------------------------------------------------------------------
# Round-specific eligibility authentication.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundAuth:
    """Ticket for the *round* lottery plus a per-epoch signature that
    binds the bit (the part erasure protects).

    ``signature`` is an :class:`EpochSignature` from the
    :class:`EpochKeyRegistry`.
    """

    ticket: Any
    signature: Any


def _round_topic(topic: Topic) -> Topic:
    """Strip the bit: ``(kind, epoch, bit)`` → ``(kind, epoch)``.

    This is the strawman's defining flaw — the lottery does not see the
    bit.
    """
    return (topic[0], topic[1])


def signing_slot(topic: Topic) -> int:
    """The forward-secure key slot for a topic.

    Chen–Micali keys evolve per *slot*, one slot per protocol step: the
    proposal of epoch ``r`` is slot ``2r`` and the ACK is slot ``2r + 1``,
    so erasing the key after a proposal never disables the same epoch's
    ACK.
    """
    kind, epoch = topic[0], topic[1]
    return 2 * epoch + (1 if kind == "ACK" else 0)


class RoundEligibilityAuthenticator(Authenticator):
    """ACK auth = round ticket + per-slot signature over the full topic."""

    def __init__(self, source: EligibilitySource,
                 epoch_registry: EpochKeyRegistry,
                 memory_erasure: bool) -> None:
        self.source = source
        self.epoch_registry = epoch_registry
        self.memory_erasure = memory_erasure
        # The ledger_holds table of every auth ``attempt`` handed out: its
        # ticket stays mined and its signature issued, erased key or not.
        self._ledger: dict = {}

    def attempt(self, node_id: NodeId, topic: Topic) -> Optional[RoundAuth]:
        ticket = self.source.capability_for(node_id).try_mine(
            _round_topic(topic))
        if ticket is None:
            return None
        slot = signing_slot(topic)
        capability = self.epoch_registry.capability_for(node_id)
        signature = capability.sign(slot, topic)
        if self.memory_erasure:
            # Chen–Micali: erase the slot key immediately after voting.
            capability.evolve(slot + 1)
        return ledger_record(self._ledger,
                             RoundAuth(ticket=ticket, signature=signature),
                             ledger_tag(node_id, topic))

    def check(self, node_id: NodeId, topic: Topic, auth: Any) -> bool:
        if ledger_holds(self._ledger, auth, node_id, topic):
            return True
        # Any other object: the lottery ticket and the per-slot signature.
        if not isinstance(auth, RoundAuth):
            return False
        ticket = auth.ticket
        if getattr(ticket, "node_id", None) != node_id:
            return False
        if getattr(ticket, "topic", None) != _round_topic(topic):
            return False
        if not self.source.verify(ticket):
            return False
        return self.epoch_registry.verify(node_id, signing_slot(topic), topic,
                                          auth.signature)


def build_round_eligibility(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    params: SecurityParameters = SecurityParameters(),
    epochs: int = DEFAULT_EPOCHS,
    memory_erasure: bool = False,
    mode: str = FMINE_MODE,
) -> ProtocolInstance:
    """Phase-king with round-specific eligibility (± memory erasure)."""
    if len(inputs) != n:
        raise ConfigurationError("need exactly one input bit per node")
    if not n > 3 * f:
        raise ConfigurationError(f"phase-king requires f < n/3: n={n}, f={f}")
    eligibility = make_eligibility(n, params, seed, mode)
    epoch_registry = EpochKeyRegistry(n)
    authenticator = RoundEligibilityAuthenticator(
        eligibility, epoch_registry, memory_erasure)
    config = PhaseKingConfig(
        threshold=max(1, math.ceil(2 * params.lam / 3)),
        authenticator=authenticator,
        # A proposal is mined per round, the bit chosen after winning
        # (equivocable).
        proposer=ProposerPolicy(authenticator),
        epochs=epochs,
    )
    nodes = [PhaseKingNode(node_id, n, inputs[node_id], config)
             for node_id in range(n)]
    erasure_tag = "erasure" if memory_erasure else "no-erasure"
    return ProtocolInstance(
        name=f"round-eligibility[{erasure_tag}]",
        nodes=nodes,
        max_rounds=SCHEDULE.rounds_for(epochs),
        inputs={i: inputs[i] for i in range(n)},
        signing_capabilities=[epoch_registry.capability_for(i)
                              for i in range(n)],
        mining_capabilities=[eligibility.capability_for(i) for i in range(n)],
        authenticator=authenticator,
        config=config,
    )
