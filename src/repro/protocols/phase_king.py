"""The Section 3.1 warmup: sticky-flag phase-king BA, tolerating < n/3.

Epochs ``r = 0 .. R-1`` of two synchronous rounds each:

1. **Propose round** — the epoch's leader flips a random coin ``b`` and
   multicasts ``(propose, r, b)``.
2. **ACK round** — every node sets ``b* := b_i`` if its sticky flag is 1
   or no valid leader proposal was heard, else ``b* :=`` the proposal, and
   multicasts ``(ACK, r, b*)``.

At the start of the next epoch each node tallies the ACKs: on at least
``2n/3`` ACKs for the same ``b*`` from distinct nodes it sets
``b_i := b*`` and ``F := 1``, else ``F := 0``.  After ``R = ω(log κ)``
epochs a node outputs the bit it last ACKed (0 if it never ACKed).

The same node class also runs the Section 3.2 compiled protocol (see
:mod:`repro.protocols.phase_king_subquadratic`): conditional multicasts,
``2λ/3`` threshold, and self-elected (mined) proposers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.crypto.groups import SchnorrGroup, TEST_GROUP
from repro.crypto.registry import IDEAL_MODE, KeyRegistry
from repro.errors import ConfigurationError
from repro.protocols.base import (
    Authenticator,
    OracleProposerPolicy,
    ProposerPolicy,
    ProtocolInstance,
    SignatureAuthenticator,
)
from repro.protocols.messages import (
    AckMsg,
    PhaseKingDecideMsg,
    PhaseKingProposeMsg,
)
from repro.protocols.verification import VerificationCache
from repro.rng import Seed
from repro.sim.leader import LeaderOracle, RoundRobinLeaderOracle
from repro.sim.node import Node, RoundContext
from repro.types import Bit, NodeId, Round

DEFAULT_EPOCHS = 20

PHASE_PROPOSE = "Propose"
PHASE_ACK = "ACK"


def schedule(round_index: Round) -> Tuple[int, str]:
    """Map a global round to ``(epoch, phase)``: epochs are 0-based, two
    rounds each (epoch ``config.epochs`` is the final tally round)."""
    epoch, is_ack_round = divmod(round_index, 2)
    return epoch, PHASE_ACK if is_ack_round else PHASE_PROPOSE


@dataclass
class PhaseKingConfig:
    threshold: int
    authenticator: Authenticator
    proposer: ProposerPolicy
    epochs: int
    #: Execution-wide memo for the public verification predicates; the
    #: nodes of one instance share it (see repro.protocols.verification).
    verification: VerificationCache = field(default_factory=VerificationCache)
    #: GST-aware early stopping (the ``phase-king-early-stop`` registry
    #: key): a node that observes a *unanimous* epoch — authenticated
    #: ACKs for one bit from all ``n`` nodes — multicasts the ACK set as
    #: a transferable unanimity certificate (:class:`PhaseKingDecideMsg`)
    #: and halts instead of running out the epoch budget.  Detection is
    #: gated on ``trusted_send_round``: a unanimous-looking epoch
    #: observed while drops or partitions are still possible may be an
    #: artifact of one node's view (see ``docs/PROTOCOLS.md``).
    early_stop_unanimity: bool = False
    #: First protocol round whose sends provably reach every honest node
    #: (``NetworkConditions.trusted_send_round``; 0 under lock-step).
    trusted_send_round: int = 0


def phase_king_rounds(epochs: int) -> int:
    """Two rounds per epoch plus one final tally round."""
    return 2 * epochs + 1


class PhaseKingNode(Node):
    """One party of the phase-king protocol (warmup or compiled)."""

    def __init__(self, node_id: NodeId, n: int, input_bit: Bit,
                 config: PhaseKingConfig) -> None:
        super().__init__(node_id, n)
        self.config = config
        self.belief: Bit = input_bit
        self.sticky: bool = True  # F = 1 at initialization (footnote 4)
        self.last_acked: Optional[Bit] = None
        # (epoch, bit) -> set of distinct ACKers.
        self.acks_seen: Dict[Tuple[int, Bit], Set[NodeId]] = {}
        # epoch -> set of valid proposal bits heard.
        self.proposals_heard: Dict[int, Set[Bit]] = {}
        # Content-addressed memo shared across the instance's nodes: an
        # ACK or proposal is verified once per execution, not once per
        # recipient.
        self._verification = config.verification
        # Early-stopping bookkeeping (populated only when the variant is
        # enabled): the authenticated ACK objects per (epoch, bit) — the
        # raw material of a unanimity certificate — and a decision
        # adopted from a received certificate, applied at the top of the
        # next on_round.
        self._ack_msgs: Dict[Tuple[int, Bit], Dict[NodeId, AckMsg]] = {}
        self._adopted_decision: Optional[Tuple[int, Bit]] = None

    # -- message intake -----------------------------------------------------
    def _process_inbox(self, ctx: RoundContext) -> None:
        for delivery in ctx.inbox:
            msg = delivery.payload
            if isinstance(msg, PhaseKingProposeMsg):
                if msg.bit in (0, 1) and self._verification.check_proposal(
                        self.config.proposer, msg.sender, msg.epoch,
                        msg.bit, msg.auth):
                    self.proposals_heard.setdefault(msg.epoch, set()).add(msg.bit)
            elif isinstance(msg, AckMsg):
                if msg.bit in (0, 1) and self._verification.check_auth(
                        self.config.authenticator, msg.sender,
                        ("ACK", msg.epoch, msg.bit), msg.auth):
                    self.acks_seen.setdefault(
                        (msg.epoch, msg.bit), set()).add(msg.sender)
                    if self.config.early_stop_unanimity:
                        self._ack_msgs.setdefault(
                            (msg.epoch, msg.bit), {}).setdefault(
                                msg.sender, msg)
            elif isinstance(msg, PhaseKingDecideMsg):
                if (self.config.early_stop_unanimity
                        and self._decide_msg_valid(msg)):
                    self._adopted_decision = (msg.epoch, msg.bit)

    def _decide_msg_valid(self, msg: PhaseKingDecideMsg) -> bool:
        """A decide message is exactly as good as the unanimity
        certificate it carries: ``n`` authenticated epoch-``r`` ACKs for
        one bit, from a trusted (fully synchronous) epoch.  The sender's
        own authority is irrelevant — a valid certificate is
        transferable proof regardless of who relays it."""
        if msg.bit not in (0, 1):
            return False
        if 2 * msg.epoch + 1 < self.config.trusted_send_round:
            return False
        ackers: Set[NodeId] = set()
        for ack in msg.acks:
            if ack.epoch != msg.epoch or ack.bit != msg.bit:
                return False
            if not self._verification.check_auth(
                    self.config.authenticator, ack.sender,
                    ("ACK", ack.epoch, ack.bit), ack.auth):
                return False
            ackers.add(ack.sender)
        return len(ackers) >= self.n

    def _tally(self, epoch: int) -> None:
        """Step 3: adopt a bit with ample ACKs, else clear the sticky flag."""
        counts = {bit: len(self.acks_seen.get((epoch, bit), set()))
                  for bit in (0, 1)}
        winners = [bit for bit in (0, 1) if counts[bit] >= self.config.threshold]
        if winners:
            # Two winners is impossible for f < n/3 (quorum intersection);
            # break deterministically for out-of-model sweeps.
            chosen = max(winners, key=lambda bit: (counts[bit], -bit))
            self.belief = chosen
            self.sticky = True
        else:
            self.sticky = False

    # -- early stopping ------------------------------------------------------
    def _unanimity_bit(self, epoch: int) -> Optional[Bit]:
        """The bit all ``n`` nodes ACKed in ``epoch``, if the epoch was
        unanimous and its ACK round is past the trusted-send round."""
        if 2 * epoch + 1 < self.config.trusted_send_round:
            return None
        for bit in (0, 1):
            if len(self.acks_seen.get((epoch, bit), ())) >= self.n:
                return bit
        return None

    def _early_decide(self, ctx: RoundContext, epoch: int, bit: Bit,
                      certificate: Optional[Tuple[AckMsg, ...]]) -> None:
        """Adopt ``bit``, publish the unanimity certificate (detection
        only — adopters received the certificate by multicast, so every
        honest node already has it), and halt."""
        self.belief = bit
        self.sticky = True
        self.last_acked = bit
        self.decide(bit, ctx.round)
        if certificate is not None:
            auth = self.config.authenticator.attempt(
                self.node_id, ("Decide", epoch, bit))
            if auth is not None:
                ctx.multicast(PhaseKingDecideMsg(
                    epoch=epoch, bit=bit, acks=certificate,
                    sender=self.node_id, auth=auth))
        self.halted = True

    # -- round behaviour --------------------------------------------------------
    def on_round(self, ctx: RoundContext) -> None:
        self._process_inbox(ctx)
        if self._adopted_decision is not None:
            epoch, bit = self._adopted_decision
            self._early_decide(ctx, epoch, bit, certificate=None)
            return
        epoch, phase = schedule(ctx.round)
        if epoch >= self.config.epochs:
            # Final tally round: absorb the last epoch's ACKs and stop.
            self._tally(self.config.epochs - 1)
            self.decide(self.finalize(), ctx.round)
            self.halted = True
            return
        if phase == PHASE_PROPOSE:
            if epoch > 0:
                self._tally(epoch - 1)
                if self.config.early_stop_unanimity:
                    unanimous = self._unanimity_bit(epoch - 1)
                    if unanimous is not None:
                        acks = self._ack_msgs.get((epoch - 1, unanimous), {})
                        self._early_decide(
                            ctx, epoch - 1, unanimous,
                            certificate=tuple(
                                acks[node] for node in sorted(acks)))
                        return
            # Propose round: flip the epoch coin and (conditionally) propose.
            coin: Bit = ctx.rng.randrange(2)
            auth = self.config.proposer.attempt(self.node_id, epoch, coin)
            if auth is not None:
                ctx.multicast(PhaseKingProposeMsg(
                    epoch=epoch, bit=coin, sender=self.node_id, auth=auth))
        else:
            # ACK round: pick b* per step 2 and (conditionally) ACK it.
            proposals = self.proposals_heard.get(epoch, set())
            if self.sticky or not proposals:
                chosen = self.belief
            else:
                chosen = min(proposals)  # arbitrary tie-break is allowed
            # The node's output tracks the bit it *chose* to ACK each epoch
            # (in the warmup everyone sends, so this equals "last ACK
            # sent"; in the compiled protocol a node keeps its choice even
            # when the lottery denies it the right to multicast it).
            self.last_acked = chosen
            auth = self.config.authenticator.attempt(
                self.node_id, ("ACK", epoch, chosen))
            if auth is not None:
                ack = AckMsg(epoch=epoch, bit=chosen,
                             sender=self.node_id, auth=auth)
                ctx.multicast(ack)
                self.acks_seen.setdefault(
                    (epoch, chosen), set()).add(self.node_id)
                if self.config.early_stop_unanimity:
                    self._ack_msgs.setdefault(
                        (epoch, chosen), {}).setdefault(self.node_id, ack)

    def output(self) -> Optional[Bit]:
        if not self.halted:
            return None
        return self.last_acked if self.last_acked is not None else 0

    def finalize(self) -> Bit:
        return self.last_acked if self.last_acked is not None else 0


def build_phase_king(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    epochs: int = DEFAULT_EPOCHS,
    registry_mode: str = IDEAL_MODE,
    group: SchnorrGroup = TEST_GROUP,
    oracle: Optional[LeaderOracle] = None,
) -> ProtocolInstance:
    """The warmup of Section 3.1: signed multicasts, 2n/3 quorums."""
    if len(inputs) != n:
        raise ConfigurationError("need exactly one input bit per node")
    if not n > 3 * f:
        raise ConfigurationError(
            f"phase-king requires f < n/3: n={n}, f={f}")
    registry = KeyRegistry(n, registry_mode, group, seed)
    authenticator = SignatureAuthenticator(registry)
    leader_oracle = oracle if oracle is not None else RoundRobinLeaderOracle(n)
    config = PhaseKingConfig(
        threshold=math.ceil(2 * n / 3),
        authenticator=authenticator,
        proposer=OracleProposerPolicy(leader_oracle, authenticator),
        epochs=epochs,
    )
    nodes = [PhaseKingNode(node_id, n, inputs[node_id], config)
             for node_id in range(n)]
    return ProtocolInstance(
        name="phase-king",
        nodes=nodes,
        max_rounds=phase_king_rounds(epochs),
        inputs={i: inputs[i] for i in range(n)},
        signing_capabilities=[registry.capability_for(i) for i in range(n)],
        mining_capabilities=[],
        services={
            "registry": registry,
            "authenticator": authenticator,
            "oracle": leader_oracle,
            "threshold": config.threshold,
            "config": config,
        },
    )
