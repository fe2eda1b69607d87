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
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.crypto.registry import KeyRegistry
from repro.protocols.base import (
    OracleProposerPolicy,
    ProtocolInstance,
    SignatureAuthenticator,
    ViewSchedule,
)
from repro.protocols.messages import (
    AckMsg,
    PhaseKingDecideMsg,
    PhaseKingProposeMsg,
)
from repro.protocols.verification import (
    RoundConfig, VerifyingNode, admit, build_round_instance)
from repro.rng import Seed
from repro.sim.leader import LeaderOracle, RoundRobinLeaderOracle
from repro.sim.node import RoundContext
from repro.types import Bit, NodeId

DEFAULT_EPOCHS = 20

PHASE_PROPOSE = "Propose"
PHASE_ACK = "ACK"

#: Epochs are 0-based (they appear in signed topics), two rounds each;
#: a budget runs one round past the last epoch, the final tally round.
SCHEDULE = ViewSchedule((PHASE_PROPOSE, PHASE_ACK), first=0, trailing=1)


class PhaseKingNode(VerifyingNode):
    """One party of the phase-king protocol (warmup or compiled)."""

    def __init__(self, node_id: NodeId, n: int, input_bit: Bit,
                 config: RoundConfig) -> None:
        super().__init__(node_id, n, config)
        self.belief: Bit = input_bit
        self.sticky: bool = True  # F = 1 at initialization (footnote 4)
        self.last_acked: Optional[Bit] = None
        # (epoch, bit) -> ACKer -> its first valid ACK: the tally, and
        # the raw material of an early-stop unanimity certificate.
        self.acks_seen: Dict[Tuple[int, Bit], Dict[NodeId, AckMsg]] = {}
        # epoch -> set of valid proposal bits heard.
        self.proposals_heard: Dict[int, Set[Bit]] = {}
        # A decision adopted from a received unanimity certificate,
        # applied at the top of the next on_round (early stopping only).
        self._adopted_decision: Optional[Tuple[int, Bit]] = None

    # -- message intake (VerifyingNode._fold over _HANDLERS) ----------------
    def _valid_propose(self, msg: PhaseKingProposeMsg) -> bool:
        return msg.bit in (0, 1) and self.config.proposer.check(
            msg.sender, msg.epoch, msg.bit, msg.auth)

    def _absorb_propose(self, msg: PhaseKingProposeMsg) -> None:
        self.proposals_heard.setdefault(msg.epoch, set()).add(msg.bit)

    def _valid_ack(self, msg: AckMsg) -> bool:
        return msg.bit in (0, 1) and self._check_auth(
            msg.sender, ("ACK", msg.epoch, msg.bit), msg.auth)

    def _absorb_ack(self, msg: AckMsg) -> None:
        self.acks_seen.setdefault(
            (msg.epoch, msg.bit), {}).setdefault(msg.sender, msg)

    def _valid_decide(self, msg: PhaseKingDecideMsg) -> bool:
        """A decide message is exactly as good as the unanimity
        certificate it carries: ``n`` authenticated epoch-``r`` ACKs for
        one bit, from a trusted (fully synchronous) epoch.  The sender's
        own authority is irrelevant — a valid certificate is
        transferable proof regardless of who relays it.  Only the
        early-stopping variant reads one."""
        if not self.config.early_stop_unanimity or msg.bit not in (0, 1):
            return False
        if SCHEDULE.round_of(msg.epoch, PHASE_ACK) < \
                self.config.trusted_send_round:
            return False
        ackers: Set[NodeId] = set()
        for ack in msg.acks:
            if ack.epoch != msg.epoch or ack.bit != msg.bit:
                return False
            if not self._check_auth(ack.sender, ("ACK", ack.epoch, ack.bit),
                                    ack.auth):
                return False
            ackers.add(ack.sender)
        return len(ackers) >= self.n

    def _absorb_decide(self, msg: PhaseKingDecideMsg) -> None:
        self._adopted_decision = (msg.epoch, msg.bit)

    def _tally(self, epoch: int) -> None:
        """Step 3: adopt a bit with ample ACKs, else clear the sticky flag."""
        counts = {bit: len(self.acks_seen.get((epoch, bit), ()))
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
        if SCHEDULE.round_of(epoch, PHASE_ACK) < self.config.trusted_send_round:
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
        self._fold(ctx.inbox)
        if self._adopted_decision is not None:
            epoch, bit = self._adopted_decision
            self._early_decide(ctx, epoch, bit, certificate=None)
            return
        epoch, phase = SCHEDULE.schedule(ctx.round)
        if epoch >= self.config.units:
            # Final tally round: absorb the last epoch's ACKs and stop.
            self._tally(self.config.units - 1)
            self.decide(self.finalize(), ctx.round)
            self.halted = True
            return
        if phase == PHASE_PROPOSE:
            if epoch > 0:
                self._tally(epoch - 1)
                if self.config.early_stop_unanimity:
                    unanimous = self._unanimity_bit(epoch - 1)
                    if unanimous is not None:
                        acks = self.acks_seen[(epoch - 1, unanimous)]
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
                self._absorb_ack(ack)

    def output(self) -> Optional[Bit]:
        if not self.halted:
            return None
        return self.last_acked if self.last_acked is not None else 0

    def finalize(self) -> Bit:
        return self.last_acked if self.last_acked is not None else 0


PhaseKingNode._HANDLERS = {
    PhaseKingProposeMsg: (PhaseKingNode._valid_propose,
                          PhaseKingNode._absorb_propose),
    AckMsg: (PhaseKingNode._valid_ack, PhaseKingNode._absorb_ack),
    PhaseKingDecideMsg: (PhaseKingNode._valid_decide,
                         PhaseKingNode._absorb_decide),
}


def build_phase_king(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    epochs: int = DEFAULT_EPOCHS,
    oracle: Optional[LeaderOracle] = None,
) -> ProtocolInstance:
    """The warmup of Section 3.1: signed multicasts, 2n/3 quorums."""
    admit("phase-king", n, f, inputs, 3)
    registry = KeyRegistry(n)
    authenticator = SignatureAuthenticator(registry)
    leader_oracle = oracle if oracle is not None else RoundRobinLeaderOracle(n)
    config = RoundConfig(
        schedule=SCHEDULE,
        threshold=math.ceil(2 * n / 3),
        authenticator=authenticator,
        proposer=OracleProposerPolicy(leader_oracle, authenticator),
        units=epochs,
    )
    return build_round_instance("phase-king", PhaseKingNode, inputs, config,
                                signing=registry)
