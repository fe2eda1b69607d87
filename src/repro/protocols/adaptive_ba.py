"""Adaptive BA: communication scales with the *actual* fault count.

The paper asks how few words Byzantine agreement needs against a
worst-case adversary; the natural "revisited" follow-up — Cohen, Keidar
and Spiegelman's "Make Every Word Count" (and the "From Few to Many
Faults" frontier after it) — asks how few it needs against the faults
that actually *show up*.  Their answer is O((f* + 1) · n) words, where
``f* <= f`` is the number of parties that really deviate: a silent
all-honest execution should cost a linear number of words, and every
observed fault may buy the adversary at most one more linear-cost
amplification round, with the quadratic worst case reached only at
``f* ≈ f``.

This module is that regime's messages, handlers and phase actions over
:mod:`repro.protocols.view_machine`, which owns — and argues — the
schedule, the ``n > 3f`` quorums (resilience **as implemented**; the CKS
original achieves ``n > 2f`` with heavier view-change machinery this
reproduction does not need for its communication claims), the lock's
monotonicity, the epoch budget, the carried-quorum Decide and the GST
drain gate.

Epochs: the execution proceeds in epochs ``e = 1, 2, ...``, each with a
round-robin **collector** ``(e - 1) mod n`` and four lock-step rounds
(:data:`SCHEDULE`):

1. **Report** — every active node *unicasts* a
   :class:`~repro.protocols.messages.SignedVote` for its current belief
   to the epoch's collector (auth topic ``("Vote", e, b)``, the
   certificate machinery's native format).  Cost: at most ``n - 1``
   words — point-to-point, not multicast; this is where adaptivity
   comes from.
2. **Propose** — the collector, holding the reports:

   - if some bit has ``n - f`` valid votes, it assembles the epoch
     certificate (:func:`~repro.protocols.certificates.
     certificate_from_votes`) and multicasts an
     :class:`AdaptiveProposeMsg` carrying it (``n - 1`` words);
   - otherwise (split beliefs) it multicasts an
     :class:`AdaptiveKingMsg` for the most-reported bit, justified by
     ``f + 1`` of the reports it received.  Unlocked nodes adopt the
     king bit as their next belief, re-unifying split inputs exactly
     like phase-king — except the king's cost is linear, not quadratic.

3. **Ack** — a node that received a valid epoch-``e`` propose locks its
   certificate (and believes its bit, so it reports the locked bit in
   later epochs) and unicasts a signed ack back to the collector
   (``n - 1`` words).
4. **Decide** — on ``n - f`` valid acks the collector multicasts an
   :class:`AdaptiveDecideMsg` carrying the ack quorum and decides.
   Recipients verify the quorum, decide, and — when the quorum's send
   round was trusted, as every round is under lock-step — halt
   *silently*: the fast path never multicasts from more than one node.

**Words as implemented** (classical messages, Definition 6: a multicast
is ``n - 1`` pairwise words): a fault-free unanimous execution decides
in epoch 1 for at most ``4(n - 1)`` words — reports, one propose
multicast, acks, one decide multicast — i.e. ``c · n`` with ``c = 4``.
Every actually-faulty collector can silence (or stall) at most its own
epoch, wasting the ``<= n - 1`` report words sent to it, so ``k``
observed faults cost at most ``k`` extra epochs before an honest
collector presides and decides: total words ``<= 4(n - 1) + k(n - 1) =
O((f* + 1) · n)``, versus the quadratic protocol's ``Θ(n²)`` — the
``words-vs-actual-f`` sweep plots exactly this against the
Dolev–Reischuk Ω(f²) floor.  :func:`default_epochs` is the escalation
budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.protocols.base import ProtocolInstance
from repro.protocols.certificates import (
    Certificate,
    certificate_from_votes,
    signed_vote,
)
from repro.protocols.messages import SignedVote
from repro.protocols.view_machine import (
    ViewConfig,
    ViewNode,
    ViewSchedule,
    build_view_instance,
    intern_quorum,
    mean_columns,
)
from repro.rng import Seed
from repro.sim.conditions import NetworkConditions
from repro.sim.node import RoundContext
from repro.types import Bit, NodeId

#: Lock-step rounds per epoch, in phase order.
PHASE_REPORT = "Report"
PHASE_PROPOSE = "Propose"
PHASE_ACK = "Ack"
PHASE_DECIDE = "Decide"

SCHEDULE = ViewSchedule(
    (PHASE_REPORT, PHASE_PROPOSE, PHASE_ACK, PHASE_DECIDE))

#: The documented fast-path constant: a fault-free unanimous execution
#: costs at most ``FAST_PATH_WORD_FACTOR * n`` classical words (reports,
#: one propose multicast, acks, one decide multicast — each at most
#: ``n - 1`` words).
FAST_PATH_WORD_FACTOR = 4


def collector_of(epoch: int, n: int) -> NodeId:
    """The round-robin collector of an epoch (epochs 1-based)."""
    return (epoch - 1) % n


def default_epochs(f: int, conditions: Optional[NetworkConditions]) -> int:
    """The Δ-derived epoch budget: the burned pre-GST epochs, then any
    ``f + 2`` consecutive distinct collectors contain two consecutive
    honest ones — one to unify split beliefs through the king path, one
    to certify and decide."""
    return SCHEDULE.default_budget(f, conditions, slack=2)


def escalations_of(result: Any) -> int:
    """Fault-triggered escalation epochs a finished execution burned:
    zero on the silent fast path (a decision inside epoch 1); each
    escalation is one epoch that ended without settling the execution."""
    return SCHEDULE.settled_unit(result) - 1


def actual_faults_of(result: Any) -> int:
    """The execution's observed fault count f* (corruptions used)."""
    return result.corruptions_used


def words_of(result: Any) -> int:
    """Total classical words of an execution (Definition 6: a multicast
    counts as ``n - 1`` pairwise words) — the adaptive family's metric,
    since its fast path is built from unicasts the multicast-complexity
    columns do not see."""
    return result.metrics.classical_message_count


def adaptive_columns(results: Sequence[Any]) -> Dict[str, float]:
    """The adaptive family's artifact columns over a cell's trials."""
    return mean_columns(results, {
        "mean_words": words_of,
        "mean_actual_faults": actual_faults_of,
        "mean_escalations": escalations_of,
    })


# ---------------------------------------------------------------------------
# Messages.  Reports are plain SignedVote payloads (the certificate
# machinery's native format); everything else is epoch-tagged.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptiveProposeMsg:
    """The collector's certified proposal: ``cert`` is an epoch-``e``
    certificate (``n - f`` votes) for ``bit``; ``auth`` signs
    ``("Propose", epoch, bit)``.  Only the epoch's round-robin collector
    may send one."""

    epoch: int
    bit: Bit
    cert: Certificate
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class AdaptiveKingMsg:
    """The collector's unification fallback when no bit reached the
    certificate threshold: ``votes`` are ``f + 1`` distinct epoch-``e``
    reports for ``bit`` — corrupt nodes alone are one short, so a bit no
    honest node reported can never be pushed (agreement validity).
    Unlocked recipients adopt ``bit`` as their next belief."""

    epoch: int
    bit: Bit
    votes: Tuple[SignedVote, ...]
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class AdaptiveAckMsg:
    """``(Ack, e, b)``: the sender locked epoch ``e``'s certificate for
    ``b``; ``n - f`` of these form the decide quorum."""

    epoch: int
    bit: Bit
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class AdaptiveDecideMsg:
    """``(Decide, e, b)`` carrying the ``n - f`` ack quorum — the
    transferable proof of the decision."""

    epoch: int
    bit: Bit
    acks: Tuple[AdaptiveAckMsg, ...]
    sender: NodeId
    auth: Any


# ---------------------------------------------------------------------------
# Node.  The config is the plain ViewConfig: ``units`` is the epoch
# budget and ``fallback_quorum`` justifies a king bit.
# ---------------------------------------------------------------------------


class AdaptiveBaNode(ViewNode):
    """One party of the adaptive collector-based protocol."""

    SCHEDULE = SCHEDULE
    DECIDE = AdaptiveDecideMsg
    MEMBER_TOPIC = "Ack"

    def __init__(self, node_id: NodeId, n: int, input_bit: Bit,
                 config: ViewConfig) -> None:
        super().__init__(node_id, n, input_bit, config)
        # The first valid propose per epoch (same-epoch certificates for
        # both bits cannot both verify, but duplicate sends can land).
        self.proposals: Dict[int, AdaptiveProposeMsg] = {}

    def _is_collector(self, epoch: int) -> bool:
        return collector_of(epoch, self.n) == self.node_id

    def _on_lock(self, certificate: Certificate) -> None:
        self.belief = certificate.bit

    # -- validation predicates -----------------------------------------------
    def _valid_report(self, msg: SignedVote) -> bool:
        return msg.bit in (0, 1) and self._check_vote_auth(msg)

    def _valid_propose(self, msg: AdaptiveProposeMsg) -> bool:
        return (msg.sender == collector_of(msg.epoch, self.n)
                and self._signed(msg, "Propose", msg.epoch)
                and msg.cert.iteration == msg.epoch
                and self._check_certificate(msg.cert, msg.bit))

    def _valid_king(self, msg: AdaptiveKingMsg) -> bool:
        if not (msg.sender == collector_of(msg.epoch, self.n)
                and self._signed(msg, "King", msg.epoch)):
            return False
        voters = set()
        for vote in msg.votes:
            if (vote.iteration != msg.epoch or vote.bit != msg.bit
                    or not self._check_vote_auth(vote)):
                return False
            voters.add(vote.voter)
        return len(voters) >= self.config.fallback_quorum

    def _valid_ack(self, msg: AdaptiveAckMsg) -> bool:
        return self._signed(msg, "Ack", msg.epoch)

    def _valid_decide(self, msg: AdaptiveDecideMsg) -> bool:
        return self.valid_quorum_decide(msg, "epoch", msg.acks)

    # -- absorb steps (validated messages only) ------------------------------
    def _absorb_report(self, msg: SignedVote) -> None:
        self.votes_seen.setdefault(
            (msg.iteration, msg.bit), {}).setdefault(msg.voter, msg.auth)

    def _absorb_propose(self, msg: AdaptiveProposeMsg) -> None:
        self.absorb_lock(msg.cert)
        self.proposals.setdefault(msg.epoch, msg)

    def _absorb_king(self, msg: AdaptiveKingMsg) -> None:
        # Unification: only nodes holding no lock follow the king — a
        # locked node's bit is already pinned by quorum intersection.
        if self.locked is None:
            self.belief = msg.bit

    def _absorb_ack(self, msg: AdaptiveAckMsg) -> None:
        self.record_member(msg.epoch, msg.bit, msg)

    def _absorb_decide(self, msg: AdaptiveDecideMsg) -> None:
        self.absorb_quorum(msg.epoch, msg.bit, msg.acks)

    # -- decision ------------------------------------------------------------
    def _settle(self, ctx: RoundContext, epoch: int, bit: Bit) -> bool:
        """The first decide quorum settles the execution.

        The epoch's collector always announces — its decide multicast
        *is* the propagation.  Everyone else adopted the quorum from
        that multicast: it was staged in the epoch's decide round, and a
        send at or past the trusted round reached every honest node, so
        a silent halt strands nobody (the fast path's other ``n - 1``
        deciders halt without a word); otherwise keep announcing until a
        trusted round passes.
        """
        announce = self._is_collector(epoch) or not self._sent_trusted(
            SCHEDULE.round_of(epoch, PHASE_DECIDE))
        self._finish(ctx, bit, self.quorum_decide_msg(epoch, bit), announce)
        return True

    # -- phase actions -------------------------------------------------------
    def _do_report(self, ctx: RoundContext, epoch: int) -> None:
        bit = self.belief
        auth = self._sign("Vote", epoch, bit)
        if auth is None:
            return
        collector = collector_of(epoch, self.n)
        if collector == self.node_id:
            # The network does not self-deliver; record the own report.
            self.votes_seen.setdefault((epoch, bit), {}).setdefault(
                self.node_id, auth)
        else:
            ctx.send(collector, signed_vote(epoch, bit, self.node_id, auth))

    def _do_propose(self, ctx: RoundContext, epoch: int) -> None:
        if not self._is_collector(epoch):
            return
        counts = {bit: self.votes_seen.get((epoch, bit), {})
                  for bit in (0, 1)}
        certified = [bit for bit in (0, 1)
                     if len(counts[bit]) >= self.config.threshold]
        if certified:
            # Same-epoch certificates for both bits cannot coexist
            # (quorum overlap beats the double-voters); pick the first.
            bit = certified[0]
            cert = certificate_from_votes(
                epoch, bit, counts[bit], self.config.threshold)
            auth = self._sign("Propose", epoch, bit)
            if auth is None:
                return
            message = AdaptiveProposeMsg(epoch=epoch, bit=bit, cert=cert,
                                         sender=self.node_id, auth=auth)
            ctx.multicast(message)
            self._absorb_propose(message)
            return
        choice = self._fallback_choice(counts)
        if choice is None:
            return  # too few reports (pre-GST drops); the epoch idles out
        bit, chosen = choice
        votes = intern_quorum(
            AdaptiveKingMsg, epoch, bit, chosen,
            lambda: tuple(signed_vote(epoch, bit, voter, auth)
                          for voter, auth in chosen))
        auth = self._sign("King", epoch, bit)
        if auth is None:
            return
        if self.locked is None:
            self.belief = bit
        ctx.multicast(AdaptiveKingMsg(epoch=epoch, bit=bit, votes=votes,
                                      sender=self.node_id, auth=auth))

    def _do_ack(self, ctx: RoundContext, epoch: int) -> None:
        proposal = self.proposals.get(epoch)
        if proposal is None:
            return
        # The current epoch's certificate outranks any held lock, so a
        # valid propose is always acceptable (locks were absorbed on
        # receipt); ack it back to the collector.
        auth = self._sign("Ack", epoch, proposal.bit)
        if auth is None:
            return
        message = AdaptiveAckMsg(epoch=epoch, bit=proposal.bit,
                                 sender=self.node_id, auth=auth)
        collector = collector_of(epoch, self.n)
        if collector == self.node_id:
            self._absorb_ack(message)
        else:
            ctx.send(collector, message)


AdaptiveBaNode._HANDLERS = {
    SignedVote: (AdaptiveBaNode._valid_report, AdaptiveBaNode._absorb_report),
    AdaptiveProposeMsg: (AdaptiveBaNode._valid_propose,
                         AdaptiveBaNode._absorb_propose),
    AdaptiveKingMsg: (AdaptiveBaNode._valid_king, AdaptiveBaNode._absorb_king),
    AdaptiveAckMsg: (AdaptiveBaNode._valid_ack, AdaptiveBaNode._absorb_ack),
    AdaptiveDecideMsg: (AdaptiveBaNode._valid_decide,
                        AdaptiveBaNode._absorb_decide),
}
# The Decide phase has no send of its own: the collector's ack quorum
# lands in its decide-round inbox and _maybe_decide fires on it.
AdaptiveBaNode._ACTIONS = {
    PHASE_REPORT: AdaptiveBaNode._do_report,
    PHASE_PROPOSE: AdaptiveBaNode._do_propose,
    PHASE_ACK: AdaptiveBaNode._do_ack,
}


# ---------------------------------------------------------------------------
# Builder.
# ---------------------------------------------------------------------------


def build_adaptive_ba(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    epochs: Optional[int] = None,
    conditions: Optional[NetworkConditions] = None,
) -> ProtocolInstance:
    """Construct an adaptive-BA execution over ``n`` nodes (``n > 3f``,
    resilience as implemented — see the module docstring).

    ``conditions`` derives the epoch budget and the decide-announcement
    drain gate from Δ/GST (see
    :func:`~repro.protocols.view_machine.build_view_instance`); under
    lock-step the budget is ``f + 2`` epochs.
    """

    def configure(**shared: Any) -> ViewConfig:
        units = epochs if epochs is not None else default_epochs(f, conditions)
        if units < 1:
            raise ConfigurationError(f"need at least one epoch, got {units}")
        return ViewConfig(units=units, **shared)

    return build_view_instance(
        "adaptive-ba", "adaptive BA", AdaptiveBaNode, n, f, inputs,
        conditions, configure)
