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

This module implements that regime against the repo's simulation
contract, reusing :mod:`repro.protocols.certificates` and the shared
:class:`~repro.protocols.verification.VerificationCache` exactly like
the leader family does.  Resilience **as implemented** is ``n > 3f``
(certificate threshold ``n - f``; two quorums overlap in ``n - 2f > f``
nodes, more than the possible double-voters — the same argument as
``leader_ba``; the CKS original achieves ``n > 2f`` with heavier
view-change machinery this reproduction does not need for its
communication claims).

Epochs: the execution proceeds in epochs ``e = 1, 2, ...``, each with a
round-robin **collector** ``(e - 1) mod n`` and :data:`EPOCH_ROUNDS`
lock-step rounds:

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
     ``f + 1`` of the reports it received — corrupt nodes alone are one
     vote short, so a bit no honest node believes is never adopted
     (agreement validity).  Unlocked nodes adopt the king bit as their
     next belief, re-unifying split inputs exactly like phase-king —
     except the king's cost is linear, not quadratic.

3. **Ack** — a node that received a valid epoch-``e`` propose locks its
   certificate (locks only grow in epoch rank) and unicasts a signed
   ack back to the collector (``n - 1`` words).
4. **Decide** — on ``n - f`` valid acks the collector multicasts an
   :class:`AdaptiveDecideMsg` carrying the ack quorum (transferable,
   each ack individually authenticated) and decides.  Recipients verify
   the quorum, decide, and — under lock-step, where every send is
   trusted — halt *silently*: the fast path never multicasts from more
   than one node.

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
Dolev–Reischuk Ω(f²) floor.

**Safety** (the ``n > 3f`` overlap argument): a decision on ``b`` at
epoch ``e`` means ``n - f`` acks, hence ``>= n - 2f > f`` honest nodes
locked on ``b``.  Honest nodes report their locked bit in later epochs,
so a conflicting certificate for ``1 - b`` would need ``n - f`` votes
drawn from the ``<= 2f < n - f`` nodes that are corrupt or unlocked —
it never forms, and neither does the conflicting decide quorum behind
it.  Same-epoch conflicting certificates are impossible outright: two
``n - f`` quorums overlap in more than the ``f`` possible double-voters
and honest nodes report once per epoch.

**Escalation budget**: the default epoch budget is ``f + 2`` plus the
epochs burned before the conditions' trusted-send round (as in the
leader family's view budget): among any ``f* + 2`` consecutive distinct
collectors at most ``f*`` are faulty, so two consecutive honest-
collector epochs occur within the budget — the first unifies beliefs
through the king path if needed, the second certifies and decides.

Deciders under partial synchrony re-announce their decide message at
epoch boundaries until a round at or past
:func:`~repro.protocols.early_stopping.trusted_send_round_for`, exactly
like the leader family's drain gate, so no laggard is stranded behind a
pre-GST drop; the silent halt happens only once the quorum's send round
was itself trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.crypto.groups import SchnorrGroup, TEST_GROUP
from repro.crypto.registry import IDEAL_MODE, KeyRegistry
from repro.errors import ConfigurationError
from repro.protocols.base import (
    Authenticator,
    ProtocolInstance,
    SignatureAuthenticator,
)
from repro.protocols.certificates import (
    Certificate,
    certificate_from_votes,
    rank,
)
from repro.protocols.early_stopping import trusted_send_round_for
from repro.protocols.messages import SignedVote
from repro.protocols.verification import CACHE_LIMIT, VerificationCache
from repro.rng import Seed
from repro.serialization import _intern_field_key, intern_by_key, intern_payload
from repro.sim.conditions import NetworkConditions
from repro.sim.node import Node, RoundContext
from repro.types import Bit, NodeId, Round

#: Lock-step rounds per epoch, in phase order.
PHASE_REPORT = "Report"
PHASE_PROPOSE = "Propose"
PHASE_ACK = "Ack"
PHASE_DECIDE = "Decide"

_PHASES = (PHASE_REPORT, PHASE_PROPOSE, PHASE_ACK, PHASE_DECIDE)

EPOCH_ROUNDS = len(_PHASES)

#: The documented fast-path constant: a fault-free unanimous execution
#: costs at most ``FAST_PATH_WORD_FACTOR * n`` classical words (reports,
#: one propose multicast, acks, one decide multicast — each at most
#: ``n - 1`` words).
FAST_PATH_WORD_FACTOR = 4


def epoch_schedule(round_index: Round) -> Tuple[int, str]:
    """Map a global protocol round to ``(epoch, phase)`` (epochs 1-based)."""
    epoch, offset = divmod(round_index, EPOCH_ROUNDS)
    return epoch + 1, _PHASES[offset]


def epoch_of_round(round_index: Round) -> int:
    """The (1-based) epoch a global protocol round belongs to."""
    return round_index // EPOCH_ROUNDS + 1


def collector_of(epoch: int, n: int) -> NodeId:
    """The round-robin collector of an epoch (epochs 1-based)."""
    return (epoch - 1) % n


def rounds_for_epochs(epochs: int) -> int:
    """Round budget for ``epochs`` full epochs plus two trailing delivery
    rounds, so the last epoch's decide multicast can land and be tallied."""
    if epochs < 1:
        raise ValueError("need at least one epoch")
    return EPOCH_ROUNDS * epochs + 2


def default_epochs(f: int, conditions: Optional[NetworkConditions]) -> int:
    """The Δ-derived epoch budget.

    ``ceil(trusted_send_round / EPOCH_ROUNDS)`` epochs may burn before
    sends are reliable; after that, any ``f + 2`` consecutive distinct
    collectors contain two consecutive honest ones — one to unify split
    beliefs through the king path, one to certify and decide.
    """
    trusted = trusted_send_round_for(conditions)
    burned = -(-trusted // EPOCH_ROUNDS)  # ceil division
    return burned + f + 2


def escalations_of(result: Any) -> int:
    """Fault-triggered escalation epochs a finished execution burned.

    Zero on the silent fast path (a decision inside epoch 1); each
    escalation is one epoch that ended without settling the execution.
    Derived like :func:`~repro.protocols.leader_ba.decision_view_of`:
    the last honest decision round's epoch when everyone decided (the
    decide multicast lands one round after the quorum was certified),
    otherwise the epoch of the last executed round, clamped to the
    budgeted epochs.
    """
    rounds = result.decision_rounds()
    if rounds and result.all_decided():
        return epoch_of_round(max(max(rounds) - 1, 0)) - 1
    settled = epoch_of_round(max(result.rounds_executed - 1, 0))
    budget = getattr(result, "rounds_budget", None)
    if budget is not None and budget > EPOCH_ROUNDS:
        # The budget pads two trailing delivery rounds past the last
        # epoch (rounds_for_epochs); an exhausted run must not report
        # those as an escalation of their own.
        settled = min(settled, (budget - 2) // EPOCH_ROUNDS)
    return settled - 1


def actual_faults_of(result: Any) -> int:
    """The execution's observed fault count f* (corruptions used)."""
    return result.corruptions_used


def words_of(result: Any) -> int:
    """Total classical words of an execution (Definition 6: a multicast
    counts as ``n - 1`` pairwise words) — the adaptive family's metric,
    since its fast path is built from unicasts the multicast-complexity
    columns do not see."""
    return result.metrics.classical_message_count


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
    """``(Decide, e, b)`` carrying the ``n - f`` ack quorum.

    Transferable proof: each attached ack is authenticated individually
    (never through the certificate cache — an ack quorum must not be
    replayable as a vote certificate)."""

    epoch: int
    bit: Bit
    acks: Tuple[AdaptiveAckMsg, ...]
    sender: NodeId
    auth: Any


# ---------------------------------------------------------------------------
# Config and node.
# ---------------------------------------------------------------------------


@dataclass
class AdaptiveBaConfig:
    """Shared parameters of one adaptive-BA execution."""

    threshold: int  # n - f certificates and ack quorums (n > 3f overlap)
    king_quorum: int  # f + 1 reports justify a king bit
    epochs: int
    authenticator: Authenticator
    #: Execution-wide memo for the public verification predicates; the
    #: nodes of one instance share it (see repro.protocols.verification).
    verification: VerificationCache = field(default_factory=VerificationCache)
    #: First protocol round whose sends provably reach every honest node
    #: (0 under lock-step).  Deciders re-announce their decide message at
    #: epoch boundaries until a round at or past this one, then halt; a
    #: decide quorum sent at or past it lets recipients halt silently.
    trusted_send_round: Round = 0


class AdaptiveBaNode(Node):
    """One party of the adaptive collector-based protocol."""

    def __init__(self, node_id: NodeId, n: int, input_bit: Bit,
                 config: AdaptiveBaConfig) -> None:
        super().__init__(node_id, n)
        self.config = config
        self.input_bit = input_bit
        #: Current belief: the input, until a king or certificate moves it.
        self.belief: Bit = input_bit
        #: The lock: highest-epoch propose certificate seen (None = none).
        self.locked: Optional[Certificate] = None
        # (epoch, bit) -> voter -> auth, valid reports only (collector role).
        self.votes_seen: Dict[Tuple[int, Bit], Dict[NodeId, Any]] = {}
        # (epoch, bit) -> sender -> AdaptiveAckMsg, valid acks only.
        self.acks_seen: Dict[Tuple[int, Bit], Dict[NodeId,
                                                   AdaptiveAckMsg]] = {}
        # Valid proposes per epoch (a corrupt collector may equivocate —
        # same-epoch certificates for both bits cannot both verify, but
        # duplicate sends can land).
        self.proposals: Dict[int, AdaptiveProposeMsg] = {}
        self._final_msg: Optional[AdaptiveDecideMsg] = None
        self._decided_bit: Optional[Bit] = None
        self._verification = config.verification
        # Per-node identity front for certificates (same contract as
        # LeaderBaNode._cert_cache: each received object resolved once).
        self._cert_cache: Dict[int, Tuple[Certificate, bool]] = {}

    # -- validation helpers --------------------------------------------------
    def _check_auth(self, node_id: NodeId, topic: Any, auth: Any) -> bool:
        return self._verification.check_auth(
            self.config.authenticator, node_id, topic, auth)

    def _check_report(self, vote: SignedVote) -> bool:
        return self._verification.check_vote(self.config.authenticator, vote)

    def _check_cert(self, cert: Certificate, epoch: int, bit: Bit) -> bool:
        if cert.iteration != epoch or cert.bit != bit:
            return False
        entry = self._cert_cache.get(id(cert))
        if entry is not None and entry[0] is cert:
            return entry[1]
        result = self._verification.check_certificate(
            cert, self.config.threshold, self._check_report)
        if len(self._cert_cache) >= CACHE_LIMIT:
            self._cert_cache.clear()
        self._cert_cache[id(cert)] = (cert, result)
        return result

    def _absorb_cert(self, cert: Certificate) -> None:
        """Adopt a (pre-validated) certificate as the lock if it outranks
        it; the lock's epoch is monotone over the whole execution."""
        if cert.iteration > rank(self.locked):
            self.locked = cert
            self.belief = cert.bit

    def _is_collector(self, epoch: int) -> bool:
        return collector_of(epoch, self.n) == self.node_id

    # -- inbox processing ----------------------------------------------------
    def _process_inbox(self, ctx: RoundContext) -> None:
        front = self._verification.valid_payloads
        for delivery in ctx.inbox:
            msg = delivery.payload
            entry = front.get(id(msg))
            known = entry is not None and entry[0] is msg
            cls = msg.__class__
            if cls is SignedVote:
                self._handle_report(msg, known)
            elif cls is AdaptiveAckMsg:
                self._handle_ack(msg, known)
            elif cls is AdaptiveProposeMsg:
                self._handle_propose(msg, known)
            elif cls is AdaptiveKingMsg:
                self._handle_king(msg, known)
            elif cls is AdaptiveDecideMsg:
                self._handle_decide(msg, known)

    def _handle_report(self, msg: SignedVote, known: bool = False) -> None:
        if not (known or self._verification.is_known_valid(msg)):
            if msg.bit not in (0, 1):
                return
            if not self._check_report(msg):
                return
            self._verification.mark_valid(msg)
        self.votes_seen.setdefault(
            (msg.iteration, msg.bit), {}).setdefault(msg.voter, msg.auth)

    def _handle_propose(self, msg: AdaptiveProposeMsg,
                        known: bool = False) -> None:
        if not (known or self._verification.is_known_valid(msg)):
            if msg.bit not in (0, 1):
                return
            if msg.sender != collector_of(msg.epoch, self.n):
                return
            if not self._check_auth(msg.sender,
                                    ("Propose", msg.epoch, msg.bit),
                                    msg.auth):
                return
            if not self._check_cert(msg.cert, msg.epoch, msg.bit):
                return
            self._verification.mark_valid(msg)
        self._absorb_cert(msg.cert)
        self.proposals.setdefault(msg.epoch, msg)

    def _handle_king(self, msg: AdaptiveKingMsg, known: bool = False) -> None:
        if not (known or self._verification.is_known_valid(msg)):
            if msg.bit not in (0, 1):
                return
            if msg.sender != collector_of(msg.epoch, self.n):
                return
            if not self._check_auth(msg.sender,
                                    ("King", msg.epoch, msg.bit), msg.auth):
                return
            voters = set()
            for vote in msg.votes:
                if (vote.iteration != msg.epoch or vote.bit != msg.bit
                        or not self._check_report(vote)):
                    return
                voters.add(vote.voter)
            if len(voters) < self.config.king_quorum:
                return
            self._verification.mark_valid(msg)
        # Unification: only nodes holding no lock follow the king — a
        # locked node's bit is already pinned by quorum intersection.
        if self.locked is None:
            self.belief = msg.bit

    def _handle_ack(self, msg: AdaptiveAckMsg, known: bool = False) -> None:
        if not (known or self._verification.is_known_valid(msg)):
            if msg.bit not in (0, 1):
                return
            if not self._check_auth(msg.sender,
                                    ("Ack", msg.epoch, msg.bit), msg.auth):
                return
            self._verification.mark_valid(msg)
        self.acks_seen.setdefault(
            (msg.epoch, msg.bit), {}).setdefault(msg.sender, msg)

    def _handle_decide(self, msg: AdaptiveDecideMsg,
                       known: bool = False) -> None:
        if not (known or self._verification.is_known_valid(msg)):
            if msg.bit not in (0, 1):
                return
            if not self._check_auth(msg.sender,
                                    ("Decide", msg.epoch, msg.bit),
                                    msg.auth):
                return
            senders = set()
            for ack in msg.acks:
                if (ack.epoch != msg.epoch or ack.bit != msg.bit
                        or not self._check_auth(
                            ack.sender, ("Ack", ack.epoch, ack.bit),
                            ack.auth)):
                    return
                senders.add(ack.sender)
            if len(senders) < self.config.threshold:
                return
            self._verification.mark_valid(msg)
        # Adoption flows through the ordinary ack tally, so the carried
        # quorum makes _maybe_decide fire on it.
        recorded = self.acks_seen.setdefault((msg.epoch, msg.bit), {})
        for ack in msg.acks:
            recorded.setdefault(ack.sender, ack)

    # -- decision ------------------------------------------------------------
    def _decide_msg(self, epoch: int, bit: Bit) -> Optional[AdaptiveDecideMsg]:
        auth = self.config.authenticator.attempt(
            self.node_id, ("Decide", epoch, bit))
        if auth is None:
            return None
        quorum = self.acks_seen.get((epoch, bit), {})
        chosen = sorted(quorum.values(),
                        key=lambda a: a.sender)[:self.config.threshold]
        # Interned as a whole quorum: every decider picks the same acks,
        # so content-equal tuples collapse to one object.
        acks = intern_by_key(
            (AdaptiveDecideMsg, epoch, bit,
             tuple([(a.sender, _intern_field_key(a.auth)) for a in chosen])),
            lambda: tuple(chosen))
        return AdaptiveDecideMsg(epoch=epoch, bit=bit, acks=acks,
                                 sender=self.node_id, auth=auth)

    def _settle(self, ctx: RoundContext, epoch: int, bit: Bit,
                announce: bool) -> None:
        """Record the decision and either announce it or halt silently.

        ``announce`` is True for the collector (its decide multicast is
        the propagation) and for adopters whose quorum's send round was
        not yet trusted — the fast path's other ``n - 1`` deciders halt
        without a word.
        """
        self.decide(bit, ctx.round)
        self._decided_bit = bit
        message = self._decide_msg(epoch, bit)
        self._final_msg = message
        if announce and message is not None:
            ctx.multicast(message)
            if ctx.round >= self.config.trusted_send_round:
                self.halted = True
        else:
            self.halted = True

    def _maybe_decide(self, ctx: RoundContext) -> bool:
        """Adopt a decide quorum observed in the tally, if any."""
        ready = sorted(
            key for key, quorum in self.acks_seen.items()
            if len(quorum) >= self.config.threshold)
        for epoch, bit in ready:
            # The epoch's collector always announces — its decide
            # multicast *is* the propagation.  Everyone else adopted the
            # quorum from that multicast: it was staged in the epoch's
            # decide round, and a send at or past the trusted round
            # reached every honest node, so a silent halt strands nobody;
            # otherwise keep announcing until a trusted round passes.
            send_round = EPOCH_ROUNDS * (epoch - 1) + 3
            trusted = send_round >= self.config.trusted_send_round
            announce = self._is_collector(epoch) or not trusted
            self._settle(ctx, epoch, bit, announce=announce)
            return True
        return False

    # -- phase actions -------------------------------------------------------
    def _do_report(self, ctx: RoundContext, epoch: int) -> None:
        bit = self.belief
        auth = self.config.authenticator.attempt(
            self.node_id, ("Vote", epoch, bit))
        if auth is None:
            return
        collector = collector_of(epoch, self.n)
        if collector == self.node_id:
            # The network does not self-deliver; record the own report.
            self.votes_seen.setdefault((epoch, bit), {}).setdefault(
                self.node_id, auth)
        else:
            ctx.send(collector, intern_payload(SignedVote(
                iteration=epoch, bit=bit, voter=self.node_id, auth=auth)))

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
            auth = self.config.authenticator.attempt(
                self.node_id, ("Propose", epoch, bit))
            if auth is None:
                return
            message = AdaptiveProposeMsg(epoch=epoch, bit=bit, cert=cert,
                                         sender=self.node_id, auth=auth)
            ctx.multicast(message)
            self._absorb_cert(cert)
            self.proposals.setdefault(epoch, message)
            return
        backed = [bit for bit in (0, 1)
                  if len(counts[bit]) >= self.config.king_quorum]
        if not backed:
            return  # too few reports (pre-GST drops); the epoch idles out
        bit = max(backed, key=lambda b: (len(counts[b]),
                                         b == self.belief, -b))
        chosen = sorted(counts[bit].items())[:self.config.king_quorum]
        votes = intern_by_key(
            (AdaptiveKingMsg, epoch, bit,
             tuple([(voter, _intern_field_key(auth))
                    for voter, auth in chosen])),
            lambda: tuple(
                intern_payload(SignedVote(iteration=epoch, bit=bit,
                                          voter=voter, auth=auth))
                for voter, auth in chosen))
        auth = self.config.authenticator.attempt(
            self.node_id, ("King", epoch, bit))
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
        auth = self.config.authenticator.attempt(
            self.node_id, ("Ack", epoch, proposal.bit))
        if auth is None:
            return
        message = AdaptiveAckMsg(epoch=epoch, bit=proposal.bit,
                                 sender=self.node_id, auth=auth)
        collector = collector_of(epoch, self.n)
        if collector == self.node_id:
            self.acks_seen.setdefault(
                (epoch, proposal.bit), {}).setdefault(self.node_id, message)
        else:
            ctx.send(collector, message)

    # -- main entry point ----------------------------------------------------
    def on_round(self, ctx: RoundContext) -> None:
        if self._final_msg is not None:
            # Decided before sends were trusted: re-announce at each
            # epoch boundary until one announcement provably reaches
            # everyone, then halt (the GST-aware drain).
            if ctx.round % EPOCH_ROUNDS == 0:
                ctx.multicast(self._final_msg)
                if ctx.round >= self.config.trusted_send_round:
                    self.halted = True
            return
        self._process_inbox(ctx)
        if self._maybe_decide(ctx):
            return
        epoch, phase = epoch_schedule(ctx.round)
        if epoch > self.config.epochs:
            # Budget exhausted without a decision.
            self.halted = True
            return
        if phase == PHASE_REPORT:
            self._do_report(ctx, epoch)
        elif phase == PHASE_PROPOSE:
            self._do_propose(ctx, epoch)
        elif phase == PHASE_ACK:
            self._do_ack(ctx, epoch)
        # PHASE_DECIDE has no send of its own: the collector's quorum
        # lands in its decide-round inbox and _maybe_decide above fires.

    def output(self) -> Optional[Bit]:
        return self._decided_bit

    def finalize(self) -> Bit:
        decided = self.output()
        return decided if decided is not None else self.belief


# ---------------------------------------------------------------------------
# Builder.
# ---------------------------------------------------------------------------


def build_adaptive_ba(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    epochs: Optional[int] = None,
    registry_mode: str = IDEAL_MODE,
    group: SchnorrGroup = TEST_GROUP,
    conditions: Optional[NetworkConditions] = None,
) -> ProtocolInstance:
    """Construct an adaptive-BA execution over ``n`` nodes.

    ``f`` must satisfy ``n > 3f`` (resilience as implemented — see the
    module docstring); certificates and ack quorums are ``n - f``.
    ``conditions`` — the same
    :class:`~repro.sim.conditions.NetworkConditions` the engine will run
    under — derives the epoch budget and the decide-announcement drain
    gate from Δ/GST; ``None`` (or perfect conditions) is lock-step,
    where every round is trusted and the budget is ``f + 2`` epochs.
    """
    if len(inputs) != n:
        raise ConfigurationError("need exactly one input bit per node")
    if not n > 3 * f:
        raise ConfigurationError(
            f"adaptive BA requires f < n/3: n={n}, f={f}")
    if epochs is None:
        epochs = default_epochs(f, conditions)
    if epochs < 1:
        raise ConfigurationError(f"need at least one epoch, got {epochs}")
    registry = KeyRegistry(n, registry_mode, group, seed)
    authenticator = SignatureAuthenticator(registry)
    config = AdaptiveBaConfig(
        threshold=n - f,
        king_quorum=f + 1,
        epochs=epochs,
        authenticator=authenticator,
        trusted_send_round=trusted_send_round_for(conditions),
    )
    nodes = [AdaptiveBaNode(node_id, n, inputs[node_id], config)
             for node_id in range(n)]
    return ProtocolInstance(
        name="adaptive-ba",
        nodes=nodes,
        max_rounds=rounds_for_epochs(epochs),
        inputs={i: inputs[i] for i in range(n)},
        signing_capabilities=[registry.capability_for(i) for i in range(n)],
        mining_capabilities=[],
        services={
            "registry": registry,
            "authenticator": authenticator,
            "threshold": config.threshold,
            "config": config,
        },
    )
