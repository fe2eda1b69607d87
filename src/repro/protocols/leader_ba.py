"""Leader-based (Tendermint-style) BA under partial synchrony.

The paper's protocols iterate over *randomly announced or mined*
proposers; the deployed form of the same communication-complexity
question (Momose-Ren, "Optimal Communication Complexity of Authenticated
Byzantine Agreement"; Cohen-Keidar-Naor's survey) is the **view-based
leader protocol**: a round-robin leader per view, ``n - f`` quorum
certificates, and a locked-value/valid-value rule carrying safety across
view changes.  This module is that family's messages, handlers and phase
actions over :mod:`repro.protocols.view_machine`, which owns — and
argues — the schedule, the ``n > 3f`` quorums, the lock's monotonicity,
the view budget, the carried-quorum Decide and the GST drain gate.

Each view ``v = 1, 2, ...`` occupies :data:`VIEW_ROUNDS` protocol rounds:

1. **NewView** — every node multicasts ``(NewView, v, b)`` attesting its
   current belief ``b`` and carrying its *lock* (the highest prevote-QC
   it has seen).  This is simultaneously the view-change message (the
   lock travels to the next leader) and the input attestation behind
   agreement validity.
2. **Propose** — the round-robin leader of ``v`` multicasts a proposal:
   either its highest known QC's bit with that QC attached (the
   *valid-value* path), or — when it knows no QC at all — a bit backed
   by ``f + 1`` fresh view-``v`` NewView attestations.
3. **Prevote** — a node prevotes the proposal unless its lock blocks it:
   a QC-justified proposal is accepted when the attached QC's rank is at
   least the lock's rank (*unlock on a higher-or-equal valid-value
   certificate*) or it re-proposes the locked bit; an attestation-
   justified proposal only when the node holds no lock at all.  Prevote
   auth topics are ``("Vote", v, b)``, so certificate assembly and
   verification are the unmodified
   :func:`~repro.protocols.certificates.certificate_from_votes` /
   shared-cache machinery at threshold ``n - f``.
4. **Precommit** — on ``n - f`` valid view-``v`` prevotes for ``b`` the
   node assembles the prevote-QC, adopts it as its lock, and multicasts
   ``(Precommit, v, b)``.

A quorum of ``n - f`` valid view-``v`` precommits for ``b`` decides
``b``: every decider multicasts a :class:`LeaderDecideMsg` carrying the
quorum.  An opposite proposal after a decision would need a QC of rank
``>= v`` for ``1 - b``, which the lock argument rules out.

**View timers**: :func:`default_views_per_height` budgets enough views
for a decision to land after GST under every supported adversary.

**Chain workload**: ``heights > 1`` runs repeated BA instances through
the same view machinery — height ``h`` owns a fixed window of views,
locks carry forward (an undecided height's locked value becomes the
node's belief, a decided height's decision does; its window is slept
out), and view/leader numbering runs globally so auth topics never
repeat across heights.  The heavy-traffic axis (``leader-chain``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.groups import SchnorrGroup, TEST_GROUP
from repro.crypto.registry import IDEAL_MODE
from repro.errors import ConfigurationError
from repro.protocols.base import (
    OracleProposerPolicy,
    ProposerPolicy,
    ProtocolInstance,
)
from repro.protocols.certificates import (
    Certificate,
    certificate_from_votes,
    rank,
)
from repro.protocols.view_machine import (
    ViewConfig,
    ViewNode,
    ViewSchedule,
    build_view_instance,
    mean_columns,
)
from repro.rng import Seed
from repro.serialization import intern_payload
from repro.sim.conditions import NetworkConditions
from repro.sim.leader import LeaderOracle, RoundRobinLeaderOracle
from repro.sim.node import RoundContext
from repro.types import Bit, NodeId

#: Protocol rounds per view, in phase order.
PHASE_NEW_VIEW = "NewView"
PHASE_PROPOSE = "Propose"
PHASE_PREVOTE = "Prevote"
PHASE_PRECOMMIT = "Precommit"

SCHEDULE = ViewSchedule(
    (PHASE_NEW_VIEW, PHASE_PROPOSE, PHASE_PREVOTE, PHASE_PRECOMMIT))

VIEW_ROUNDS = SCHEDULE.rounds

#: Default number of repeated instances for the ``leader-chain`` workload.
DEFAULT_CHAIN_HEIGHTS = 3

#: ``(view, phase)`` of a global protocol round (views 1-based).
schedule = SCHEDULE.schedule
#: The (1-based) view a global protocol round belongs to.
view_of_round = SCHEDULE.unit_of_round
#: Round budget for a number of full views.
rounds_for_views = SCHEDULE.rounds_for
#: The view a finished execution settled in; ``view_changes`` artifact
#: columns report this minus one — the views that ended without settling
#: the execution.
decision_view_of = SCHEDULE.settled_unit


def default_views_per_height(f: int,
                             conditions: Optional[NetworkConditions]) -> int:
    """The Δ-derived per-height view budget: the burned pre-GST views,
    then any ``f + 1`` consecutive views contain an honest round-robin
    leader (and an exhausted corruption budget), plus two slack views for
    a withheld-QC lock to propagate through a NewView round and for the
    decide announcement to land."""
    return SCHEDULE.default_budget(f, conditions, slack=3)


def view_columns(results: Sequence[Any]) -> Dict[str, float]:
    """The leader family's artifact columns over a cell's trials."""
    return mean_columns(results, {
        "mean_views_executed": decision_view_of,
        "mean_view_changes": lambda result: decision_view_of(result) - 1,
    })


# ---------------------------------------------------------------------------
# Messages.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewViewMsg:
    """``(NewView, v, b)``: belief attestation plus the carried lock.

    ``auth`` signs ``("NewView", view, bit)``; the attached QC is
    self-certifying, so it is not part of the signed topic — relaying a
    node's attestation next to a different valid QC proves nothing it
    could not prove alone.
    """

    view: int
    bit: Bit
    qc: Optional["Certificate"]
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class LeaderProposeMsg:
    """The view leader's proposal with its justification attached.

    Exactly one justification is carried: ``qc`` (the valid-value path)
    or ``attestations`` — ``f + 1`` QC-stripped view-``v`` NewView
    messages for ``bit`` (the fresh-value path; stripping is sound
    because the attestation auth covers only ``(NewView, view, bit)``).
    """

    view: int
    bit: Bit
    qc: Optional["Certificate"]
    attestations: Tuple[NewViewMsg, ...]
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class PrevoteMsg:
    """``(Prevote, v, b)``; the auth topic is ``("Vote", v, b)`` so an
    ``n - f`` quorum of these is a
    :class:`~repro.protocols.certificates.Certificate` verifiable by the
    unmodified shared-cache machinery."""

    view: int
    bit: Bit
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class PrecommitMsg:
    """``(Precommit, v, b)``: the sender saw a view-``v`` prevote-QC for
    ``b`` (and locked it)."""

    view: int
    bit: Bit
    sender: NodeId
    auth: Any


@dataclass(frozen=True)
class LeaderDecideMsg:
    """``(Decide, v, b)`` carrying the ``n - f`` precommit quorum — the
    transferable proof of the decision."""

    view: int
    bit: Bit
    precommits: Tuple[PrecommitMsg, ...]
    sender: NodeId
    auth: Any


# ---------------------------------------------------------------------------
# Config and node.
# ---------------------------------------------------------------------------


@dataclass
class LeaderBaConfig(ViewConfig):
    """Shared parameters of one leader-BA execution; ``units`` is the
    total view budget over all heights."""

    proposer: ProposerPolicy
    #: Views per chain height; view ``v`` belongs to height
    #: ``(v - 1) // views_per_height + 1``.
    views_per_height: int
    heights: int

    def height_of_view(self, view: int) -> int:
        return (view - 1) // self.views_per_height + 1


class LeaderBaNode(ViewNode):
    """One party of the view-based leader protocol."""

    SCHEDULE = SCHEDULE
    DECIDE = LeaderDecideMsg
    MEMBER_TOPIC = "Precommit"

    def __init__(self, node_id: NodeId, n: int, input_bit: Bit,
                 config: LeaderBaConfig) -> None:
        super().__init__(node_id, n, input_bit, config)
        # The belief is overtaken by height decisions, newest height wins.
        self._belief_height = 0
        # Valid proposals per view (an equivocating leader may land >1).
        self.proposals: Dict[int, List[LeaderProposeMsg]] = {}
        # view -> bit -> sender -> NewViewMsg; populated only for views
        # this node leads (justification material for its proposal).
        self.new_views: Dict[int, Dict[Bit, Dict[NodeId, NewViewMsg]]] = {}
        #: height -> (view, bit) decisions, in whatever order they land.
        self.height_decisions: Dict[int, Tuple[int, Bit]] = {}
        # The leader oracle is a pure function of the view; every
        # delivered NewView asks, so answers are kept per view.
        self._oracle = getattr(config.proposer, "oracle", None)
        self._leads: Dict[int, bool] = {}

    def _is_leader(self, view: int) -> bool:
        leads = self._leads.get(view)
        if leads is None:
            leads = self._leads[view] = (
                self._oracle is not None
                and self._oracle.leader(view) == self.node_id)
        return leads

    # -- validation predicates -----------------------------------------------
    def _valid_qc(self, qc: Optional[Certificate], view: int,
                  expected_bit: Optional[Bit] = None) -> bool:
        """A carried QC (None = the rank-0 one) must predate its view."""
        return ((qc is None or qc.iteration < view)
                and self._check_certificate(qc, expected_bit))

    def _valid_new_view(self, msg: NewViewMsg) -> bool:
        return (self._signed(msg, "NewView", msg.view)
                and self._valid_qc(msg.qc, msg.view))

    def _valid_propose(self, msg: LeaderProposeMsg) -> bool:
        if msg.bit not in (0, 1):
            return False
        if not self._verification.check_proposal(
                self.config.proposer, msg.sender, msg.view, msg.bit,
                msg.auth):
            return False
        if msg.qc is not None:
            return self._valid_qc(msg.qc, msg.view, expected_bit=msg.bit)
        # Fresh-value path: f + 1 distinct QC-stripped view-v attestations
        # for the bit.  Corrupt nodes alone are one short, so a bit no
        # honest node believes can never be proposed — agreement validity.
        return (all(a.qc is None for a in msg.attestations)
                and self._quorum_of(msg.attestations, "view", msg.view,
                                    msg.bit, "NewView",
                                    self.config.fallback_quorum))

    def _valid_prevote(self, msg: PrevoteMsg) -> bool:
        return self._signed(msg, "Vote", msg.view)

    def _valid_precommit(self, msg: PrecommitMsg) -> bool:
        return self._signed(msg, "Precommit", msg.view)

    def _valid_decide(self, msg: LeaderDecideMsg) -> bool:
        return self.valid_quorum_decide(msg, "view", msg.precommits)

    # -- absorb steps (validated messages only) ------------------------------
    def _absorb_new_view(self, msg: NewViewMsg) -> None:
        if msg.qc is not None:
            self.absorb_lock(msg.qc)
        if self._is_leader(msg.view):
            self.new_views.setdefault(msg.view, {}).setdefault(
                msg.bit, {}).setdefault(msg.sender, msg)

    def _new_view_audience(self, msg: NewViewMsg) -> Optional[NodeId]:
        """Every node for a NewView carrying a QC, else only the view's
        leader (-1, nobody, without an oracle)."""
        if msg.qc is not None:
            return None
        return -1 if self._oracle is None else self._oracle.leader(msg.view)

    def _absorb_propose(self, msg: LeaderProposeMsg) -> None:
        self.absorb_lock(msg.qc)
        self.proposals.setdefault(msg.view, []).append(msg)

    def _absorb_prevote(self, msg: PrevoteMsg) -> None:
        self._record_prevote(msg.view, msg.bit, msg.sender, msg.auth)

    def _record_prevote(self, view: int, bit: Bit, voter: NodeId,
                        auth: Any) -> None:
        votes = self.votes_seen.setdefault((view, bit), {})
        votes.setdefault(voter, auth)
        # A quorum of valid prevotes *is* a QC; assemble and lock it the
        # moment it forms (once locked at this rank, a larger vote set
        # could never outrank it — same skip as AbaNode._record_vote).
        if (len(votes) >= self.config.threshold
                and rank(self.locked) < view):
            self.absorb_lock(certificate_from_votes(
                view, bit, votes, self.config.threshold))

    def _absorb_precommit(self, msg: PrecommitMsg) -> None:
        self.record_member(msg.view, msg.bit, msg)

    def _absorb_decide(self, msg: LeaderDecideMsg) -> None:
        # A settled height has already built its own Decide from the
        # tally: _settle never reads that height's precommits again.
        if self.config.height_of_view(msg.view) not in self.height_decisions:
            self.absorb_quorum(msg.view, msg.bit, msg.precommits)

    # -- decision ------------------------------------------------------------
    def _settle(self, ctx: RoundContext, view: int, bit: Bit) -> bool:
        """Settle the view's height; every decider announces, and the
        final height's decision is the execution's."""
        height = self.config.height_of_view(view)
        if height in self.height_decisions:
            return False
        self.height_decisions[height] = (view, bit)
        if height >= self._belief_height:
            self.belief = bit
            self._belief_height = height
        message = self.quorum_decide_msg(view, bit)
        if height == self.config.heights:
            self._finish(ctx, bit, message, announce=True)
            return True
        if message is not None:
            ctx.multicast(message)
        # Sleep out the height's window: no honest precommit exists for a
        # later view, so mail meanwhile settles only an earlier height.
        self.asleep_until = max(self.asleep_until, SCHEDULE.round_of(
            height * self.config.views_per_height + 1, PHASE_NEW_VIEW))
        return False

    # -- phase actions -------------------------------------------------------
    def _do_new_view(self, ctx: RoundContext, view: int) -> None:
        bit = self.belief
        auth = self._sign("NewView", view, bit)
        if auth is None:
            return
        message = NewViewMsg(view=view, bit=bit, qc=self.locked,
                             sender=self.node_id, auth=auth)
        ctx.multicast(message)
        self._absorb_new_view(message)  # the network does not self-deliver

    def _do_propose(self, ctx: RoundContext, view: int) -> None:
        qc = self.locked
        attestations: Tuple[NewViewMsg, ...] = ()
        if qc is not None:
            bit = qc.bit
        else:
            # Fresh-value path, backed by this view's NewViews.
            choice = self._fallback_choice(self.new_views.get(view, {}))
            if choice is None:
                return
            bit, chosen = choice
            attestations = tuple(
                intern_payload(NewViewMsg(
                    view=view, bit=bit, qc=None,
                    sender=sender, auth=message.auth))
                for sender, message in chosen)
        auth = self.config.proposer.attempt(self.node_id, view, bit)
        if auth is None:
            return  # not this view's leader
        proposal = LeaderProposeMsg(view=view, bit=bit, qc=qc,
                                    attestations=attestations,
                                    sender=self.node_id, auth=auth)
        ctx.multicast(proposal)
        self.proposals.setdefault(view, []).append(proposal)

    def _acceptable(self, proposal: LeaderProposeMsg) -> bool:
        """The prevote lock rule (receiver-local, never cached)."""
        if proposal.qc is None:
            return self.locked is None
        if self.locked is None:
            return True
        return (proposal.qc.iteration >= self.locked.iteration
                or proposal.bit == self.locked.bit)

    def _do_prevote(self, ctx: RoundContext, view: int) -> None:
        acceptable = [proposal for proposal in self.proposals.get(view, [])
                      if self._acceptable(proposal)]
        if not acceptable:
            return
        chosen = max(acceptable, key=lambda p: (rank(p.qc), -p.bit))
        auth = self._sign("Vote", view, chosen.bit)
        if auth is None:
            return
        ctx.multicast(PrevoteMsg(view=view, bit=chosen.bit,
                                 sender=self.node_id, auth=auth))
        # Count the node's own prevote (the network does not self-deliver).
        self._record_prevote(view, chosen.bit, self.node_id, auth)

    def _do_precommit(self, ctx: RoundContext, view: int) -> None:
        """Precommit the view's prevote quorum (locked as it formed)."""
        for bit in (0, 1):
            votes = self.votes_seen.get((view, bit), ())
            if len(votes) < self.config.threshold:
                continue
            auth = self._sign("Precommit", view, bit)
            if auth is not None:
                message = PrecommitMsg(view=view, bit=bit,
                                       sender=self.node_id, auth=auth)
                ctx.multicast(message)
                self._absorb_precommit(message)
            # At most one precommit per view.  Quorum intersection
            # (n - 2f > f overlap) makes a same-view quorum for the
            # other bit impossible; stopping here turns that safety
            # argument into an explicit structural invariant instead of
            # an assumption about the vote tallies.
            break


LeaderBaNode._HANDLERS = {
    NewViewMsg: (LeaderBaNode._valid_new_view, LeaderBaNode._absorb_new_view),
    LeaderProposeMsg: (LeaderBaNode._valid_propose,
                       LeaderBaNode._absorb_propose),
    PrevoteMsg: (LeaderBaNode._valid_prevote, LeaderBaNode._absorb_prevote),
    PrecommitMsg: (LeaderBaNode._valid_precommit,
                   LeaderBaNode._absorb_precommit),
    LeaderDecideMsg: (LeaderBaNode._valid_decide, LeaderBaNode._absorb_decide),
}
LeaderBaNode._AUDIENCE = {NewViewMsg: LeaderBaNode._new_view_audience}
LeaderBaNode._ACTIONS = {
    PHASE_NEW_VIEW: LeaderBaNode._do_new_view,
    PHASE_PROPOSE: LeaderBaNode._do_propose,
    PHASE_PREVOTE: LeaderBaNode._do_prevote,
    PHASE_PRECOMMIT: LeaderBaNode._do_precommit,
}


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------


def build_leader_ba(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    heights: int = 1,
    views_per_height: Optional[int] = None,
    registry_mode: str = IDEAL_MODE,
    group: SchnorrGroup = TEST_GROUP,
    oracle: Optional[LeaderOracle] = None,
    conditions: Optional[NetworkConditions] = None,
) -> ProtocolInstance:
    """Construct a leader-BA execution over ``n`` nodes (``n > 3f``).

    ``conditions`` derives the view-timer budget and the decide-
    announcement drain gate from Δ/GST (see
    :func:`~repro.protocols.view_machine.build_view_instance`); under
    lock-step the budget is ``f + 3`` views per height.
    """
    leader_oracle = oracle if oracle is not None else RoundRobinLeaderOracle(n)

    def configure(**shared: Any) -> LeaderBaConfig:
        if heights < 1:
            raise ConfigurationError(
                f"need at least one height, got {heights}")
        per_height = (views_per_height if views_per_height is not None
                      else default_views_per_height(f, conditions))
        if per_height < 1:
            raise ConfigurationError(
                f"need at least one view per height, got {per_height}")
        return LeaderBaConfig(
            proposer=OracleProposerPolicy(leader_oracle,
                                          shared["authenticator"]),
            views_per_height=per_height, heights=heights,
            units=per_height * heights, **shared)

    return build_view_instance(
        "leader-ba" if heights == 1 else "leader-chain", "leader BA",
        LeaderBaNode, n, f, inputs, seed, registry_mode, group, conditions,
        configure, oracle=leader_oracle)


def build_leader_chain(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    heights: int = DEFAULT_CHAIN_HEIGHTS,
    views_per_height: Optional[int] = None,
    registry_mode: str = IDEAL_MODE,
    group: SchnorrGroup = TEST_GROUP,
    oracle: Optional[LeaderOracle] = None,
    conditions: Optional[NetworkConditions] = None,
) -> ProtocolInstance:
    """The multi-height chain workload: ``heights`` repeated leader-BA
    instances through one view schedule, locks and beliefs carried
    across height boundaries (see the module docstring).  The heavy-
    traffic scenario axis — per-view NewView/Propose/Prevote/Precommit
    traffic sustained over every height window."""
    return build_leader_ba(
        n, f, inputs, seed=seed, heights=heights,
        views_per_height=views_per_height, registry_mode=registry_mode,
        group=group, oracle=oracle, conditions=conditions)
