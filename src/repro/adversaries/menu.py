"""The Byzantine menu: what a corrupt node can say, declared once.

The paper bounds a corrupt node's whole action space in one sentence —
*"each might try to mine for 2 ACKs (one for each bit) in some fixed
epoch r"* (Lemma 11, Remark 3.3).  This module is that sentence as data:
one :class:`Family` record per quorum family (schedule, propose phase
and, per phase, the one constructor of the message a corrupt node may
send there) and one :class:`ByzantineMenu` per execution holding what
the constructors read — config, ``BroadcastNode`` round offset, and the
justification pools harvested from honest traffic (first message wins).

An attack is a *policy* over the menu: who speaks and who receives each
bit (``static_byzantine`` multicasts, ``view_split`` unicasts to parity
halves, ``leader_killer`` only reads the propose phase).  The order of
:meth:`ByzantineMenu.offers` is a contract, because an ``attempt``
records Fmine coins and issues signatures: speakers in the given order,
bit 0 before bit 1, pool check before the ``attempt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Sequence, Tuple)

from repro.errors import ConfigurationError
from repro.protocols import aba, leader_ba, phase_king
from repro.protocols.base import ProtocolInstance
from repro.protocols.broadcast import BroadcastNode
from repro.protocols.leader_ba import LeaderProposeMsg, NewViewMsg, PrevoteMsg
from repro.protocols.messages import (
    AckMsg,
    PhaseKingProposeMsg,
    ProposeMsg,
    VoteMsg,
)
from repro.sim.network import Envelope
from repro.types import Bit, NodeId, Round


@dataclass(frozen=True)
class Family:
    """One quorum family's public schedule and corrupt-node vocabulary."""

    name: str
    #: The shared-config class the family's builders install in
    #: ``instance.services["config"]`` — how an instance is recognized.
    config_cls: type
    #: ``schedule(protocol_round) -> (unit, phase)``; the unit (iteration,
    #: epoch, view) is also the leader oracle's epoch key.
    schedule: Callable[[Round], Tuple[int, str]]
    propose_phase: str
    #: phase -> ``entry(menu, node_id, unit, bit)``: the payload, or None
    #: when the pool cannot justify it or no auth is granted.
    entries: Mapping[str, Callable[["ByzantineMenu", NodeId, int, Bit], Any]]


# -- aba (Appendix C): proposals justify the votes of iterations > 1 -------
def _aba_propose(menu, node_id, iteration, bit):
    auth = menu.config.proposer.attempt(node_id, iteration, bit)
    if auth is None:
        return None
    proposal = ProposeMsg(iteration=iteration, bit=bit, certificate=None,
                          sender=node_id, auth=auth)
    menu.note_proposal(proposal)
    return proposal


def _aba_vote(menu, node_id, iteration, bit):
    proposal = None
    if iteration > 1:
        proposal = menu.proposals.get(iteration, {}).get(bit)
        if proposal is None:
            return None  # no justification available for this bit
    auth = menu.config.authenticator.attempt(node_id,
                                             ("Vote", iteration, bit))
    return None if auth is None else VoteMsg(
        iteration=iteration, bit=bit, sender=node_id, auth=auth,
        proposal=proposal)


# -- phase-king (Section 3): nothing to justify, epochs are bounded --------
def _king_propose(menu, node_id, epoch, bit):
    if epoch >= menu.config.epochs:
        return None  # the final tally round
    auth = menu.config.proposer.attempt(node_id, epoch, bit)
    return None if auth is None else PhaseKingProposeMsg(
        epoch=epoch, bit=bit, sender=node_id, auth=auth)


def _king_ack(menu, node_id, epoch, bit):
    if epoch >= menu.config.epochs:
        return None
    auth = menu.config.authenticator.attempt(node_id, ("ACK", epoch, bit))
    return None if auth is None else AckMsg(
        epoch=epoch, bit=bit, sender=node_id, auth=auth)


# -- leader-ba: f + 1 attestations justify a fresh-value proposal ----------
def _leader_new_view(menu, node_id, view, bit):
    auth = menu.config.authenticator.attempt(node_id,
                                             ("NewView", view, bit))
    if auth is None:
        return None
    attestation = NewViewMsg(view=view, bit=bit, qc=None, sender=node_id,
                             auth=auth)
    menu.note_attestation(attestation)
    return attestation


def _leader_propose(menu, node_id, view, bit):
    quorum = menu.config.fallback_quorum
    pool = menu.attestations.get((view, bit), {})
    if len(pool) < quorum:
        return None  # cannot justify: validity holds regardless
    auth = menu.config.proposer.attempt(node_id, view, bit)
    if auth is None:
        return None  # not this view's leader
    chosen = tuple(attestation for _, attestation
                   in sorted(pool.items())[:quorum])
    return LeaderProposeMsg(view=view, bit=bit, qc=None,
                            attestations=chosen, sender=node_id, auth=auth)


def _leader_prevote(menu, node_id, view, bit):
    auth = menu.config.authenticator.attempt(node_id, ("Vote", view, bit))
    return None if auth is None else PrevoteMsg(
        view=view, bit=bit, sender=node_id, auth=auth)


FAMILIES: Tuple[Family, ...] = (
    Family("aba", aba.AbaConfig, aba.schedule, aba.PHASE_PROPOSE,
           {aba.PHASE_PROPOSE: _aba_propose, aba.PHASE_VOTE: _aba_vote}),
    Family("phase-king", phase_king.PhaseKingConfig, phase_king.schedule,
           phase_king.PHASE_PROPOSE,
           {phase_king.PHASE_PROPOSE: _king_propose,
            phase_king.PHASE_ACK: _king_ack}),
    Family("leader-ba", leader_ba.LeaderBaConfig, leader_ba.schedule,
           leader_ba.PHASE_PROPOSE,
           {leader_ba.PHASE_NEW_VIEW: _leader_new_view,
            leader_ba.PHASE_PROPOSE: _leader_propose,
            leader_ba.PHASE_PREVOTE: _leader_prevote}),
)


def family_of(instance: ProtocolInstance, policy: str,
              admits: Sequence[str]) -> Family:
    """The instance's family if ``policy`` admits it, else a refusal."""
    config = instance.services.get("config")
    for family in FAMILIES:
        if isinstance(config, family.config_cls) and family.name in admits:
            return family
    raise ConfigurationError(
        f"{policy} cannot target {instance.name!r}: it admits the "
        f"{', '.join(admits)} families")


class ByzantineMenu:
    """One execution's menu: the family record plus the state its
    entries read — config, round offset, justification pools."""

    def __init__(self, instance: ProtocolInstance, policy: str,
                 admits: Sequence[str]) -> None:
        self.family = family_of(instance, policy, admits)
        self.config = instance.services["config"]
        #: Broadcast-from-BA runs the inner protocol one round late.
        self.round_offset = (
            1 if isinstance(instance.nodes[0], BroadcastNode) else 0)
        #: iteration -> bit -> a valid proposal usable to justify votes.
        self.proposals: Dict[int, Dict[Bit, ProposeMsg]] = {}
        #: (view, bit) -> sender -> QC-stripped NewView attestation.
        self.attestations: Dict[Tuple[int, Bit],
                                Dict[NodeId, NewViewMsg]] = {}

    def note_proposal(self, proposal: ProposeMsg) -> None:
        self.proposals.setdefault(
            proposal.iteration, {}).setdefault(proposal.bit, proposal)

    def note_attestation(self, attestation: NewViewMsg) -> None:
        self.attestations.setdefault(
            (attestation.view, attestation.bit), {}).setdefault(
                attestation.sender, attestation)

    def offers(self, round_index: Round, staged: List[Envelope],
               speakers: Sequence[NodeId],
               ) -> Iterator[Tuple[NodeId, Bit, Any]]:
        """Everything ``speakers`` can say this round, as ``(node, bit,
        payload)`` in contract order; lazy, so the caller's injects
        interleave with the attempts exactly as it consumes them."""
        protocol_round = round_index - self.round_offset
        if protocol_round < 0:
            return
        for envelope in staged:  # harvest what can justify an entry
            payload = envelope.payload
            if isinstance(payload, ProposeMsg):
                self.note_proposal(payload)
            elif isinstance(payload, NewViewMsg):
                # Strip the carried QC: the attestation auth covers only
                # ("NewView", view, bit), so the bare message stays valid
                # as fresh-value justification material.
                self.note_attestation(NewViewMsg(
                    view=payload.view, bit=payload.bit, qc=None,
                    sender=payload.sender, auth=payload.auth))
        unit, phase = self.family.schedule(protocol_round)
        entry = self.family.entries.get(phase)
        if entry is None:
            return
        for node_id in speakers:
            for bit in (0, 1):
                payload = entry(self, node_id, unit, bit)
                if payload is not None:
                    yield node_id, bit, payload
