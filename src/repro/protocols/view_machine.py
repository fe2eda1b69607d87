"""The four-phase, coordinator-led, ``n - f``-quorum view machine.

The partially synchronous families in this package are one machine with
different messages: time is cut into **units** (views, epochs) of four
protocol rounds, each unit has one coordinator, quorums are ``n - f`` of
``n > 3f`` nodes, and a transferable Decide message carries the quorum
that justifies it.  This module owns the decisions those families share;
a family supplies its message dataclasses, a payload class → (validation
predicate, absorb step) table, its phase actions and its settle policy.
What is shared, and why it is sound (docs/PROTOCOLS.md, "Shared view
machine", has the table of per-family differences):

- **Config and builder** (:class:`ViewConfig`,
  :func:`build_view_instance`): a
  :class:`~repro.protocols.verification.RoundConfig` (schedule,
  ``n - f`` threshold, unit budget — what aba and phase-king declare
  too) plus the ``f + 1`` fallback quorum; the builder admits ``n > 3f``
  and hands the rest to ``build_round_instance``.
- **Schedule** (:class:`~repro.protocols.base.ViewSchedule`): unit
  ``u = 1, 2, ...`` owns rounds ``4(u - 1) .. 4u - 1``, one per phase,
  and a budget of ``u`` units runs two trailing delivery rounds so the
  last quorum can be tallied and its Decide relayed.
- **Inbox** (:meth:`~repro.protocols.verification.VerifyingNode._fold`):
  the payload-class table's predicate runs once per payload object, and
  every recipient absorbs a marked one; the instance's ``audience``
  (:func:`~repro.protocols.leader_ba.readers`) keeps a copy no node can
  act on out of the inboxes.
- **Quorums**: certificates and decide quorums need ``n - f`` distinct
  signers, so any two overlap in ``n - 2f > f`` nodes — more than the
  possible double-signers — for *every* admitted ``n > 3f`` (a fixed
  ``2f + 1`` would cover only ``n = 3f + 1``).  Same-unit quorums for
  opposite bits therefore never coexist.  A coordinator lacking a
  certificate justifies its bit with ``f + 1`` fresh attestations:
  corrupt nodes alone are one short, so a bit no honest node holds is
  never pushed (agreement validity).
- **Lock** (:meth:`ViewNode.absorb_lock`): a node's lock is the
  highest-ranked certificate it has seen and only ever grows in rank.
  A decision on ``b`` in unit ``u`` leaves ``>= n - 2f`` honest nodes
  locked on ``b`` at rank ``u``; a later certificate for ``1 - b`` would
  need ``n - f`` signers from the ``<= 2f`` corrupt-or-unlocked nodes,
  so it never forms — safety across units.
- **Budget** (:meth:`ViewSchedule.default_budget`): the units that may
  burn before sends are reliable, plus ``f`` faulty coordinators, plus a
  family's slack.
- **Carried-quorum Decide** (:meth:`ViewNode.valid_quorum_decide`,
  :meth:`ViewNode.quorum_decide_msg`): each attached member is
  authenticated individually, never through the certificate cache (whose
  keys do not record *which* predicate verified — a decide quorum must
  not be replayable as a vote certificate), once per interned tuple.
  A decider's members tuple is keyed by sender and auth identity, a key
  built only when they are not the last ``(DECIDE, unit, bit)`` tuple's.
- **Drain gate** (:meth:`ViewNode.on_round`): a node whose announcement
  was sent before the conditions' ``trusted_send_round`` keeps
  re-announcing at each unit boundary until a trusted round passes, so
  no laggard is stranded behind a pre-GST loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.crypto.registry import KeyRegistry
from repro.protocols.base import (
    ProtocolInstance,
    SignatureAuthenticator,
    ViewSchedule,
    trusted_send_round_for,
)
from repro.protocols.certificates import Certificate, rank
from repro.protocols.verification import (
    RoundConfig, VerifyingNode, admit, build_round_instance)
from repro.serialization import _intern_field_key, intern_by_key
from repro.sim.conditions import NetworkConditions
from repro.sim.node import RoundContext
from repro.types import Audience, Bit, NodeId, Round


def mean_columns(results: Sequence[Any],
                 columns: Dict[str, Callable[[Any], int]]) -> Dict[str, float]:
    """Per-trial means for artifact rows, ``0.0`` over no trials."""
    trials = len(results)
    return {name: (sum(map(column, results)) / trials if trials else 0.0)
            for name, column in columns.items()}


def intern_quorum(tag: type, unit: int, bit: Bit,
                  signers: Sequence[Tuple[NodeId, Any]],
                  build: Callable[[], tuple]) -> tuple:
    """A quorum tuple interned as a whole: every node that assembles the
    same ``signers`` (``(sender, auth)`` pairs) for ``(tag, unit, bit)``
    gets one object, like the iterated BA's stripped Terminate commits."""
    return intern_by_key(
        (tag, unit, bit,
         tuple([(sender, _intern_field_key(auth))
                for sender, auth in signers])),
        build)


@dataclass(kw_only=True)
class ViewConfig(RoundConfig):
    """A view machine's config: ``threshold`` is ``n - f``, the size of
    certificates and decide quorums."""

    fallback_quorum: int  # f + 1 fresh attestations justify a bit


class ViewNode(VerifyingNode):
    """One party of a view machine; families subclass it."""

    #: The family's four phases.
    SCHEDULE: ViewSchedule
    #: Phase → action ``(node, ctx, unit)``; a phase without a send of
    #: its own has no entry.
    _ACTIONS: Dict[str, Callable]
    #: The family's Decide dataclass — fields ``(unit, bit, members,
    #: sender, auth)`` in that order — and its members' auth topic.
    DECIDE: type
    MEMBER_TOPIC: str

    def __init__(self, node_id: NodeId, n: int, input_bit: Bit,
                 config: ViewConfig) -> None:
        super().__init__(node_id, n, config)
        self.input_bit = input_bit
        #: Current belief: the input until the protocol moves it.
        self.belief: Bit = input_bit
        #: The lock: highest-ranked certificate observed (None = none).
        self.locked: Optional[Certificate] = None
        # (unit, bit) -> voter -> auth, valid certificate votes only.
        self.votes_seen: Dict[Tuple[int, Bit], Dict[NodeId, Any]] = {}
        # (unit, bit) -> sender -> decide-quorum member, valid ones only.
        self.members_seen: Dict[Tuple[int, Bit], Dict[NodeId, Any]] = {}
        self._quorum_formed = False  # see record_member
        self._decided_bit: Optional[Bit] = None
        self._final_msg: Optional[Any] = None

    # -- authentication ------------------------------------------------------
    def _sign(self, topic: str, unit: int, bit: Bit) -> Optional[Any]:
        """This node's auth for ``(topic, unit, bit)``, if it may send it."""
        return self.config.authenticator.attempt(
            self.node_id, (topic, unit, bit))

    def _signed(self, msg: Any, topic: str, unit: int) -> bool:
        """A binary message authenticated as ``(topic, unit, bit)``."""
        return msg.bit in (0, 1) and self._check_auth(
            msg.sender, (topic, unit, msg.bit), msg.auth)

    def _quorum_of(self, members: Sequence[Any], unit_field: str, unit: int,
                   bit: Bit, topic: str, size: int) -> bool:
        """``size`` distinct senders' messages for ``(unit, bit)``, each
        authenticated on its own as ``(topic, unit, bit)``."""
        senders = set()
        for member in members:
            member_unit = getattr(member, unit_field)
            if (member_unit != unit or member.bit != bit
                    or not self._check_auth(
                        member.sender, (topic, member_unit, member.bit),
                        member.auth)):
                return False
            senders.add(member.sender)
        return len(senders) >= size

    def valid_quorum_decide(self, msg: Any, unit_field: str,
                            members: Sequence[Any]) -> bool:
        """A Decide signed by its sender and carrying ``n - f`` distinct
        members of its own unit and bit, checked once per interned tuple."""
        unit = getattr(msg, unit_field)
        return self._signed(msg, "Decide", unit) and \
            self._verification.check_quorum(self._quorum_of, members, (
                unit_field, unit, msg.bit, self.MEMBER_TOPIC,
                self.config.threshold))

    def record_member(self, unit: int, bit: Bit, member: Any) -> None:
        """Tally a valid decide-quorum member, first per sender; a tally
        reaching the threshold is a new quorum for :meth:`_maybe_decide`.
        One get and one insert per member (this runs once per copy)."""
        recorded = self.members_seen.get((unit, bit))
        if recorded is None:
            recorded = self.members_seen[(unit, bit)] = {}
        if member.sender not in recorded:
            recorded[member.sender] = member
            if len(recorded) == self.config.threshold:
                self._quorum_formed = True

    def absorb_quorum(self, unit: int, bit: Bit,
                      members: Sequence[Any]) -> None:
        """Adopt a carried quorum through the ordinary member tally, so
        :meth:`_maybe_decide` fires on it."""
        for member in members:
            self.record_member(unit, bit, member)

    def absorb_lock(self, certificate: Optional[Certificate]) -> None:
        """Adopt a (pre-validated) certificate as the lock if it outranks
        it.  Strict inequality is the locks-never-regress invariant: the
        lock's rank is monotone over the whole execution."""
        if certificate is not None and certificate.iteration > rank(self.locked):
            self.locked = certificate
            self._on_lock(certificate)

    def _on_lock(self, certificate: Certificate) -> None:
        """A family's side effect of adopting a new lock (default: none)."""

    def _fallback_choice(self, backing: Dict[Bit, Dict[NodeId, Any]],
                         ) -> Optional[Tuple[Bit, list]]:
        """A coordinator's uncertified pick from ``bit -> signer ->
        attestation``: the bit with the widest ``f + 1`` backing (own
        belief, then 0, breaks ties) with its ``f + 1`` lowest-id
        backers, or None when neither bit is backed."""
        quorum = self.config.fallback_quorum
        backed = [b for b in (0, 1) if len(backing.get(b, ())) >= quorum]
        if not backed:
            return None
        bit = max(backed, key=lambda b: (len(backing[b]),
                                         b == self.belief, -b))
        return bit, sorted(backing[bit].items())[:quorum]

    # -- decision ------------------------------------------------------------
    def quorum_decide_msg(self, unit: int, bit: Bit) -> Optional[Any]:
        """This node's Decide for a quorum on hand in the member tally."""
        auth = self._sign("Decide", unit, bit)
        if auth is None:
            return None
        quorum = self.members_seen.get((unit, bit), {})
        chosen = [quorum[sender]
                  for sender in sorted(quorum)[:self.config.threshold]]
        # Every decider picks the same members, so the content-equal
        # tuples collapse to one object; the front, an arena entry, skips
        # the key when they are exactly its last tuple's (module docstring).
        front = intern_by_key((intern_quorum, self.DECIDE, unit,
                               unit.__class__, bit, bit.__class__), list)
        members = front[-1] if front else ()
        if len(members) != len(chosen) or not all(map(is_, members, chosen)):
            members = intern_quorum(
                self.DECIDE, unit, bit, [(m.sender, m.auth) for m in chosen],
                lambda: tuple(chosen))
            front.append(members)
        return self.DECIDE(unit, bit, members, self.node_id, auth)

    def _sent_trusted(self, round_index: Round) -> bool:
        """Whether a send in this round provably reached every honest node."""
        return round_index >= self.config.trusted_send_round

    def _announce(self, ctx: RoundContext, message: Any) -> None:
        """Multicast the final Decide and halt once that send is trusted."""
        ctx.multicast(message)
        if self._sent_trusted(ctx.round):
            self.halted = True

    def _finish(self, ctx: RoundContext, bit: Bit, message: Optional[Any],
                announce: bool) -> None:
        """Record the execution's decision, then announce it — and keep
        announcing at unit boundaries until a trusted round (the drain
        gate in :meth:`on_round`) — or halt without a word."""
        self.decide(bit, ctx.round)
        self._decided_bit = bit
        self._final_msg = message
        if announce and message is not None:
            self._announce(ctx, message)
        else:
            self.halted = True

    def _maybe_decide(self, ctx: RoundContext) -> bool:
        """Settle the quorums on hand; True once the node is done acting.
        Scans only after a new quorum formed (see :meth:`_settle`)."""
        if not self._quorum_formed:
            return False
        self._quorum_formed = False
        ready = sorted(
            key for key, quorum in self.members_seen.items()
            if len(quorum) >= self.config.threshold)
        for unit, bit in ready:
            if self._settle(ctx, unit, bit):
                return True
        return False

    def _settle(self, ctx: RoundContext, unit: int, bit: Bit) -> bool:
        """The family's policy for a decide quorum on ``(unit, bit)``;
        returns True when it settled the whole execution.  A key it
        answered ``False`` must need no further call."""
        raise NotImplementedError

    # -- main entry point ----------------------------------------------------
    def on_round(self, ctx: RoundContext) -> None:
        if self._final_msg is not None:
            # Decided before sends were trusted: re-announce at each unit
            # boundary until one announcement provably reaches everyone.
            if self.SCHEDULE.at_boundary(ctx.round):
                self._announce(ctx, self._final_msg)
            return
        if ctx.inbox:
            self._fold(ctx.inbox)
        if self._maybe_decide(ctx) or ctx.round < self.asleep_until:
            return
        unit, phase = self.SCHEDULE.schedule(ctx.round)
        if unit > self.config.units:
            # Budget exhausted without a decision.
            self.halted = True
            return
        action = self._ACTIONS.get(phase)
        if action is not None:
            action(self, ctx, unit)

    def output(self) -> Optional[Bit]:
        return self._decided_bit

    def finalize(self) -> Bit:
        decided = self.output()
        return decided if decided is not None else self.belief


def build_view_instance(
    name: str,
    family: str,
    node_cls: type,
    n: int,
    f: int,
    inputs: Sequence[Bit],
    conditions: Optional[NetworkConditions],
    configure: Callable[..., ViewConfig],
    audience: Optional[Callable[[Sequence[ViewNode]], Audience]] = None,
) -> ProtocolInstance:
    """The builder steps every family shares: ``n > 3f``, ``n - f``
    quorums, ``f + 1`` fallback attestations, a key registry, and the
    drain gate from ``conditions`` (the engine's; ``None`` is lock-step,
    where every round is trusted).  ``configure(**shared_fields)``
    returns the family's config and checks the family's own arguments.
    """
    admit(family, n, f, inputs, 3)
    registry = KeyRegistry(n)
    config = configure(
        schedule=node_cls.SCHEDULE,
        threshold=n - f,
        fallback_quorum=f + 1,
        authenticator=SignatureAuthenticator(registry),
        trusted_send_round=trusted_send_round_for(conditions),
    )
    return build_round_instance(name, node_cls, inputs, config,
                                signing=registry, audience=audience)
