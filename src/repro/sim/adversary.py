"""Adversary interface: the attacker's view and levers.

The engine drives the adversary at two points each round:

1. :meth:`Adversary.observe_deliveries` — right after delivery, with every
   node's inbox (the adversary sees all traffic; corrupt nodes' inboxes
   are literally its own).
2. :meth:`Adversary.react` — after honest nodes have staged their round-r
   messages.  This is the *rushing* step of Appendix A.1: the adversary
   observes what honest nodes are about to send, may corrupt them
   mid-round, may inject messages from corrupt nodes for the same round —
   and, in the strongly adaptive model only, may perform after-the-fact
   removal of messages just sent by newly corrupted nodes (Section 2).

All of the adversary's powers flow through :class:`AdversaryApi`, which
enforces budgets and capability rules so that no attack implementation can
accidentally exceed the model it claims to work in.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.errors import CapabilityError
from repro.sim.corruption import CorruptionGrant
from repro.sim.network import Delivery, Envelope
from repro.sim.node import RoundContext
from repro.types import AdversaryModel, NodeId, Round

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


class AdversaryApi:
    """Budget- and capability-checked access to the execution."""

    def __init__(self, simulation: "Simulation") -> None:
        # Weak: the simulation owns its API (and, through the adversary,
        # is reachable from it).  A strong back-reference would make
        # every finished execution — nodes, tallies, transcript — cyclic
        # garbage that lingers until a full collection happens by.
        self._sim = weakref.proxy(simulation)

    # -- read-only view ---------------------------------------------------
    @property
    def n(self) -> int:
        return self._sim.n

    @property
    def model(self) -> AdversaryModel:
        return self._sim.controller.model

    @property
    def round(self) -> Round:
        return self._sim.current_round

    @property
    def corruption_budget(self) -> int:
        return self._sim.controller.budget

    @property
    def corruptions_remaining(self) -> int:
        return self._sim.controller.corruptions_remaining

    def is_corrupt(self, node_id: NodeId) -> bool:
        return self._sim.controller.is_corrupt(node_id)

    def in_flight(self) -> List[Envelope]:
        """Messages staged this round (the rushing adversary's view)."""
        return self._sim.network.in_flight()

    @property
    def delta(self) -> int:
        """The network's bounded-delay parameter Δ (1 under lock-step)."""
        conditions = self._sim.conditions
        return conditions.delta if conditions is not None else 1

    @property
    def can_delay(self) -> bool:
        """Whether the execution runs under nontrivial network conditions
        (message delaying only exists in the partial-synchrony model)."""
        return self._sim.conditions is not None

    # -- powers ------------------------------------------------------------
    def corrupt(self, node_id: NodeId) -> CorruptionGrant:
        """Adaptively corrupt a node; returns its secrets and capabilities."""
        return self._sim.perform_corruption(node_id)

    def remove(self, envelope: Envelope, recipient: Optional[NodeId] = None) -> None:
        """After-the-fact removal (strongly adaptive adversaries only).

        Per Section 2, removal applies to messages sent this round by a
        node the adversary has (now) corrupted; honest nodes' messages
        cannot be touched without corrupting the sender first.
        """
        if not self.model.can_remove_after_the_fact:
            raise CapabilityError(
                f"after-the-fact removal requires the strongly adaptive "
                f"model, not {self.model.value}")
        if not self.is_corrupt(envelope.sender):
            raise CapabilityError(
                "must corrupt the sender before removing its message")
        self._sim.network.suppress(envelope, recipient)

    def delay(self, envelope: Envelope, recipient: Optional[NodeId] = None,
              rounds: int = 1) -> None:
        """Delay an in-flight copy by extra network rounds (Δ-capped).

        The partial-synchrony adversary controls message *timing* without
        spending corruptions: any staged copy — honest senders included —
        can be held back, but post-GST the network still delivers within
        Δ rounds of sending, so the total delay is clamped there.  Only
        available when the execution runs under nontrivial
        :class:`~repro.sim.conditions.NetworkConditions`.
        """
        if not self.can_delay:
            raise CapabilityError(
                "message delaying requires nontrivial network conditions; "
                "the lock-step model delivers every message next round")
        self._sim.network.delay(envelope, recipient, rounds)

    def inject(self, sender: NodeId, recipient: Optional[NodeId],
               payload: Any) -> Envelope:
        """Send a message from a corrupt node (``recipient=None`` = multicast)."""
        if not self.is_corrupt(sender):
            raise CapabilityError(
                f"cannot send from node {sender}: it is not corrupt")
        return self._sim.stage_adversarial(sender, recipient, payload)

    def make_context(self, node_id: NodeId, inbox: List[Delivery]) -> RoundContext:
        """A sandbox context for running a corrupt node's own logic.

        Lets attacks execute "honest behaviour with deviations" (e.g. the
        Dolev–Reischuk corrupt set behaves honestly but ignores messages):
        run ``grant.node.on_round(sandbox)`` and selectively
        :meth:`inject` the messages it staged.
        """
        return RoundContext(node_id, self.round, inbox,
                            self._sim.rng_for_node)


class Adversary:
    """Base class for attack strategies: each hook is a no-op until an
    attack overrides it."""

    name = "adversary"

    def __init__(self) -> None:
        self.api: Optional[AdversaryApi] = None

    def bind(self, api: AdversaryApi) -> None:
        self.api = api
        self.on_setup()

    def on_setup(self) -> None:
        """Called before round 0; static adversaries corrupt here."""

    def observe_deliveries(self, round_index: Round,
                           inboxes: Dict[NodeId, List[Delivery]]) -> None:
        """Called after delivery, before honest nodes act."""

    def react(self, round_index: Round, staged: List[Envelope]) -> None:
        """The rushing step: observe staged honest messages and act."""


class PassiveAdversary(Adversary):
    """Corrupts nobody and does nothing (honest executions)."""

    name = "passive"
