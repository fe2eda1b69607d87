"""Shared protocol plumbing: authenticators, proposer policies, instances.

The paper presents each subquadratic protocol as a *compilation* of its
warmup: every ``multicast`` becomes ``conditionally multicast``, quorum
thresholds shrink from ``f + 1`` to ``λ/2`` (or ``2n/3`` to ``2λ/3``), and
signature checks become ``Fmine.verify`` calls (Sections 3.2, C.2).  We
realise that compilation literally: one node implementation per protocol
family, parameterised by

- an :class:`Authenticator` — how a node authenticates a topic
  ``(kind, r, b)``.  :class:`SignatureAuthenticator` always succeeds
  (everyone may speak; quadratic world); :class:`EligibilityAuthenticator`
  succeeds only when the mining lottery does (subquadratic world).
- a :class:`ProposerPolicy` — who may propose in iteration ``r``:
  the announced oracle leader (warmups) or any node that mines
  ``(Propose, r, b)`` (the compiled protocols, removing the oracle).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.registry import KeyRegistry
from repro.eligibility.base import EligibilitySource, Topic
from repro.sim.conditions import NetworkConditions
from repro.sim.leader import LeaderOracle
from repro.sim.node import Node
from repro.types import Audience, Bit, NodeId, Round


def trusted_send_round_for(conditions: Optional[NetworkConditions]) -> Round:
    """The first protocol round whose sends provably reach every honest
    node.  ``None`` (and perfect conditions) is lock-step synchrony:
    every round's sends reach everyone, so every round is trusted."""
    if conditions is None:
        return 0
    return conditions.trusted_send_round


@dataclass(frozen=True)
class ViewSchedule:
    """The round ↔ (unit, phase) arithmetic of a round-structured family.

    A unit (iteration, epoch, view) runs one protocol round per phase,
    in order.  Three constants set the families apart:

    - ``skipped``: leading phases the first unit does not run (Appendix
      C's iteration 1 skips Status and Propose, so aba skips 2);
    - ``first``: the first unit's index (phase-king's epochs are 0-based
      and appear in signed topics; every other family counts from 1);
    - ``trailing``: delivery rounds a budget runs past the last unit's
      phases, so its last quorum can be tallied and its decision relayed.
    """

    phases: Tuple[str, ...]
    skipped: int = 0
    first: int = 1
    trailing: int = 2

    @property
    def rounds(self) -> int:
        """Protocol rounds per unit."""
        return len(self.phases)

    def schedule(self, round_index: Round) -> Tuple[int, str]:
        """Map a global protocol round to ``(unit, phase)``."""
        unit, offset = divmod(round_index + self.skipped, len(self.phases))
        return unit + self.first, self.phases[offset]

    def unit_of_round(self, round_index: Round) -> int:
        """The unit a global protocol round belongs to."""
        return (round_index + self.skipped) // self.rounds + self.first

    def round_of(self, unit: int, phase: str) -> Round:
        """The global round of a unit's phase (inverse of :meth:`schedule`)."""
        return (self.rounds * (unit - self.first)
                + self.phases.index(phase) - self.skipped)

    def at_boundary(self, round_index: Round) -> bool:
        """Whether a round opens a unit."""
        return (round_index + self.skipped) % self.rounds == 0

    def rounds_for(self, units: int) -> int:
        """Round budget for ``units`` full units and the trailing
        delivery rounds."""
        if units < 1:
            raise ValueError("need at least one unit")
        return self.rounds * units - self.skipped + self.trailing

    def default_budget(self, f: int, conditions: Optional[NetworkConditions],
                       slack: int) -> int:
        """The Δ-derived unit budget: ``ceil(trusted_send_round / rounds)``
        units can burn before sends are reliable; after that ``f`` faulty
        coordinators can each waste one, and ``slack`` more are the
        family's own allowance."""
        trusted = trusted_send_round_for(conditions)
        return -(-trusted // self.rounds) + f + slack  # ceil division

    def settled_unit(self, result: Any) -> int:
        """The unit a finished execution settled in, for artifact rows.

        The last honest decision round's unit when every honest node
        decided; otherwise the unit of the last executed round (the
        exhausted budget).
        """
        rounds = result.decision_rounds()
        if rounds and result.all_decided():
            # The decision round tallies the *previous* round's quorum,
            # so the settled unit is the round before's.
            return self.unit_of_round(max(max(rounds) - 1, 0))
        settled = self.unit_of_round(max(result.rounds_executed - 1, 0))
        budget = getattr(result, "rounds_budget", None)
        if budget is not None and budget > self.rounds:
            # An exhausted run must not report the trailing delivery
            # rounds (rounds_for) as a unit of their own.
            settled = min(settled,
                          self.unit_of_round(budget - self.trailing) - 1)
        return settled


class Authenticator(abc.ABC):
    """Mode-specific message authentication for one execution."""

    @abc.abstractmethod
    def attempt(self, node_id: NodeId, topic: Topic) -> Optional[Any]:
        """Try to authenticate ``topic`` as ``node_id``.

        Returns the auth object, or ``None`` if the node is not eligible
        to send this topic (subquadratic mode losing the lottery).
        """

    @abc.abstractmethod
    def check(self, node_id: NodeId, topic: Topic, auth: Any) -> bool:
        """Publicly verify an auth object; never raises."""


class SignatureAuthenticator(Authenticator):
    """Quadratic world: every node may speak; auth = signature on topic."""

    def __init__(self, registry: KeyRegistry) -> None:
        self.registry = registry

    def attempt(self, node_id: NodeId, topic: Topic) -> Any:
        return self.registry.capability_for(node_id).sign(topic)

    def check(self, node_id: NodeId, topic: Topic, auth: Any) -> bool:
        return self.registry.verify(node_id, topic, auth)


class EligibilityAuthenticator(Authenticator):
    """Subquadratic world: auth = a mining ticket for the topic."""

    def __init__(self, source: EligibilitySource) -> None:
        self.source = source

    def attempt(self, node_id: NodeId, topic: Topic) -> Optional[Any]:
        return self.source.capability_for(node_id).try_mine(topic)

    def check(self, node_id: NodeId, topic: Topic, auth: Any) -> bool:
        if auth is None:
            return False
        if getattr(auth, "node_id", None) != node_id:
            return False
        if getattr(auth, "topic", None) != topic:
            return False
        try:
            return self.source.verify(auth)
        except TypeError:  # an unhashable topic: no coin is keyed by it
            return False


class ProposerPolicy:
    """Who may send ``(Propose, r, b)``: whoever ``authenticator``
    authenticates on that topic — in the compiled worlds, anyone who
    mines it."""

    def __init__(self, authenticator: Authenticator) -> None:
        self.authenticator = authenticator

    def attempt(self, node_id: NodeId, iteration: int, bit: Bit) -> Optional[Any]:
        """Auth for a proposal, or None if this node may not propose."""
        return self.authenticator.attempt(node_id, ("Propose", iteration, bit))

    def check(self, node_id: NodeId, iteration: int, bit: Bit, auth: Any) -> bool:
        """Verify a received proposal's right to exist."""
        return self.authenticator.check(node_id, ("Propose", iteration, bit),
                                        auth)


class OracleProposerPolicy(ProposerPolicy):
    """Warmup worlds: only the announced oracle leader may propose."""

    def __init__(self, oracle: LeaderOracle, authenticator: Authenticator) -> None:
        super().__init__(authenticator)
        self.oracle = oracle

    def attempt(self, node_id: NodeId, iteration: int, bit: Bit) -> Optional[Any]:
        if self.oracle.leader(iteration) != node_id:
            return None
        return super().attempt(node_id, iteration, bit)

    def check(self, node_id: NodeId, iteration: int, bit: Bit, auth: Any) -> bool:
        return (self.oracle.leader(iteration) == node_id
                and super().check(node_id, iteration, bit, auth))


@dataclass
class ProtocolInstance:
    """Everything a runner needs to simulate one protocol execution."""

    name: str
    nodes: List[Node]
    max_rounds: int
    inputs: Dict[NodeId, Bit]
    signing_capabilities: Sequence[Any] = field(default_factory=list)
    mining_capabilities: Sequence[Any] = field(default_factory=list)
    #: The one authenticator the nodes check auths through, or ``None``
    #: (Dolev–Strong verifies its chains itself; naive relay signs none).
    authenticator: Optional[Authenticator] = None
    #: The nodes' shared ``verification.RoundConfig``, whose ``schedule``
    #: is how ``adversaries.menu.FAMILIES`` recognizes the family, or
    #: ``None``.
    config: Any = None
    #: ``payload ->`` its readers: a row by node id, true where that node
    #: can still act on it, or ``None`` for every node (total: a malformed
    #: payload maps to ``None``).  A row reads only node state that moves
    #: one way, so a node left out when a window drains stays out, and is
    #: never mutated once returned.  A conditioned network counts a copy
    #: for any other honest recipient without delivering it.
    audience: Optional[Audience] = None
