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
from typing import Any, Dict, List, Optional, Sequence

from repro.crypto.registry import KeyRegistry
from repro.eligibility.base import EligibilitySource, Topic
from repro.sim.leader import LeaderOracle
from repro.sim.node import Node
from repro.types import Audience, Bit, NodeId


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
        return self.source.verify(auth)


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
    #: The shared config of the entry's quorum family — how
    #: ``adversaries.menu.FAMILIES`` recognizes it — or ``None``.
    config: Any = None
    #: ``payload ->`` the one node whose state it can change, or ``None``
    #: for every node (total: a malformed payload maps to ``None``).  A
    #: conditioned network counts a copy for any other honest recipient
    #: without delivering it; ``None`` here means every copy is delivered.
    audience: Optional[Audience] = None
