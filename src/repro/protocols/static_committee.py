"""CRS-elected committee BA: the Section 1 motivating construction.

*"if there is a trusted common random string (CRS) that is chosen
independently of the adversary's corruption choices, we can use the CRS to
select a small committee of players, and then run any BA protocol among
the committee.  Finally the committee members may send their outputs to
all other non-committee players who could then output the majority bit."*

This is secure against a *static* adversary (the committee is chosen after
the corrupt set is fixed, so it has honest majority w.h.p.) and utterly
broken against an *adaptive* one, which simply corrupts the announced
committee — the failure that motivates the whole paper.  The
:mod:`repro.adversaries.adaptive_committee` attack demonstrates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.crypto.registry import KeyRegistry
from repro.errors import ConfigurationError
from repro.protocols.aba import SCHEDULE, AbaNode
from repro.protocols.base import (
    Authenticator,
    OracleProposerPolicy,
    ProtocolInstance,
)
from repro.protocols.verification import RoundConfig, admit
from repro.rng import Seed, derive_rng
from repro.sim.leader import LeaderOracle
from repro.sim.node import Node, RoundContext
from repro.types import Bit, NodeId


@dataclass(frozen=True)
class CommitteeOutputMsg:
    """A committee member announcing the BA outcome to everyone."""

    bit: Bit
    sender: NodeId
    auth: Any


def elect_committee(n: int, size: int, crs_seed: Seed) -> List[NodeId]:
    """The CRS committee: a public pseudorandom subset of nodes."""
    rng = derive_rng(crs_seed, "crs-committee")
    return sorted(rng.sample(range(n), size))


class CommitteeAuthenticator(Authenticator):
    """Signature auth restricted to committee members."""

    def __init__(self, registry: KeyRegistry, committee: Sequence[NodeId]) -> None:
        self.registry = registry
        self.committee = frozenset(committee)

    def attempt(self, node_id: NodeId, topic) -> Optional[Any]:
        if node_id not in self.committee:
            return None
        return self.registry.capability_for(node_id).sign(topic)

    def check(self, node_id: NodeId, topic, auth: Any) -> bool:
        if node_id not in self.committee:
            return False
        return self.registry.verify(node_id, topic, auth)


class CommitteeLeaderOracle(LeaderOracle):
    """Random leader drawn from the committee (public announcement)."""

    def __init__(self, committee: Sequence[NodeId], seed: Seed) -> None:
        self.committee = list(committee)
        self._seed = seed
        self._memo: Dict[int, NodeId] = {}

    def leader(self, epoch: int) -> NodeId:
        if epoch not in self._memo:
            rng = derive_rng(self._seed, "committee-leader", epoch)
            self._memo[epoch] = rng.choice(self.committee)
        return self._memo[epoch]


class CommitteeMemberNode(AbaNode):
    """Committee member: runs BA in-committee, then announces the output."""

    def __init__(self, node_id: NodeId, n: int, input_bit: Bit,
                 config: RoundConfig, registry: KeyRegistry) -> None:
        super().__init__(node_id, n, input_bit, config)
        self._registry = registry
        self._announced = False

    def _terminate(self, ctx: RoundContext, iteration: int, bit: Bit) -> None:
        if not self._announced:
            self._announced = True
            auth = self._registry.capability_for(self.node_id).sign(
                ("committee-output", bit))
            ctx.multicast(CommitteeOutputMsg(bit=bit, sender=self.node_id,
                                             auth=auth))
        super()._terminate(ctx, iteration, bit)


class ListenerNode(Node):
    """Non-member: outputs the majority of announced committee outputs."""

    def __init__(self, node_id: NodeId, n: int, input_bit: Bit,
                 registry: KeyRegistry, committee: Sequence[NodeId],
                 max_rounds: int) -> None:
        super().__init__(node_id, n)
        self.input_bit = input_bit
        self._registry = registry
        self.committee = frozenset(committee)
        self.majority = len(committee) // 2 + 1
        self.max_rounds = max_rounds
        self.outputs_seen: Dict[Bit, set] = {0: set(), 1: set()}
        self.decision: Optional[Bit] = None

    def on_round(self, ctx: RoundContext) -> None:
        for delivery in ctx.inbox:
            msg = delivery.payload
            if not isinstance(msg, CommitteeOutputMsg):
                continue
            if msg.sender not in self.committee or msg.bit not in (0, 1):
                continue
            if self._registry.verify(msg.sender, ("committee-output", msg.bit),
                                     msg.auth):
                self.outputs_seen[msg.bit].add(msg.sender)
        for bit in (0, 1):
            if self.decision is None and len(self.outputs_seen[bit]) >= self.majority:
                self.decision = bit
                self.decide(bit, ctx.round)
                self.halted = True
                return
        if ctx.round >= self.max_rounds - 1:
            self.halted = True

    def output(self) -> Optional[Bit]:
        return self.decision

    def finalize(self) -> Bit:
        if self.decision is not None:
            return self.decision
        # Best effort: plurality of whatever announcements arrived.
        zero, one = len(self.outputs_seen[0]), len(self.outputs_seen[1])
        if zero == one:
            return self.input_bit
        return 0 if zero > one else 1


def build_static_committee(
    n: int,
    f: int,
    inputs: Sequence[Bit],
    seed: Seed = 0,
    committee_size: Optional[int] = None,
    max_iterations: int = 20,
) -> ProtocolInstance:
    """Committee BA with a CRS-elected, publicly-known committee."""
    admit("static committee", n, f, inputs, 2)
    size = committee_size if committee_size is not None else max(
        3, min(n, 2 * int(math.log2(max(n, 2))) + 1))
    if size > n:
        raise ConfigurationError("committee larger than the network")
    committee = elect_committee(n, size, seed)
    committee_f = (size - 1) // 2
    registry = KeyRegistry(n)
    authenticator = CommitteeAuthenticator(registry, committee)
    config = RoundConfig(
        schedule=SCHEDULE,
        threshold=committee_f + 1,
        authenticator=authenticator,
        proposer=OracleProposerPolicy(
            CommitteeLeaderOracle(committee, seed), authenticator),
        units=max_iterations,
    )
    max_rounds = SCHEDULE.rounds_for(max_iterations)
    committee_set = set(committee)
    nodes: List[Node] = []
    for node_id in range(n):
        if node_id in committee_set:
            nodes.append(CommitteeMemberNode(
                node_id, n, inputs[node_id], config, registry))
        else:
            nodes.append(ListenerNode(
                node_id, n, inputs[node_id], registry, committee, max_rounds))
    return ProtocolInstance(
        name="static-committee",
        nodes=nodes,
        max_rounds=max_rounds,
        inputs={i: inputs[i] for i in range(n)},
        signing_capabilities=[registry.capability_for(i) for i in range(n)],
        mining_capabilities=[],
        authenticator=authenticator,
    )
