"""Synchronous protocol-execution model (Appendix A.1).

The simulator realises the paper's Interactive-Turing-Machine round model:

- execution proceeds in synchronous rounds; every message multicast by a
  so-far-honest node in round ``r`` reaches every honest node at the
  beginning of round ``r + 1``;
- a *rushing* adaptive adversary observes the messages honest nodes are
  about to send in the current round, may corrupt nodes mid-round
  (budget-checked), may make newly corrupt nodes send additional messages
  in the same round — but may erase already-sent messages only when it is
  granted the **strongly adaptive** capability (after-the-fact removal,
  Section 2);
- on corruption the adversary receives the node's revealed state
  (capabilities, secret keys, protocol state) — minus anything erased
  under the memory-erasure model;
- communication is accounted per Definitions 6 and 7 (classical and
  multicast complexity);
- optionally, the execution runs under declarative partial-synchrony
  :class:`NetworkConditions` (bounded delay Δ with GST, drops,
  duplication, scheduled partitions — see ``docs/NETWORK.md``), with
  the engine dilating protocol rounds by Δ so the lock-step protocols
  stay correct; perfect conditions keep the lock-step fast path.
"""

from repro.sim.adversary import Adversary, AdversaryApi, PassiveAdversary
from repro.sim.conditions import (
    NETWORKS,
    TOPOLOGIES,
    ConditionedNetwork,
    LinkTopology,
    NetworkConditions,
    NetworkStats,
    Partition,
)
from repro.sim.corruption import CorruptionController, CorruptionGrant
from repro.sim.engine import (
    Simulation,
    TRANSCRIPT_FULL,
    TRANSCRIPT_METRICS_ONLY,
)
from repro.sim.leader import LeaderOracle, RandomLeaderOracle, RoundRobinLeaderOracle
from repro.sim.metrics import CommunicationMetrics
from repro.sim.network import Delivery, Envelope, SynchronousNetwork
from repro.sim.node import Node, RoundContext
from repro.sim.result import ExecutionResult

__all__ = [
    "Adversary",
    "AdversaryApi",
    "PassiveAdversary",
    "NETWORKS",
    "TOPOLOGIES",
    "ConditionedNetwork",
    "LinkTopology",
    "NetworkConditions",
    "NetworkStats",
    "Partition",
    "CorruptionController",
    "CorruptionGrant",
    "Simulation",
    "TRANSCRIPT_FULL",
    "TRANSCRIPT_METRICS_ONLY",
    "LeaderOracle",
    "RandomLeaderOracle",
    "RoundRobinLeaderOracle",
    "CommunicationMetrics",
    "Delivery",
    "Envelope",
    "SynchronousNetwork",
    "Node",
    "RoundContext",
    "ExecutionResult",
]
