"""The synchronous execution engine (Appendix A.1).

One :class:`Simulation` owns the nodes, the network, the corruption
controller, the metrics, and the adversary, and drives the round loop:

1. **Deliver** the previous round's surviving messages to every node.
2. **Honest step**: each so-far-honest, non-halted node processes its
   inbox and stages its outgoing messages (which immediately count as
   sent — they cannot be un-sent except by after-the-fact removal).
3. **Adversary step (rushing)**: the adversary observes everything staged
   this round, may adaptively corrupt nodes (receiving their revealed
   state and capabilities), may inject same-round messages from corrupt
   nodes, and — under the strongly adaptive model only — may remove staged
   messages of newly corrupted senders.

The loop ends when every so-far-honest node has halted or the round limit
is reached, after which outputs are finalized (undecided nodes fall back
to their protocol's default, as in the Theorem 4 termination convention).

The network owns the clock: the loop runs over ``network.steps()``.  A
:class:`SynchronousNetwork` yields each round's deliveries in turn; a
:class:`ConditionedNetwork` (``conditions=``) yields one protocol step
per Δ network rounds and jumps the idle ticks in between, so
sparse-latency WAN topologies pay only for the ticks with work
(``NetworkStats.skipped_ticks`` counts the rest).  The reference
executor, ``tests/reference.py``, ticks every network round and steps
every node every tick, and its battery asserts the two produce
*identical* executions — same decisions, rounds, transcripts, node
states, NetworkStats, and RNG draw order.  See ``docs/NETWORK.md``
("The event engine").

An ``observer`` is called with the name of each phase of the loop as
it ends: ``"network"`` when the clock yields a round, ``"step"`` once
the honest step has staged its sends, ``"sizing"`` once the loop has
counted them in the metrics, ``"other"`` after the adversary's
setup and after each rushing step.  The time between two calls is the
named phase's: ``repro.harness.profiling`` builds its buckets so.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.serialization import clear_size_cache
from repro.rng import Seed, derive_rng
from repro.sim.adversary import Adversary, AdversaryApi, PassiveAdversary
from repro.sim.conditions import ConditionedNetwork, NetworkConditions
from repro.sim.corruption import CorruptionController, CorruptionGrant
from repro.sim.metrics import CommunicationMetrics
from repro.sim.network import Envelope, SynchronousNetwork
from repro.sim.node import Node, RoundContext
from repro.sim.result import ExecutionResult
from repro.types import AdversaryModel, Audience, Bit, NodeId, Round

#: Keep every envelope ever staged (replay / invariant checking).
TRANSCRIPT_FULL = "full"
#: Keep no transcript; only the aggregate communication metrics.  Long
#: executions stop accumulating unbounded envelope lists.
TRANSCRIPT_METRICS_ONLY = "metrics-only"

_RETENTION_POLICIES = (TRANSCRIPT_FULL, TRANSCRIPT_METRICS_ONLY)

#: An observer is called with the name of each phase as it ends.
Observer = Callable[[str], None]


def _unobserved(phase: str) -> None:
    pass


class Simulation:
    """A single protocol execution against one adversary."""

    def __init__(
        self,
        nodes: Sequence[Node],
        corruption_budget: int,
        model: AdversaryModel = AdversaryModel.ADAPTIVE,
        adversary: Optional[Adversary] = None,
        max_rounds: int = 1000,
        seed: Seed = 0,
        inputs: Optional[Dict[NodeId, Bit]] = None,
        signing_capabilities: Optional[Sequence] = None,
        mining_capabilities: Optional[Sequence] = None,
        transcript_retention: str = TRANSCRIPT_FULL,
        conditions: Optional[NetworkConditions] = None,
        audience: Optional[Audience] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        if not nodes:
            raise SimulationError("need at least one node")
        if transcript_retention not in _RETENTION_POLICIES:
            raise SimulationError(
                f"unknown transcript retention {transcript_retention!r}; "
                f"expected one of {_RETENTION_POLICIES}")
        self.nodes = list(nodes)
        self.n = len(nodes)
        self.transcript_retention = transcript_retention
        # Perfect conditions ARE the lock-step model: normalize them to
        # None so the unconditioned fast path below stays byte-identical
        # (same network class, same clock, same RNG consumption).
        if conditions is not None and conditions.is_perfect:
            conditions = None
        self.conditions = conditions
        self.controller = CorruptionController(self.n, corruption_budget, model)
        retain = transcript_retention == TRANSCRIPT_FULL
        if conditions is None:
            self.network = SynchronousNetwork(self.n, retain_transcript=retain)
        else:
            # The live corrupt set: a copy to a corrupt node is always
            # filed, whatever its payload's audience.
            self.network = ConditionedNetwork(
                self.n, conditions, seed=seed, retain_transcript=retain,
                audience=audience, corrupt=self.controller.corrupt_set)
        self.metrics = CommunicationMetrics(n=self.n)
        self.adversary = adversary if adversary is not None else PassiveAdversary()
        self.max_rounds = max_rounds
        self.seed = seed
        self.inputs = dict(inputs or {})
        self.current_round: Round = -1
        self._signing_capabilities = list(signing_capabilities or [])
        self._mining_capabilities = list(mining_capabilities or [])
        self._node_rngs: Dict[NodeId, random.Random] = {}
        self._api = AdversaryApi(self)
        self._ran = False
        self.observer = observer if observer is not None else _unobserved

    # -- services used by the adversary API ---------------------------------
    def rng_for_node(self, node_id: NodeId) -> random.Random:
        if node_id not in self._node_rngs:
            self._node_rngs[node_id] = derive_rng(self.seed, "node", node_id)
        return self._node_rngs[node_id]

    def perform_corruption(self, node_id: NodeId) -> CorruptionGrant:
        controller = self.controller
        if controller.is_corrupt(node_id):
            raise SimulationError(f"node {node_id} is already corrupt")
        controller.authorize(node_id, self.current_round)
        controller.mark_corrupt(node_id, self.current_round)
        node = self.nodes[node_id]
        signing = (self._signing_capabilities[node_id]
                   if node_id < len(self._signing_capabilities) else None)
        mining = (self._mining_capabilities[node_id]
                  if node_id < len(self._mining_capabilities) else None)
        return CorruptionGrant(
            node_id=node_id,
            round=self.current_round,
            node=node,
            revealed_state=node.reveal_state(),
            signing_capability=signing,
            mining_capability=mining,
        )

    def stage_adversarial(self, sender: NodeId, recipient: Optional[NodeId],
                          payload) -> Envelope:
        envelope = self.network.stage(
            sender, recipient, payload,
            round_sent=max(self.current_round, 0), honest_sender=False)
        self.metrics.record(envelope)
        return envelope

    # -- the round loop ------------------------------------------------------
    def _honest_step(self, round_index: Round, inboxes) -> List[Envelope]:
        """Step every awake so-far-honest node; the envelopes it staged,
        in staging order."""
        # A round of unblocked multicasts has one delivery list common to
        # every node; handing it over (instead of n materialized inboxes)
        # lets a protocol absorb it once for all of them.
        broadcast = getattr(inboxes, "broadcast", None)
        # Hoisted: none of these is rebound during a step (the corrupt
        # set is only ever mutated in place).
        corrupt = self.controller.corrupt_set
        rng_for_node = self.rng_for_node
        stage = self.network.stage
        sent: List[Envelope] = []
        send = sent.append
        for node in self.nodes:
            node_id = node.node_id
            if node.halted or node_id in corrupt or (
                    node.asleep_until > round_index and not inboxes[node_id]):
                continue
            ctx = RoundContext(
                node_id, round_index,
                inboxes[node_id] if broadcast is None else None,
                rng_for_node, broadcast)
            node.on_round(ctx)
            for recipient, payload in ctx.staged:
                send(stage(node_id, recipient, payload, round_index,
                           honest_sender=True))
        return sent

    def _all_honest_halted(self) -> bool:
        return all(node.halted or self.controller.is_corrupt(node.node_id)
                   for node in self.nodes)

    def run(self) -> ExecutionResult:
        if self._ran:
            raise SimulationError("a Simulation instance runs exactly once")
        self._ran = True

        # Setup phase (round -1): static adversaries corrupt here.
        self.adversary.bind(self._api)
        observe = self.observer
        observe("other")

        record = self.metrics.record
        rounds_executed = 0
        for round_index, inboxes in self.network.steps(self.max_rounds):
            observe("network")
            self.current_round = round_index
            self.adversary.observe_deliveries(round_index, inboxes)
            sent = self._honest_step(round_index, inboxes)
            observe("step")
            for envelope in sent:
                record(envelope)
            observe("sizing")
            self.adversary.react(round_index, self.network.in_flight())
            observe("other")
            rounds_executed = round_index + 1
            if self._all_honest_halted():
                break

        # The size memo pins message objects; this execution's messages
        # never recur in a later one, so release them now.
        clear_size_cache()

        outputs: Dict[NodeId, Bit] = {}
        decided_rounds: Dict[NodeId, Optional[Round]] = {}
        for node in self.nodes:
            if self.controller.is_corrupt(node.node_id):
                continue
            outputs[node.node_id] = node.finalize()
            decided_rounds[node.node_id] = node.decided_round
        return ExecutionResult(
            n=self.n,
            corruption_budget=self.controller.budget,
            corrupt_set=set(self.controller.corrupt_set),
            rounds_executed=rounds_executed,
            outputs=outputs,
            decided_rounds=decided_rounds,
            metrics=self.metrics,
            inputs=dict(self.inputs),
            transcript=list(self.network.transcript),
            transcript_retained=self.network.retain_transcript,
            network_stats=getattr(self.network, "stats", None),
            rounds_budget=self.max_rounds,
        )


def run_instance(instance, f: int, adversary: Optional[Adversary] = None,
                 model: AdversaryModel = AdversaryModel.ADAPTIVE,
                 seed: Seed = 0, max_rounds: Optional[int] = None,
                 transcript_retention: str = TRANSCRIPT_FULL,
                 conditions: Optional[NetworkConditions] = None,
                 observer: Optional[Observer] = None,
                 ) -> ExecutionResult:
    """Execute one :class:`~repro.protocols.base.ProtocolInstance`, read
    by its fields, against one adversary (``observer``: the
    module docstring)."""
    if max_rounds is None:
        max_rounds = instance.max_rounds
    return Simulation(
        nodes=instance.nodes, corruption_budget=f, model=model,
        adversary=adversary, max_rounds=max_rounds, seed=seed,
        inputs=instance.inputs, conditions=conditions,
        signing_capabilities=instance.signing_capabilities,
        mining_capabilities=instance.mining_capabilities,
        transcript_retention=transcript_retention,
        audience=instance.audience, observer=observer).run()
