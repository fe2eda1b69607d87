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

Conditioned executions (``conditions=``) are driven by an **event
scheduler**: instead of ticking the network once per Δ network round,
the engine reads the head of the conditioned network's calendar queue
and jumps the clock straight to the next tick that has any work — a
staging window to drain, a due delivery, or a protocol step.  Idle
Δ-ticks in between are skipped outright (``NetworkStats.skipped_ticks``
counts them), which is where sparse-latency WAN topologies win their
wall clock.  The historical Δ-lockstep synchronizer lives on as the
differential reference in ``tests/engines.py`` (a :class:`Simulation`
subclass overriding :meth:`Simulation._run_conditioned`), and the
conformance suite asserts the two produce *identical* executions — same
decisions, rounds, transcripts, NetworkStats, and RNG draw order.  See
``docs/NETWORK.md`` ("Event engine").
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

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
from repro.types import AdversaryModel, Bit, NodeId, Round

#: Keep every envelope ever staged (replay / invariant checking).
TRANSCRIPT_FULL = "full"
#: Keep no transcript; only the aggregate communication metrics.  Long
#: executions stop accumulating unbounded envelope lists.
TRANSCRIPT_METRICS_ONLY = "metrics-only"

_RETENTION_POLICIES = (TRANSCRIPT_FULL, TRANSCRIPT_METRICS_ONLY)


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
        # (same network class, same loop, same RNG consumption).
        if conditions is not None and conditions.is_perfect:
            conditions = None
        self.conditions = conditions
        retain = transcript_retention == TRANSCRIPT_FULL
        if conditions is None:
            self.network = SynchronousNetwork(self.n, retain_transcript=retain)
        else:
            self.network = ConditionedNetwork(
                self.n, conditions, seed=seed, retain_transcript=retain)
        self.controller = CorruptionController(self.n, corruption_budget, model)
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
    def _honest_step(self, round_index: Round, inboxes) -> None:
        # A round of unblocked multicasts has one delivery list common to
        # every node; handing it over (instead of n materialized inboxes)
        # lets a protocol absorb it once for all of them.
        broadcast = getattr(inboxes, "broadcast", None)
        # Hoisted: none of these is rebound during a step (the corrupt
        # set is only ever mutated in place).
        corrupt = self.controller.corrupt_set
        rng_for_node = self.rng_for_node
        stage = self.network.stage
        record = self.metrics.record
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
                record(stage(node_id, recipient, payload, round_index,
                             honest_sender=True))

    def _all_honest_halted(self) -> bool:
        return all(node.halted or self.controller.is_corrupt(node.node_id)
                   for node in self.nodes)

    def _run_conditioned(self) -> int:
        """The event-driven partial-synchrony loop.

        The synchronizer argument — one protocol step per Δ network
        rounds, so every Δ-bounded delivery lands before the step that
        needs it — with a clock that only visits ticks that have work: the tick after a step (its staging window
        must drain into the calendar queue, in staging order, so the RNG
        stream is untouched), every tick with a due delivery (its bucket
        is appended to the step buffers in scheduling order), and every
        step tick.  Idle ticks in between are jumped over; the
        conditioned network accounts them in ``stats.skipped_ticks``
        exactly as the lock-step path counts its no-op rounds, keeping
        NetworkStats engine-invariant.
        """
        network = self.network
        stretch = self.conditions.delta
        limit = self.max_rounds * stretch
        n = self.n
        buffered: Dict[NodeId, list] = {node: [] for node in range(n)}
        rounds_executed = 0
        network_round = 0
        while network_round < limit:
            network.advance_to(network_round, buffered)
            if network_round % stretch == 0:
                round_index = network_round // stretch
                self.current_round = round_index
                self.adversary.observe_deliveries(round_index, buffered)
                self._honest_step(round_index, buffered)
                buffered = {node: [] for node in range(n)}
                self.adversary.react(round_index, network.in_flight())
                rounds_executed = round_index + 1
                if self._all_honest_halted():
                    break
            # The next tick with work.  A non-empty staging window forces
            # the very next tick (its coins must be drawn at the same
            # clock the synchronizer would draw them); otherwise jump to
            # the earlier of the next due event and the next step.
            if network.has_staged():
                network_round += 1
                continue
            upcoming = network_round - network_round % stretch + stretch
            due = network.next_due_round()
            if due is not None and due < upcoming:
                upcoming = due
            network_round = upcoming
        else:
            # Round budget exhausted without a halt: the lock-step loop
            # would have ticked its clock all the way out.
            network.finish_clock(limit)
        return rounds_executed

    def run(self) -> ExecutionResult:
        if self._ran:
            raise SimulationError("a Simulation instance runs exactly once")
        self._ran = True

        # Setup phase (round -1): static adversaries corrupt here.
        self.adversary.bind(self._api)

        rounds_executed = 0
        if self.conditions is not None:
            rounds_executed = self._run_conditioned()
        else:
            for round_index in range(self.max_rounds):
                self.current_round = round_index
                inboxes = self.network.deliver()
                self.adversary.observe_deliveries(round_index, inboxes)
                self._honest_step(round_index, inboxes)
                self.adversary.react(round_index, self.network.in_flight())
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
                 ) -> ExecutionResult:
    """Execute one :class:`~repro.protocols.base.ProtocolInstance`, read
    by its fields, against one adversary."""
    if max_rounds is None:
        max_rounds = instance.max_rounds
    return Simulation(
        nodes=instance.nodes, corruption_budget=f, model=model,
        adversary=adversary, max_rounds=max_rounds, seed=seed,
        inputs=instance.inputs, conditions=conditions,
        signing_capabilities=instance.signing_capabilities,
        mining_capabilities=instance.mining_capabilities,
        transcript_retention=transcript_retention).run()
