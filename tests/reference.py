"""The reference executor: one naive execution every fast path must equal.

``repro.sim.engine.Simulation`` is built from shortcuts — batched
delivery, the event scheduler's skipped ticks, the calendar queue's
window draws, sleeping nodes, lazily derived node streams, and
verification memos shared by the nodes of an instance.  Each one is a
claim that it changes no byte.  :class:`ReferenceSimulation` takes none
of them, all at once, and is written to be read rather than to be fast:

- **Every node, every tick.**  Each non-halted honest node steps on every
  Δ-tick (:func:`eager_honest_step`), whatever ``Node.asleep_until``
  says, with its stream derived before the step; the view machines step
  as they did before nodes could sleep (:class:`ReferenceLeaderNode`,
  :class:`ReferenceAdaptiveNode`); and the clock visits every network
  round (the Δ-lockstep synchronizer,
  :meth:`LegacyConditionedNetwork.steps`).
- **Eager delivery, one draw per copy.**  A round's messages expand into
  one plain inbox per recipient (:func:`legacy_deliver`); under network
  conditions each copy draws its own latency with ``randint`` and waits
  in a per-copy heap (:class:`LegacyConditionedNetwork`), which files
  every copy whatever its payload's audience.
- **Every message folded.**  Nodes verify through
  :class:`UncachedVerification`, which remembers nothing: no shared round
  digest, no validated-payload front, every predicate evaluated on every
  call.

The two step references of earlier suites are one class here:
``LockstepSimulation``'s loop is :meth:`LegacyConditionedNetwork.steps`,
and ``WakefulSimulation``'s step, the stream aside, is
:func:`eager_honest_step`.

The lottery as it was, :class:`ReferenceFMine`, is held to ``FMine``
call by call (``tests/test_sparse_step.py``) rather than swapped into
an execution: a builder's seed, which it derives from, is not the run's.

The engine axis (:data:`ENGINES`, :data:`both_engines`, :func:`run`,
:func:`running_on`) lets any test make its claim on both executors, and
:func:`observe` / :func:`execute` are the one observation of an
execution that the differential tests compare.
``tests/test_reference_battery.py`` holds every registry entry, under
every adversary it admits, to this executor.
A new fast path proves itself against this module and its own directed
cases; it does not add another private copy of what it replaced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Dict, List, NamedTuple, Optional, Tuple
from unittest import mock

import pytest

from repro.errors import SimulationError
from repro.protocols.adaptive_ba import AdaptiveBaNode
from repro.protocols.certificates import verify_certificate
from repro.protocols.leader_ba import LeaderBaNode
from repro.protocols.verification import VerificationCache
from repro.rng import derive_rng, derive_seed
from repro.serialization import canonical_bytes
from repro.sim import engine as engine_module
from repro.sim.conditions import (
    ConditionedNetwork, NetworkConditions, NetworkStats)
from repro.sim.engine import Simulation
from repro.sim.network import Delivery, Envelope, SynchronousNetwork
from repro.sim.node import Node, RoundContext


# -- verification that caches nothing -----------------------------------------


class UncachedVerification(VerificationCache):
    """The per-message fold: every check runs its predicate, no round
    digest is built and no payload is marked valid, so every recipient
    validates and absorbs every delivery itself."""

    def round_digest(self, broadcast, build):
        return None

    def mark_valid(self, payload, absorb=None):
        pass

    def check_vote(self, authenticator, vote):
        return authenticator.check(vote.voter,
                                   ("Vote", vote.iteration, vote.bit),
                                   vote.auth)

    def check_certificate(self, certificate, threshold, check_vote):
        return verify_certificate(certificate, threshold, check_vote)

    def check_quorum(self, predicate, members, args):
        return predicate(members, *args)


# -- delivery: eager per-recipient expansion ----------------------------------


def drain_staged(network, per_copy):
    """Expand the staging window into surviving per-recipient copies:
    ``per_copy(envelope, recipient, delivery)`` for every copy that
    survives the delivery contract, multicast recipients ascending, then
    reset the window.  The per-copy fan-out both reference networks
    share (:func:`legacy_deliver`, :class:`LegacyConditionedNetwork`)."""
    for envelope, delivery, blocked in network._surviving_entries():
        if envelope.recipient is not None:
            per_copy(envelope, envelope.recipient, delivery)
            continue
        for recipient in range(network.n):
            if recipient != envelope.sender and recipient not in blocked:
                per_copy(envelope, recipient, delivery)
    network._reset_window()


def legacy_deliver(network):
    """Reference implementation of delivery: eager per-recipient expansion.

    What :meth:`SynchronousNetwork.deliver` did before batching — a plain
    dict with one list per node — consuming the staging window one copy
    at a time.
    """
    inboxes = {node: [] for node in range(network.n)}
    drain_staged(
        network,
        lambda envelope, recipient, delivery: inboxes[recipient].append(delivery))
    network._delivered_round += 1
    return inboxes


class EagerNetwork(SynchronousNetwork):
    """The lock-step network delivering through :func:`legacy_deliver`."""

    deliver = legacy_deliver


# -- conditioned delivery: the per-copy heap ----------------------------------


def legacy_draw_latency(conditions: NetworkConditions,
                        rng: random.Random) -> int:
    """One base-delay draw through the public ``random.Random`` API."""
    head = conditions.latency[0]
    if head == "fixed":
        return conditions.latency[1]
    if head == "uniform":
        return rng.randint(conditions.latency[1], conditions.latency[2])
    p = conditions.latency[1]
    delay = 1
    while rng.random() >= p and delay < 64:
        delay += 1
    return delay


@dataclasses.dataclass
class _PendingCopy:
    envelope: Envelope
    recipient: int
    sent_round: int
    due_round: int
    delivery: Delivery


class LegacyConditionedNetwork(SynchronousNetwork):
    """One heap entry ``(due_round, seq, recipient, copy)`` per copy; the
    public surface (``delay``, ``advance_to(round, inboxes)``,
    ``next_due_round``, ``steps``, the refused ``deliver``) matches
    ``ConditionedNetwork`` so the engine can run on it unchanged, and
    :func:`pending_copies` reads either's queue."""

    deliver = ConditionedNetwork.deliver

    def __init__(self, n, conditions, seed=0, retain_transcript=True,
                 audience=None, corrupt=frozenset()):
        # Files every copy: audience and corrupt set are ignored.
        super().__init__(n, retain_transcript=retain_transcript)
        if conditions.topology is not None:
            conditions.topology.check_n(n)
        self.conditions = conditions
        self.stats = NetworkStats()
        self._rng = derive_rng(seed, "network-conditions")
        self._queue: List[Tuple[int, int, int, _PendingCopy]] = []
        self._seq = 0
        self._extra_delay: Dict[Tuple[int, Optional[int]], int] = {}

    def delay(self, envelope, recipient=None, rounds=1):
        self._require_in_flight(envelope, "delay")
        if rounds < 1:
            raise SimulationError(f"delay must be >= 1 round, got {rounds}")
        key = (envelope.envelope_id, recipient)
        self._extra_delay[key] = self._extra_delay.get(key, 0) + rounds

    def _copy_delay(self, envelope, recipient, sent_round):
        conditions = self.conditions
        cap = (conditions.delta if sent_round >= conditions.gst
               else conditions.effective_pre_gst_cap)
        base = legacy_draw_latency(conditions, self._rng)
        if conditions.topology is not None:
            base += conditions.topology.link_extra(
                envelope.sender, recipient, self.n)
        base = min(base, cap)
        extra = (self._extra_delay.get((envelope.envelope_id, recipient), 0)
                 + self._extra_delay.get((envelope.envelope_id, None), 0))
        if not extra:
            return base
        total = min(base + extra, cap)
        if total > base:
            self.stats.adversary_delayed_copies += 1
        return total

    def _schedule_copy(self, envelope, recipient, sent_round, delivery):
        conditions = self.conditions
        stats = self.stats
        pre_gst = sent_round < conditions.gst
        if pre_gst and conditions.drop_rate \
                and self._rng.random() < conditions.drop_rate:
            stats.dropped_copies += 1
            return
        copies = 1
        if pre_gst and conditions.duplicate_rate \
                and self._rng.random() < conditions.duplicate_rate:
            copies = 2
            stats.duplicated_copies += 1
        for _ in range(copies):
            due = sent_round + self._copy_delay(envelope, recipient,
                                                sent_round)
            self._enqueue(due, _PendingCopy(
                envelope=envelope, recipient=recipient,
                sent_round=sent_round, due_round=due, delivery=delivery))

    def _enqueue(self, due_round, copy):
        heappush(self._queue, (due_round, self._seq, copy.recipient, copy))
        self._seq += 1
        self.stats.events_processed += 1

    def _defer(self, copy, heal_round):
        copy.due_round = heal_round
        self._enqueue(heal_round, copy)
        self.stats.deferred_copies += 1

    def _blocking_partition(self, copy, round_index):
        for partition in self.conditions.partitions:
            if partition.active_at(round_index) and partition.separates(
                    copy.envelope.sender, copy.recipient, self.n):
                return partition
        return None

    def next_due_round(self):
        return self._queue[0][0] if self._queue else None

    def pop_due(self, round_index) -> List[_PendingCopy]:
        """The old ``advance_to``: surviving due copies in heap order."""
        jumped = round_index - self._delivered_round - 1
        if jumped < 0:
            raise SimulationError("network clock cannot move backwards")
        stats = self.stats
        stats.skipped_ticks += jumped
        sent_round = max(self._delivered_round, 0)
        worked = bool(self._staged)

        def schedule(envelope, recipient, delivery):
            self._schedule_copy(envelope, recipient, sent_round, delivery)

        drain_staged(self, schedule)
        self._extra_delay = {}
        self._delivered_round = round_index
        stats.network_rounds = round_index + 1
        stats.max_in_flight = max(stats.max_in_flight, len(self._queue))
        queue = self._queue
        delivered = []
        while queue and queue[0][0] <= round_index:
            copy = heappop(queue)[3]
            worked = True
            partition = self._blocking_partition(copy, round_index)
            if partition is not None:
                self._defer(copy, partition.end)
                continue
            delivered.append(copy)
            stats.delivered_copies += 1
            stats.latency_total += round_index - copy.sent_round
        if not worked:
            stats.skipped_ticks += 1
        return delivered

    def advance_to(self, round_index, inboxes):
        for copy in self.pop_due(round_index):
            inboxes[copy.recipient].append(copy.delivery)

    def steps(self, max_rounds):
        """The Δ-lockstep synchronizer.

        With every copy delivered within Δ network rounds of sending
        (post-GST), stepping the protocol only every Δ rounds guarantees
        each step sees everything the previous step sent — so a
        lock-step protocol runs unchanged under any Δ-bounded delivery
        schedule.  The clock ticks every network round; deliveries
        landing between steps accumulate into per-node buffers handed
        over at the next step, and idle ticks run as no-ops
        (``NetworkStats.skipped_ticks``).
        """
        stretch = self.conditions.delta
        buffered = {node: [] for node in range(self.n)}
        for network_round in range(max_rounds * stretch):
            self.advance_to(network_round, buffered)
            if network_round % stretch == 0:
                yield network_round // stretch, buffered
                buffered = {node: [] for node in range(self.n)}


class PendingCopy(NamedTuple):
    """One filed in-flight copy, as :func:`pending_copies` lists it."""

    due_round: int
    sent_round: int
    recipient: int
    delivery: Delivery


def pending_copies(network) -> List[PendingCopy]:
    """Every filed in-flight copy of a conditioned network, by due round
    and then scheduling order: for ``ConditionedNetwork`` its calendar's
    groups, recipients and lists (inert copies are counted, never filed),
    for :class:`LegacyConditionedNetwork` its heap's order."""
    if isinstance(network, LegacyConditionedNetwork):
        return [PendingCopy(copy.due_round, copy.sent_round, copy.recipient,
                            copy.delivery)
                for _, _, _, copy in sorted(network._queue,
                                            key=lambda entry: entry[:2])]
    buckets = network._buckets
    return [PendingCopy(due_round, sent_round, recipient, delivery)
            for due_round in sorted(buckets)
            for sent_round, targets, _ in buckets[due_round]
            for recipient, deliveries in targets.items()
            for delivery in deliveries]


# -- the view machines' step before nodes could sleep -------------------------


def _scan_every_round(self, ctx):
    """``_maybe_decide`` as it was before the new-quorum flag: scan the
    whole member tally every round."""
    ready = sorted(
        key for key, quorum in self.members_seen.items()
        if len(quorum) >= self.config.threshold)
    for unit, bit in ready:
        if self._settle(ctx, unit, bit):
            return True
    return False


def _idle(node, unit):
    """The rule ``asleep_until`` replaced: a settled height's window
    idles out, decided unit by unit from the height decisions."""
    heights = getattr(node, "height_decisions", None)
    return heights is not None and node.config.height_of_view(unit) in heights


def _step_every_round(self, ctx):
    """``ViewNode.on_round`` as it was before nodes could sleep: every
    call walks the inbox and scans the tally, and ``asleep_until`` is
    never read."""
    if self._final_msg is not None:
        if self.SCHEDULE.at_boundary(ctx.round):
            self._announce(ctx, self._final_msg)
        return
    self._fold(ctx.inbox)
    if _scan_every_round(self, ctx):
        return
    unit, phase = self.SCHEDULE.schedule(ctx.round)
    if unit > self.config.units:
        self.halted = True
        return
    action = self._ACTIONS.get(phase)
    if action is not None and not _idle(self, unit):
        action(self, ctx, unit)


class ReferenceLeaderNode(LeaderBaNode):
    on_round = _step_every_round


class ReferenceAdaptiveNode(AdaptiveBaNode):
    on_round = _step_every_round


REFERENCE_NODES = {LeaderBaNode: ReferenceLeaderNode,
                   AdaptiveBaNode: ReferenceAdaptiveNode}


def _with_inner(nodes):
    """``nodes`` and the nodes they wrap (a broadcast node's ``inner``)."""
    for node in nodes:
        while node is not None:
            yield node
            node = getattr(node, "inner", None)


def fold_every_message(nodes):
    """Have ``nodes`` verify through one :class:`UncachedVerification`,
    in place: the per-message fold, every other path as it is."""
    verification = UncachedVerification()
    for node in _with_inner(nodes):
        if hasattr(node, "_verification"):
            node._verification = node.config.verification = verification


# -- Fmine before the one-frame coin ------------------------------------------


def reference_coin(seed, node_id, topic, probability):
    return derive_rng(seed, "fmine", node_id, topic).random() < probability


def int_spelling(topic):
    """``topic`` with every element that equals an ``int`` spelled as one:
    the one label of all equal topics' coin stream."""
    return tuple(int(item) if isinstance(item, (bool, float))
                 and item == int(item) else item for item in topic)


class ReferenceFMine:
    """``FMine`` as it was: ``mine → _flip → probability → _compute_flip →
    derive_rng → derive_seed``, one frame each; the stream is labelled by
    the topic's :func:`int_spelling`."""

    def __init__(self, schedule, seed, coin_cache=None):
        self.schedule, self.seed, self.coin_cache = schedule, seed, coin_cache
        self.coins = {}

    def mine(self, node_id, topic):
        key = (node_id, topic)
        if key not in self.coins:
            probability = self.schedule.probability(topic)
            label = int_spelling(topic)
            if self.coin_cache is None:
                coin = reference_coin(self.seed, node_id, label, probability)
            else:
                coin = self.coin_cache.coin(
                    (derive_seed(self.seed, "fmine", node_id, label),
                     probability),
                    lambda: reference_coin(self.seed, node_id, label,
                                           probability))
            self.coins[key] = coin
        return self.coins[key]

    def verify(self, node_id, topic):
        return self.coins.get((node_id, topic), False)


# -- the executor -------------------------------------------------------------


def eager_honest_step(self, round_index, inboxes):
    """``Simulation._honest_step`` as it was: every non-halted honest node
    steps, asleep or not, its stream derived before its step, every
    attribute looked up per node; the envelopes staged."""
    broadcast = getattr(inboxes, "broadcast", None)
    sent = []
    for node in self.nodes:
        node_id = node.node_id
        if self.controller.is_corrupt(node_id) or node.halted:
            continue
        ctx = RoundContext(
            node_id, round_index,
            inboxes[node_id] if broadcast is None else None,
            self.rng_for_node(node_id), broadcast)
        node.on_round(ctx)
        for recipient, payload in ctx.staged:
            sent.append(self.network.stage(
                node_id, recipient, payload, round_index, honest_sender=True))
    return sent


class ReferenceSimulation(Simulation):
    """A :class:`Simulation` on the reference networks, stepping every
    node every tick, whose nodes fold every message (this module's
    docstring).  Its nodes are converted in place when it is built."""

    def __init__(self, nodes, *args, **kwargs):
        super().__init__(nodes, *args, **kwargs)
        retain = self.network.retain_transcript
        if self.conditions is None:
            self.network = EagerNetwork(self.n, retain_transcript=retain)
        else:
            self.network = LegacyConditionedNetwork(
                self.n, self.conditions, seed=self.seed,
                retain_transcript=retain)
        for node in _with_inner(self.nodes):
            node.__class__ = REFERENCE_NODES.get(node.__class__,
                                                 node.__class__)
        fold_every_message(self.nodes)

    _honest_step = eager_honest_step


# -- the engine axis ----------------------------------------------------------

EVENT = "event"
REFERENCE = "reference"

#: Both executors, the reference first.
ENGINES = (REFERENCE, EVENT)

#: ``@both_engines`` parametrizes a test over the engine axis; the test
#: receives the engine name as its ``engine`` argument.
both_engines = pytest.mark.parametrize("engine", ENGINES)

SIMULATIONS = {REFERENCE: ReferenceSimulation, EVENT: Simulation}


@contextmanager
def running_on(engine):
    """Every ``run_instance`` of this process inside the block executes
    on ``engine`` (``run_trials`` and ``run_sweep`` at ``workers=1``
    included)."""
    with mock.patch.object(engine_module, "Simulation", SIMULATIONS[engine]):
        yield


def run(instance, f, adversary=None, *, engine=EVENT, **kwargs):
    """``run_instance(instance, f, adversary, **kwargs)`` on ``engine``."""
    with running_on(engine):
        return engine_module.run_instance(instance, f, adversary, **kwargs)


# -- observing an execution ---------------------------------------------------


def observe(result):
    """Everything an execution's result holds, content-compared."""
    stats = result.network_stats
    return {
        "transcript": [
            (e.envelope_id, e.sender, e.recipient, e.round_sent,
             e.honest_sender, e.payload) for e in result.transcript],
        "outputs": result.outputs,
        "decided_rounds": result.decided_rounds,
        "metrics": vars(result.metrics),
        "rounds_executed": result.rounds_executed,
        "rounds_saved": result.rounds_saved,
        "corrupt_set": sorted(result.corrupt_set),
        "network_stats": stats and dataclasses.asdict(stats),
    }


def digest(result):
    """A full-content fingerprint of an execution result: a hash of
    :func:`observe`'s transcript, payloads, outputs, decision rounds,
    metrics and round count (the parts a pinned digest covers)."""
    seen = observe(result)
    h = hashlib.sha256()
    h.update(canonical_bytes([entry[:5] for entry in seen["transcript"]]))
    for entry in seen["transcript"]:
        h.update(canonical_bytes(entry[5]))
    for part in ("outputs", "decided_rounds", "metrics", "rounds_executed"):
        h.update(canonical_bytes(seen[part]))
    return h.hexdigest()


#: Node attributes that are services or fast-path bookkeeping rather than
#: protocol state: shared configs, caches and keys, the new-quorum flag,
#: the digest's shared tallies and the leader memo.
NOT_STATE = frozenset({
    "config", "_verification", "_quorum_formed", "_shared_tallies",
    "_leads", "_oracle", "registry", "_registry", "_capability"})


def _plain(value):
    if isinstance(value, Node):
        return node_state(value)
    if isinstance(value, dict):  # arrival order is state: keep it
        return [(key, _plain(item)) for key, item in value.items()]
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def node_state(node):
    """A node's protocol state, dict orders included: every attribute
    but :data:`NOT_STATE`, a wrapped node's state nested."""
    return {key: _plain(value) for key, value in vars(node).items()
            if key not in NOT_STATE}


def _scalars(node):
    """The attributes of :func:`node_state` that hold no container, a
    wrapped node's nested: one node's row of a round in the trace."""
    return [(key, _scalars(value) if isinstance(value, Node) else value)
            for key, value in vars(node).items()
            if key not in NOT_STATE
            and not isinstance(value, (dict, list, set, frozenset))]


def execute(instance, f, adversary=None, *, engine=EVENT, **kwargs):
    """``run(instance, f, adversary, engine=engine, **kwargs)`` and
    everything it observably produced: :func:`observe` of the result,
    every honest node's end state, its scalar state after each round's
    step (a lock adopted a round late shows there, not at the end), and
    the end state of the network's stream and of every node's stream."""
    simulations, trace = [], []

    class Recorded(SIMULATIONS[engine]):
        def run(self):
            simulations.append(self)
            return super().run()

        def _honest_step(self, round_index, inboxes):
            sent = super()._honest_step(round_index, inboxes)
            corrupt = self.controller.corrupt_set
            trace.append([_scalars(node) for node in self.nodes
                          if node.node_id not in corrupt])
            return sent

    with mock.patch.object(engine_module, "Simulation", Recorded):
        result = engine_module.run_instance(instance, f, adversary, **kwargs)
    simulation, = simulations
    network_rng = getattr(simulation.network, "_rng", None)
    return {
        **observe(result),
        "nodes": [node_state(node) for node in instance.nodes
                  if node.node_id not in result.corrupt_set],
        "rounds": trace,
        "network_rng": network_rng and network_rng.getstate(),
        "node_rngs": [simulation.rng_for_node(node).getstate()
                      for node in range(simulation.n)],
    }
