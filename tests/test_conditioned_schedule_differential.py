"""Differential identity: calendar-queue scheduler vs. the per-copy heap.

``ConditionedNetwork`` schedules a staging window with one hoisted loop
into a calendar queue (a bucket per due round, holding one group of
per-recipient lists per window that fed it).  The implementation it
replaced — one ``_schedule_copy`` → ``_copy_delay`` → ``draw_latency`` →
``randint`` call chain, one ``_PendingCopy`` and one heap entry *per
copy* — is kept here, verbatim, as :class:`LegacyConditionedNetwork`
(the way ``legacy_deliver`` is kept in ``test_delivery_differential.py``)
and driven side by side with the real one:

- **random staging streams** straight against the two networks
  (unicasts, multicasts, suppressed copies, ``delay()`` on one copy and
  on every copy, every latency family, GST at 0 and mid-stream, losses
  on and off, every topology kind, healing partitions, clock jumps with
  and without a staged window) must give every recipient the same
  per-tick delivery sequence, the same pending calendar per (due, sent,
  recipient), the same :class:`NetworkStats` and the same RNG end state
  (the cross-recipient interleaving is not part of the contract; see
  :func:`assert_identical_streams`);
- **directed cases** for the orders a bucket must reproduce (a deferred
  copy healing into a non-empty bucket, behind its recipient's earlier
  copies; one round fed by two windows; overdue buckets);
- **whole executions** with the engine's network swapped for the
  reference: same decisions, transcripts, stats and RNG end state.
"""

import dataclasses
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

import pytest

from repro.adversaries import DelayAdversary
from repro.errors import SimulationError
from repro.harness import run_instance
from repro.protocols import build_quadratic_ba
from repro.protocols.leader_ba import build_leader_ba
from repro.rng import derive_rng
from repro.sim.conditions import (
    NETWORKS,
    ConditionedNetwork,
    LinkTopology,
    NetworkConditions,
    NetworkStats,
    Partition,
)
from repro.sim.network import Delivery, Envelope, SynchronousNetwork
from tests.test_delivery_differential import drain_staged
from tests.test_event_engine_differential import _snapshot
from tests.test_event_engine_properties import random_conditions


# ---------------------------------------------------------------------------
# The reference: the per-copy heap scheduler, as it stood before.
# ---------------------------------------------------------------------------

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


@dataclass
class _PendingCopy:
    envelope: Envelope
    recipient: int
    sent_round: int
    due_round: int
    delivery: Delivery


class LegacyConditionedNetwork(SynchronousNetwork):
    """One heap entry ``(due_round, seq, recipient, copy)`` per copy; the
    public surface (``delay``, ``advance_to(round, inboxes)``,
    ``has_pending``, ``next_due_round``, ``finish_clock``, ``deliver``)
    matches the real class so the engine can run on it unchanged."""

    def __init__(self, n, conditions, seed=0, retain_transcript=True):
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
        if envelope.envelope_id not in self._staged_ids:
            raise SimulationError(
                "cannot delay a message that is not in flight")
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

    def has_pending(self):
        return bool(self._queue)

    def next_due_round(self):
        return self._queue[0][0] if self._queue else None

    def pending_copies(self):
        return [(copy.due_round, copy.sent_round, copy.recipient,
                 copy.delivery)
                for _, _, _, copy in sorted(self._queue,
                                            key=lambda entry: entry[:2])]

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

    def finish_clock(self, network_rounds):
        tail = network_rounds - self._delivered_round - 1
        if tail > 0:
            self.stats.skipped_ticks += tail
            self.stats.network_rounds = network_rounds
            self._delivered_round = network_rounds - 1

    def deliver(self):
        inboxes = {node: [] for node in range(self.n)}
        self.advance_to(self._delivered_round + 1, inboxes)
        return inboxes


# ---------------------------------------------------------------------------
# Random staging streams, network against network.
# ---------------------------------------------------------------------------

class DeliveryTape:
    """An ``inboxes`` stand-in that logs every delivery as ``(recipient,
    delivery)`` in the order the network hands them over; :meth:`inboxes`
    is the part of that log the contract fixes."""

    def __init__(self):
        self.events = []

    def __getitem__(self, recipient):
        return _TapeSlot(self.events, recipient)

    def inboxes(self):
        """Each recipient's delivery sequence."""
        return per_recipient(self.events)


class _TapeSlot:
    def __init__(self, events, recipient):
        self._events, self._recipient = events, recipient

    def append(self, delivery):
        self._events.append((self._recipient, delivery))

    def extend(self, deliveries):
        for delivery in deliveries:
            self.append(delivery)


def per_recipient(pairs):
    """``(key, item)`` pairs as ``{key: [items in order]}``."""
    grouped = {}
    for key, item in pairs:
        grouped.setdefault(key, []).append(item)
    return grouped


def pending_by_group(pending):
    """A ``pending_copies()`` snapshot keyed by (due, sent, recipient),
    each key's copies in calendar order."""
    return per_recipient(((due, sent, recipient), delivery)
                         for due, sent, recipient, delivery in pending)


def drive_stream(network_class, conditions, n, case, ticks=40):
    """Drive one network through the staging stream ``case`` names and
    return everything observable.  The stream's own generator never reads
    the network, so both implementations see the same operations."""
    rng = random.Random(f"schedule-stream-{case}")
    network = network_class(n, conditions, seed=case)
    per_tick = []
    clock = 0
    while clock < ticks:
        tape = DeliveryTape()
        network.advance_to(clock, tape)
        per_tick.append((clock, tape.inboxes(),
                         pending_by_group(network.pending_copies())))
        for index in range(rng.randint(0, 4)):
            sender = rng.randrange(n)
            recipient = rng.choice((None, None, rng.randrange(n)))
            envelope = network.stage(sender, recipient, f"m{clock}.{index}",
                                     clock, honest_sender=True)
            action = rng.random()
            if action < 0.15:
                network.suppress(envelope, rng.randrange(n))
            elif action < 0.20:
                network.suppress(envelope)
            elif action < 0.35:
                network.delay(envelope, rng.randrange(n),
                              rounds=rng.randint(1, 3))
            elif action < 0.45:
                network.delay(envelope, rounds=rng.randint(1, 3))
                if rng.random() < 0.5:  # cumulative, and on top of one copy
                    network.delay(envelope, rng.randrange(n))
        # Mostly the very next tick; sometimes a jump — also over a staged
        # window, which the engine never does but the contract allows
        # (several overdue buckets then pop in one call).
        clock += 1 if rng.random() < 0.7 else rng.randint(2, 5)
    return (per_tick, dataclasses.asdict(network.stats),
            network._rng.getstate(), network.has_pending(),
            network.next_due_round())


def assert_identical_streams(conditions, n, case):
    """Per tick, every recipient's delivery sequence and every (due,
    sent, recipient) slice of the pending calendar; at the end every
    stats field, the RNG state and the queue head.

    The interleaving *across* recipients within one tick is not
    compared: the calendar files a copy under its recipient, and the
    engine's step buffers, the adversary's ``observe_deliveries`` and
    ``NetworkStats`` all read per recipient, so no observer sees it."""
    new = drive_stream(ConditionedNetwork, conditions, n, case)
    old = drive_stream(LegacyConditionedNetwork, conditions, n, case)
    assert len(new[0]) == len(old[0])
    for (clock, delivered, pending), (_, want, want_pending) in zip(
            new[0], old[0]):
        assert delivered == want, f"tick {clock}: delivery order differs"
        assert pending == want_pending, \
            f"tick {clock}: pending calendar differs"
    assert new[1:] == old[1:]
    return new


@pytest.mark.parametrize("case", range(150))
def test_random_streams_match_the_per_copy_reference(case):
    rng = random.Random(f"schedule-conditions-{case}")
    conditions = random_conditions(rng)
    assert_identical_streams(conditions, rng.randint(3, 9), case)


def _grid():
    """One cell per axis value the random sampler might under-sample."""
    matrix = LinkTopology.from_matrix(
        [[(3 * row + column) % 4 for column in range(5)] for row in range(5)])
    heal = Partition(start=3, end=12, split=0.5)
    late = Partition(start=8, end=20, groups=((0, 1), (2,)))
    for latency in (("fixed", 1), ("fixed", 3), ("uniform", 1, 4),
                    ("uniform", 2, 2), ("uniform", 2, 4),
                    ("geometric", 0.3), ("geometric", 0.02),
                    ("geometric", 1.0)):
        for gst in (0, 13):
            for drop, duplicate in ((0.0, 0.0), (0.2, 0.0), (0.0, 0.3),
                                    (0.2, 0.3)):
                if (drop or duplicate) and not gst:
                    continue
                yield NetworkConditions(
                    delta=4, gst=gst, latency=latency, drop_rate=drop,
                    duplicate_rate=duplicate)
        yield NetworkConditions(delta=4, latency=latency, topology=matrix)
        yield NetworkConditions(delta=4, gst=13, latency=latency,
                                drop_rate=0.1, duplicate_rate=0.1,
                                partitions=(heal, late), pre_gst_cap=9,
                                topology=LinkTopology.ring(extra=1))
    yield from (conditions for conditions in NETWORKS.values()
                if not conditions.is_perfect)


GRID = list(_grid())


@pytest.mark.parametrize("index", range(len(GRID)))
def test_grid_streams_match_the_per_copy_reference(index):
    new = assert_identical_streams(GRID[index], 5, 1000 + index)
    assert new[1]["delivered_copies"] > 0


# ---------------------------------------------------------------------------
# Directed bucket-order cases.
# ---------------------------------------------------------------------------

def _payloads(tape):
    return [delivery.payload for _, delivery in tape.events]


@pytest.mark.parametrize("network_class",
                         [ConditionedNetwork, LegacyConditionedNetwork])
def test_deferred_copy_heals_into_a_non_empty_bucket(network_class):
    """Heal round 6 already holds a copy scheduled *for* round 6 when a
    blocked copy is re-queued there, and gets another one afterwards:
    delivery order is scheduling order — early, healed, late."""
    conditions = NetworkConditions(
        delta=6, latency=("fixed", 2),
        partitions=(Partition(start=1, end=6, groups=((0, 1), (2, 3))),))
    network = network_class(4, conditions, seed=0)
    tape = DeliveryTape()
    network.advance_to(0, tape)
    early = network.stage(0, 1, "early", 0, honest_sender=True)
    network.delay(early, rounds=4)                           # due 6
    network.stage(0, 2, "crossing", 0, honest_sender=True)   # due 2: blocked
    network.advance_to(1, tape)
    network.advance_to(2, tape)                              # defers to 6
    assert not tape.events and network.stats.deferred_copies == 1
    late = network.stage(3, 2, "late", 2, honest_sender=True)
    network.delay(late, 2, rounds=2)                         # due 6
    network.advance_to(3, tape)
    assert [(copy[0], copy[3].payload)
            for copy in network.pending_copies()] == [
        (6, "early"), (6, "crossing"), (6, "late")]
    network.advance_to(6, tape)
    assert _payloads(tape) == ["early", "crossing", "late"]
    assert network.stats.events_processed == 4
    assert network.stats.adversary_delayed_copies == 2
    assert network.stats.latency_total == 6 + 6 + 4
    assert not network.has_pending()


@pytest.mark.parametrize("network_class",
                         [ConditionedNetwork, LegacyConditionedNetwork])
def test_two_windows_feed_one_round_in_window_order(network_class):
    """Round 3 is fed by the window of round 0 (delay 3) and the window
    of round 2 (delay 1), each with a copy for two recipients: every
    recipient gets its copies in window order."""
    conditions = NetworkConditions(delta=4, latency=("fixed", 1))
    network = network_class(4, conditions, seed=0)
    inboxes = {node: [] for node in range(4)}
    network.advance_to(0, inboxes)
    for recipient in (2, 1):
        early = network.stage(0, recipient, f"early-{recipient}", 0,
                              honest_sender=True)
        network.delay(early, rounds=2)                       # due 3
    network.advance_to(1, inboxes)
    network.advance_to(2, inboxes)
    for recipient in (1, 2):
        network.stage(3, recipient, f"late-{recipient}", 2,
                      honest_sender=True)                    # due 3
    network.advance_to(3, inboxes)
    assert {node: [delivery.payload for delivery in inbox]
            for node, inbox in inboxes.items() if inbox} == {
        1: ["early-1", "late-1"], 2: ["early-2", "late-2"]}
    assert network.stats.latency_total == 3 + 3 + 1 + 1
    assert network.stats.delivered_copies == 4
    assert not network.has_pending()


@pytest.mark.parametrize("network_class",
                         [ConditionedNetwork, LegacyConditionedNetwork])
def test_requeue_lands_behind_its_recipients_earlier_copies(network_class):
    """Recipient 2 already has a copy due at heal round 6 (and another
    recipient one too) when a blocked copy for 2 is re-queued there: 2
    receives the earlier copy first, then the re-queued one."""
    conditions = NetworkConditions(
        delta=6, latency=("fixed", 2),
        partitions=(Partition(start=1, end=6, groups=((0, 1), (2, 3))),))
    network = network_class(4, conditions, seed=0)
    inboxes = {node: [] for node in range(4)}
    network.advance_to(0, inboxes)
    for sender, recipient in ((3, 2), (0, 1)):
        waiting = network.stage(sender, recipient, f"waiting-{recipient}",
                                0, honest_sender=True)
        network.delay(waiting, rounds=4)                     # due 6
    network.stage(1, 2, "crossing", 0, honest_sender=True)   # due 2: blocked
    for clock in range(1, 6):
        network.advance_to(clock, inboxes)
    assert network.stats.deferred_copies == 1
    assert not any(inboxes.values())
    network.advance_to(6, inboxes)
    assert [delivery.payload for delivery in inboxes[2]] == [
        "waiting-2", "crossing"]
    assert [delivery.payload for delivery in inboxes[1]] == ["waiting-1"]
    assert network.stats.latency_total == 6 * 3
    assert not network.has_pending()


@pytest.mark.parametrize("network_class",
                         [ConditionedNetwork, LegacyConditionedNetwork])
def test_overdue_buckets_pop_in_due_order(network_class):
    """A clock jump past several due rounds delivers bucket by bucket
    (due order first, scheduling order inside a bucket)."""
    conditions = NetworkConditions(delta=4, latency=("fixed", 1))
    network = network_class(3, conditions, seed=0)
    tape = DeliveryTape()
    network.advance_to(0, tape)
    slow = network.stage(0, 1, "slow", 0, honest_sender=True)
    network.delay(slow, rounds=2)                            # due 3
    network.stage(0, 2, "fast", 0, honest_sender=True)       # due 1
    network.advance_to(1, tape)
    network.stage(1, 2, "next", 1, honest_sender=True)       # due 2
    network.advance_to(9, tape)
    assert _payloads(tape) == ["fast", "next", "slow"]
    assert network.stats.max_in_flight == 2
    assert network.stats.latency_total == 1 + 8 + 9


# ---------------------------------------------------------------------------
# Whole executions on the reference network.
# ---------------------------------------------------------------------------

def _execution(monkeypatch, network_class, build, conditions, adversary):
    networks = []

    def recording(*args, **kwargs):
        networks.append(network_class(*args, **kwargs))
        return networks[-1]

    monkeypatch.setattr("repro.sim.engine.ConditionedNetwork", recording)
    instance, f = build()
    result = run_instance(instance, f, adversary, seed=5,
                          conditions=conditions)
    return {**_snapshot(result), "rng": networks[0]._rng.getstate()}


def _quadratic():
    return build_quadratic_ba(9, 4, [i % 2 for i in range(9)], seed=5), 4


def _leader(network):
    def build():
        return build_leader_ba(10, 3, [i % 2 for i in range(10)], seed=5,
                               conditions=NETWORKS[network]), 3
    return build


EXECUTIONS = [
    ("quadratic-wan-delayed", _quadratic, "wan",
     lambda: DelayAdversary(fraction=0.5, seed=5)),
    ("quadratic-lossy", _quadratic, "lossy", lambda: None),
    ("quadratic-split-heal", _quadratic, "split-heal",
     lambda: DelayAdversary(fraction=1.0, seed=5)),
    ("leader-lossy", _leader("lossy"), "lossy", lambda: None),
    ("leader-split-heal", _leader("split-heal"), "split-heal", lambda: None),
]


@pytest.mark.parametrize("name,build,network,adversary", EXECUTIONS,
                         ids=[case[0] for case in EXECUTIONS])
def test_executions_match_on_the_reference_network(
        monkeypatch, name, build, network, adversary):
    new = _execution(monkeypatch, ConditionedNetwork, build,
                     NETWORKS[network], adversary())
    old = _execution(monkeypatch, LegacyConditionedNetwork, build,
                     NETWORKS[network], adversary())
    assert new == old
    assert new["network_stats"]["delivered_copies"] > 0
