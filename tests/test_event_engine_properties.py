"""Property-based event-scheduler suite (seeded generators, no new deps).

Two layers of randomized evidence for the event engine:

- **Scheduler-order invariants**, checked by driving a
  :class:`~repro.sim.conditions.ConditionedNetwork` directly with the
  event engine's own access pattern (jump to the earlier of the next
  step frontier and the next due timestamp): no copy is ever delivered
  before its timestamp, post-GST deliveries respect the Δ clamp, no
  copy ever crosses an active partition, and deferred copies heal in
  their original queue order.
- **Agreement/validity at the engine level**: across 200 sampled
  ``NetworkConditions`` × ``LinkTopology`` × ``DelayAdversary``
  configurations, event-engine executions keep the lock-step protocols'
  agreement, validity, and termination guarantees — the synchronizer
  argument, now carried by the skipping scheduler.  The agreement
  sampler stays inside the Δ-bounded lossless regime (``gst=0``, no
  partitions): outside it the *model* gives no guarantee — an unhealed
  split can outlive a small execution identically on both loops — so
  partitions and pre-GST losses are exercised by the order invariants
  above and by the differential suite, where the claim is identity, not
  agreement.

Configurations are drawn from seeded ``random.Random`` generators so
every failure reproduces from its case number alone (the idiom of
``tests/test_network_properties.py``).
"""

import random

import pytest

from repro.adversaries import DelayAdversary
from repro.errors import SimulationError
from repro.harness import run_instance
from repro.protocols import build_quadratic_ba
from repro.sim.conditions import (
    ConditionedNetwork,
    LinkTopology,
    NetworkConditions,
    Partition,
    PendingCopy,
)

#: 200 sampled engine-level configurations (the satellite's floor),
#: split into chunks so one failing sample names a small replay set.
AGREEMENT_CASES = 200
CHUNK = 10

SCHEDULER_CASES = range(60)


def random_conditions(rng: random.Random,
                      delta_bounded: bool = False) -> NetworkConditions:
    """One random network environment over the full conditions surface:
    Δ, GST with pre-GST losses, every latency family, every n-independent
    topology kind, and (sometimes) a healing partition.

    ``delta_bounded=True`` restricts to the regime the synchronizer
    argument guarantees correctness in — ``gst=0``, no losses, no
    partitions — leaving Δ, latency, topology, and adversarial delaying
    as the random axes."""
    delta = rng.randint(1, 6)
    kind = rng.choice(("fixed", "uniform", "geometric"))
    if kind == "fixed":
        latency = ("fixed", rng.randint(1, delta))
    elif kind == "uniform":
        lo = rng.randint(1, delta)
        latency = ("uniform", lo, rng.randint(lo, delta))
    else:
        latency = ("geometric", rng.choice((0.3, 0.5, 0.8)))
    gst = 0 if delta_bounded else rng.choice(
        (0, 0, rng.randint(1, 2 * delta)))
    drop_rate = rng.choice((0.0, 0.1, 0.25)) if gst else 0.0
    duplicate_rate = rng.choice((0.0, 0.1)) if gst else 0.0
    topology = None
    if delta > 1:
        topology = rng.choice((
            None,
            LinkTopology.clustered(clusters=rng.choice((2, 4)),
                                   extra=rng.randint(1, delta)),
            LinkTopology.star(hub=0, extra=rng.randint(1, delta)),
            LinkTopology.ring(extra=1),
        ))
    partitions = ()
    if not delta_bounded and rng.random() < 0.3:
        start = rng.randint(0, 4)
        partitions = (Partition(start=start,
                                end=start + rng.randint(2, 6),
                                split=rng.choice((0.3, 0.5, 0.7))),)
    return NetworkConditions(
        delta=delta, gst=gst, latency=latency, drop_rate=drop_rate,
        duplicate_rate=duplicate_rate, partitions=partitions,
        topology=topology)


# ---------------------------------------------------------------------------
# Scheduler-order invariants (unit level, event-engine access pattern)
# ---------------------------------------------------------------------------

def blocking_partition(conditions, copy, round_index, n):
    """The partition (first in declaration order) that holds ``copy``
    back at ``round_index``, if any."""
    for partition in conditions.partitions:
        if partition.active_at(round_index) and partition.separates(
                copy.delivery.sender, copy.recipient, n):
            return partition
    return None


def drive_event_pattern(network: ConditionedNetwork, rng: random.Random,
                        steps: int = 8):
    """Replicate the event engine's clock walk over a conditioned
    network, staging a random message batch at every step frontier.
    Returns ``(delivered_round, copy)`` records in delivery order, each
    ``copy`` a :class:`~repro.sim.conditions.PendingCopy`.

    The network only hands back per-recipient lists, so the walk reads
    the public :meth:`~ConditionedNetwork.pending_copies` snapshot around
    every tick and checks the tick against it: what was already in the
    calendar and due is delivered first, in calendar order, unless an
    active partition moves it to its heal round; whatever else arrives
    was scheduled by this very tick from the window staged before it."""
    conditions = network.conditions
    delta = conditions.delta
    limit = steps * delta
    n = network.n
    records = []
    staged = set()
    previous = network_round = 0
    while network_round < limit:
        before = network.pending_copies()
        inboxes = {node: [] for node in range(n)}
        network.advance_to(network_round, inboxes)
        after = network.pending_copies()
        # The skip-ahead walk never overshoots a timestamp, and no due
        # copy outlives its tick except through a partition.
        assert all(copy.due_round >= network_round for copy in before)
        assert all(copy.due_round > network_round for copy in after)
        released = []
        for copy in before:
            if copy.due_round > network_round:
                continue
            partition = blocking_partition(conditions, copy, network_round, n)
            if partition is None:
                released.append(copy)
            else:
                assert copy._replace(due_round=partition.end) in after
        for node in range(n):
            mine = [copy for copy in released if copy.recipient == node]
            assert inboxes[node][:len(mine)] == [
                copy.delivery for copy in mine]
            records.extend((network_round, copy) for copy in mine)
            for delivery in inboxes[node][len(mine):]:
                assert delivery.payload in staged
                records.append((network_round, PendingCopy(
                    network_round, previous, node, delivery)))
        staged = set()
        if network_round % delta == 0:
            for index in range(rng.randint(0, 3)):
                sender = rng.randrange(n)
                recipient = rng.choice((None, rng.randrange(n)))
                staged.add(f"m{network_round}.{index}")
                network.stage(sender, recipient,
                              f"m{network_round}.{index}", network_round,
                              honest_sender=True)
        previous = network_round
        if network.has_staged():
            network_round += 1
            continue
        upcoming = network_round - network_round % delta + delta
        due_next = network.next_due_round()
        if due_next is not None and due_next < upcoming:
            upcoming = due_next
        network_round = upcoming
    return records


class TestSchedulerOrderInvariants:
    @pytest.mark.parametrize("case", SCHEDULER_CASES)
    def test_event_walk_respects_timestamps_and_clamps(self, case):
        rng = random.Random(f"scheduler-order-{case}")
        conditions = random_conditions(rng)
        n = rng.randint(4, 8)
        network = ConditionedNetwork(n, conditions, seed=case)
        records = drive_event_pattern(network, rng)

        for delivered_round, copy in records:
            # Never before its timestamp — and the skip-ahead walk wakes
            # exactly at due timestamps, so never after it either.
            assert delivered_round == copy.due_round
            assert copy.due_round > copy.sent_round
            # Post-GST the Δ clamp binds every non-deferred copy.
            if not conditions.partitions \
                    and copy.sent_round >= conditions.gst:
                assert delivered_round - copy.sent_round <= conditions.delta
            # No copy ever crosses an active partition.
            assert blocking_partition(
                conditions, copy, delivered_round, n) is None

    @pytest.mark.parametrize("case", SCHEDULER_CASES)
    def test_stats_accounting_is_conserved(self, case):
        """Every scheduled copy is accounted exactly once: delivered,
        dropped pre-GST, or still queued at the horizon — and the queue
        events cover deliveries, duplicates, and deferrals."""
        rng = random.Random(f"scheduler-stats-{case}")
        conditions = random_conditions(rng)
        n = rng.randint(4, 8)
        network = ConditionedNetwork(n, conditions, seed=case)
        records = drive_event_pattern(network, rng)
        stats = network.stats
        assert stats.delivered_copies == len(records)
        assert stats.latency_total == sum(
            delivered_round - copy.sent_round
            for delivered_round, copy in records)
        assert stats.events_processed == (
            stats.delivered_copies + stats.deferred_copies
            + len(network.pending_copies()))
        assert stats.skipped_ticks + stats.delivered_copies > 0
        assert stats.skipped_ticks < stats.network_rounds

    def test_deferred_copies_heal_in_original_order(self):
        """Copies queued up against a partition flood in at the heal
        round in exactly the order they originally came due."""
        partition = Partition(start=0, end=9, split=0.5)
        conditions = NetworkConditions(
            delta=1, latency=("fixed", 1), partitions=(partition,))
        network = ConditionedNetwork(4, conditions, seed=0)
        # One cross-partition copy per round for rounds 0..3; each comes
        # due (and defers) one round later, in staging order.
        inboxes = {node: [] for node in range(4)}
        for index in range(4):
            network.advance_to(index, inboxes)
            network.stage(0, 3, f"cross-{index}", index, honest_sender=True)
        for round_index in range(4, 9):
            network.advance_to(round_index, inboxes)
        assert not any(inboxes.values())
        network.advance_to(9, inboxes)
        assert [delivery.payload for delivery in inboxes.pop(3)] == [
            "cross-0", "cross-1", "cross-2", "cross-3"]
        assert not any(inboxes.values())
        assert network.stats.deferred_copies == 4

    def test_clock_cannot_move_backwards(self):
        network = ConditionedNetwork(
            3, NetworkConditions(delta=2, latency=("fixed", 1)), seed=0)
        network.advance_to(5, {})
        with pytest.raises(SimulationError, match="backwards"):
            network.advance_to(5, {})

    def test_next_due_round_tracks_the_queue_head(self):
        conditions = NetworkConditions(delta=4, latency=("fixed", 3))
        network = ConditionedNetwork(3, conditions, seed=0)
        assert network.next_due_round() is None
        network.stage(0, 1, "m", 0, honest_sender=True)
        inbox = []
        network.advance_to(0, {1: inbox})  # drains the window: due at 3
        assert network.next_due_round() == 3 and not inbox
        network.advance_to(3, {1: inbox})
        assert [delivery.payload for delivery in inbox] == ["m"]
        assert network.next_due_round() is None


# ---------------------------------------------------------------------------
# Agreement/validity across sampled configurations (engine level)
# ---------------------------------------------------------------------------

def random_inputs(rng: random.Random, n: int):
    if rng.random() < 0.5:
        bit = rng.randint(0, 1)
        return [bit] * n, bit
    return [rng.randint(0, 1) for _ in range(n)], None


class TestAgreementAcrossSampledConfigurations:
    @pytest.mark.parametrize("chunk", range(AGREEMENT_CASES // CHUNK))
    def test_event_engine_keeps_the_guarantees(self, chunk):
        for case in range(chunk * CHUNK, (chunk + 1) * CHUNK):
            rng = random.Random(f"event-agreement-{case}")
            conditions = random_conditions(rng, delta_bounded=True)
            n = rng.randint(6, 10)
            f = rng.randint(0, (n - 1) // 2)
            inputs, expected = random_inputs(rng, n)
            seed = rng.randint(0, 2**16)
            adversary = None
            if rng.random() < 0.4:
                adversary = DelayAdversary(
                    fraction=rng.choice((0.5, 1.0)), seed=seed)
            instance = build_quadratic_ba(n, f, inputs, seed=seed)
            result = run_instance(instance, f, adversary, seed=seed,
                                  conditions=conditions)
            context = f"case {case}: {conditions.describe()}"
            assert result.consistent(), f"agreement broken ({context})"
            assert result.agreement_valid(), f"validity broken ({context})"
            assert result.all_decided(), f"termination broken ({context})"
            if expected is not None:
                assert set(result.honest_outputs) == {expected}, context
