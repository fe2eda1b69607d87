"""Differential identity: calendar-queue scheduler vs. the per-copy heap.

``ConditionedNetwork`` schedules a staging window with one hoisted loop
into a calendar queue (a bucket per due round, holding one group of
per-recipient lists per window that fed it).  The implementation it
replaced — one ``_schedule_copy`` → ``_copy_delay`` → ``draw_latency`` →
``randint`` call chain, one ``_PendingCopy`` and one heap entry *per
copy* — is the reference executor's ``LegacyConditionedNetwork``
(``tests/reference.py``), driven here side by side with the real one:

- **random staging streams** straight against the two networks
  (unicasts, multicasts, suppressed copies, ``delay()`` on one copy and
  on every copy, every latency family, GST at 0 and mid-stream, losses
  on and off, every topology kind, healing partitions, clock jumps with
  and without a staged window) must give every recipient the same
  per-tick delivery sequence, the same pending calendar per (due, sent,
  recipient), the same :class:`NetworkStats` and the same RNG end state
  (the cross-recipient interleaving is not part of the contract; see
  :func:`assert_identical_streams`);
- **the two clocks**: ``ConditionedNetwork.steps``, which jumps idle
  ticks, against the reference's tick-every-round ``steps`` under the
  same staging between steps, whole budget or stopped early: same
  inboxes per step, stats (idle tail included), RNG state and queue
  head;
- **directed cases** for the orders a bucket must reproduce (a deferred
  copy healing into a non-empty bucket, behind its recipient's earlier
  copies; one round fed by two windows; overdue buckets);
- **whole executions** with the engine's network swapped for the
  reference: same decisions, transcripts, stats and RNG end state.  The
  reference files every copy, so the leader-family cases also hold the
  real network's inert copies (a QC-less NewView to an honest node other
  than its view's leader: counted, never filed) to the delivering
  schedule, and every corrupt node's inbox to the one it had before.
"""

import dataclasses
import random

import pytest

from repro.adversaries import (
    DelayAdversary,
    LeaderKillerAdversary,
    ViewSplitAdversary,
)
from repro.harness import run_instance
from repro.protocols import build_quadratic_ba
from repro.protocols.leader_ba import (
    LeaderBaNode,
    LeaderDecideMsg,
    NewViewMsg,
    build_leader_ba,
    build_leader_chain,
)
from repro.sim.conditions import (
    NETWORKS,
    ConditionedNetwork,
    LinkTopology,
    NetworkConditions,
    Partition,
)
from repro.sim.adversary import Adversary, PassiveAdversary
from tests.conftest import random_conditions
from tests.reference import (
    LegacyConditionedNetwork,
    observe,
    pending_copies,
)


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
    """A :func:`~tests.reference.pending_copies` snapshot keyed by (due, sent, recipient),
    each key's copies in calendar order."""
    return per_recipient(((due, sent, recipient), delivery)
                         for due, sent, recipient, delivery in pending)


class Readers:
    """A stream's audience side: the readers row of payload
    ``m{clock}.{index}`` (none for every third index, one reader's
    shared row, or a fresh row of several), the live corrupt set the
    stream grows, that set as each clock's window drains, and the
    payloads with a suppressed copy."""

    def __init__(self, n):
        self.n = n
        self.rows = {}
        self.corrupt = set()
        self.corrupt_at = {}
        self.suppressed = set()

    def audience(self, payload):
        clock, index = map(int, payload[1:].split("."))
        everyone = range(self.n)
        if index % 3 == 0:
            return None
        if index % 3 == 1:  # one reader: the same row object each time
            reader = (clock + index) % self.n
            return self.rows.setdefault(
                reader, [node == reader for node in everyone])
        return [(clock + index + node) % 3 == 0 for node in everyone]

    def filed(self, conditions, recipient, delivery):
        """Whether the network files this copy (else it is inert)."""
        payload = delivery.payload
        readers = self.audience(payload)
        if (conditions.partitions or readers is None
                or payload in self.suppressed):
            return True
        clock = int(payload[1:].split(".")[0])
        return readers[recipient] or recipient in self.corrupt_at[clock]


def drive_stream(network_class, conditions, n, case, ticks=40, readers=None):
    """Drive one network through the staging stream ``case`` names and
    return everything observable.  The stream's own generator never reads
    the network, so both implementations see the same operations.  With
    ``readers`` the network gets their audience and corrupt set, which
    the stream grows between windows."""
    rng = random.Random(f"schedule-stream-{case}")
    network = network_class(n, conditions, seed=case, **(
        {} if readers is None
        else {"audience": readers.audience, "corrupt": readers.corrupt}))
    per_tick = []
    clock = 0
    while clock < ticks:
        tape = DeliveryTape()
        network.advance_to(clock, tape)
        per_tick.append((clock, tape.inboxes(),
                         pending_by_group(pending_copies(network))))
        if readers is not None:
            if rng.random() < 0.2:
                readers.corrupt.add(rng.randrange(n))
            readers.corrupt_at[clock] = frozenset(readers.corrupt)
        for index in range(rng.randint(0, 4)):
            sender = rng.randrange(n)
            recipient = rng.choice((None, None, rng.randrange(n)))
            envelope = network.stage(sender, recipient, f"m{clock}.{index}",
                                     clock, honest_sender=True)
            action = rng.random()
            if action < 0.15:
                network.suppress(envelope, rng.randrange(n))
                if readers is not None:
                    readers.suppressed.add(envelope.payload)
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
            network._rng.getstate(), network.next_due_round())


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
    # A lossless window draws its latencies in one batch when spread and
    # cap fit a byte: one cell on each side of that bound, a cap past it
    # (the per-copy loop), and a spread whose hi lies above Δ.
    for delta in (255, 256):
        yield NetworkConditions.uniform(delta)
        yield NetworkConditions.uniform(delta, gst=13, pre_gst_cap=delta)
    yield NetworkConditions(delta=300, latency=("uniform", 1, 4))
    yield NetworkConditions(delta=300, latency=("uniform", 1, 4),
                            topology=matrix)
    yield NetworkConditions(delta=64, latency=("uniform", 3, 130))
    yield NetworkConditions(delta=64, gst=13, latency=("uniform", 3, 130),
                            topology=LinkTopology.ring(extra=40))
    # Losses, duplicates and link surcharges with no partitions: the
    # per-copy source re-indexes surcharges, pushes and inert flags in one
    # window.
    yield NetworkConditions(delta=4, gst=13, latency=("uniform", 1, 4),
                            drop_rate=0.2, duplicate_rate=0.3,
                            topology=matrix)


GRID = list(_grid())


@pytest.mark.parametrize("index", range(len(GRID)))
def test_grid_streams_match_the_per_copy_reference(index):
    new = assert_identical_streams(GRID[index], 5, 1000 + index)
    assert new[1]["delivered_copies"] > 0


@pytest.mark.parametrize("conditions", [
    NETWORKS["wan"], NETWORKS["lossy"],
    NetworkConditions.uniform(4, topology=LinkTopology.clustered())],
    ids=["wan", "lossy", "wan-clustered"])
def test_wide_streams_match_the_per_copy_reference(conditions):
    """At n = 64 one multicast's 63 draws take several rejection
    rounds of a batch."""
    new = assert_identical_streams(conditions, 64, 7)
    assert new[1]["delivered_copies"] > 0


@pytest.mark.parametrize("index", range(len(GRID)))
def test_inert_copies_are_counted_not_filed(index):
    """With an audience, a copy to a node that is neither its payload's
    reader nor corrupt when its window drains is counted, not filed: per
    tick each recipient's deliveries and pending calendar are the
    reference's minus those copies, and the stats, RNG end state and
    queue head are the reference's, inert copies included."""
    conditions, n, case = GRID[index], 5, 2000 + index
    readers = Readers(n)
    new = drive_stream(ConditionedNetwork, conditions, n, case,
                       readers=readers)
    old = drive_stream(LegacyConditionedNetwork, conditions, n, case,
                       readers=Readers(n))

    def filed(pairs):
        kept = {}
        for key, copies in pairs.items():
            recipient = key if isinstance(key, int) else key[2]
            copies = [copy for copy in copies
                      if readers.filed(conditions, recipient, copy)]
            if copies:
                kept[key] = copies
        return kept

    def copies(pairs):
        return sum(map(len, pairs.values()))

    inert = 0
    for (clock, delivered, pending), (_, want, want_pending) in zip(
            new[0], old[0]):
        assert delivered == filed(want), f"tick {clock}: deliveries differ"
        assert pending == filed(want_pending), \
            f"tick {clock}: pending calendar differs"
        inert += copies(want) - copies(delivered)
    assert new[1:] == old[1:]
    inert += copies(want_pending) - copies(pending)  # still in flight
    assert inert > 0 or conditions.partitions


# ---------------------------------------------------------------------------
# The clocks: the event clock's jumps against the Δ-lockstep clock.
# ---------------------------------------------------------------------------

CLOCK_STEPS = 10


def drive_steps(network_class, conditions, n, case, stop):
    """Walk ``network.steps(CLOCK_STEPS)``, staging the batch ``case``
    names after every step (where the engine's nodes and adversary
    stage), and stop consuming after step ``stop`` (``None``: take every
    step).  Returns each step's ``(round, inboxes)``, then the stats, the
    RNG state and the queue head."""
    rng = random.Random(f"clock-stream-{case}")
    network = network_class(n, conditions, seed=case)
    yielded = []
    for round_index, inboxes in network.steps(CLOCK_STEPS):
        yielded.append((round_index, inboxes))
        if round_index == stop:
            break
        for index in range(rng.randint(0, 4)):
            recipient = rng.choice((None, rng.randrange(n)))
            envelope = network.stage(rng.randrange(n), recipient,
                                     f"m{round_index}.{index}", round_index,
                                     honest_sender=True)
            if rng.random() < 0.2:
                network.delay(envelope, rounds=rng.randint(1, 3))
    return (yielded, dataclasses.asdict(network.stats),
            network._rng.getstate(), network.next_due_round())


@pytest.mark.parametrize("case", range(40))
def test_event_clock_matches_the_lockstep_clock(case):
    """``ConditionedNetwork.steps`` visits only ticks with work; the
    reference's ``LegacyConditionedNetwork.steps`` ticks every network
    round.  Each step must get the same inboxes, and both must end with
    the same stats, RNG state and queue head: the jumped ticks count as
    ``skipped_ticks``, and so does the idle tail when the consumer takes
    the whole budget, but not when it stops early (the engine's halt)."""
    rng = random.Random(f"clock-conditions-{case}")
    conditions = random_conditions(rng)
    n = rng.randint(3, 8)
    stop = rng.choice((None, rng.randrange(CLOCK_STEPS)))
    new = drive_steps(ConditionedNetwork, conditions, n, case, stop)
    assert new == drive_steps(
        LegacyConditionedNetwork, conditions, n, case, stop)
    rounds = [round_index for round_index, _ in new[0]]
    last = CLOCK_STEPS - 1 if stop is None else stop
    assert rounds == list(range(last + 1))
    delta = conditions.delta
    assert new[1]["network_rounds"] == (
        CLOCK_STEPS * delta if stop is None else stop * delta + 1)


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
            for copy in pending_copies(network)] == [
        (6, "early"), (6, "crossing"), (6, "late")]
    network.advance_to(6, tape)
    assert _payloads(tape) == ["early", "crossing", "late"]
    assert network.stats.events_processed == 4
    assert network.stats.adversary_delayed_copies == 2
    assert network.stats.latency_total == 6 + 6 + 4
    assert network.next_due_round() is None


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
    assert network.next_due_round() is None


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
    assert network.next_due_round() is None


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

class CorruptInboxes(Adversary):
    """``inner`` with every hook passed through, logging each inbox of a
    node corrupt when ``observe_deliveries`` is called, as it receives it."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.log = []

    def bind(self, api):
        self.api = api
        self.inner.bind(api)

    def observe_deliveries(self, round_index, inboxes):
        api = self.api
        self.log.append((round_index, {
            node: list(inboxes[node])
            for node in range(api.n) if api.is_corrupt(node)}))
        self.inner.observe_deliveries(round_index, inboxes)

    def react(self, round_index, staged):
        self.inner.react(round_index, staged)


def _execution(monkeypatch, network_class, build, conditions, adversary,
               **kwargs):
    """One execution on ``network_class`` (``kwargs`` to
    ``run_instance``); ``adversary(instance)`` is wrapped in
    :class:`CorruptInboxes`, whose log is returned too."""
    networks = []

    def recording(*args, **kwargs):
        networks.append(network_class(*args, **kwargs))
        return networks[-1]

    monkeypatch.setattr("repro.sim.engine.ConditionedNetwork", recording)
    instance, f = build()
    observer = CorruptInboxes(adversary(instance))
    result = run_instance(instance, f, observer, seed=5,
                          conditions=conditions, **kwargs)
    return ({**observe(result), "rng": networks[0]._rng.getstate()},
            observer.log)


def _quadratic():
    return build_quadratic_ba(9, 4, [i % 2 for i in range(9)], seed=5), 4


def _leader(network):
    def build():
        return build_leader_ba(10, 3, [i % 2 for i in range(10)], seed=5,
                               conditions=NETWORKS[network]), 3
    return build


def _chain(n=7, conditions=NETWORKS["wan"]):
    def build():
        f = (n - 1) // 3
        return build_leader_chain(n, f, [i % 2 for i in range(n)], seed=5,
                                  conditions=conditions), f
    return build


def _passive(instance):
    return PassiveAdversary()


EXECUTIONS = [
    ("quadratic-wan-delayed", _quadratic, "wan",
     lambda instance: DelayAdversary(fraction=0.5, seed=5)),
    ("quadratic-lossy", _quadratic, "lossy", _passive),
    ("quadratic-split-heal", _quadratic, "split-heal",
     lambda instance: DelayAdversary(fraction=1.0, seed=5)),
    ("leader-lossy", _leader("lossy"), "lossy", _passive),
    ("leader-split-heal", _leader("split-heal"), "split-heal", _passive),
    ("leader-killer-wan", _leader("wan"), "wan", LeaderKillerAdversary),
    ("view-split-wan", _leader("wan"), "wan", ViewSplitAdversary),
    ("leader-chain-wan", _chain(), "wan", _passive),
]


@pytest.mark.parametrize("name,build,network,adversary", EXECUTIONS,
                         ids=[case[0] for case in EXECUTIONS])
def test_executions_match_on_the_reference_network(
        monkeypatch, name, build, network, adversary):
    new, _ = _execution(monkeypatch, ConditionedNetwork, build,
                        NETWORKS[network], adversary)
    old, _ = _execution(monkeypatch, LegacyConditionedNetwork, build,
                        NETWORKS[network], adversary)
    assert new == old
    assert new["network_stats"]["delivered_copies"] > 0


@pytest.mark.parametrize("name", ["leader-killer-wan", "view-split-wan"])
def test_corrupt_inboxes_match_on_the_reference_network(monkeypatch, name):
    """An adversary reads a corrupt node's inbox (sandboxes, ``Deaf``
    filters), so the real network files a copy to a node corrupt at
    window time whatever its payload's audience: each such inbox, per
    round, is the one the every-copy reference delivers — QC-less
    NewViews of other leaders' views included."""
    _, build, network, adversary = next(
        case for case in EXECUTIONS if case[0] == name)
    _, new = _execution(monkeypatch, ConditionedNetwork, build,
                        NETWORKS[network], adversary)
    _, old = _execution(monkeypatch, LegacyConditionedNetwork, build,
                        NETWORKS[network], adversary)
    def text(log):
        return [(round_index, {
            node: [(delivery.sender, repr(delivery.payload))
                   for delivery in inbox]
            for node, inbox in inboxes.items()})
            for round_index, inboxes in log]

    assert text(new) == text(old)
    # Not vacuous: some corrupt inbox holds a copy outside its audience.
    leader = build()[0].config.proposer.oracle.leader
    assert any(
        isinstance(delivery.payload, NewViewMsg)
        and delivery.payload.qc is None
        and leader(delivery.payload.view) != node
        for _, inboxes in new for node, inbox in inboxes.items()
        for delivery in inbox)


# ---------------------------------------------------------------------------
# The readers rule: a copy no node can act on is counted, not filed.
# ---------------------------------------------------------------------------

def _handed_decides(monkeypatch, network_class, adversary=_passive, n=7,
                    conditions=NETWORKS["wan"]):
    """leader-chain at ``n`` over ``network_class``: for each Decide an
    honest node is handed, whether it had settled that height; the
    execution; and the corrupt inboxes' log."""
    handed = []
    step = LeaderBaNode.on_round

    def recording(self, ctx):
        for delivery in ctx.inbox or ():
            payload = delivery.payload
            if isinstance(payload, LeaderDecideMsg):
                handed.append(self.config.height_of_view(payload.view)
                              in self.height_decisions)
        step(self, ctx)

    monkeypatch.setattr(LeaderBaNode, "on_round", recording)
    execution, log = _execution(monkeypatch, network_class,
                                _chain(n, conditions), conditions, adversary)
    monkeypatch.setattr(LeaderBaNode, "on_round", step)
    return handed, execution, log


def test_a_settled_node_is_never_handed_its_heights_decide(monkeypatch):
    """A Decide is read only by nodes that have not settled its height:
    no honest node that settled height h is handed a height-h Decide,
    where the every-copy reference network hands settled nodes some."""
    handed, _, _ = _handed_decides(monkeypatch, ConditionedNetwork)
    assert not any(handed)
    reference, _, _ = _handed_decides(monkeypatch, LegacyConditionedNetwork)
    assert any(reference)


class CorruptOnceSettled(Adversary):
    """Corrupts node 0 in the rushing step of the round it stages its
    first Decide, so it has settled that height and is corrupt when the
    window drains."""

    def react(self, round_index, staged):
        if not self.api.is_corrupt(0) and any(
                envelope.sender == 0
                and isinstance(envelope.payload, LeaderDecideMsg)
                for envelope in staged):
            self.api.corrupt(0)


def test_a_corrupt_recipient_is_still_handed_a_settled_heights_decide(
        monkeypatch):
    """An adversary may read any corrupt inbox, so a node corrupt when a
    window drains is handed every copy, also a Decide of a height its
    state had settled: its inbox per round is the reference's.  Fails
    under the mutant that drops ``node in corrupt`` from the filed row."""
    adversary = lambda instance: CorruptOnceSettled()  # noqa: E731
    _, _, new = _handed_decides(monkeypatch, ConditionedNetwork, adversary)
    _, _, old = _handed_decides(monkeypatch, LegacyConditionedNetwork,
                                adversary)
    decides = [(round_index, delivery.payload.view)
               for round_index, inboxes in new
               for delivery in inboxes.get(0, ())
               if isinstance(delivery.payload, LeaderDecideMsg)]
    assert decides and decides == [
        (round_index, delivery.payload.view)
        for round_index, inboxes in old
        for delivery in inboxes.get(0, ())
        if isinstance(delivery.payload, LeaderDecideMsg)]


#: Losses until network round 40: some precommits never arrive.
LATE_GST = NetworkConditions(delta=3, gst=40, latency=("uniform", 1, 3),
                             drop_rate=0.1)


def test_an_unsettled_node_is_handed_the_decide_it_needs(monkeypatch):
    """leader-chain n = 4 with losses until a late GST: nodes that lost
    precommits settle from Decides they are handed while unsettled, and
    the execution is the every-copy reference network's.  Fails under
    the mutant that files a Decide only for nodes that settled its
    height."""
    handed, new, _ = _handed_decides(
        monkeypatch, ConditionedNetwork, n=4, conditions=LATE_GST)
    _, old, _ = _handed_decides(
        monkeypatch, LegacyConditionedNetwork, n=4, conditions=LATE_GST)
    assert new == old
    assert handed and not any(handed)
