"""Property-based safety/liveness suite for the leader family.

Seeded randomized evidence for ``protocols/leader_ba.py`` (the idiom of
``tests/test_event_engine_properties.py``: every configuration is drawn
from a ``random.Random`` keyed by its case number, so a failure
reproduces from the case number alone):

- **Agreement and validity never break** across 120 sampled
  Δ-bounded ``NetworkConditions`` × adversary configurations — crashed
  leaders (``crash``), assassinated leaders (``leader-killer``), and
  Byzantine equivocating leaders driving the view-change path
  (``view-split``) — on both engines, single-height and chained.
- **Decision lands within the Δ-derived view budget after GST**: every
  honest node decides, and the settled view stays within
  ``default_views_per_height`` (burned pre-GST views + f + 1 leader
  rotations + slack) — the bounded-liveness claim of the view timers.
- **Locks never regress**: every lock absorption across every node's
  whole execution is rank-monotone (instrumented at the absorption
  point, so the invariant is checked at every event, not just at exit).
- Per-height decisions of the chain workload agree bit-for-bit across
  honest nodes.
- **A Decide shown to one node before the trusted round** (the mirror of
  adaptive-ba's silent halt) ends in agreement through the decide-drain,
  pinned execution by execution.
"""

import random

import pytest

from repro.adversaries import (
    CrashAdversary,
    LeaderKillerAdversary,
    ViewSplitAdversary,
)
from repro.harness import run_instance
from repro.protocols.certificates import rank
from repro.protocols.leader_ba import (
    LeaderDecideMsg,
    LeaderProposeMsg,
    NewViewMsg,
    PrecommitMsg,
    PrevoteMsg,
    build_leader_ba,
    decision_view_of,
    default_views_per_height,
    schedule,
)
from repro.sim.adversary import Adversary
from repro.sim.conditions import LinkTopology, NetworkConditions, Partition
from tests import engines

#: 120 sampled adversarial configurations (above the satellite's 100
#: floor), split into chunks so a failing sample names a small replay
#: set.
PROPERTY_CASES = 120
CHUNK = 10

ADVERSARY_KINDS = ("none", "crash", "leader-killer", "leader-killer",
                   "view-split", "view-split")


def random_leader_conditions(rng: random.Random) -> NetworkConditions:
    """A random partial-synchrony environment inside the guaranteed
    regime: arbitrary Δ/latency/topology, a GST with pre-GST losses and
    (sometimes) a healing partition — everything the view timers are
    budgeted for via ``trusted_send_round``."""
    delta = rng.randint(1, 5)
    kind = rng.choice(("fixed", "uniform", "geometric"))
    if kind == "fixed":
        latency = ("fixed", rng.randint(1, delta))
    elif kind == "uniform":
        lo = rng.randint(1, delta)
        latency = ("uniform", lo, rng.randint(lo, delta))
    else:
        latency = ("geometric", rng.choice((0.3, 0.5, 0.8)))
    gst = rng.choice((0, 0, rng.randint(1, 2 * delta)))
    drop_rate = rng.choice((0.0, 0.1, 0.25)) if gst else 0.0
    duplicate_rate = rng.choice((0.0, 0.1)) if gst else 0.0
    topology = None
    if delta > 1:
        topology = rng.choice((
            None,
            LinkTopology.clustered(clusters=2, extra=rng.randint(1, delta)),
            LinkTopology.star(hub=0, extra=rng.randint(1, delta)),
        ))
    partitions = ()
    if gst and rng.random() < 0.3:
        start = rng.randint(0, 2)
        partitions = (Partition(start=start,
                                end=start + rng.randint(2, 4),
                                split=rng.choice((0.3, 0.5))),)
    return NetworkConditions(
        delta=delta, gst=gst, latency=latency, drop_rate=drop_rate,
        duplicate_rate=duplicate_rate, partitions=partitions,
        topology=topology)


def random_inputs(rng: random.Random, n: int):
    if rng.random() < 0.5:
        bit = rng.randint(0, 1)
        return [bit] * n, bit
    return [rng.randint(0, 1) for _ in range(n)], None


def make_adversary(kind: str, instance, seed: int):
    if kind == "crash":
        return CrashAdversary()
    if kind == "leader-killer":
        return LeaderKillerAdversary(instance)
    if kind == "view-split":
        return ViewSplitAdversary(instance)
    return None


def instrument_locks(instance):
    """Record the lock rank after every absorption on every node, so
    the monotonicity check covers each event of the execution."""
    histories = {}
    for node in instance.nodes:
        history = []
        histories[node.node_id] = history
        original = node.absorb_lock

        def absorb(qc, node=node, history=history, original=original):
            original(qc)
            history.append(rank(node.locked))

        node.absorb_lock = absorb
    return histories


def assert_locks_monotone(histories, context):
    for node_id, history in histories.items():
        assert history == sorted(history), \
            f"lock regressed on node {node_id} ({context}): {history}"


@pytest.mark.slow
class TestLeaderBaProperties:
    @pytest.mark.parametrize("chunk", range(PROPERTY_CASES // CHUNK))
    def test_safety_liveness_and_lock_monotonicity(self, chunk):
        for case in range(chunk * CHUNK, (chunk + 1) * CHUNK):
            rng = random.Random(f"leader-properties-{case}")
            conditions = random_leader_conditions(rng)
            f = rng.randint(0, 2)
            n = 3 * f + 1 + rng.randint(0, 2)
            heights = rng.choice((1, 1, 1, 2))
            inputs, expected = random_inputs(rng, n)
            seed = rng.randint(0, 2**16)
            kind = rng.choice(ADVERSARY_KINDS)
            engine = rng.choice(("lockstep", "event"))
            budget = default_views_per_height(f, conditions)

            instance = build_leader_ba(n, f, inputs, seed=seed,
                                       heights=heights,
                                       conditions=conditions)
            histories = instrument_locks(instance)
            adversary = make_adversary(kind, instance, seed)
            result = engines.run(instance, f, adversary, seed=seed,
                                 conditions=conditions, engine=engine)
            context = (f"case {case}: n={n} f={f} heights={heights} "
                       f"adversary={kind} {engine} "
                       f"{conditions.describe()}")

            # Safety: agreement and validity are never violated.
            assert result.consistent(), f"agreement broken ({context})"
            assert result.agreement_valid(), f"validity broken ({context})"
            if expected is not None:
                assert set(result.honest_outputs) == {expected}, \
                    f"unanimity not carried ({context})"

            # Liveness: every honest node decides, within the Δ-derived
            # view budget after GST (per height).
            assert result.all_decided(), f"termination broken ({context})"
            assert decision_view_of(result) <= budget * heights, \
                f"view budget exceeded ({context})"

            # Locks never regress, at any absorption event on any node.
            assert_locks_monotone(histories, context)

            # Chain workload: per-height decisions agree bit-for-bit
            # across honest nodes (different quorum views are fine).
            honest = [node for node in instance.nodes
                      if node.node_id not in result.corrupt_set]
            for height in range(1, heights + 1):
                bits = {node.height_decisions[height][1]
                        for node in honest
                        if height in node.height_decisions}
                assert len(bits) == 1, \
                    f"height {height} split ({context})"


class TestLeaderBaTargeted:
    def test_byzantine_leader_cannot_break_unanimity(self):
        """Strong unanimity under the view-splitting Byzantine leader:
        with every honest input b, no justification for 1-b can ever be
        assembled (f corrupt attestations are one short of f+1, and no
        QC for 1-b forms inductively)."""
        for bit in (0, 1):
            for seed in range(5):
                conditions = NetworkConditions(
                    delta=2, gst=6, latency=("uniform", 1, 2),
                    drop_rate=0.2)
                instance = build_leader_ba(7, 2, [bit] * 7, seed=seed,
                                           conditions=conditions)
                adversary = ViewSplitAdversary(instance)
                result = run_instance(instance, 2, adversary, seed=seed,
                                      conditions=conditions)
                assert result.consistent() and result.all_decided()
                assert set(result.honest_outputs) == {bit}

    def test_decides_in_first_view_unopposed(self):
        """Lock-step, no adversary: one view suffices (the happy path
        the leader-vs-quadratic comparison measures)."""
        result = run_instance(build_leader_ba(7, 2, [1, 0, 1, 0, 1, 0, 1]),
                              f=2, adversary=None, seed=0)
        assert result.all_decided() and result.consistent()
        assert decision_view_of(result) == 1

    def test_view_budget_is_gst_aware(self):
        """A later GST buys a larger view budget (more burned views)."""
        early = NetworkConditions(delta=2, gst=4, latency=("fixed", 1))
        late = NetworkConditions(delta=2, gst=24, latency=("fixed", 1))
        assert (default_views_per_height(2, late)
                > default_views_per_height(2, early)
                >= default_views_per_height(2, None))


class _LoneDeciderLeader(Adversary):
    """The leader-family mirror of adaptive-ba's silent-halt attack.
    Corrupt {0, 1}; node 1 leads view 1.  It proposes 0 to {2, 3, 4}
    only, justified by their own NewView attestations; the corrupt nodes
    prevote 0 to {2, 3, 4} alone, completing the ``n - f`` prevote QC
    there, and precommit to nobody; node 1 then wraps the honest
    precommits of 2, 3, 4 and two corrupt ones into a Decide that it
    shows to node 2 alone — a round before ``trusted_send_round``."""

    CORRUPT = (0, 1)
    LOCKERS = (2, 3, 4)

    def __init__(self, instance):
        super().__init__()
        config = instance.services["config"]
        self.sign = config.authenticator.attempt
        self.propose_auth = config.proposer.attempt
        self.quorum = config.fallback_quorum
        self.seen = {NewViewMsg: {}, PrecommitMsg: {}}

    def on_setup(self):
        for node_id in self.CORRUPT:
            self.api.corrupt(node_id)

    def react(self, round_index, staged):
        view, phase = schedule(round_index)
        if view != 1:
            return
        for envelope in staged:  # rushing: this round's honest sends
            msg = envelope.payload
            if msg.__class__ in self.seen and msg.bit == 0:
                self.seen[msg.__class__][msg.sender] = msg
        if phase == "Propose":
            chosen = sorted(self.seen[NewViewMsg].items())[:self.quorum]
            propose = LeaderProposeMsg(
                view=1, bit=0, qc=None,
                attestations=tuple(msg for _, msg in chosen), sender=1,
                auth=self.propose_auth(1, 1, 0))
            for target in self.LOCKERS:
                self.api.inject(1, target, propose)
        elif phase == "Prevote":
            for node_id in self.CORRUPT:
                prevote = PrevoteMsg(view=1, bit=0, sender=node_id,
                                     auth=self.sign(node_id, ("Vote", 1, 0)))
                for target in self.LOCKERS:
                    self.api.inject(node_id, target, prevote)
        elif phase == "Precommit":
            members = dict(self.seen[PrecommitMsg])
            for node_id in self.CORRUPT:
                members[node_id] = PrecommitMsg(
                    view=1, bit=0, sender=node_id,
                    auth=self.sign(node_id, ("Precommit", 1, 0)))
            self.api.inject(1, 2, LeaderDecideMsg(
                view=1, bit=0, sender=1,
                precommits=tuple(members[node] for node in sorted(members)),
                auth=self.sign(1, ("Decide", 1, 0))))


class TestLoneDecideMirror:
    """What adaptive-ba's silent halt (``test_adaptive_ba.py``'s strict
    xfail) does to the leader family, pinned at n = 7, f = 2 with a
    prelude of ``trusted_send_round`` 16: agreement, by the decide-drain.
    Every leader-family decider announces its quorum, and a decider
    whose send was untrusted re-announces at each view boundary until a
    trusted round — so the one node the corrupt leader showed its Decide
    to relays it, and so does everyone who adopts it."""

    INPUTS = [0, 0, 0, 0, 0, 1, 1]

    def _run(self, drop_rate, heights):
        conditions = NetworkConditions(delta=1, gst=16, latency=("fixed", 1),
                                       drop_rate=drop_rate)
        instance = build_leader_ba(7, 2, self.INPUTS, seed=0, heights=heights,
                                   conditions=conditions)
        result = run_instance(instance, 2, _LoneDeciderLeader(instance),
                              seed=0, conditions=conditions)
        assert conditions.trusted_send_round == 16
        assert result.consistent() and result.all_decided()
        assert set(result.honest_outputs) == {0}
        announced = [envelope.round_sent for envelope in result.transcript
                     if envelope.sender == 2
                     and isinstance(envelope.payload, LeaderDecideMsg)]
        return instance, result, announced

    @pytest.mark.parametrize("drop_rate, decided", [
        # Lossless prelude: node 2 decides from the lone Decide and its
        # relay decides the other four a round later.
        (0.0, {2: 4, 3: 5, 4: 5, 5: 5, 6: 5}),
        # Lossy prelude: node 2's relay to node 3 is dropped; node 3
        # decides a round later from the relays of those who adopted it.
        (0.05, {2: 4, 3: 6, 4: 5, 5: 5, 6: 5}),
    ], ids=["lossless", "lossy"])
    def test_the_lone_decider_drains_its_quorum(self, drop_rate, decided):
        _, result, announced = self._run(drop_rate, heights=1)
        assert result.decided_rounds == decided
        # Re-announced at each view boundary; halted at the trusted round.
        assert announced == [4, 8, 12, 16]
        assert result.rounds_executed == 17

    def test_a_chain_height_settled_this_way_is_slept_out(self):
        """On a two-height chain the attacked height is not the last: its
        deciders relay once, settle height 1 on view 1's bit and sleep
        out the height's nine-view window (rounds 4 … 35); height 2
        decides in its first view."""
        instance, result, announced = self._run(0.05, heights=2)
        honest = instance.nodes[2:]
        assert {node.node_id: node.height_decisions[1] for node in honest} \
            == {node: (1, 0) for node in range(2, 7)}
        assert [node.asleep_until for node in honest] == [36] * 5
        assert announced == [4, 40]
        assert set(result.decided_rounds.values()) == {40}
