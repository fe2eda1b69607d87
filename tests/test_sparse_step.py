"""A silent node's round: one coin and nothing else.

Three shortcuts make a lottery loser's round cheap (docs/PERFORMANCE.md,
"Sparse rounds"): ``RoundContext.rng`` is derived on first read, the
``Fmine`` coin is computed in one frame, and ``AbaNode._merge_digest``
copies a round tally into a node that has recorded nothing.  Each must
leave every deterministic field where it was, so everything here is
differential — the formulations they replaced live on in this file as
the oracles: :class:`ReferenceFMine`, :func:`eager_honest_step`, and the
per-message fold (``tests/test_round_digest.py``'s twin-node harness).
"""

import random

import pytest

from repro.eligibility.base import MiningCapability
from repro.eligibility.difficulty import (
    COMMITTEE_KINDS,
    LEADER_KINDS,
    DifficultySchedule,
)
from repro.eligibility.fmine import FMine, FMineEligibility, FMineTicket
from repro.eligibility.lottery_cache import SharedLotteryCache, release_cache
from repro.errors import ConfigurationError, EligibilityError
from repro.harness.runner import run_instance
from repro.protocols import (
    build_broadcast_from_ba,
    build_phase_king,
    build_quadratic_ba,
    build_subquadratic_ba,
    verification,
)
from repro.protocols.base import EligibilityAuthenticator
from repro.protocols.multivalued import build_multivalued_ba
from repro.rng import derive_rng, derive_seed
from repro.sim import engine as engine_mod
from repro.sim.adversary import Adversary
from repro.sim.engine import Simulation
from repro.sim.node import RoundContext
from repro.types import SecurityParameters

from tests.test_delivery_differential import _snapshot
from tests.test_round_digest import (
    DigestSpy,
    World,
    assert_same,
    broadcast_of,
    node_state,
    own_vote,
)

PARAMS = SecurityParameters(lam=30, epsilon=0.1)


# -- (a) the coin, against the formulation it replaced --------------------------


def reference_coin(seed, node_id, topic, probability):
    return derive_rng(seed, "fmine", node_id, topic).random() < probability


class ReferenceFMine:
    """``FMine`` as it was: ``mine → _flip → probability → _compute_flip →
    derive_rng → derive_seed``, one frame each."""

    def __init__(self, schedule, seed, coin_cache=None):
        self.schedule, self.seed, self.coin_cache = schedule, seed, coin_cache
        self.coins = {}

    def mine(self, node_id, topic):
        key = (node_id, topic)
        if key not in self.coins:
            probability = self.schedule.probability(topic)
            if self.coin_cache is None:
                coin = reference_coin(self.seed, node_id, topic, probability)
            else:
                coin = self.coin_cache.coin(
                    (derive_seed(self.seed, "fmine", node_id, topic),
                     probability),
                    lambda: reference_coin(self.seed, node_id, topic,
                                           probability))
            self.coins[key] = coin
        return self.coins[key]

    def verify(self, node_id, topic):
        return self.coins.get((node_id, topic), False)


SEEDS = [0, 1, 7, -3, 2**70, "", "seed", "1", "a\x1fb", "naïve ☃"]


def random_topic(rng):
    kind = rng.choice(sorted(COMMITTEE_KINDS | LEADER_KINDS))
    # Equal-comparing spellings (1 / True / 1.0) are different labels of
    # the coin's stream: a memo keyed on the topic must not merge them.
    bit = rng.choice((0, 1, 0, 1, None, True, False, 1.0))
    if kind == "Terminate":
        return (kind, bit)
    if rng.random() < 0.2:
        return (kind, rng.randrange(4), rng.randrange(1, 4), bit)  # tagged
    return (kind, rng.randrange(1, 5), bit)


def coin_worlds(count=48, calls=16):
    """``count`` seeded worlds — a seed, a schedule, and a call sequence
    of (node, topic) pairs with repeats."""
    for index in range(count):
        rng = random.Random(index)
        schedule = DifficultySchedule(
            committee_probability=rng.choice((1.0, rng.uniform(0.05, 1.0))),
            leader_probability=rng.uniform(0.01, 1.0))
        topics = [random_topic(rng) for _ in range(5)]
        sequence = [(rng.choice((0, 1, 5, 3071, 10**12)), rng.choice(topics))
                    for _ in range(calls)]
        yield SEEDS[index % len(SEEDS)], schedule, sequence


def test_coin_equals_the_derive_rng_reference():
    checked = 0
    for seed, schedule, sequence in coin_worlds():
        fmine, reference = FMine(schedule, seed), ReferenceFMine(schedule, seed)
        for node_id, topic in sequence:
            assert fmine.mine(node_id, topic) is reference.mine(
                node_id, topic), (seed, node_id, topic)
            assert fmine.verify(node_id, topic) is reference.verify(
                node_id, topic)
            checked += 1
        # First-time coins are the closed form itself, whatever spelling
        # of an equal topic the functionality met first.
        for (node_id, topic), coin in reference.coins.items():
            assert coin is reference_coin(
                seed, node_id, topic, schedule.probability(topic))
        assert list(fmine._coins.items()) == list(reference.coins.items())
    assert checked >= 500


def test_equal_topics_of_different_spelling_flip_their_own_coins():
    """``("Vote", 1, True) == ("Vote", 1, 1)`` share a probability memo
    entry but not a stream: each node's coin comes from the repr it
    mined, in whatever order the spellings arrive."""
    schedule = DifficultySchedule(0.5, 0.5)
    for first, second in ((1, True), (True, 1)):
        fmine = FMine(schedule, seed=11)
        nodes = range(64)
        spelled = {}
        for node_id in nodes:
            bit = first if node_id % 2 else second
            spelled[node_id] = fmine.mine(node_id, ("Vote", 1, bit))
        expected = {
            node_id: reference_coin(
                11, node_id, ("Vote", 1, first if node_id % 2 else second),
                0.5)
            for node_id in nodes}
        assert spelled == expected
    as_int = [reference_coin(11, n, ("Vote", 1, 1), 0.5) for n in range(64)]
    as_bool = [reference_coin(11, n, ("Vote", 1, True), 0.5)
               for n in range(64)]
    assert as_int != as_bool  # or the case above proves nothing


def test_shared_cache_keys_hits_and_misses_do_not_move():
    """Two instances replaying one call sequence through a shared cache:
    same coins, same keys, same hit/miss counts as the reference pair
    (the counters are in pinned sweep artifacts)."""
    checked = 0
    for seed, schedule, sequence in coin_worlds(count=32):
        caches = SharedLotteryCache(), SharedLotteryCache()
        try:
            for _instance in range(2):
                fmine = FMine(schedule, seed, coin_cache=caches[0])
                reference = ReferenceFMine(schedule, seed,
                                           coin_cache=caches[1])
                for node_id, topic in sequence:
                    assert fmine.mine(node_id, topic) is reference.mine(
                        node_id, topic)
                    checked += 1
            assert caches[0]._coins == caches[1]._coins
            assert list(caches[0]._coins) == list(caches[1]._coins)
            assert ((caches[0].hits, caches[0].misses)
                    == (caches[1].hits, caches[1].misses))
            # The replay hit on every coin the first instance computed.
            assert caches[0].hits == caches[0].misses == len(caches[0])
        finally:
            for cache in caches:
                release_cache(cache.token)
    assert checked >= 500


# -- (b) Figure 1 ---------------------------------------------------------------


class TestFigureOneSemantics:
    schedule = DifficultySchedule.always()

    def test_verify_is_false_until_that_node_mined(self):
        fmine = FMine(self.schedule, seed=5)
        topic = ("Vote", 1, 0)
        assert fmine.verify(3, topic) is False
        assert fmine.mine(3, topic) is True  # everyone is eligible here
        assert fmine.verify(3, topic) is True
        # Others mining m tells nothing about a node that did not.
        assert fmine.verify(4, topic) is False
        assert fmine.verify(3, ("Vote", 1, 1)) is False

    def test_counterfeit_capability_is_refused(self):
        source = FMineEligibility(8, self.schedule, seed=5)
        with pytest.raises(EligibilityError):
            MiningCapability(source, 2).try_mine(("Vote", 1, 0))
        # ...and left no attempt behind for the node it named.
        assert not source.verify(FMineTicket(node_id=2, topic=("Vote", 1, 0)))
        assert source.capability_for(2).try_mine(("Vote", 1, 0)) is not None

    @pytest.mark.parametrize("topic", [
        ("Nonsense", 1, 0), (), (3, 1, 0), ("vote", 1, 1)])
    def test_bad_topic_raises_on_every_call(self, topic):
        source = FMineEligibility(4, self.schedule, seed=5)
        authenticator = EligibilityAuthenticator(source)
        for _attempt in range(2):
            with pytest.raises(ConfigurationError):
                source.fmine.mine(1, topic)
            with pytest.raises(ConfigurationError):
                authenticator.attempt(1, topic)
        assert not source.fmine._coins and not source.fmine._probabilities
        # A good topic in between does not unlock the bad one.
        assert source.fmine.mine(1, ("Vote", 1, 0))
        with pytest.raises(ConfigurationError):
            source.fmine.mine(1, topic)


# -- (c) ctx.rng derived on first read -----------------------------------------


def eager_honest_step(self, round_index, inboxes):
    """``Simulation._honest_step`` as it was: every stepping node's
    stream derived before its step, every attribute looked up per node."""
    broadcast = getattr(inboxes, "broadcast", None)
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
            envelope = self.network.stage(
                node_id, recipient, payload, round_index, honest_sender=True)
            self.metrics.record(envelope)


def _mixed(n):
    return [i % 2 for i in range(n)]


COIN_READERS = {
    "phase-king": lambda: run_instance(
        build_phase_king(40, 9, _mixed(40), seed=2, epochs=5), 9, seed=2),
    "multivalued": lambda: run_instance(
        build_multivalued_ba(60, 15, [(i * 19) % 16 for i in range(60)],
                             width=4, seed=3, params=PARAMS), 15, seed=3),
    "broadcast-phase-king": lambda: run_instance(
        build_broadcast_from_ba(build_phase_king, n=30, f=7, sender_input=1,
                                seed=4, epochs=4), 7, seed=4),
    "broadcast-quadratic": lambda: run_instance(
        build_broadcast_from_ba(build_quadratic_ba, n=9, f=4,
                                sender_input=0, seed=5), 4, seed=5),
}


class NodeStreamCounter:
    """Counts the engine's ``derive_rng(seed, "node", id)`` calls."""

    def __init__(self, monkeypatch):
        self.nodes = []

        def counting(seed, *labels):
            if labels[:1] == ("node",):
                self.nodes.append(labels[1])
            return derive_rng(seed, *labels)

        monkeypatch.setattr(engine_mod, "derive_rng", counting)


@pytest.mark.parametrize("name", sorted(COIN_READERS))
def test_lazy_stream_executions_equal_the_eager_engine(monkeypatch, name):
    counter = NodeStreamCounter(monkeypatch)
    lazy = _snapshot(COIN_READERS[name]())
    derived_lazily = len(counter.nodes)
    assert derived_lazily == len(set(counter.nodes))  # memo: once per node
    monkeypatch.setattr(Simulation, "_honest_step", eager_honest_step)
    eager = _snapshot(COIN_READERS[name]())
    assert lazy == eager
    if "phase-king" in name:
        assert derived_lazily > 0  # the coins were really flipped


class PeekSandboxStreams(Adversary):
    """Corrupts two nodes at setup and, each round, reads a draw from a
    sandbox context of each."""

    def __init__(self):
        super().__init__()
        self.draws = {}

    def on_setup(self):
        for node_id in (0, 3):
            self.api.corrupt(node_id)

    def react(self, round_index, staged):
        for node_id in (0, 3):
            ctx = self.api.make_context(node_id, [])
            assert ctx._rng is not ctx.rng  # derived by the read
            self.draws.setdefault(node_id, []).append(ctx.rng.random())


def test_sandbox_context_draws_the_honest_stream():
    n, f, seed = 12, 3, 9
    adversary = PeekSandboxStreams()
    run_instance(build_phase_king(n, f, _mixed(n), seed=seed, epochs=2), f,
                 adversary, seed=seed)
    for node_id, draws in adversary.draws.items():
        stream = derive_rng(seed, "node", node_id)
        assert draws == [stream.random() for _ in draws] and len(draws) >= 2


def test_context_accepts_a_stream_or_a_provider():
    stream = random.Random(1)
    assert RoundContext(2, 0, [], stream).rng is stream
    asked = []

    def provider(node_id):
        asked.append(node_id)
        return stream

    ctx = RoundContext(2, 0, [], provider)
    assert asked == []
    assert ctx.rng is stream and ctx.rng is stream and asked == [2]
    assert RoundContext(2, 0, [], None).rng is None


# -- (e) the empty-prior merge ---------------------------------------------------


#: Votes of iteration 2 beside commits of iteration 1: a commit's
#: certificate must rank below the round's vote iteration, or the digest
#: gives the round up to the fold (``RoundDigest.seal``).
VOTES, COMMITS = 2, 1


def _tally_round(world, rng, node_id=None, own_vote_bit=None):
    """A benign-looking round as node ``node_id`` meets it: votes for
    either bit, maybe a few commits and a Terminate, all from other
    nodes — plus the node's own vote when it cast one (which it tallied
    when it staged it: the invariant the merge rests on)."""
    others = [v for v in range(world.n) if v != node_id]
    messages = []
    for bit in rng.sample((0, 1), rng.randrange(1, 3)):
        voters = rng.sample(others, rng.randrange(1, len(others) + 1))
        messages += [world.vote(v, VOTES, bit) for v in voters]
    if own_vote_bit is not None:
        messages.append(world.vote(node_id, VOTES, own_vote_bit))
    rng.shuffle(messages)
    if rng.random() < 0.5:
        bit = rng.getrandbits(1)
        messages += [world.commit(c, COMMITS, bit)
                     for c in rng.sample(others, rng.randrange(1, 6))]
    if rng.random() < 0.3:
        messages.append(world.terminate(rng.choice(others), COMMITS,
                                        rng.getrandbits(1)))
    return broadcast_of(messages)


def _prior_state(world, kind, bit, picks):
    """A ``prepare`` hook putting a node into one of the prior states the
    merge distinguishes; ``picks`` are two other nodes."""
    def record(node, voters):
        for voter in voters:
            node._record_vote(VOTES, bit, voter,
                              world.vote(voter, VOTES, bit).auth)

    def prepare(node):
        if kind == "empty":
            node.votes_seen[(VOTES, bit)] = {}
            node.commits_seen[(COMMITS, bit)] = {}
        elif kind == "partial":
            record(node, picks)
            node.commits_seen[(COMMITS, bit)] = {
                picks[0]: world.commit(picks[0], COMMITS, bit)}
        elif kind == "own-late-vote":
            own_vote(world, VOTES, bit)(node)
        elif kind == "quorum-on-hand":
            record(node, range(world.f + 1))
        elif kind == "quorum-without-certificate":
            node.votes_seen[(VOTES, bit)] = {
                v: world.vote(v, VOTES, bit).auth
                for v in range(world.f + 1)}
        else:
            assert kind == "absent"
    return prepare


PRIOR_KINDS = ("absent", "empty", "partial", "own-late-vote",
               "quorum-on-hand", "quorum-without-certificate")


@pytest.mark.parametrize("kind", PRIOR_KINDS)
def test_merge_equals_the_fold_from_every_prior_state(monkeypatch, kind):
    world = World()
    spy = DigestSpy(monkeypatch)
    for seed in range(60):
        rng = random.Random(f"{kind}:{seed}")
        node_id, bit = rng.randrange(world.n), rng.getrandbits(1)
        picks = rng.sample([v for v in range(world.n) if v != node_id], 2)
        broadcast = _tally_round(
            world, rng, node_id, bit if kind == "own-late-vote" else None)
        assert_same(world, node_id, broadcast,
                    _prior_state(world, kind, bit, picks))
    assert spy.built and all(spy.built)
    if kind in ("absent", "empty"):
        assert spy.merged == 60  # the shortcut, not the fold, was compared


def test_merged_nodes_never_share_a_tally_dict():
    world = World()
    broadcast = broadcast_of(
        [world.vote(v, VOTES, 1) for v in (4, 2, 6, 0, 5)]
        + [world.commit(c, COMMITS, 1) for c in (6, 0)])
    nodes = [world.node(node_id) for node_id in (1, 3)]
    rng = random.Random(0)
    for node in nodes:
        node._process_inbox(
            RoundContext(node.node_id, 1, None, rng, broadcast))
    digest = world.config.verification._round_digest[1]
    tally, commits = digest.votes[(VOTES, 1)], digest.commits[(COMMITS, 1)]
    for node in nodes:
        mine = node.votes_seen[(VOTES, 1)], node.commits_seen[(COMMITS, 1)]
        assert [list(entries) for entries in mine] == [[4, 2, 6, 0, 5], [6, 0]]
        assert mine[0] is not tally.votes and mine[1] is not commits
        assert node._shared_tallies[(VOTES, 1)] is tally
        assert node.best_cert[1] is tally.quorum
    first, second = nodes
    assert first.votes_seen[(VOTES, 1)] is not second.votes_seen[(VOTES, 1)]
    assert (first.commits_seen[(COMMITS, 1)]
            is not second.commits_seen[(COMMITS, 1)])
    # A late vote recorded by one node reaches neither its twin nor the
    # digest the next node will merge from.
    first._record_vote(VOTES, 1, 1, world.vote(1, VOTES, 1).auth)
    first.commits_seen[(COMMITS, 1)][1] = world.commit(1, COMMITS, 1)
    assert 1 not in second.votes_seen[(VOTES, 1)] and 1 not in tally.votes
    assert 1 not in second.commits_seen[(COMMITS, 1)] and 1 not in commits


def test_caching_off_folds_to_the_same_state(monkeypatch):
    world = World()
    rng = random.Random(17)
    rounds = [_tally_round(world, rng, node_id=6) for _ in range(20)]
    merged = [node_state(assert_same(world, 6, broadcast))
              for broadcast in rounds]
    spy = DigestSpy(monkeypatch)
    monkeypatch.setattr(verification, "CACHING_ENABLED", False)
    folded = [node_state(assert_same(world, 6, broadcast))
              for broadcast in rounds]
    assert spy.built == [] and merged == folded


def test_subquadratic_execution_equals_the_fold_at_scale(monkeypatch):
    """Whole executions in the regime the shortcut is for — hundreds of
    silent nodes, a few dozen speakers — against the per-message fold."""
    for seed, inputs in ((1, [1] * 384), (2, _mixed(384))):
        def execute():
            instance = build_subquadratic_ba(384, 150, inputs, seed=seed,
                                             max_iterations=6)
            result = run_instance(instance, 150, seed=seed)
            return _snapshot(result), [node_state(node)
                                       for node in instance.nodes]
        shared = execute()
        monkeypatch.setattr(verification, "CACHING_ENABLED", False)
        folded = execute()
        monkeypatch.undo()
        assert shared == folded
