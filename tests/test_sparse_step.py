"""A silent node's round: one coin and nothing else.

Three shortcuts make a lottery loser's round cheap (docs/PERFORMANCE.md,
"Sparse rounds"): ``RoundContext.rng`` is derived on first read, the
``Fmine`` coin is computed in one frame, and ``AbaNode._merge_digest``
copies a round tally into a node that has recorded nothing.  Each must
leave every deterministic field where it was, so everything here is
differential against the formulations they replaced, which live on in
``tests/reference.py``: ``ReferenceFMine`` and ``eager_honest_step``
here, and the per-message fold in ``tests/test_round_digest.py``'s
empty-prior merge cases.
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
)
from repro.protocols.base import EligibilityAuthenticator
from repro.rng import derive_rng
from repro.sim import engine as engine_mod
from repro.sim.adversary import Adversary
from repro.sim.engine import Simulation
from repro.sim.node import RoundContext
from tests.reference import (
    ReferenceFMine,
    eager_honest_step,
    int_spelling,
    observe,
    reference_coin,
)


# -- (a) the coin, against the formulation it replaced --------------------------


SEEDS = [0, 1, 7, -3, 2**70, "", "seed", "1", "a\x1fb", "naïve ☃"]


def random_topic(rng):
    kind = rng.choice(sorted(COMMITTEE_KINDS | LEADER_KINDS))
    # Equal-comparing spellings (1 / True / 1.0) are one topic: its coin
    # must not depend on which spelling is mined first.
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
        # Every coin is the closed form of its topic's int spelling,
        # whatever spelling of an equal topic the functionality met first.
        for (node_id, topic), coin in reference.coins.items():
            assert coin is reference_coin(
                seed, node_id, int_spelling(topic),
                schedule.probability(topic))
        assert list(fmine._coins.items()) == list(reference.coins.items())
    assert checked >= 500


def test_equal_topics_of_different_spelling_share_one_coin():
    """``("Vote", 1, True) == ("Vote", 1, 1)`` is one message: each node's
    coin is the int spelling's, in whatever order the spellings arrive,
    and any spelling verifies it."""
    schedule = DifficultySchedule(0.5, 0.5)
    as_int = [reference_coin(11, n, ("Vote", 1, 1), 0.5) for n in range(64)]
    for first, second in ((1, True), (True, 1), (1.0, True)):
        fmine = FMine(schedule, seed=11)
        spelled = [fmine.mine(node_id, ("Vote", 1,
                                        first if node_id % 2 else second))
                   for node_id in range(64)]
        assert spelled == as_int
        for bit in (1, True, 1.0):
            assert [fmine.verify(node_id, ("Vote", 1, bit))
                    for node_id in range(64)] == as_int
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


def _mixed(n):
    return [i % 2 for i in range(n)]


COIN_READERS = {
    "phase-king": lambda: run_instance(
        build_phase_king(40, 9, _mixed(40), seed=2, epochs=5), 9, seed=2),
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
    lazy = observe(COIN_READERS[name]())
    derived_lazily = len(counter.nodes)
    assert derived_lazily == len(set(counter.nodes))  # memo: once per node
    monkeypatch.setattr(Simulation, "_honest_step", eager_honest_step)
    eager = observe(COIN_READERS[name]())
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
