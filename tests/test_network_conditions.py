"""Unit tests for the partial-synchrony network-conditions subsystem."""

import pytest

from repro.errors import CapabilityError, ConfigurationError, SimulationError
from repro.harness import run_instance
from repro.protocols import build_quadratic_ba
from repro.sim import Simulation
from repro.sim.adversary import PassiveAdversary
from repro.sim.conditions import (
    NETWORKS,
    ConditionedNetwork,
    NetworkConditions,
    Partition,
)
from repro.sim.network import SynchronousNetwork
from tests import engines
from tests.engines import both_engines


def drain(network, rounds):
    """Collect per-round inboxes over several network rounds."""
    return [network.deliver() for _ in range(rounds)]


class TestConditionsValidation:
    def test_perfect_is_perfect(self):
        assert NetworkConditions.perfect().is_perfect
        assert NetworkConditions().is_perfect

    def test_nontrivial_variants_are_not_perfect(self):
        assert not NetworkConditions(delta=2).is_perfect
        assert not NetworkConditions(gst=5).is_perfect
        assert not NetworkConditions(drop_rate=0.1, gst=1).is_perfect
        assert not NetworkConditions(
            partitions=(Partition(0, 4, split=0.5),)).is_perfect

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            NetworkConditions(delta=0)
        with pytest.raises(ConfigurationError):
            NetworkConditions(gst=-1)
        with pytest.raises(ConfigurationError):
            NetworkConditions(drop_rate=1.0, gst=5)
        with pytest.raises(ConfigurationError):
            NetworkConditions(latency=("zipf", 2))
        with pytest.raises(ConfigurationError):
            NetworkConditions(pre_gst_cap=0)

    def test_rejects_inert_loss_rates(self):
        """Drops/duplication only exist pre-GST: with gst=0 they would
        silently measure a lossless network, so construction refuses."""
        with pytest.raises(ConfigurationError, match="gst"):
            NetworkConditions(delta=3, drop_rate=0.1)
        with pytest.raises(ConfigurationError, match="gst"):
            NetworkConditions(delta=3, duplicate_rate=0.1)

    def test_rejects_malformed_latency_specs(self):
        """Arity and ranges fail at construction, not mid-sweep."""
        for spec in (("fixed",), ("fixed", 0), ("fixed", 2.5),
                     ("uniform", 2), ("uniform", 3, 2), ("uniform", 0, 4),
                     ("geometric",), ("geometric", 0.0), ("geometric", 1.5)):
            with pytest.raises(ConfigurationError):
                NetworkConditions(delta=4, latency=spec)

    def test_partition_validation(self):
        with pytest.raises(ConfigurationError):
            Partition(5, 5, split=0.5)
        with pytest.raises(ConfigurationError):
            Partition(0, 4)  # neither split nor groups
        with pytest.raises(ConfigurationError):
            Partition(0, 4, split=0.5, groups=((0, 1),))
        with pytest.raises(ConfigurationError):
            Partition(0, 4, split=1.5)

    def test_conditions_are_hashable_and_picklable(self):
        import pickle
        conditions = NETWORKS["split-heal"]
        assert hash(conditions) == hash(pickle.loads(
            pickle.dumps(conditions)))

    def test_describe_is_scalar_and_stable(self):
        assert NETWORKS["wan"].describe() == "Δ=4"
        assert "gst=9" in NETWORKS["lossy"].describe()
        assert "partitions=1" in NETWORKS["split-heal"].describe()


class TestScheduling:
    def test_fixed_latency_delivers_exactly_then(self):
        conditions = NetworkConditions(delta=3, latency=("fixed", 3))
        network = ConditionedNetwork(3, conditions, seed=0)
        network.deliver()  # round 0 (nothing staged yet)
        network.stage(0, 1, "m", 0, honest_sender=True)
        assert not network.has_pending()  # staged, not yet scheduled
        rounds = [network.deliver()]
        assert network.has_pending()  # scheduled for round 3
        rounds.extend(drain(network, 2))
        assert rounds[0][1] == []  # round 1
        assert rounds[1][1] == []  # round 2
        assert [d.payload for d in rounds[2][1]] == ["m"]  # round 3
        assert not network.has_pending()

    def test_post_gst_delay_clamped_to_delta(self):
        """A latency draw above Δ cannot escape the Δ bound post-GST."""
        conditions = NetworkConditions(delta=2, latency=("fixed", 50))
        network = ConditionedNetwork(2, conditions, seed=0)
        network.deliver()
        network.stage(0, 1, "m", 0, honest_sender=True)
        rounds = drain(network, 2)
        assert [d.payload for d in rounds[1][1]] == ["m"]

    def test_pre_gst_delay_capped(self):
        conditions = NetworkConditions(
            delta=2, gst=100, latency=("fixed", 50), pre_gst_cap=4)
        network = ConditionedNetwork(2, conditions, seed=0)
        network.deliver()
        network.stage(0, 1, "m", 0, honest_sender=True)
        rounds = drain(network, 4)
        assert [d.payload for d in rounds[3][1]] == ["m"]

    def test_pre_gst_drop_everything(self):
        conditions = NetworkConditions(delta=2, gst=1000, drop_rate=0.99)
        network = ConditionedNetwork(2, conditions, seed=0)
        network.deliver()
        for _ in range(20):
            network.stage(0, 1, "m", 0, honest_sender=True)
        delivered = sum(len(r[1]) for r in drain(network, 10))
        assert network.stats.dropped_copies > 0
        assert delivered + network.stats.dropped_copies == 20

    def test_post_gst_never_drops(self):
        conditions = NetworkConditions(delta=2, gst=1, drop_rate=0.9)
        network = ConditionedNetwork(2, conditions, seed=0)
        drain(network, 2)  # past GST: senders now act at round >= 1
        for _ in range(20):
            network.stage(0, 1, "m", 1, honest_sender=True)
        delivered = sum(len(r[1]) for r in drain(network, 4))
        assert delivered == 20
        assert network.stats.dropped_copies == 0

    def test_pre_gst_duplication(self):
        conditions = NetworkConditions(delta=2, gst=1000,
                                       duplicate_rate=0.99)
        network = ConditionedNetwork(2, conditions, seed=0)
        network.deliver()
        network.stage(0, 1, "m", 0, honest_sender=True)
        delivered = sum(len(r[1]) for r in drain(network, 10))
        assert delivered == 2
        assert network.stats.duplicated_copies == 1

    def test_deterministic_schedule_per_seed(self):
        conditions = NETWORKS["lossy"]

        def schedule(seed):
            network = ConditionedNetwork(4, conditions, seed=seed)
            network.deliver()
            for index in range(10):
                network.stage(0, None, index, 0, honest_sender=True)
            return [
                [(node, [d.payload for d in inbox])
                 for node, inbox in r.items()]
                for r in drain(network, 12)
            ]

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)

    def test_multicast_copies_scheduled_independently(self):
        """Different recipients of one multicast can see it in different
        rounds — the reordering partial synchrony is about."""
        conditions = NetworkConditions(delta=4, latency=("uniform", 1, 4))
        network = ConditionedNetwork(8, conditions, seed=1)
        network.deliver()
        network.stage(0, None, "m", 0, honest_sender=True)
        arrival = {}
        for round_index, inboxes in enumerate(drain(network, 4), start=1):
            for node, inbox in inboxes.items():
                if inbox:
                    arrival[node] = round_index
        assert len(arrival) == 7  # everyone but the sender
        assert len(set(arrival.values())) > 1


class TestSuppressionAndDelay:
    def test_suppression_still_respected(self):
        conditions = NetworkConditions(delta=2)
        network = ConditionedNetwork(4, conditions, seed=0)
        network.deliver()
        envelope = network.stage(0, None, "m", 0, honest_sender=True)
        network.suppress(envelope, recipient=2)
        delivered_to = set()
        for inboxes in drain(network, 3):
            delivered_to.update(node for node, inbox in inboxes.items()
                                if inbox)
        assert delivered_to == {1, 3}

    def test_delay_defers_delivery_to_delta_deadline(self):
        conditions = NetworkConditions(delta=3, latency=("fixed", 1))
        network = ConditionedNetwork(2, conditions, seed=0)
        network.deliver()
        envelope = network.stage(0, 1, "m", 0, honest_sender=True)
        network.delay(envelope, rounds=10)  # clamped to Δ = 3
        rounds = drain(network, 3)
        assert rounds[0][1] == [] and rounds[1][1] == []
        assert [d.payload for d in rounds[2][1]] == ["m"]
        assert network.stats.adversary_delayed_copies == 1

    def test_delay_window_is_the_staging_round(self):
        conditions = NetworkConditions(delta=2)
        network = ConditionedNetwork(2, conditions, seed=0)
        network.deliver()
        envelope = network.stage(0, 1, "m", 0, honest_sender=True)
        network.deliver()  # envelope now scheduled, no longer staged
        with pytest.raises(SimulationError):
            network.delay(envelope, rounds=1)

    def test_clamped_delay_requests_not_counted(self):
        """A delay the Δ clamp nullifies never changed a delivery round,
        so it must not inflate adversary_delayed_copies."""
        conditions = NetworkConditions(delta=1, latency=("geometric", 0.5))
        network = ConditionedNetwork(2, conditions, seed=0)
        network.deliver()
        envelope = network.stage(0, 1, "m", 0, honest_sender=True)
        network.delay(envelope, rounds=5)  # Δ=1: fully clamped away
        assert [d.payload for d in network.deliver()[1]] == ["m"]
        assert network.stats.adversary_delayed_copies == 0

    def test_delay_rejects_nonpositive(self):
        conditions = NetworkConditions(delta=2)
        network = ConditionedNetwork(2, conditions, seed=0)
        network.deliver()
        envelope = network.stage(0, 1, "m", 0, honest_sender=True)
        with pytest.raises(SimulationError):
            network.delay(envelope, rounds=0)

    def test_api_delay_refused_under_lock_step(self):
        nodes = build_quadratic_ba(4, 1, [1] * 4, seed=0).nodes
        simulation = Simulation(nodes=nodes, corruption_budget=1, seed=0)
        envelope = simulation.network.stage(0, 1, "m", 0, honest_sender=True)
        with pytest.raises(CapabilityError):
            simulation._api.delay(envelope)


class TestPartitions:
    def test_cross_partition_copies_defer_to_heal(self):
        partition = Partition(start=0, end=5, split=0.5)
        conditions = NetworkConditions(
            delta=1, latency=("fixed", 1), partitions=(partition,))
        network = ConditionedNetwork(4, conditions, seed=0)
        network.deliver()
        network.stage(0, 3, "cross", 0, honest_sender=True)  # 0 | 3
        network.stage(0, 1, "local", 0, honest_sender=True)  # same side
        rounds = drain(network, 6)
        assert [d.payload for d in rounds[0][1]] == ["local"]
        assert all(r[3] == [] for r in rounds[:4])
        assert [d.payload for d in rounds[4][3]] == ["cross"]  # round 5
        assert network.stats.deferred_copies == 1

    def test_explicit_groups(self):
        partition = Partition(start=0, end=3, groups=((0, 1), (2,)))
        assert partition.separates(0, 2, n=4)
        assert not partition.separates(0, 1, n=4)
        # Unlisted nodes share one implicit block.
        assert not partition.separates(3, 3, n=4)
        assert partition.separates(0, 3, n=4)

    @both_engines
    def test_partition_heals_in_engine_execution(self, engine):
        conditions = NETWORKS["split-heal"]
        n, f = 12, 2
        instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=4)
        result = engines.run(instance, f, seed=4, conditions=conditions,
                             engine=engine)
        assert result.consistent()
        assert result.all_decided()
        assert result.network_stats.deferred_copies > 0


class TestEngineIntegration:
    def test_perfect_conditions_use_fast_path(self):
        nodes = build_quadratic_ba(4, 1, [1] * 4, seed=0).nodes
        simulation = Simulation(
            nodes=nodes, corruption_budget=1, seed=0,
            conditions=NetworkConditions.perfect())
        assert type(simulation.network) is SynchronousNetwork
        assert simulation.conditions is None
        assert simulation.run().network_stats is None

    def test_perfect_conditions_byte_identical_result(self):
        def execute(conditions):
            n, f = 10, 3
            instance = build_quadratic_ba(n, f, [1] * n, seed=9)
            return run_instance(instance, f, seed=9, conditions=conditions)

        plain = execute(None)
        perfect = execute(NetworkConditions.perfect())
        assert plain.outputs == perfect.outputs
        assert plain.rounds_executed == perfect.rounds_executed
        assert len(plain.transcript) == len(perfect.transcript)
        assert plain.metrics.multicast_complexity_bits == \
            perfect.metrics.multicast_complexity_bits

    @both_engines
    def test_rounds_executed_counts_protocol_rounds(self, engine):
        """Round dilation is internal: the result still reports protocol
        rounds, comparable across network conditions."""
        n, f = 10, 2
        plain = run_instance(
            build_quadratic_ba(n, f, [1] * n, seed=1), f, seed=1)
        conditioned = engines.run(
            build_quadratic_ba(n, f, [1] * n, seed=1), f, seed=1,
            conditions=NETWORKS["wan"], engine=engine)
        assert conditioned.rounds_executed == plain.rounds_executed

    @both_engines
    def test_network_stats_accounting(self, engine):
        n, f = 10, 2
        result = engines.run(
            build_quadratic_ba(n, f, [1] * n, seed=2), f, seed=2,
            conditions=NETWORKS["wan"], engine=engine)
        stats = result.network_stats
        assert stats.delivered_copies > 0
        assert 1.0 <= stats.mean_delivery_latency <= 4.0
        assert stats.max_in_flight > 0
        assert stats.network_rounds >= result.rounds_executed
        assert stats.skipped_ticks + stats.delivered_copies > 0
        assert stats.events_processed >= stats.delivered_copies

    @both_engines
    def test_passive_adversary_and_conditions_compose(self, engine):
        n, f = 8, 2
        instance = build_quadratic_ba(n, f, [0] * n, seed=3)
        result = engines.run(instance, f, PassiveAdversary(), seed=3,
                             conditions=NETWORKS["lan"], engine=engine)
        assert result.consistent() and result.agreement_valid()
