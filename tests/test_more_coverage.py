"""Additional coverage: cross-module behaviours not exercised elsewhere."""

import pytest

from repro.adversaries import StaticEquivocationAdversary
from repro.harness import run_instance
from repro.lowerbounds.no_pki import derive_seed_left, derive_seed_right
from repro.protocols import build_subquadratic_ba
from repro.sim.adversary import Adversary
from repro.sim.engine import Simulation
from repro.sim.node import Node
from repro.types import SecurityParameters

PARAMS = SecurityParameters(lam=24, epsilon=0.1)


class TestNoPkiSeeds:
    def test_side_seeds_are_independent(self):
        assert derive_seed_left(7) != derive_seed_right(7)
        assert derive_seed_left(7) != derive_seed_left(8)


class TestEngineDetails:
    class OneShotNode(Node):
        def __init__(self, node_id, n):
            super().__init__(node_id, n)
            self.heard = []

        def on_round(self, ctx):
            self.heard.extend(ctx.inbox)
            if ctx.round == 0 and self.node_id == 0:
                ctx.send(2, "direct")
            if ctx.round >= 2:
                self.decide(0, ctx.round)
                self.halted = True

        def output(self):
            return 0 if self.halted else None

    def test_unicast_reaches_exactly_one_node(self):
        nodes = [self.OneShotNode(i, 3) for i in range(3)]
        Simulation(nodes, 0, max_rounds=4).run()
        assert [d.payload for d in nodes[2].heard] == ["direct"]
        assert nodes[1].heard == []

    def test_halted_nodes_are_not_stepped(self):
        class CountingNode(Node):
            def __init__(self, node_id, n):
                super().__init__(node_id, n)
                self.steps = 0

            def on_round(self, ctx):
                self.steps += 1
                self.halted = True

            def output(self):
                return 0

        nodes = [CountingNode(i, 2) for i in range(2)]
        Simulation(nodes, 0, max_rounds=10).run()
        assert all(node.steps == 1 for node in nodes)

    def test_adversary_unicast_injection_is_targeted(self):
        class TargetedInjector(Adversary):
            def on_setup(self):
                self.api.corrupt(1)

            def react(self, round_index, staged):
                if round_index == 0:
                    self.api.inject(1, 2, "whisper")

        nodes = [self.OneShotNode(i, 3) for i in range(3)]
        Simulation(nodes, 1, adversary=TargetedInjector(),
                   max_rounds=4).run()
        payloads_2 = [d.payload for d in nodes[2].heard]
        payloads_0 = [d.payload for d in nodes[0].heard]
        assert "whisper" in payloads_2
        assert "whisper" not in payloads_0

    def test_corrupt_message_counts_tracked(self):
        class Noisy(Adversary):
            def on_setup(self):
                self.api.corrupt(1)

            def react(self, round_index, staged):
                if round_index == 0:
                    self.api.inject(1, None, "spam")
                    self.api.inject(1, 0, "spam")

        nodes = [self.OneShotNode(i, 3) for i in range(3)]
        result = Simulation(nodes, 1, adversary=Noisy(), max_rounds=4).run()
        assert result.metrics.corrupt_multicast_count == 1
        assert result.metrics.corrupt_unicast_count == 1


class TestSubquadraticVrfUnderAttack:
    def test_compiled_world_survives_equivocation(self):
        """The full Appendix D stack under Byzantine pressure."""
        n, f = 27, 7
        params = SecurityParameters(lam=10, epsilon=0.1)
        instance = build_subquadratic_ba(
            n, f, [i % 2 for i in range(n)], seed=6, params=params,
            mode="vrf")
        adversary = StaticEquivocationAdversary(instance)
        result = run_instance(instance, f, adversary, seed=6)
        assert result.consistent()


class TestResultTranscript:
    def test_transcript_is_attached_and_ordered(self):
        n, f = 60, 15
        instance = build_subquadratic_ba(n, f, [1] * n, seed=0,
                                         params=PARAMS)
        result = run_instance(instance, f, seed=0)
        ids = [envelope.envelope_id for envelope in result.transcript]
        assert ids == sorted(ids)
        assert len(result.transcript) >= \
            result.metrics.multicast_complexity_messages
