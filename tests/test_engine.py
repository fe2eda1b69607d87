"""Tests for the simulation engine round loop and adversary API."""

from dataclasses import replace
from typing import List, Optional

import pytest

from repro.errors import CapabilityError, SimulationError
from repro.protocols import build_quadratic_ba
from repro.sim.adversary import Adversary
from repro.sim.conditions import NETWORKS
from repro.sim.engine import Simulation, Transcript
from repro.sim.node import Node, RoundContext
from repro.types import AdversaryModel
from tests import reference
from tests.reference import both_engines


class EchoNode(Node):
    """Multicasts its id each round and records everything it hears."""

    def __init__(self, node_id, n, rounds=3):
        super().__init__(node_id, n)
        self.rounds = rounds
        self.heard: List = []

    def on_round(self, ctx: RoundContext) -> None:
        self.heard.extend((d.sender, d.payload) for d in ctx.inbox)
        ctx.multicast(("echo", self.node_id, ctx.round))
        if ctx.round >= self.rounds - 1:
            self.decide(0, ctx.round)
            self.halted = True

    def output(self):
        return 0 if self.halted else None


class RecordingAdversary(Adversary):
    def __init__(self):
        super().__init__()
        self.staged_per_round = {}
        self.delivered_per_round = {}

    def observe_deliveries(self, round_index, inboxes):
        self.delivered_per_round[round_index] = {
            node: len(inbox) for node, inbox in inboxes.items()}

    def react(self, round_index, staged):
        self.staged_per_round[round_index] = len(staged)


class CorruptingAdversary(Adversary):
    def __init__(self, target, at_round):
        super().__init__()
        self.target = target
        self.at_round = at_round
        self.grant = None

    def react(self, round_index, staged):
        if round_index == self.at_round and self.grant is None:
            self.grant = self.api.corrupt(self.target)


class TestRoundLoop:
    def test_synchronous_delivery(self):
        """Round-r multicasts arrive at the start of round r+1."""
        nodes = [EchoNode(i, 3) for i in range(3)]
        Simulation(nodes, corruption_budget=1).run()
        # In round 1 each node hears both others' round-0 echoes.
        assert (1, ("echo", 1, 0)) in nodes[0].heard
        assert (2, ("echo", 2, 0)) in nodes[0].heard

    def test_rushing_adversary_sees_staged_messages(self):
        nodes = [EchoNode(i, 3) for i in range(3)]
        adversary = RecordingAdversary()
        Simulation(nodes, 1, adversary=adversary).run()
        assert adversary.staged_per_round[0] == 3

    def test_stops_when_all_halt(self):
        nodes = [EchoNode(i, 2, rounds=2) for i in range(2)]
        result = Simulation(nodes, 1, max_rounds=50).run()
        assert result.rounds_executed == 2

    def test_max_rounds_cap(self):
        nodes = [EchoNode(i, 2, rounds=100) for i in range(2)]
        result = Simulation(nodes, 1, max_rounds=5).run()
        assert result.rounds_executed == 5

    def test_runs_exactly_once(self):
        simulation = Simulation([EchoNode(0, 1, rounds=1)], 0)
        simulation.run()
        with pytest.raises(SimulationError):
            simulation.run()

    def test_metrics_count_honest_multicasts(self):
        nodes = [EchoNode(i, 3, rounds=2) for i in range(3)]
        result = Simulation(nodes, 1).run()
        assert result.metrics.multicast_complexity_messages == 6

    def test_outputs_collected_for_honest_nodes(self):
        nodes = [EchoNode(i, 3, rounds=2) for i in range(3)]
        result = Simulation(nodes, 1).run()
        assert result.outputs == {0: 0, 1: 0, 2: 0}
        assert result.all_decided()


class TestCorruptionSemantics:
    def test_corrupt_node_stops_running(self):
        nodes = [EchoNode(i, 3, rounds=5) for i in range(3)]
        adversary = CorruptingAdversary(target=1, at_round=1)
        result = Simulation(nodes, 1, adversary=adversary, max_rounds=5).run()
        assert 1 in result.corrupt_set
        # Node 1's round-1 message was already staged (sent before the
        # reaction) but it sends nothing in rounds 2+.
        later = [h for h in nodes[0].heard if h[0] == 1 and h[1][2] >= 2]
        assert later == []

    def test_messages_sent_before_corruption_still_deliver(self):
        """No after-the-fact removal under the plain adaptive model."""
        nodes = [EchoNode(i, 3, rounds=5) for i in range(3)]
        adversary = CorruptingAdversary(target=1, at_round=1)
        Simulation(nodes, 1, adversary=adversary, max_rounds=5).run()
        assert (1, ("echo", 1, 1)) in nodes[0].heard

    def test_grant_reveals_state_and_node(self):
        nodes = [EchoNode(i, 2, rounds=4) for i in range(2)]
        adversary = CorruptingAdversary(target=0, at_round=0)
        Simulation(nodes, 1, adversary=adversary, max_rounds=4).run()
        assert adversary.grant.node is nodes[0]
        assert "heard" in adversary.grant.revealed_state

    def test_corrupt_outputs_excluded(self):
        nodes = [EchoNode(i, 3, rounds=2) for i in range(3)]
        adversary = CorruptingAdversary(target=2, at_round=0)
        result = Simulation(nodes, 1, adversary=adversary).run()
        assert 2 not in result.outputs
        assert set(result.outputs) == {0, 1}

    def test_double_corruption_rejected(self):
        class DoubleCorruptor(Adversary):
            def react(self, round_index, staged):
                if round_index == 0:
                    self.api.corrupt(1)
                    with pytest.raises(SimulationError):
                        self.api.corrupt(1)

        nodes = [EchoNode(i, 3, rounds=2) for i in range(3)]
        Simulation(nodes, 2, adversary=DoubleCorruptor()).run()


class TestCapabilityEnforcement:
    def test_removal_needs_strong_adaptivity(self):
        class Remover(Adversary):
            def react(self, round_index, staged):
                if staged:
                    self.api.corrupt(staged[0].sender)
                    self.api.remove(staged[0], recipient=None)

        nodes = [EchoNode(i, 3, rounds=3) for i in range(3)]
        with pytest.raises(CapabilityError):
            Simulation(nodes, 2, model=AdversaryModel.ADAPTIVE,
                       adversary=Remover()).run()

    def test_removal_works_when_strongly_adaptive(self):
        class Remover(Adversary):
            def react(self, round_index, staged):
                if round_index == 0:
                    target = staged[0]
                    self.api.corrupt(target.sender)
                    self.api.remove(target)

        nodes = [EchoNode(i, 3, rounds=3) for i in range(3)]
        Simulation(nodes, 2, model=AdversaryModel.STRONGLY_ADAPTIVE,
                   adversary=Remover()).run()
        removed_sender = 0  # first staged envelope is node 0's
        echoes_from_0 = [h for h in nodes[1].heard
                         if h[0] == removed_sender and h[1][2] == 0]
        assert echoes_from_0 == []

    def test_cannot_remove_honest_message(self):
        """Even a strongly adaptive adversary must corrupt the sender
        before erasing its message."""
        class BadRemover(Adversary):
            def react(self, round_index, staged):
                if staged:
                    self.api.remove(staged[0])

        nodes = [EchoNode(i, 3, rounds=2) for i in range(3)]
        with pytest.raises(CapabilityError):
            Simulation(nodes, 2, model=AdversaryModel.STRONGLY_ADAPTIVE,
                       adversary=BadRemover()).run()

    def test_cannot_inject_from_honest_node(self):
        class BadInjector(Adversary):
            def react(self, round_index, staged):
                self.api.inject(1, None, "forged")

        nodes = [EchoNode(i, 3, rounds=2) for i in range(3)]
        with pytest.raises(CapabilityError):
            Simulation(nodes, 2, adversary=BadInjector()).run()

    def test_injection_from_corrupt_node_delivers(self):
        class Injector(Adversary):
            def react(self, round_index, staged):
                if round_index == 0:
                    self.api.corrupt(2)
                if self.api.is_corrupt(2):
                    self.api.inject(2, None, ("forged", round_index))

        nodes = [EchoNode(i, 3, rounds=3) for i in range(3)]
        Simulation(nodes, 1, adversary=Injector()).run()
        assert (2, ("forged", 0)) in nodes[0].heard

    def test_static_adversary_cannot_corrupt_later(self):
        class LateCorruptor(Adversary):
            def react(self, round_index, staged):
                if round_index == 1:
                    self.api.corrupt(0)

        nodes = [EchoNode(i, 3, rounds=3) for i in range(3)]
        with pytest.raises(CapabilityError):
            Simulation(nodes, 2, model=AdversaryModel.STATIC,
                       adversary=LateCorruptor()).run()

    def test_static_adversary_corrupts_at_setup(self):
        class SetupCorruptor(Adversary):
            def on_setup(self):
                self.api.corrupt(0)

            def react(self, round_index, staged):
                return None

        nodes = [EchoNode(i, 3, rounds=2) for i in range(3)]
        result = Simulation(nodes, 2, model=AdversaryModel.STATIC,
                            adversary=SetupCorruptor()).run()
        assert result.corrupt_set == {0}


class NoisyInjector(Adversary):
    """Corrupts node 0 and injects from it at every hook that may."""

    def on_setup(self):
        self.api.corrupt(0)
        self.api.inject(0, None, ("noise", "setup"))

    def observe_deliveries(self, round_index, inboxes):
        self.api.inject(0, 1, ("noise", "deliveries", round_index))

    def react(self, round_index, staged):
        self.api.inject(0, None, ("noise", "react", round_index))


class PhaseLog:
    """An observer that keeps each stamp, recording no transcript."""

    def __init__(self):
        self.stamps = []

    def __call__(self, phase, sent):
        self.stamps.append((phase, list(sent)))


class TestObserver:
    @both_engines
    @pytest.mark.parametrize("network", (None, "lossy"))
    def test_stamps_joined_are_the_transcript(self, engine, network):
        def execute(observer):
            n, f = 7, 2
            instance = build_quadratic_ba(
                n, f, [i % 2 for i in range(n)], seed=3)
            return reference.run(
                instance, f, NoisyInjector(), engine=engine, seed=3,
                conditions=network and NETWORKS[network], observer=observer)

        log = PhaseLog()
        bare = execute(log)
        recorded = execute(None)
        joined = [envelope for _, sent in log.stamps for envelope in sent]
        # Every envelope staged exactly once, in staging (= id) order.
        assert [envelope.envelope_id for envelope in joined] == list(
            range(len(joined)))
        assert bare.transcript is None
        assert recorded.transcript == joined
        assert execute(Transcript()).transcript == joined
        assert reference.observe(replace(bare, transcript=joined)) == (
            reference.observe(recorded))
        # Each injection lands in its hook's stamp; the clock and the
        # sizing pass stage nothing.
        assert log.stamps[0] == ("other", joined[:1])
        for phase, sent in log.stamps[1:]:
            kinds = [envelope.payload[1] if envelope.sender == 0 else "honest"
                     for envelope in sent]
            assert kinds == {
                "network": [], "sizing": [], "other": ["react"],
                "step": ["deliveries"] + ["honest"] * (len(sent) - 1),
            }[phase]
