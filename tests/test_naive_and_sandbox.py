"""Tests for the naive lower-bound targets and the adversary sandbox."""

import pytest

from repro.adversaries import SandboxRunner
from repro.errors import ConfigurationError
from repro.harness import run_instance
from repro.protocols import build_naive_broadcast
from repro.protocols.naive import NaiveBit, NaiveBroadcastNode
from repro.sim.adversary import Adversary
from repro.types import AdversaryModel


class TestNaiveBroadcast:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_all_honest_correctness(self, bit):
        n, f = 20, 8
        instance = build_naive_broadcast(n, f, bit)
        result = run_instance(instance, f, seed=0)
        assert set(result.honest_outputs) == {bit}

    def test_cheap_message_count(self):
        """The protocol spends O(n·relay_width) unicasts — far below the
        (f/2)² Dolev–Reischuk budget for f = Θ(n)."""
        n, f = 40, 16
        instance = build_naive_broadcast(n, f, 0, relay_width=2)
        result = run_instance(instance, f, seed=0)
        assert result.metrics.honest_unicast_count <= n - 1 + 2 * n
        assert result.metrics.honest_multicast_count == 0

    def test_silent_node_outputs_default(self):
        from repro.adversaries import CrashAdversary
        n, f = 10, 4
        instance = build_naive_broadcast(n, f, 0, default_when_silent=1)
        # Crash the sender before it speaks: nobody hears anything.
        result = run_instance(instance, f, CrashAdversary(victims=[0]),
                              seed=0)
        assert set(result.honest_outputs) == {1}

    def test_deterministic(self):
        n, f = 20, 8
        r1 = run_instance(build_naive_broadcast(n, f, 1), f, seed=0)
        r2 = run_instance(build_naive_broadcast(n, f, 1), f, seed=0)
        assert r1.outputs == r2.outputs

    def test_rejects_bad_f(self):
        with pytest.raises(ConfigurationError):
            build_naive_broadcast(5, 5, 1)


class TestSandboxRunner:
    def test_sandboxed_node_keeps_following_protocol(self):
        """A corrupted-but-sandboxed relay behaves exactly honestly."""
        class SandboxEverything(Adversary):
            def __init__(self, victims):
                super().__init__()
                self.victims = victims

            def bind(self, api):
                self.sandbox = SandboxRunner(api)
                super().bind(api)

            def on_setup(self):
                for victim in self.victims:
                    self.sandbox.adopt(self.api.corrupt(victim))

            def observe_deliveries(self, round_index, inboxes):
                self.sandbox.step(inboxes)

            def react(self, round_index, staged):
                return None

        n, f = 20, 8
        instance = build_naive_broadcast(n, f, 1)
        adversary = SandboxEverything(victims=[3, 4, 5])
        result = run_instance(instance, f, adversary, seed=0)
        # Corrupt-but-honest-behaving nodes change nothing for the rest.
        assert set(result.honest_outputs) == {1}

    def test_send_filter_blocks_selected_edges(self):
        class MuteTowardsVictim(Adversary):
            def __init__(self, victims, blocked):
                super().__init__()
                self.victims = victims
                self.blocked = blocked

            def bind(self, api):
                self.sandbox = SandboxRunner(api)
                super().bind(api)

            def on_setup(self):
                for victim in self.victims:
                    self.sandbox.adopt(self.api.corrupt(victim))

            def observe_deliveries(self, round_index, inboxes):
                self.sandbox.step(
                    inboxes,
                    send_filter=lambda node, payload: {self.blocked})

            def react(self, round_index, staged):
                return None

        class MulticastingSender(NaiveBroadcastNode):
            """Sends its round-0 bit as one multicast, not n - 1 unicasts."""

            def on_round(self, ctx):
                if ctx.round == 0:
                    self.heard = self.sender_input
                    ctx.multicast(NaiveBit(bit=self.heard))

        n, f = 10, 4
        for multicast in (False, True):
            # Sender corrupted-but-honest except it never talks to node 7;
            # with no relays, node 7 hears nothing and outputs the default.
            instance = build_naive_broadcast(n, f, 0, relay_width=0,
                                             default_when_silent=1)
            if multicast:
                instance.nodes[0] = MulticastingSender(
                    0, n, 0, 0, relay_width=0, total_rounds=4)
            adversary = MuteTowardsVictim(victims=[0], blocked=7)
            # Withholding needs no after-the-fact removal: the adaptive
            # model suffices.
            result = run_instance(instance, f, adversary,
                                  model=AdversaryModel.ADAPTIVE, seed=0)
            assert result.outputs[7] == 1
            assert all(result.outputs[node] == 0
                       for node in result.forever_honest if node != 7)
            # The withheld multicast is still one corrupt multicast.
            assert result.metrics.corrupt_multicast_count == int(multicast)

    def test_inbox_filter_makes_node_deaf(self):
        class DeafVictims(Adversary):
            def __init__(self, victims):
                super().__init__()
                self.victims = victims

            def bind(self, api):
                self.sandbox = SandboxRunner(api)
                super().bind(api)

            def on_setup(self):
                for victim in self.victims:
                    self.sandbox.adopt(self.api.corrupt(victim))

            def observe_deliveries(self, round_index, inboxes):
                self.sandbox.step(
                    inboxes, inbox_filter=lambda node, delivery: False)

            def react(self, round_index, staged):
                return None

        n, f = 10, 4
        instance = build_naive_broadcast(n, f, 0, default_when_silent=1)
        adversary = DeafVictims(victims=[3])
        run_instance(instance, f, adversary, seed=0)
        # The deaf node never heard the sender: its own (sandboxed) state
        # reflects silence.
        assert instance.nodes[3].heard is None
