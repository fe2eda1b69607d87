"""Tests for Dolev–Strong broadcast."""

import pytest

from repro.adversaries import CrashAdversary
from repro.errors import ConfigurationError
from repro.harness import run_instance
from repro.protocols import build_dolev_strong
from repro.protocols.dolev_strong import ChainMsg
from repro.sim.adversary import Adversary


class EquivocatingSenderAdversary(Adversary):
    """Corrupts the sender and sends signed 0 to half, signed 1 to all."""

    def __init__(self, instance):
        super().__init__()
        self.registry = instance.nodes[0].registry
        self.sender = instance.nodes[0].sender
        self.grant = None

    def on_setup(self):
        self.grant = self.api.corrupt(self.sender)

    def react(self, round_index, staged):
        if round_index != 0:
            return
        capability = self.grant.signing_capability
        for bit, targets in ((0, range(1, self.api.n, 2)),
                             (1, range(2, self.api.n, 2))):
            signature = capability.sign(("ds", self.sender, bit))
            message = ChainMsg(bit=bit, chain=((self.sender, signature),))
            for target in targets:
                self.api.inject(self.sender, target, message)


class TestHonestBroadcast:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_validity(self, bit):
        n, f = 10, 4
        instance = build_dolev_strong(n, f, bit, seed=0)
        result = run_instance(instance, f, seed=0)
        assert set(result.honest_outputs) == {bit}
        assert result.broadcast_valid(0, bit)

    def test_terminates_after_f_plus_one_rounds(self):
        n, f = 10, 4
        instance = build_dolev_strong(n, f, 1, seed=0)
        result = run_instance(instance, f, seed=0)
        assert result.rounds_executed <= f + 3

    def test_crash_faults_tolerated(self):
        n, f = 10, 4
        instance = build_dolev_strong(n, f, 1, seed=0)
        result = run_instance(instance, f, CrashAdversary(victims=[5, 6, 7]),
                              seed=0)
        assert result.consistent()
        assert result.broadcast_valid(0, 1)

    def test_tolerates_nearly_all_corrupt(self):
        """Dolev–Strong works for any f < n (unlike the BA protocols)."""
        n, f = 6, 4
        instance = build_dolev_strong(n, f, 1, seed=0)
        result = run_instance(
            instance, f, CrashAdversary(victims=[1, 2, 3, 4]), seed=0)
        assert result.consistent()


class TestEquivocatingSender:
    def test_consistency_despite_split_sends(self):
        """The relay rule forces all honest nodes to the same extracted
        set, hence the same (default) output."""
        n, f = 10, 4
        instance = build_dolev_strong(n, f, 1, seed=3)
        adversary = EquivocatingSenderAdversary(instance)
        result = run_instance(instance, f, adversary, seed=3)
        assert result.consistent()

    def test_equivocation_detected_as_two_extracted_bits(self):
        n, f = 10, 4
        instance = build_dolev_strong(n, f, 1, seed=3)
        adversary = EquivocatingSenderAdversary(instance)
        run_instance(instance, f, adversary, seed=3)
        extracted_sizes = {len(node.extracted) for node in instance.nodes
                           if node.node_id != 0}
        assert extracted_sizes == {2}


class TestChainValidation:
    def test_forged_chain_rejected(self):
        n, f = 6, 2
        instance = build_dolev_strong(n, f, 1, seed=0)
        node = instance.nodes[2]
        bogus = ChainMsg(bit=0, chain=((0, "not-a-signature"),))
        assert not node._chain_valid(bogus, round_index=1)

    def test_chain_must_start_with_sender(self):
        n, f = 6, 2
        instance = build_dolev_strong(n, f, 1, seed=0)
        registry = instance.nodes[0].registry
        signature = registry.capability_for(3).sign(("ds", 0, 1))
        msg = ChainMsg(bit=1, chain=((3, signature),))
        assert not instance.nodes[2]._chain_valid(msg, round_index=1)

    def test_chain_length_must_cover_round(self):
        n, f = 6, 2
        instance = build_dolev_strong(n, f, 1, seed=0)
        registry = instance.nodes[0].registry
        signature = registry.capability_for(0).sign(("ds", 0, 1))
        msg = ChainMsg(bit=1, chain=((0, signature),))
        assert instance.nodes[2]._chain_valid(msg, round_index=1)
        assert not instance.nodes[2]._chain_valid(msg, round_index=2)

    def test_duplicate_signers_rejected(self):
        n, f = 6, 2
        instance = build_dolev_strong(n, f, 1, seed=0)
        registry = instance.nodes[0].registry
        signature = registry.capability_for(0).sign(("ds", 0, 1))
        msg = ChainMsg(bit=1, chain=((0, signature), (0, signature)))
        assert not instance.nodes[2]._chain_valid(msg, round_index=2)

    def test_configuration_bounds(self):
        with pytest.raises(ConfigurationError):
            build_dolev_strong(5, 5, 1)
