"""Tests for the round-specific eligibility baseline (± memory erasure)."""

import pytest

from repro.adversaries import AckEquivocationAdversary
from repro.errors import ConfigurationError, SignatureError
from repro.harness import run_instance, run_trials
from repro.protocols import build_round_eligibility
from repro.protocols.round_eligibility import (
    EpochKeyRegistry,
    EpochSignature,
    EpochSigningCapability,
    signing_slot,
)
from repro.types import SecurityParameters

PARAMS = SecurityParameters(lam=30, epsilon=0.1)


class TestEpochKeyRegistry:
    def test_sign_verify_roundtrip(self):
        registry = EpochKeyRegistry(4)
        signature = registry.capability_for(1).sign(3, ("ACK", 3, 0))
        assert registry.verify(1, 3, ("ACK", 3, 0), signature)

    def test_wrong_epoch_rejected(self):
        registry = EpochKeyRegistry(4)
        signature = registry.capability_for(1).sign(3, "m")
        assert not registry.verify(1, 4, "m", signature)

    def test_wrong_signer_rejected(self):
        registry = EpochKeyRegistry(4)
        signature = registry.capability_for(1).sign(3, "m")
        assert not registry.verify(2, 3, "m", signature)

    def test_unissued_token_rejected(self):
        registry = EpochKeyRegistry(4)
        from repro.crypto.hashing import hash_objects
        forged = EpochSignature(
            signer=1, epoch=3, digest=hash_objects("epoch-sig", 1, 3, "m"))
        assert not registry.verify(1, 3, "m", forged)

    def test_evolution_erases_past(self):
        registry = EpochKeyRegistry(4)
        capability = registry.capability_for(0)
        capability.sign(2, "m")
        capability.evolve(3)
        with pytest.raises(SignatureError):
            capability.sign(2, "again")

    def test_future_epochs_signable_after_evolution(self):
        registry = EpochKeyRegistry(4)
        capability = registry.capability_for(0)
        capability.evolve(5)
        signature = capability.sign(7, "m")
        assert registry.verify(0, 7, "m", signature)


class TestSigningSlots:
    def test_propose_and_ack_use_distinct_slots(self):
        """Proposing must not burn the same epoch's ACK key."""
        assert signing_slot(("Propose", 3, 1)) != signing_slot(("ACK", 3, 1))

    def test_slots_monotone_in_epoch(self):
        assert signing_slot(("ACK", 2, 0)) < signing_slot(("Propose", 3, 0))

    def test_slot_ignores_bit(self):
        assert signing_slot(("ACK", 3, 0)) == signing_slot(("ACK", 3, 1))


class TestProtocolRuns:
    @pytest.mark.parametrize("memory_erasure", [False, True])
    def test_honest_validity(self, memory_erasure):
        n, f = 120, 30
        instance = build_round_eligibility(
            n, f, [1] * n, seed=0, params=PARAMS, epochs=6,
            memory_erasure=memory_erasure)
        result = run_instance(instance, f, seed=0)
        assert set(result.honest_outputs) == {1}

    def test_requires_f_below_third(self):
        with pytest.raises(ConfigurationError):
            build_round_eligibility(90, 30, [0] * 90)


class TestEquivocationAttack:
    def _attack(self, memory_erasure, seeds=range(4)):
        n, f = 150, 45
        outcomes = []
        adversaries = []
        for seed in seeds:
            instance = build_round_eligibility(
                n, f, [1] * n, seed=seed, params=PARAMS, epochs=6,
                memory_erasure=memory_erasure)
            adversary = AckEquivocationAdversary(instance, reserve=60)
            result = run_instance(instance, f, adversary, seed=seed)
            outcomes.append(result.consistent() and result.agreement_valid())
            adversaries.append(adversary)
        return outcomes, adversaries

    def test_no_erasure_is_broken(self):
        """Remark 3.3: the same-round equivocation breaks the strawman."""
        outcomes, adversaries = self._attack(memory_erasure=False)
        assert not any(outcomes)
        assert all(adv.forged > 0 for adv in adversaries)

    def test_erasure_defends(self):
        """Chen–Micali's ephemeral keys block the second signature."""
        outcomes, adversaries = self._attack(memory_erasure=True)
        assert all(outcomes)
        assert all(adv.forged == 0 for adv in adversaries)
        assert all(adv.failed_forgeries > 0 for adv in adversaries)

    def test_attack_rejects_bit_specific_protocols(self):
        from repro.protocols import build_phase_king_subquadratic
        instance = build_phase_king_subquadratic(
            90, 20, [1] * 90, seed=0, params=PARAMS, epochs=4)
        with pytest.raises(ConfigurationError):
            AckEquivocationAdversary(instance)
