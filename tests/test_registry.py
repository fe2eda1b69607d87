"""Tests for the PKI registry and ideal signatures."""

import pytest

from repro.crypto.registry import (
    IDEAL_MODE,
    IdealSignature,
    KeyRegistry,
    REAL_MODE,
    SigningCapability,
)
from repro.crypto.hashing import hash_objects
from repro.errors import ConfigurationError, ForgeryAttempt


class TestIdealMode:
    def test_sign_verify_roundtrip(self):
        registry = KeyRegistry(4, IDEAL_MODE)
        signature = registry.capability_for(1).sign(("Vote", 2, 0))
        assert registry.verify(1, ("Vote", 2, 0), signature)

    def test_wrong_message_rejected(self):
        registry = KeyRegistry(4, IDEAL_MODE)
        signature = registry.capability_for(1).sign("m")
        assert not registry.verify(1, "other", signature)

    def test_wrong_signer_rejected(self):
        registry = KeyRegistry(4, IDEAL_MODE)
        signature = registry.capability_for(1).sign("m")
        assert not registry.verify(2, "m", signature)

    def test_unissued_token_rejected(self):
        """A digest-correct token that was never issued via a capability
        does not verify: unforgeability by construction."""
        registry = KeyRegistry(4, IDEAL_MODE)
        forged = IdealSignature(
            signer=1, digest=hash_objects("ideal-sig", 1, "m"))
        assert not registry.verify(1, "m", forged)

    def test_counterfeit_capability_rejected(self):
        registry = KeyRegistry(4, IDEAL_MODE)
        fake = SigningCapability(registry, 1)
        with pytest.raises(ForgeryAttempt):
            fake.sign("m")

    def test_out_of_range_node_rejected(self):
        registry = KeyRegistry(4, IDEAL_MODE)
        signature = registry.capability_for(1).sign("m")
        assert not registry.verify(7, "m", signature)
        assert not registry.verify(-1, "m", signature)

    def test_unhashable_message_supported(self):
        registry = KeyRegistry(2, IDEAL_MODE)
        message = ["list", "is", "unhashable"]
        signature = registry.capability_for(0).sign(message)
        assert registry.verify(0, message, signature)

    def test_signature_bits_positive(self):
        assert KeyRegistry(2, IDEAL_MODE).signature_bits() > 0


class TestIdealLedger:
    """An issued signature verifies by identity and tag; every other
    object takes the digest path.  Seeded mutants: drop the tag compare —
    kills the other-node/other-topic test; drop the ``is`` check — kills
    the stale-entry test."""

    def test_issued_signature_is_a_ledger_entry(self):
        registry = KeyRegistry(4, IDEAL_MODE)
        signature = registry.capability_for(1).sign(("Vote", 1, 1))
        assert registry._ledger[id(signature)][0] is signature
        assert registry.verify(1, ("Vote", 1, 1), signature)

    def test_equal_copy_verifies_through_the_digest(self):
        registry = KeyRegistry(4, IDEAL_MODE)
        signature = registry.capability_for(1).sign(("Vote", 1, 1))
        copy = IdealSignature(signer=signature.signer,
                              digest=signature.digest)
        assert id(copy) not in registry._ledger
        assert registry.verify(1, ("Vote", 1, 1), copy)
        assert not registry.verify(1, ("Vote", 1, 0), copy)

    def test_issued_signature_fails_for_another_node_or_topic(self):
        registry = KeyRegistry(4, IDEAL_MODE)
        signature = registry.capability_for(1).sign(("Vote", 1, 1))
        registry.capability_for(2).sign(("Vote", 1, 1))
        for node, message in ((2, ("Vote", 1, 1)), (1, ("Vote", 1, 0)),
                              (1, ("Vote", 2, 1)), (1, ("Commit", 1, 1)),
                              (1, ("Vote", 1, True)), (True, ("Vote", 1, 1))):
            assert not registry.verify(node, message, signature), (
                node, message)

    def test_bool_topic_is_not_its_int_twin(self):
        registry = KeyRegistry(4, IDEAL_MODE)
        signature = registry.capability_for(1).sign(("Vote", 1, True))
        assert registry.verify(1, ("Vote", 1, True), signature)
        assert not registry.verify(1, ("Vote", 1, 1), signature)

    def test_a_stale_entry_vouches_for_no_other_object(self):
        """What a recycled ``id`` would look like were entries not
        pinned: the entry under a forged token's id holds an honest
        signature for the same node and message."""
        registry = KeyRegistry(4, IDEAL_MODE)
        honest = registry.capability_for(1).sign("m")
        forged = IdealSignature(signer=1, digest=b"\0" * 32)
        registry._ledger[id(forged)] = registry._ledger.pop(id(honest))
        assert not registry.verify(1, "m", forged)
        assert registry.verify(1, "m", honest)  # through the digest

    def test_unhashable_message_is_never_vouched_for_by_identity(self):
        registry = KeyRegistry(2, IDEAL_MODE)
        message = ["list", "is", "unhashable"]
        signature = registry.capability_for(0).sign(message)
        assert registry._ledger == {}
        assert registry.verify(0, ["list", "is", "unhashable"], signature)
        message.append("grown")
        assert not registry.verify(0, message, signature)


class TestRealMode:
    def test_sign_verify_roundtrip(self, group):
        registry = KeyRegistry(3, REAL_MODE, group, seed=5)
        signature = registry.capability_for(2).sign(("ds", 0, 1))
        assert registry.verify(2, ("ds", 0, 1), signature)

    def test_cross_node_rejected(self, group):
        registry = KeyRegistry(3, REAL_MODE, group, seed=5)
        signature = registry.capability_for(2).sign("m")
        assert not registry.verify(1, "m", signature)

    def test_real_mode_keeps_an_empty_ledger(self, group):
        registry = KeyRegistry(3, REAL_MODE, group, seed=5)
        signature = registry.capability_for(2).sign(("Vote", 1, 1))
        assert registry.verify(2, ("Vote", 1, 1), signature)
        assert registry._ledger == {}

    def test_ideal_token_rejected_in_real_mode(self, group):
        registry = KeyRegistry(3, REAL_MODE, group, seed=5)
        assert not registry.verify(0, "m", IdealSignature(0, b"x" * 32))

    def test_signature_bits_scale_with_group(self, group):
        registry = KeyRegistry(2, REAL_MODE, group)
        assert registry.signature_bits() >= 2 * group.q.bit_length() - 16


class TestConstruction:
    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            KeyRegistry(0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            KeyRegistry(2, "quantum")

    def test_deterministic_keys_per_seed(self, group):
        r1 = KeyRegistry(3, REAL_MODE, group, seed=9)
        r2 = KeyRegistry(3, REAL_MODE, group, seed=9)
        assert r1.public_keys == r2.public_keys
