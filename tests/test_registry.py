"""Tests for the PKI registry and ideal signatures.

An issued signature verifies by ledger identity and tag, an identity
memo a dense round leans on; the ledger tests below say when that
shortcut may vouch for a signature and when it must not."""

import pytest

from repro.crypto.registry import (
    IdealSignature,
    KeyRegistry,
    SigningCapability,
)
from repro.crypto.hashing import hash_objects
from repro.errors import ConfigurationError, ForgeryAttempt


class TestIdealMode:
    def test_sign_verify_roundtrip(self):
        registry = KeyRegistry(4)
        signature = registry.capability_for(1).sign(("Vote", 2, 0))
        assert registry.verify(1, ("Vote", 2, 0), signature)

    def test_wrong_message_rejected(self):
        registry = KeyRegistry(4)
        signature = registry.capability_for(1).sign("m")
        assert not registry.verify(1, "other", signature)

    def test_wrong_signer_rejected(self):
        registry = KeyRegistry(4)
        signature = registry.capability_for(1).sign("m")
        assert not registry.verify(2, "m", signature)

    def test_unissued_token_rejected(self):
        """A digest-correct token that was never issued via a capability
        does not verify: unforgeability by construction."""
        registry = KeyRegistry(4)
        forged = IdealSignature(
            signer=1, digest=hash_objects("ideal-sig", 1, "m"))
        assert not registry.verify(1, "m", forged)

    def test_digest_is_the_framed_hash_of_signer_and_message(self):
        """The memoized signer prefix and topic frame hash to exactly
        ``hash_objects("ideal-sig", node, message)``, warm or cold, and
        the bool/int twins of a signer or topic keep their own frames."""
        registry = KeyRegistry(4)
        for _ in range(2):
            for node in (0, 3, True):
                for message in (("Vote", 2, 0), ("Vote", 2, False), "m",
                                b"\x00", None, (("Propose", 1, 1), 7)):
                    node_id = 1 if node is True else node
                    digest = registry.capability_for(node_id).sign(
                        message).digest
                    assert digest == hash_objects("ideal-sig", node_id,
                                                  message), (node, message)
                    assert registry._expected_digest(node, message)[0] \
                        == hash_objects("ideal-sig", node, message)

    def test_counterfeit_capability_rejected(self):
        registry = KeyRegistry(4)
        fake = SigningCapability(registry, 1)
        with pytest.raises(ForgeryAttempt):
            fake.sign("m")

    def test_out_of_range_node_rejected(self):
        registry = KeyRegistry(4)
        signature = registry.capability_for(1).sign("m")
        assert not registry.verify(7, "m", signature)
        assert not registry.verify(-1, "m", signature)

    def test_unhashable_message_supported(self):
        registry = KeyRegistry(2)
        message = ["list", "is", "unhashable"]
        signature = registry.capability_for(0).sign(message)
        assert registry.verify(0, message, signature)


class TestIdealLedger:
    """An issued signature verifies by identity and tag; every other
    object takes the digest path.  Seeded mutants: drop the tag compare —
    kills the other-node/other-topic test; drop the ``is`` check — kills
    the stale-entry test."""

    def test_issued_signature_is_a_ledger_entry(self):
        registry = KeyRegistry(4)
        signature = registry.capability_for(1).sign(("Vote", 1, 1))
        assert registry._ledger[id(signature)][0] is signature
        assert registry.verify(1, ("Vote", 1, 1), signature)

    def test_equal_copy_verifies_through_the_digest(self):
        registry = KeyRegistry(4)
        signature = registry.capability_for(1).sign(("Vote", 1, 1))
        copy = IdealSignature(signer=signature.signer,
                              digest=signature.digest)
        assert id(copy) not in registry._ledger
        assert registry.verify(1, ("Vote", 1, 1), copy)
        assert not registry.verify(1, ("Vote", 1, 0), copy)

    def test_issued_signature_fails_for_another_node_or_topic(self):
        registry = KeyRegistry(4)
        signature = registry.capability_for(1).sign(("Vote", 1, 1))
        registry.capability_for(2).sign(("Vote", 1, 1))
        for node, message in ((2, ("Vote", 1, 1)), (1, ("Vote", 1, 0)),
                              (1, ("Vote", 2, 1)), (1, ("Commit", 1, 1)),
                              (1, ("Vote", 1, True)), (True, ("Vote", 1, 1))):
            assert not registry.verify(node, message, signature), (
                node, message)

    def test_bool_topic_is_not_its_int_twin(self):
        registry = KeyRegistry(4)
        signature = registry.capability_for(1).sign(("Vote", 1, True))
        assert registry.verify(1, ("Vote", 1, True), signature)
        assert not registry.verify(1, ("Vote", 1, 1), signature)

    def test_bool_signer_is_not_its_int_twin(self):
        """The signer's encoding is memoized per type-tagged id, so node
        1's signature must not verify for signer ``True`` — not by its
        ledger entry, nor by a copy that goes through the digest, in
        either order of warming the memo."""
        registry = KeyRegistry(4)
        signature = registry.capability_for(1).sign("m")
        copy = IdealSignature(signer=1, digest=signature.digest)
        assert not registry.verify(True, "m", copy)
        assert not registry.verify(True, "m", signature)
        assert registry.verify(1, "m", copy)
        assert registry.verify(1, "m", signature)
        assert not registry.verify(True, "m", copy)

    def test_a_stale_entry_vouches_for_no_other_object(self):
        """What a recycled ``id`` would look like were entries not
        pinned: the entry under a forged token's id holds an honest
        signature for the same node and message."""
        registry = KeyRegistry(4)
        honest = registry.capability_for(1).sign("m")
        forged = IdealSignature(signer=1, digest=b"\0" * 32)
        registry._ledger[id(forged)] = registry._ledger.pop(id(honest))
        assert not registry.verify(1, "m", forged)
        assert registry.verify(1, "m", honest)  # through the digest

    def test_unhashable_message_is_never_vouched_for_by_identity(self):
        registry = KeyRegistry(2)
        message = ["list", "is", "unhashable"]
        signature = registry.capability_for(0).sign(message)
        assert registry._ledger == {}
        assert registry.verify(0, ["list", "is", "unhashable"], signature)
        message.append("grown")
        assert not registry.verify(0, message, signature)


class TestConstruction:
    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            KeyRegistry(0)
