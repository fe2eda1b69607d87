"""Tests for the committed-key VRF (Appendix D compiler)."""

import random
from dataclasses import replace

import pytest

from repro.crypto.commitment import ElGamalCommitmentScheme
from repro.crypto.hashing import hash_objects_to_int
from repro.crypto.vrf import (
    VRF_OUTPUT_BITS,
    VrfKeyPair,
    VrfOutput,
    VrfPublicKey,
    verify_vrf,
)


class TestVrfCorrectness:
    def test_evaluate_verify_roundtrip(self, group, rng):
        keypair = VrfKeyPair.generate(group, rng)
        output = keypair.evaluate(("Vote", 1, 0), rng)
        assert verify_vrf(group, keypair.public, ("Vote", 1, 0), output)

    def test_wrong_message_rejected(self, group, rng):
        keypair = VrfKeyPair.generate(group, rng)
        output = keypair.evaluate(("Vote", 1, 0), rng)
        assert not verify_vrf(group, keypair.public, ("Vote", 1, 1), output)

    def test_wrong_key_rejected(self, group, rng):
        alice = VrfKeyPair.generate(group, rng)
        bob = VrfKeyPair.generate(group, rng)
        output = alice.evaluate("m", rng)
        assert not verify_vrf(group, bob.public, "m", output)

    def test_beta_in_range(self, group, rng):
        keypair = VrfKeyPair.generate(group, rng)
        output = keypair.evaluate("m", rng)
        assert 0 <= output.beta < 2**256

    def test_tampered_beta_rejected(self, group, rng):
        keypair = VrfKeyPair.generate(group, rng)
        output = keypair.evaluate("m", rng)
        forged = replace(output, beta=(output.beta + 1) % 2**256)
        assert not verify_vrf(group, keypair.public, "m", forged)

    def test_tampered_gamma_rejected(self, group, rng):
        keypair = VrfKeyPair.generate(group, rng)
        output = keypair.evaluate("m", rng)
        forged = replace(output, gamma=group.exp(output.gamma, 2))
        assert not verify_vrf(group, keypair.public, "m", forged)


class TestVrfUniqueness:
    def test_deterministic_evaluation(self, group, rng):
        """The pseudorandom value is a function of (key, message) even
        though proofs are randomized — the uniqueness property the
        bit-specific eligibility argument relies on."""
        keypair = VrfKeyPair.generate(group, rng)
        out1 = keypair.evaluate("m", rng)
        out2 = keypair.evaluate("m", rng)
        assert out1.gamma == out2.gamma
        assert out1.beta == out2.beta
        # Both (independently randomized) proofs verify.
        assert verify_vrf(group, keypair.public, "m", out1)
        assert verify_vrf(group, keypair.public, "m", out2)

    def test_no_grinding_another_beta(self, group, rng):
        """A proof cannot vouch for a different gamma: perfect binding of
        the committed key pins the unique evaluation."""
        keypair = VrfKeyPair.generate(group, rng)
        out = keypair.evaluate("m", rng)
        other = VrfKeyPair.generate(group, rng)
        foreign = other.evaluate("m", rng)
        mixed = VrfOutput(gamma=foreign.gamma, beta=foreign.beta,
                          proof=out.proof)
        assert not verify_vrf(group, keypair.public, "m", mixed)

    def test_distinct_messages_distinct_outputs(self, group, rng):
        keypair = VrfKeyPair.generate(group, rng)
        betas = {keypair.evaluate(("topic", i), rng).beta for i in range(20)}
        assert len(betas) == 20


class TestVrfPseudorandomness:
    def test_beta_roughly_uniform(self, group, rng):
        keypair = VrfKeyPair.generate(group, rng)
        below_half = sum(
            keypair.evaluate(("m", i), rng).beta < 2**255 for i in range(200))
        assert 60 < below_half < 140

    def test_keys_give_independent_outputs(self, group, rng):
        k1 = VrfKeyPair.generate(group, rng)
        k2 = VrfKeyPair.generate(group, rng)
        assert k1.evaluate("m", rng).beta != k2.evaluate("m", rng).beta


class TestVrfKeyGeneration:
    def test_key_is_a_nonzero_scalar(self, group, rng):
        keypair = VrfKeyPair.generate(group, rng)
        assert 0 < keypair.key < group.q
        assert 0 < keypair.randomness < group.q

    def test_public_key_opens_to_the_key(self, group, rng):
        """Corrupting a node reveals ``(key, randomness)``, and that pair
        is the one opening of its published commitment."""
        keypair = VrfKeyPair.generate(group, rng)
        scheme = ElGamalCommitmentScheme(group)
        assert scheme.open(keypair.public.commitment, keypair.key,
                           keypair.randomness)
        assert not scheme.open(keypair.public.commitment,
                               (keypair.key + 1) % group.q,
                               keypair.randomness)

    def test_public_key_is_well_formed(self, group, rng):
        keypair = VrfKeyPair.generate(group, rng)
        assert ElGamalCommitmentScheme(group).is_well_formed(
            keypair.public.commitment)

    def test_deterministic_per_setup_seed(self, group):
        assert VrfKeyPair.generate(group, random.Random(5)) == \
            VrfKeyPair.generate(group, random.Random(5))


class TestVrfEvaluationIsTheDdhPrf:
    """``gamma = H1(m)^k`` is Appendix D's DDH PRF under the committed
    key, and ``beta = H2(gamma)`` is what eligibility compares."""

    def test_gamma_is_the_message_base_to_the_key(self, group, rng):
        keypair = VrfKeyPair.generate(group, rng)
        base = group.hash_to_group_from_object(("Vote", 1, 0))
        assert keypair.evaluate(("Vote", 1, 0), rng).gamma == group.exp(
            base, keypair.key)

    def test_gamma_is_a_group_element(self, group, rng):
        keypair = VrfKeyPair.generate(group, rng)
        assert group.is_element(keypair.evaluate("hello", rng).gamma)

    def test_gamma_message_sensitivity(self, group, rng):
        keypair = VrfKeyPair.generate(group, rng)
        assert keypair.evaluate("a", rng).gamma != \
            keypair.evaluate("b", rng).gamma

    def test_gamma_key_sensitivity(self, group, rng):
        k1 = VrfKeyPair.generate(group, rng)
        k2 = VrfKeyPair.generate(group, rng)
        assert k1.evaluate("m", rng).gamma != k2.evaluate("m", rng).gamma

    def test_beta_is_the_output_hash_of_gamma(self, group, rng):
        output = VrfKeyPair.generate(group, rng).evaluate("m", rng)
        assert output.beta == hash_objects_to_int(
            "vrf-output", output.gamma) % (1 << VRF_OUTPUT_BITS)

    def test_only_the_proof_depends_on_the_prover_coins(self, group, rng):
        keypair = VrfKeyPair.generate(group, rng)
        out1 = keypair.evaluate("m", random.Random(1))
        out2 = keypair.evaluate("m", random.Random(2))
        assert (out1.gamma, out1.beta) == (out2.gamma, out2.beta)
        assert out1.proof != out2.proof

    @pytest.mark.parametrize("message", [
        "m", b"m", ("Vote", 1, 0), 7, None, ("ACK", (2, "x"), b"\x00")])
    def test_any_canonically_encoded_message_roundtrips(self, group, rng,
                                                        message):
        keypair = VrfKeyPair.generate(group, rng)
        assert verify_vrf(group, keypair.public, message,
                          keypair.evaluate(message, rng))


def _malformed(group, public, output):
    p, q = group.p, group.q
    return {
        "gamma-zero": (public, replace(output, gamma=0)),
        "gamma-outside-subgroup": (
            public, replace(output, gamma=p - output.gamma)),
        "gamma-at-modulus": (public, replace(output, gamma=p)),
        "challenge-at-order": (public, replace(
            output, proof=replace(output.proof, challenge=q))),
        "negative-response": (public, replace(
            output, proof=replace(output.proof, response_key=-1))),
        "key-commitment-zero": (VrfPublicKey(commitment=replace(
            public.commitment, u=0)), output),
    }


class TestVerifyVrfNeverRaises:
    @pytest.mark.parametrize("case", [
        "gamma-zero", "gamma-outside-subgroup", "gamma-at-modulus",
        "challenge-at-order", "negative-response", "key-commitment-zero"])
    def test_malformed_output_is_rejected(self, group, rng, case):
        keypair = VrfKeyPair.generate(group, rng)
        output = keypair.evaluate("m", rng)
        public, forged = _malformed(group, keypair.public, output)[case]
        assert verify_vrf(group, public, "m", forged) is False
