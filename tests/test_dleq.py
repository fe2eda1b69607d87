"""Tests for the committed-key sigma proof."""

from dataclasses import replace

import pytest

from repro.crypto.commitment import ElGamalCommitment, ElGamalCommitmentScheme
from repro.crypto.dleq import (
    CommittedKeyProof,
    prove_committed_key,
    verify_committed_key,
)


class TestCommittedKeyProof:
    def _setup(self, group, rng):
        scheme = ElGamalCommitmentScheme(group)
        key = group.random_scalar(rng)
        commitment, randomness = scheme.commit_random(key, rng)
        base = group.hash_to_group(b"topic")
        return key, randomness, commitment, base

    def test_completeness(self, group, rng):
        key, randomness, commitment, base = self._setup(group, rng)
        rho = group.exp(base, key)
        proof = prove_committed_key(group, key, randomness, base, rng)
        assert verify_committed_key(group, commitment, base, rho, proof)

    def test_soundness_wrong_evaluation(self, group, rng):
        key, randomness, commitment, base = self._setup(group, rng)
        proof = prove_committed_key(group, key, randomness, base, rng)
        wrong_rho = group.exp(base, (key + 1) % group.q)
        assert not verify_committed_key(group, commitment, base, wrong_rho,
                                        proof)

    def test_soundness_wrong_commitment(self, group, rng):
        key, randomness, commitment, base = self._setup(group, rng)
        rho = group.exp(base, key)
        proof = prove_committed_key(group, key, randomness, base, rng)
        scheme = ElGamalCommitmentScheme(group)
        other_commitment, _ = scheme.commit_random(group.random_scalar(rng),
                                                   rng)
        assert not verify_committed_key(group, other_commitment, base, rho,
                                        proof)

    def test_context_binding(self, group, rng):
        key, randomness, commitment, base = self._setup(group, rng)
        rho = group.exp(base, key)
        proof = prove_committed_key(group, key, randomness, base, rng,
                                    context=("Vote", 1, 0))
        assert verify_committed_key(group, commitment, base, rho, proof,
                                    context=("Vote", 1, 0))
        assert not verify_committed_key(group, commitment, base, rho, proof,
                                        context=("Vote", 1, 1))

    @pytest.mark.parametrize(
        "field_name", ["challenge", "response_key", "response_rand"])
    def test_tampering_any_scalar_rejected(self, group, rng, field_name):
        key, randomness, commitment, base = self._setup(group, rng)
        rho = group.exp(base, key)
        proof = prove_committed_key(group, key, randomness, base, rng)
        tampered = replace(
            proof, **{field_name: (getattr(proof, field_name) + 1) % group.q})
        assert not verify_committed_key(group, commitment, base, rho,
                                        tampered)

    @pytest.mark.parametrize("sign", [1, -1], ids=["plus-q", "minus-q"])
    @pytest.mark.parametrize(
        "field_name", ["challenge", "response_key", "response_rand"])
    def test_out_of_range_scalars_rejected(self, group, rng, field_name,
                                           sign):
        """A response shifted by ``±q`` is the same exponent mod q, so
        only the range check rejects it; a shifted challenge also misses
        the recomputed hash."""
        key, randomness, commitment, base = self._setup(group, rng)
        rho = group.exp(base, key)
        proof = prove_committed_key(group, key, randomness, base, rng)
        bad = replace(
            proof, **{field_name: getattr(proof, field_name) + sign * group.q})
        assert not verify_committed_key(group, commitment, base, rho, bad)

    def test_wrong_base_rejected(self, group, rng):
        """A proof for one message's base vouches for no other's."""
        key, randomness, commitment, base = self._setup(group, rng)
        proof = prove_committed_key(group, key, randomness, base, rng)
        other = group.hash_to_group(b"other topic")
        assert not verify_committed_key(group, commitment, other,
                                        group.exp(other, key), proof)

    def test_proofs_are_randomized_and_each_verifies(self, group, rng):
        key, randomness, commitment, base = self._setup(group, rng)
        rho = group.exp(base, key)
        proofs = {prove_committed_key(group, key, randomness, base, rng)
                  for _ in range(3)}
        assert len(proofs) == 3
        assert all(verify_committed_key(group, commitment, base, rho, proof)
                   for proof in proofs)

    def _forged(self, group, rng, slot, zero):
        """A proof for the honest statement with ``slot`` set to 0 (if
        ``zero``) or negated — ``p - x`` lies outside the order-q
        subgroup — that every check but the subgroup guard accepts.

        A 0 makes its slot's recomputed commitment term 0, so the forger
        hashes 0 there; a negated element cancels under even exponents,
        so the forger retries its masks until the challenge and the key
        response are even.
        """
        key, randomness, commitment, base = self._setup(group, rng)
        statement = {"u": commitment.u, "v": commitment.v, "base": base,
                     "rho": group.exp(base, key)}
        statement[slot] = 0 if zero else group.p - statement[slot]
        while True:
            mask_key = group.random_scalar(rng)
            mask_rand = group.random_scalar(rng)
            terms = {"u": group.exp(group.g, mask_rand),
                     "v": group.mul(group.exp(group.h, mask_rand),
                                    group.exp(group.g, mask_key)),
                     "rho": group.exp(base, mask_key)}
            if zero:
                terms["rho" if slot == "base" else slot] = 0
            challenge = group.challenge_scalar(
                "committed-key-vrf", *statement.values(), *terms.values(),
                None)
            proof = CommittedKeyProof(
                challenge=challenge,
                response_key=(mask_key + challenge * key) % group.q,
                response_rand=(mask_rand + challenge * randomness) % group.q)
            if zero or (challenge % 2 == 0 and proof.response_key % 2 == 0):
                return statement, proof

    @pytest.mark.parametrize("zero", [True, False],
                             ids=["zero", "outside-subgroup"])
    @pytest.mark.parametrize("slot", ["u", "v", "base", "rho"])
    def test_elements_outside_the_subgroup_are_rejected(self, group, rng,
                                                        slot, zero):
        """The guard Byzantine proofs meet: without it, each forgery
        here verifies, and a second ``gamma`` passes for one key."""
        statement, proof = self._forged(group, rng, slot, zero)
        assert not group.is_element(statement[slot])
        commitment = ElGamalCommitment(statement["u"], statement["v"])
        assert verify_committed_key(
            group, commitment, statement["base"], statement["rho"],
            proof) is False
