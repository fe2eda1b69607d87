"""The adaptively-structured VRF of Appendix D.

The paper's real-world compiler (Appendix D.4) replaces each
``Fmine.mine(m)`` call with:

1. evaluate the node's PRF on ``m``:   ``rho = PRF_sk(m)``;
2. produce a NIZK that ``rho`` is consistent with the node's public key,
   which is a perfectly-binding commitment to ``sk`` published in the PKI;
3. succeed iff ``rho < D_p`` for the difficulty of the message type.

This module implements exactly that pipeline over a DDH group:

- secret key: PRF key ``k`` plus commitment randomness ``s``;
- public key: ElGamal commitment ``(g^s, h^s · g^k)``;
- evaluation on message ``m``: group element ``gamma = H1(m)^k`` (Appendix
  D's DDH PRF), hashed to the final pseudorandom value ``beta = H2(gamma)``
  used for the threshold comparison;
- proof: the committed-key sigma proof of :mod:`repro.crypto.dleq`.

Uniqueness — the property the lower-bound-evading protocols lean on — holds
because the commitment is perfectly binding: for a fixed public key and
message there is exactly one ``gamma`` any proof can verify against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.crypto.commitment import ElGamalCommitment, ElGamalCommitmentScheme
from repro.crypto.dleq import (
    CommittedKeyProof,
    prove_committed_key,
    verify_committed_key,
)
from repro.crypto.groups import SchnorrGroup
from repro.crypto.hashing import hash_objects_to_int

#: Number of bits of VRF output used for difficulty comparisons.
VRF_OUTPUT_BITS = 256


@dataclass(frozen=True)
class VrfPublicKey:
    """A node's VRF public key: a perfectly-binding commitment to its key."""

    commitment: ElGamalCommitment


@dataclass(frozen=True)
class VrfOutput:
    """The result of one VRF evaluation.

    ``beta`` is the pseudorandom integer in ``[0, 2^256)`` compared against
    the difficulty threshold; ``gamma`` and ``proof`` let anyone verify it
    against the evaluator's public key.
    """

    gamma: int
    beta: int
    proof: CommittedKeyProof


@dataclass(frozen=True)
class VrfKeyPair:
    group: SchnorrGroup
    key: int
    randomness: int
    public: VrfPublicKey

    @classmethod
    def generate(cls, group: SchnorrGroup, rng: random.Random) -> "VrfKeyPair":
        """Trusted-setup key generation (the PKI of Theorem 2)."""
        scheme = ElGamalCommitmentScheme(group)
        key = group.random_scalar(rng)
        commitment, randomness = scheme.commit_random(key, rng)
        return cls(group=group, key=key, randomness=randomness,
                   public=VrfPublicKey(commitment=commitment))

    def evaluate(self, message: Any, rng: random.Random) -> VrfOutput:
        """Evaluate the VRF on ``message`` and prove correctness."""
        group = self.group
        base = group.hash_to_group_from_object(message)
        gamma = group.exp(base, self.key)
        beta = hash_objects_to_int("vrf-output", gamma) % (1 << VRF_OUTPUT_BITS)
        proof = prove_committed_key(
            group, self.key, self.randomness, base, rng, context=message)
        return VrfOutput(gamma=gamma, beta=beta, proof=proof)


def verify_vrf(group: SchnorrGroup, public: VrfPublicKey, message: Any,
               output: VrfOutput) -> bool:
    """Verify a VRF output against a public key; never raises."""
    base = group.hash_to_group_from_object(message)
    if not verify_committed_key(group, public.commitment, base,
                                output.gamma, output.proof, context=message):
        return False
    expected_beta = hash_objects_to_int(
        "vrf-output", output.gamma) % (1 << VRF_OUTPUT_BITS)
    return expected_beta == output.beta
