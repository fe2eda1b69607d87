"""Non-interactive zero-knowledge proofs (sigma protocols, Fiat–Shamir).

Appendix D compiles the ``Fmine``-hybrid protocols into the real world with
a NIZK for the language L (Appendix D.3):

    (stmt, w) ∈ L  iff  stmt = (ρ, c, crs, m), w = (sk, s),
                        c = com(crs, sk, s)  and  PRF_sk(m) = ρ.

With PRF := the DDH PRF and com := the ElGamal commitment, this language
becomes a conjunction of three discrete-log relations, provable with a
standard two-witness sigma protocol (:func:`prove_committed_key`,
:func:`verify_committed_key`), Fiat–Shamir compiled (random-oracle model);
docs/ARCHITECTURE.md (``crypto/``) documents this substitution for the
paper's bilinear-group NIZK.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.crypto.commitment import ElGamalCommitment
from repro.crypto.groups import SchnorrGroup


@dataclass(frozen=True)
class CommittedKeyProof:
    """Proof for the VRF language: the evaluation matches the committed key.

    Statement: public key ``(U, V) = (g^s, h^s · g^k)`` (perfectly binding
    ElGamal commitment to the PRF key ``k``) and evaluation ``rho = base^k``.
    Witness: ``(k, s)``.
    """

    challenge: int
    response_key: int
    response_rand: int


def prove_committed_key(group: SchnorrGroup, key: int, randomness: int,
                        base: int, rng: random.Random,
                        context: Any = None) -> CommittedKeyProof:
    """Prove that ``rho = base^key`` for the key inside the commitment."""
    commitment = ElGamalCommitment(
        u=group.exp(group.g, randomness),
        v=group.mul(group.exp(group.h, randomness), group.exp(group.g, key)),
    )
    rho = group.exp(base, key)
    mask_key = group.random_scalar(rng)
    mask_rand = group.random_scalar(rng)
    t_u = group.exp(group.g, mask_rand)
    t_v = group.mul(group.exp(group.h, mask_rand), group.exp(group.g, mask_key))
    t_rho = group.exp(base, mask_key)
    challenge = group.challenge_scalar(
        "committed-key-vrf", commitment.u, commitment.v, base, rho,
        t_u, t_v, t_rho, context)
    return CommittedKeyProof(
        challenge=challenge,
        response_key=(mask_key + challenge * key) % group.q,
        response_rand=(mask_rand + challenge * randomness) % group.q,
    )


def verify_committed_key(group: SchnorrGroup, commitment: ElGamalCommitment,
                         base: int, rho: int, proof: CommittedKeyProof,
                         context: Any = None) -> bool:
    """Verify a committed-key VRF proof; never raises."""
    for element in (commitment.u, commitment.v, base, rho):
        if not group.is_element(element):
            return False
    scalars = (proof.challenge, proof.response_key, proof.response_rand)
    if not all(0 <= value < group.q for value in scalars):
        return False
    c = proof.challenge
    t_u = group.mul(group.exp(group.g, proof.response_rand),
                    group.inv(group.exp(commitment.u, c)))
    t_v = group.mul(
        group.mul(group.exp(group.h, proof.response_rand),
                  group.exp(group.g, proof.response_key)),
        group.inv(group.exp(commitment.v, c)),
    )
    t_rho = group.mul(group.exp(base, proof.response_key),
                      group.inv(group.exp(rho, c)))
    expected = group.challenge_scalar(
        "committed-key-vrf", commitment.u, commitment.v, base, rho,
        t_u, t_v, t_rho, context)
    return expected == c
