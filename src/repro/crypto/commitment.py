"""Commitment schemes.

Appendix D.2 requires a commitment scheme that is **perfectly binding** and
computationally hiding (under selective opening): each node's public key is
a commitment to its PRF secret key, and perfect binding is what makes the
knowledge extraction of Lemma 32 exact.  The ElGamal commitment
``com(v; s) = (g^s, h^s · g^v)`` has precisely these properties under DDH.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.groups import SchnorrGroup


@dataclass(frozen=True)
class ElGamalCommitment:
    """A perfectly binding ElGamal commitment ``(u, v) = (g^s, h^s g^m)``.

    ``u`` determines ``s`` uniquely (g generates a prime-order group) and
    then ``v`` determines ``g^m`` uniquely, so no commitment can be opened
    two ways — the *perfectly binding* property Appendix D.2 demands.
    """

    u: int
    v: int


class ElGamalCommitmentScheme:
    """ElGamal commitments to scalars over a Schnorr group."""

    def __init__(self, group: SchnorrGroup) -> None:
        self.group = group

    def commit(self, value: int, randomness: int) -> ElGamalCommitment:
        """Commit to scalar ``value`` with scalar ``randomness``."""
        group = self.group
        if not 0 <= value < group.q:
            raise ValueError("value must be a scalar")
        if not 0 < randomness < group.q:
            raise ValueError("randomness must be a nonzero scalar")
        return ElGamalCommitment(
            u=group.exp(group.g, randomness),
            v=group.mul(group.exp(group.h, randomness), group.exp(group.g, value)),
        )

    def commit_random(self, value: int, rng: random.Random) -> tuple[ElGamalCommitment, int]:
        randomness = self.group.random_scalar(rng)
        return self.commit(value, randomness), randomness

    def open(self, commitment: ElGamalCommitment, value: int, randomness: int) -> bool:
        try:
            return self.commit(value, randomness) == commitment
        except ValueError:
            return False

    def is_well_formed(self, commitment: ElGamalCommitment) -> bool:
        return (self.group.is_element(commitment.u)
                and self.group.is_element(commitment.v))
