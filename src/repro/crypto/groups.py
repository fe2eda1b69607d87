"""Schnorr groups: prime-order subgroups of ``Z_p^*`` for a safe prime p.

Appendix D instantiates the paper's VRF from "standard bilinear group
assumptions" via the Groth–Ostrovsky–Sahai NIZK.  Bilinear pairings are
out of reach offline, so (as docs/ARCHITECTURE.md documents) we instantiate
the same compiler over an ordinary DDH-hard group: a prime-order-q subgroup of
``Z_p^*`` with ``p = 2q + 1`` a safe prime.  Everything the protocols
exercise — commitments to PRF keys, per-message evaluation proofs, public
verifiability — carries over unchanged.

Two parameter sets ship with the library:

- :data:`TEST_GROUP` — a 129-bit safe prime.  *Not secure*; fast enough to
  run full protocol executions with real proofs inside the test suite.
- :data:`MODP_2048_GROUP` — the RFC 3526 2048-bit MODP group (a genuine
  safe prime), for realistic sizing/benchmarks.

Group elements are plain ``int`` values in ``[1, p)``; scalars are ``int``
values in ``[0, q)``.  Keeping elements as integers lets the serialization
layer size them correctly with no wrapper classes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.hashing import hash_bytes, hash_to_int
from repro.serialization import canonical_bytes


def is_probable_prime(n: int, rounds: int = 40, rng: random.Random | None = None) -> bool:
    """Miller–Rabin primality test (used to validate group parameters)."""
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n % p == 0:
            return n == p
    rng = rng or random.Random(0xC0FFEE)
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class SchnorrGroup:
    """A prime-order subgroup of ``Z_p^*`` with two independent generators.

    ``g`` is the primary generator; ``h`` is a second generator with
    unknown discrete log relative to ``g`` (derived by hashing into the
    group), needed by the ElGamal commitment scheme.
    """

    name: str
    p: int
    q: int
    g: int
    h: int = field(default=0)

    def __post_init__(self) -> None:
        if self.p != 2 * self.q + 1:
            raise ValueError("expected a safe prime: p = 2q + 1")
        if not (1 < self.g < self.p) or pow(self.g, self.q, self.p) != 1:
            raise ValueError("g is not an order-q element")
        if self.h == 0:
            object.__setattr__(self, "h", self.hash_to_group(b"second-generator"))
        if not (1 < self.h < self.p) or pow(self.h, self.q, self.p) != 1:
            raise ValueError("h is not an order-q element")

    # -- scalar helpers -------------------------------------------------
    def random_scalar(self, rng: random.Random) -> int:
        """Uniform scalar in ``[1, q)`` (nonzero to avoid degenerate keys)."""
        return rng.randrange(1, self.q)

    # -- group operations ------------------------------------------------
    def exp(self, base: int, exponent: int) -> int:
        return pow(base, exponent % self.q, self.p)

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        return pow(a, self.p - 2, self.p)

    def is_element(self, a: int) -> bool:
        """Membership test for the order-q subgroup."""
        return 0 < a < self.p and pow(a, self.q, self.p) == 1

    def hash_to_group(self, data: bytes) -> int:
        """Hash into the subgroup by cofactor exponentiation.

        ``x ↦ x^2 mod p`` maps any ``x ∈ Z_p^*`` into the quadratic
        residues, which for a safe prime form exactly the order-q
        subgroup.  Crucially the discrete log of the result relative to
        ``g`` is unknown, which the DDH PRF/VRF requires.  Rejection-walk
        on the rare degenerate output.
        """
        counter = 0
        while True:
            digest = hash_bytes("hash-to-group", self.name.encode("ascii"),
                                counter.to_bytes(4, "big"), data)
            candidate = int.from_bytes(digest, "big") % self.p
            element = candidate * candidate % self.p
            if element not in (0, 1):
                return element
            counter += 1

    def hash_to_group_from_object(self, obj: Any) -> int:
        return self.hash_to_group(canonical_bytes(obj))

    def element_bits(self) -> int:
        """Size of one serialized group element in bits."""
        return 8 * ((self.p.bit_length() + 7) // 8)

    def validate(self, rounds: int = 20) -> None:
        """Probabilistically verify the group parameters (used in tests)."""
        if not is_probable_prime(self.p, rounds):
            raise ValueError("p is not prime")
        if not is_probable_prime(self.q, rounds):
            raise ValueError("q is not prime")

    def challenge_scalar(self, domain: str, *objects: Any) -> int:
        """Fiat–Shamir challenge derived from structured transcript data."""
        return hash_to_int(domain, canonical_bytes(tuple(objects))) % self.q


# 129-bit safe prime generated once and fixed: fast, NOT secure.
_TEST_Q = 0x9DE9EA6670D3DA1FC735DF5EF76986FD
TEST_GROUP = SchnorrGroup(
    name="test-129",
    p=2 * _TEST_Q + 1,
    q=_TEST_Q,
    g=4,
)

# RFC 3526 group 14 (2048-bit MODP).  p is a safe prime; 4 = 2^2 generates
# the order-q subgroup of quadratic residues.
_MODP_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF",
    16,
)
MODP_2048_GROUP = SchnorrGroup(
    name="modp-2048",
    p=_MODP_2048_P,
    q=(_MODP_2048_P - 1) // 2,
    g=4,
)
