"""Schnorr signatures over a Schnorr group (Fiat–Shamir compiled).

The warmup protocols (Section 3.1, Appendix C.1) require "all messages are
signed".  In the fast simulation mode the ideal registry of
:mod:`repro.crypto.registry` plays this role; this module provides the real
scheme so that the compiled protocols can run end-to-end with genuine
cryptography.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.crypto.groups import SchnorrGroup


@dataclass(frozen=True)
class SchnorrSignature:
    """A Schnorr signature ``(c, s)`` with ``c`` the Fiat–Shamir challenge."""

    challenge: int
    response: int


@dataclass(frozen=True)
class SchnorrKeyPair:
    group: SchnorrGroup
    secret: int
    public: int

    @classmethod
    def generate(cls, group: SchnorrGroup, rng: random.Random) -> "SchnorrKeyPair":
        secret = group.random_scalar(rng)
        return cls(group=group, secret=secret, public=group.exp(group.g, secret))


def sign(keypair: SchnorrKeyPair, message: Any, rng: random.Random) -> SchnorrSignature:
    """Sign ``message`` (any canonically-encodable object)."""
    group = keypair.group
    nonce = group.random_scalar(rng)
    commitment = group.exp(group.g, nonce)
    challenge = group.challenge_scalar(
        "schnorr-sig", keypair.public, commitment, message)
    response = (nonce + challenge * keypair.secret) % group.q
    return SchnorrSignature(challenge=challenge, response=response)


def verify(group: SchnorrGroup, public: int, message: Any,
           signature: SchnorrSignature) -> bool:
    """Verify a Schnorr signature; returns False rather than raising."""
    if not group.is_element(public):
        return False
    if not (0 <= signature.challenge < group.q and 0 <= signature.response < group.q):
        return False
    # Recompute the commitment: R = g^s * pk^{-c}.
    commitment = group.mul(
        group.exp(group.g, signature.response),
        group.inv(group.exp(public, signature.challenge)),
    )
    expected = group.challenge_scalar("schnorr-sig", public, commitment, message)
    return expected == signature.challenge
