"""PKI key registry and ideal signatures.

The warmup protocols sign every message (Section 3.1 / Appendix C.1), and
Theorem 2 assumes a PKI established by trusted setup.  This module provides
that setup in two interchangeable modes:

- **ideal** — signatures are unforgeable by construction: signing requires
  a *capability object* handed to each node at setup, and the registry
  records every issued signature.  The adversary can only sign for a node
  whose capability it obtained by corrupting that node (the corruption
  controller hands capabilities over on corruption).  This is the
  "assuming ideal signatures" mode the Appendix C proofs reason in, and it
  is fast enough for thousands of nodes.
- **real** — Schnorr signatures over a chosen group; capabilities wrap the
  actual secret keys.

Both modes expose the same interface, so protocols are agnostic to which
world they run in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

from repro.crypto.groups import SchnorrGroup, TEST_GROUP
from repro.crypto.hashing import hash_bytes, hash_objects
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrSignature
from repro.crypto.schnorr import sign as schnorr_sign
from repro.crypto.schnorr import verify as schnorr_verify
from repro.errors import ConfigurationError, ForgeryAttempt
from repro.rng import derive_rng
from repro.serialization import canonical_bytes, type_tagged
from repro.types import NodeId

IDEAL_MODE = "ideal"
REAL_MODE = "real"


@dataclass(frozen=True)
class IdealSignature:
    """An unforgeable signature token issued by the ideal registry."""

    signer: NodeId
    digest: bytes


Signature = Union[IdealSignature, SchnorrSignature]


class SigningCapability:
    """The right to sign as one node.

    Handed to the node at setup; surrendered to the adversary only on
    corruption.  Holding the capability is the simulation analogue of
    holding the secret key.
    """

    def __init__(self, registry: "KeyRegistry", node_id: NodeId) -> None:
        self._registry = registry
        self.node_id = node_id

    def sign(self, message: Any) -> Signature:
        return self._registry._sign(self, message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SigningCapability(node={self.node_id})"


class KeyRegistry:
    """Per-execution PKI: key generation, signing, verification."""

    def __init__(self, n: int, mode: str = IDEAL_MODE,
                 group: SchnorrGroup = TEST_GROUP,
                 seed: int = 0) -> None:
        if n < 1:
            raise ConfigurationError("registry needs at least one node")
        if mode not in (IDEAL_MODE, REAL_MODE):
            raise ConfigurationError(f"unknown registry mode {mode!r}")
        self.n = n
        self.mode = mode
        self.group = group
        rng = derive_rng(seed, "key-registry")
        self._capabilities = [SigningCapability(self, node) for node in range(n)]
        self._issued: set[tuple[NodeId, bytes]] = set()
        # canonical_bytes of a signed topic, per type_tagged(topic): every
        # signer of ("Vote", r, b) digests the same encoding.
        self._topic_bytes: dict = {}
        # id(signature) -> (signature, type-tagged (node, message)) per
        # ideal signature issued on a hashable message: the object a node
        # signs is the one its recipients verify, by identity and tag, with
        # no digest.  An entry pins its signature (no recycled id aliases);
        # the tag is as fine as the digest's encoding (True == 1 is not).
        self._ledger: dict = {}
        self._rng = rng
        if mode == REAL_MODE:
            self._keypairs = [SchnorrKeyPair.generate(group, rng) for _ in range(n)]
            self.public_keys = [kp.public for kp in self._keypairs]
        else:
            self._keypairs = []
            self.public_keys = []

    # -- setup -----------------------------------------------------------
    def capability_for(self, node_id: NodeId) -> SigningCapability:
        """Hand out a node's signing capability (setup / corruption only)."""
        return self._capabilities[node_id]

    # -- signing ----------------------------------------------------------
    def _sign(self, capability: SigningCapability, message: Any) -> Signature:
        if capability is not self._capabilities[capability.node_id]:
            raise ForgeryAttempt(
                f"counterfeit capability for node {capability.node_id}")
        node_id = capability.node_id
        if self.mode == REAL_MODE:
            return schnorr_sign(self._keypairs[node_id], message, self._rng)
        digest, tag = self._expected_digest(node_id, message)
        self._issued.add((node_id, digest))
        signature = IdealSignature(signer=node_id, digest=digest)
        if tag is not None:
            self._ledger[id(signature)] = (signature, tag)
        return signature

    def _expected_digest(self, node_id: NodeId, message: Any,
                         tag: Any = None) -> tuple:
        """``hash_objects("ideal-sig", node_id, message)`` with the topic
        encoded once per ``type_tagged`` form, and the ``(node, message)``
        tag, or ``None`` for an unhashable (so mutable) message."""
        try:
            if tag is None:
                tag = (type_tagged(node_id), type_tagged(message))
            encoded = self._topic_bytes.get(tag[1])
        except TypeError:
            return hash_objects("ideal-sig", node_id, message), None
        if encoded is None:
            encoded = self._topic_bytes[tag[1]] = canonical_bytes(message)
        return hash_bytes("ideal-sig", canonical_bytes(node_id), encoded), tag

    # -- verification ------------------------------------------------------
    def verify(self, node_id: NodeId, message: Any, signature: Signature) -> bool:
        """Verify a signature on ``message`` by ``node_id``; never raises."""
        if not 0 <= node_id < self.n:
            return False
        if self.mode == REAL_MODE:
            if not isinstance(signature, SchnorrSignature):
                return False
            return schnorr_verify(self.group, self.public_keys[node_id],
                                  message, signature)
        if not isinstance(signature, IdealSignature):
            return False
        try:
            tag = (type_tagged(node_id), type_tagged(message))
        except TypeError:
            tag = None  # an element's tag is unhashable: no ledger entry
        entry = self._ledger.get(id(signature))
        if entry is not None and entry[0] is signature and entry[1] == tag:
            return True
        # Any other object — a copy, a token never issued — is checked
        # against its recomputed digest.
        if signature.signer != node_id:
            return False
        expected = self._expected_digest(node_id, message, tag)[0]
        return (signature.digest == expected
                and (node_id, signature.digest) in self._issued)

    def signature_bits(self) -> int:
        """Nominal size of one signature for accounting purposes."""
        if self.mode == REAL_MODE:
            return 2 * 8 * ((self.group.q.bit_length() + 7) // 8)
        return 512  # 256-bit digest + signer id, matching a real scheme
