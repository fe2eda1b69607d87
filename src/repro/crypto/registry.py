"""PKI key registry and ideal signatures.

The warmup protocols sign every message (Section 3.1 / Appendix C.1), and
Theorem 2 assumes a PKI established by trusted setup.  This module provides
that setup with ideal signatures: unforgeable by construction, since
signing requires a *capability object* handed to each node at setup, and
the registry records every issued signature.  The adversary can only sign
for a node whose capability it obtained by corrupting that node (the
corruption controller hands capabilities over on corruption).  This is the
"assuming ideal signatures" world the Appendix C proofs reason in, and it
is fast enough for thousands of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Any

from repro.crypto.hashing import domain_frame, frame, hash_objects
from repro.errors import ConfigurationError, ForgeryAttempt
from repro.serialization import canonical_bytes, type_tagged
from repro.types import NodeId

#: The domain frame of every ideal signature's digest.
_SIG_DOMAIN = domain_frame("ideal-sig")


def ledger_tag(node_id: NodeId, topic: Any) -> Any:
    """The type-tagged ``(node_id, topic)`` a :func:`ledger_holds` entry
    is filed under, or ``None`` for an unhashable (so mutable) topic: its
    content could change."""
    try:
        tag = (type_tagged(node_id), type_tagged(topic))
        hash(tag)
    except TypeError:
        return None
    return tag


def ledger_record(ledger: dict, auth: Any, tag: Any) -> Any:
    """Enter ``auth`` in a :func:`ledger_holds` table under a
    :func:`ledger_tag` (none for ``None``) and return it: the one writer
    of every issuer's ledger."""
    if tag is not None:
        ledger[id(auth)] = (auth, tag)
    return auth


def ledger_holds(ledger: dict, auth: Any, node_id: NodeId,
                 topic: Any) -> bool:
    """Whether an issuer's ``ledger`` — ``id(auth) -> (auth, type-tagged
    (node, topic))``, each entry pinning its auth, so no recycled id
    aliases — holds this very ``auth`` for ``(node_id, topic)``.  Tags
    compare as finely as canonical bytes (``True`` is not ``1``); never
    raises."""
    entry = ledger.get(id(auth))
    if entry is None or entry[0] is not auth:
        return False
    try:
        return entry[1] == (type_tagged(node_id), type_tagged(topic))
    except TypeError:  # an element's tag is unhashable: never issued
        return False


@dataclass(frozen=True)
class IdealSignature:
    """An unforgeable signature token issued by the ideal registry."""

    signer: NodeId
    digest: bytes


class SigningCapability:
    """The right to sign as one node.

    Handed to the node at setup; surrendered to the adversary only on
    corruption.  Holding the capability is the simulation analogue of
    holding the secret key.
    """

    def __init__(self, registry: "KeyRegistry", node_id: NodeId) -> None:
        self._registry = registry
        self.node_id = node_id

    def sign(self, message: Any) -> IdealSignature:
        return self._registry._sign(self, message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SigningCapability(node={self.node_id})"


class KeyRegistry:
    """Per-execution PKI: capabilities, signing, verification."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConfigurationError("registry needs at least one node")
        self.n = n
        self._capabilities = [SigningCapability(self, node) for node in range(n)]
        self._issued: set[tuple[NodeId, bytes]] = set()
        # The hashed frames, memoized per type_tagged form: a signer id's
        # prefix (domain frame + signer frame) and a topic's frame, so a
        # digest is one sha256 over their join.
        self._signer_prefixes: dict = {}
        self._topic_frames: dict = {}
        # The ledger_holds table of every signature issued on a hashable
        # message: the object a node signs is the one its recipients
        # verify, by identity and tag, with no digest.
        self._ledger: dict = {}

    # -- setup -----------------------------------------------------------
    def capability_for(self, node_id: NodeId) -> SigningCapability:
        """Hand out a node's signing capability (setup / corruption only)."""
        return self._capabilities[node_id]

    # -- signing ----------------------------------------------------------
    def _sign(self, capability: SigningCapability,
              message: Any) -> IdealSignature:
        if capability is not self._capabilities[capability.node_id]:
            raise ForgeryAttempt(
                f"counterfeit capability for node {capability.node_id}")
        node_id = capability.node_id
        digest, tag = self._expected_digest(node_id, message)
        self._issued.add((node_id, digest))
        return ledger_record(self._ledger,
                             IdealSignature(signer=node_id, digest=digest),
                             tag)

    def _expected_digest(self, node_id: NodeId, message: Any) -> tuple:
        """``hash_objects("ideal-sig", node_id, message)`` as one sha256
        over the signer's memoized prefix and the topic's memoized frame,
        and the ``(node, message)`` tag, or ``None`` for an unhashable (so
        mutable) message."""
        try:
            tag = (type_tagged(node_id), type_tagged(message))
            topic_frame = self._topic_frames.get(tag[1])
        except TypeError:
            return hash_objects("ideal-sig", node_id, message), None
        if topic_frame is None:
            topic_frame = self._topic_frames[tag[1]] = frame(
                canonical_bytes(message))
        prefix = self._signer_prefixes.get(tag[0])
        if prefix is None:
            prefix = self._signer_prefixes[tag[0]] = _SIG_DOMAIN + frame(
                canonical_bytes(node_id))
        return sha256(prefix + topic_frame).digest(), tag

    # -- verification ------------------------------------------------------
    def verify(self, node_id: NodeId, message: Any,
               signature: IdealSignature) -> bool:
        """Verify a signature on ``message`` by ``node_id``; never raises."""
        if not 0 <= node_id < self.n:
            return False
        if ledger_holds(self._ledger, signature, node_id, message):
            return True
        # Any other object — a copy, a token never issued — is checked in
        # full against the recomputed digest.
        if not isinstance(signature, IdealSignature):
            return False
        if signature.signer != node_id:
            return False
        expected = self._expected_digest(node_id, message)[0]
        return (signature.digest == expected
                and (node_id, signature.digest) in self._issued)
