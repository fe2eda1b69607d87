"""Hash utilities shared by all cryptographic modules.

All hashing is SHA-256 with explicit domain separation: every use site
supplies a short ASCII domain tag so that, e.g., Fiat–Shamir challenges can
never collide with VRF output hashes even on identical payloads.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.serialization import canonical_bytes


def hash_bytes(domain: str, *parts: bytes) -> bytes:
    """SHA-256 over a domain tag and length-framed byte parts, hashed as
    one joined string (one ``update`` per frame costs more than the
    copy)."""
    tag = domain.encode("ascii")
    framed = [len(tag).to_bytes(2, "big"), tag]
    for part in parts:
        framed.append(len(part).to_bytes(8, "big"))
        framed.append(part)
    return hashlib.sha256(b"".join(framed)).digest()


def hash_to_int(domain: str, *parts: bytes) -> int:
    """SHA-256 interpreted as a big-endian integer in ``[0, 2^256)``."""
    return int.from_bytes(hash_bytes(domain, *parts), "big")


def hash_objects(domain: str, *objects: Any) -> bytes:
    """Hash arbitrary structured objects via their canonical encoding."""
    return hash_bytes(domain, *(canonical_bytes(obj) for obj in objects))


def hash_objects_to_int(domain: str, *objects: Any) -> int:
    return int.from_bytes(hash_objects(domain, *objects), "big")
