"""Hash utilities shared by all cryptographic modules.

All hashing is SHA-256 with explicit domain separation: every use site
supplies a short ASCII domain tag so that, e.g., Fiat–Shamir challenges can
never collide with VRF output hashes even on identical payloads.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any

from repro.serialization import canonical_bytes


@functools.lru_cache(maxsize=None)
def domain_frame(domain: str) -> bytes:
    """A domain tag as :func:`hash_bytes` frames it: 2-byte length, tag."""
    tag = domain.encode("ascii")
    return len(tag).to_bytes(2, "big") + tag


def frame(part: bytes) -> bytes:
    """A byte part as :func:`hash_bytes` frames it: 8-byte length, part."""
    return len(part).to_bytes(8, "big") + part


def hash_bytes(domain: str, *parts: bytes) -> bytes:
    """SHA-256 over a domain frame and framed byte parts."""
    digest = hashlib.sha256(domain_frame(domain))
    for part in parts:
        digest.update(frame(part))
    return digest.digest()


def hash_to_int(domain: str, *parts: bytes) -> int:
    """SHA-256 interpreted as a big-endian integer in ``[0, 2^256)``."""
    return int.from_bytes(hash_bytes(domain, *parts), "big")


def hash_objects(domain: str, *objects: Any) -> bytes:
    """Hash arbitrary structured objects via their canonical encoding."""
    return hash_bytes(domain, *(canonical_bytes(obj) for obj in objects))


def hash_objects_to_int(domain: str, *objects: Any) -> int:
    return int.from_bytes(hash_objects(domain, *objects), "big")
