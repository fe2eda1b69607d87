"""Tests for the domain-separated SHA-256 helpers every crypto module uses."""

import hashlib

import pytest

from repro.crypto.hashing import (
    hash_bytes,
    hash_objects,
    hash_objects_to_int,
    hash_to_int,
)
from repro.serialization import canonical_bytes


def _framed(domain, *parts):
    """The framing the module documents, spelled out independently."""
    tag = domain.encode("ascii")
    data = len(tag).to_bytes(2, "big") + tag
    for part in parts:
        data += len(part).to_bytes(8, "big") + part
    return hashlib.sha256(data).digest()


class TestHashBytes:
    @pytest.mark.parametrize("domain, parts", [
        ("vrf-output", ()),
        ("committed-key-vrf", (b"",)),
        ("x", (b"a", b"bc", b"\x00" * 40)),
    ])
    def test_matches_the_documented_framing(self, domain, parts):
        assert hash_bytes(domain, *parts) == _framed(domain, *parts)

    def test_deterministic(self):
        assert hash_bytes("d", b"m") == hash_bytes("d", b"m")

    def test_domain_separation(self):
        assert hash_bytes("vrf-output", b"m") != hash_bytes("schnorr", b"m")

    def test_part_boundaries_are_not_ambiguous(self):
        assert hash_bytes("d", b"ab", b"c") != hash_bytes("d", b"a", b"bc")
        assert hash_bytes("d", b"abc") != hash_bytes("d", b"ab", b"c")

    def test_domain_and_parts_do_not_run_together(self):
        assert hash_bytes("ab", b"c") != hash_bytes("a", b"bc")

    def test_an_empty_part_is_a_part(self):
        assert hash_bytes("d") != hash_bytes("d", b"")

    def test_domain_must_be_ascii(self):
        with pytest.raises(UnicodeEncodeError):
            hash_bytes("dómain", b"m")


class TestHashToInt:
    def test_is_the_big_endian_digest(self):
        digest = hash_bytes("d", b"m")
        assert hash_to_int("d", b"m") == int.from_bytes(digest, "big")

    def test_range(self):
        assert all(0 <= hash_to_int("d", bytes([i])) < 2**256
                   for i in range(64))

    def test_top_bit_rough_uniformity(self):
        top_bits = sum(hash_to_int("d", i.to_bytes(2, "big")) >> 255
                       for i in range(400))
        assert 120 < top_bits < 280


class TestHashObjects:
    def test_uses_the_canonical_encoding(self):
        message = ("Vote", 1, 0)
        assert hash_objects("d", message, 7) == hash_bytes(
            "d", canonical_bytes(message), canonical_bytes(7))

    def test_message_sensitivity(self):
        assert hash_objects("d", ("Vote", 1, 0)) != hash_objects(
            "d", ("Vote", 1, 1))

    def test_types_are_not_conflated(self):
        assert hash_objects("d", "ab") != hash_objects("d", b"ab")
        assert hash_objects("d", 1) != hash_objects("d", True)

    def test_to_int_matches(self):
        digest = hash_objects("d", ("ACK", 2, 1))
        assert hash_objects_to_int("d", ("ACK", 2, 1)) == int.from_bytes(
            digest, "big")
