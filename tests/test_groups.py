"""Tests for Schnorr group arithmetic."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.groups import SchnorrGroup, TEST_GROUP, is_probable_prime

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


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 97, 101):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for c in (1, 4, 9, 91, 561, 41041):  # includes Carmichael numbers
            assert not is_probable_prime(c)

    def test_test_group_parameters_are_prime(self):
        TEST_GROUP.validate()

    def test_modp_2048_parameters_are_prime(self):
        MODP_2048_GROUP.validate(rounds=4)


class TestGroupStructure:
    def test_generators_have_order_q(self, group):
        assert pow(group.g, group.q, group.p) == 1
        assert pow(group.h, group.q, group.p) == 1

    def test_generators_are_not_identity(self, group):
        assert group.g != 1
        assert group.h != 1

    def test_g_h_distinct(self, group):
        assert group.g != group.h

    def test_rejects_non_safe_prime(self):
        with pytest.raises(ValueError):
            SchnorrGroup(name="bad", p=23, q=7, g=2)

    def test_rejects_bad_generator(self):
        # 5 is a non-residue mod TEST_GROUP.p, so it has order 2q, not q.
        candidate = 5
        if pow(candidate, TEST_GROUP.q, TEST_GROUP.p) != 1:
            with pytest.raises(ValueError):
                SchnorrGroup(name="bad", p=TEST_GROUP.p, q=TEST_GROUP.q,
                             g=candidate)


class TestGroupOperations:
    @given(st.integers(min_value=1, max_value=TEST_GROUP.q - 1),
           st.integers(min_value=1, max_value=TEST_GROUP.q - 1))
    @settings(max_examples=30)
    def test_exponent_homomorphism(self, a, b):
        group = TEST_GROUP
        lhs = group.mul(group.exp(group.g, a), group.exp(group.g, b))
        rhs = group.exp(group.g, (a + b) % group.q)
        assert lhs == rhs

    @given(st.integers(min_value=1, max_value=TEST_GROUP.q - 1))
    @settings(max_examples=30)
    def test_inverse(self, a):
        group = TEST_GROUP
        element = group.exp(group.g, a)
        assert group.mul(element, group.inv(element)) == 1

    def test_random_scalar_in_range(self, group, rng):
        for _ in range(50):
            scalar = group.random_scalar(rng)
            assert 1 <= scalar < group.q

    def test_is_element_accepts_powers_of_g(self, group, rng):
        scalar = group.random_scalar(rng)
        assert group.is_element(group.exp(group.g, scalar))

    def test_is_element_rejects_out_of_range(self, group):
        assert not group.is_element(0)
        assert not group.is_element(group.p)
        assert not group.is_element(group.p + 5)


class TestHashToGroup:
    def test_lands_in_subgroup(self, group):
        for i in range(20):
            element = group.hash_to_group(f"msg-{i}".encode())
            assert group.is_element(element)

    def test_deterministic(self, group):
        assert group.hash_to_group(b"x") == group.hash_to_group(b"x")

    def test_different_inputs_differ(self, group):
        assert group.hash_to_group(b"x") != group.hash_to_group(b"y")

    def test_object_hashing(self, group):
        a = group.hash_to_group_from_object(("Vote", 1, 0))
        b = group.hash_to_group_from_object(("Vote", 1, 1))
        assert a != b

    def test_element_bits_matches_p(self, group):
        assert group.element_bits() == 8 * ((group.p.bit_length() + 7) // 8)


class TestChallengeScalar:
    def test_in_range_and_deterministic(self, group):
        c1 = group.challenge_scalar("dom", 1, 2, 3)
        c2 = group.challenge_scalar("dom", 1, 2, 3)
        assert c1 == c2
        assert 0 <= c1 < group.q

    def test_domain_separation(self, group):
        assert (group.challenge_scalar("a", 1)
                != group.challenge_scalar("b", 1))


class TestModp2048Operations:
    """Targeted tests on the production-size group (slow ops, few cases)."""

    def test_vrf_roundtrip(self, rng):
        from repro.crypto.vrf import VrfKeyPair, verify_vrf
        keypair = VrfKeyPair.generate(MODP_2048_GROUP, rng)
        output = keypair.evaluate(("ACK", 2, 0), rng)
        assert verify_vrf(MODP_2048_GROUP, keypair.public, ("ACK", 2, 0),
                          output)
        assert not verify_vrf(MODP_2048_GROUP, keypair.public,
                              ("ACK", 2, 1), output)

    def test_element_size_is_2048_bits(self):
        assert MODP_2048_GROUP.element_bits() == 2048
