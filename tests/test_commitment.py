"""Tests for the perfectly binding ElGamal commitment."""

from dataclasses import replace

import pytest

from repro.crypto.commitment import ElGamalCommitmentScheme


class TestElGamalCommitment:
    def test_roundtrip(self, group, rng):
        scheme = ElGamalCommitmentScheme(group)
        value = group.random_scalar(rng)
        commitment, randomness = scheme.commit_random(value, rng)
        assert scheme.open(commitment, value, randomness)

    def test_wrong_value_rejected(self, group, rng):
        scheme = ElGamalCommitmentScheme(group)
        value = group.random_scalar(rng)
        commitment, randomness = scheme.commit_random(value, rng)
        assert not scheme.open(commitment, (value + 1) % group.q, randomness)

    def test_wrong_randomness_rejected(self, group, rng):
        scheme = ElGamalCommitmentScheme(group)
        value = group.random_scalar(rng)
        commitment, randomness = scheme.commit_random(value, rng)
        assert not scheme.open(commitment, value, (randomness + 1) % group.q)

    def test_perfectly_binding_search(self, group, rng):
        """No second opening exists (exhaustive over a small window)."""
        scheme = ElGamalCommitmentScheme(group)
        value = 1234
        commitment = scheme.commit(value, 777)
        for other_value in range(1, 50):
            for other_rand in range(1, 50):
                if (other_value, other_rand) == (value % group.q, 777):
                    continue
                assert not scheme.open(commitment, other_value, other_rand)

    def test_components_are_group_elements(self, group, rng):
        scheme = ElGamalCommitmentScheme(group)
        commitment, _ = scheme.commit_random(group.random_scalar(rng), rng)
        assert scheme.is_well_formed(commitment)

    def test_rejects_invalid_scalars(self, group):
        scheme = ElGamalCommitmentScheme(group)
        with pytest.raises(ValueError):
            scheme.commit(group.q, 1)
        with pytest.raises(ValueError):
            scheme.commit(1, 0)

    def test_hiding_structure(self, group, rng):
        scheme = ElGamalCommitmentScheme(group)
        c1 = scheme.commit(42, group.random_scalar(rng))
        c2 = scheme.commit(42, group.random_scalar(rng))
        assert c1 != c2

    def test_commit_is_a_function_of_value_and_randomness(self, group):
        scheme = ElGamalCommitmentScheme(group)
        assert scheme.commit(42, 777) == scheme.commit(42, 777)

    def test_zero_value_commits_and_opens(self, group, rng):
        scheme = ElGamalCommitmentScheme(group)
        commitment, randomness = scheme.commit_random(0, rng)
        assert scheme.open(commitment, 0, randomness)

    def test_additively_homomorphic(self, group, rng):
        """Componentwise products commit to the sum under the summed
        randomness: the algebra the committed-key proof verifies."""
        scheme = ElGamalCommitmentScheme(group)
        (a, r), (b, s) = [(group.random_scalar(rng), group.random_scalar(rng))
                          for _ in range(2)]
        ca, cb = scheme.commit(a, r), scheme.commit(b, s)
        product = replace(ca, u=group.mul(ca.u, cb.u), v=group.mul(ca.v, cb.v))
        assert scheme.open(product, (a + b) % group.q, (r + s) % group.q)

    @pytest.mark.parametrize("scalars", [
        lambda q: (q, 1), lambda q: (-1, 1), lambda q: (1, 0),
        lambda q: (1, q)],
        ids=["value-at-order", "negative-value", "zero-randomness",
             "randomness-at-order"])
    def test_open_with_invalid_scalars_is_false(self, group, scalars):
        """``open`` answers, never raises, when ``commit``'s scalar
        checks reject the pair; without them ``(q, 1)`` would open
        ``commit(0, 1)``, since exponents reduce mod q."""
        scheme = ElGamalCommitmentScheme(group)
        assert scheme.open(scheme.commit(0, 1), *scalars(group.q)) is False

    @pytest.mark.parametrize("zero", [True, False],
                             ids=["zero", "outside-subgroup"])
    @pytest.mark.parametrize("component", ["u", "v"])
    def test_malformed_components_are_not_well_formed(self, group, rng,
                                                      component, zero):
        scheme = ElGamalCommitmentScheme(group)
        commitment, _ = scheme.commit_random(group.random_scalar(rng), rng)
        element = 0 if zero else group.p - getattr(commitment, component)
        assert not scheme.is_well_formed(
            replace(commitment, **{component: element}))
