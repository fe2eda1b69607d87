"""Tests for the analytical companions (Chernoff, parameters, stats)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    binomial_tail_ge,
    binomial_tail_le,
    chernoff_lower_tail,
    chernoff_upper_tail,
    choose_lambda,
    corrupt_quorum_probability,
    good_iteration_probability,
    honest_quorum_failure_probability,
    mean,
    percentile,
    terminate_propagation_failure,
)
from repro.analysis.parameters import (
    expected_iterations,
    protocol_failure_probability,
)


class TestChernoff:
    def test_upper_tail_decreases_in_delta(self):
        assert chernoff_upper_tail(10, 0.5) > chernoff_upper_tail(10, 1.0)

    def test_lower_tail_decreases_in_mu(self):
        assert chernoff_lower_tail(10, 0.5) > chernoff_lower_tail(100, 0.5)

    def test_zero_delta_is_trivial(self):
        assert chernoff_upper_tail(10, 0) == 1.0
        assert chernoff_lower_tail(10, 0) == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            chernoff_upper_tail(-1, 0.5)
        with pytest.raises(ValueError):
            chernoff_lower_tail(10, 1.5)


class TestBinomialTails:
    def test_matches_hand_computation(self):
        # P[Bin(3, 1/2) >= 2] = 4/8.
        assert binomial_tail_ge(2, 3, 0.5) == pytest.approx(0.5)

    def test_complementarity(self):
        assert (binomial_tail_ge(4, 10, 0.3)
                + binomial_tail_le(3, 10, 0.3)) == pytest.approx(1.0)

    def test_edge_cases(self):
        assert binomial_tail_ge(0, 10, 0.3) == 1.0
        assert binomial_tail_ge(11, 10, 0.3) == 0.0
        assert binomial_tail_le(-1, 10, 0.3) == 0.0
        assert binomial_tail_le(10, 10, 0.3) == 1.0

    def test_degenerate_probabilities(self):
        assert binomial_tail_ge(1, 10, 0.0) == 0.0
        assert binomial_tail_ge(10, 10, 1.0) == 1.0

    def test_chernoff_upper_bounds_exact(self):
        """The Chernoff bound must dominate the exact tail."""
        trials, p = 100, 0.2
        mu = trials * p
        for threshold in (30, 40, 50):
            delta = threshold / mu - 1
            assert (binomial_tail_ge(threshold, trials, p)
                    <= chernoff_upper_tail(mu, delta) + 1e-12)

    @given(st.integers(1, 40), st.floats(0.05, 0.95))
    @settings(max_examples=30)
    def test_tail_is_monotone_in_k(self, trials, p):
        values = [binomial_tail_ge(k, trials, p) for k in range(trials + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestLemmaPredictions:
    def test_corrupt_quorum_probability_drops_with_lambda_margin(self):
        # Same corrupt fraction, bigger committee => smaller failure.
        small = corrupt_quorum_probability(300, 90, 20)
        large = corrupt_quorum_probability(300, 90, 80)
        assert large < small

    def test_honest_failure_drops_with_honest_fraction(self):
        worse = honest_quorum_failure_probability(300, 140, 40)
        better = honest_quorum_failure_probability(300, 60, 40)
        assert better < worse

    def test_terminate_propagation_matches_lemma_bound(self):
        """Lemma 10: (1 - λ/n)^{εn/2} < exp(-ελ/2)."""
        n, lam = 400, 40
        terminated = 20  # εn/2 with ε = 0.1
        exact = terminate_propagation_failure(n, lam, terminated)
        bound = math.exp(-0.1 * lam / 2)
        assert exact < bound

    def test_good_iteration_probability_above_1_over_2e(self):
        """Lemma 12's bound holds exactly for every n."""
        for n in (10, 100, 1000, 10000):
            assert good_iteration_probability(n) > 1 / (2 * math.e)

    def test_good_iteration_probability_decreasing_in_n(self):
        assert (good_iteration_probability(10)
                > good_iteration_probability(10000))

    def test_expected_iterations_bounded_by_2e(self):
        assert expected_iterations(1000) < 2 * math.e + 0.5


class TestChooseLambda:
    def test_monotone_in_target(self):
        loose = choose_lambda(2000, 0.25, 1e-3)
        tight = choose_lambda(2000, 0.25, 1e-9)
        assert tight > loose

    def test_monotone_in_corruption(self):
        mild = choose_lambda(2000, 0.1, 1e-6)
        harsh = choose_lambda(2000, 0.4, 1e-6)
        assert harsh > mild

    def test_chosen_lambda_meets_target(self):
        n, fraction, target = 2000, 0.3, 1e-6
        lam = choose_lambda(n, fraction, target)
        failure = protocol_failure_probability(
            n, int(fraction * n), lam, iterations=40)
        assert failure <= target

    def test_minimality(self):
        n, fraction, target = 2000, 0.3, 1e-6
        lam = choose_lambda(n, fraction, target)
        failure_below = protocol_failure_probability(
            n, int(fraction * n), lam - 1, iterations=40)
        assert failure_below > target

    def test_input_validation(self):
        with pytest.raises(ValueError):
            choose_lambda(100, 0.6, 1e-6)
        with pytest.raises(ValueError):
            choose_lambda(100, 0.3, 2.0)


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile(values, 100) == 100

    def test_empty_sequences_raise(self):
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 150)
