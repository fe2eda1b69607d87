"""Tests comparing measured communication against the closed forms."""

import pytest

from repro.adversaries import CrashAdversary
from repro.analysis.complexity import (
    expected_dolev_strong_multicasts,
    expected_quadratic_multicasts,
    expected_subquadratic_multicasts,
    message_size_bound_bits,
)
from repro.analysis.parameters import expected_iterations
from repro.harness import run_trials
from repro.protocols import (
    build_dolev_strong,
    build_quadratic_ba,
    build_subquadratic_ba,
)
from repro.types import SecurityParameters


class TestClosedForms:
    def test_subquadratic_prediction_monotone_in_lambda(self):
        assert (expected_subquadratic_multicasts(20, 3)
                < expected_subquadratic_multicasts(40, 3))

    def test_subquadratic_prediction_monotone_in_iterations(self):
        assert (expected_subquadratic_multicasts(30, 2)
                < expected_subquadratic_multicasts(30, 5))

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            expected_subquadratic_multicasts(30, 0)

    def test_expected_iterations_close_to_2e(self):
        assert 4.0 < expected_iterations(1000) < 6.0

    def test_message_size_bound_scales_linearly_in_lambda(self):
        small = message_size_bound_bits(20, 512, 32)
        large = message_size_bound_bits(40, 512, 32)
        assert large == pytest.approx(2 * small)


class TestMeasuredVsPredicted:
    def test_subquadratic_multicasts_within_prediction_envelope(self):
        n, lam = 400, 24
        params = SecurityParameters(lam=lam, epsilon=0.15)
        stats = run_trials(build_subquadratic_ba, f=0, seeds=range(3),
                           n=n, inputs=[1] * n, params=params)
        # Unanimous honest run decides in iteration 1.
        predicted = expected_subquadratic_multicasts(lam, iterations=1)
        assert 0.4 * predicted < stats.mean_multicasts < 2.5 * predicted

    def test_quadratic_multicasts_match_rounds_times_n(self):
        n, f = 21, 10
        stats = run_trials(build_quadratic_ba, f=f, seeds=range(3),
                           n=n, inputs=[1] * n,
                           adversary_factory=lambda inst: CrashAdversary())
        predicted = expected_quadratic_multicasts(
            n, f, rounds=stats.mean_rounds)
        # Not every honest node speaks every round (decided nodes halt);
        # the prediction is an upper envelope of the right order.
        assert stats.mean_multicasts <= predicted + n
        assert stats.mean_multicasts >= 0.2 * predicted

    def test_dolev_strong_relay_count_exact(self):
        n, f = 16, 7
        stats = run_trials(build_dolev_strong, f=f, seeds=range(2),
                           n=n, sender_input=1)
        # All honest: exactly one extracted bit, each node relays once.
        assert stats.mean_multicasts == expected_dolev_strong_multicasts(
            n, 0, extracted_bits=1)
