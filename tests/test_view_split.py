"""Tests for the view-splitting adversary (divergent certificate views)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversaries import ViewSplitAdversary
from repro.errors import ConfigurationError
from repro.harness import run_instance
from repro.harness.invariants import check_aba_invariants
from repro.protocols import (
    build_dolev_strong,
    build_quadratic_ba,
    build_subquadratic_ba,
)
from repro.types import SecurityParameters

PARAMS = SecurityParameters(lam=30, epsilon=0.1)


class TestViewSplitSafety:
    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_consistency_survives_divergent_views(self, seed):
        n, f = 200, 60
        instance = build_subquadratic_ba(
            n, f, [i % 2 for i in range(n)], seed=seed, params=PARAMS)
        adversary = ViewSplitAdversary(instance)
        result = run_instance(instance, f, adversary, seed=seed)
        assert result.consistent()
        violations = check_aba_invariants(
            result, instance.nodes, instance.config.threshold)
        assert violations == [], violations

    def test_quadratic_protocol_also_survives(self):
        n, f = 9, 4
        for seed in range(3):
            instance = build_quadratic_ba(
                n, f, [i % 2 for i in range(n)], seed=seed)
            adversary = ViewSplitAdversary(instance)
            result = run_instance(instance, f, adversary, seed=seed)
            assert result.consistent()

    def test_split_messages_are_unicast(self):
        """The attack's signature: corrupt votes go to halves, never to
        everyone (multicasts would re-merge the views)."""
        n, f = 100, 30
        instance = build_subquadratic_ba(n, f, [0] * n, seed=1,
                                         params=PARAMS)
        adversary = ViewSplitAdversary(instance)
        result = run_instance(instance, f, adversary, seed=1)
        corrupt_multicasts = [
            envelope for envelope in result.transcript
            if not envelope.honest_sender and envelope.is_multicast]
        assert corrupt_multicasts == []

    def test_liveness_recovers(self):
        """A unique honest proposer re-merges the views (Lemma 12)."""
        n, f = 150, 45
        decided = 0
        for seed in range(4):
            instance = build_subquadratic_ba(
                n, f, [i % 2 for i in range(n)], seed=seed, params=PARAMS)
            adversary = ViewSplitAdversary(instance)
            result = run_instance(instance, f, adversary, seed=seed)
            decided += result.all_decided()
        assert decided >= 3

    def test_rejects_unsupported_protocols(self):
        instance = build_dolev_strong(10, 3, 1)
        with pytest.raises(ConfigurationError):
            ViewSplitAdversary(instance)
