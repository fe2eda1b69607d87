"""Tests for the static-committee baseline and its adaptive downfall."""

import pytest

from repro.adversaries import CommitteeTakeoverAdversary, CrashAdversary
from repro.errors import ConfigurationError
from repro.harness import run_instance, run_trials
from repro.protocols import build_static_committee
from repro.protocols.static_committee import elect_committee
from repro.types import AdversaryModel


class TestCommitteeElection:
    def test_committee_is_deterministic_per_crs(self):
        assert elect_committee(100, 9, 1) == elect_committee(100, 9, 1)

    def test_different_crs_different_committee(self):
        assert elect_committee(100, 9, 1) != elect_committee(100, 9, 2)

    def test_committee_size(self):
        assert len(elect_committee(100, 9, 1)) == 9

    def test_committee_larger_than_network_rejected(self):
        with pytest.raises(ConfigurationError):
            build_static_committee(5, 1, [0] * 5, committee_size=10)


class TestHonestAndStaticExecutions:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_validity(self, bit):
        n, f = 60, 20
        instance = build_static_committee(n, f, [bit] * n, seed=0)
        result = run_instance(instance, f, seed=0)
        assert set(result.honest_outputs) == {bit}

    def test_sublinear_multicasts(self):
        """The whole point of the committee: only members speak."""
        n, f = 200, 40
        instance = build_static_committee(n, f, [1] * n, seed=0)
        result = run_instance(instance, f, seed=0)
        assert result.metrics.multicast_complexity_messages < n

    def test_static_crash_of_non_members_tolerated(self):
        n, f = 60, 20
        instance = build_static_committee(n, f, [1] * n, seed=1)
        committee = set(instance.authenticator.committee)
        victims = [node for node in range(n) if node not in committee][:f]
        result = run_instance(instance, f, CrashAdversary(victims=victims),
                              model=AdversaryModel.STATIC, seed=1)
        assert result.consistent()
        assert set(result.honest_outputs) == {1}


class TestAdaptiveTakeover:
    def test_adaptive_adversary_breaks_consistency(self):
        """Section 1: 'corrupt them, and thereby control the whole
        committee' — with only |committee| ≪ f corruptions."""
        n, f = 80, 30
        violations = 0
        for seed in range(3):
            instance = build_static_committee(n, f, [1] * n, seed=seed)
            adversary = CommitteeTakeoverAdversary(instance)
            result = run_instance(instance, f, adversary, seed=seed)
            violations += not result.consistent()
            assert result.corruptions_used == len(
                instance.authenticator.committee)
        assert violations == 3

    def test_attack_needs_budget_for_committee(self):
        n = 80
        instance = build_static_committee(n, 2, [1] * n, seed=0)
        adversary = CommitteeTakeoverAdversary(instance)
        with pytest.raises(ConfigurationError):
            run_instance(instance, 2, adversary, seed=0)

    def test_attack_impossible_for_static_adversary(self):
        """A static adversary must commit before... corrupting the
        announced committee mid-run is exactly what STATIC forbids."""
        from repro.errors import CapabilityError

        class LateTakeover(CommitteeTakeoverAdversary):
            def on_setup(self):
                pass  # corrupt later instead

            def react(self, round_index, staged):
                if round_index == 0:
                    for member in self.committee:
                        self.grants[member] = self.api.corrupt(member)
                super().react(round_index, staged)

        n, f = 80, 30
        instance = build_static_committee(n, f, [1] * n, seed=0)
        adversary = LateTakeover(instance)
        with pytest.raises(CapabilityError):
            run_instance(instance, f, adversary,
                         model=AdversaryModel.STATIC, seed=0)
