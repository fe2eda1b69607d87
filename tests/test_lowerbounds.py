"""Tests for the three executable lower bounds."""

import pytest

from repro.errors import ConfigurationError
from repro.lowerbounds import (
    run_dolev_reischuk_attack,
    run_hypothetical_experiment,
    run_theorem4_attack,
)
from repro.protocols import (
    build_broadcast_from_ba,
    build_dolev_strong,
    build_naive_broadcast,
    build_quadratic_ba,
    build_subquadratic_ba,
)
from repro.types import SecurityParameters


class TestDolevReischuk:
    def test_cheap_protocol_is_broken(self):
        report = run_dolev_reischuk_attack(
            build_naive_broadcast, n=40, f=16, sender_input=0, seed=1)
        assert report.attack_feasible
        assert report.consistency_violated
        assert report.victim_output_run2 != report.others_output_run2

    def test_messages_into_v_below_budget_for_cheap_protocol(self):
        report = run_dolev_reischuk_attack(
            build_naive_broadcast, n=40, f=16, sender_input=0, seed=1)
        assert report.messages_into_v < report.message_budget

    def test_victim_is_starved(self):
        report = run_dolev_reischuk_attack(
            build_naive_broadcast, n=40, f=16, sender_input=0, seed=1)
        assert report.victim_message_count <= report.f // 2

    def test_dolev_strong_resists(self):
        """The message-rich protocol leaves no starved victim: the
        executable content of the Ω(f²) bound."""
        report = run_dolev_reischuk_attack(
            build_dolev_strong, n=24, f=10, sender_input=0, seed=1)
        assert not report.attack_feasible
        assert not report.consistency_violated
        assert report.messages_into_v > report.message_budget

    def test_run1_validity_is_preserved(self):
        """Adversary A alone does not break the protocol — only the
        combination with A' does."""
        report = run_dolev_reischuk_attack(
            build_naive_broadcast, n=40, f=16, sender_input=0, seed=1)
        assert report.honest_output_run1 == 0

    def test_needs_f_at_least_two(self):
        with pytest.raises(ConfigurationError):
            run_dolev_reischuk_attack(
                build_naive_broadcast, n=10, f=1, sender_input=0)


class TestTheorem4:
    def test_subquadratic_broken_with_few_corruptions(self):
        params = SecurityParameters(lam=20, epsilon=0.1)
        report = run_theorem4_attack(
            build_broadcast_from_ba, n=700, f=320, sender_input=1,
            seeds=range(2), ba_builder=build_subquadratic_ba,
            params=params, max_iterations=10)
        assert report.violation_rate == 1.0
        assert report.mean_corruptions < report.f / 2
        assert report.budget_exhausted_rate == 0.0

    def test_quadratic_resists_the_same_attack(self):
        report = run_theorem4_attack(
            build_broadcast_from_ba, n=41, f=19, sender_input=1,
            seeds=range(2), ba_builder=build_quadratic_ba, max_iterations=10)
        assert report.violation_rate == 0.0
        assert report.budget_exhausted_rate == 1.0

    def test_one_shot_seeds_count_every_trial(self):
        """A generator of seeds is read once: the report counts the
        trials it ran, exactly as the same seeds given as a list."""
        kwargs = dict(n=41, f=19, sender_input=1,
                      ba_builder=build_quadratic_ba, max_iterations=10)
        from_generator = run_theorem4_attack(
            build_broadcast_from_ba, seeds=(seed for seed in [0, 1]),
            **kwargs)
        from_list = run_theorem4_attack(
            build_broadcast_from_ba, seeds=[0, 1], **kwargs)
        assert from_generator.trials == 2
        assert from_generator == from_list


class TestNoPkiHypotheticalExperiment:
    def test_shared_ro_reaches_contradiction(self):
        report = run_hypothetical_experiment(
            n=60, seed=2, params=SecurityParameters(lam=24), epochs=6,
            setup="shared-ro")
        assert report.left_outputs == {0}
        assert report.right_outputs == {1}
        assert report.contradiction
        assert report.bridge_rejections == 0
        # The honest-1 interpretation corrupts only the Q' speakers.
        assert report.right_speakers <= report.n

    def test_bridge_must_disagree_with_one_side(self):
        report = run_hypothetical_experiment(
            n=60, seed=2, params=SecurityParameters(lam=24), epochs=6,
            setup="shared-ro")
        assert (report.bridge_output in report.left_outputs) != (
            report.bridge_output in report.right_outputs)

    def test_pki_breaks_the_simulation(self):
        report = run_hypothetical_experiment(
            n=24, seed=2, params=SecurityParameters(lam=12), epochs=4,
            setup="pki")
        assert report.bridge_rejections > 0
        assert not report.contradiction
        # The bridge, rejecting the simulated side, stays with Q.
        assert report.bridge_output in report.left_outputs

    def test_rejects_tiny_networks(self):
        with pytest.raises(ConfigurationError):
            run_hypothetical_experiment(n=3)

    def test_rejects_unknown_setup(self):
        with pytest.raises(ConfigurationError):
            run_hypothetical_experiment(n=20, setup="quantum")


class TestTheorem4Census:
    """The probabilistic events inside the Theorem 4 proof, measured."""

    def test_proof_events_hold_in_the_subquadratic_regime(self):
        from repro.lowerbounds.theorem4 import run_theorem4_census
        params = SecurityParameters(lam=12, epsilon=0.1)
        census = run_theorem4_census(
            build_broadcast_from_ba, n=1600, f=720, sender_input=1,
            seeds=range(2), epsilon=0.25,
            ba_builder=build_subquadratic_ba, params=params,
            max_iterations=8)
        # E[z] < ε(f/2)²: the protocol is under the Markov budget.
        assert census.mean_z < census.markov_budget
        # Pr[X ∩ Y] > 1 − 2ε, the proof's conclusion.
        assert census.event_xy_rate >= census.theorem_bound

    def test_quadratic_regime_violates_the_markov_budget(self):
        """At small n the same protocol is NOT under the budget — the
        bound only bites asymptotically, as the theorem states."""
        from repro.lowerbounds.theorem4 import run_theorem4_census
        params = SecurityParameters(lam=16, epsilon=0.1)
        census = run_theorem4_census(
            build_broadcast_from_ba, n=200, f=80, sender_input=1,
            seeds=range(2), epsilon=0.25,
            ba_builder=build_subquadratic_ba, params=params,
            max_iterations=8)
        assert census.mean_z > census.markov_budget
