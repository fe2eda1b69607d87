"""Tests for the phase-king family (Sections 3.1 and 3.2)."""

import pytest

from repro.adversaries import AdaptiveSpeakerAdversary, CrashAdversary
from repro.errors import ConfigurationError
from repro.harness import run_instance, run_trials
from repro.protocols import build_phase_king, build_phase_king_subquadratic
from repro.protocols.phase_king_subquadratic import ack_threshold
from repro.types import SecurityParameters
from tests.conftest import mixed_inputs

PARAMS = SecurityParameters(lam=30, epsilon=0.1)


class TestWarmupPhaseKing:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_validity(self, bit):
        n, f = 10, 3
        instance = build_phase_king(n, f, [bit] * n, seed=0, epochs=6)
        result = run_instance(instance, f, seed=0)
        assert set(result.honest_outputs) == {bit}

    def test_mixed_inputs_converge(self):
        n, f = 10, 3
        stats = run_trials(build_phase_king, f=f, seeds=range(6),
                           n=n, inputs=mixed_inputs(n), epochs=10)
        assert stats.consistency_rate == 1.0

    def test_runs_fixed_number_of_rounds(self):
        n, f, epochs = 10, 3, 6
        instance = build_phase_king(n, f, [1] * n, seed=0, epochs=epochs)
        result = run_instance(instance, f, seed=0)
        assert result.rounds_executed == instance.max_rounds

    def test_crash_faults_tolerated(self):
        n, f = 12, 3
        stats = run_trials(build_phase_king, f=f, seeds=range(4),
                           n=n, inputs=[1] * n, epochs=8,
                           adversary_factory=lambda inst: CrashAdversary())
        assert stats.consistency_rate == 1.0
        assert stats.validity_rate == 1.0

    def test_linear_multicasts_per_epoch(self):
        """The warmup's cost: everyone ACKs every epoch."""
        n, f, epochs = 10, 3, 6
        instance = build_phase_king(n, f, [1] * n, seed=0, epochs=epochs)
        result = run_instance(instance, f, seed=0)
        assert result.metrics.multicast_complexity_messages >= n * (epochs - 1)

    def test_requires_f_below_third(self):
        with pytest.raises(ConfigurationError):
            build_phase_king(9, 3, [0] * 9)


class TestSubquadraticPhaseKing:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_validity(self, bit):
        n, f = 150, 30
        instance = build_phase_king_subquadratic(
            n, f, [bit] * n, seed=0, params=PARAMS, epochs=8)
        result = run_instance(instance, f, seed=0)
        assert set(result.honest_outputs) == {bit}

    def test_mixed_inputs_converge(self):
        n, f = 150, 30
        stats = run_trials(build_phase_king_subquadratic, f=f, seeds=range(4),
                           n=n, inputs=mixed_inputs(n), params=PARAMS,
                           epochs=10)
        assert stats.consistency_rate == 1.0

    def test_sublinear_multicasts(self):
        n, f, epochs = 400, 80, 8
        instance = build_phase_king_subquadratic(
            n, f, [1] * n, seed=1, params=PARAMS, epochs=epochs)
        result = run_instance(instance, f, seed=1)
        # Warmup would send >= n * epochs; compiled sends ~2λ per epoch.
        assert result.metrics.multicast_complexity_messages < n * epochs / 4

    def test_adaptive_speaker_attack_survived(self):
        n, f = 150, 30
        stats = run_trials(
            build_phase_king_subquadratic, f=f, seeds=range(4),
            n=n, inputs=[1] * n, params=PARAMS, epochs=6,
            adversary_factory=AdaptiveSpeakerAdversary)
        assert stats.consistency_rate == 1.0

    def test_ack_threshold_is_two_thirds_lambda(self):
        assert ack_threshold(SecurityParameters(lam=30)) == 20
        assert ack_threshold(SecurityParameters(lam=31)) == 21

    def test_requires_f_below_third(self):
        with pytest.raises(ConfigurationError):
            build_phase_king_subquadratic(90, 30, [0] * 90)

    def test_vrf_mode_round_trip(self):
        n, f = 18, 4
        params = SecurityParameters(lam=8, epsilon=0.1)
        instance = build_phase_king_subquadratic(
            n, f, [1] * n, seed=2, params=params, epochs=4, mode="vrf")
        result = run_instance(instance, f, seed=2)
        assert set(result.honest_outputs) == {1}
