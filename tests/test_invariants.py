"""Transcript-invariant property tests (the lemma statements, live)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversaries import (
    AdaptiveSpeakerAdversary,
    CrashAdversary,
    StaticEquivocationAdversary,
)
from repro.harness import run_instance
from repro.harness.invariants import (
    check_aba_invariants,
    commits_carry_valid_certificates,
    honest_votes_unique_per_iteration,
    no_conflicting_certificates_after_decision,
    quorum_intersection_on_acks,
)
from repro.protocols import (
    build_phase_king,
    build_quadratic_ba,
    build_subquadratic_ba,
)
from repro.types import SecurityParameters

PARAMS = SecurityParameters(lam=30, epsilon=0.1)

_slow = settings(max_examples=10, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _adversary(kind, instance):
    if kind == "crash":
        return CrashAdversary()
    if kind == "equivocate":
        return StaticEquivocationAdversary(instance)
    if kind == "speaker":
        return AdaptiveSpeakerAdversary(instance)
    return None


class TestQuadraticInvariants:
    @given(st.integers(0, 10**6),
           st.sampled_from(["none", "crash", "equivocate"]))
    @_slow
    def test_lemma_invariants_hold(self, seed, adversary_kind):
        n, f = 9, 4
        instance = build_quadratic_ba(
            n, f, [i % 2 for i in range(n)], seed=seed)
        adversary = _adversary(adversary_kind, instance)
        result = run_instance(instance, f, adversary, seed=seed)
        violations = check_aba_invariants(result, instance.nodes, f + 1)
        assert violations == [], violations


class TestSubquadraticInvariants:
    @given(st.integers(0, 10**6),
           st.sampled_from(["none", "crash", "equivocate", "speaker"]))
    @_slow
    def test_lemma_invariants_hold(self, seed, adversary_kind):
        n, f = 150, 45
        instance = build_subquadratic_ba(
            n, f, [i % 2 for i in range(n)], seed=seed, params=PARAMS)
        adversary = _adversary(adversary_kind, instance)
        result = run_instance(instance, f, adversary, seed=seed)
        threshold = instance.config.threshold
        violations = check_aba_invariants(result, instance.nodes, threshold)
        assert violations == [], violations

    def test_lemma13_no_conflicting_certificate(self):
        n, f = 200, 60
        instance = build_subquadratic_ba(
            n, f, [i % 2 for i in range(n)], seed=3, params=PARAMS)
        adversary = StaticEquivocationAdversary(instance)
        result = run_instance(instance, f, adversary, seed=3)
        assert no_conflicting_certificates_after_decision(
            result, instance.nodes) is None

    def test_corrupt_double_votes_do_not_trip_honest_uniqueness(self):
        """Corrupt nodes MAY vote both bits; the invariant is about
        honest senders only (the Lemma 11 counting)."""
        n, f = 150, 45
        instance = build_subquadratic_ba(
            n, f, [1] * n, seed=4, params=PARAMS)
        adversary = StaticEquivocationAdversary(instance)
        result = run_instance(instance, f, adversary, seed=4)
        assert honest_votes_unique_per_iteration(result) is None


class TestPhaseKingInvariants:
    @given(st.integers(0, 10**6), st.booleans())
    @_slow
    def test_no_epoch_has_double_ample_acks(self, seed, crash):
        n, f = 10, 3
        instance = build_phase_king(n, f, [i % 2 for i in range(n)],
                                    seed=seed, epochs=8)
        adversary = CrashAdversary() if crash else None
        result = run_instance(instance, f, adversary, seed=seed)
        threshold = instance.config.threshold
        assert quorum_intersection_on_acks(result, threshold) is None


class TestCheckersDetectViolations:
    """The oracles themselves must not be vacuous: feed them doctored
    transcripts and verify they fire."""

    def _run(self):
        n, f = 9, 4
        instance = build_quadratic_ba(n, f, [1] * n, seed=0)
        return instance, run_instance(instance, f, seed=0)

    def test_uniqueness_checker_fires(self):
        from repro.protocols.messages import VoteMsg
        from repro.sim.network import Envelope
        instance, result = self._run()
        forged = [
            Envelope(998, 3, None, VoteMsg(1, 0, 3, "x", None), 0, True),
            Envelope(999, 3, None, VoteMsg(1, 1, 3, "x", None), 0, True),
        ]
        result.transcript.extend(forged)
        assert honest_votes_unique_per_iteration(result) is not None

    def test_commit_checker_fires_on_missing_certificate(self):
        from repro.protocols.messages import CommitMsg
        from repro.sim.network import Envelope
        instance, result = self._run()
        result.transcript.append(
            Envelope(999, 3, None, CommitMsg(1, 1, None, 3, "x"), 0, True))
        assert commits_carry_valid_certificates(result, 5) is not None

    def test_conflict_checker_fires(self):
        from repro.protocols.certificates import certificate_from_votes
        from repro.protocols.messages import StatusMsg
        from repro.sim.network import Envelope
        instance, result = self._run()
        # All nodes decided 1 in iteration 1; forge a rank-2 cert for 0.
        certificate = certificate_from_votes(
            2, 0, {v: "a" for v in range(5)}, 5)
        result.transcript.append(
            Envelope(999, 3, None,
                     StatusMsg(3, 0, certificate, 3, "x"), 0, True))
        assert no_conflicting_certificates_after_decision(
            result, instance.nodes) is not None
