"""Unit tests for the adversary implementations."""

import pytest

from repro.adversaries import (
    AdaptiveSpeakerAdversary,
    CommitteeTakeoverAdversary,
    CrashAdversary,
    IsolationAdversary,
    LeaderKillerAdversary,
    StaticEquivocationAdversary,
)
from repro.errors import ConfigurationError
from repro.harness import run_instance
from repro.protocols import (
    build_dolev_strong,
    build_naive_broadcast,
    build_quadratic_ba,
    build_subquadratic_ba,
)
from repro.protocols.messages import VoteMsg
from repro.sim.trace import summarize_transcript
from repro.types import AdversaryModel, SecurityParameters

PARAMS = SecurityParameters(lam=24, epsilon=0.1)


class TestCrashAdversary:
    def test_corrupts_exactly_budget(self):
        n, f = 20, 6
        instance = build_quadratic_ba(n, f, [1] * n, seed=0)
        result = run_instance(instance, f, CrashAdversary(), seed=0)
        assert result.corruptions_used == f

    def test_explicit_victims(self):
        n, f = 20, 3
        instance = build_quadratic_ba(n, f, [1] * n, seed=0)
        result = run_instance(instance, f,
                              CrashAdversary(victims=[2, 5, 9]), seed=0)
        assert result.corrupt_set == {2, 5, 9}

    def test_victims_truncated_to_budget(self):
        n, f = 20, 2
        instance = build_quadratic_ba(n, f, [1] * n, seed=0)
        result = run_instance(instance, f,
                              CrashAdversary(victims=[2, 5, 9]), seed=0)
        assert result.corrupt_set == {2, 5}

    def test_crashed_nodes_stay_silent(self):
        n, f = 20, 6
        instance = build_quadratic_ba(n, f, [1] * n, seed=0)
        result = run_instance(instance, f, CrashAdversary(), seed=0)
        silent = {node for node in range(n - f, n)}
        speakers = summarize_transcript(result.transcript).honest_speakers
        assert not (speakers & silent)


class TestStaticEquivocation:
    def test_corrupt_nodes_send_both_bits(self):
        n, f = 100, 30
        instance = build_subquadratic_ba(n, f, [i % 2 for i in range(n)],
                                         seed=1, params=PARAMS)
        adversary = StaticEquivocationAdversary(instance)
        result = run_instance(instance, f, adversary, seed=1)
        corrupt_votes = {}
        for envelope in result.transcript:
            if envelope.honest_sender:
                continue
            payload = envelope.payload
            if type(payload).__name__ == "VoteMsg":
                corrupt_votes.setdefault(payload.sender, set()).add(
                    payload.bit)
        # At least one corrupt node got to push both bits in iteration 1.
        assert any(bits == {0, 1} for bits in corrupt_votes.values())

    def test_rejects_unknown_protocol_family(self):
        instance = build_dolev_strong(10, 3, 1)
        with pytest.raises(ConfigurationError):
            StaticEquivocationAdversary(instance)


class TestAdaptiveSpeaker:
    def test_corrupts_only_speakers(self):
        n, f = 150, 40
        instance = build_subquadratic_ba(n, f, [1] * n, seed=2, params=PARAMS)
        adversary = AdaptiveSpeakerAdversary(instance)
        result = run_instance(instance, f, adversary, seed=2)
        speakers = summarize_transcript(result.transcript).honest_speakers
        assert set(adversary.corrupted) <= speakers

    def test_spare_budget_respected(self):
        n, f = 150, 40
        instance = build_subquadratic_ba(n, f, [1] * n, seed=2, params=PARAMS)
        adversary = AdaptiveSpeakerAdversary(instance, spare_budget=35)
        result = run_instance(instance, f, adversary, seed=2)
        assert result.corruptions_used <= f - 35

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="a flipped vote past iteration 1 carries the observed "
               "proposal, which is for the other bit (ROADMAP 7)")
    def test_late_flipped_votes_are_valid(self):
        # The adversary-grid's n = 200 speaker cell, seed 0.
        n, f, seed = 200, 50, 0
        instance = build_subquadratic_ba(
            n, f, [i % 2 for i in range(n)], seed=seed,
            params=SecurityParameters(lam=30, epsilon=0.1))
        result = run_instance(instance, f, AdaptiveSpeakerAdversary(instance),
                              seed=seed)
        honest = next(node for node in instance.nodes
                      if node.node_id in result.forever_honest)
        late = [envelope.payload for envelope in result.transcript
                if not envelope.honest_sender
                and isinstance(envelope.payload, VoteMsg)
                and envelope.payload.iteration > 1]
        if not late:
            pytest.fail("the cell injects no flipped vote past iteration 1")
        assert all(honest._valid_vote(vote) for vote in late)


class TestIsolation:
    def test_requires_strong_adaptivity(self):
        from repro.errors import CapabilityError
        n, f = 60, 20
        instance = build_naive_broadcast(n, f, 1)
        with pytest.raises(CapabilityError):
            run_instance(instance, f, IsolationAdversary(victim=3),
                         model=AdversaryModel.ADAPTIVE, seed=0)

    def test_isolates_victim_of_naive_broadcast(self):
        n, f = 60, 20
        instance = build_naive_broadcast(n, f, 0, default_when_silent=1)
        adversary = IsolationAdversary(victim=3)
        result = run_instance(instance, f, adversary,
                              model=AdversaryModel.STRONGLY_ADAPTIVE, seed=0)
        assert result.outputs[3] == 1
        assert not result.consistent()
        assert adversary.removed_copies > 0

    def test_corruption_bill_equals_senders_to_victim(self):
        n, f = 60, 20
        instance = build_naive_broadcast(n, f, 0, relay_width=2)
        adversary = IsolationAdversary(victim=3)
        result = run_instance(instance, f, adversary,
                              model=AdversaryModel.STRONGLY_ADAPTIVE, seed=0)
        # Only the sender and the victim's two ring-predecessors ever try.
        assert result.corruptions_used <= 4


class TestLeaderKiller:
    def test_needs_an_oracle(self):
        instance = build_subquadratic_ba(50, 10, [1] * 50, params=PARAMS)
        with pytest.raises(ConfigurationError):
            LeaderKillerAdversary(instance)

    def test_kills_distinct_leaders(self):
        n, f = 13, 6
        instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)],
                                      seed=9)
        adversary = LeaderKillerAdversary(instance)
        result = run_instance(instance, f, adversary, seed=9)
        assert len(set(adversary.killed)) == len(adversary.killed)
        assert result.corruptions_used == len(adversary.killed)

    def test_budget_limits_the_killing_spree(self):
        n, f = 13, 2
        instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)],
                                      seed=9)
        adversary = LeaderKillerAdversary(instance)
        result = run_instance(instance, f, adversary, seed=9)
        assert len(adversary.killed) <= f
        assert result.consistent()


class TestCommitteeTakeover:
    def test_needs_committee_services(self):
        instance = build_quadratic_ba(10, 4, [1] * 10)
        with pytest.raises(ConfigurationError):
            CommitteeTakeoverAdversary(instance)
