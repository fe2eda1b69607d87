"""Tests for compiled (VRF) eligibility — the Appendix D real world."""

import dataclasses

import pytest

from repro.eligibility.difficulty import DifficultySchedule
from repro.eligibility.fmine import FMineTicket
from repro.eligibility.vrf_eligibility import VrfEligibility, VrfTicket
from repro.types import SecurityParameters


@pytest.fixture
def source():
    params = SecurityParameters(lam=8)
    schedule = DifficultySchedule.for_parameters(params, 16)
    return VrfEligibility(16, schedule, seed=11)


class TestVrfEligibility:
    def test_winning_tickets_verify(self, source):
        winners = 0
        for node in range(16):
            ticket = source.capability_for(node).try_mine(("Vote", 1, 0))
            if ticket is not None:
                winners += 1
                assert source.verify(ticket)
        assert winners > 0  # p = 1/2 over 16 nodes: all-lose is 2^-16

    def test_mining_is_deterministic_per_topic(self, source):
        """A VRF is a function: re-mining cannot re-roll the lottery."""
        capability = source.capability_for(3)
        first = capability.try_mine(("Vote", 1, 0))
        second = capability.try_mine(("Vote", 1, 0))
        assert (first is None) == (second is None)
        if first is not None:
            assert first.output.beta == second.output.beta

    def test_bit_specific_independence(self, source):
        zero = {n for n in range(16)
                if source.capability_for(n).try_mine(("ACK", 1, 0))}
        one = {n for n in range(16)
               if source.capability_for(n).try_mine(("ACK", 1, 1))}
        assert zero != one

    def test_ticket_stolen_identity_rejected(self, source):
        for node in range(16):
            ticket = source.capability_for(node).try_mine(("Vote", 1, 0))
            if ticket is not None:
                stolen = dataclasses.replace(
                    ticket, node_id=(node + 1) % 16)
                assert not source.verify(stolen)
                return
        pytest.fail("no winner found")

    def test_ticket_replayed_on_other_topic_rejected(self, source):
        for node in range(16):
            ticket = source.capability_for(node).try_mine(("Vote", 1, 0))
            if ticket is not None:
                replayed = dataclasses.replace(ticket, topic=("Vote", 2, 0))
                assert not source.verify(replayed)
                return
        pytest.fail("no winner found")

    def test_above_threshold_output_rejected(self, source):
        """A valid VRF output that lost the lottery is not a ticket."""
        for node in range(16):
            output = source.evaluate(node, ("Vote", 1, 0))
            if output.beta >= source.schedule.threshold(("Vote", 1, 0)):
                ticket = VrfTicket(node_id=node, topic=("Vote", 1, 0),
                                   output=output)
                assert not source.verify(ticket)
                return
        pytest.fail("everyone won the lottery?!")

    def test_foreign_ticket_type_rejected(self, source):
        assert not source.verify(FMineTicket(node_id=1, topic=("Vote", 1, 0)))

    def test_verification_memoized_consistently(self, source):
        for node in range(16):
            ticket = source.capability_for(node).try_mine(("Vote", 1, 0))
            if ticket is not None:
                assert source.verify(ticket)
                assert source.verify(ticket)  # cached path
                return

    def test_relabelled_topic_is_evaluated_on_its_own_bytes(self, source):
        """``evaluate`` memoizes per type-tagged topic: after the
        ``1``-labelled topic is evaluated, the ``True``-labelled one gets
        its own evaluation, whose proof verifies for that label."""
        from repro.crypto.vrf import verify_vrf
        for node in range(4):
            source.evaluate(node, ("Vote", 1, 1))
            output = source.evaluate(node, ("Vote", 1, True))
            assert verify_vrf(source.group, source.public_keys[node],
                              ("Vote", 1, True), output)

    def test_public_keys_published(self, source):
        assert len(source.public_keys) == 16

    def test_ticket_bits_scale_with_group(self, source):
        assert source.ticket_bits() > source.group.element_bits()

    def test_success_rate_tracks_difficulty(self):
        params = SecurityParameters(lam=8)
        schedule = DifficultySchedule.for_parameters(params, 64)
        source = VrfEligibility(64, schedule, seed=4)
        wins = sum(
            source.capability_for(n).try_mine(("Vote", 1, 0)) is not None
            for n in range(64))
        assert 1 <= wins <= 20  # expected 8

    def test_relabelled_ticket_verdict_ignores_call_order(self):
        """A ticket relabelled to ("Vote", 1, True) gets the same verdict
        checked fresh as after its ``1``-labelled original was verified
        (n = 4, λ = 12: a verdict memo keyed by ticket equality, where
        ``True == 1``, answers all 24 (seed, node) pairs of seeds 0–5
        False fresh and True after)."""
        schedule = DifficultySchedule.for_parameters(
            SecurityParameters(lam=12), 4)
        order_dependent = []
        for seed in range(6):
            for node in range(4):
                source = VrfEligibility(4, schedule, seed)
                ticket = source.capability_for(node).try_mine(("Vote", 1, 1))
                if ticket is None:
                    continue
                relabelled = dataclasses.replace(ticket,
                                                 topic=("Vote", 1, True))
                fresh = VrfEligibility(4, schedule, seed).verify(relabelled)
                source.verify(ticket)
                if source.verify(relabelled) != fresh:
                    order_dependent.append((seed, node))
        assert order_dependent == []
