"""Tests for the Fmine ideal functionality (Figure 1)."""

import pytest

from repro.eligibility.base import MiningCapability
from repro.eligibility.difficulty import DifficultySchedule
from repro.eligibility.fmine import FMine, FMineEligibility, FMineTicket
from repro.errors import EligibilityError
from repro.types import SecurityParameters


@pytest.fixture
def schedule(params):
    return DifficultySchedule.for_parameters(params, 100)


class TestFMineFunctionality:
    def test_mine_is_memoized(self, schedule):
        """Figure 1: repeated mine(m) calls reuse the first coin."""
        fmine = FMine(schedule, seed=1)
        first = fmine.mine(3, ("Vote", 1, 0))
        for _ in range(5):
            assert fmine.mine(3, ("Vote", 1, 0)) == first

    def test_verify_before_mine_returns_false(self, schedule):
        """Figure 1: verify(m, i) is 0 unless i has called mine(m)."""
        fmine = FMine(schedule, seed=1)
        assert not fmine.verify(3, ("Vote", 1, 0))
        fmine.mine(3, ("Vote", 1, 0))
        assert fmine.verify(3, ("Vote", 1, 0)) == fmine.mine(3, ("Vote", 1, 0))

    def test_coins_independent_across_nodes(self, schedule):
        fmine = FMine(schedule, seed=1)
        outcomes = {fmine.mine(node, ("Vote", 1, 0)) for node in range(200)}
        assert outcomes == {True, False}

    def test_coins_independent_across_bits(self, schedule):
        """Bit-specific eligibility: the (ACK, r, 0) and (ACK, r, 1)
        lotteries are independent — the paper's key insight."""
        fmine = FMine(schedule, seed=1)
        zero_winners = {node for node in range(300)
                        if fmine.mine(node, ("ACK", 1, 0))}
        one_winners = {node for node in range(300)
                       if fmine.mine(node, ("ACK", 1, 1))}
        assert zero_winners != one_winners

    def test_deterministic_per_seed(self, schedule):
        a = FMine(schedule, seed=42)
        b = FMine(schedule, seed=42)
        for node in range(50):
            assert a.mine(node, ("Vote", 1, 1)) == b.mine(node, ("Vote", 1, 1))

    def test_call_order_does_not_matter(self, schedule):
        a = FMine(schedule, seed=42)
        b = FMine(schedule, seed=42)
        topics = [("Vote", r, bit) for r in range(3) for bit in (0, 1)]
        for topic in topics:
            a.mine(5, topic)
        for topic in reversed(topics):
            assert b.mine(5, topic) == a.verify(5, topic)

    def test_success_rate_tracks_difficulty(self, schedule, params):
        fmine = FMine(schedule, seed=7)
        wins = sum(fmine.mine(node, ("Vote", 1, 0)) for node in range(2000))
        expected = 2000 * params.committee_probability(100)
        assert 0.6 * expected < wins < 1.4 * expected

    def test_bool_relabelled_topic_verifies_as_a_fresh_mine(self):
        """Once node 3 mined ("Vote", 1, 1), verifying ("Vote", 1, True)
        agrees with a fresh instance's mine of that label (n = 100,
        λ = 12: 39 of seeds 0–199 disagreed while coins were keyed by
        the raw ``(node, topic)``)."""
        schedule = DifficultySchedule.for_parameters(
            SecurityParameters(lam=12), 100)
        disagreeing = []
        for seed in range(200):
            fmine = FMine(schedule, seed)
            fmine.mine(3, ("Vote", 1, 1))
            fresh = FMine(schedule, seed).mine(3, ("Vote", 1, True))
            if fmine.verify(3, ("Vote", 1, True)) != fresh:
                disagreeing.append(seed)
        assert disagreeing == []


class TestFMineEligibility:
    def test_winning_ticket_verifies(self, schedule):
        source = FMineEligibility(100, schedule, seed=3)
        for node in range(100):
            ticket = source.capability_for(node).try_mine(("Vote", 1, 0))
            if ticket is not None:
                assert source.verify(ticket)

    def test_losing_node_gets_none(self, schedule):
        source = FMineEligibility(400, schedule, seed=3)
        results = [source.capability_for(node).try_mine(("Vote", 1, 0))
                   for node in range(400)]
        assert any(ticket is None for ticket in results)

    def test_forged_ticket_rejected(self, schedule):
        """A ticket claiming a topic the node never successfully mined."""
        source = FMineEligibility(100, schedule, seed=3)
        forged = FMineTicket(node_id=5, topic=("Vote", 9, 1))
        assert not source.verify(forged)

    def test_ticket_for_wrong_node_rejected(self, schedule):
        source = FMineEligibility(100, schedule, seed=3)
        winner = None
        for node in range(100):
            if source.capability_for(node).try_mine(("Vote", 1, 0)):
                winner = node
                break
        assert winner is not None
        stolen = FMineTicket(node_id=(winner + 1) % 100, topic=("Vote", 1, 0))
        assert not source.verify(stolen)

    def test_out_of_range_node_rejected(self, schedule):
        source = FMineEligibility(10, schedule, seed=3)
        assert not source.verify(FMineTicket(node_id=99, topic=("Vote", 1, 0)))

    def test_counterfeit_capability_rejected(self, schedule):
        source = FMineEligibility(10, schedule, seed=3)
        fake = MiningCapability(source, 3)
        with pytest.raises(EligibilityError):
            fake.try_mine(("Vote", 1, 0))

    def test_secrecy_verify_without_mine_is_false(self, schedule):
        """No one learns an honest node's eligibility before it mines."""
        source = FMineEligibility(10, schedule, seed=3)
        assert not source.fmine.verify(4, ("Vote", 1, 0))

    def test_ticket_bits_positive(self, schedule):
        assert FMineEligibility(10, schedule, seed=3).ticket_bits() > 0
