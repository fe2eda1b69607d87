"""Unit tests for the iterated-BA node internals (Appendix C)."""

import pytest

from repro.crypto.registry import KeyRegistry
from repro.protocols.aba import SCHEDULE, AbaNode
from repro.protocols.base import OracleProposerPolicy, SignatureAuthenticator
from repro.protocols.certificates import certificate_from_votes
from repro.protocols.messages import ProposeMsg, VoteMsg
from repro.protocols.verification import RoundConfig
from repro.sim.leader import RoundRobinLeaderOracle
from repro.sim.node import RoundContext
from tests.conftest import receive


@pytest.fixture
def aba_world():
    n, f = 7, 3
    registry = KeyRegistry(n)
    authenticator = SignatureAuthenticator(registry)
    oracle = RoundRobinLeaderOracle(n)
    config = RoundConfig(
        schedule=SCHEDULE,
        threshold=f + 1,
        authenticator=authenticator,
        proposer=OracleProposerPolicy(oracle, authenticator),
        units=5,
    )
    nodes = [AbaNode(i, n, 1, config) for i in range(n)]
    return n, f, registry, authenticator, config, nodes


def _vote(authenticator, voter, iteration, bit, proposal=None):
    auth = authenticator.attempt(voter, ("Vote", iteration, bit))
    return VoteMsg(iteration=iteration, bit=bit, sender=voter, auth=auth,
                   proposal=proposal)


class TestVoteValidation:
    def test_valid_first_iteration_vote_recorded(self, aba_world):
        n, f, registry, authenticator, config, nodes = aba_world
        node = nodes[0]
        receive(node, _vote(authenticator, 3, 1, 1))
        assert 3 in node.votes_seen[(1, 1)]

    def test_bad_signature_dropped(self, aba_world):
        n, f, registry, authenticator, config, nodes = aba_world
        node = nodes[0]
        vote = VoteMsg(iteration=1, bit=1, sender=3, auth="garbage",
                       proposal=None)
        receive(node, vote)
        assert (1, 1) not in node.votes_seen

    def test_vote_beyond_iteration_one_needs_proposal(self, aba_world):
        """Footnote 11: later votes attach the justifying proposal."""
        n, f, registry, authenticator, config, nodes = aba_world
        node = nodes[0]
        receive(node, _vote(authenticator, 3, 2, 1, proposal=None))
        assert (2, 1) not in node.votes_seen

    def test_vote_with_valid_proposal_accepted(self, aba_world):
        n, f, registry, authenticator, config, nodes = aba_world
        node = nodes[0]
        leader = 2  # RoundRobin leader of iteration 2
        proposal = ProposeMsg(
            iteration=2, bit=1, certificate=None, sender=leader,
            auth=authenticator.attempt(leader, ("Propose", 2, 1)))
        receive(node, _vote(authenticator, 3, 2, 1, proposal=proposal))
        assert 3 in node.votes_seen[(2, 1)]

    def test_vote_with_foreign_leader_proposal_rejected(self, aba_world):
        n, f, registry, authenticator, config, nodes = aba_world
        node = nodes[0]
        impostor = 5  # not the iteration-2 leader
        proposal = ProposeMsg(
            iteration=2, bit=1, certificate=None, sender=impostor,
            auth=authenticator.attempt(impostor, ("Propose", 2, 1)))
        receive(node, _vote(authenticator, 3, 2, 1, proposal=proposal))
        assert (2, 1) not in node.votes_seen

    def test_proposal_bit_must_match_vote_bit(self, aba_world):
        n, f, registry, authenticator, config, nodes = aba_world
        node = nodes[0]
        leader = 2
        proposal = ProposeMsg(
            iteration=2, bit=0, certificate=None, sender=leader,
            auth=authenticator.attempt(leader, ("Propose", 2, 0)))
        receive(node, _vote(authenticator, 3, 2, 1, proposal=proposal))
        assert (2, 1) not in node.votes_seen

    def test_quorum_of_votes_becomes_certificate(self, aba_world):
        n, f, registry, authenticator, config, nodes = aba_world
        node = nodes[0]
        for voter in range(f + 1):
            receive(node, _vote(authenticator, voter, 1, 1))
        assert node.best_cert[1] is not None
        assert node.best_cert[1].iteration == 1


class TestVoteChoice:
    def test_equal_rank_opposite_certificate_does_not_block(self, aba_world):
        """C.1 Vote: a same-iteration certificate for 1-b does not stop
        the vote for b."""
        n, f, registry, authenticator, config, nodes = aba_world
        node = nodes[0]
        # Give the node an iteration-1 certificate for bit 0.
        votes = {v: authenticator.attempt(v, ("Vote", 1, 0))
                 for v in range(f + 1)}
        node._absorb_certificate(certificate_from_votes(1, 0, votes, f + 1))
        # Leader proposes bit 1 with an equal-rank (iteration-1) cert.
        votes1 = {v: authenticator.attempt(v, ("Vote", 1, 1))
                  for v in range(f + 1)}
        cert1 = certificate_from_votes(1, 1, votes1, f + 1)
        leader = 2
        proposal = ProposeMsg(
            iteration=2, bit=1, certificate=cert1, sender=leader,
            auth=authenticator.attempt(leader, ("Propose", 2, 1)))
        receive(node, proposal)
        vote = node._choose_vote(2)
        assert vote is not None and vote.bit == 1

    def test_strictly_higher_opposite_certificate_blocks(self, aba_world):
        n, f, registry, authenticator, config, nodes = aba_world
        node = nodes[0]
        # Iteration-2 certificate for bit 0 (higher than the proposal's).
        leader2 = 2
        proposal0 = ProposeMsg(
            iteration=2, bit=0, certificate=None, sender=leader2,
            auth=authenticator.attempt(leader2, ("Propose", 2, 0)))
        votes = {v: authenticator.attempt(v, ("Vote", 2, 0))
                 for v in range(f + 1)}
        node._absorb_certificate(certificate_from_votes(2, 0, votes, f + 1))
        # A later proposal for bit 1 carrying only an iteration-1 cert.
        votes1 = {v: authenticator.attempt(v, ("Vote", 1, 1))
                  for v in range(f + 1)}
        cert1 = certificate_from_votes(1, 1, votes1, f + 1)
        leader3 = 3
        proposal = ProposeMsg(
            iteration=3, bit=1, certificate=cert1, sender=leader3,
            auth=authenticator.attempt(leader3, ("Propose", 3, 1)))
        receive(node, proposal)
        assert node._choose_vote(3) is None

    def test_first_iteration_votes_input_bit(self, aba_world):
        n, f, registry, authenticator, config, nodes = aba_world
        vote = nodes[0]._choose_vote(1)
        assert vote is not None
        assert vote.bit == nodes[0].input_bit
        assert vote.proposal is None


class TestPreferredBit:
    def test_defaults_to_input(self, aba_world):
        *_rest, nodes = aba_world
        assert nodes[0]._preferred_bit() == nodes[0].input_bit

    def test_follows_highest_certificate(self, aba_world):
        n, f, registry, authenticator, config, nodes = aba_world
        node = nodes[0]
        votes = {v: authenticator.attempt(v, ("Vote", 1, 0))
                 for v in range(f + 1)}
        node._absorb_certificate(certificate_from_votes(1, 0, votes, f + 1))
        assert node._preferred_bit() == 0

    def test_ties_fall_back_to_last_vote(self, aba_world):
        *_rest, nodes = aba_world
        node = nodes[0]
        node.last_vote = 0
        assert node._preferred_bit() == 0
