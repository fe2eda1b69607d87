"""Edge-case tests for the iterated-BA node: the paths adversarial
message streams exercise."""

import pytest

from repro.crypto.registry import KeyRegistry
from repro.protocols.aba import SCHEDULE, AbaNode
from repro.protocols.base import OracleProposerPolicy, SignatureAuthenticator
from repro.protocols.certificates import certificate_from_votes
from repro.protocols.messages import (
    CommitMsg,
    ProposeMsg,
    StatusMsg,
    TerminateMsg,
    VoteMsg,
)
from repro.protocols.verification import RoundConfig
from repro.sim.leader import RoundRobinLeaderOracle
from repro.sim.network import Delivery
from repro.sim.node import RoundContext
from tests.conftest import receive


@pytest.fixture
def world():
    n, f = 7, 3
    registry = KeyRegistry(n)
    authenticator = SignatureAuthenticator(registry)
    config = RoundConfig(
        schedule=SCHEDULE,
        threshold=f + 1,
        authenticator=authenticator,
        proposer=OracleProposerPolicy(RoundRobinLeaderOracle(n),
                                      authenticator),
        units=5,
    )
    nodes = [AbaNode(i, n, 1, config) for i in range(n)]
    return n, f, authenticator, config, nodes


def _cert(authenticator, iteration, bit, voters):
    votes = {v: authenticator.attempt(v, ("Vote", iteration, bit))
             for v in voters}
    return certificate_from_votes(iteration, bit, votes, len(voters))


def _commit(authenticator, iteration, bit, sender, voters):
    return CommitMsg(
        iteration=iteration, bit=bit,
        certificate=_cert(authenticator, iteration, bit, voters),
        sender=sender,
        auth=authenticator.attempt(sender, ("Commit", iteration, bit)))


class TestStatusHandling:
    def test_status_with_bogus_certificate_ignored(self, world):
        n, f, authenticator, config, nodes = world
        node = nodes[0]
        bogus = _cert(authenticator, 1, 1, range(2))  # sub-quorum
        msg = StatusMsg(iteration=2, bit=1, certificate=bogus, sender=3,
                        auth=authenticator.attempt(3, ("Status", 2, 1)))
        receive(node, msg)
        assert node.best_cert[1] is None

    def test_status_with_valid_certificate_absorbed(self, world):
        n, f, authenticator, config, nodes = world
        node = nodes[0]
        cert = _cert(authenticator, 1, 1, range(f + 1))
        msg = StatusMsg(iteration=2, bit=1, certificate=cert, sender=3,
                        auth=authenticator.attempt(3, ("Status", 2, 1)))
        receive(node, msg)
        assert node.best_cert[1] == cert

    def test_status_wrong_auth_topic_ignored(self, world):
        n, f, authenticator, config, nodes = world
        node = nodes[0]
        cert = _cert(authenticator, 1, 1, range(f + 1))
        msg = StatusMsg(iteration=2, bit=1, certificate=cert, sender=3,
                        auth=authenticator.attempt(3, ("Status", 9, 1)))
        receive(node, msg)
        assert node.best_cert[1] is None


class TestCommitHandling:
    def test_commit_quorum_triggers_decision(self, world):
        n, f, authenticator, config, nodes = world
        node = nodes[0]
        inbox = [
            Delivery(sender, _commit(authenticator, 1, 1, sender,
                                     range(f + 1)))
            for sender in range(1, f + 2)
        ]
        ctx = RoundContext(0, 2, inbox, None)
        node.on_round(ctx)
        assert node.output() == 1
        assert node.halted

    def test_subquorum_commits_do_not_decide(self, world):
        n, f, authenticator, config, nodes = world
        node = nodes[0]
        inbox = [
            Delivery(sender, _commit(authenticator, 1, 1, sender,
                                     range(f + 1)))
            for sender in range(1, f + 1)  # one short of quorum
        ]
        ctx = RoundContext(0, 2, inbox, None)
        node.on_round(ctx)
        assert node.output() is None

    def test_commit_with_mismatched_certificate_rejected(self, world):
        n, f, authenticator, config, nodes = world
        node = nodes[0]
        commit = CommitMsg(
            iteration=2, bit=1,
            certificate=_cert(authenticator, 1, 1, range(f + 1)),  # rank 1
            sender=3,
            auth=authenticator.attempt(3, ("Commit", 2, 1)))
        receive(node, commit)
        assert (2, 1) not in node.commits_seen

    def test_duplicate_commit_senders_counted_once(self, world):
        n, f, authenticator, config, nodes = world
        node = nodes[0]
        commit = _commit(authenticator, 1, 1, 3, range(f + 1))
        receive(node, commit)
        receive(node, commit)
        assert len(node.commits_seen[(1, 1)]) == 1


class TestTerminateHandling:
    def _terminate_msg(self, authenticator, f, bit=1, quorum=None):
        quorum = quorum if quorum is not None else f + 1
        commits = tuple(
            CommitMsg(iteration=1, bit=bit, certificate=None, sender=s,
                      auth=authenticator.attempt(s, ("Commit", 1, bit)))
            for s in range(quorum))
        return TerminateMsg(
            bit=bit, iteration=1, commits=commits, sender=5,
            auth=authenticator.attempt(5, ("Terminate", bit)))

    def test_valid_terminate_adopted(self, world):
        n, f, authenticator, config, nodes = world
        node = nodes[0]
        adopted = receive(node, self._terminate_msg(authenticator, f))
        assert adopted == (1, 1)

    def test_subquorum_terminate_rejected(self, world):
        n, f, authenticator, config, nodes = world
        node = nodes[0]
        msg = self._terminate_msg(authenticator, f, quorum=f)
        assert receive(node, msg) is None

    def test_terminate_with_wrong_bit_commits_rejected(self, world):
        n, f, authenticator, config, nodes = world
        node = nodes[0]
        commits = tuple(
            CommitMsg(iteration=1, bit=0, certificate=None, sender=s,
                      auth=authenticator.attempt(s, ("Commit", 1, 0)))
            for s in range(f + 1))
        msg = TerminateMsg(bit=1, iteration=1, commits=commits, sender=5,
                           auth=authenticator.attempt(5, ("Terminate", 1)))
        assert receive(node, msg) is None

    def test_adopting_node_can_relay(self, world):
        """After adopting a Terminate, the node's own Terminate carries
        the quorum (the Lemma 10 propagation chain)."""
        n, f, authenticator, config, nodes = world
        node = nodes[0]
        msg = self._terminate_msg(authenticator, f)
        ctx = RoundContext(0, 2, [Delivery(5, msg)], None)
        node.on_round(ctx)
        assert node.halted and node.output() == 1
        relayed = [payload for _rec, payload in ctx.staged
                   if isinstance(payload, TerminateMsg)]
        assert len(relayed) == 1
        assert len(relayed[0].commits) >= config.threshold


class TestFallbackOutput:
    def test_undecided_node_falls_back_to_preferred_bit(self, world):
        n, f, authenticator, config, nodes = world
        node = nodes[0]
        assert node.output() is None
        assert node.finalize() == node.input_bit
        cert = _cert(authenticator, 1, 0, range(f + 1))
        node._absorb_certificate(cert)
        assert node.finalize() == 0

    def test_node_halts_after_max_iterations(self, world):
        n, f, authenticator, config, nodes = world
        node = nodes[0]
        # Round far beyond units * 4 + 2.
        ctx = RoundContext(0, 4 * config.units + 10, [], None)
        node.on_round(ctx)
        assert node.halted
