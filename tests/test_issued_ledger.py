"""Issuers' ledgers: ``check`` answers an auth from its issuer's ledger
only when it is the very object the issuer handed out, for that node and
that topic; anything else gets the full predicate.

The key registry and ``RoundEligibilityAuthenticator`` keep a ledger;
nodes call ``check`` (and ``ProposerPolicy.check``) straight.  Every test here checks both halves: the issued
object is answered with no predicate work (no digest, no coin or slot
signature read), and a refused case — an issued auth under another
topic or signer, a ``True``-for-``1`` topic, a content-equal copy, an
adversary-built ``FMineTicket`` — is decided by the predicate, whose
answer is returned unchanged.  ``Fmine`` keeps no ledger: a forged
ticket is refused until its coin is mined, then accepted.

Seeded mutants, in ``repro.crypto.registry.ledger_holds`` and
``ledger_tag`` (the one rule both ledgers use; each fails this file):

- drop ``entry[0] is not auth`` — a stale entry under another object's
  id then vouches for it (``test_a_stale_entry_vouches_for_no_other_
  object``);
- drop the tag comparison (return ``True`` on any pinned entry) — an
  issued auth then passes under any node or topic
  (``test_another_signer_or_topic_is_refused``, ``test_true_is_not_one``,
  ``test_the_other_bit_and_a_copy_take_the_predicate``,
  ``test_oracle_policy_asks_the_leader_and_the_ledger``);
- drop ``ledger_tag``'s ``hash(tag)`` guard — a round auth on a mutable
  topic then gets an entry
  (``TestRoundAuthLedger.test_a_mutable_topic_gets_no_entry``).
"""

import pytest

from repro.crypto.registry import IdealSignature, KeyRegistry
from repro.eligibility.difficulty import DifficultySchedule
from repro.eligibility.fmine import FMineEligibility, FMineTicket
from repro.protocols.base import (
    EligibilityAuthenticator,
    OracleProposerPolicy,
    ProposerPolicy,
    SignatureAuthenticator,
)
from repro.protocols.round_eligibility import (
    EpochKeyRegistry,
    RoundAuth,
    RoundEligibilityAuthenticator,
)
from repro.protocols.static_committee import CommitteeAuthenticator
from repro.sim.leader import LeaderOracle

TOPIC = ("Vote", 1, 1)


class Counting:
    """Counts the calls of one bound method, patched on its object."""

    def __init__(self, monkeypatch, obj, name):
        self.calls = 0
        original = getattr(obj, name)

        def counted(*args):
            self.calls += 1
            return original(*args)

        monkeypatch.setattr(obj, name, counted)


def _signature_world(n=4):
    registry = KeyRegistry(n)
    return registry, SignatureAuthenticator(registry)


def _digested(monkeypatch, registry, node_id, topic, signature):
    """``check``'s answer for ``signature`` and whether it took the
    registry's digest."""
    digests = Counting(monkeypatch, registry, "_expected_digest")
    answer = SignatureAuthenticator(registry).check(node_id, topic,
                                                    signature)
    return answer, digests.calls


@pytest.fixture
def fmine_world(params):
    """An ``Fmine`` source, its authenticator, and a node that wins
    ``TOPIC`` (coins are per (seed, node, topic): a twin tells who wins
    without mining in the source under test)."""
    schedule = DifficultySchedule.for_parameters(params, 100)
    twin = FMineEligibility(100, schedule, seed=3)
    winner = next(node for node in range(100)
                  if twin.capability_for(node).try_mine(TOPIC) is not None)
    source = FMineEligibility(100, schedule, seed=3)
    return source, EligibilityAuthenticator(source), winner


class TestSignatureLedger:
    def test_the_issued_object_takes_no_digest(self, monkeypatch):
        registry, authenticator = _signature_world()
        signature = authenticator.attempt(1, TOPIC)
        assert _digested(monkeypatch, registry, 1, ("Vote", 1, 1),
                         signature) == (True, 0)

    def test_another_signer_or_topic_is_refused(self, monkeypatch):
        registry, authenticator = _signature_world()
        signature = authenticator.attempt(1, TOPIC)
        authenticator.attempt(2, TOPIC)
        assert _digested(monkeypatch, registry, 2, TOPIC, signature) \
            == (False, 0)  # the signer field refuses before any digest
        for topic in (("Vote", 1, 0), ("Vote", 2, 1), ("Commit", 1, 1)):
            assert _digested(monkeypatch, registry, 1, topic, signature) \
                == (False, 1), topic

    def test_true_is_not_one(self, monkeypatch):
        registry, authenticator = _signature_world()
        signature = authenticator.attempt(1, TOPIC)
        assert _digested(monkeypatch, registry, 1, ("Vote", 1, True),
                         signature) == (False, 1)
        assert not authenticator.check(True, TOPIC, signature)
        signed_true = authenticator.attempt(1, ("Vote", True, 1))
        assert _digested(monkeypatch, registry, 1, ("Vote", True, 1),
                         signed_true) == (True, 0)
        assert _digested(monkeypatch, registry, 1, TOPIC, signed_true) \
            == (False, 1)

    def test_a_content_equal_copy_takes_the_digest(self, monkeypatch):
        registry, authenticator = _signature_world()
        signature = authenticator.attempt(1, TOPIC)
        copy = IdealSignature(signer=signature.signer,
                              digest=signature.digest)
        assert _digested(monkeypatch, registry, 1, TOPIC, copy) == (True, 1)

    def test_a_stale_entry_vouches_for_no_other_object(self, monkeypatch):
        registry, authenticator = _signature_world()
        honest = authenticator.attempt(1, TOPIC)
        forged = IdealSignature(signer=1, digest=b"\0" * 32)
        registry._ledger[id(forged)] = registry._ledger.pop(id(honest))
        assert _digested(monkeypatch, registry, 1, TOPIC, forged) \
            == (False, 1)

    def test_a_mutable_topic_gets_no_entry(self):
        registry, authenticator = _signature_world()
        message = ["Vote", 1, 1]
        signature = authenticator.attempt(1, message)
        assert registry._ledger == {}
        assert authenticator.check(1, ["Vote", 1, 1], signature)
        message.append("grown")
        assert not authenticator.check(1, message, signature)

    def test_a_committee_outsider_is_refused_despite_the_ledger(self):
        registry = KeyRegistry(4)
        committee = CommitteeAuthenticator(registry, [1, 2])
        assert committee.check(1, TOPIC, committee.attempt(1, TOPIC))
        outsider = registry.capability_for(3).sign(TOPIC)
        assert registry.verify(3, TOPIC, outsider)
        assert not committee.check(3, TOPIC, outsider)


class TestTicketsKeepNoLedger:
    def test_a_forged_ticket_is_refused_until_its_coin_is_mined(
            self, fmine_world):
        source, authenticator, winner = fmine_world
        forged = FMineTicket(node_id=winner, topic=TOPIC)
        assert not authenticator.check(winner, TOPIC, forged)
        assert not authenticator.check(winner, TOPIC, forged)
        honest = source.capability_for(winner).try_mine(TOPIC)
        assert honest == forged and honest is not forged
        assert authenticator.check(winner, TOPIC, forged)
        assert not authenticator.check((winner + 1) % 100, TOPIC, forged)
        assert not authenticator.check(winner, ("Vote", 1, 0), forged)


class TestRoundAuthLedger:
    """The round lottery ignores the bit; the ledger's tag does not, so
    an issued ACK auth under the other bit goes to the predicate (whose
    per-slot signature refuses it)."""

    def _world(self, monkeypatch, fmine_world, memory_erasure=True):
        source, _, winner = fmine_world
        registry = EpochKeyRegistry(100)
        authenticator = RoundEligibilityAuthenticator(
            source, registry, memory_erasure)
        auth = authenticator.attempt(winner, TOPIC)
        assert auth is not None
        predicate = (Counting(monkeypatch, source, "verify"),
                     Counting(monkeypatch, registry, "verify"))
        return authenticator, winner, auth, predicate

    def test_an_issued_auth_needs_no_predicate_after_erasure(
            self, monkeypatch, fmine_world):
        authenticator, winner, auth, predicate = self._world(
            monkeypatch, fmine_world)
        assert authenticator.check(winner, ("Vote", 1, 1), auth)
        assert [count.calls for count in predicate] == [0, 0]

    def test_the_other_bit_and_a_copy_take_the_predicate(
            self, monkeypatch, fmine_world):
        authenticator, winner, auth, predicate = self._world(
            monkeypatch, fmine_world, memory_erasure=False)
        for topic in (("Vote", 1, 0), ("Vote", 1, True)):
            assert not authenticator.check(winner, topic, auth)
        assert [count.calls for count in predicate] == [2, 2]
        assert not authenticator.check((winner + 1) % 100, TOPIC, auth)
        copy = RoundAuth(ticket=auth.ticket, signature=auth.signature)
        assert authenticator.check(winner, TOPIC, copy)
        assert [count.calls for count in predicate] == [3, 3]

    def test_a_mutable_topic_gets_no_entry(self, monkeypatch, fmine_world):
        authenticator, winner, _, _ = self._world(
            monkeypatch, fmine_world, memory_erasure=False)
        entries = len(authenticator._ledger)
        authenticator.attempt(winner, ["Vote", 1, 1])
        assert len(authenticator._ledger) == entries


class FixedLeader(LeaderOracle):
    def leader(self, iteration):
        return 1


class TestProposals:
    """``ProposerPolicy`` is its authenticator's check on the proposal
    topic; the oracle policy also asks the leader."""

    def test_oracle_policy_asks_the_leader_and_the_ledger(self,
                                                          monkeypatch):
        registry, authenticator = _signature_world()
        policy = OracleProposerPolicy(FixedLeader(), authenticator)
        auth = policy.attempt(1, 2, 0)
        digests = Counting(monkeypatch, registry, "_expected_digest")
        assert policy.check(1, 2, 0, auth)
        assert digests.calls == 0
        assert not policy.check(1, 2, 1, auth)
        assert not policy.check(1, 3, 0, auth)
        not_leader = registry.capability_for(2).sign(("Propose", 2, 0))
        assert registry.verify(2, ("Propose", 2, 0), not_leader)
        assert not policy.check(2, 2, 0, not_leader)

    def test_mining_policy_asks_the_source(self, fmine_world):
        _, authenticator, _ = fmine_world
        policy = ProposerPolicy(authenticator)
        auth = next(ticket for ticket in (
            policy.attempt(node, 1, 1) for node in range(100))
            if ticket is not None)
        node = auth.node_id
        assert policy.check(node, 1, 1, auth)
        assert not policy.check(node, 1, 0, auth)
        assert not policy.check((node + 1) % 100, 1, 1, auth)
        copy = FMineTicket(node_id=node, topic=auth.topic)
        assert policy.check(node, 1, 1, copy)


@pytest.mark.parametrize("mode", ["fmine", "vrf"])
def test_an_unhashable_topic_is_refused_not_raised(mode):
    """``Authenticator.check`` never raises: a ticket whose topic is a
    list (it can never have been mined, since coins are keyed by topic)
    is refused in both eligibility worlds."""
    from dataclasses import replace

    from repro.protocols.subquadratic_ba import make_eligibility
    from repro.types import SecurityParameters

    source = make_eligibility(4, SecurityParameters(lam=12), 0, mode)
    authenticator = EligibilityAuthenticator(source)
    won = next(ticket for ticket in (
        authenticator.attempt(node, TOPIC) for node in range(4))
        if ticket is not None)
    assert authenticator.check(won.node_id, TOPIC, won)
    listed = replace(won, topic=list(TOPIC))
    assert authenticator.check(won.node_id, list(TOPIC), listed) is False
