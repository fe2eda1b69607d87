"""Tests for certificates and their ranking.

Beside them, quorum assembly: one wrap per vote and one encoding per
signed topic, and the memo-soundness cases (equivocator auths, pinned
entries, arena rollover) that say the memos conflate nothing."""

import gc
import random
import weakref

import pytest

from repro import serialization
from repro.crypto.registry import IdealSignature
from repro.protocols.certificates import (
    Certificate,
    GENESIS_RANK,
    certificate_from_votes,
    rank,
    signed_vote,
    verify_certificate,
)
from repro.protocols.leader_ba import (
    LeaderDecideMsg,
    PrecommitMsg,
    build_leader_ba,
)
from repro.protocols.messages import SignedVote, VoteMsg
from repro.protocols.view_machine import intern_quorum
from repro.serialization import clear_size_cache


@pytest.fixture(autouse=True)
def _fresh_arena():
    clear_size_cache()
    yield
    clear_size_cache()


def _votes(iteration, bit, voters):
    return {voter: f"auth-{voter}" for voter in voters}


def _accept_all(vote: SignedVote) -> bool:
    return True


def _reject_all(vote: SignedVote) -> bool:
    return False


class TestRanking:
    def test_none_is_genesis_rank(self):
        assert rank(None) == GENESIS_RANK == 0

    def test_rank_is_iteration(self):
        certificate = certificate_from_votes(3, 1, _votes(3, 1, [0, 1]), 2)
        assert rank(certificate) == 3

    def test_higher_iteration_outranks(self):
        low = certificate_from_votes(2, 0, _votes(2, 0, [0, 1]), 2)
        high = certificate_from_votes(5, 1, _votes(5, 1, [0, 1]), 2)
        assert rank(high) > rank(low) > rank(None)


class TestConstruction:
    def test_takes_exactly_threshold_votes(self):
        certificate = certificate_from_votes(
            1, 0, _votes(1, 0, range(10)), threshold=4)
        assert len(certificate.votes) == 4

    def test_votes_are_canonically_ordered(self):
        certificate = certificate_from_votes(
            1, 0, {5: "a", 2: "b", 9: "c"}, threshold=3)
        assert [v.voter for v in certificate.votes] == [2, 5, 9]

    def test_votes_carry_iteration_and_bit(self):
        certificate = certificate_from_votes(7, 1, _votes(7, 1, [3, 4]), 2)
        assert all(v.iteration == 7 and v.bit == 1
                   for v in certificate.votes)


class TestVerification:
    def test_valid_certificate_accepted(self):
        certificate = certificate_from_votes(1, 0, _votes(1, 0, range(3)), 3)
        assert verify_certificate(certificate, 3, _accept_all)

    def test_too_few_votes_rejected(self):
        certificate = certificate_from_votes(1, 0, _votes(1, 0, range(2)), 2)
        assert not verify_certificate(certificate, 3, _accept_all)

    def test_duplicate_voters_rejected(self):
        vote = SignedVote(iteration=1, bit=0, voter=4, auth="a")
        certificate = Certificate(iteration=1, bit=0,
                                  votes=(vote, vote, vote))
        assert not verify_certificate(certificate, 2, _accept_all)

    def test_mismatched_vote_bit_rejected(self):
        good = SignedVote(iteration=1, bit=0, voter=1, auth="a")
        bad = SignedVote(iteration=1, bit=1, voter=2, auth="b")
        certificate = Certificate(iteration=1, bit=0, votes=(good, bad))
        assert not verify_certificate(certificate, 2, _accept_all)

    def test_mismatched_vote_iteration_rejected(self):
        good = SignedVote(iteration=1, bit=0, voter=1, auth="a")
        stale = SignedVote(iteration=2, bit=0, voter=2, auth="b")
        certificate = Certificate(iteration=1, bit=0, votes=(good, stale))
        assert not verify_certificate(certificate, 2, _accept_all)

    def test_bad_auth_rejected(self):
        certificate = certificate_from_votes(1, 0, _votes(1, 0, range(3)), 3)
        assert not verify_certificate(certificate, 3, _reject_all)

    def test_iteration_zero_certificate_rejected(self):
        """Only the implicit None represents the genesis certificate."""
        certificate = Certificate(iteration=0, bit=0, votes=())
        assert not verify_certificate(certificate, 0, _accept_all)

    def test_non_bit_rejected(self):
        certificate = Certificate(iteration=1, bit=7, votes=())
        assert not verify_certificate(certificate, 0, _accept_all)

    def test_single_bad_vote_poisons_certificate(self):
        votes = _votes(1, 0, range(4))
        certificate = certificate_from_votes(1, 0, votes, 4)

        def check(vote):
            return vote.voter != 2

        assert not verify_certificate(certificate, 4, check)


class TestAssemblyMemoSoundness:
    """``signed_vote`` / ``certificate_from_votes`` resolve through
    identity-keyed arena entries; these pin what the keys may and may not
    conflate.  Seeded mutants: (A) wrap key without ``id(auth)`` — kills
    (i), (ii), (iii); (B) wrap key without ``iteration`` — kills (iii),
    (iv); (C) wrap memo in a dict ``clear_size_cache`` does not drop —
    kills (ii); (D) ``base`` lends a vote by voter alone — kills (v),
    (vi).  In front of the arena sit a vote row per ``(iteration, bit)``
    and a decide front per ``(Decide class, unit, bit)``: (E) the row
    lends by voter alone, or by an *equal* auth — kills (i), (vii);
    (F) row key without the scalars' classes, or no voter-class check —
    kills (viii); (G) rows in a dict ``clear_size_cache`` does not drop
    — kills (ii), (ix); (H) the decide front reuses its last tuple on
    length or first member alone, or by equal members — kills (x);
    (I) the decide front outlives ``clear_size_cache`` — kills (x)."""

    @staticmethod
    def _reference(iteration, bit, votes, threshold):
        return Certificate(iteration=iteration, bit=bit, votes=tuple(
            SignedVote(iteration=iteration, bit=bit, voter=voter, auth=auth)
            for voter, auth in sorted(votes.items())[:threshold]))

    def test_equal_but_distinct_auths_are_not_conflated(self):
        """(i) An equivocator's two signatures on one topic are equal
        tokens but two objects; each certificate carries its own."""
        first = IdealSignature(signer=0, digest=b"d")
        second = IdealSignature(signer=0, digest=b"d")
        assert first == second and first is not second
        shared = IdealSignature(signer=1, digest=b"e")
        cert_first = certificate_from_votes(1, 0, {0: first, 1: shared}, 2)
        cert_second = certificate_from_votes(1, 0, {0: second, 1: shared}, 2)
        assert cert_first.votes[0].auth is first
        assert cert_second.votes[0].auth is second
        assert cert_first == cert_second and cert_first is not cert_second
        assert cert_first.votes[1] is cert_second.votes[1]
        assert signed_vote(1, 0, 0, second) is cert_second.votes[0]

    def test_arena_pins_until_cleared_and_not_after(self):
        """(ii) Every id a key names belongs to an object the entry keeps
        alive — and ``clear_size_cache()`` lets all of it go."""
        first = IdealSignature(signer=0, digest=b"d")
        second = IdealSignature(signer=0, digest=b"d")
        shared = IdealSignature(signer=1, digest=b"e")
        certs = [certificate_from_votes(1, 0, {0: auth, 1: shared}, 2)
                 for auth in (first, second)]
        refs = [weakref.ref(obj) for obj in
                (first, second, shared, *certs, *certs[0].votes,
                 *certs[1].votes)]
        del first, second, shared, certs
        gc.collect()
        assert all(ref() is not None for ref in refs)
        clear_size_cache()
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_random_quorums_across_arena_rollover(self, monkeypatch):
        """(iii) The arena wiping itself mid-stream costs sharing, never
        content: 200 random quorums over auths reused across iterations
        and bits, two differing auths per voter."""
        monkeypatch.setattr(serialization, "_SIZE_CACHE_LIMIT", 16)
        rng = random.Random(7)
        pool = {voter: [f"sig-{voter}-{copy}" for copy in "ab"]
                for voter in range(10)}
        wrapped = set()
        for _ in range(200):
            iteration, bit = rng.randint(1, 3), rng.randint(0, 1)
            votes = {voter: rng.choice(pool[voter])
                     for voter in rng.sample(range(10), rng.randint(1, 10))}
            threshold = rng.randint(1, len(votes))
            certificate = certificate_from_votes(
                iteration, bit, votes, threshold)
            assert certificate == self._reference(
                iteration, bit, votes, threshold)
            assert all(vote.auth is votes[vote.voter]
                       for vote in certificate.votes)
            wrapped.update((iteration, bit, vote.voter, id(vote.auth))
                           for vote in certificate.votes)
        assert len(wrapped) > 16  # the arena did roll over

    def test_same_quorum_is_one_object_per_iteration(self):
        """(iv) Reassembly is a lookup; the same auths under another
        iteration or bit are another certificate, votes and all."""
        votes = _votes(1, 0, range(4))
        first = certificate_from_votes(1, 0, votes, 3)
        assert certificate_from_votes(1, 0, dict(votes), 3) is first
        for iteration, bit in ((2, 0), (1, 1)):
            other = certificate_from_votes(iteration, bit, votes, 3)
            assert other is not first
            assert other == self._reference(iteration, bit, votes, 3)

    def test_base_lends_only_votes_with_the_same_auth_object(self):
        """(v) A node whose prior tally holds an equivocator's second
        auth for a voter of the round's quorum wraps that auth, not the
        quorum's vote; every other vote is the quorum's own object."""
        first = IdealSignature(signer=0, digest=b"d")
        second = IdealSignature(signer=0, digest=b"d")
        shared = IdealSignature(signer=1, digest=b"e")
        base = certificate_from_votes(1, 0, {0: first, 1: shared}, 2)
        mine = certificate_from_votes(
            1, 0, {0: second, 1: shared, 2: "late"}, 2, base=base)
        assert mine.votes[0].auth is second
        assert mine.votes[1] is base.votes[1]
        assert mine == self._reference(1, 0, {0: second, 1: shared}, 2)
        assert mine is not base

    def test_random_quorums_with_and_without_base(self, monkeypatch):
        """(vi) 200 random quorums, each assembled plain and against a
        random base of the same iteration and bit (two differing auths
        per voter, arena rolling over), equal the plain reference."""
        monkeypatch.setattr(serialization, "_SIZE_CACHE_LIMIT", 16)
        rng = random.Random(11)
        pool = {voter: [f"sig-{voter}-{copy}" for copy in "ab"]
                for voter in range(10)}

        def draw():
            return {voter: rng.choice(pool[voter])
                    for voter in rng.sample(range(10), rng.randint(1, 10))}

        lent = 0
        for _ in range(200):
            iteration, bit = rng.randint(1, 3), rng.randint(0, 1)
            votes, other = draw(), draw()
            threshold = rng.randint(1, len(votes))
            base = certificate_from_votes(
                iteration, bit, other, rng.randint(1, len(other)))
            reference = self._reference(iteration, bit, votes, threshold)
            for certificate in (
                    certificate_from_votes(iteration, bit, votes, threshold),
                    certificate_from_votes(iteration, bit, votes, threshold,
                                           base=base)):
                assert certificate == reference
                assert all(vote.auth is votes[vote.voter]
                           for vote in certificate.votes)
            # The last one built is the base's: it holds the base's own
            # object for every vote whose auth the base wrapped.
            by_voter = {vote.voter: vote for vote in base.votes}
            for vote in certificate.votes:
                own = by_voter.get(vote.voter)
                if own is not None and own.auth is vote.auth:
                    assert own is vote
                    lent += 1
        assert lent > 0

    def test_row_never_lends_an_equal_but_distinct_auth(self):
        """(vii) The row keeps the last vote wrapped per voter: an
        equivocator's second auth, equal but another object, is wrapped
        on its own, and its first auth again gets the arena's first vote
        — what :func:`signed_vote` answers, each time."""
        first = IdealSignature(signer=0, digest=b"d")
        second = IdealSignature(signer=0, digest=b"d")
        shared = IdealSignature(signer=1, digest=b"e")
        original = certificate_from_votes(1, 0, {0: first, 1: shared}, 2)
        for auth in (second, first, second):
            certificate = certificate_from_votes(
                1, 0, {0: auth, 1: shared}, 2)
            assert certificate.votes[0].auth is auth
            assert certificate.votes[0] is signed_vote(1, 0, 0, auth)
            assert certificate.votes[1] is original.votes[1]
        assert certificate.votes[0] is not original.votes[0]

    def test_bool_and_int_scalars_take_separate_rows(self):
        """(viii) ``True == 1``, but a bool encodes in 8 bits and an int
        in 64: an iteration, bit or voter of the other class never takes
        a vote from an int's row."""
        auths = {1: "t", 2: "u"}
        plain = certificate_from_votes(1, 1, auths, 2)
        for iteration, bit, votes in ((True, 1, auths), (1, True, auths),
                                      (1, 1, {True: "t", 2: "u"})):
            certificate = certificate_from_votes(iteration, bit, votes, 2)
            assert certificate == plain
            for vote, (voter, auth) in zip(certificate.votes,
                                           sorted(votes.items())):
                assert vote is signed_vote(iteration, bit, voter, auth)
                assert [vote.iteration.__class__, vote.bit.__class__,
                        vote.voter.__class__] == [
                    iteration.__class__, bit.__class__, voter.__class__]

    def test_clear_size_cache_releases_every_row(self):
        """(ix) The rows are arena entries: they pin their votes until
        ``clear_size_cache()``, and a quorum assembled after it gets the
        arena's new votes, never a row's stale ones."""
        auths = {voter: IdealSignature(signer=voter, digest=b"d")
                 for voter in range(3)}
        refs = [weakref.ref(vote) for iteration in (1, 2) for vote in
                certificate_from_votes(iteration, 0, auths, 3).votes]
        gc.collect()
        assert all(ref() is not None for ref in refs)
        clear_size_cache()
        gc.collect()
        assert all(ref() is None for ref in refs)
        again = certificate_from_votes(1, 0, auths, 3)
        assert again == self._reference(1, 0, auths, 3)
        assert all(vote is signed_vote(1, 0, vote.voter, vote.auth)
                   for vote in again.votes)

    def test_decide_front_rebuilds_when_one_member_differs(self):
        """(x) A decider's members tuple: the front answers with the
        last tuple only when every chosen member is that tuple's own
        object.  One member replaced by another object gets a new tuple
        — the one :func:`intern_quorum` holds; a re-created member with
        the same auth object gets intern_quorum's old tuple back; after
        ``clear_size_cache()`` the tuple is built anew."""
        instance = build_leader_ba(4, 1, [0] * 4, seed=0)
        node = instance.nodes[0]

        def precommit(sender):
            return PrecommitMsg(view=1, bit=0, sender=sender,
                                auth=IdealSignature(signer=sender,
                                                    digest=b"p"))

        def assembled():
            return node.quorum_decide_msg(1, 0).precommits

        def interned_quorum(members):
            return intern_quorum(
                LeaderDecideMsg, 1, 0,
                [(member.sender, member.auth) for member in members],
                lambda: None)

        tally = node.members_seen[(1, 0)] = {
            sender: precommit(sender) for sender in (3, 0, 2, 1)}
        first = assembled()
        assert first == tuple(tally[sender] for sender in range(3))
        assert assembled() is first is interned_quorum(first)
        tally[1] = precommit(1)
        second = assembled()
        assert second == first and second is not first
        assert second[1] is tally[1]
        assert second is interned_quorum(second)
        tally[1] = PrecommitMsg(view=1, bit=0, sender=1, auth=first[1].auth)
        assert assembled() is first
        tally[1] = first[1]
        assert assembled() is first
        clear_size_cache()
        third = assembled()
        assert third == first and third is not first

    def test_vote_msg_wraps_to_the_certificates_vote(self):
        certificate = certificate_from_votes(2, 1, {3: "t", 4: "u"}, 2)
        vote = VoteMsg(iteration=2, bit=1, sender=3, auth="t")
        assert vote.as_signed_vote() is certificate.votes[0]
