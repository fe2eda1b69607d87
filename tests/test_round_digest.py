"""The shared round digest against the per-message fold it stands in for.

``AbaNode`` absorbs a round that every node receives alike — a
``RoundContext.broadcast`` — from one validated, tallied digest instead
of folding the same deliveries n times (docs/PERFORMANCE.md, "Shared
round digest").  The fold is the reference semantics and is what runs
with ``CACHING_ENABLED`` off, so everything here is differential: the
same execution, or the same deliveries into twin nodes, down both paths,
compared on the full ``ExecutionResult`` *and* on the nodes' final state
including dict orders (``votes_seen`` order picks certificates,
``commits_seen`` order picks the pending decision).

(a) is the execution-level battery; (b) holds one case per trap the
closed form has to get right, plus a seeded random stream of valid
messages into twin nodes that lands on every deviation rule.
"""

import random

import pytest

from repro.adversaries import (
    CrashAdversary,
    IsolationAdversary,
    StaticEquivocationAdversary,
)
from repro.crypto.registry import KeyRegistry
from repro.eligibility.fmine import FMine, FMineTicket
from repro.harness.runner import run_instance
from repro.protocols import verification
from repro.protocols.aba import (
    PHASE_PROPOSE,
    AbaConfig,
    AbaNode,
    RoundDigest,
    schedule,
)
from repro.protocols.base import OracleProposerPolicy, SignatureAuthenticator
from repro.protocols.certificates import certificate_from_votes
from repro.protocols.early_stopping import build_quadratic_ba_early_stop
from repro.protocols.messages import (
    CommitMsg,
    ProposeMsg,
    StatusMsg,
    TerminateMsg,
    VoteMsg,
)
from repro.protocols.quadratic_ba import build_quadratic_ba
from repro.protocols.subquadratic_ba import build_subquadratic_ba
from repro.sim.adversary import Adversary
from repro.sim.leader import RoundRobinLeaderOracle
from repro.sim.network import Delivery, SynchronousNetwork, own_view
from repro.sim.node import RoundContext
from repro.types import AdversaryModel, SecurityParameters

PARAMS = SecurityParameters(lam=30, epsilon=0.1)


# -- observation helpers -------------------------------------------------------


def node_state(node):
    """Everything the fold leaves in an ``AbaNode``, orders included."""
    return {
        "best_cert": dict(node.best_cert),
        "votes_seen": [(key, list(votes.items()))
                       for key, votes in node.votes_seen.items()],
        "commits_seen": [(key, list(commits.items()))
                         for key, commits in node.commits_seen.items()],
        "proposals": [(iteration, list(msgs))
                      for iteration, msgs in node.proposals.items()],
        "last_vote": node.last_vote,
        "decision": (node.decision, node.decision_iteration,
                     node.decided_round, node.halted),
    }


def execution_snapshot(result, instance):
    return {
        "outputs": result.outputs,
        "decided_rounds": result.decided_rounds,
        "rounds_executed": result.rounds_executed,
        "corrupt_set": result.corrupt_set,
        "metrics": vars(result.metrics),
        "transcript": [
            (e.envelope_id, e.sender, e.recipient, e.payload, e.round_sent,
             e.honest_sender) for e in result.transcript],
        "nodes": [node_state(node) for node in instance.nodes],
    }


class DigestSpy:
    """Records, per round, whether ``AbaNode`` built a digest (``True``),
    gave the round up to the fold (``False``), and how many nodes merged
    one."""

    def __init__(self, monkeypatch):
        self.built = []
        self.merged = 0
        build, merge = AbaNode._build_digest, AbaNode._merge_digest
        spy = self

        def spying_build(node, broadcast):
            digest = build(node, broadcast)
            spy.built.append(digest is not None)
            return digest

        def spying_merge(node, digest):
            done = merge(node, digest)
            spy.merged += done
            return done

        monkeypatch.setattr(AbaNode, "_build_digest", spying_build)
        monkeypatch.setattr(AbaNode, "_merge_digest", spying_merge)


# -- (a) the execution-level battery --------------------------------------------


class SplitEquivocationAdversary(StaticEquivocationAdversary):
    """Equivocation proper: each corrupt node says both bits, but shows
    bit ``b`` only to the recipients of parity ``b`` (unicasts, corrupt
    recipients included) — a target policy over the menu."""

    def targets(self, bit):
        return [recipient for recipient in range(self.api.n)
                if recipient % 2 == bit]


BUILDERS = {
    "quadratic": lambda inputs, seed: (
        build_quadratic_ba(13, 6, inputs, seed=seed), 6),
    "quadratic-early-stop": lambda inputs, seed: (
        build_quadratic_ba_early_stop(13, 6, inputs, seed=seed), 6),
    "subquadratic": lambda inputs, seed: (
        build_subquadratic_ba(60, 18, inputs, seed=seed, params=PARAMS), 18),
}
SIZES = {"quadratic": 13, "quadratic-early-stop": 13, "subquadratic": 60}

ADVERSARIES = {
    "benign": lambda instance: (None, AdversaryModel.ADAPTIVE),
    "crash": lambda instance: (CrashAdversary(), AdversaryModel.ADAPTIVE),
    "static-byzantine": lambda instance: (
        StaticEquivocationAdversary(instance), AdversaryModel.ADAPTIVE),
    "equivocation": lambda instance: (
        SplitEquivocationAdversary(instance), AdversaryModel.ADAPTIVE),
    "removal": lambda instance: (
        IsolationAdversary(victim=1), AdversaryModel.STRONGLY_ADAPTIVE),
}

INPUTS = {
    "alternating": lambda n, seed: [i % 2 for i in range(n)],
    "unanimous": lambda n, seed: [seed % 2] * n,
    "random": lambda n, seed: [
        random.Random(seed * 7919 + n).getrandbits(1) for _ in range(n)],
}


def _execute(protocol, adversary, inputs, seed):
    instance, f = BUILDERS[protocol](
        INPUTS[inputs](SIZES[protocol], seed), seed)
    attacker, model = ADVERSARIES[adversary](instance)
    result = run_instance(instance, f, attacker, model=model, seed=seed)
    return execution_snapshot(result, instance)


@pytest.mark.parametrize("inputs", sorted(INPUTS))
@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
@pytest.mark.parametrize("protocol", sorted(BUILDERS))
def test_digest_path_equals_per_message_fold(monkeypatch, protocol,
                                             adversary, inputs):
    for seed in (1, 2, 3):
        spy = DigestSpy(monkeypatch)
        shared = _execute(protocol, adversary, inputs, seed)
        monkeypatch.setattr(verification, "CACHING_ENABLED", False)
        folded = _execute(protocol, adversary, inputs, seed)
        monkeypatch.undo()
        assert shared == folded, (protocol, adversary, inputs, seed)
        # The comparison must not be fold-vs-fold by accident: rounds of
        # plain multicasts go through the digest...
        if adversary in ("benign", "crash", "static-byzantine"):
            assert spy.built and all(spy.built) and spy.merged
        # ...while a round with unicasts or removed copies is not even
        # offered to it.
        if adversary in ("equivocation", "removal"):
            assert len(spy.built) < shared["rounds_executed"]


# -- (b) the traps, on twin nodes -------------------------------------------------


class World:
    """A quadratic world (n = 7, f = 3, threshold 4) in which any node's
    messages can be forged validly — the registry signs for everyone."""

    n, f = 7, 3

    def __init__(self):
        registry = KeyRegistry(self.n, "ideal")
        self.authenticator = SignatureAuthenticator(registry)
        self.oracle = RoundRobinLeaderOracle(self.n)
        self.config = AbaConfig(
            threshold=self.f + 1,
            authenticator=self.authenticator,
            proposer=OracleProposerPolicy(self.oracle, self.authenticator),
            max_iterations=9,
        )

    def node(self, node_id, bit=1):
        return AbaNode(node_id, self.n, bit, self.config)

    def sign(self, sender, *topic):
        return self.authenticator.attempt(sender, topic)

    def certificate(self, iteration, bit, voters):
        votes = {v: self.sign(v, "Vote", iteration, bit) for v in voters}
        return certificate_from_votes(iteration, bit, votes, len(votes))

    def proposal(self, iteration, bit, certificate=None):
        leader = self.oracle.leader(iteration)
        return ProposeMsg(
            iteration=iteration, bit=bit, certificate=certificate,
            sender=leader,
            auth=self.config.proposer.attempt(leader, iteration, bit))

    def vote(self, sender, iteration, bit, proposal=None):
        if iteration > 1 and proposal is None:
            proposal = self.proposal(iteration, bit)
        return VoteMsg(iteration=iteration, bit=bit, sender=sender,
                       auth=self.sign(sender, "Vote", iteration, bit),
                       proposal=proposal)

    def status(self, sender, iteration, certificate):
        bit = certificate.bit if certificate is not None else None
        return StatusMsg(iteration=iteration, bit=bit,
                         certificate=certificate, sender=sender,
                         auth=self.sign(sender, "Status", iteration, bit))

    def commit(self, sender, iteration, bit, voters=range(4)):
        return CommitMsg(
            iteration=iteration, bit=bit,
            certificate=self.certificate(iteration, bit, voters),
            sender=sender, auth=self.sign(sender, "Commit", iteration, bit))

    def terminate(self, sender, iteration, bit, committers=range(4)):
        commits = tuple(
            CommitMsg(iteration=iteration, bit=bit, certificate=None,
                      sender=c, auth=self.sign(c, "Commit", iteration, bit))
            for c in committers)
        return TerminateMsg(bit=bit, iteration=iteration, commits=commits,
                            sender=sender,
                            auth=self.sign(sender, "Terminate", bit))


def broadcast_of(messages):
    """Deliveries of ``messages``; a ``(relay, msg)`` pair travels under
    the envelope sender ``relay`` instead of ``msg.sender``."""
    return [Delivery(sender=m[0], payload=m[1]) if isinstance(m, tuple)
            else Delivery(sender=m.sender, payload=m) for m in messages]


def absorb_both_ways(world, node_id, broadcast, prepare=lambda node: None):
    """Twin nodes ``node_id`` of one world, identically prepared: one is
    handed ``broadcast`` as its round's common delivery list, the other
    its own view of it as a plain inbox.  Returns (digest-path node and
    pending, fold node and pending)."""
    rng = random.Random(0)
    shared, folded = world.node(node_id), world.node(node_id)
    prepare(shared)
    prepare(folded)
    pending_shared = shared._process_inbox(
        RoundContext(node_id, 1, None, rng, broadcast))
    pending_folded = folded._process_inbox(
        RoundContext(node_id, 1, own_view(broadcast, node_id), rng))
    return shared, pending_shared, folded, pending_folded


def assert_same(world, node_id, broadcast, prepare=lambda node: None):
    shared, pending_shared, folded, pending_folded = absorb_both_ways(
        world, node_id, broadcast, prepare)
    assert pending_shared == pending_folded
    assert node_state(shared) == node_state(folded)
    return shared


def own_vote(world, iteration, bit):
    """``prepare`` hook: the node has multicast (and so tallied) its own
    vote, as ``_do_vote`` does."""
    def prepare(node):
        vote = world.vote(node.node_id, iteration, bit)
        node._record_vote(iteration, bit, node.node_id, vote.auth)
    return prepare


class TestQuorumCertificate:
    def test_late_own_vote_first_yields_first_f_plus_own(self, monkeypatch):
        """A node tallies its own vote before any arrival, so node i > f
        crosses the quorum on {0..f-1, i}, not on the digest's {0..f}."""
        world = World()
        spy = DigestSpy(monkeypatch)
        broadcast = broadcast_of(
            [world.vote(v, 1, 1) for v in range(world.n)])
        for node_id in range(world.n):
            node = assert_same(world, node_id, broadcast,
                               own_vote(world, 1, 1))
            voters = tuple(v.voter for v in node.best_cert[1].votes)
            expected = ((0, 1, 2, 3) if node_id <= world.f
                        else (0, 1, 2, node_id))
            assert voters == expected
        assert spy.built == [True] and spy.merged == world.n

    def test_prior_votes_outside_the_prefix(self):
        """Prior entries from an earlier round (not just the own vote)
        shift the crossing set the same way."""
        world = World()
        broadcast = broadcast_of(
            [world.vote(v, 1, 0) for v in (0, 1, 3, 4)])

        def prepare(node):
            for voter in (6, 5):
                node._record_vote(1, 0, voter, world.vote(voter, 1, 0).auth)

        node = assert_same(world, 2, broadcast, prepare)
        assert tuple(v.voter for v in node.best_cert[0].votes) == (0, 1, 5, 6)
        assert list(node.votes_seen[(1, 0)]) == [6, 5, 0, 1, 3, 4]

    def test_commit_certificate_is_shared_only_for_equal_tallies(self):
        """Nodes on one shared tally commit on one lowest-threshold
        certificate object; a node with one more vote — tallied before
        the round or after it — assembles its own, and each equals what
        the fold-path twin commits on."""
        world = World()
        broadcast = broadcast_of(
            [world.vote(v, 1, 1) for v in (6, 5, 4, 3, 2)])
        extra = world.vote(1, 1, 1).auth
        committed = []
        for node_id, before, after in ((0, False, False), (1, False, False),
                                       (0, True, False), (0, False, True)):
            def prepare(node, before=before):
                if before:
                    node._record_vote(1, 1, 1, extra)
            shared, _, folded, _ = absorb_both_ways(
                world, node_id, broadcast, prepare)
            certificates = []
            for twin in (shared, folded):
                if after:
                    twin._record_vote(1, 1, 1, extra)
                ctx = RoundContext(node_id, 1, [], random.Random(0))
                twin._do_commit(ctx, 1)
                certificates.append(ctx.staged[0][1].certificate)
            assert certificates[0] == certificates[1]
            committed.append(certificates[0])
        assert committed[0] is committed[1]
        assert [[v.voter for v in c.votes] for c in committed] == [
            [2, 3, 4, 5], [2, 3, 4, 5], [1, 2, 3, 4], [1, 2, 3, 4]]


class TestOwnAndRelayedMessages:
    def test_own_proposal_is_not_appended_twice(self):
        world = World()
        proposal = world.proposal(2, 1)
        leader = proposal.sender
        broadcast = broadcast_of([proposal])

        def prepare(node):
            if node.node_id == leader:  # _do_propose keeps its own
                node.proposals.setdefault(2, []).append(proposal)

        for node_id in (leader, (leader + 1) % world.n):
            node = assert_same(world, node_id, broadcast, prepare)
            assert node.proposals == {2: [proposal]}

    def test_relayed_own_proposal_is_appended_like_any_arrival(self):
        """The skip is by envelope sender: the leader's proposal relayed
        by someone else does reach the leader's inbox, and the fold
        appends it."""
        world = World()
        proposal = world.proposal(2, 1)
        broadcast = broadcast_of([proposal, (5, proposal)])
        node = assert_same(
            world, proposal.sender, broadcast,
            lambda node: node.proposals.setdefault(2, []).append(proposal))
        assert node.proposals == {2: [proposal, proposal]}

    def test_relayed_vote_is_tallied_under_its_signer(self):
        world = World()
        relayed = world.vote(2, 1, 1)
        digest = RoundDigest()
        digest.add_vote(Delivery(sender=6, payload=relayed))
        assert list(digest.votes[(1, 1)].votes) == [2]
        broadcast = broadcast_of(
            [(6, relayed), world.vote(6, 1, 1), relayed, world.vote(0, 1, 1)])
        for node_id in (2, 6, 3):
            node = assert_same(world, node_id, broadcast,
                               own_vote(world, 1, 1))
            assert sorted(node.votes_seen[(1, 1)]) == sorted(
                {0, 2, 6, node_id})


class TestPendingDecision:
    def test_commits_seen_key_order_drives_the_same_pending(self):
        """With two commit quorums on hand the *last* key of
        ``commits_seen`` wins, so the merge must create keys in the
        fold's order — first arrival, Terminate-attached commits
        included."""
        world = World()
        early = [world.commit(c, 1, 1) for c in range(4)]
        late = [world.commit(c, 2, 0, voters=range(3, 7)) for c in range(4)]
        for messages, expected in (
                (late[:1] + early + late[1:], (1, 1)),
                (early[:1] + late + early[1:], (2, 0)),
                ([world.terminate(5, 2, 0)] + early, (1, 1)),
                (early + [world.terminate(5, 2, 0)], (2, 0))):
            shared, pending, _, _ = absorb_both_ways(
                world, 6, broadcast_of(messages))
            assert pending == expected
            assert_same(world, 6, broadcast_of(messages))

    def test_last_terminate_wins_without_a_local_quorum(self):
        world = World()
        stale = {c: world.commit(c, 1, 1) for c in (0, 1)}
        messages = [world.terminate(4, 1, 1), world.terminate(5, 2, 0)]

        def prepare(node):
            node.commits_seen[(3, 1)] = dict(stale)

        shared, pending, _, _ = absorb_both_ways(
            world, 6, broadcast_of(messages), prepare)
        assert pending == (2, 0)
        assert_same(world, 6, broadcast_of(messages), prepare)


class TestDeviationRules:
    def test_two_vote_iterations_for_one_bit_fold(self, monkeypatch):
        world = World()
        spy = DigestSpy(monkeypatch)
        broadcast = broadcast_of(
            [world.vote(v, 2, 1) for v in range(4)]
            + [world.vote(v, 1, 1) for v in range(4)])
        node = assert_same(world, 5, broadcast)
        assert spy.built == [False]
        # The iteration-2 quorum formed first, so no iteration-1
        # certificate was ever assembled.
        assert node.best_cert[1].iteration == 2

    def test_received_certificate_at_the_vote_iteration_folds(
            self, monkeypatch):
        world = World()
        spy = DigestSpy(monkeypatch)
        received = world.certificate(1, 1, (3, 4, 5, 6))
        broadcast = broadcast_of(
            [world.vote(v, 1, 1) for v in range(3)]
            + [world.status(6, 2, received), world.vote(3, 1, 1)])
        node = assert_same(world, 5, broadcast)
        assert spy.built == [False]
        assert node.best_cert[1] is received

    def test_lower_received_certificate_rides_the_digest(self, monkeypatch):
        world = World()
        spy = DigestSpy(monkeypatch)
        lower = world.certificate(1, 1, (3, 4, 5, 6))
        proposal = world.proposal(2, 1, lower)
        broadcast = broadcast_of(
            [world.vote(v, 2, 1, proposal) for v in range(5)])
        node = assert_same(world, 5, broadcast)
        assert spy.built == [True] and spy.merged == 1
        assert node.best_cert[1].iteration == 2

    def test_quorum_on_hand_without_its_certificate_folds_that_node(
            self, monkeypatch):
        """Only reachable by hand (a tally at quorum always has its
        certificate), but the fold then assembles from the whole tally —
        so that node, and only that node, folds."""
        world = World()
        spy = DigestSpy(monkeypatch)
        broadcast = broadcast_of([world.vote(0, 1, 1)])

        def prepare(node):
            node.votes_seen[(1, 1)] = {
                v: world.vote(v, 1, 1).auth for v in (6, 5, 4, 3)}

        node = assert_same(world, 2, broadcast, prepare)
        assert spy.built == [True] and spy.merged == 0
        assert [v.voter for v in node.best_cert[1].votes] == [0, 3, 4, 5]
        assert_same(world, 2, broadcast)
        assert spy.merged == 1

    def test_invalid_message_folds_the_round_for_everyone(self, monkeypatch):
        world = World()
        spy = DigestSpy(monkeypatch)
        forged = VoteMsg(iteration=1, bit=1, sender=4,
                         auth=world.sign(5, "Vote", 1, 1), proposal=None)
        broadcast = broadcast_of(
            [world.vote(v, 1, 1) for v in range(4)] + [forged])
        node = assert_same(world, 6, broadcast)
        assert spy.built == [False] and spy.merged == 0
        assert 4 not in node.votes_seen[(1, 1)]

    def test_foreign_payloads_are_skipped_not_invalid(self, monkeypatch):
        world = World()
        spy = DigestSpy(monkeypatch)
        broadcast = [Delivery(sender=3, payload="committee-output")]
        broadcast += broadcast_of([world.vote(v, 1, 1) for v in range(4)])
        assert_same(world, 6, broadcast)
        assert spy.built == [True]

    def test_caching_off_never_builds_a_digest(self, monkeypatch):
        world = World()
        spy = DigestSpy(monkeypatch)
        monkeypatch.setattr(verification, "CACHING_ENABLED", False)
        assert_same(world, 6,
                    broadcast_of([world.vote(v, 1, 1) for v in range(5)]))
        assert spy.built == [] and spy.merged == 0


def test_random_valid_streams_absorb_identically(monkeypatch):
    """Seeded streams of valid messages — mixed iterations, certificates
    of every rank, relays, duplicates — into twin nodes with random prior
    state: whatever the digest path does (merge, fold the round, fold the
    node), the outcome is the fold's."""
    world = World()
    certs = {(r, b): world.certificate(r, b, voters)
             for r in (1, 2, 3) for b in (0, 1)
             for voters in ((0, 1, 2, 3),)}
    outcomes = {"merged": 0, "folded": 0}
    spy = DigestSpy(monkeypatch)

    def random_message(rng):
        kind = rng.choice(("vote", "vote", "vote", "status", "propose",
                           "commit", "terminate"))
        sender = rng.randrange(world.n)
        iteration, bit = rng.choice((1, 1, 2, 3)), rng.getrandbits(1)
        lower = certs.get((rng.randrange(0, 4), bit))
        if kind == "vote":
            proposal = (world.proposal(iteration, bit, lower)
                        if iteration > 1 else None)
            msg = world.vote(sender, iteration, bit, proposal)
        elif kind == "status":
            msg = world.status(sender, iteration, lower)
        elif kind == "propose":
            msg = world.proposal(max(iteration, 2), bit, lower)
        elif kind == "commit":
            msg = world.commit(sender, iteration, bit)
        else:
            msg = world.terminate(sender, iteration, bit)
        if rng.random() < 0.15:
            return (rng.randrange(world.n), msg)  # relayed
        return msg

    for seed in range(300):
        rng = random.Random(seed)
        node_id = rng.randrange(world.n)
        history = broadcast_of(
            [random_message(rng) for _ in range(rng.randrange(0, 6))])
        arrivals = [random_message(rng) for _ in range(rng.randrange(1, 14))]
        if rng.random() < 0.5:  # a benign-looking vote round
            bit = rng.getrandbits(1)
            arrivals = [world.vote(v, 1, bit)
                        for v in rng.sample(range(world.n), 6)] + arrivals[:3]
        broadcast = broadcast_of(arrivals)

        def prepare(node):
            node._fold(own_view(history, node.node_id))
            # What the node itself sent this round it absorbed when it
            # staged it (the invariant the merge rests on).
            node._fold([d for d in broadcast if d.sender == node.node_id])

        merged_before = spy.merged
        assert_same(world, node_id, broadcast, prepare)
        outcomes["merged" if spy.merged > merged_before else "folded"] += 1
    # The stream must exercise both sides, or it proves nothing.
    assert outcomes["merged"] >= 60 and outcomes["folded"] >= 60, outcomes


# -- (b) continued: traps that need a running network ---------------------------


class TestBroadcastExposure:
    def _network(self):
        network = SynchronousNetwork(4)
        network.stage(0, None, "a", 0, honest_sender=True)
        network.stage(1, None, "b", 0, honest_sender=True)
        return network

    def test_plain_multicasts_share_one_list(self):
        inboxes = self._network().deliver()
        assert [d.payload for d in inboxes.broadcast] == ["a", "b"]
        assert [d.payload for d in inboxes[1]] == ["a"]
        assert inboxes[2] == inboxes.broadcast

    def test_fully_removed_envelope_leaves_a_common_list(self):
        network = self._network()
        network.suppress(network.in_flight()[0])
        assert [d.payload for d in network.deliver().broadcast] == ["b"]

    def test_one_unicast_hides_the_broadcast(self):
        network = self._network()
        network.stage(2, 3, "private", 0, honest_sender=False)
        inboxes = network.deliver()
        assert inboxes.broadcast is None
        assert [d.payload for d in inboxes[3]] == ["a", "b", "private"]

    def test_one_suppressed_copy_hides_the_broadcast(self):
        network = self._network()
        network.suppress(network.in_flight()[0], recipient=2)
        inboxes = network.deliver()
        assert inboxes.broadcast is None
        assert [d.payload for d in inboxes[2]] == ["b"]

    def test_context_builds_its_inbox_only_when_read(self):
        inboxes = self._network().deliver()
        ctx = RoundContext(1, 0, None, random.Random(0), inboxes.broadcast)
        assert ctx._inbox is None
        assert ctx.inbox == inboxes[1] and ctx._inbox is not None
        assert RoundContext(1, 0, [], random.Random(0)).broadcast is None


class OneUnicast(Adversary):
    """Corrupts the last node and, in ``at_round``, unicasts one junk
    payload — the smallest thing that makes inboxes differ."""

    def __init__(self, at_round):
        super().__init__()
        self.at_round = at_round

    def on_setup(self):
        self.api.corrupt(self.api.n - 1)

    def react(self, round_index, staged):
        if round_index == self.at_round:
            self.api.inject(self.api.n - 1, 0, "junk")


def test_one_unicast_sends_that_whole_round_down_the_fold(monkeypatch):
    spy = DigestSpy(monkeypatch)
    offered = {}  # round -> whether its nodes were handed a broadcast
    process = AbaNode._process_inbox

    def recording(node, ctx):
        offered.setdefault(ctx.round, set()).add(ctx.broadcast is not None)
        return process(node, ctx)

    monkeypatch.setattr(AbaNode, "_process_inbox", recording)
    n, f = 9, 4
    instance = build_quadratic_ba(n, f, [i % 2 for i in range(n)], seed=3)
    result = run_instance(instance, f, OneUnicast(at_round=0), seed=3)
    assert result.consistent() and result.rounds_executed >= 3
    # Round 0's sends (the unicast among them) arrive in round 1: nobody
    # is offered a digest there, everybody is in every other round.
    assert offered.pop(1) == {False}
    assert all(flags == {True} for flags in offered.values())
    assert spy.built == [True] * (result.rounds_executed - 1)


class ForgeBeforeMined(Adversary):
    """Circulates a forged ticket *before* its honest owner mines it.

    In the Propose round of iteration 2 (rushing: the honest proposal is
    in flight) the corrupt node multicasts an iteration-2 vote for the
    proposed bit in the name of ``owner`` — an honest node that *will*
    win that vote lottery (the test peeks at the coin; a real adversary
    would guess) — carrying the ``Fmine`` ticket ``owner`` only mines at
    its own step of the next round.  The forgery is therefore invalid
    for the nodes that step before ``owner`` and valid for those after.
    """

    def __init__(self, fmine):
        super().__init__()
        self.fmine = fmine
        self.owner = self.forged = None

    def on_setup(self):
        self.api.corrupt(self.api.n - 1)

    def react(self, round_index, staged):
        if schedule(round_index) != (2, PHASE_PROPOSE):
            return
        proposal, = [e.payload for e in staged
                     if isinstance(e.payload, ProposeMsg)]
        topic = ("Vote", 2, proposal.bit)
        self.owner = next(
            node for node in range(20, self.api.n - 1)
            if self.fmine.mine(node, topic))
        self.forged = VoteMsg(
            iteration=2, bit=proposal.bit, sender=self.owner,
            auth=FMineTicket(node_id=self.owner, topic=topic),
            proposal=proposal)
        self.api.inject(self.api.n - 1, None, self.forged)


def test_forged_then_mined_ticket_keeps_per_recipient_semantics(monkeypatch):
    # Seed 8 with split inputs: iteration 1 commits nothing and exactly
    # one node wins the iteration-2 proposer lottery.
    n, f, seed = 60, 18, 8
    vote_round = 4  # iteration 2's Vote phase: the forgery is delivered

    def run(upto):
        instance = build_subquadratic_ba(
            n, f, [i % 2 for i in range(n)], seed=seed, params=PARAMS,
            max_iterations=3)
        # A twin functionality flips the execution's coins without
        # recording an attempt in it.
        adversary = ForgeBeforeMined(FMine(
            instance.services["eligibility"].fmine.schedule, seed))
        result = run_instance(instance, f, adversary, seed=seed,
                              max_rounds=upto)
        return instance, adversary, result

    spy = DigestSpy(monkeypatch)
    instance, adversary, _ = run(vote_round + 1)
    owner, bit = adversary.owner, adversary.forged.bit
    # The round that carried the forgery was given up to the fold (its
    # first node found the ticket unmined); the rounds before it were not.
    assert spy.built == [True] * vote_round + [False]
    # Per-recipient semantics survived: only the nodes stepping after the
    # owner mined its ticket saw its vote a round early.
    early = [node.node_id for node in instance.nodes[:-1]
             if owner in node.votes_seen.get((2, bit), {})]
    assert early == list(range(owner, n - 1)) and 0 < owner

    # And the whole execution equals the per-message reference.
    shared_instance, _, shared = run(None)
    monkeypatch.setattr(verification, "CACHING_ENABLED", False)
    folded_instance, _, folded = run(None)
    assert (execution_snapshot(shared, shared_instance)
            == execution_snapshot(folded, folded_instance))
