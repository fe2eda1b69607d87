"""The iterated Status/Propose/Vote/Commit BA node (Appendix C).

One node implementation serves both worlds:

- **quadratic warmup** (C.1): signature authenticator (everyone speaks),
  threshold ``f + 1``, oracle leader;
- **subquadratic** (C.2): eligibility authenticator (conditional
  multicast), threshold ``λ/2``, mined leaders.

Protocol structure per iteration ``r`` (the very first iteration skips
Status and Propose):

1. **Status** — multicast the highest certificate seen so far.
2. **Propose** — an eligible proposer multicasts ``(Propose, r, b)`` for
   the bit ``b`` carrying its highest certificate, certificate attached.
3. **Vote** — vote for a proposed ``b`` unless a *strictly* higher
   certificate for ``1 - b`` has been observed (an equal-rank opposite
   certificate does not block).  Iteration 1: vote for the input bit.
   Votes attach the justifying proposal (footnote 11) — this is what
   prevents corrupt nodes from manufacturing votes for a bit no eligible
   proposer proposed.
4. **Commit** — upon a quorum of iteration-``r`` votes for ``b`` with *no*
   valid iteration-``r`` vote for ``1 - b``, multicast ``(Commit, r, b)``
   with the certificate attached.

At any time, a quorum of iteration-``r`` commits for ``b`` (or a valid
``Terminate`` message) makes the node output ``b``, conditionally multicast
``(Terminate, b)`` with the commits attached, and halt.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, List, Optional, Tuple

from repro.protocols.base import ViewSchedule
from repro.protocols.certificates import (
    Certificate,
    certificate_from_votes,
    rank,
)
from repro.protocols.verification import RoundConfig, VerifyingNode
from repro.protocols.messages import (
    CommitMsg,
    ProposeMsg,
    StatusMsg,
    TerminateMsg,
    VoteMsg,
)
from repro.serialization import intern_by_key, intern_payload
from repro.sim.network import Delivery
from repro.sim.node import RoundContext
from repro.types import Bit, NodeId, other_bit

PHASE_STATUS = "Status"
PHASE_PROPOSE = "Propose"
PHASE_VOTE = "Vote"
PHASE_COMMIT = "Commit"

#: Iterations ``1, 2, ...`` of four rounds, but iteration 1 consists of
#: Vote and Commit only (C.1: "the protocol for the very first iteration
#: skips the Status and Propose rounds").  A budget runs three delivery
#: rounds past the last iteration: one so final-commit quorums can be
#: tallied, and two of margin.
SCHEDULE = ViewSchedule((PHASE_STATUS, PHASE_PROPOSE, PHASE_VOTE, PHASE_COMMIT),
                        skipped=2, trailing=3)


class VoteTally:
    """One ``(iteration, bit)``'s votes of a round digest.

    ``votes`` maps voter → auth in arrival order.  Once :meth:`seal`
    finds a quorum, ``prefix`` is its first ``threshold`` entries and
    ``quorum`` the certificate they form — the one every node with no
    votes of its own outside the prefix assembles.  ``lowest`` is the
    commit certificate (lowest ``threshold`` voter ids of the whole
    tally), filled in by the first node that commits on a tally equal
    to this one.  Nodes may keep a tally past its round; it holds votes
    only, never the round's deliveries.
    """

    __slots__ = ("votes", "prefix", "quorum", "lowest")

    def __init__(self) -> None:
        self.votes: Dict[NodeId, Any] = {}
        self.prefix: Optional[Dict[NodeId, Any]] = None
        self.quorum: Optional[Certificate] = None
        self.lowest: Optional[Certificate] = None


class RoundDigest:
    """One round's common delivery list, validated and tallied once.

    In the Appendix C protocols every honest node multicasts and every
    honest node receives the same set, so the per-message fold computes
    n times over what is, up to each node's few prior entries, one
    result.  The digest is that result for an empty node, kept in the
    order the fold depends on: votes and commits per ``(iteration,
    bit)`` in arrival order (commits attached to a Terminate included),
    the first certificate of maximal rank per bit, proposals with the
    node that relayed them, and the last Terminate.
    ``AbaNode._merge_digest`` replays it into a node with dict updates.
    """

    __slots__ = ("best", "votes", "proposals", "commits", "terminate")

    def __init__(self) -> None:
        self.best: Dict[Bit, Optional[Certificate]] = {0: None, 1: None}
        self.votes: Dict[Tuple[int, Bit], VoteTally] = {}
        self.proposals: Dict[int, List[Tuple[NodeId, ProposeMsg]]] = {}
        self.commits: Dict[Tuple[int, Bit], Dict[NodeId, CommitMsg]] = {}
        self.terminate: Optional[Tuple[int, Bit]] = None

    def _rank(self, certificate: Optional[Certificate]) -> None:
        if certificate is not None and (
                certificate.iteration > rank(self.best[certificate.bit])):
            self.best[certificate.bit] = certificate

    def add_status(self, delivery: Delivery) -> None:
        self._rank(delivery.payload.certificate)

    def add_propose(self, delivery: Delivery) -> None:
        msg = delivery.payload
        self._rank(msg.certificate)
        self.proposals.setdefault(msg.iteration, []).append(
            (delivery.sender, msg))

    def add_vote(self, delivery: Delivery) -> None:
        msg = delivery.payload
        if msg.iteration > 1:
            self._rank(msg.proposal.certificate)
        tally = self.votes.get((msg.iteration, msg.bit))
        if tally is None:
            tally = self.votes[(msg.iteration, msg.bit)] = VoteTally()
        tally.votes.setdefault(msg.sender, msg.auth)

    def add_commit(self, delivery: Delivery) -> None:
        msg = delivery.payload
        self._rank(msg.certificate)
        self.commits.setdefault(
            (msg.iteration, msg.bit), {}).setdefault(msg.sender, msg)

    def add_terminate(self, delivery: Delivery) -> None:
        msg = delivery.payload
        recorded = self.commits.setdefault((msg.iteration, msg.bit), {})
        for commit in msg.commits:
            recorded.setdefault(commit.sender, commit)
        self.terminate = (msg.iteration, msg.bit)

    def seal(self, threshold: int) -> bool:
        """Assemble the quorum certificates; ``False`` when the fold's
        result for this round depends on an interleaving the tally does
        not record: two vote iterations for one bit (which quorum forms
        first decides whether the other's certificate is assembled at
        all), or a received certificate ranked at or above its bit's
        vote iteration (it may or may not pre-empt the quorum's)."""
        iteration_of: Dict[Bit, int] = {}
        for (iteration, bit), tally in self.votes.items():
            if iteration_of.setdefault(bit, iteration) != iteration:
                return False
            if rank(self.best[bit]) >= iteration:
                return False
            if len(tally.votes) >= threshold:
                tally.prefix = dict(islice(tally.votes.items(), threshold))
                tally.quorum = certificate_from_votes(
                    iteration, bit, tally.prefix, threshold)
        return True


def _merge_first_wins(mine: dict, arrivals: dict) -> dict:
    """``mine.setdefault(k, v)`` for every arrival, at C speed: entries
    already in ``mine`` keep their place and value, new ones append in
    arrival order.  Returns a copy of the prior entries."""
    prior = dict(mine)
    mine.update(arrivals)
    mine.update(prior)
    return prior


def _same_entries(prior: dict, shared: dict) -> bool:
    """Whether every ``prior`` entry is in ``shared`` with the very same
    value object (certificates are interned by their auths' identity)."""
    return all(shared.get(key) is value for key, value in prior.items())


class AbaNode(VerifyingNode):
    """One party of the iterated BA protocol."""

    def __init__(self, node_id: NodeId, n: int, input_bit: Bit,
                 config: RoundConfig) -> None:
        super().__init__(node_id, n, config)
        self.input_bit = input_bit
        # Highest certificate observed per bit (None = iteration-0 rank).
        self.best_cert: Dict[Bit, Optional[Certificate]] = {0: None, 1: None}
        # (iteration, bit) -> voter -> auth, valid votes only.
        self.votes_seen: Dict[Tuple[int, Bit], Dict[NodeId, Any]] = {}
        # (iteration, bit) -> sender -> CommitMsg, valid commits only.
        self.commits_seen: Dict[Tuple[int, Bit], Dict[NodeId, CommitMsg]] = {}
        # Valid proposals received, per iteration.
        self.proposals: Dict[int, List[ProposeMsg]] = {}
        # (iteration, bit) -> the round-digest tally this node's
        # votes_seen entry was merged from and still equals in size.
        self._shared_tallies: Dict[Tuple[int, Bit], VoteTally] = {}
        self.last_vote: Optional[Bit] = None
        self.decision: Optional[Bit] = None
        self.decision_iteration: Optional[int] = None
        # The last valid Terminate's (iteration, bit), adopted at the end
        # of the round that absorbed it.
        self._adopted: Optional[Tuple[int, Bit]] = None

    # -- certificate tracking ------------------------------------------------
    def _absorb_certificate(self, certificate: Optional[Certificate]) -> None:
        """Track the highest-ranked certificate per bit (pre-validated)."""
        if certificate is None:
            return
        current = self.best_cert[certificate.bit]
        # Inlined ``rank(certificate) > rank(current)`` (None ranks as
        # GENESIS_RANK) — this runs once per absorbed message and the
        # attribute compare is measurably cheaper than two function calls
        # at n ≥ 768.
        if certificate.iteration > (
                current.iteration if current is not None else 0):
            self.best_cert[certificate.bit] = certificate

    def _preferred_bit(self) -> Bit:
        """Bit of the overall highest certificate; falls back to the last
        vote, then the input bit."""
        rank0, rank1 = rank(self.best_cert[0]), rank(self.best_cert[1])
        if rank0 > rank1:
            return 0
        if rank1 > rank0:
            return 1
        return self.last_vote if self.last_vote is not None else self.input_bit

    # -- validation predicates ------------------------------------------------
    # Recipient-independent (see VerificationCache): each runs at most once
    # per payload object per execution while it keeps succeeding, whether
    # the object reaches a node through the per-message fold or through
    # the round digest.
    def _valid_status(self, msg: StatusMsg) -> bool:
        topic = ("Status", msg.iteration, msg.bit)
        return (self._check_auth(msg.sender, topic, msg.auth)
                and self._check_certificate(msg.certificate,
                                            expected_bit=msg.bit))

    def _valid_propose(self, msg: ProposeMsg) -> bool:
        if msg.bit not in (0, 1):
            return False
        if not self.config.proposer.check(msg.sender, msg.iteration,
                                          msg.bit, msg.auth):
            return False
        return self._check_certificate(msg.certificate, expected_bit=msg.bit)

    def _valid_vote(self, msg: VoteMsg) -> bool:
        if msg.bit not in (0, 1):
            return False
        topic = ("Vote", msg.iteration, msg.bit)
        if not self._check_auth(msg.sender, topic, msg.auth):
            return False
        if msg.iteration > 1:
            # Footnote 11: votes beyond iteration 1 carry the leader
            # proposal that justifies them.
            proposal = msg.proposal
            if (proposal is None or proposal.iteration != msg.iteration
                    or proposal.bit != msg.bit
                    or not self._valid_propose(proposal)):
                return False
        return True

    def _valid_commit(self, msg: CommitMsg) -> bool:
        if msg.bit not in (0, 1):
            return False
        topic = ("Commit", msg.iteration, msg.bit)
        if not self._check_auth(msg.sender, topic, msg.auth):
            return False
        certificate = msg.certificate
        if (certificate is None or certificate.iteration != msg.iteration
                or certificate.bit != msg.bit):
            return False
        return self._check_certificate(certificate, expected_bit=msg.bit)

    def _valid_commit_ref(self, commit: CommitMsg) -> bool:
        """Validity of a certificate-stripped commit inside a Terminate.

        Lemma 15 bounds messages at O(λ(log κ + log n)), so Terminate
        attaches the λ/2 commits *without* their vote certificates.  The
        ticket quorum alone is sound: fewer than λ/2 corrupt nodes hold
        commit tickets (Lemma 11), so the quorum contains an honest
        committer.
        """
        if commit.bit not in (0, 1):
            return False
        topic = ("Commit", commit.iteration, commit.bit)
        return self._check_auth(commit.sender, topic, commit.auth)

    def _valid_terminate(self, msg: TerminateMsg) -> bool:
        if msg.bit not in (0, 1):
            return False
        topic = ("Terminate", msg.bit)
        if not self._check_auth(msg.sender, topic, msg.auth):
            return False
        senders = set()
        for commit in msg.commits:
            if (commit.iteration != msg.iteration or commit.bit != msg.bit
                    or not self._valid_commit_ref(commit)):
                return False
            senders.add(commit.sender)
        return len(senders) >= self.config.threshold

    # -- absorb steps (validated messages only) -------------------------------
    def _absorb_status(self, msg: StatusMsg) -> None:
        self._absorb_certificate(msg.certificate)

    def _absorb_propose(self, msg: ProposeMsg) -> None:
        self._absorb_certificate(msg.certificate)
        self.proposals.setdefault(msg.iteration, []).append(msg)

    def _absorb_vote(self, msg: VoteMsg) -> None:
        if msg.iteration > 1:
            self._absorb_certificate(msg.proposal.certificate)
        self._record_vote(msg.iteration, msg.bit, msg.sender, msg.auth)

    def _record_vote(self, iteration: int, bit: Bit, voter: NodeId,
                     auth: Any) -> None:
        votes = self.votes_seen.setdefault((iteration, bit), {})
        votes.setdefault(voter, auth)
        best = self.best_cert[bit]
        # Inlined ``rank(best) < iteration`` (None ranks as GENESIS_RANK).
        if (len(votes) >= self.config.threshold
                and (best.iteration if best is not None else 0) < iteration):
            # A quorum of valid votes *is* a certificate, whether or not
            # the commit condition later holds.  Once best_cert holds an
            # iteration-r certificate for this bit, re-assembling one from
            # a larger vote set could never outrank it, so skip the
            # (quadratic-in-n) rebuild on every extra vote.  Every node
            # assembles the same certificate from the same quorum, so the
            # intern arena collapses the n content-equal copies to one
            # object — and every identity-keyed memo downstream (size
            # accounting, certificate fronts) hits for all of them.
            self._absorb_certificate(certificate_from_votes(
                iteration, bit, votes, self.config.threshold))

    def _absorb_commit(self, msg: CommitMsg) -> None:
        self._absorb_certificate(msg.certificate)
        self.commits_seen.setdefault(
            (msg.iteration, msg.bit), {}).setdefault(msg.sender, msg)

    def _absorb_terminate(self, msg: TerminateMsg) -> None:
        # Record the quorum so this node's own (relayed) Terminate can
        # attach it.
        recorded = self.commits_seen.setdefault((msg.iteration, msg.bit), {})
        for commit in msg.commits:
            recorded.setdefault(commit.sender, commit)
        self._adopted = (msg.iteration, msg.bit)

    # -- inbox processing ------------------------------------------------------
    def _build_digest(self, broadcast: List[Delivery]) -> Optional[RoundDigest]:
        """Validate a round's common delivery list once and tally it.

        ``None`` sends every node of the round down :meth:`_fold`: on any
        message that fails validation (it may pass for a later recipient,
        so the failure is not shared), or when the tally cannot stand in
        for the fold's order of arrival (:meth:`RoundDigest.seal`).
        """
        digest = RoundDigest()
        for delivery in broadcast:
            tally = _TALLIES.get(delivery.payload.__class__)
            if tally is None:
                continue  # a foreign payload is just skipped
            if not self._admitted(delivery.payload):
                return None
            tally(digest, delivery)
        return digest if digest.seal(self.config.threshold) else None

    def _merge_digest(self, digest: RoundDigest) -> bool:
        """Absorb a whole round from its digest; ``False`` (nothing
        touched) when this node must fold its inbox itself.

        Equivalent to folding ``digest``'s delivery list minus this
        node's own multicasts: those are already absorbed (own vote
        tallied, own commit recorded, their certificates ranked) when
        they are staged, so meeting them again changes nothing — except
        an own proposal, which must not be appended twice.
        """
        threshold = self.config.threshold
        best_cert = self.best_cert
        votes_seen = self.votes_seen
        for (iteration, bit), tally in digest.votes.items():
            mine = votes_seen.get((iteration, bit))
            if (mine is not None and len(mine) >= threshold
                    and rank(best_cert[bit]) < iteration):
                # A quorum on hand without its certificate: the fold
                # assembles one from the *whole* tally at the next vote.
                return False
        # Received certificates all rank below this round's vote
        # iteration of their bit (seal), so they commute with the quorum
        # certificates assembled below.
        for certificate in digest.best.values():
            if certificate is not None:
                self._absorb_certificate(certificate)
        for key, tally in digest.votes.items():
            mine = votes_seen.get(key)
            if not mine:
                # Nothing recorded yet: fold order is arrival order, so
                # the merged tally is a private copy of the round's own,
                # and the quorum it crosses is the digest's prefix.
                votes_seen[key] = dict(tally.votes)
                if tally.quorum is not None:
                    self._absorb_certificate(tally.quorum)
                self._shared_tallies[key] = tally
                continue
            iteration, bit = key
            prior = _merge_first_wins(mine, tally.votes)
            if (len(prior) < threshold <= len(mine)
                    and rank(best_cert[bit]) < iteration):
                # The fold crosses the quorum at the first ``threshold``
                # entries of the merged tally: the digest's own prefix
                # whenever the prior entries lie inside it, else e.g.
                # {first f arrivals, own late vote}, whose votes the
                # prefix's certificate has mostly wrapped already.
                if tally.quorum is not None and _same_entries(
                        prior, tally.prefix):
                    certificate = tally.quorum
                else:
                    certificate = certificate_from_votes(
                        iteration, bit,
                        dict(islice(mine.items(), threshold)), threshold,
                        base=tally.quorum)
                self._absorb_certificate(certificate)
            if len(mine) == len(tally.votes) and _same_entries(
                    prior, tally.votes):
                self._shared_tallies[key] = tally
        me = self.node_id
        for iteration, arrivals in digest.proposals.items():
            self.proposals.setdefault(iteration, []).extend(
                [msg for sender, msg in arrivals if sender != me])
        commits_seen = self.commits_seen
        for key, commits in digest.commits.items():
            mine = commits_seen.get(key)
            if mine:
                _merge_first_wins(mine, commits)
            else:
                commits_seen[key] = dict(commits)
        return True

    def _process_inbox(self, ctx: RoundContext) -> Optional[Tuple[int, Bit]]:
        """Absorb the round's deliveries; return a pending decision
        ``(iteration, bit)`` if one became available.

        A round every node receives alike (``ctx.broadcast``) is
        validated and tallied once per execution and merged here;
        anything else is folded message by message."""
        digest = self._verification.round_digest(
            ctx.broadcast, self._build_digest)
        if digest is None or not self._merge_digest(digest):
            self._fold(ctx.inbox)
        elif digest.terminate is not None:
            self._adopted = digest.terminate
        pending = self._adopted
        for (iteration, bit), commits in self.commits_seen.items():
            if len(commits) >= self.config.threshold:
                pending = (iteration, bit)
        return pending

    # -- decision ---------------------------------------------------------------
    def _terminate(self, ctx: RoundContext, iteration: int, bit: Bit) -> None:
        self.decision = bit
        self.decision_iteration = iteration
        self.decide(bit, ctx.round)
        auth = self.config.authenticator.attempt(
            self.node_id, ("Terminate", bit))
        if auth is not None:
            commits = self.commits_seen.get((iteration, bit), {})
            # Strip the vote certificates from the attached commits to meet
            # the O(λ(log κ + log n)) message bound (see _valid_commit_ref).
            # Interned as a whole quorum: every terminating node strips the
            # same commits, so the content-equal stripped tuples collapse
            # to one object — keyed by the chosen commits' identity (the
            # stripped content is a function of theirs alone).  The arena
            # entry keeps the chosen originals alive alongside the stripped
            # tuple, pinning every id() the key references.
            chosen = [commits[sender] for sender in
                      sorted(commits)[:self.config.threshold]]
            stripped = intern_by_key(
                (TerminateMsg, tuple(map(id, chosen))),
                lambda: (chosen, tuple(
                    intern_payload(CommitMsg(
                        iteration=c.iteration, bit=c.bit, certificate=None,
                        sender=c.sender, auth=c.auth))
                    for c in chosen)))[1]
            payload = TerminateMsg(
                bit=bit,
                iteration=iteration,
                commits=stripped,
                sender=self.node_id,
                auth=auth,
            )
            ctx.multicast(payload)
        self.halted = True

    # -- phase actions -------------------------------------------------------------
    def _do_status(self, ctx: RoundContext, iteration: int) -> None:
        preferred = self._preferred_bit()
        certificate = self.best_cert[preferred]
        bit = preferred if certificate is not None else None
        auth = self.config.authenticator.attempt(
            self.node_id, ("Status", iteration, bit))
        if auth is not None:
            ctx.multicast(StatusMsg(iteration=iteration, bit=bit,
                                    certificate=certificate,
                                    sender=self.node_id, auth=auth))

    def _do_propose(self, ctx: RoundContext, iteration: int) -> None:
        bit = self._preferred_bit()
        auth = self.config.proposer.attempt(self.node_id, iteration, bit)
        if auth is not None:
            proposal = ProposeMsg(iteration=iteration, bit=bit,
                                  certificate=self.best_cert[bit],
                                  sender=self.node_id, auth=auth)
            ctx.multicast(proposal)
            # A proposer also justifies its own vote with its proposal.
            self.proposals.setdefault(iteration, []).append(proposal)

    def _choose_vote(self, iteration: int) -> Optional[VoteMsg]:
        if iteration == 1:
            bit = self.input_bit
            auth = self.config.authenticator.attempt(
                self.node_id, ("Vote", 1, bit))
            if auth is None:
                return None
            return VoteMsg(iteration=1, bit=bit, sender=self.node_id,
                           auth=auth, proposal=None)
        acceptable = [
            proposal for proposal in self.proposals.get(iteration, [])
            if rank(self.best_cert[other_bit(proposal.bit)])
            <= rank(proposal.certificate)
        ]
        if not acceptable:
            return None
        # Prefer the proposal carrying the highest certificate; break ties
        # deterministically towards bit 0 (any tie-break is sound: an
        # equal-rank certificate for the other bit never blocks, C.1 Vote).
        chosen = max(acceptable, key=lambda p: (rank(p.certificate), -p.bit))
        auth = self.config.authenticator.attempt(
            self.node_id, ("Vote", iteration, chosen.bit))
        if auth is None:
            return None
        return VoteMsg(iteration=iteration, bit=chosen.bit,
                       sender=self.node_id, auth=auth, proposal=chosen)

    def _do_vote(self, ctx: RoundContext, iteration: int) -> None:
        vote = self._choose_vote(iteration)
        if vote is None:
            return
        self.last_vote = vote.bit
        ctx.multicast(vote)
        # Count the node's own vote towards its quorums (the network does
        # not self-deliver).
        self._record_vote(vote.iteration, vote.bit, self.node_id, vote.auth)

    def _do_commit(self, ctx: RoundContext, iteration: int) -> None:
        for bit in (0, 1):
            votes = self.votes_seen.get((iteration, bit), {})
            opposing = self.votes_seen.get((iteration, other_bit(bit)), {})
            if len(votes) < self.config.threshold or opposing:
                continue
            # Nodes whose tally is one shared round tally all commit on
            # the same lowest-``threshold`` certificate: assemble it once.
            shared = self._shared_tallies.get((iteration, bit))
            if shared is None or len(shared.votes) != len(votes):
                certificate = certificate_from_votes(
                    iteration, bit, votes, self.config.threshold)
            else:
                if shared.lowest is None:
                    shared.lowest = certificate_from_votes(
                        iteration, bit, votes, self.config.threshold)
                certificate = shared.lowest
            self._absorb_certificate(certificate)
            auth = self.config.authenticator.attempt(
                self.node_id, ("Commit", iteration, bit))
            if auth is not None:
                commit = CommitMsg(iteration=iteration, bit=bit,
                                   certificate=certificate,
                                   sender=self.node_id, auth=auth)
                ctx.multicast(commit)
                self.commits_seen.setdefault(
                    (iteration, bit), {}).setdefault(self.node_id, commit)

    def _unanimous_votes(self) -> Optional[Tuple[int, Bit]]:
        """An iteration whose votes are unanimous — all ``n`` voters for
        one bit — and whose vote round is past the trusted-send round."""
        trusted = self.config.trusted_send_round
        for (iteration, bit), votes in self.votes_seen.items():
            if (len(votes) >= self.n
                    and SCHEDULE.round_of(iteration, PHASE_VOTE) >= trusted):
                return (iteration, bit)
        return None

    # -- main entry point ---------------------------------------------------------
    def on_round(self, ctx: RoundContext) -> None:
        iteration, phase = SCHEDULE.schedule(ctx.round)
        pending = self._process_inbox(ctx)
        if pending is not None:
            self._terminate(ctx, pending[0], pending[1])
            return
        if iteration > self.config.units:
            self.halted = True
            return
        self._ACTIONS[phase](self, ctx, iteration)
        if self.config.early_stop_unanimity:
            # The fast path runs *after* the phase action: at the Commit
            # round the node has already multicast its own commit (so the
            # quorum machinery of slower nodes — whose view a rushing
            # equivocator can keep short of unanimity — is fed as usual)
            # and then decides immediately instead of waiting a round for
            # the commit quorum to come back.  Quietly: peers' commits
            # are still in flight, so a Terminate here would carry fewer
            # than threshold commits and be rejected by every receiver —
            # n wasted copies (when a quorum *is* already on hand,
            # _process_inbox has fired the normal _terminate above).
            unanimous = self._unanimous_votes()
            if unanimous is not None:
                self.decision_iteration, self.decision = unanimous
                self.decide(self.decision, ctx.round)
                self.halted = True

    def output(self) -> Optional[Bit]:
        return self.decision

    def finalize(self) -> Bit:
        decided = self.output()
        return decided if decided is not None else self._preferred_bit()


AbaNode._HANDLERS = {
    StatusMsg: (AbaNode._valid_status, AbaNode._absorb_status),
    ProposeMsg: (AbaNode._valid_propose, AbaNode._absorb_propose),
    VoteMsg: (AbaNode._valid_vote, AbaNode._absorb_vote),
    CommitMsg: (AbaNode._valid_commit, AbaNode._absorb_commit),
    TerminateMsg: (AbaNode._valid_terminate, AbaNode._absorb_terminate),
}

#: Payload class → its round-digest tally step, for the classes of
#: ``AbaNode._HANDLERS``: the fold and the digest builder both validate
#: through that table, so they cannot disagree on what is valid.
_TALLIES = {
    StatusMsg: RoundDigest.add_status,
    ProposeMsg: RoundDigest.add_propose,
    VoteMsg: RoundDigest.add_vote,
    CommitMsg: RoundDigest.add_commit,
    TerminateMsg: RoundDigest.add_terminate,
}

#: Phase → action ``(node, ctx, iteration)``.
AbaNode._ACTIONS = {
    PHASE_STATUS: AbaNode._do_status,
    PHASE_PROPOSE: AbaNode._do_propose,
    PHASE_VOTE: AbaNode._do_vote,
    PHASE_COMMIT: AbaNode._do_commit,
}
