"""Certificates: quorums of votes, and their ranking by iteration.

Appendix C.1: *"a collection of f + 1 (signed) iteration-r Vote messages
for the same bit b from distinct nodes is said to be an iteration-r
certificate for b"* (λ/2 votes in the subquadratic protocol).  Bits with
no certificate are treated as holding an *iteration-0 certificate*, the
lowest rank; here that is represented by ``certificate=None`` and
:func:`rank` mapping ``None`` to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.protocols.messages import SignedVote
from repro.serialization import _intern_field_key, intern_by_key, interned
from repro.types import Bit, NodeId

#: Rank of the fictitious iteration-0 certificate (no certificate at all).
GENESIS_RANK = 0


@dataclass(frozen=True)
class Certificate:
    """An iteration-``r`` certificate for ``bit``: a quorum of votes."""

    iteration: int
    bit: Bit
    votes: Tuple[SignedVote, ...]

    @property
    def rank(self) -> int:
        return self.iteration


def rank(certificate: Optional[Certificate]) -> int:
    """Rank of a certificate, with ``None`` as the iteration-0 bottom."""
    return GENESIS_RANK if certificate is None else certificate.rank


def signed_vote(iteration: int, bit: Bit, voter: NodeId,
                auth: Any) -> SignedVote:
    """The one wrapped ``(Vote, iteration, bit)`` of ``voter`` under
    ``auth`` — the only place ``src/`` constructs a :class:`SignedVote`.

    Memoized in the intern arena: a node wrapping its report and every
    certificate that includes it get one object, so identity-keyed memos
    (size accounting, vote fronts) hit across all of them.  The scalars
    are keyed with their class (``True == 1`` but encodes differently);
    ``auth`` is keyed by identity, which the representative pins — an
    equivocator's second auth is a second object and a second entry.
    """
    key = (SignedVote, iteration, iteration.__class__, bit, bit.__class__,
           voter, voter.__class__, id(auth))
    vote = interned(key)
    if vote is None:
        vote = intern_by_key(key, lambda: SignedVote(
            iteration=iteration, bit=bit, voter=voter, auth=auth))
    return vote


def certificate_from_votes(iteration: int, bit: Bit, votes: dict,
                           threshold: int,
                           base: Optional[Certificate] = None) -> Certificate:
    """Assemble a certificate from a voter → auth map (caller-validated).

    Votes are ordered by voter id so the certificate bytes are canonical;
    only ``threshold`` votes are included — the minimum needed — keeping
    the message size at the paper's O(λ(log κ + log n)).

    Every honest node assembles the same certificate from the same
    (shared) auth objects: each vote resolves through :func:`signed_vote`
    and the certificate through the identity of its wrapped votes, which
    it pins, so after the first build the others cost one arena lookup
    per vote and construct nothing.  ``base``, a certificate for the same
    ``iteration`` and ``bit`` (a round's quorum), lends its wrapped vote
    wherever both the voter and the auth *object* match, which spares
    even that lookup; an equivocator's other auth is wrapped afresh.
    """
    lent = {} if base is None else {
        vote.voter: vote for vote in base.votes
        if votes.get(vote.voter) is vote.auth}
    wrapped = tuple([
        lent.get(voter) or signed_vote(iteration, bit, voter, votes[voter])
        for voter in sorted(votes)[:threshold]])
    # iteration and bit are in the key for the empty quorum only: any
    # wrapped vote already fixes both.
    return intern_by_key(
        (Certificate, _intern_field_key(iteration), _intern_field_key(bit),
         tuple(map(id, wrapped))),
        lambda: Certificate(iteration=iteration, bit=bit, votes=wrapped))


def verify_certificate(certificate: Certificate, threshold: int,
                       check_vote: Callable[[SignedVote], bool]) -> bool:
    """Structural + cryptographic validity of a certificate.

    ``check_vote`` performs the mode-specific authentication (signature
    verification in the quadratic world, ``Fmine.verify``/VRF verification
    in the subquadratic world).
    """
    if certificate.iteration < 1:
        return False
    if certificate.bit not in (0, 1):
        return False
    voters = {vote.voter for vote in certificate.votes}
    if len(voters) != len(certificate.votes):
        return False  # duplicate voters
    if len(voters) < threshold:
        return False
    for vote in certificate.votes:
        if vote.iteration != certificate.iteration or vote.bit != certificate.bit:
            return False
        if not check_vote(vote):
            return False
    return True
