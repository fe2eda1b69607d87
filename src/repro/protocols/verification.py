"""Verification memoization shared by the nodes of a protocol instance.

Verification of votes, certificates and proposals is a *public*
predicate — authenticators and eligibility lotteries are deterministic
functions any party can evaluate, and the result does not depend on
which node performs the check — so one :class:`VerificationCache` is
shared by every node of a protocol instance (via its config).  What a
table is keyed by follows how its objects come to exist:

- **Auths are issued**, one object per signing, and content-equal
  copies of a vote arrive by different routes (inside a certificate, as
  a ``VoteMsg``): vote, topic and proposal checks are keyed by
  **content**.
- **Certificates and decide quorums are interned at construction**
  (``certificate_from_votes``, ``view_machine.intern_quorum``) and the
  simulation hands every recipient of a message the same payload: all
  three are keyed by **identity**, and a content-equal copy that is not
  the identical object is simply verified again.

Soundness rests on three invariants:

**Content keys cover everything the verifier reads.**  A vote entry is
keyed by ``(voter, iteration, bit, auth)`` — the ``auth`` term is
load-bearing: without it, a tampered vote carrying a forged auth would
collide with a previously-verified honest vote and poison the cache;
proposals by ``(sender, iteration, bit, auth)``.  Keys are
:func:`~repro.serialization.type_tagged` because dict equality is coarser
than canonical-bytes equality (``True == 1``, but they sign differently).

**Only positive results are kept.**  A ``True`` is permanent — ideal
signatures stay issued, ``Fmine`` coins stay recorded, real
signatures/VRFs are pure — but a ``False`` can legitimately become
``True`` later (e.g. an adversary circulates a forged ticket *before* the
honest node mines that topic; once mined, the content-equal honest ticket
is valid).  No table, shared or per node, remembers a ``False``: a
refused object is checked again on every sight, so the answer is always
the predicate's current value.

**Identity entries pin their object**, so a recycled ``id()`` can never
alias.  Messages with unhashable ``auth`` objects fall back to direct
verification (no caching), so cache entries can never go stale when
payload objects are garbage-collected (e.g. under the engine's
``metrics-only`` transcript retention).

``CACHING_ENABLED`` exists for differential testing: determinism tests
flip it off and assert byte-identical execution results either way.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.protocols.base import Authenticator, ProposerPolicy
from repro.protocols.certificates import Certificate, verify_certificate
from repro.protocols.messages import SignedVote
from repro.serialization import type_tagged
from repro.sim.node import Node
from repro.types import Bit, NodeId

#: Global kill-switch used by determinism tests; leave True in production.
CACHING_ENABLED = True

#: Per-table entry cap.  The identity fronts pin their objects, so an
#: unbounded execution (the metrics-only retention use case) would grow
#: resident memory O(total messages); clearing a table is always sound —
#: entries are positive memos — and only costs re-verification.
CACHE_LIMIT = 1 << 20


def _trim(table) -> None:
    if len(table) >= CACHE_LIMIT:
        table.clear()


class VerificationCache:
    """Positive-result memo for the pure verification predicates of one
    execution.

    One instance per protocol instance, shared by its nodes through the
    protocol config: the predicates are public, so the first recipient's
    successful verification serves every other node.
    """

    __slots__ = ("_auth", "_proposals", "_cert_true_by_id",
                 "_quorum_true_by_id", "valid_payloads", "_round_digest")

    def __init__(self) -> None:
        # type_tagged (node_id, topic, auth) of verified checks; covers
        # votes, status, commit, terminate, and commit-reference checks.
        self._auth: set = set()
        # type_tagged (sender, iteration, bit, auth) of verified proposals.
        self._proposals: set = set()
        # Identity front: certificate objects known to have verified.
        # Construction interns certificates, so the later recipients and
        # re-assemblers of a quorum hold the same object.
        self._cert_true_by_id: Dict[int, Tuple[Certificate]] = {}
        # Identity front: interned member tuples known to form a quorum.
        self._quorum_true_by_id: Dict[int, Tuple[tuple, tuple]] = {}
        # Identity front over whole message payloads: the simulation
        # hands every recipient the *same* frozen payload object, and a
        # message's validation (auth checks, certificate checks,
        # structural checks — everything except the recipient's own
        # state updates) is a pure public predicate, so once any node
        # validated an object, the other n - 1 recipients skip straight
        # to their state updates.
        self.valid_payloads: Dict[int, Tuple[Any, ...]] = {}
        # (delivery list, its digest) of the current round only — see
        # :meth:`round_digest`.
        self._round_digest: Optional[Tuple[List[Any], Any]] = None

    def round_digest(self, broadcast: Optional[List[Any]],
                     build: Callable[[List[Any]], Any]) -> Any:
        """``build(broadcast)``, computed by the first node of the round
        to ask and served to the rest.

        ``broadcast`` is a round's common delivery list
        (``RoundContext.broadcast``), matched by identity; what ``build``
        returns — the validated, tallied round, or ``None`` when the
        round must be folded per message — is the caller's business.
        Like ``valid_payloads`` this shares positive work only: ``build``
        must give up (``None``) on any message that fails validation.
        One slot, overwritten each round, so neither a digest nor its
        delivery list outlives the next round.  Returns ``None`` without
        a broadcast and when caching is disabled.
        """
        if broadcast is None or not CACHING_ENABLED:
            return None
        slot = self._round_digest
        if slot is None or slot[0] is not broadcast:
            slot = self._round_digest = (broadcast, build(broadcast))
        return slot[1]

    def mark_valid(self, payload: Any, absorb: Optional[Callable] = None,
                   audience: Optional[NodeId] = None) -> None:
        """Mark a payload as validated, with its ``absorb`` step if any
        and the one node that step can change (``None``: every node)."""
        if not CACHING_ENABLED:
            return
        _trim(self.valid_payloads)
        self.valid_payloads[id(payload)] = (payload, absorb, audience)

    def check_auth(self, authenticator: Authenticator, node_id: NodeId,
                   topic: Any, auth: Any) -> bool:
        """Memoized ``authenticator.check`` (content-keyed, auth included)."""
        if not CACHING_ENABLED:
            return authenticator.check(node_id, topic, auth)
        try:
            key = (type_tagged(node_id), type_tagged(topic),
                   type_tagged(auth))
            if key in self._auth:
                return True
        except TypeError:  # unhashable auth: verify directly, never cache
            return authenticator.check(node_id, topic, auth)
        valid = authenticator.check(node_id, topic, auth)
        if valid:
            _trim(self._auth)
            self._auth.add(key)
        return valid

    def check_vote(self, authenticator: Authenticator,
                   vote: SignedVote) -> bool:
        """Memoized vote check, keyed ``(voter, iteration, bit, auth)``.

        Shares entries with :meth:`check_auth` — a vote arriving inside a
        certificate and the same vote arriving as a ``VoteMsg`` hit the
        same cache line.
        """
        return self.check_auth(authenticator, vote.voter,
                               ("Vote", vote.iteration, vote.bit), vote.auth)

    def check_certificate(self, certificate: Certificate, threshold: int,
                          check_vote: Callable[[SignedVote], bool]) -> bool:
        """Memoized ``verify_certificate``, keyed by object identity."""
        if not CACHING_ENABLED:
            return verify_certificate(certificate, threshold, check_vote)
        entry = self._cert_true_by_id.get(id(certificate))
        if entry is not None and entry[0] is certificate:
            return True
        valid = verify_certificate(certificate, threshold, check_vote)
        if valid:
            _trim(self._cert_true_by_id)
            self._cert_true_by_id[id(certificate)] = (certificate,)
        return valid

    def check_quorum(self, predicate: Callable[..., bool], members: tuple,
                     args: tuple) -> bool:
        """Memo of ``predicate(members, *args)`` by tuple identity and args."""
        entry = self._quorum_true_by_id.get(id(members))
        if entry is not None and entry[0] is members and entry[1] == args:
            return True
        valid = predicate(members, *args)
        if valid and CACHING_ENABLED and members.__class__ is tuple:
            _trim(self._quorum_true_by_id)
            self._quorum_true_by_id[id(members)] = (members, args)
        return valid

    def check_proposal(self, proposer: ProposerPolicy, sender: NodeId,
                       iteration: int, bit: Bit, auth: Any) -> bool:
        """Memoized ``proposer.check`` (votes re-attach the same proposal
        n times per round — footnote 11)."""
        if not CACHING_ENABLED:
            return proposer.check(sender, iteration, bit, auth)
        try:
            key = (type_tagged(sender), type_tagged(iteration),
                   type_tagged(bit), type_tagged(auth))
            if key in self._proposals:
                return True
        except TypeError:
            return proposer.check(sender, iteration, bit, auth)
        valid = proposer.check(sender, iteration, bit, auth)
        if valid:
            _trim(self._proposals)
            self._proposals.add(key)
        return valid


class VerifyingNode(Node):
    """A protocol node verifying through its instance's shared cache.

    ``config`` carries the instance's ``authenticator``, certificate
    ``threshold`` and shared ``verification`` cache.
    """

    def __init__(self, node_id: NodeId, n: int, config: Any) -> None:
        super().__init__(node_id, n)
        self.config = config
        self._verification: VerificationCache = config.verification

    def _check_auth(self, node_id: NodeId, topic: Any, auth: Any) -> bool:
        return self._verification.check_auth(
            self.config.authenticator, node_id, topic, auth)

    def _check_vote_auth(self, vote: SignedVote) -> bool:
        return self._verification.check_vote(self.config.authenticator, vote)

    def _check_certificate(self, certificate: Optional[Certificate],
                           expected_bit: Optional[Bit] = None) -> bool:
        if certificate is None:
            return True  # the fictitious rank-0 certificate
        if expected_bit is not None and certificate.bit != expected_bit:
            return False
        return self._verification.check_certificate(
            certificate, self.config.threshold, self._check_vote_auth)
