"""Content-addressed verification memoization shared by protocol nodes.

The simulation passes message objects by reference, but every node
assembles its *own* certificate objects from the votes it saw — so two
structurally-equal certificates almost never share an ``id()``.  Keying
verification caches by object identity (the historical approach) therefore
re-verified the same bytes once per content-equal copy: at n = 192 a
single quadratic-BA run performed ~4.9M redundant signature checks.

This module keys by **content**.  Verification of votes, certificates, and
proposals is a *public* predicate — authenticators and eligibility
lotteries are deterministic functions any party can evaluate, and the
result does not depend on which node performs the check — so one
:class:`VerificationCache` is shared by every node of a protocol instance
(via its config).  Soundness rests on two invariants:

**Keys cover everything the verifier reads.**  A vote entry is keyed by
``(voter, iteration, bit, auth)`` — the ``auth`` term is load-bearing:
without it, a tampered vote carrying a forged auth would collide with a
previously-verified honest vote and poison the cache.  Certificates are
keyed by their full structural content (iteration, bit, and the exact
vote tuple including every ``auth``); proposals by
``(sender, iteration, bit, auth)``.  Keys are
:func:`~repro.serialization.type_tagged` because dict equality is coarser
than canonical-bytes equality (``True == 1``, but they sign differently).

**Only positive results are shared.**  A ``True`` is permanent — ideal
signatures stay issued, ``Fmine`` coins stay recorded, real
signatures/VRFs are pure — but a ``False`` can legitimately become
``True`` later (e.g. an adversary circulates a forged ticket *before* the
honest node mines that topic; once mined, the content-equal honest ticket
is valid).  Negative results are therefore never shared across nodes;
nodes that want the seed semantics of "each *object* checked once" keep a
per-node identity front (:class:`VerifyingNode`) whose entries pin their
object, so a recycled ``id()`` can never alias.

Messages with unhashable ``auth`` objects fall back to direct
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
#: entries are positive memos or recomputable keys — and only costs
#: re-verification.
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

    __slots__ = ("_auth", "_auth_keys", "_certs", "_cert_keys",
                 "_cert_true_by_id", "_proposals", "valid_payloads",
                 "_round_digest")

    def __init__(self) -> None:
        # type_tagged (node_id, topic, auth) of verified checks; covers
        # votes, status, commit, terminate, and commit-reference checks.
        self._auth: set = set()
        # id(auth) -> (pinned auth, its type_tagged form): the same auth
        # object is checked by every recipient of its message, so its
        # (recursive) tag is built once; the pin keeps the id from being
        # recycled.
        self._auth_keys: Dict[int, Tuple[Any, Any]] = {}
        # type_tagged structural content of certificates that verified.
        self._certs: set = set()
        # id(certificate) -> (pinned certificate, its type_tagged key).
        self._cert_keys: Dict[int, Tuple[Certificate, Any]] = {}
        # Positive-only identity front: certificate objects known to have
        # verified, so the n - 1 later recipients of the same object skip
        # even the O(threshold) content-key hash.  Negative results are
        # deliberately NOT stored here (see module docstring).
        self._cert_true_by_id: Dict[int, Tuple[Certificate]] = {}
        # type_tagged (sender, iteration, bit, auth) of verified proposals.
        self._proposals: set = set()
        # Positive-only identity front over whole message payloads: the
        # simulation hands every recipient the *same* frozen payload
        # object, and a message's validation (auth checks, certificate
        # checks, structural checks — everything except the recipient's
        # own state updates) is a pure public predicate, so once any node
        # validated an object, the other n - 1 recipients skip straight
        # to their state updates.  Entries pin the object (no id
        # recycling) and only successes are stored — a failed validation
        # is re-attempted per recipient, because a ``False`` can become
        # ``True`` later (see module docstring).
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

    def mark_valid(self, payload: Any) -> None:
        """Record that this payload object passed full validation."""
        if not CACHING_ENABLED:
            return
        _trim(self.valid_payloads)
        self.valid_payloads[id(payload)] = (payload,)

    def _auth_key_of(self, auth: Any) -> Any:
        entry = self._auth_keys.get(id(auth))
        if entry is not None and entry[0] is auth:
            return entry[1]
        key = type_tagged(auth)
        _trim(self._auth_keys)
        self._auth_keys[id(auth)] = (auth, key)
        return key

    def check_auth(self, authenticator: Authenticator, node_id: NodeId,
                   topic: Any, auth: Any) -> bool:
        """Memoized ``authenticator.check`` (content-keyed, auth included)."""
        if not CACHING_ENABLED:
            return authenticator.check(node_id, topic, auth)
        try:
            key = (type_tagged(node_id), type_tagged(topic),
                   self._auth_key_of(auth))
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

    def _certificate_key(self, certificate: Certificate) -> Any:
        entry = self._cert_keys.get(id(certificate))
        if entry is not None and entry[0] is certificate:
            return entry[1]
        key = type_tagged(
            (certificate.iteration, certificate.bit, certificate.votes))
        _trim(self._cert_keys)
        self._cert_keys[id(certificate)] = (certificate, key)
        return key

    def check_certificate(self, certificate: Certificate, threshold: int,
                          check_vote: Callable[[SignedVote], bool]) -> bool:
        """Memoized ``verify_certificate``, keyed by structural content."""
        if not CACHING_ENABLED:
            return verify_certificate(certificate, threshold, check_vote)
        entry = self._cert_true_by_id.get(id(certificate))
        if entry is not None and entry[0] is certificate:
            return True
        key = self._certificate_key(certificate)
        try:
            if key in self._certs:
                _trim(self._cert_true_by_id)
                self._cert_true_by_id[id(certificate)] = (certificate,)
                return True
        except TypeError:  # unhashable vote auth somewhere inside
            return verify_certificate(certificate, threshold, check_vote)
        valid = verify_certificate(certificate, threshold, check_vote)
        if valid:
            _trim(self._certs)
            self._certs.add(key)
            _trim(self._cert_true_by_id)
            self._cert_true_by_id[id(certificate)] = (certificate,)
        return valid

    def check_proposal(self, proposer: ProposerPolicy, sender: NodeId,
                       iteration: int, bit: Bit, auth: Any) -> bool:
        """Memoized ``proposer.check`` (votes re-attach the same proposal
        n times per round — footnote 11)."""
        if not CACHING_ENABLED:
            return proposer.check(sender, iteration, bit, auth)
        try:
            key = (type_tagged(sender), type_tagged(iteration),
                   type_tagged(bit), self._auth_key_of(auth))
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
    ``threshold`` and shared ``verification`` cache.  On top of the
    shared cache each node keeps an identity front for certificates:
    every received object is resolved at most once per node (entries pin
    the object, so ids cannot be recycled), and — unlike the shared
    cache — negative results may be kept.
    """

    def __init__(self, node_id: NodeId, n: int, config: Any) -> None:
        super().__init__(node_id, n)
        self.config = config
        self._verification: VerificationCache = config.verification
        self._cert_cache: Dict[int, Tuple[Certificate, bool]] = {}

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
        entry = self._cert_cache.get(id(certificate))
        if entry is not None and entry[0] is certificate:
            return entry[1]
        result = self._verification.check_certificate(
            certificate, self.config.threshold, self._check_vote_auth)
        _trim(self._cert_cache)
        self._cert_cache[id(certificate)] = (certificate, result)
        return result
