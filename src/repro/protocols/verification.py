"""The round-structured core: one config, one builder, one inbox loop.

Every round-structured family (aba, phase-king, the view machines)
declares an execution in one :class:`RoundConfig`, passes :func:`admit`
and is built by :func:`build_round_instance`; its nodes are
:class:`VerifyingNode` subclasses sharing a :class:`VerificationCache`.

Verification of votes, certificates and proposals is a *public*
predicate — authenticators and eligibility lotteries are deterministic
functions any party can evaluate, and the result does not depend on
which node performs the check — so one :class:`VerificationCache` is
shared by every node of a protocol instance (via its config).  How a
check is answered follows how its objects come to exist:

- **Auths are issued**, one object per signing or won coin, and the
  object a node issues is the one every recipient is handed — inside a
  certificate, as a ``VoteMsg``, re-attached to a vote.  Auth and
  proposal checks go straight to ``authenticator.check``, whose issuer
  looks that object up in its own ledger first; no content key is
  built.
- **Wrapped votes, certificates and decide quorums are interned at
  construction** (``signed_vote``, ``certificate_from_votes``,
  ``view_machine.intern_quorum``) and the simulation hands every
  recipient of a message the same payload: all three are keyed by
  **identity** (``_vote_true_by_id`` in front of the vote's auth
  check), and any other copy is verified again.

Soundness rests on three invariants:

**An issued auth is answered by its issuer's ledger; anything else by
the predicate.**  The key registry and the round-eligibility
authenticator answer ``True`` at the top of ``check`` only for the very
object they handed ``node_id`` for that topic, compared by
:func:`~repro.serialization.type_tagged` equality (``True == 1``, but
they sign differently).  A content-equal copy, a token never handed out,
or an issued object presented under another node or topic misses the
ledger and gets the full predicate: the digest, the coin and the slot
signature.  ``Fmine`` keeps no ledger (its
predicate is a dict lookup), nor does the VRF world, which memoizes its
own verdicts.

**Only positive results are kept.**  A ``True`` is permanent — ideal
signatures stay issued, ``Fmine`` coins stay recorded, VRFs are
pure — but a ``False`` can legitimately become
``True`` later (e.g. an adversary circulates a forged ticket *before* the
honest node mines that topic; once mined, the content-equal honest ticket
is valid).  No table, shared or per node, remembers a ``False``: a
refused object is checked again on every sight, so the answer is always
the predicate's current value.

**Identity entries pin their object**, so a recycled ``id()`` can never
alias — the issuers' ledgers as much as the tables here.  A vote with an
unhashable ``auth`` is never kept by identity, so no entry goes stale
when payload objects are garbage-collected (e.g. under the engine's
``metrics-only`` transcript retention).

Every memo is a shortcut over a predicate: ``UncachedVerification`` in
``tests/reference.py`` calls the predicates straight, builds no digest
and marks no payload — the per-message fold every memo must agree with.
:meth:`VerifyingNode._fold` is the one inbox loop of the round-structured
families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.protocols.base import (
    Authenticator, ProposerPolicy, ProtocolInstance, ViewSchedule)
from repro.protocols.certificates import Certificate, verify_certificate
from repro.protocols.messages import SignedVote
from repro.sim.node import Node
from repro.types import Audience, Bit, NodeId, Round

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

    __slots__ = ("_vote_true_by_id", "_cert_true_by_id",
                 "_quorum_true_by_id", "valid_payloads", "_round_digest")

    def __init__(self) -> None:
        # Identity front: verified SignedVote objects, which signed_vote
        # interns (a vote and every certificate holding it share one).
        self._vote_true_by_id: Dict[int, SignedVote] = {}
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
        a broadcast.
        """
        if broadcast is None:
            return None
        slot = self._round_digest
        if slot is None or slot[0] is not broadcast:
            slot = self._round_digest = (broadcast, build(broadcast))
        return slot[1]

    def mark_valid(self, payload: Any,
                   absorb: Optional[Callable] = None) -> None:
        """Mark a payload as validated, with its ``absorb`` step if any."""
        _trim(self.valid_payloads)
        self.valid_payloads[id(payload)] = (payload, absorb)

    def check_vote(self, authenticator: Authenticator,
                   vote: SignedVote) -> bool:
        """Memoized vote check: by identity, then ``authenticator.check``
        on ``(voter, ("Vote", iteration, bit), auth)``.  Only a vote that
        hashes (so holds no mutable auth) is kept by identity."""
        if self._vote_true_by_id.get(id(vote)) is vote:
            return True
        valid = authenticator.check(vote.voter,
                                    ("Vote", vote.iteration, vote.bit),
                                    vote.auth)
        if valid:
            try:
                hash(vote)
            except TypeError:
                return valid
            _trim(self._vote_true_by_id)
            self._vote_true_by_id[id(vote)] = vote
        return valid

    def check_certificate(self, certificate: Certificate, threshold: int,
                          check_vote: Callable[[SignedVote], bool]) -> bool:
        """Memoized ``verify_certificate``, keyed by object identity."""
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
        if valid and members.__class__ is tuple:
            _trim(self._quorum_true_by_id)
            self._quorum_true_by_id[id(members)] = (members, args)
        return valid


@dataclass(kw_only=True)
class RoundConfig:
    """What the nodes of one round-structured execution share.  A warmup
    and its compilation differ in ``threshold``, ``authenticator`` and
    ``proposer`` alone (``protocols/base.py``)."""

    schedule: ViewSchedule  # how ``adversaries.menu`` knows the family
    threshold: int  # certificate (and decide-quorum) size
    authenticator: Authenticator
    units: int  # iterations, epochs or views budgeted
    proposer: Optional[ProposerPolicy] = None  # None: a fixed coordinator
    #: First protocol round whose sends provably reach every honest node
    #: (``NetworkConditions.trusted_send_round``; 0 under lock-step).
    trusted_send_round: Round = 0
    #: GST-aware early stopping (the ``-early-stop`` entries): decide on a
    #: unit whose votes or ACKs are unanimous, once its round is trusted —
    #: before that, drops can fake unanimity (``docs/PROTOCOLS.md``).
    early_stop_unanimity: bool = False
    verification: VerificationCache = field(default_factory=VerificationCache)


class VerifyingNode(Node):
    """A protocol node verifying through its instance's shared cache.

    ``config`` is the instance's :class:`RoundConfig`: its
    ``authenticator``, ``threshold`` and shared ``verification`` cache.
    """

    #: Payload class → (validation predicate, absorb step).  Validation
    #: is recipient-independent and runs once per payload object per
    #: execution; the absorb step is the recipient's own state update
    #: and returns nothing.  A class not listed is a foreign payload.
    _HANDLERS: Dict[type, Tuple[Callable, Callable]] = {}

    def __init__(self, node_id: NodeId, n: int, config: Any) -> None:
        super().__init__(node_id, n)
        self.config = config
        self._verification: VerificationCache = config.verification

    def _fold(self, inbox: List[Any]) -> None:
        """Validate and absorb every delivery, one at a time, in order.

        The simulation hands every recipient the same payload object, so
        the first successful validation marks it (``valid_payloads``)
        with its absorb step, which the other recipients call straight.
        The front is read directly (this loop is the protocol step's hot
        path) and is empty if the cache keeps none; failures are never
        remembered — a ``False`` can become ``True`` later.
        """
        front = self._verification.valid_payloads
        handlers = self._HANDLERS
        for delivery in inbox:
            msg = delivery.payload
            entry = front.get(id(msg))
            if entry is not None and entry[0] is msg:
                entry[1](self, msg)
                continue
            handler = handlers.get(msg.__class__)
            if handler is not None and handler[0](self, msg):
                self._verification.mark_valid(msg, handler[1])
                handler[1](self, msg)

    def _admitted(self, msg: Any) -> bool:
        """Whether ``msg`` is a listed payload that validates, marking it
        as :meth:`_fold` does; nothing is absorbed."""
        handler = self._HANDLERS.get(msg.__class__)
        if handler is None:
            return False
        entry = self._verification.valid_payloads.get(id(msg))
        if entry is not None and entry[0] is msg:
            return True
        if not handler[0](self, msg):
            return False
        self._verification.mark_valid(msg, handler[1])
        return True

    def _check_auth(self, node_id: NodeId, topic: Any, auth: Any) -> bool:
        return self.config.authenticator.check(node_id, topic, auth)

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


def admit(family: str, n: int, f: int, inputs: Sequence[Bit],
          ratio: int) -> None:
    """Refuse what ``family`` cannot run: anything but one input bit per
    node, or ``n <= ratio * f`` (2: honest majority; 3: ``f < n/3``)."""
    if len(inputs) != n:
        raise ConfigurationError("need exactly one input bit per node")
    if not n > ratio * f:
        raise ConfigurationError(
            f"{family} requires honest majority: n={n} > 2f={2 * f}"
            if ratio == 2 else f"{family} requires f < n/3: n={n}, f={f}")


def build_round_instance(
    name: str,
    node_cls: type,
    inputs: Sequence[Bit],
    config: RoundConfig,
    signing: Any = None,
    mining: Any = None,
    audience: Optional[Callable[[Sequence[Node]], Audience]] = None,
) -> ProtocolInstance:
    """One ``node_cls(node_id, n, input_bit, config)`` per input bit, for
    ``config.units`` units.  ``signing`` and ``mining`` (a key registry,
    an eligibility source) hand out the capabilities; ``audience(nodes)``
    is held by the instance alone, so it closes no cycle via the nodes."""
    n = len(inputs)
    ids = range(n)
    nodes = [node_cls(i, n, inputs[i], config) for i in ids]
    return ProtocolInstance(
        name=name,
        nodes=nodes,
        max_rounds=config.schedule.rounds_for(config.units),
        inputs={i: inputs[i] for i in ids},
        signing_capabilities=[] if signing is None else [
            signing.capability_for(i) for i in ids],
        mining_capabilities=[] if mining is None else [
            mining.capability_for(i) for i in ids],
        authenticator=config.authenticator,
        config=config,
        audience=None if audience is None else audience(nodes),
    )
