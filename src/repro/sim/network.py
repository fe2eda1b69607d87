"""Synchronous message transport with per-recipient suppression.

Messages staged in round ``r`` are delivered at the beginning of round
``r + 1`` (``∆ = 1``, the model of Appendix B "Model for our lower
bound").  The network supports the one non-standard operation the paper's
strongly adaptive adversary needs: *after-the-fact removal*, i.e. erasing
a staged message for some or all recipients before it is delivered.  The
engine only exposes that operation when the adversary model permits it.

Batched delivery
----------------
A multicast round at size ``n`` used to cost O(n²) per-recipient list
appends inside :meth:`SynchronousNetwork.deliver` (every envelope pushed
into every inbox eagerly).  Delivery now returns a :class:`RoundInboxes`
mapping over one *shared* per-round entry list: each surviving envelope
contributes a single ``(sender, recipient, delivery, blocked)`` record,
and a node's inbox materializes lazily — as one C-speed comprehension
over the shared list — only when that node's inbox is actually read.
Inboxes that nothing reads (halted nodes, corrupt nodes whose adversary
ignores them) cost nothing.  Delivery order within an inbox is still
send order, and repeated runs still replay exactly.

When every surviving envelope of a round is an unblocked multicast, all
recipients see the *same* delivery list minus their own sends.
:attr:`RoundInboxes.broadcast` exposes that one list, so a protocol can
absorb the round once for all of its nodes (``protocols/aba.py``'s round
digest) instead of once per inbox; any unicast or per-recipient
suppression leaves it ``None``.

The recipient-set contract (multicast fan-out to everyone but the
sender, sender self-skip on unicasts, per-``(envelope, recipient)``
suppression) is stated once, in :meth:`_surviving_entries`; both
:meth:`deliver` and the conditioned network's window scheduler (which
fans each record out into per-recipient copies) consume it.

:class:`Envelope` and :class:`Delivery` are ``NamedTuple`` records,
built positionally (no per-field ``object.__setattr__``) once per send
and once per surviving envelope.  They are network bookkeeping, never
message content, so no payload may carry one — the size model would
measure it as a sequence, not a record.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import (
    Any, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple)

from repro.errors import SimulationError
from repro.types import NodeId, Round

#: Shared "no recipients suppressed" marker for entry records.
_NONE_BLOCKED: FrozenSet[NodeId] = frozenset()


class Envelope(NamedTuple):
    """One send operation: a unicast (``recipient`` set) or a multicast."""

    envelope_id: int
    sender: NodeId
    recipient: Optional[NodeId]
    payload: Any
    round_sent: Round
    honest_sender: bool

    @property
    def is_multicast(self) -> bool:
        return self.recipient is None


class Delivery(NamedTuple):
    """A message as seen by its recipient (channel-authenticated sender)."""

    sender: NodeId
    payload: Any


def own_view(broadcast: List[Delivery], node: NodeId) -> List[Delivery]:
    """``node``'s inbox in a round whose common delivery list is
    ``broadcast``: everything but its own multicasts."""
    return [delivery for delivery in broadcast if delivery.sender != node]


class RoundInboxes(Mapping):
    """Lazy per-node inbox views over one round's shared entry list.

    Behaves like the eager ``Dict[NodeId, List[Delivery]]`` it replaced
    (keys ``0..n-1``, each value a list in send order; ``Mapping`` supplies
    ``get``/``items``/``values``/``==``), but a node's list is built on
    first access and memoized.  Entries are
    ``(sender, recipient, delivery, blocked)`` tuples — ``recipient`` is
    ``None`` for a multicast, ``blocked`` the (usually empty, shared)
    frozenset of suppressed recipients for that envelope.

    ``broadcast`` is the round's common delivery list when every entry
    is an unblocked multicast (each inbox is then :func:`own_view` of
    it), else ``None``.
    """

    __slots__ = ("_n", "_entries", "_views", "broadcast")

    def __init__(self, n: int,
                 entries: List[Tuple[NodeId, Optional[NodeId],
                                     Delivery, FrozenSet[NodeId]]]) -> None:
        self._n = n
        self._entries = entries
        self._views: Dict[NodeId, List[Delivery]] = {}
        self.broadcast: Optional[List[Delivery]] = None
        if all(recipient is None and not blocked
               for _, recipient, _, blocked in entries):
            self.broadcast = [entry[2] for entry in entries]

    def __getitem__(self, node: NodeId) -> List[Delivery]:
        view = self._views.get(node)
        if view is None:
            if not (isinstance(node, int) and 0 <= node < self._n):
                raise KeyError(node)
            if self.broadcast is not None:
                view = own_view(self.broadcast, node)
            else:
                view = [
                    delivery
                    for sender, recipient, delivery, blocked in self._entries
                    if (recipient == node
                        or (recipient is None and sender != node))
                    and node not in blocked
                ]
            self._views[node] = view
        return view

    def __iter__(self) -> Iterator[NodeId]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"RoundInboxes(n={self._n}, entries={len(self._entries)})"


class SynchronousNetwork:
    """Stages envelopes during a round and delivers them the next round."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise SimulationError("network needs at least one node")
        self.n = n
        self._next_envelope_id = 0
        #: Id of the current window's first envelope: an envelope is in
        #: flight iff ``_window_start <= envelope_id < _next_envelope_id``.
        self._window_start = 0
        self._staged: List[Envelope] = []
        #: envelope_id -> suppressed recipients; ``None`` means every copy
        #: of the envelope is suppressed (O(1) instead of n set entries).
        self._suppressed: Dict[int, Optional[Set[NodeId]]] = {}
        self._delivered_round: Round = -1

    def stage(self, sender: NodeId, recipient: Optional[NodeId], payload: Any,
              round_sent: Round, honest_sender: bool) -> Envelope:
        """Record a send; the message leaves the sender immediately."""
        if recipient is not None and not 0 <= recipient < self.n:
            raise SimulationError(f"recipient {recipient} out of range")
        envelope = Envelope(self._next_envelope_id, sender, recipient,
                            payload, round_sent, honest_sender)
        self._next_envelope_id += 1
        self._staged.append(envelope)
        return envelope

    def suppress(self, envelope: Envelope, recipient: Optional[NodeId] = None) -> None:
        """After-the-fact removal of a staged message.

        ``recipient=None`` removes every copy of the envelope; otherwise
        only the copy addressed to ``recipient`` is erased.  Only envelopes
        still in flight (staged this round, not yet delivered) can be
        suppressed — one cannot rewrite history.

        Full suppression stores one ``None`` marker rather than a set
        entry per node; in particular it no longer records a
        ``(envelope_id, sender)`` entry for the sender's own copy, which
        does not exist (a sender never receives its own message).
        """
        self._require_in_flight(envelope, "suppress")
        if recipient is None:
            self._suppressed[envelope.envelope_id] = None
        else:
            blocked = self._suppressed.get(envelope.envelope_id, _NONE_BLOCKED)
            if blocked is None:
                return  # already fully suppressed
            if blocked is _NONE_BLOCKED:
                self._suppressed[envelope.envelope_id] = {recipient}
            else:
                blocked.add(recipient)

    def _require_in_flight(self, envelope: Envelope, verb: str) -> None:
        """Refuse an envelope outside the current staging window."""
        if not (self._window_start <= envelope.envelope_id
                < self._next_envelope_id):
            raise SimulationError(
                f"cannot {verb} a message that is not in flight")

    def in_flight(self) -> List[Envelope]:
        """Envelopes staged this round (the rushing adversary's view)."""
        return list(self._staged)

    def is_suppressed(self, envelope: Envelope, recipient: NodeId) -> bool:
        blocked = self._suppressed.get(envelope.envelope_id, _NONE_BLOCKED)
        return True if blocked is None else recipient in blocked

    def _surviving_entries(self):
        """Yield one ``(envelope, delivery, blocked)`` record per envelope
        that still has at least one deliverable copy.

        This is the single canonical statement of the delivery contract:
        fully-suppressed envelopes are dropped, a unicast to self or to a
        suppressed recipient is dropped, and ``blocked`` carries the
        per-envelope suppressed-recipient set (empty frozenset when
        nothing was suppressed) for the multicast fan-out to honor.
        """
        suppressed = self._suppressed
        for envelope in self._staged:
            if suppressed:
                blocked = suppressed.get(envelope.envelope_id, _NONE_BLOCKED)
                if blocked is None:
                    continue  # every copy suppressed
            else:
                blocked = _NONE_BLOCKED
            recipient = envelope.recipient
            if recipient is not None and (
                    recipient == envelope.sender or recipient in blocked):
                continue
            yield envelope, Delivery(envelope.sender, envelope.payload), blocked

    def _reset_window(self) -> None:
        self._staged = []
        self._window_start = self._next_envelope_id
        self._suppressed = {}

    def deliver(self) -> RoundInboxes:
        """Deliver all staged messages and start a new staging window.

        Delivery order is deterministic: envelopes are staged in id
        (= send) order and delivered in that order, so repeated runs
        replay exactly.  A multicast contributes one shared entry (and
        one frozen :class:`Delivery`) to the returned
        :class:`RoundInboxes` instead of ``n`` eager appends; recipients
        see it when their lazy inbox view materializes.
        """
        entries = [
            (envelope.sender, envelope.recipient, delivery, blocked)
            for envelope, delivery, blocked in self._surviving_entries()
        ]
        self._reset_window()
        self._delivered_round += 1
        return RoundInboxes(self.n, entries)

    def steps(self, max_rounds: int) -> Iterator[Tuple[Round, RoundInboxes]]:
        """The clock the engine steps by: ``(round, inboxes)`` for each of
        ``max_rounds`` rounds, one :meth:`deliver` each."""
        for round_index in range(max_rounds):
            yield round_index, self.deliver()
