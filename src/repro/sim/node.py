"""Protocol node base class and the per-round execution context.

A node's entire interaction with the world happens through its
:class:`RoundContext`: it reads the messages delivered at the beginning of
the round and stages multicasts/unicasts that will be delivered next
round.  Nodes never touch the network or other nodes directly, which is
what lets the corruption controller hand a *corrupted node's own logic* to
the adversary (e.g. the Dolev–Reischuk adversary runs corrupt nodes
honestly but filters their inboxes).
"""

from __future__ import annotations

import abc
import random
from typing import Any, Callable, List, Optional, Union

from repro.sim.network import Delivery, own_view
from repro.types import Bit, NodeId, Round


class RoundContext:
    """What a node sees and can do during one round.

    ``broadcast`` is the round's common delivery list when every node
    receives the same multicasts (``RoundInboxes.broadcast``), so a
    protocol can share one pass over it across its nodes; it is ``None``
    whenever inboxes differ (conditioned networks, unicasts, suppressed
    copies) and for sandboxed or re-wrapped contexts.  With a broadcast
    the engine passes ``inbox=None`` and the node's own view is built
    only if something reads :attr:`inbox`.
    ``rng`` is the node's coin stream or a function from the node id to
    it (``Simulation.rng_for_node``), called on first read of :attr:`rng`:
    a protocol that never flips a local coin never seeds one.
    """

    def __init__(self, node_id: NodeId, round_index: Round,
                 inbox: Optional[List[Delivery]],
                 rng: Union[random.Random, Callable[[NodeId], random.Random]],
                 broadcast: Optional[List[Delivery]] = None) -> None:
        self.node_id = node_id
        self.round = round_index
        self._inbox = inbox
        self.broadcast = broadcast
        self._rng = rng
        #: Messages staged this round: (recipient | None, payload).
        self.staged: List[tuple[Optional[NodeId], Any]] = []

    @property
    def rng(self) -> random.Random:
        """This node's protocol coins, derived on first read."""
        if callable(self._rng):
            self._rng = self._rng(self.node_id)
        return self._rng

    @property
    def inbox(self) -> List[Delivery]:
        """The messages delivered to this node this round, in send order."""
        if self._inbox is None:
            self._inbox = own_view(self.broadcast, self.node_id)
        return self._inbox

    def multicast(self, payload: Any) -> None:
        """Stage a multicast to all other nodes (the paper's only
        communication primitive for its own protocols)."""
        self.staged.append((None, payload))

    def send(self, recipient: NodeId, payload: Any) -> None:
        """Stage a point-to-point message (used by baselines and attacks)."""
        self.staged.append((recipient, payload))


class Node(abc.ABC):
    """Base class for all protocol nodes.

    Subclasses implement :meth:`on_round`; the engine calls it once per
    round while the node is honest, not halted and not asleep.  ``halted``
    nodes stop participating (used by protocols with early termination).
    """

    #: A node's promise: before this round, an :meth:`on_round` call with
    #: an empty inbox is a no-op (it stages nothing, changes no state and
    #: reads no coin), so the engine skips it.  Mail still gets its call.
    asleep_until: Round = 0

    def __init__(self, node_id: NodeId, n: int) -> None:
        self.node_id = node_id
        self.n = n
        self.halted = False
        self.decided_round: Optional[Round] = None

    @abc.abstractmethod
    def on_round(self, ctx: RoundContext) -> None:
        """Process this round's inbox and stage outgoing messages."""

    @abc.abstractmethod
    def output(self) -> Optional[Bit]:
        """The node's current output to the environment, if decided."""

    def finalize(self) -> Bit:
        """Output forced at the end of the execution.

        The paper's Theorem 4 proof WLOG converts non-termination into
        outputting a default; protocols override this with their natural
        fallback (e.g. the currently preferred bit).
        """
        decided = self.output()
        return decided if decided is not None else 0

    def decide(self, value: Bit, round_index: Round) -> None:
        """Record a decision (subclasses call this exactly once)."""
        if self.decided_round is None:
            self.decided_round = round_index
        self._decision = value

    def reveal_state(self) -> dict:
        """What the adversary learns upon corrupting this node.

        Default: the full instance dictionary (all secrets).  Protocols in
        the memory-erasure model override this to exclude erased keys.
        """
        return dict(vars(self))
