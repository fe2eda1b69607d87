"""Sandboxed execution of corrupted nodes' own logic.

Several of the paper's adversaries corrupt nodes but keep them running the
*honest* protocol with surgical deviations:

- Dolev–Reischuk's ``A``: the corrupt set V behaves honestly except it
  ignores the first f/2 messages and stays silent towards other V members;
- Dolev–Reischuk's ``A'`` (``A`` with the victim ``p`` spared) /
  Theorem 4's isolation: corrupted senders "behave correctly" except
  they never talk to ``p``.

:class:`SandboxRunner` provides exactly that: it adopts corruption grants
and, each round, steps every adopted node with an adversary-filtered inbox,
then re-injects the node's staged messages minus the recipients a send
filter withholds (a multicast stays one, without the withheld copies).
:class:`SandboxAdversary` is the base of the adversaries that own one;
:class:`Deaf` is ``A``'s ignore-the-first-f/2 inbox filter.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Dict, Iterable, List, Optional

from repro.sim.adversary import Adversary, AdversaryApi
from repro.sim.corruption import CorruptionGrant
from repro.sim.network import Delivery
from repro.types import NodeId

#: Keep-this-delivery predicate: (node_id, delivery) -> bool.
InboxFilter = Callable[[NodeId, Delivery], bool]
#: Withheld recipients of a staged message: (node_id, payload) -> set.
SendFilter = Callable[[NodeId, object], AbstractSet[NodeId]]


class SandboxRunner:
    """Runs adopted (corrupted) nodes as filtered honest parties."""

    def __init__(self, api: AdversaryApi) -> None:
        self.api = api
        self.grants: Dict[NodeId, CorruptionGrant] = {}

    def adopt(self, grant: CorruptionGrant) -> None:
        self.grants[grant.node_id] = grant

    def step(
        self,
        inboxes: Dict[NodeId, List[Delivery]],
        inbox_filter: Optional[InboxFilter] = None,
        send_filter: Optional[SendFilter] = None,
    ) -> None:
        """Run one round of every adopted node.

        Nodes adopted during the current round's reaction step must not be
        re-run this round (their honest step already happened); callers
        should invoke :meth:`step` from ``observe_deliveries``, i.e. at the
        start of the *next* round, which achieves exactly that.
        """
        for node_id in sorted(self.grants):
            node = self.grants[node_id].node
            if node.halted:
                continue
            inbox = [
                delivery for delivery in inboxes.get(node_id, [])
                if inbox_filter is None or inbox_filter(node_id, delivery)
            ]
            ctx = self.api.make_context(node_id, inbox)
            node.on_round(ctx)
            for recipient, payload in ctx.staged:
                withheld = (send_filter(node_id, payload)
                            if send_filter is not None else ())
                if recipient not in withheld:
                    self.api.inject(node_id, recipient, payload,
                                    withheld=withheld)


class SandboxAdversary(Adversary):
    """An adversary whose corrupted nodes keep running in a sandbox."""

    sandbox: SandboxRunner

    def bind(self, api: AdversaryApi) -> None:
        # The sandbox must exist before on_setup() runs inside bind().
        self.sandbox = SandboxRunner(api)
        super().bind(api)


class Deaf:
    """Inbox filter: each of ``members`` ignores the first ``count``
    messages delivered to it; every other node hears everything."""

    def __init__(self, members: Iterable[NodeId], count: int) -> None:
        self.count = count
        self.ignored: Dict[NodeId, int] = dict.fromkeys(members, 0)

    def __call__(self, node_id: NodeId, delivery: Delivery) -> bool:
        if self.ignored.get(node_id, self.count) < self.count:
            self.ignored[node_id] += 1
            return False
        return True
