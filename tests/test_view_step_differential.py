"""Differential conformance: the view machine's round step vs its reference.

A view-machine round pays only for state that can change: a node holding
a settled height sleeps (``Node.asleep_until``) and the engine skips it
while it has no mail, and ``ViewNode._maybe_decide`` rescans the member
tally only after a new quorum formed.  Both are shortcuts over a step
that would have done nothing, so an execution must not move by a byte.
The reference executor (``tests/reference.py``) takes neither: it calls
every non-halted honest node every round, and its view nodes step as
they did before the sleep (``ReferenceLeaderNode``,
``ReferenceAdaptiveNode``).  ``tests/test_reference_battery.py`` holds
leader-ba, leader-chain and adaptive-ba to it on every network preset
under every adversary they admit — leader-chain under ``view-split``
among them, whose corrupt nodes keep sending while honest nodes sleep,
so a sleeping node gets mail — comparing every honest node's end state
down to its vote and member tallies.  :func:`test_the_chain_really_sleeps`
keeps that comparison from being vacuous.

A third shortcut is the validity front: a cached NewView is validated
by its first recipient and only absorbed by the rest.  Folding every
message (``tests.reference.fold_every_message``), every recipient
validates it too, so :func:`test_cached_new_view_fold_matches_uncached`
compares the two on leader-ba under ``leader-killer`` and ``view-split``
at n = 13 and 25.  A conditioned network without partitions delivers a
NewView only to its readers (``leader_ba.readers``), so the grid also
runs ``split-heal``, whose partitions make every copy arrive.
"""

import pytest

from repro.adversaries import LeaderKillerAdversary, ViewSplitAdversary
from repro.harness.runner import run_instance
from repro.protocols.certificates import rank
from repro.protocols.leader_ba import (
    LeaderBaNode,
    build_leader_ba,
    build_leader_chain,
    decision_view_of,
)
from repro.sim.conditions import NETWORKS
from tests import reference
from tests.reference import (
    EVENT,
    REFERENCE,
    ReferenceLeaderNode,
    fold_every_message,
    observe,
)

N, F = 13, 4
NETWORK_NAMES = ("wan", "lossy", "split-heal")


def _mixed(n):
    return [i % 2 for i in range(n)]


FOLD_GRID = [(adversary, network, n)
                 for adversary in ("leader-killer", "view-split")
                 for network in ("wan", "lossy", "split-heal")
                 for n in (13, 25)]
ADVERSARIES = {"leader-killer": LeaderKillerAdversary,
               "view-split": ViewSplitAdversary}


def _lock_of(node):
    return rank(node.locked), node.locked is not None and node.locked.bit


def _fold_run(monkeypatch, adversary, network, n, cached):
    """One leader-ba execution, cached or folding every message: its
    result, every node's lock after each of its steps, every honest
    node's end lock, belief and NewView material, the settled view and
    the words."""
    f = (n - 1) // 3
    conditions = NETWORKS[network]
    locks = []
    step = LeaderBaNode.on_round

    def recording(self, ctx):
        step(self, ctx)
        locks.append((ctx.round, self.node_id, _lock_of(self)))

    monkeypatch.setattr(LeaderBaNode, "on_round", recording)
    instance = build_leader_ba(n, f, _mixed(n), seed=1, conditions=conditions)
    if not cached:
        fold_every_message(instance.nodes)
    result = run_instance(instance, f, ADVERSARIES[adversary](instance),
                          seed=1, conditions=conditions)
    monkeypatch.setattr(LeaderBaNode, "on_round", step)
    nodes = [(node.node_id, _lock_of(node), node.belief,
              {view: {bit: sorted(senders) for bit, senders in tally.items()}
               for view, tally in node.new_views.items()})
             for node in instance.nodes
             if node.node_id not in result.corrupt_set]
    return (observe(result), locks, nodes, decision_view_of(result),
            result.metrics.classical_message_count)


@pytest.mark.parametrize("adversary,network,n", FOLD_GRID,
                         ids=[f"{a}-{w}-n{n}" for a, w, n in FOLD_GRID])
def test_cached_new_view_fold_matches_uncached(monkeypatch, adversary,
                                               network, n):
    """Cached, a NewView is validated once and absorbed by every
    recipient; uncached, every recipient validates it as well.
    Decisions, every node's lock after each of its steps, beliefs, the
    leaders' NewView material, views, words and transcripts must not
    move."""
    runs = [_fold_run(monkeypatch, adversary, network, n, cached)
            for cached in (True, False)]
    assert runs[0] == runs[1]
    assert runs[0][0]["outputs"] and runs[0][1] and runs[0][3] >= 1


def test_the_chain_really_sleeps():
    """Not vacuous: on every preset some chain node sleeps through
    rounds it would otherwise have been called in."""
    for network in NETWORK_NAMES:
        conditions = NETWORKS[network]
        calls = {}
        for engine, cls in ((EVENT, LeaderBaNode),
                            (REFERENCE, ReferenceLeaderNode)):
            counted = []

            def counting(self, ctx, step=cls.on_round, counted=counted):
                counted.append(1)
                return step(self, ctx)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cls, "on_round", counting)
                instance = build_leader_chain(N, F, _mixed(N), seed=1,
                                              heights=3,
                                              conditions=conditions)
                reference.run(instance, F, seed=1, conditions=conditions,
                              engine=engine)
            calls[engine] = len(counted)
        assert 0 < calls[EVENT] < calls[REFERENCE], (network, calls)
