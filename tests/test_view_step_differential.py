"""Differential conformance: the view machine's round step vs its reference.

A view-machine round pays only for state that can change: a node holding
a settled height sleeps (``Node.asleep_until``) and the engine skips it
while it has no mail, and ``ViewNode._maybe_decide`` rescans the member
tally only after a new quorum formed.  Both are shortcuts over a step
that would have done nothing, so an execution must not move by a byte.
The reference takes neither: :class:`tests.engines.WakefulSimulation`
calls every non-halted honest node every round, and the nodes are
swapped for subclasses whose ``on_round`` is the step before the sleep —
it walks every inbox, scans the tally every round and idles a settled
height's window by the old per-unit ``_idle`` rule, never reading
``asleep_until``.

The grid is the six ``core-views`` benchmark shapes at n = 13 on the
``wan``, ``lossy`` and ``split-heal`` presets: leader-ba unopposed,
under ``leader-killer`` and under ``view-split``; adaptive-ba under
``actual-faults`` with f* = f / 2 and f* = 0; and the three-height
``leader-chain`` — plus that chain under ``view-split``, whose corrupt
nodes keep sending while honest nodes sleep, so a sleeping node gets
mail.  Each runs with verification caching on and off
(``verification.CACHING_ENABLED``), which also holds the decide-quorum
identity front to the uncached predicate.  Every honest node's end
state includes its vote and member tallies, so a step that skipped mail
shows even where the execution's result does not move.

A third shortcut is the NewView audience: a cached NewView without a QC
runs its absorb step only on its view's leader.  Uncached, every
recipient runs it, so :func:`test_new_view_audience_skip_matches_uncached`
compares the two on leader-ba under ``leader-killer`` and ``view-split``
at n = 13 and 25.
"""

import pytest

from repro.adversaries import LeaderKillerAdversary, ViewSplitAdversary
from repro.adversaries.actual_faults import ActualFaultsAdversary
from repro.protocols import verification
from repro.protocols.adaptive_ba import AdaptiveBaNode, build_adaptive_ba
from repro.harness.runner import run_instance
from repro.protocols.certificates import rank
from repro.protocols.leader_ba import (
    LeaderBaNode,
    build_leader_ba,
    build_leader_chain,
    decision_view_of,
)
from repro.sim.conditions import NETWORKS
from tests.engines import EVENT, SIMULATIONS, WAKEFUL
from tests.test_event_engine_differential import _snapshot

N, F = 13, 4


def _mixed(n):
    return [i % 2 for i in range(n)]


#: name -> (builder(conditions), adversary factory(instance) or None).
SHAPES = {
    "leader-happy": (lambda c: build_leader_ba(
        N, F, _mixed(N), seed=1, conditions=c), None),
    "leader-killer": (lambda c: build_leader_ba(
        N, F, _mixed(N), seed=1, conditions=c), LeaderKillerAdversary),
    "view-split": (lambda c: build_leader_ba(
        N, F, _mixed(N), seed=1, conditions=c), ViewSplitAdversary),
    "adaptive-faults": (lambda c: build_adaptive_ba(
        N, F, [1] * N, seed=1, conditions=c),
        lambda instance: ActualFaultsAdversary(actual=F // 2)),
    "adaptive-silent": (lambda c: build_adaptive_ba(
        N, F, [1] * N, seed=1, conditions=c),
        lambda instance: ActualFaultsAdversary(actual=0)),
    "leader-chain": (lambda c: build_leader_chain(
        N, F, _mixed(N), seed=1, heights=3, conditions=c), None),
    # Not a bench shape: the corrupt nodes keep sending while the honest
    # ones sleep out a height, so a sleeping node gets mail.
    "chain-view-split": (lambda c: build_leader_chain(
        N, F, _mixed(N), seed=1, heights=3, conditions=c),
        ViewSplitAdversary),
}

NETWORK_NAMES = ("wan", "lossy", "split-heal")


def _scan_every_round(self, ctx):
    """``_maybe_decide`` as it was before the new-quorum flag: scan the
    whole member tally every round."""
    ready = sorted(
        key for key, quorum in self.members_seen.items()
        if len(quorum) >= self.config.threshold)
    for unit, bit in ready:
        if self._settle(ctx, unit, bit):
            return True
    return False


def _idle(node, unit):
    """The rule ``asleep_until`` replaced: a settled height's window
    idles out, decided unit by unit from the height decisions."""
    heights = getattr(node, "height_decisions", None)
    return heights is not None and node.config.height_of_view(unit) in heights


def _step_every_round(self, ctx):
    """``ViewNode.on_round`` as it was before nodes could sleep: every
    call walks the inbox and scans the tally, and ``asleep_until`` is
    never read."""
    if self._final_msg is not None:
        if self.SCHEDULE.at_boundary(ctx.round):
            self._announce(ctx, self._final_msg)
        return
    self._process_inbox(ctx)
    if _scan_every_round(self, ctx):
        return
    unit, phase = self.SCHEDULE.schedule(ctx.round)
    if unit > self.config.units:
        self.halted = True
        return
    action = self._ACTIONS.get(phase)
    if action is not None and not _idle(self, unit):
        action(self, ctx, unit)


class ReferenceLeaderNode(LeaderBaNode):
    on_round = _step_every_round


class ReferenceAdaptiveNode(AdaptiveBaNode):
    on_round = _step_every_round


REFERENCE = {LeaderBaNode: ReferenceLeaderNode,
             AdaptiveBaNode: ReferenceAdaptiveNode}


def _node_state(node):
    """A node's end state, down to who it heard from: a step that
    skipped mail would leave its tallies short."""
    tallies = [{key: sorted(tally) for key, tally in seen.items()}
               for seen in (node.votes_seen, node.members_seen)]
    return (node.node_id, node.halted, node.decided_round, node.belief,
            rank(node.locked), node.output(),
            getattr(node, "height_decisions", None), tallies)


def _execute(shape, network, reference):
    """One execution and everything it observably produced: the result
    snapshot, every honest node's end state and the RNG end states."""
    conditions = NETWORKS[network]
    build, adversary_factory = SHAPES[shape]
    instance = build(conditions)
    if reference:
        for node in instance.nodes:
            node.__class__ = REFERENCE[node.__class__]
    adversary = (adversary_factory(instance)
                 if adversary_factory is not None else None)
    simulation = SIMULATIONS[WAKEFUL if reference else EVENT](
        nodes=instance.nodes, corruption_budget=F, adversary=adversary,
        seed=1, max_rounds=instance.max_rounds, inputs=instance.inputs,
        signing_capabilities=instance.signing_capabilities,
        mining_capabilities=instance.mining_capabilities,
        conditions=conditions)
    result = simulation.run()
    nodes = [_node_state(node) for node in instance.nodes
             if node.node_id not in result.corrupt_set]
    rngs = (simulation.network._rng.getstate(),
            {node: rng.getstate()
             for node, rng in simulation._node_rngs.items()})
    return _snapshot(result), nodes, rngs, result


GRID = [(shape, network) for shape in SHAPES for network in NETWORK_NAMES]


@pytest.mark.parametrize("shape,network", GRID,
                         ids=[f"{s}-{n}" for s, n in GRID])
def test_round_step_matches_the_reference(monkeypatch, shape, network):
    """The fast path equals the reference, cached and uncached, and the
    caching axis does not move an execution either."""
    runs = {}
    for caching in (True, False):
        monkeypatch.setattr(verification, "CACHING_ENABLED", caching)
        for reference in (False, True):
            *observed, result = _execute(shape, network, reference)
            runs[caching, reference] = observed
    expected = runs[True, False]
    for key, observed in runs.items():
        assert observed == expected, f"(caching, reference) = {key}"
    assert result.network_stats is not None  # a conditioned execution
    assert result.consistent() and result.agreement_valid()


AUDIENCE_GRID = [(adversary, network, n)
                 for adversary in ("leader-killer", "view-split")
                 for network in ("wan", "lossy") for n in (13, 25)]
ADVERSARIES = {"leader-killer": LeaderKillerAdversary,
               "view-split": ViewSplitAdversary}


def _lock_of(node):
    return rank(node.locked), node.locked is not None and node.locked.bit


def _audience_run(monkeypatch, adversary, network, n):
    """One leader-ba execution: its result snapshot, every node's lock
    after each of its steps, every honest node's end lock, belief and
    NewView material, the settled view and the words."""
    f = (n - 1) // 3
    conditions = NETWORKS[network]
    locks = []
    step = LeaderBaNode.on_round

    def recording(self, ctx):
        step(self, ctx)
        locks.append((ctx.round, self.node_id, _lock_of(self)))

    monkeypatch.setattr(LeaderBaNode, "on_round", recording)
    instance = build_leader_ba(n, f, _mixed(n), seed=1, conditions=conditions)
    result = run_instance(instance, f, ADVERSARIES[adversary](instance),
                          seed=1, conditions=conditions)
    monkeypatch.setattr(LeaderBaNode, "on_round", step)
    nodes = [(node.node_id, _lock_of(node), node.belief,
              {view: {bit: sorted(senders) for bit, senders in tally.items()}
               for view, tally in node.new_views.items()})
             for node in instance.nodes
             if node.node_id not in result.corrupt_set]
    return (_snapshot(result), locks, nodes, decision_view_of(result),
            result.metrics.classical_message_count)


@pytest.mark.parametrize("adversary,network,n", AUDIENCE_GRID,
                         ids=[f"{a}-{w}-n{n}" for a, w, n in AUDIENCE_GRID])
def test_new_view_audience_skip_matches_uncached(monkeypatch, adversary,
                                                 network, n):
    """A cached NewView without a QC runs its absorb step only on its
    view's leader (``LeaderBaNode._AUDIENCE``); uncached, every recipient
    runs it.  Decisions, every node's lock after each of its steps,
    beliefs, the leaders' NewView material, views, words and transcripts
    must not move.

    Mutants that fail this case (checked by hand on a copy): the audience
    is the leader also for a NewView that carries a QC (a node adopts a
    carried lock a round late, at the proposal), and the leader itself
    skips the step (it proposes from the attestations it validated
    first, or none)."""
    runs = []
    for caching in (True, False):
        monkeypatch.setattr(verification, "CACHING_ENABLED", caching)
        runs.append(_audience_run(monkeypatch, adversary, network, n))
    assert runs[0] == runs[1]
    assert runs[0][0]["outputs"] and runs[0][1] and runs[0][3] >= 1


def test_the_chain_really_sleeps():
    """Not vacuous: on every preset some chain node sleeps through
    rounds it would otherwise have been called in."""
    for network in NETWORK_NAMES:
        calls = {}
        for reference, cls in ((False, LeaderBaNode),
                               (True, ReferenceLeaderNode)):
            counted = []

            def counting(self, ctx, step=cls.on_round, counted=counted):
                counted.append(1)
                return step(self, ctx)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cls, "on_round", counting)
                _execute("leader-chain", network, reference)
            calls[reference] = len(counted)
        assert 0 < calls[False] < calls[True], (network, calls)
