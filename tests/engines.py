"""The engine axis for conditioned-execution tests, and its reference.

``repro.sim.engine.Simulation`` drives conditioned executions with one
loop, the event-driven scheduler (:data:`EVENT`).  The loop it replaced —
the Δ-lockstep synchronizer, ticking the network once per network round
— lives on here as :class:`LockstepSimulation` (:data:`LOCKSTEP`), the
differential reference the event loop must match execution for
execution: same decisions, rounds, transcripts, NetworkStats and RNG
draw order (as ``legacy_deliver`` in ``test_delivery_differential.py``
is for batched delivery, and the per-copy heap in
``test_conditioned_schedule_differential.py`` for the calendar queue).

Tests that exercise partial-synchrony behavior should make their claims
on *both* — a regression that only breaks one loop must not hide behind
the other.  Decorate with :data:`both_engines` and pass the ``engine``
argument to :func:`run` (``run_instance`` on that engine), or wrap
anything that reaches ``run_instance`` in-process — ``run_trials``,
``run_sweep`` at ``workers=1`` — in :func:`running_on`.

:class:`WakefulSimulation` (:data:`WAKEFUL`) is the reference for the
honest step's one shortcut, skipping a node that sleeps
(``Node.asleep_until``) and has no mail; ``test_view_step_differential.py``
holds the view machines to it.
"""

from contextlib import contextmanager
from typing import Dict
from unittest import mock

import pytest

from repro.harness import runner
from repro.sim.engine import Simulation
from repro.sim.node import RoundContext
from repro.types import NodeId

EVENT = "event"
LOCKSTEP = "lockstep"
WAKEFUL = "wakeful"

#: Every conditioned-execution loop, lock-step reference first.
ENGINES = (LOCKSTEP, EVENT)

#: ``@both_engines`` parametrizes a test over the engine axis; the test
#: receives the engine name as its ``engine`` argument.
both_engines = pytest.mark.parametrize("engine", ENGINES)


class LockstepSimulation(Simulation):
    """Reference implementation of the conditioned loop: the Δ-lockstep
    synchronizer.

    The synchronizer argument: with every copy delivered within Δ
    network rounds of sending (post-GST), stepping the protocol only
    every Δ rounds guarantees each step sees everything the previous
    step sent — so a lock-step protocol runs unchanged under any
    Δ-bounded delivery schedule.  ``current_round`` (and everything
    the adversary and the nodes see) stays in *protocol* rounds; the
    network keeps its own network-round clock for scheduling.
    Deliveries landing between steps accumulate into per-node
    buffers handed over at the next step.  Idle ticks the event loop
    jumps over are executed here as no-ops and counted the same
    (``NetworkStats.skipped_ticks``).
    """

    def _run_conditioned(self) -> int:
        stretch = self.conditions.delta
        n = self.n
        buffered: Dict[NodeId, list] = {node: [] for node in range(n)}
        rounds_executed = 0
        for network_round in range(self.max_rounds * stretch):
            inboxes = self.network.deliver()
            for node, deliveries in inboxes.items():
                if deliveries:
                    buffered[node].extend(deliveries)
            if network_round % stretch:
                continue
            round_index = network_round // stretch
            self.current_round = round_index
            self.adversary.observe_deliveries(round_index, buffered)
            self._honest_step(round_index, buffered)
            buffered = {node: [] for node in range(n)}
            self.adversary.react(round_index, self.network.in_flight())
            rounds_executed = round_index + 1
            if self._all_honest_halted():
                break
        return rounds_executed


class WakefulSimulation(Simulation):
    """Reference for the engine's sleep skip: the honest step calls
    every non-halted honest node every round, ignoring
    ``Node.asleep_until``.  A node's promise (a call before that round
    with an empty inbox is a no-op) makes the skip invisible, so an
    execution here must equal the event engine's in every byte."""

    def _honest_step(self, round_index, inboxes):
        broadcast = getattr(inboxes, "broadcast", None)
        for node in self.nodes:
            node_id = node.node_id
            if node.halted or self.controller.is_corrupt(node_id):
                continue
            ctx = RoundContext(
                node_id, round_index,
                inboxes[node_id] if broadcast is None else None,
                self.rng_for_node, broadcast)
            node.on_round(ctx)
            for recipient, payload in ctx.staged:
                self.metrics.record(self.network.stage(
                    node_id, recipient, payload, round_index,
                    honest_sender=True))


#: The ``Simulation`` class behind each engine name; :data:`WAKEFUL` is
#: the event engine without the sleep skip, a reference for the honest
#: step rather than a scheduler, so it is not on the :data:`ENGINES` axis.
SIMULATIONS = {LOCKSTEP: LockstepSimulation, EVENT: Simulation,
               WAKEFUL: WakefulSimulation}


@contextmanager
def running_on(engine):
    """Every ``run_instance`` of this process inside the block executes
    on ``engine``."""
    with mock.patch.object(runner, "Simulation", SIMULATIONS[engine]):
        yield


def run(instance, f, adversary=None, *, engine=EVENT, **kwargs):
    """``run_instance(instance, f, adversary, **kwargs)`` on ``engine``."""
    with running_on(engine):
        return runner.run_instance(instance, f, adversary, **kwargs)
