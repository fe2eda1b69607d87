"""Adaptive-family conformance (the bar of
``test_event_engine_differential.py`` and the leader-family suite):
event-scheduler and lock-step executions of ``adaptive-ba`` are
byte-identical — outputs, decided rounds, transcripts, metrics, every
``NetworkStats`` counter, and the conditioned network's RNG end state —
across the named condition presets and the supported adversaries.
"""

import dataclasses

import pytest

from repro.adversaries import ActualFaultsAdversary, CrashAdversary
from repro.protocols import build_adaptive_ba
from repro.sim.conditions import NETWORKS
from tests import engines
from tests.engines import EVENT, LOCKSTEP, SIMULATIONS, both_engines


def _snapshot(result):
    """Everything a conditioned execution observably produced."""
    return {
        "outputs": result.outputs,
        "decided_rounds": result.decided_rounds,
        "rounds_executed": result.rounds_executed,
        "rounds_saved": result.rounds_saved,
        "transcript": [
            (e.envelope_id, e.sender, e.recipient, repr(e.payload),
             e.round_sent, e.honest_sender)
            for e in result.transcript],
        "metrics": (result.metrics.honest_multicast_count,
                    result.metrics.honest_multicast_bits,
                    result.metrics.honest_unicast_count,
                    result.metrics.honest_unicast_bits,
                    result.metrics.corrupt_multicast_count,
                    result.metrics.corrupt_unicast_count,
                    result.metrics.max_message_bits,
                    dict(result.metrics.per_round_honest_multicasts),
                    result.metrics.per_round_multicast_bits()),
        "network_stats": dataclasses.asdict(result.network_stats),
    }


def _inputs(n):
    return [i % 2 for i in range(n)]


ADVERSARIES = {
    "none": lambda: None,
    "crash": lambda: CrashAdversary(),
    "actual-faults": lambda: ActualFaultsAdversary(actual=2),
}

CONDITIONS = ("lan", "wan", "lossy", "split-heal")

GRID = [(network, adversary)
        for network in CONDITIONS
        for adversary in ("none", "actual-faults")] + [
    ("wan", "crash"),
    ("lossy", "crash"),
]


def _execute(network, adversary, engine, **kwargs):
    conditions = NETWORKS[network]
    instance = build_adaptive_ba(10, 3, _inputs(10), seed=7,
                                 conditions=conditions)
    return engines.run(instance, 3, ADVERSARIES[adversary](),
                       seed=7, conditions=conditions, engine=engine,
                       **kwargs)


class TestBothEnginesIdentity:
    @pytest.mark.parametrize("network,adversary", GRID,
                             ids=[f"{n}-{a}" for n, a in GRID])
    def test_event_engine_matches_lockstep(self, network, adversary):
        event = _execute(network, adversary, EVENT)
        lockstep = _execute(network, adversary, LOCKSTEP)
        assert _snapshot(event) == _snapshot(lockstep)
        # Real conditioned executions, not fast-path ones — and the
        # guarantees hold while the engines agree.
        assert event.network_stats is not None
        assert event.consistent() and event.agreement_valid()

    @both_engines
    def test_decides_on_either_engine(self, engine):
        result = _execute("wan", "none", engine)
        assert result.all_decided() and result.consistent()

    def test_rng_streams_end_in_the_same_state(self):
        """Draw-order identity, not just draw-outcome identity: the
        conditioned network's RNG ends an adaptive execution in the
        same state under both loops."""
        conditions = NETWORKS["lossy"]

        def final_rng_state(engine):
            instance = build_adaptive_ba(10, 3, _inputs(10), seed=13,
                                         conditions=conditions)
            simulation = SIMULATIONS[engine](
                nodes=instance.nodes, corruption_budget=3, seed=13,
                max_rounds=instance.max_rounds, inputs=instance.inputs,
                signing_capabilities=instance.signing_capabilities,
                mining_capabilities=instance.mining_capabilities,
                conditions=conditions)
            simulation.run()
            return simulation.network._rng.getstate()

        assert final_rng_state(EVENT) == final_rng_state(LOCKSTEP)
