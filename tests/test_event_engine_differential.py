"""Differential conformance: event-driven scheduler vs Δ-lockstep loop.

The event engine (``repro.sim.engine``) replaced the conditioned
synchronizer's tick-by-tick loop with a timestamp-ordered event queue
that skips idle Δ-ticks outright.  These tests run whole protocol
executions on both loops — the lock-step reference is
:class:`tests.engines.LockstepSimulation`, reached through
``engines.run(..., engine="lockstep")`` — and assert the executions are
*identical*:
same outputs, decision rounds, transcripts, metrics, and (down to every
counter, including the engine-invariant ``skipped_ticks`` /
``events_processed``) the same :class:`~repro.sim.conditions.NetworkStats`.
Identity (not mere consistency) is the repo's established bar for
hot-path rewrites (see ``tests/test_delivery_differential.py`` for the
delivery-layer precedent).

The grid crosses every protocol family the conditioned engine hosts —
quadratic BA, phase-king, subquadratic BA, and both GST-aware early-stop
variants — with every nontrivial named network preset (``lan``, ``wan``,
``lossy``, ``split-heal``), plus adversary compositions (Δ-deadline
delays, crashes) and a round-budget-exhaustion case that exercises the
event engine's idle-tail accounting (``finish_clock``).  One case runs
a whole library sweep (``latency-stress``) on each loop and compares the
CSV/JSON artifacts byte for byte.
"""

import dataclasses

import pytest

from repro.adversaries.crash import CrashAdversary
from repro.adversaries.network_scheduler import DelayAdversary
from repro.protocols.early_stopping import (
    build_phase_king_early_stop,
    build_quadratic_ba_early_stop,
)
from repro.protocols.phase_king import build_phase_king
from repro.protocols.quadratic_ba import build_quadratic_ba
from repro.protocols.subquadratic_ba import build_subquadratic_ba
from repro.sim.conditions import NETWORKS
from tests import engines
from tests.engines import EVENT, LOCKSTEP, SIMULATIONS


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


#: name -> (builder(conditions) -> instance, f).  Sizes follow the
#: conditioned property suite: small enough that the full grid stays
#: test-sized, large enough that every protocol runs multiple epochs
#: under every preset.
PROTOCOLS = {
    "quadratic": (lambda conditions: build_quadratic_ba(
        12, 3, _inputs(12), seed=7), 3),
    "phase-king": (lambda conditions: build_phase_king(
        13, 4, _inputs(13), seed=7), 4),
    "subquadratic": (lambda conditions: build_subquadratic_ba(
        28, 7, _inputs(28), seed=7), 7),
    "quadratic-early-stop": (lambda conditions: build_quadratic_ba_early_stop(
        12, 3, _inputs(12), seed=7, conditions=conditions), 3),
    "phase-king-early-stop": (lambda conditions: build_phase_king_early_stop(
        13, 4, _inputs(13), seed=7, conditions=conditions), 4),
}

#: Every nontrivial named preset (perfect conditions never reach a
#: conditioned loop: the engine normalizes them to the fast path).
CONDITIONS = ("lan", "wan", "lossy", "split-heal")

GRID = [(protocol, network)
        for protocol in PROTOCOLS for network in CONDITIONS]


def _execute(protocol, network, engine, **kwargs):
    conditions = NETWORKS[network]
    builder, f = PROTOCOLS[protocol]
    return engines.run(builder(conditions), f, seed=7,
                       conditions=conditions, engine=engine, **kwargs)


@pytest.mark.parametrize("protocol,network", GRID,
                         ids=[f"{p}-{c}" for p, c in GRID])
def test_event_engine_matches_lockstep(protocol, network):
    event = _execute(protocol, network, EVENT)
    lockstep = _execute(protocol, network, LOCKSTEP)
    assert _snapshot(event) == _snapshot(lockstep)
    # The cell must be a real conditioned execution, not a fast-path one.
    assert event.network_stats is not None
    assert event.consistent() and event.agreement_valid()


@pytest.mark.parametrize("network", CONDITIONS)
def test_event_engine_skips_what_lockstep_idles(network):
    """The engines agree on *how many* ticks were idle — the event
    engine skips them, the lock-step loop executes them as no-ops, and
    both count the same rounds."""
    event = _execute("quadratic", network, EVENT)
    stats = event.network_stats
    assert stats.skipped_ticks > 0
    assert stats.events_processed >= stats.delivered_copies
    assert stats.skipped_ticks < stats.network_rounds
    lockstep = _execute("quadratic", network, LOCKSTEP)
    assert stats == lockstep.network_stats


@pytest.mark.parametrize("adversary_factory", [
    lambda: DelayAdversary(fraction=0.5, seed=3),
    lambda: DelayAdversary(),
    lambda: CrashAdversary(),
], ids=["delay-half", "delay-deadline", "crash"])
def test_adversaries_compose_identically(adversary_factory):
    """Adversarial delays and crashes ride the same schedule on both
    loops (``react`` observes the same staging windows, ``delay``
    registers against the same copies)."""
    conditions = NETWORKS["wan"]
    n, f = 12, 3

    def execute(engine):
        instance = build_quadratic_ba(n, f, _inputs(n), seed=11)
        return engines.run(instance, f, adversary_factory(), seed=11,
                           conditions=conditions, engine=engine)

    assert _snapshot(execute(EVENT)) == _snapshot(execute(LOCKSTEP))


def test_budget_exhaustion_accounts_the_idle_tail():
    """An execution that runs out its round budget without halting must
    report the same clock on both loops: the lock-step synchronizer
    ticks the network all the way to ``max_rounds·Δ``, so the event
    engine's ``finish_clock`` must account the idle tail it never ran."""
    event = _execute("quadratic", "wan", EVENT, max_rounds=2)
    lockstep = _execute("quadratic", "wan", LOCKSTEP, max_rounds=2)
    assert _snapshot(event) == _snapshot(lockstep)
    assert event.rounds_executed == 2
    assert event.network_stats.network_rounds == 2 * NETWORKS["wan"].delta


def test_rng_streams_end_in_the_same_state():
    """Direct evidence for draw-order identity (not just draw-outcome
    identity): after a full execution the conditioned network's RNG is
    in the same state under both loops."""
    conditions = NETWORKS["lossy"]
    n, f = 12, 3

    def final_rng_state(engine):
        instance = build_quadratic_ba(n, f, _inputs(n), seed=13)
        simulation = SIMULATIONS[engine](
            nodes=instance.nodes, corruption_budget=f, seed=13,
            max_rounds=instance.max_rounds, inputs=instance.inputs,
            signing_capabilities=instance.signing_capabilities,
            mining_capabilities=instance.mining_capabilities,
            conditions=conditions)
        simulation.run()
        return simulation.network._rng.getstate()

    assert final_rng_state(EVENT) == final_rng_state(LOCKSTEP)


def test_sweep_artifacts_are_byte_identical_across_engines():
    """Artifact-level identity: the ``latency-stress`` library sweep run
    in-process on the reference loop and on the event loop exports the
    same CSV and JSON bytes — ``skipped_ticks`` / ``events_processed``
    are columns of its conditioned rows, so they must be
    engine-invariant down to the artifact."""
    from repro.harness.scenarios import (
        run_sweep, sweep_csv_text, sweep_json_text)
    from repro.harness.sweep_library import SWEEPS

    sweep = SWEEPS["latency-stress"]

    def artifacts(engine):
        with engines.running_on(engine):
            result = run_sweep(sweep, workers=1)
        rows = result.rows()
        # The lottery token counts this process's sweeps; every other
        # counter (coins, hits, misses) must agree.
        lottery = dict(result.lottery, token=None)
        return (sweep_json_text(sweep.name, rows, lottery),
                sweep_csv_text(rows), rows)

    reference_json, reference_csv, rows = artifacts(LOCKSTEP)
    event_json, event_csv, _ = artifacts(EVENT)
    assert event_json == reference_json
    assert event_csv == reference_csv
    # Really a conditioned sweep: some rows carry scheduler accounting.
    assert any(row.get("skipped_ticks") for row in rows)
