"""Differential conformance: event-driven scheduler vs Δ-lockstep loop.

The event engine (``repro.sim.engine``) replaced the conditioned
synchronizer's tick-by-tick loop with a timestamp-ordered event queue
that skips idle Δ-ticks outright.  ``tests/test_reference_battery.py``
holds every registry entry on every network preset to the reference
executor (``tests/reference.py``), whose conditioned loop is that
synchronizer; the directed cases here pin what the battery's grid does
not single out — the idle ticks both loops count, adversarial delays and
crashes riding one schedule, a round budget run out, the network's RNG
end state, and a whole library sweep (``latency-stress``) whose CSV/JSON
artifacts must match byte for byte.
"""

import pytest

from repro.adversaries.crash import CrashAdversary
from repro.adversaries.network_scheduler import DelayAdversary
from repro.protocols.quadratic_ba import build_quadratic_ba
from repro.sim.conditions import NETWORKS
from tests import reference
from tests.reference import EVENT, REFERENCE, execute, observe


def _inputs(n):
    return [i % 2 for i in range(n)]


#: Every nontrivial named preset (perfect conditions never reach a
#: conditioned loop: the engine normalizes them to the fast path).
CONDITIONS = ("lan", "wan", "lossy", "split-heal")


def _execute(network, engine, **kwargs):
    conditions = NETWORKS[network]
    return reference.run(build_quadratic_ba(12, 3, _inputs(12), seed=7), 3,
                         seed=7, conditions=conditions, engine=engine,
                         **kwargs)


@pytest.mark.parametrize("network", CONDITIONS)
def test_event_engine_skips_what_lockstep_idles(network):
    """The engines agree on *how many* ticks were idle — the event
    engine skips them, the lock-step loop executes them as no-ops, and
    both count the same rounds."""
    event = _execute(network, EVENT)
    stats = event.network_stats
    assert stats.skipped_ticks > 0
    assert stats.events_processed >= stats.delivered_copies
    assert stats.skipped_ticks < stats.network_rounds
    lockstep = _execute(network, REFERENCE)
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

    def run(engine):
        instance = build_quadratic_ba(n, f, _inputs(n), seed=11)
        return reference.run(instance, f, adversary_factory(), seed=11,
                             conditions=conditions, engine=engine)

    assert observe(run(EVENT)) == observe(run(REFERENCE))


def test_budget_exhaustion_accounts_the_idle_tail():
    """An execution that runs out its round budget without halting must
    report the same clock on both loops: the lock-step synchronizer
    ticks the network all the way to ``max_rounds·Δ``, so the event
    clock, ``ConditionedNetwork.steps``, must account the idle tail it
    never ran."""
    event = _execute("wan", EVENT, max_rounds=2)
    lockstep = _execute("wan", REFERENCE, max_rounds=2)
    assert observe(event) == observe(lockstep)
    assert event.rounds_executed == 2
    assert event.network_stats.network_rounds == 2 * NETWORKS["wan"].delta


def test_rng_streams_end_in_the_same_state():
    """Direct evidence for draw-order identity (not just draw-outcome
    identity): after a full execution the conditioned network's RNG is
    in the same state under both loops."""
    def network_rng(engine):
        instance = build_quadratic_ba(12, 3, _inputs(12), seed=13)
        return execute(instance, 3, seed=13, conditions=NETWORKS["lossy"],
                       engine=engine)["network_rng"]

    assert network_rng(EVENT) == network_rng(REFERENCE) is not None


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
        with reference.running_on(engine):
            result = run_sweep(sweep, workers=1)
        rows = result.rows()
        # The lottery token counts this process's sweeps; every other
        # counter (coins, hits, misses) must agree.
        lottery = dict(result.lottery, token=None)
        return (sweep_json_text(sweep.name, rows, lottery),
                sweep_csv_text(rows), rows)

    reference_json, reference_csv, rows = artifacts(REFERENCE)
    event_json, event_csv, _ = artifacts(EVENT)
    assert event_json == reference_json
    assert event_csv == reference_csv
    # Really a conditioned sweep: some rows carry scheduler accounting.
    assert any(row.get("skipped_ticks") for row in rows)
