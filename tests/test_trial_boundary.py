"""The trial boundary of a sweep: a trial returns what its cell reads.

A sweep row is made of scalars of each :class:`ExecutionResult`, so a
sweep cell's trials run under ``metrics-only`` retention — no transcript
is built, none is pickled back from a pool worker, and a transcript
analysis on such a result refuses instead of scanning an empty list.
``run_trials`` / ``run_instance`` keep ``full`` as their default and are
where a transcript comes from.  An owned pool's worker runs with the
cyclic collector off and its start-up heap frozen, and collects between
trials; the collector of the calling process is never touched.
"""

import concurrent.futures
import gc
import pickle

import pytest

from repro.harness import invariants, replay
from repro.harness.runner import (
    _run_one_trial, run_instance, run_trials, trial_submitter)
from repro.harness.scenarios import (
    PROTOCOLS, AdversaryFactorySpec, ScenarioSpec, SweepSpec, _stats_metrics,
    run_sweep)
from repro.harness.sweep_library import SWEEPS
from repro.protocols import build_quadratic_ba
from repro.serialization import encoded_size_bits
from repro.sim.engine import TRANSCRIPT_METRICS_ONLY
from tests.test_byzantine_menu import PINNED, POLICIES, WORLDS
from tests.test_perf_smoke import _InThreadPool

PER_SEED = SweepSpec(name="per-seed", scenarios=(ScenarioSpec(
    name="kept-adversaries", protocol="quadratic", executor="per-seed",
    fixed={"n": 7, "f": 2}, inputs="mixed", adversary="crash",
    seeds=(1, 2)),))

#: ``leader-vs-delta`` is the conditioned one (wan / lossy networks).
BATTERY = (SWEEPS["smoke"], SWEEPS["leader-vs-delta"], PER_SEED)

#: One pooled quadratic n = 96 result weighs 1 773 bytes pickled (91 039
#: with its transcript, ≈ 4 700 with a per-multicast event log riding in
#: the metrics); the budget is twice the measurement.
RESULT_PICKLE_BUDGET = 3_600


def _collector():
    return gc.isenabled(), gc.get_freeze_count()


def _trial_results(sweep_result):
    """Every per-trial result a sweep's cells carry."""
    results = []
    for cell in sweep_result.cells:
        if cell.cell.executor == "trials":
            results.extend(cell.stats.results)
        elif cell.cell.executor == "per-seed":
            results.extend(result for result, _adversary in cell.payload)
    return results


def _refusals(result):
    return (
        lambda: invariants.check_aba_invariants(result, [], 1),
        lambda: invariants.honest_votes_unique_per_iteration(result),
        lambda: invariants.commits_carry_valid_certificates(result, 1),
        lambda: invariants.quorum_intersection_on_acks(result, 1),
        lambda: replay.narrate(result),
    )


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("sweep", BATTERY, ids=lambda sweep: sweep.name)
def test_sweep_trials_keep_no_transcript_and_analyses_refuse(sweep, workers):
    before = _collector()
    results = _trial_results(run_sweep(sweep, workers=workers))
    assert _collector() == before, "run_sweep moved the caller's collector"
    assert len(results) == sum(len(cell.seeds) for cell in sweep.expand()
                               if cell.executor in ("trials", "per-seed"))
    for result in results:
        assert result.transcript_retained is False
        assert result.transcript == []
        assert result.metrics.honest_multicast_count > 0
        for analysis in _refusals(result):
            with pytest.raises(ValueError, match="run_trials"):
                analysis()


@pytest.mark.parametrize("name", ("smoke", "leader-vs-delta"))
def test_rows_do_not_depend_on_workers_or_retention(name):
    """… and ``run_trials`` with its defaults — the contract that stays —
    recomputes a cell's metrics *with* the transcripts the cell dropped."""
    sweep = SWEEPS[name]
    serial, pooled = run_sweep(sweep), run_sweep(sweep, workers=2)
    assert pooled.rows() == serial.rows()
    assert pooled.rows()[0]["mean_multicasts"] > 0
    for computed in serial.cells[:2]:
        cell = computed.cell
        full = run_trials(
            PROTOCOLS[cell.protocol].builder, cell.f, cell.seeds,
            adversary_factory=cell.adversary and AdversaryFactorySpec(
                cell.adversary, cell.adversary_kwargs),
            conditions=cell.network, **cell.builder_kwargs())
        assert not any(result.transcript_retained
                       for result in computed.stats.results)
        for result in full.results:
            assert result.transcript_retained is True
            assert len(result.require_transcript()) >= (
                result.metrics.honest_multicast_count) > 0
            assert invariants.honest_votes_unique_per_iteration(result) is None
            assert replay.narrate(result, aba=False)
        assert _stats_metrics(full, PROTOCOLS[cell.protocol]) == (
            computed.metrics)


@pytest.mark.parametrize("policy, world", sorted(PINNED))
def test_per_round_totals_are_the_transcripts(policy, world):
    """What ``metrics.record`` accumulates, recounted from the wire: the
    honest multicasts of each round, their count and their encoded bits —
    and the same dicts when no transcript is kept."""
    instance, f, conditions = WORLDS[world](2)
    full = run_instance(instance, f, POLICIES[policy](instance), seed=2,
                        conditions=conditions)
    counts, bits = {}, {}
    for envelope in full.require_transcript():
        if envelope.honest_sender and envelope.is_multicast:
            sent = envelope.round_sent
            counts[sent] = counts.get(sent, 0) + 1
            bits[sent] = bits.get(sent, 0) + encoded_size_bits(
                envelope.payload)
    assert len(bits) > 1 and sum(bits.values()) == (
        full.metrics.honest_multicast_bits)
    # The filter is not vacuous: the injecting policies' envelopes, and
    # any unicast, are on the wire and in neither dict.
    assert policy == "leader-killer" or len(full.transcript) > sum(
        counts.values())
    instance, f, conditions = WORLDS[world](2)
    bare = run_instance(instance, f, POLICIES[policy](instance), seed=2,
                        conditions=conditions,
                        transcript_retention=TRANSCRIPT_METRICS_ONLY)
    for metrics in (full.metrics, bare.metrics):
        assert metrics.per_round_multicast_bits() == bits
        assert metrics.per_round_honest_multicasts == counts


def test_pooled_result_fits_its_pickle_budget():
    sweep = SweepSpec(name="q96", scenarios=(ScenarioSpec(
        name="dense", protocol="quadratic", fixed={"n": 96, "f": 47},
        inputs="mixed", seeds=(1,)),))
    (result,) = _trial_results(run_sweep(sweep, workers=2))
    assert result.metrics.honest_multicast_count > 96
    assert len(result.metrics.per_round_multicast_bits()) == (
        len(result.metrics.per_round_honest_multicasts))
    size = len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
    assert size <= RESULT_PICKLE_BUDGET, (
        f"one n = 96 trial result pickles to {size} bytes: something "
        f"per-envelope is riding back from the worker again")


def _trial_then_probe(seed):
    """In one worker call: a trial, then what its collector looks like."""
    result = _run_one_trial(
        build_quadratic_ba, 10, seed, n=31, inputs=[i % 2 for i in range(31)],
        transcript_retention=TRANSCRIPT_METRICS_ONLY)
    return (result.consistent(), gc.isenabled(), gc.get_freeze_count(),
            gc.collect())


def test_owned_pool_worker_runs_collector_off_frozen_and_collected():
    before = _collector()
    with trial_submitter(2) as pool:
        assert isinstance(pool, concurrent.futures.ProcessPoolExecutor)
        probes = [pool.submit(_trial_then_probe, seed).result()
                  for seed in (1, 2, 3)]
    for consistent, enabled, frozen, left_behind in probes:
        assert consistent
        assert enabled is False
        assert frozen > 0
        assert left_behind == 0, (
            f"{left_behind} unreachable objects survived the trial: with "
            f"the collector off nothing else will ever collect them")
    assert _collector() == before


def test_stand_in_pool_that_ignores_initializer_keeps_its_collector(
        monkeypatch):
    """The trial reads ``gc.isenabled()`` and takes no flag: run in a
    process nobody prepared, it leaves the collector alone."""
    collections, log = [], []
    real_collect = gc.collect
    monkeypatch.setattr(_InThreadPool, "log", log)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InThreadPool)
    monkeypatch.setattr(gc, "collect",
                        lambda *args: collections.append(args)
                        or real_collect(*args))
    before = _collector()
    results = _trial_results(run_sweep(SWEEPS["smoke"], workers=2))
    monkeypatch.undo()
    assert log.count("submit") == len(results) == 4
    assert all(not result.transcript_retained for result in results)
    assert _collector() == before and before[0] is True
    assert collections == []
