"""Golden counts: the hardware-independent numbers behind the paper's
separation, pinned.

Theorem 2's result is a count, not a time: subquadratic BA's multicast
bits stay flat in n while the quadratic family's grow ≈ 4× per doubling.
Every number below is a deterministic function of (protocol, n, f,
inputs, seed, network conditions), so a change that moves one changed
an execution or the accounting of one — size accounting (multicast
bits), the verification memo (``authenticator.check`` calls), the event
engine's tick bookkeeping (skipped ticks), the lottery, the early-stop
rule, the adaptive family's word curve or the store's replay.  Wall
clocks are not pinned here; ``python3 bench/run.py`` measures them
(``core-dense`` and ``core-sparse`` time the grid's two families).

Assertions that other modules already make — a perfect-conditions run
equals the unconditioned run, transcript for transcript
(tests/test_network_conditions.py), shared and unshared lottery rows
agree (tests/test_scenarios.py), a cold store and its warm replay give
the same rows (tests/test_store.py), the adaptive fast path is 4(n − 1)
words (tests/test_adaptive_ba.py) — are not repeated.

Teeth, checked by hand: ``serialization._TAG_BITS = 24`` (size
accounting) fails both scaling grids and the n = 96 network row;
``stats.skipped_ticks += jumped - 1`` in
``ConditionedNetwork.advance_to`` (tick accounting) fails the event
engine table.
"""

import pytest

from repro.adversaries import ActualFaultsAdversary
from repro.harness.profiling import profile_phase_budget
from repro.harness.runner import run_instance
from repro.harness.scenarios import run_sweep
from repro.harness.store import ExperimentStore
from repro.harness.sweep_library import SWEEPS
from repro.protocols.adaptive_ba import (
    FAST_PATH_WORD_FACTOR,
    build_adaptive_ba,
    escalations_of,
    words_of,
)
from repro.protocols.early_stopping import build_phase_king_early_stop
from repro.protocols.phase_king import build_phase_king
from repro.protocols.quadratic_ba import build_quadratic_ba
from repro.protocols.subquadratic_ba import build_subquadratic_ba
from repro.sim.conditions import NETWORKS, LinkTopology, NetworkConditions

from tests.conftest import mixed_inputs

SEED = 1

#: family -> [(n, f, rounds, envelopes, multicast bits,
#: ``authenticator.check`` calls)]: split inputs, seed 1, perfect
#: synchrony, f = n/2 − 1 (quadratic) or ⌊100n/256⌋ (subquadratic).
SCALING = {
    "quadratic": [
        (96, 47, 7, 481, 11_682_848, 385),
        (192, 95, 7, 961, 45_851_936, 769),
        (384, 191, 7, 1921, 181_651_232, 1537),
        (768, 383, 7, 3841, 723_094_304, 3073),
        (1536, 767, 7, 7681, 2_885_358_368, 6145),
    ],
    "subquadratic": [
        (96, 37, 7, 198, 1_903_224, 151),
        (192, 75, 27, 414, 1_137_472, 375),
        (384, 150, 7, 201, 1_907_064, 160),
        (768, 300, 11, 231, 2_322_208, 195),
        (1536, 600, 7, 185, 1_763_336, 147),
    ],
}
BUILDERS = {"quadratic": build_quadratic_ba,
            "subquadratic": build_subquadratic_ba}


@pytest.mark.parametrize("family", sorted(SCALING))
def test_scaling_grid(family):
    measured = []
    for n, f, *_ in SCALING[family]:
        instance = BUILDERS[family](n, f, mixed_inputs(n), seed=SEED)
        profile = profile_phase_budget(instance, f, seed=SEED)
        result = profile.result
        assert result.consistent() and result.all_decided(), (family, n)
        # A benign run's every envelope is one multicast.
        assert result.metrics.multicast_complexity_messages \
            == len(result.transcript)
        measured.append((n, f, result.rounds_executed, len(result.transcript),
                         result.metrics.multicast_complexity_bits,
                         profile.check_calls))
    assert measured == SCALING[family]


#: The ``adversary-grid`` sweep's eligibility coins: (cells, coins
#: mined, coins served from the shared lottery cache).
ADVERSARY_GRID_LOTTERY = (8, 16945, 15467)


def test_adversary_grid_lottery():
    sweep = run_sweep(SWEEPS["adversary-grid"], share_lottery=True)
    assert (len(sweep.cells), sweep.lottery["coins"],
            sweep.lottery["hits"]) == ADVERSARY_GRID_LOTTERY


#: Quadratic BA at n = 96, f = 47 on the ``wan`` preset: (mean delivery
#: latency, peak copies in flight).
WAN_N96 = (2.5078, 9120)


def test_network_n96():
    n, f = 96, 47

    def run(network):
        instance = build_quadratic_ba(n, f, mixed_inputs(n), seed=SEED)
        return run_instance(instance, f, seed=SEED,
                            conditions=NETWORKS[network])

    # Perfect synchrony takes the unconditioned fast path: same counts.
    perfect = run("perfect")
    assert (n, f, perfect.rounds_executed, len(perfect.transcript),
            perfect.metrics.multicast_complexity_bits) \
        == SCALING["quadratic"][0][:5]
    wan = run("wan").network_stats
    assert (round(wan.mean_delivery_latency, 4), wan.max_in_flight) \
        == WAN_N96


#: Quadratic BA at n = 8, f = 3 under a conservatively large Δ over
#: links that deliver in 1–3 ticks (fixed latency 1 plus a clustered
#: cross-pod surcharge): [(Δ, network rounds, skipped ticks, events
#: processed, skip density)] of seed 0, over 12 seeds that all agree.
#: The events stay put as Δ grows; the engine jumps the idle ticks.
EVENT_ENGINE = [
    (32, 193, 183, 231, 0.948),
    (128, 769, 759, 231, 0.987),
    (512, 3073, 3063, 231, 0.997),
]
EVENT_ENGINE_TRIALS = 12
#: ``authenticator.check`` calls of seed 1 at the sparsest Δ.
EVENT_ENGINE_SPARSEST_CHECK_CALLS = 33


def _sparse_links(delta):
    return NetworkConditions(
        delta=delta, latency=("fixed", 1),
        topology=LinkTopology.clustered(clusters=4, extra=2))


def test_event_engine_ticks():
    n, f = 8, 3
    measured = []
    for delta, *_ in EVENT_ENGINE:
        results = [
            run_instance(build_quadratic_ba(n, f, mixed_inputs(n), seed=seed),
                         f, seed=seed, conditions=_sparse_links(delta))
            for seed in range(EVENT_ENGINE_TRIALS)]
        assert all(result.consistent() and result.all_decided()
                   for result in results), delta
        stats = results[0].network_stats
        measured.append((delta, stats.network_rounds, stats.skipped_ticks,
                         stats.events_processed,
                         round(stats.skipped_ticks / stats.network_rounds, 3)))
    assert measured == EVENT_ENGINE

    profile = profile_phase_budget(
        build_quadratic_ba(n, f, mixed_inputs(n), seed=SEED), f, seed=SEED,
        conditions=_sparse_links(EVENT_ENGINE[-1][0]))
    assert profile.check_calls == EVENT_ENGINE_SPARSEST_CHECK_CALLS


#: Phase-king at n = 96, f = 31 on the ``lan`` preset: (rounds,
#: multicasts) of the fixed budget, then (rounds, rounds saved,
#: multicasts) of the GST-aware early-stop variant.
EARLY_STOP = (41, 1940, 7, 34, 387)


def test_early_stop_n96_lan():
    n, f = 96, 31
    conditions = NETWORKS["lan"]

    def run(instance):
        result = run_instance(instance, f, seed=SEED, conditions=conditions)
        assert result.consistent() and result.agreement_valid()
        return result

    fixed = run(build_phase_king(n, f, mixed_inputs(n), seed=SEED))
    early = run(build_phase_king_early_stop(
        n, f, mixed_inputs(n), seed=SEED, conditions=conditions))
    assert (fixed.rounds_executed, fixed.metrics.multicast_complexity_messages,
            early.rounds_executed, early.rounds_saved,
            early.metrics.multicast_complexity_messages) == EARLY_STOP


#: n = 25, f = 8, unanimous inputs, seed 1, under ``actual-faults``:
#: [(actual faults f*, adaptive-ba words, adaptive-ba escalations,
#: quadratic-ba words)].  Adaptive words grow with f*, quadratic words
#: fall (crashed nodes stop sending), and adaptive stays far below.
ADAPTIVE_WORDS = [
    (0, 96, 0, 1800),
    (4, 172, 4, 1512),
    (8, 216, 8, 1224),
]


def test_adaptive_word_curve():
    n, f = 25, 8
    assert FAST_PATH_WORD_FACTOR == 4

    def run(builder, actual):
        result = run_instance(builder(n, f, [1] * n, seed=SEED), f,
                              ActualFaultsAdversary(actual=actual), seed=SEED)
        assert result.consistent() and result.all_decided(), (builder, actual)
        return result

    measured = []
    for actual, *_ in ADAPTIVE_WORDS:
        adaptive = run(build_adaptive_ba, actual)
        quadratic = run(build_quadratic_ba, actual)
        measured.append((actual, words_of(adaptive), escalations_of(adaptive),
                         words_of(quadratic)))
    assert measured == ADAPTIVE_WORDS


def test_smoke_store_replay(tmp_path):
    """The ``smoke`` sweep's two cells, recorded cold, all replay warm."""
    store = ExperimentStore(tmp_path)
    run_sweep(SWEEPS["smoke"], store=store)
    warm = run_sweep(SWEEPS["smoke"], store=store)
    assert len(warm.cells) == 2
    assert warm.store_stats["replayed"] / len(warm.cells) == 1.0
